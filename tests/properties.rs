//! Property-based tests over core data structures and invariants.

use manual_hijacking_wild::analysis::{Breakdown, Ecdf};
use manual_hijacking_wild::defense::{ActivityFeatures, ActivityMonitor, RiskEngine};
use manual_hijacking_wild::identity::is_trivial_variant;
use manual_hijacking_wild::mailsys::message::{contains_ignore_ascii_case, contains_lowercased};
use manual_hijacking_wild::mailsys::{Folder, Mailbox, Message, MessageKind, SearchQuery};
use manual_hijacking_wild::simclock::{EventQueue, SimRng};
use manual_hijacking_wild::types::{
    AccountId, EmailAddress, IpAddr, IpBlock, MessageId, SimTime,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn arb_message(id: u32, subject: String, body: String, starred: bool) -> Message {
    Message {
        id: MessageId(id),
        owner: AccountId(0),
        from: EmailAddress::new("from", "x.com"),
        to: vec![].into(),
        subject: subject.into(),
        body: body.into(),
        attachments: vec![],
        kind: MessageKind::Personal,
        reply_to: None,
        at: SimTime::from_secs(id as u64),
        read: false,
        starred,
    }
}

/// Reference model for [`Mailbox`]: two `BTreeMap`s (message by id,
/// folder by id) and a full scan for the unread query, with search
/// spelled out over `to_ascii_lowercase().contains()`.
#[derive(Default)]
struct MailboxModel {
    messages: BTreeMap<MessageId, Message>,
    folders: BTreeMap<MessageId, Folder>,
    tombstones: Vec<(Message, SimTime, Folder)>,
}

impl MailboxModel {
    fn store(&mut self, message: Message, folder: Folder) {
        self.folders.insert(message.id, folder);
        self.messages.insert(message.id, message);
    }

    fn move_to(&mut self, id: MessageId, folder: Folder) -> Option<Folder> {
        self.messages.contains_key(&id).then(|| self.folders.insert(id, folder))?
    }

    fn mark_read(&mut self, id: MessageId) -> bool {
        self.messages.get_mut(&id).map(|m| m.read = true).is_some()
    }

    fn set_starred(&mut self, id: MessageId, starred: bool) -> bool {
        self.messages.get_mut(&id).map(|m| m.starred = starred).is_some()
    }

    fn purge(&mut self, id: MessageId, at: SimTime) -> bool {
        let Some(message) = self.messages.remove(&id) else {
            return false;
        };
        let folder = self.folders.remove(&id).expect("every message has a folder");
        self.tombstones.push((message, at, folder));
        true
    }

    fn mass_delete(&mut self, at: SimTime) -> Vec<MessageId> {
        let ids: Vec<MessageId> = self.messages.keys().copied().collect();
        for id in &ids {
            self.purge(*id, at);
        }
        ids
    }

    fn restore_purged_since(&mut self, since: SimTime) -> usize {
        let (restore, keep) = std::mem::take(&mut self.tombstones)
            .into_iter()
            .partition::<Vec<_>, _>(|(_, at, _)| *at >= since);
        self.tombstones = keep;
        let restored = restore.len();
        for (message, _, folder) in restore {
            self.store(message, folder);
        }
        restored
    }

    fn list_folder(&self, folder: Folder) -> Vec<MessageId> {
        match folder {
            Folder::Starred => self
                .messages
                .values()
                .filter(|m| m.starred && self.folders[&m.id] != Folder::Trash)
                .map(|m| m.id)
                .collect(),
            f => self.folders.iter().filter(|(_, fol)| **fol == f).map(|(id, _)| *id).collect(),
        }
    }

    fn newest_unread_inbox(&self) -> Vec<MessageId> {
        let inbox = self.list_folder(Folder::Inbox);
        inbox.into_iter().rev().filter(|id| !self.messages[id].read).take(12).collect()
    }

    fn search(&self, query: &SearchQuery) -> Vec<MessageId> {
        let phrase = query.terms.join(" ");
        let text = |m: &Message, needle: &str| {
            m.subject.to_ascii_lowercase().contains(needle)
                || m.body.to_ascii_lowercase().contains(needle)
        };
        let has_ext = |m: &Message| {
            m.attachments.iter().any(|a| {
                let ext = a.rsplit('.').next().unwrap_or("");
                query.filename_exts.iter().any(|x| x.eq_ignore_ascii_case(ext))
            })
        };
        self.messages
            .values()
            .filter(|m| !matches!(self.folders[&m.id], Folder::Trash | Folder::Spam))
            .filter(|m| !query.starred_only || m.starred)
            .filter(|m| query.filename_exts.is_empty() || has_ext(m))
            .filter(|m| {
                query.terms.is_empty()
                    || text(m, &phrase)
                    || query.terms.iter().all(|t| text(m, t))
            })
            .map(|m| m.id)
            .collect()
    }
}

/// Subject/body pairs for the model test: Table 3 terms in mixed case,
/// non-Latin text, and phrases split across subject and body.
const MODEL_TEXTS: [(&str, &str); 6] = [
    ("Wire Transfer receipt", "your bank confirmed the WIRE transfer"),
    ("Vacation", "photos attached"),
    ("password reset", "your amazon password"),
    ("您的账单", "本月账单已生成"),
    ("transfer completed", "the wire arrived yesterday"),
    ("Ünïcode TRANSFER", "Grüße"),
];
const MODEL_ATTACHMENTS: [&[&str]; 4] = [&[], &["beach.jpg", "sunset.PNG"], &["clip.mp4"], &["notes.txt"]];
const MODEL_FOLDERS: [Folder; 5] =
    [Folder::Inbox, Folder::Drafts, Folder::Sent, Folder::Trash, Folder::Spam];
/// The Table 3 queries `search.rs` exercises.
const MODEL_QUERIES: [&str; 7] = [
    "wire transfer",
    "transfer",
    "password",
    "is:starred",
    "filename:(jpg or jpeg or png)",
    "filename:mp4",
    "账单",
];

/// Assert that `mb` and `model` agree on everything observable.
fn assert_mailbox_matches_model(mb: &Mailbox, model: &MailboxModel, max_id: u32, step: usize) {
    for folder in Folder::ALL {
        assert_eq!(mb.list_folder(folder), model.list_folder(folder), "step {step}: {folder:?}");
    }
    let unread: Vec<MessageId> = mb.newest_unread_inbox().take(12).collect();
    assert_eq!(unread, model.newest_unread_inbox(), "step {step}: newest unread");
    for id in (0..=max_id).map(MessageId) {
        assert_eq!(mb.folder_of(id), model.folders.get(&id).copied(), "step {step}: {id:?}");
        assert_eq!(
            format!("{:?}", mb.get(id)),
            format!("{:?}", model.messages.get(&id)),
            "step {step}: message {id:?}"
        );
    }
    assert_eq!(mb.len(), model.messages.len(), "step {step}: len");
    assert_eq!(mb.tombstone_count(), model.tombstones.len(), "step {step}: tombstones");
    for raw in MODEL_QUERIES {
        let query = SearchQuery::parse(raw);
        assert_eq!(
            manual_hijacking_wild::mailsys::search::search(mb, &query),
            model.search(&query),
            "step {step}: search {raw:?}"
        );
    }
}

proptest! {
    /// Event queues always pop in non-decreasing time order, regardless
    /// of insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(*t), i);
        }
        let mut last = SimTime::from_secs(0);
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// ECDF is monotone and bounded in [0, 1].
    #[test]
    fn ecdf_is_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(xs.clone());
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in &xs {
            let f = e.fraction_at_or_below(*x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        prop_assert!((e.fraction_at_or_below(f64::MAX) - 1.0).abs() < 1e-12);
    }

    /// ECDF quantiles are order-consistent.
    #[test]
    fn ecdf_quantiles_monotone(xs in proptest::collection::vec(-1e5f64..1e5, 1..100),
                               q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let e = Ecdf::new(xs);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(e.quantile(lo) <= e.quantile(hi));
    }

    /// Breakdown fractions always sum to 1 (non-empty) and rows sort
    /// descending.
    #[test]
    fn breakdown_fractions_sum_to_one(labels in proptest::collection::vec(0u8..10, 1..200)) {
        let mut b = Breakdown::new();
        for l in &labels {
            b.add(format!("label{l}"));
        }
        let rows = b.rows();
        let total: f64 = rows.iter().map(|(_, _, f)| f).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for w in rows.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    /// Mailbox: purge + restore round-trips the full message set, and
    /// search results are always a subset of live messages.
    #[test]
    fn mailbox_purge_restore_roundtrip(n in 1usize..40, needle in "[a-z]{1,6}") {
        let mut mb = Mailbox::new();
        for i in 0..n {
            let subject = if i % 3 == 0 { format!("about {needle}") } else { format!("note {i}") };
            mb.store(arb_message(i as u32, subject, "body".into(), i % 5 == 0), Folder::Inbox);
        }
        let hits = manual_hijacking_wild::mailsys::search::search(&mb, &SearchQuery::parse(&needle));
        for h in &hits {
            prop_assert!(mb.get(*h).is_some());
        }
        // Hijack-style mass purge then remission restore.
        let ids: Vec<MessageId> = mb.all_messages().map(|m| m.id).collect();
        for id in &ids {
            mb.purge(*id, SimTime::from_secs(1000));
        }
        prop_assert!(mb.is_empty());
        let restored = mb.restore_purged_since(SimTime::from_secs(500));
        prop_assert_eq!(restored, n);
        prop_assert_eq!(mb.len(), n);
    }

    /// `Mailbox` behaves exactly like the two-map reference model over
    /// random sequences of every mutating operation, including the
    /// unread index and remission restores into the middle of the ids.
    #[test]
    fn mailbox_matches_the_two_map_model(ops in proptest::collection::vec(0u64..u64::MAX, 1..120)) {
        let (mut mb, mut model) = (Mailbox::new(), MailboxModel::default());
        // Stored text shares allocations, as the provider's does: two
        // allocations of each subject and body, paired freely, so
        // messages repeat a pair, share a subject but not a body (and
        // the reverse), and hold equal texts in distinct allocations.
        let twice = |text: &str| [Arc::<str>::from(text), Arc::<str>::from(text)];
        let subjects: Vec<Arc<str>> = MODEL_TEXTS.iter().flat_map(|(s, _)| twice(s)).collect();
        let bodies: Vec<Arc<str>> = MODEL_TEXTS.iter().flat_map(|(_, b)| twice(b)).collect();
        let mut next_id = 1u32;
        for (step, x) in ops.into_iter().enumerate() {
            let at = SimTime::from_secs(step as u64 * 10);
            // Ids up to `next_id` inclusive: one never stored.
            let id = MessageId(((x >> 32) % (u64::from(next_id) + 1)) as u32);
            let folder = MODEL_FOLDERS[((x >> 8) % 5) as usize];
            match x % 100 {
                0..=34 => {
                    let starred = (x >> 13) % 4 == 0;
                    let mut m = arb_message(next_id, String::new(), String::new(), starred);
                    m.subject = Arc::clone(&subjects[((x >> 16) % 12) as usize]);
                    m.body = Arc::clone(&bodies[((x >> 40) % 12) as usize]);
                    m.read = (x >> 12) % 2 == 0;
                    m.attachments = MODEL_ATTACHMENTS[((x >> 24) % 4) as usize]
                        .iter()
                        .map(|a| a.to_string())
                        .collect();
                    mb.store(m.clone(), folder);
                    model.store(m, folder);
                    next_id += 1;
                }
                35..=49 => prop_assert_eq!(mb.move_to(id, folder), model.move_to(id, folder)),
                50..=64 => prop_assert_eq!(mb.mark_read(id), model.mark_read(id)),
                65..=74 => {
                    let starred = (x >> 12) % 2 == 0;
                    prop_assert_eq!(mb.set_starred(id, starred), model.set_starred(id, starred));
                }
                75..=86 => prop_assert_eq!(mb.purge(id, at), model.purge(id, at)),
                87..=94 => {
                    let since = SimTime::from_secs((x >> 16) % (step as u64 * 10 + 1));
                    prop_assert_eq!(mb.restore_purged_since(since), model.restore_purged_since(since));
                }
                _ => prop_assert_eq!(mb.purge_all(at), model.mass_delete(at)),
            }
            assert_mailbox_matches_model(&mb, &model, next_id, step);
        }
    }

    /// The allocation-free matcher agrees with lower-casing the haystack
    /// and calling `contains`, over mixed-case ASCII and multi-byte text.
    #[test]
    fn lowercased_matcher_equals_lowercase_contains(haystack in "[aAbBzZ 账单Ü]{0,10}", needle in "[abzAB 账单Ü]{0,4}") {
        let lower = haystack.to_ascii_lowercase();
        prop_assert_eq!(contains_lowercased(&haystack, &needle), lower.contains(&needle));
        prop_assert_eq!(
            contains_ignore_ascii_case(&haystack, &needle),
            lower.contains(&needle.to_ascii_lowercase())
        );
        // The empty needle always matches; a longer one never does.
        prop_assert!(contains_lowercased(&haystack, ""));
        prop_assert!(contains_ignore_ascii_case(&haystack, ""));
        let longer = format!("{lower}a");
        prop_assert!(!contains_lowercased(&haystack, &longer));
        prop_assert!(!contains_ignore_ascii_case(&haystack, &longer));
    }

    /// The trivial-variant relation is symmetric.
    #[test]
    fn trivial_variant_symmetry(a in "[a-zA-Z0-9]{1,12}", b in "[a-zA-Z0-9]{1,12}") {
        prop_assert_eq!(is_trivial_variant(&a, &b), is_trivial_variant(&b, &a));
    }

    /// Risk scores are in [0, 1) and monotone in the fan-out signal.
    #[test]
    fn risk_score_bounded_and_monotone(fanout1 in 0.0f64..1.0, fanout2 in 0.0f64..1.0) {
        use manual_hijacking_wild::defense::LoginSignals;
        let engine = RiskEngine::default();
        let mk = |f: f64| LoginSignals { ip_fanout: f, new_country: 1.0, ..Default::default() };
        let (lo, hi) = if fanout1 <= fanout2 { (fanout1, fanout2) } else { (fanout2, fanout1) };
        let s_lo = engine.score(&mk(lo));
        let s_hi = engine.score(&mk(hi));
        prop_assert!((0.0..1.0).contains(&s_lo));
        prop_assert!(s_hi >= s_lo);
    }

    /// Activity scores are bounded and monotone in every feature count.
    #[test]
    fn activity_score_bounded_monotone(h in 0u32..20, s in 0u32..10, c in 0u32..5, p in 0u32..40) {
        let f = ActivityFeatures {
            hunting_searches: h,
            other_searches: 0,
            special_folders_opened: s,
            contact_views: c,
            settings_changes: 0,
            messages_sent: 0,
            max_recipients: 0,
            purges: p,
        };
        let score = ActivityMonitor::score(&f);
        prop_assert!((0.0..1.0).contains(&score));
        let mut bigger = f.clone();
        bigger.hunting_searches += 1;
        prop_assert!(ActivityMonitor::score(&bigger) >= score);
    }

    /// IP blocks contain exactly the addresses they enumerate.
    #[test]
    fn ip_block_membership(a in 0u8..255, b in 0u8..255, prefix in 8u8..31, i in 0u64..10_000) {
        let block = IpBlock::new(IpAddr::new(a, b, 0, 0), prefix);
        let addr = block.addr(i);
        prop_assert!(block.contains(addr));
    }

    /// Email parsing round-trips through Display.
    #[test]
    fn email_parse_display_roundtrip(local in "[a-z][a-z0-9.]{0,10}", domain in "[a-z]{1,8}\\.[a-z]{2,4}") {
        let addr = EmailAddress::new(local.clone(), domain.clone());
        let parsed = EmailAddress::parse(&addr.to_string()).unwrap();
        prop_assert_eq!(parsed, addr);
    }

    /// Weighted sampling never returns an index with zero weight.
    #[test]
    fn weighted_index_respects_zeros(weights in proptest::collection::vec(0.0f64..10.0, 1..20), seed in 0u64..1000) {
        let mut rng = SimRng::from_seed(seed);
        if let Some(i) = rng.weighted_index(&weights) {
            prop_assert!(weights[i] > 0.0);
        } else {
            prop_assert!(weights.iter().all(|w| *w <= 0.0));
        }
    }
}
