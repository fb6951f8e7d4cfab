//! Mailboxes, folders and contacts.
//!
//! Folder semantics follow the webmail conventions the paper describes:
//! `Starred` is a *view* over the starred flag (a label, not a storage
//! location), `Trash` is a soft-delete holding area, and permanent
//! deletion leaves a tombstone so the §6.4 remission process can restore
//! "hijacker-deleted content".

use crate::message::Message;
use mhw_types::{AccountId, EmailAddress, MessageId, SimTime};

/// Mailbox folders. `Starred` never stores messages — it is materialized
/// from the starred flag when opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Folder {
    Inbox,
    Starred,
    Drafts,
    Sent,
    Trash,
    Spam,
}

impl Folder {
    pub const ALL: [Folder; 6] = [
        Folder::Inbox,
        Folder::Starred,
        Folder::Drafts,
        Folder::Sent,
        Folder::Trash,
        Folder::Spam,
    ];

    /// Whether messages are physically stored under this folder.
    pub fn is_storage(self) -> bool {
        self != Folder::Starred
    }
}

/// A contact-list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContactEntry {
    pub address: EmailAddress,
    /// The contact's account id if they use the home provider.
    pub internal: Option<AccountId>,
}

/// Tombstone for a purged or hijacker-trashed message, kept for
/// remission.
#[derive(Debug, Clone)]
pub struct Tombstone {
    pub message: Message,
    pub deleted_at: SimTime,
    /// Folder the message lived in before deletion.
    pub previous_folder: Folder,
}

/// A stored message with its physical folder inline.
#[derive(Debug, Clone)]
struct Slot {
    message: Message,
    folder: Folder,
}

impl Slot {
    fn is_unread_inbox(&self) -> bool {
        self.folder == Folder::Inbox && !self.message.read
    }
}

/// One user's mailbox.
///
/// Messages live in one vector of slots sorted by id. The provider
/// hands out ids in increasing order, so storing new mail is a push;
/// only remission restores insert in the middle. The slots' ids are
/// also kept as a column of their own, so a lookup binary-searches
/// 4-byte ids instead of touching a slot per probe. A second sorted
/// vector indexes the unread Inbox ids, so an owner's login reads its
/// newest unread mail without scanning the mailbox. `read` changes only
/// through [`Mailbox::mark_read`], which keeps that index exact.
#[derive(Debug, Clone, Default)]
pub struct Mailbox {
    /// Live messages, ascending by id.
    slots: Vec<Slot>,
    /// `slots[i].message.id` at index `i`.
    ids: Vec<MessageId>,
    /// Ids of unread Inbox messages, ascending.
    unread_inbox: Vec<MessageId>,
    /// Purged messages (tombstones for remission).
    tombstones: Vec<Tombstone>,
    /// Contact list.
    contacts: Vec<ContactEntry>,
    /// Contacts removed (kept for remission of mass contact deletion).
    deleted_contacts: Vec<(ContactEntry, SimTime)>,
}

impl Mailbox {
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, id: MessageId) -> Result<usize, usize> {
        self.ids.binary_search(&id)
    }

    fn slot_mut(&mut self, id: MessageId) -> Option<&mut Slot> {
        let i = self.position(id).ok()?;
        Some(&mut self.slots[i])
    }

    /// Make `id`'s membership of the unread-Inbox index equal `unread`.
    fn track_unread(&mut self, id: MessageId, unread: bool) {
        match (self.unread_inbox.binary_search(&id), unread) {
            (Err(i), true) => self.unread_inbox.insert(i, id),
            (Ok(i), false) => {
                self.unread_inbox.remove(i);
            }
            _ => {}
        }
    }

    /// Put a slot at its id's position, replacing a live message with
    /// the same id.
    fn insert(&mut self, slot: Slot) {
        let id = slot.message.id;
        let unread = slot.is_unread_inbox();
        match self.ids.last() {
            Some(&last) if last >= id => match self.position(id) {
                Ok(i) => self.slots[i] = slot,
                Err(i) => {
                    self.slots.insert(i, slot);
                    self.ids.insert(i, id);
                }
            },
            _ => {
                self.slots.push(slot);
                self.ids.push(id);
            }
        }
        self.track_unread(id, unread);
    }

    /// Store a message in `folder`. Message ids are globally unique, so
    /// this overwrites nothing in practice; a repeated id replaces the
    /// earlier message.
    pub fn store(&mut self, message: Message, folder: Folder) {
        debug_assert!(folder.is_storage(), "cannot store into the Starred view");
        self.insert(Slot { message, folder });
    }

    pub fn get(&self, id: MessageId) -> Option<&Message> {
        self.position(id).ok().map(|i| &self.slots[i].message)
    }

    /// Physical folder of a message.
    pub fn folder_of(&self, id: MessageId) -> Option<Folder> {
        self.position(id).ok().map(|i| self.slots[i].folder)
    }

    /// Mark a message read. Returns `false` if the message is unknown.
    pub fn mark_read(&mut self, id: MessageId) -> bool {
        let Some(slot) = self.slot_mut(id) else {
            return false;
        };
        slot.message.read = true;
        self.track_unread(id, false);
        true
    }

    /// Set a message's starred flag. Returns `false` if the message is
    /// unknown.
    pub fn set_starred(&mut self, id: MessageId, starred: bool) -> bool {
        let Some(slot) = self.slot_mut(id) else {
            return false;
        };
        slot.message.starred = starred;
        true
    }

    /// Ids shown when opening `folder` (materializes the Starred view),
    /// in id (≈ arrival) order.
    pub fn list_folder(&self, folder: Folder) -> Vec<MessageId> {
        let shown = |s: &Slot| match folder {
            Folder::Starred => s.message.starred && s.folder != Folder::Trash,
            f => s.folder == f,
        };
        self.slots.iter().filter(|s| shown(s)).map(|s| s.message.id).collect()
    }

    /// Unread Inbox ids, newest first, read off the index.
    pub fn newest_unread_inbox(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.unread_inbox.iter().rev().copied()
    }

    /// All live (non-tombstoned) messages, in id order.
    pub fn all_messages(&self) -> impl Iterator<Item = &Message> {
        self.slots.iter().map(|s| &s.message)
    }

    /// All live messages with their folders, in id order.
    pub(crate) fn messages_in_folders(&self) -> impl Iterator<Item = (&Message, Folder)> {
        self.slots.iter().map(|s| (&s.message, s.folder))
    }

    /// Total number of live messages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Move a message to another storage folder (e.g. to Trash).
    /// Returns the previous folder, or `None` if the message is unknown.
    pub fn move_to(&mut self, id: MessageId, folder: Folder) -> Option<Folder> {
        debug_assert!(folder.is_storage(), "cannot move into the Starred view");
        let slot = self.slot_mut(id)?;
        let previous = std::mem::replace(&mut slot.folder, folder);
        let unread = slot.is_unread_inbox();
        self.track_unread(id, unread);
        Some(previous)
    }

    /// Permanently delete a message, leaving a tombstone.
    pub fn purge(&mut self, id: MessageId, at: SimTime) -> bool {
        let Ok(i) = self.position(id) else {
            return false;
        };
        let Slot { message, folder } = self.slots.remove(i);
        self.ids.remove(i);
        self.track_unread(id, false);
        self.tombstones.push(Tombstone { message, deleted_at: at, previous_folder: folder });
        true
    }

    /// Permanently delete every live message in one pass, leaving a
    /// tombstone for each. Returns the purged ids in id order.
    pub fn purge_all(&mut self, at: SimTime) -> Vec<MessageId> {
        self.unread_inbox.clear();
        self.tombstones.reserve(self.slots.len());
        for Slot { message, folder } in self.slots.drain(..) {
            self.tombstones.push(Tombstone { message, deleted_at: at, previous_folder: folder });
        }
        std::mem::take(&mut self.ids)
    }

    /// Restore every message tombstoned at or after `since` back into its
    /// previous folder (the optional content-restore step of §6.4).
    /// Returns the number restored.
    pub fn restore_purged_since(&mut self, since: SimTime) -> usize {
        let mut restored = 0;
        for t in std::mem::take(&mut self.tombstones) {
            if t.deleted_at >= since {
                self.insert(Slot { message: t.message, folder: t.previous_folder });
                restored += 1;
            } else {
                self.tombstones.push(t);
            }
        }
        restored
    }

    /// Tombstones currently held.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    // ---- contacts ----

    pub fn add_contact(&mut self, entry: ContactEntry) {
        if !self.contacts.iter().any(|c| c.address == entry.address) {
            self.contacts.push(entry);
        }
    }

    /// Make room for `additional` more contacts in one allocation, so a
    /// list built in one go is allocated once.
    pub fn reserve_contacts(&mut self, additional: usize) {
        self.contacts.reserve_exact(additional);
    }

    pub fn contacts(&self) -> &[ContactEntry] {
        &self.contacts
    }

    /// Remove a contact (kept recoverable for remission).
    pub fn delete_contact(&mut self, address: &EmailAddress, at: SimTime) -> bool {
        if let Some(pos) = self.contacts.iter().position(|c| &c.address == address) {
            let e = self.contacts.remove(pos);
            self.deleted_contacts.push((e, at));
            true
        } else {
            false
        }
    }

    /// Restore contacts deleted at or after `since`.
    pub fn restore_contacts_since(&mut self, since: SimTime) -> usize {
        let mut restored = 0;
        let mut keep = Vec::new();
        for (e, t) in self.deleted_contacts.drain(..) {
            if t >= since {
                if !self.contacts.iter().any(|c| c.address == e.address) {
                    self.contacts.push(e);
                }
                restored += 1;
            } else {
                keep.push((e, t));
            }
        }
        self.deleted_contacts = keep;
        restored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    fn mk(id: u32, starred: bool) -> Message {
        Message {
            id: MessageId(id),
            owner: AccountId(0),
            from: EmailAddress::new("from", "x.com"),
            to: vec![].into(),
            subject: format!("subject {id}").into(),
            body: "body".into(),
            attachments: vec![],
            kind: MessageKind::Personal,
            reply_to: None,
            at: SimTime::from_secs(id as u64),
            read: false,
            starred,
        }
    }

    #[test]
    fn store_and_list() {
        let mut mb = Mailbox::new();
        mb.store(mk(1, false), Folder::Inbox);
        mb.store(mk(2, false), Folder::Sent);
        assert_eq!(mb.list_folder(Folder::Inbox), vec![MessageId(1)]);
        assert_eq!(mb.list_folder(Folder::Sent), vec![MessageId(2)]);
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn starred_is_a_view() {
        let mut mb = Mailbox::new();
        mb.store(mk(1, true), Folder::Inbox);
        mb.store(mk(2, false), Folder::Inbox);
        mb.store(mk(3, true), Folder::Sent);
        let starred = mb.list_folder(Folder::Starred);
        assert_eq!(starred, vec![MessageId(1), MessageId(3)]);
        // Starring is reflected without moving folders.
        assert_eq!(mb.folder_of(MessageId(1)), Some(Folder::Inbox));
    }

    #[test]
    fn trashed_messages_leave_starred_view() {
        let mut mb = Mailbox::new();
        mb.store(mk(1, true), Folder::Inbox);
        mb.move_to(MessageId(1), Folder::Trash);
        assert!(mb.list_folder(Folder::Starred).is_empty());
        assert_eq!(mb.list_folder(Folder::Trash), vec![MessageId(1)]);
    }

    #[test]
    fn move_returns_previous_folder() {
        let mut mb = Mailbox::new();
        mb.store(mk(1, false), Folder::Inbox);
        assert_eq!(mb.move_to(MessageId(1), Folder::Trash), Some(Folder::Inbox));
        assert_eq!(mb.move_to(MessageId(9), Folder::Trash), None);
    }

    #[test]
    fn purge_and_restore() {
        let mut mb = Mailbox::new();
        for i in 1..=5 {
            mb.store(mk(i, false), Folder::Inbox);
        }
        // Owner purged one long ago; hijacker purges the rest later.
        assert!(mb.purge(MessageId(1), SimTime::from_secs(10)));
        for i in 2..=5 {
            assert!(mb.purge(MessageId(i), SimTime::from_secs(1000)));
        }
        assert_eq!(mb.len(), 0);
        assert_eq!(mb.tombstone_count(), 5);
        // Remission restores only the hijack-window deletions.
        let restored = mb.restore_purged_since(SimTime::from_secs(500));
        assert_eq!(restored, 4);
        assert_eq!(mb.len(), 4);
        assert_eq!(mb.tombstone_count(), 1);
        assert_eq!(mb.folder_of(MessageId(3)), Some(Folder::Inbox));
        // Purging an unknown id is a no-op.
        assert!(!mb.purge(MessageId(99), SimTime::from_secs(0)));
    }

    #[test]
    fn contacts_dedupe_and_restore() {
        let mut mb = Mailbox::new();
        let a = ContactEntry { address: EmailAddress::new("a", "x.com"), internal: None };
        mb.add_contact(a.clone());
        mb.add_contact(a.clone()); // duplicate ignored
        assert_eq!(mb.contacts().len(), 1);
        assert!(mb.delete_contact(&a.address, SimTime::from_secs(100)));
        assert!(!mb.delete_contact(&a.address, SimTime::from_secs(100)));
        assert!(mb.contacts().is_empty());
        assert_eq!(mb.restore_contacts_since(SimTime::from_secs(50)), 1);
        assert_eq!(mb.contacts().len(), 1);
        // Restoring again is a no-op (nothing left to restore).
        assert_eq!(mb.restore_contacts_since(SimTime::from_secs(50)), 0);
    }

    #[test]
    fn old_contact_deletions_stay_deleted() {
        let mut mb = Mailbox::new();
        let a = ContactEntry { address: EmailAddress::new("a", "x.com"), internal: None };
        mb.add_contact(a.clone());
        mb.delete_contact(&a.address, SimTime::from_secs(10));
        assert_eq!(mb.restore_contacts_since(SimTime::from_secs(500)), 0);
        assert!(mb.contacts().is_empty());
    }
}
