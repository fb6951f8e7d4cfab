//! Email addresses and domain classes.
//!
//! Figure 4 of the paper breaks phished addresses down by TLD (finding
//! `.edu` overwhelmingly dominant), and §4.2 explains the skew via spam
//! filtering quality: self-hosted domains (universities) let far more lure
//! mail through than large webmail providers. [`EmailDomainClass`]
//! captures that distinction so the population model can assign addresses
//! and the phishing model can modulate delivery rates.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How an address's mail domain is operated — the property that §4.2
/// identifies as controlling spam-filter quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmailDomainClass {
    /// A large webmail provider with industrial spam filtering
    /// (the simulated provider itself, or Yahoo/Hotmail-alikes).
    MajorWebmail,
    /// A university or similar self-hosted domain with commodity
    /// filtering; per Kanich et al. (cited in §4.2), spam delivery is
    /// roughly 10× higher here.
    SelfHostedEdu,
    /// Small businesses / vanity domains with commodity filtering.
    SelfHostedOther,
}

impl EmailDomainClass {
    /// Relative lure-mail delivery multiplier versus a major webmail
    /// provider (§4.2's "10 times higher" observation for commodity
    /// filtering).
    pub fn spam_delivery_multiplier(self) -> f64 {
        match self {
            EmailDomainClass::MajorWebmail => 1.0,
            EmailDomainClass::SelfHostedEdu => 10.0,
            EmailDomainClass::SelfHostedOther => 8.0,
        }
    }
}

/// A structured email address: `local@domain`, where the final dot-label
/// of the domain is the TLD used in Figure 4's breakdown.
///
/// An address is a shared handle. One `Arc<str>` holds `local@domain`,
/// so every clone of it (the provider's interner, the user profile,
/// contact lists, each stored copy's sender and recipients) points at
/// one allocation. Equality, hashing and `Debug` are those of the two
/// parts, exactly as if they were two `String` fields.
#[derive(Clone)]
pub struct EmailAddress {
    /// `local@domain`.
    text: Arc<str>,
    /// Byte offset of the separating `@`. A local part may hold an `@`
    /// of its own, so the offset is stored, not searched for.
    at: u32,
}

impl EmailAddress {
    /// Build an address from parts. Both parts are lower-cased; the
    /// simulator treats addresses case-insensitively like real MTAs treat
    /// domains (and like Gmail treats locals).
    pub fn new(local: impl Into<String>, domain: impl Into<String>) -> Self {
        let mut local = local.into();
        let mut domain = domain.into();
        local.make_ascii_lowercase();
        domain.make_ascii_lowercase();
        let at = u32::try_from(local.len()).expect("local part shorter than 4 GiB");
        let mut text = String::with_capacity(local.len() + 1 + domain.len());
        text.push_str(&local);
        text.push('@');
        text.push_str(&domain);
        EmailAddress { text: Arc::from(text), at }
    }

    /// Parse `local@domain`. Returns `None` unless there is exactly one
    /// `@` with non-empty parts and a dotted domain.
    pub fn parse(s: &str) -> Option<Self> {
        let (local, domain) = s.split_once('@')?;
        if local.is_empty() || domain.is_empty() || domain.contains('@') {
            return None;
        }
        if !domain.contains('.') || domain.starts_with('.') || domain.ends_with('.') {
            return None;
        }
        Some(EmailAddress::new(local, domain))
    }

    /// The local part (before the `@`).
    pub fn local(&self) -> &str {
        &self.text[..self.at as usize]
    }

    /// The domain part (after the `@`).
    pub fn domain(&self) -> &str {
        &self.text[self.at as usize + 1..]
    }

    /// The top-level domain (final label), e.g. `edu` for
    /// `alice@cs.example.edu`. This is the unit of Figure 4.
    pub fn tld(&self) -> &str {
        let domain = self.domain();
        domain.rsplit('.').next().unwrap_or(domain)
    }
}

impl PartialEq for EmailAddress {
    fn eq(&self, other: &Self) -> bool {
        // Same text and same split is the same pair of parts.
        self.at == other.at && self.text == other.text
    }
}

impl Eq for EmailAddress {}

impl Hash for EmailAddress {
    /// Hashes the parts in order, as the derive over two `String`
    /// fields did.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.local().hash(state);
        self.domain().hash(state);
    }
}

impl fmt::Debug for EmailAddress {
    /// The derived form over two `String` fields:
    /// `EmailAddress { local: "…", domain: "…" }`. Dataset digests hash
    /// this text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EmailAddress")
            .field("local", &self.local())
            .field("domain", &self.domain())
            .finish()
    }
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_normal_addresses() {
        let a = EmailAddress::parse("Alice.Smith@Example.COM").unwrap();
        assert_eq!(a.local(), "alice.smith");
        assert_eq!(a.domain(), "example.com");
        assert_eq!(a.tld(), "com");
        assert_eq!(a.to_string(), "alice.smith@example.com");
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "nodomain", "@x.com", "a@", "a@@b.com", "a@nodot", "a@.com", "a@com."] {
            assert!(EmailAddress::parse(bad).is_none(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn tld_is_last_label() {
        let a = EmailAddress::new("x", "mail.cs.uni.edu");
        assert_eq!(a.tld(), "edu");
    }

    /// The layout the handle replaced, with its derived traits.
    mod two_strings {
        #[derive(Debug, PartialEq, Eq, Hash)]
        pub struct EmailAddress {
            pub local: String,
            pub domain: String,
        }
    }

    fn two_strings(a: &EmailAddress) -> two_strings::EmailAddress {
        two_strings::EmailAddress { local: a.local().to_string(), domain: a.domain().to_string() }
    }

    fn hash_of(x: &impl Hash) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Parts with quotes, backslashes, newlines and non-ASCII text.
    fn awkward() -> Vec<EmailAddress> {
        vec![
            EmailAddress::new("plain", "example.com"),
            EmailAddress::new("say \"hi\"", "quo\"te.org"),
            EmailAddress::new("back\\slash", "x\\y.net"),
            EmailAddress::new("line\nbreak", "tab\tdomain.edu"),
            EmailAddress::new("josé", "café.example"),
            EmailAddress::new("a@b", "c.com"),
        ]
    }

    #[test]
    fn debug_is_the_derived_two_field_form() {
        for a in awkward() {
            assert_eq!(format!("{a:?}"), format!("{:?}", two_strings(&a)));
            assert_eq!(format!("{a:#?}"), format!("{:#?}", two_strings(&a)));
        }
        assert_eq!(
            format!("{:?}", EmailAddress::new("Jo\"sé", "X.com")),
            r#"EmailAddress { local: "jo\"sé", domain: "x.com" }"#
        );
    }

    #[test]
    fn equality_and_hash_follow_the_parts() {
        let all = awkward();
        for a in &all {
            for b in &all {
                assert_eq!(a == b, two_strings(a) == two_strings(b), "{a:?} vs {b:?}");
            }
            let rebuilt = EmailAddress::new(a.local(), a.domain());
            assert_eq!(&rebuilt, a);
            assert_eq!(hash_of(&rebuilt), hash_of(a));
            assert_eq!(hash_of(a), hash_of(&two_strings(a)));
        }
        // Same text, different split.
        let (x, y) = (EmailAddress::new("a@b", "c"), EmailAddress::new("a", "b@c"));
        assert_eq!(x.to_string(), y.to_string());
        assert_ne!(x, y);
        assert_ne!(hash_of(&x), hash_of(&y));
        assert_eq!((x.local(), x.domain()), ("a@b", "c"));
        assert_eq!((y.local(), y.domain()), ("a", "b@c"));
    }

    #[test]
    fn a_clone_shares_its_text() {
        let a = EmailAddress::new("user7", "homemail.com");
        let b = a.clone();
        assert_eq!(a.local().as_ptr(), b.local().as_ptr());
        assert_eq!(a.domain().as_ptr(), b.domain().as_ptr());
        assert!(std::mem::size_of::<EmailAddress>() <= 24);
        assert_eq!(
            std::mem::size_of::<Option<EmailAddress>>(),
            std::mem::size_of::<EmailAddress>()
        );
    }

    #[test]
    fn delivery_multipliers_ordering() {
        // §4.2: commodity filtering lets ~10x more spam through.
        assert!(
            EmailDomainClass::SelfHostedEdu.spam_delivery_multiplier()
                > EmailDomainClass::MajorWebmail.spam_delivery_multiplier()
        );
        assert_eq!(EmailDomainClass::SelfHostedEdu.spam_delivery_multiplier(), 10.0);
    }
}
