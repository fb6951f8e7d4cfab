//! Email-domain and TLD model.
//!
//! Figure 4 breaks the addresses submitted to phishing pages down by TLD
//! and finds `.edu` overwhelmingly dominant. §4.2 explains why: lure
//! email reaches self-hosted (university) inboxes at ~10× the rate it
//! reaches industrially filtered webmail. The domain model therefore
//! assigns every simulated address a [`MailDomain`] with a domain class,
//! and the phishing substrate modulates lure delivery by that class —
//! the `.edu` skew then *emerges* from delivery rates rather than being
//! painted on.

use mhw_simclock::SimRng;
use mhw_types::{EmailAddress, EmailDomainClass};

/// A mail domain with its operational class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MailDomain {
    pub name: String,
    pub class: EmailDomainClass,
}

impl MailDomain {
    pub fn tld(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }
}

/// The ecosystem's domain inventory.
#[derive(Debug, Clone)]
pub struct DomainModel {
    /// The simulated provider's own domain (Gmail's role).
    pub home: MailDomain,
    /// Other major webmail domains.
    pub webmail: Vec<MailDomain>,
    /// Self-hosted university domains (`.edu` and international
    /// equivalents).
    pub edu: Vec<MailDomain>,
    /// Other self-hosted domains (companies, vanity).
    pub self_hosted: Vec<MailDomain>,
}

impl Default for DomainModel {
    fn default() -> Self {
        Self::standard()
    }
}

impl DomainModel {
    /// The standard inventory. TLD variety matches Figure 4's x-axis
    /// (com, edu, ca, net, org, country codes, …).
    pub fn standard() -> Self {
        let wm = |name: &str| MailDomain {
            name: name.to_string(),
            class: EmailDomainClass::MajorWebmail,
        };
        let edu = |name: &str| MailDomain {
            name: name.to_string(),
            class: EmailDomainClass::SelfHostedEdu,
        };
        let sh = |name: &str| MailDomain {
            name: name.to_string(),
            class: EmailDomainClass::SelfHostedOther,
        };
        DomainModel {
            home: wm("homemail.com"),
            webmail: vec![
                wm("yahoomail.com"),
                wm("hotmail-like.com"),
                wm("aolmail.com"),
                wm("regionmail.net"),
            ],
            edu: vec![
                edu("stateuniv.edu"),
                edu("techinstitute.edu"),
                edu("cs.bigstate.edu"),
                edu("liberalarts.edu"),
                edu("medschool.edu"),
                edu("northcampus.edu"),
                edu("univ-centrale.fr"),
                edu("uni-sud.fr"),
            ],
            self_hosted: vec![
                sh("smallbiz.com"),
                sh("familyname.net"),
                sh("consulting.org"),
                sh("artisans.com.br"),
                sh("importexport.co.uk"),
                sh("despacho.es"),
                sh("atelier.fr"),
                sh("trading.com.my"),
                sh("estudio.com.ar"),
                sh("negocio.cl"),
                sh("software.in"),
                sh("design.se"),
                sh("agency.us"),
                sh("clinic.ca"),
                sh("lab.fi"),
                sh("shop.pl"),
                sh("studio.it"),
                sh("farm.au"),
                sh("media.sg"),
                sh("haus.de"),
                sh("kantoor.nl"),
                sh("office.mx"),
            ],
        }
    }

    /// Every domain in the inventory.
    pub fn all(&self) -> Vec<&MailDomain> {
        std::iter::once(&self.home)
            .chain(self.webmail.iter())
            .chain(self.edu.iter())
            .chain(self.self_hosted.iter())
            .collect()
    }

    /// Find a domain record by name.
    pub fn lookup(&self, name: &str) -> Option<&MailDomain> {
        self.all().into_iter().find(|d| d.name == name)
    }

    /// Class of an address, defaulting to `SelfHostedOther` for unknown
    /// domains (conservative: commodity filtering).
    pub fn class_of(&self, addr: &EmailAddress) -> EmailDomainClass {
        self.lookup(addr.domain())
            .map(|d| d.class)
            .unwrap_or(EmailDomainClass::SelfHostedOther)
    }

    /// Draw an *external* (non-home-provider) address for a victim
    /// contact or a phishing target, mixing webmail, edu and self-hosted
    /// by the given weights.
    pub fn random_external_address(
        &self,
        rng: &mut SimRng,
        user_tag: u64,
        w_webmail: f64,
        w_edu: f64,
        w_self_hosted: f64,
    ) -> EmailAddress {
        let group = rng
            .weighted_index(&[w_webmail, w_edu, w_self_hosted])
            .expect("weights must not all be zero");
        let pool = match group {
            0 => &self.webmail,
            1 => &self.edu,
            _ => &self.self_hosted,
        };
        let domain = rng.choose(pool).expect("non-empty pool");
        EmailAddress::new(format!("user{user_tag}"), domain.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_is_major_webmail() {
        let m = DomainModel::standard();
        assert_eq!(m.home.class, EmailDomainClass::MajorWebmail);
        assert_eq!(m.home.tld(), "com");
    }

    #[test]
    fn edu_domains_have_edu_class() {
        let m = DomainModel::standard();
        assert!(!m.edu.is_empty());
        for d in &m.edu {
            assert_eq!(d.class, EmailDomainClass::SelfHostedEdu);
        }
    }

    #[test]
    fn lookup_and_class_of() {
        let m = DomainModel::standard();
        assert!(m.lookup("stateuniv.edu").is_some());
        assert!(m.lookup("nonexistent.xyz").is_none());
        let a = EmailAddress::new("x", "stateuniv.edu");
        assert_eq!(m.class_of(&a), EmailDomainClass::SelfHostedEdu);
        let b = EmailAddress::new("x", "unknown.tld");
        assert_eq!(m.class_of(&b), EmailDomainClass::SelfHostedOther);
    }

    #[test]
    fn tld_variety_covers_figure4_axis() {
        let m = DomainModel::standard();
        let tlds: std::collections::HashSet<_> =
            m.all().iter().map(|d| d.tld().to_string()).collect();
        for needed in ["com", "edu", "net", "org", "fr", "de", "ca", "us"] {
            assert!(tlds.contains(needed), "missing TLD {needed}");
        }
        assert!(tlds.len() >= 15, "need TLD variety, got {}", tlds.len());
    }

    #[test]
    fn random_external_address_honours_weights() {
        let m = DomainModel::standard();
        let mut rng = SimRng::from_seed(12);
        // Only edu weight → always edu.
        for i in 0..50 {
            let a = m.random_external_address(&mut rng, i, 0.0, 1.0, 0.0);
            assert_eq!(m.class_of(&a), EmailDomainClass::SelfHostedEdu);
        }
        // Only webmail weight → always webmail, never the home domain.
        for i in 0..50 {
            let a = m.random_external_address(&mut rng, i, 1.0, 0.0, 0.0);
            assert_eq!(m.class_of(&a), EmailDomainClass::MajorWebmail);
            assert_ne!(a.domain(), m.home.name);
        }
    }
}
