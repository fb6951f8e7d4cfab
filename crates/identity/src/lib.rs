//! # mhw-identity
//!
//! The authentication substrate: credentials, recovery options,
//! two-factor state and the append-only **login log** that nearly every
//! measurement in the paper reads from —
//!
//! * Figure 7 watches the log for the first hijacker access to decoy
//!   accounts;
//! * Figure 8 counts login attempts per hijacker IP per day;
//! * Figure 11 geolocates the IPs of hijack-period logins;
//! * §5.1's "75% correct passwords including retries with trivial
//!   variants" is a property of [`credentials::is_trivial_variant`]
//!   combined with the phished-credential capture model.
//!
//! The *decision* of whether a login is allowed, challenged or blocked
//! belongs to `mhw-defense` (login risk analysis, §8.2); this crate
//! provides the mechanisms — password verification, recovery-option
//! state with full audit trails (who changed what when), 2FA enablement
//! records (the Figure 12 dataset) — and records outcomes.

pub mod credentials;
pub mod login;
pub mod options;
pub mod twofactor;

pub use credentials::{is_trivial_variant, CredentialStore, PasswordChange};
pub use login::{ChallengeKind, ChallengeResult, LoginLog, LoginOutcome, LoginRecord};
pub use options::{OptionChange, RecoveryEmail, RecoveryOptions, RecoveryPhone, SecretQuestion};
pub use twofactor::{TwoFactorAudit, TwoFactorState};
