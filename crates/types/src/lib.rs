//! # mhw-types
//!
//! Shared domain types for the manual-account-hijacking ecosystem simulator,
//! a reproduction of *"Handcrafted Fraud and Extortion: Manual Account
//! Hijacking in the Wild"* (IMC 2014).
//!
//! Everything in this crate is a plain value type: identifiers, simulated
//! time, email addresses, phone numbers, country codes and IP addresses.
//! Higher-level crates (the mail system, the identity stack, the adversary
//! models, …) build on these so that log records produced in one subsystem
//! can be consumed by the measurement pipeline in another without
//! conversion glue.
//!
//! Design notes:
//! * All identifiers are newtypes over integers so they are `Copy`, cheap
//!   to log, and cannot be confused with one another.
//! * [`SimTime`] is an absolute second count from the simulation epoch.
//!   The epoch is defined to be **Monday 2012-01-02 00:00:00 UTC** so that
//!   calendar arithmetic (weekday / office-hours modelling of hijacker
//!   crews, §5.5 of the paper) is exact and cheap.
//! * No wall-clock types are used anywhere in the workspace: determinism
//!   is a core requirement (same seed ⇒ bit-identical datasets).

#![deny(missing_docs)]

pub mod account;
pub mod actor;
pub mod email;
pub mod error;
pub mod faultspec;
pub mod fnv;
pub mod geo;
pub mod ids;
pub mod intern;
pub mod ip;
pub mod log;
pub mod phone;
pub mod retry;
pub mod sync;
pub mod time;

pub use account::{AccountCategory, WebmailProvider};
pub use actor::Actor;
pub use email::{EmailAddress, EmailDomainClass};
pub use error::{CheckpointOp, EngineError, EngineResult, Error};
pub use fnv::Fnv1a;
pub use geo::{CountryCode, Language};
pub use ids::{
    AccountId, CampaignId, ClaimId, CrewId, DeviceId, FilterId, IncidentId, MessageId, PageId,
    SessionId, UserId,
};
pub use intern::{DenseMap, Interner, Span, StrArena, Sym};
pub use ip::{IpAddr, IpBlock};
pub use log::{Entries, Entry, EventSink, LogKey, LogStore, ShardId, Stamped};
pub use phone::PhoneNumber;
pub use retry::RetryPolicy;
pub use sync::CachePadded;
pub use time::{SimDuration, SimTime, Weekday, DAY, HOUR, MINUTE, WEEK};
