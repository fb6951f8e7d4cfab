//! # mhw-simclock
//!
//! Simulation-clock primitives for the manual-hijacking ecosystem.
//!
//! The crate provides:
//! * [`SimRng`] — deterministic, independently seeded random streams plus
//!   the distributions the behavioral models need (exponential,
//!   log-normal, Poisson, weighted choice). Determinism is a hard
//!   requirement: a scenario seed fully determines every dataset;
//! * [`Schedule`] — calendar/office-hours modelling
//!   used for hijacker crews ("started around the same time every day,
//!   … synchronized one-hour lunch break … largely inactive over the
//!   weekends", §5.5);
//! * [`arrivals`] — Poisson/diurnal arrival processes for organic traffic
//!   and campaign click streams.
//!
//! All distributions are implemented from first principles over `rand`'s
//! uniform source, so the workspace needs no additional statistics crates
//! and results are reproducible across platforms.

pub mod arrivals;
pub mod calendar;
pub mod rng;

pub use arrivals::{DiurnalProfile, PoissonProcess};
pub use calendar::{OfficeHours, Schedule};
pub use rng::SimRng;
