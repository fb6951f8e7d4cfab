//! # mhw-phishkit
//!
//! The phishing substrate: lure emails, credential-harvesting pages,
//! their HTTP traffic, credential dropboxes, and the SafeBrowsing-like
//! detection/takedown pipeline.
//!
//! This crate generates the raw material of the paper's §4 ("Attack
//! Vectors") measurements:
//!
//! * **Table 2** — lures and pages carry an [`AccountCategory`] target
//!   drawn from the crews' category mix;
//! * **§4.1** — lure emails either carry a URL (62/100) or ask for a
//!   credential reply (38/100);
//! * **Figure 4** — target lists are built by harvesting public
//!   university directories plus miscellaneous sources, and lure
//!   *delivery* is modulated by the recipient domain's spam-filtering
//!   class, which together produce the paper's extreme `.edu` skew;
//! * **Figure 5** — page conversion (POST/GET) varies with execution
//!   quality from ~3% to ~45%, averaging ≈13.7%;
//! * **Figure 6** — victim arrivals decay from the blast instant, except
//!   for the rare large-scale outlier campaign with its pre-launch quiet
//!   period and diurnal plateau;
//! * **Figure 7** — captured credentials land in a crew's
//!   [`Dropbox`], where they wait until the crew's
//!   working hours; dropboxes can be suspended, which is why some decoy
//!   credentials are never used.
//!
//! Everything here is a data structure inside a closed simulation; no
//! network I/O exists anywhere in the workspace.

pub mod campaign;
pub mod detector;
pub mod dropbox;
pub mod page;
pub mod targets;

pub use campaign::{Campaign, CampaignShape, VictimProfile};
pub use detector::{DetectionPipeline, TakedownRecord};
pub use dropbox::{CapturedCredential, CredentialExactness, Dropbox};
pub use page::{HttpMethod, HttpRequest, PageQuality, PhishingPage};
pub use targets::{LureStructure, TargetMix};

pub use mhw_types::AccountCategory;
