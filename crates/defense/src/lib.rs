//! # mhw-defense
//!
//! The defender — a reconstruction of the defense systems §8 of the
//! paper describes, built as real algorithms over the substrates:
//!
//! * [`signals`] / [`risk`] — **login-time risk analysis**, "the best
//!   defense strategy that an identity provider can implement
//!   server-side since it stops the hijacker before getting into the
//!   account". The paper cannot disclose Google's signals; ours are a
//!   principled reconstruction (country novelty, geo-velocity, device
//!   novelty, IP fan-out, odd hours, failure bursts) combined noisy-OR
//!   style into a risk score with challenge/block thresholds.
//! * [`challenge`] — the **login challenge** (§8.2): SMS possession
//!   proof preferred, knowledge questions as fallback, "easy to pass for
//!   our users, but hard for hijackers".
//! * [`service`] — the **streaming risk service**: the [`RiskService`]
//!   trait scores one login at a time against bounded state (sliding
//!   per-account windows, LRU-bounded IP cache via [`lru`]), the way
//!   the paper's engine ran online at the provider.
//! * [`degrade`] — the serve tier's **overload model**: per-source
//!   circuit breakers, deadline budgets, and degraded-scoring fallbacks
//!   with a per-verdict [`Fidelity`] record, all deterministic (keyed
//!   to event `SimTime` and a virtual cost model, never wall clock).
//! * [`pipeline`] — the full login flow: password check → risk score →
//!   challenge/block → session, appending every attempt to the
//!   [`LoginLog`](mhw_identity::LoginLog). A thin batch adapter over
//!   the same [`RiskService`] scoring path serve mode uses.
//! * [`activity`] — **account behavioral risk analysis** (§8.2's "last
//!   resort"): a model of manual-hijacker profiling behaviour (finance
//!   searches, special-folder sweeps, contacts view, settings changes,
//!   outbound fan-out) scored against each account's post-login
//!   activity.
//! * [`classifier`] — the **scam/phishing mail classifier** built from
//!   the five scam principles the paper formalizes in §5.3.
//! * [`notify`] — **user notifications** over independent channels on
//!   critical events (§8.2), which accelerate victim reaction and drive
//!   the Figure 9 recovery-latency distribution.

pub mod activity;
pub mod challenge;
pub mod classifier;
pub mod degrade;
pub mod lru;
pub mod notify;
pub mod pipeline;
pub mod redirects;
pub mod risk;
pub mod service;
pub mod signals;
mod small_list;

pub use activity::{ActivityFeatures, ActivityMonitor, ActivityVerdict};
pub use challenge::{AnswererCapabilities, ChallengePolicy};
pub use classifier::{classify_mail, MailClass, MailClassifier};
pub use degrade::{
    BreakerConfig, BreakerState, BreakerTransitions, CircuitBreaker, DegradedScoring, Fidelity,
    ResilienceConfig, ResilienceSnapshot, SignalConditions, SignalSource, SourceCondition,
    DEADLINE_UNLIMITED, NOMINAL_ASSESS_NS,
};
pub use notify::{NotificationChannel, NotificationEngine, NotificationEvent, NotificationRecord};
pub use lru::LruCache;
pub use pipeline::{LoginContext, LoginPipeline, LoginRequest};
pub use redirects::{classify_redirect, review_filters, RedirectVerdict};
pub use risk::{RiskDecision, RiskEngine, RiskWeights};
pub use service::{
    Assessment, RiskService, RiskVerdict, ServiceLimits, StateSize, StreamingRiskService,
};
pub use signals::{
    AccountHistory, HistoryStore, IpReputation, LoginSignals, DEFAULT_IP_CACHE_CAPACITY,
};
