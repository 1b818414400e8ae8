//! The CADEL rule execution module (paper §4.1).
//!
//! "The rule execution module does not execute rules by interpreting
//! CADEL descriptions; a CADEL description is expressed as an equivalent
//! *rule object* … It receives events from external components and issues
//! commands to devices through the communication interface module."
//!
//! The pieces:
//!
//! * [`ContextStore`] — the live picture of the home (sensor values,
//!   presence, active events, clock/calendar), fed by UPnP
//!   property-change events.
//! * [`HeldTracker`] — the temporal bookkeeping behind "door unlocked
//!   **for 1 hour**". Conditions are evaluated from their compiled
//!   programs; [`Evaluator`] is the reference tree-walking interpreter
//!   that tests compare those programs against, and the engine never
//!   calls it.
//! * [`TriggerIndex`] — slot-keyed inverted indexes over the compiled
//!   program arena plus dwell/freshness deadline heaps, so a step's cost
//!   scales with the dirty set, not the rule count (benchmarks P3/P4
//!   measure the win and verify the full-scan ablation agrees).
//! * [`Engine`] — the step loop: drain events → evaluate → arbitrate
//!   simultaneous firings per device via the context-scoped
//!   [`PriorityStore`](cadel_conflict::PriorityStore) → dispatch actions
//!   through the UPnP control point, honouring `until` releases and
//!   raising [`CONFLICT_CHANNEL`] events for suppressed rules.
//! * [`Resilience`] — fault tolerance around dispatch: per-device
//!   circuit breakers (tripped devices defer firings instead of failing
//!   them), sim-time retries with bounded exponential backoff and
//!   deterministic jitter, and a dead-letter queue replayed on device
//!   recovery. Paired with the [`FreshnessPolicy`] staleness semantics
//!   of the context store (see docs/RESILIENCE.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod engine;
pub mod error;
pub mod eval;
pub mod index;
pub mod resilience;

pub use context::{ContextStore, FreshnessMode, FreshnessPolicy};
pub use engine::persist::{freshness_policy_from_json, freshness_policy_to_json};
pub use engine::{coalescible, Engine, Firing, FiringOutcome, StepReport, CONFLICT_CHANNEL};
pub use error::EngineError;
pub use eval::{Evaluator, HeldTracker};
pub use index::TriggerIndex;
pub use resilience::{
    ActuationError, BreakerState, BreakerStatus, CircuitBreaker, DeadLetter, Resilience,
    ResilienceConfig, ResilienceStatus, RetryEntry, RetryKind,
};
