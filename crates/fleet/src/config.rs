//! Fleet tunables: worker pool, admission control, supervision budgets.

use std::time::Duration;

/// Fleet runtime configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetConfig {
    /// Worker threads per step wave (clamped to at least 1; 1 = serial).
    pub workers: usize,
    /// Bounded inbox size per tenant. A full inbox sheds its oldest
    /// *coalescible* entry to admit a newcomer — the classification the
    /// engine's ingest coalescer uses ([`cadel_engine::coalescible`]): a
    /// superseded sensor reading is safe to lose, an event-bearing
    /// payload is not. When nothing queued is coalescible the newcomer is
    /// refused instead.
    pub inbox_capacity: usize,
    /// Quarantine strikes (panics, deadline overruns, store faults) a
    /// tenant may accumulate and still be restarted automatically; past
    /// the budget it stays quarantined until [`revive`]d.
    ///
    /// [`revive`]: crate::Fleet::revive
    pub panic_budget: u32,
    /// Host wall-time deadline for one tenant step. The watchdog is
    /// post-hoc — synchronous rule evaluation cannot be preempted — so
    /// an overrunning tenant finishes its step, then is quarantined and
    /// restarted from its WAL.
    pub step_deadline: Duration,
    /// Runtime-checkpoint cadence in successful steps (0 = never). The
    /// checkpoint is what a quarantine-restart resumes from, so a lower
    /// cadence narrows the in-memory window lost to a panic. Each tenant
    /// checkpoints once every this many successful steps, phased by its
    /// fleet index `i`: after the step that brings its count to `n`
    /// when `(n + i) % checkpoint_every == 0`. Tenants stepping in
    /// lockstep thus spread their checkpoint appends, and the syncs
    /// they cost, evenly over the waves.
    pub checkpoint_every: u64,
    /// Fleet-wide backpressure trips when total queued ingress exceeds
    /// this fraction of total inbox capacity.
    pub backpressure_watermark: f64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            workers: 4,
            inbox_capacity: 64,
            panic_budget: 3,
            step_deadline: Duration::from_secs(5),
            checkpoint_every: 8,
            backpressure_watermark: 0.8,
        }
    }
}
