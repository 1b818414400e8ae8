//! The read-only parallel evaluation phase of the sharded engine step.
//!
//! [`Engine::step`](crate::Engine::step) runs in three phases: a batched
//! ingest (serial, mutates the context), this evaluation phase (read-only,
//! optionally parallel), and a serial commit. Workers here share the
//! engine's state immutably — the [`ContextStore`] snapshot, the rule
//! database with its compiled programs, the step-start [`HeldTracker`] and
//! the holder table — and return per-rule [`EvalVerdict`]s plus the
//! held-for transitions they *observed* (via [`HeldOverlay`]) instead of
//! mutating anything. The commit phase applies verdicts in ascending
//! `RuleId` order, so a parallel run is byte-identical to a serial one;
//! see `docs/CONCURRENCY.md` for the determinism argument.
//!
//! Sharding is by contiguous chunks of the ascending candidate list:
//! concatenating the shard outputs in shard order restores the global
//! `RuleId` order without a sort.

use super::ActiveHolder;
use crate::context::ContextStore;
use crate::eval::{HeldOverlay, HeldTracker};
use cadel_rule::RuleDb;
use cadel_types::{DeviceId, RuleId, SimTime};
use std::collections::HashMap;
use std::time::Instant;

/// The outcome of evaluating one candidate rule against the snapshot.
/// Everything the serial commit phase needs; nothing here references
/// worker-local state.
pub(crate) struct EvalVerdict {
    /// The evaluated rule.
    pub rule: RuleId,
    /// Whether the trigger condition holds.
    pub now_true: bool,
    /// Whether the `until` clause demands a release: the rule has one,
    /// currently holds its device, and the clause evaluates true.
    pub until_release: bool,
    /// Held-for transitions observed while evaluating this rule, sorted
    /// by fingerprint; `Some(since)` starts tracking, `None` stops it.
    pub held: Vec<(String, Option<SimTime>)>,
}

/// Immutable borrows of everything evaluation reads. Built once per step
/// and shared by every worker thread — all fields are `Sync`, which the
/// `thread::scope` spawn below enforces at compile time.
pub(crate) struct EvalContext<'a> {
    pub rules: &'a RuleDb,
    pub ctx: &'a ContextStore,
    pub held: &'a HeldTracker,
    pub holders: &'a HashMap<DeviceId, ActiveHolder>,
}

/// Timing evidence from one evaluation pass, for the shard metrics.
/// Owned by the engine and recycled across steps so the idle hot path
/// performs no per-step allocations.
#[derive(Default)]
pub(crate) struct EvalStats {
    /// Worker threads actually used (1 = serial path).
    pub threads: usize,
    /// Candidates per shard, parallel to `shard_ns`.
    pub shard_sizes: Vec<usize>,
    /// Wall-clock nanoseconds each shard spent evaluating.
    pub shard_ns: Vec<u64>,
}

impl EvalStats {
    fn reset(&mut self, threads: usize) {
        self.threads = threads;
        self.shard_sizes.clear();
        self.shard_ns.clear();
    }
}

impl EvalContext<'_> {
    /// Evaluates one rule against the snapshot. `None` for vanished or
    /// disabled rules (they produce no verdict, exactly as the serial
    /// loop skipped them). The overlay is drained into the verdict, so
    /// one overlay serves a whole shard.
    fn eval_rule(&self, id: RuleId, overlay: &mut HeldOverlay<'_>) -> Option<EvalVerdict> {
        let rule = self.rules.get(id)?;
        if !rule.is_enabled() {
            return None;
        }
        // Evaluation runs over the rule's span in the shared program arena
        // (contiguous predicate/opcode tables) rather than a per-rule
        // allocation.
        let arena = self.rules.arena();
        let program = self.rules.program_ref(id)?;
        let now_true = arena.condition_holds(program, self.ctx, overlay);
        // The `until` clause is evaluated only while the rule holds its
        // device. The holder table cannot change between the step-start
        // snapshot and this rule's turn in the commit loop: commits only
        // *remove* a device's holder when that holder itself releases, so
        // a rule that was not holding at snapshot time is not holding at
        // commit time either (and vice versa).
        let until_release = rule.until().is_some()
            && self
                .holders
                .get(rule.action().device())
                .is_some_and(|h| h.rule == id)
            && arena
                .until_holds(program, self.ctx, overlay)
                .unwrap_or(false);
        Some(EvalVerdict {
            rule: id,
            now_true,
            until_release,
            held: overlay.take_transitions(),
        })
    }
}

/// Evaluates every candidate, sharded across up to `threads` scoped
/// worker threads (`threads <= 1`, or fewer candidates than threads,
/// falls back to the serial loop). Verdicts come back in ascending
/// `RuleId` order either way.
pub(crate) fn evaluate(
    ec: &EvalContext<'_>,
    candidates: &[RuleId],
    threads: usize,
    stats: &mut EvalStats,
) -> Vec<EvalVerdict> {
    let threads = threads.clamp(1, candidates.len().max(1));
    if threads == 1 {
        let start = Instant::now();
        let mut overlay = HeldOverlay::new(ec.held);
        let verdicts: Vec<EvalVerdict> = candidates
            .iter()
            .filter_map(|&id| ec.eval_rule(id, &mut overlay))
            .collect();
        stats.reset(1);
        stats.shard_sizes.push(candidates.len());
        stats.shard_ns.push(start.elapsed().as_nanos() as u64);
        return verdicts;
    }

    let shard_size = candidates.len().div_ceil(threads);
    let shards: Vec<&[RuleId]> = candidates.chunks(shard_size).collect();
    stats.reset(shards.len());
    stats.shard_sizes.extend(shards.iter().map(|s| s.len()));
    let mut verdicts = Vec::with_capacity(candidates.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut overlay = HeldOverlay::new(ec.held);
                    let out: Vec<EvalVerdict> = shard
                        .iter()
                        .filter_map(|&id| ec.eval_rule(id, &mut overlay))
                        .collect();
                    (out, start.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        for handle in handles {
            let (out, ns) = handle.join().expect("evaluation worker panicked");
            verdicts.extend(out);
            stats.shard_ns.push(ns);
        }
    });
    verdicts
}

#[cfg(test)]
mod tests {
    /// The evaluation phase shares these across worker threads; losing
    /// `Sync` on any of them would turn the parallel step into a compile
    /// error far from the cause, so pin it here.
    #[test]
    fn shared_eval_state_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<cadel_rule::RuleDb>();
        assert_sync::<crate::context::ContextStore>();
        assert_sync::<crate::eval::HeldTracker>();
        assert_sync::<cadel_ir::RuleProgram>();
        assert_sync::<cadel_ir::ProgramArena>();
        assert_sync::<super::EvalContext<'_>>();
    }
}
