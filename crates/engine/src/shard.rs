//! The read-only evaluation phase of the engine step.
//!
//! [`Engine::step`](crate::Engine::step) evaluates its candidates against
//! an immutable view of the engine's state — the [`ContextStore`], the
//! rule database with its compiled programs, the step-start
//! [`HeldTracker`] and the holder table — and returns per-rule
//! [`EvalVerdict`]s plus the held-for transitions they *observed* (via
//! [`HeldOverlay`]) instead of mutating anything. The serial commit phase
//! then applies verdicts in ascending `RuleId` order, so the order in
//! which rules are evaluated can never change an outcome; see
//! `docs/CONCURRENCY.md`.

use super::ActiveHolder;
use crate::context::ContextStore;
use crate::eval::{HeldOverlay, HeldTracker};
use cadel_rule::RuleDb;
use cadel_types::{DeviceId, RuleId, SimTime};
use std::collections::HashMap;

/// The outcome of evaluating one candidate rule against the snapshot:
/// everything the serial commit phase needs.
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

/// Immutable borrows of everything evaluation reads, built once per step.
pub(crate) struct EvalContext<'a> {
    pub rules: &'a RuleDb,
    pub ctx: &'a ContextStore,
    pub held: &'a HeldTracker,
    pub holders: &'a HashMap<DeviceId, ActiveHolder>,
}

impl EvalContext<'_> {
    /// Evaluates one rule against the snapshot. `None` for vanished or
    /// disabled rules: they produce no verdict. The overlay is drained
    /// into the verdict, so one overlay serves the whole pass.
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

/// Evaluates every candidate against the snapshot, returning verdicts
/// in the candidates' (ascending `RuleId`) order.
pub(crate) fn evaluate(ec: &EvalContext<'_>, candidates: &[RuleId]) -> Vec<EvalVerdict> {
    let mut overlay = HeldOverlay::new(ec.held);
    candidates
        .iter()
        .filter_map(|&id| ec.eval_rule(id, &mut overlay))
        .collect()
}

#[cfg(test)]
mod tests {
    /// The evaluation phase reads these through shared references only;
    /// pin that they stay `Sync`, so a read-only view of an engine can be
    /// handed to any thread, and a regression surfaces here rather than
    /// far from the cause.
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
