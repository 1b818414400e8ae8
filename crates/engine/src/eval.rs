//! The temporal state needed for "held for" atoms, the observer rule
//! evaluation feeds it through, and the reference interpreter for
//! conditions.
//!
//! The engine evaluates every condition from compiled `cadel-ir` code:
//! [`Engine::step`](crate::Engine::step) evaluates each candidate against
//! the [`ContextStore`] and commits its verdict before the next, in
//! ascending `RuleId` order. `held for` observations go straight to the
//! [`HeldTracker`] through the engine's dwell observer, which also arms
//! the trigger index's deadline when a window opens; see
//! `docs/CONCURRENCY.md` for why committing one rule cannot change how a
//! later one evaluates.
//!
//! [`Evaluator`] walks the source tree instead and exists as the oracle
//! that tests compare the compiled programs against.

use crate::context::ContextStore;
use crate::index::TriggerIndex;
use cadel_ir::{HeldObserver, SensorRead};
use cadel_rule::{Atom, Condition, PresenceAtom, Subject};
use cadel_types::{SimTime, Value};
use std::collections::HashMap;

/// Tracks since when each duration-qualified atom's inner fact has been
/// continuously true, so `door unlocked for 1 hour` can be decided.
///
/// Observed on every engine evaluation — the tracker records false→true
/// transitions and resets on true→false.
#[derive(Clone, Debug, Default)]
pub struct HeldTracker {
    since: HashMap<String, SimTime>,
}

impl HeldTracker {
    /// Creates an empty tracker.
    pub fn new() -> HeldTracker {
        HeldTracker::default()
    }

    fn observe(&mut self, fingerprint: &str, inner_true: bool, now: SimTime) -> Option<SimTime> {
        if inner_true {
            if let Some(since) = self.since.get(fingerprint) {
                return Some(*since);
            }
            // Owned allocation only on the false→true transition.
            self.since.insert(fingerprint.to_owned(), now);
            Some(now)
        } else {
            self.since.remove(fingerprint);
            None
        }
    }

    /// Number of atoms currently being tracked as true.
    pub fn tracked(&self) -> usize {
        self.since.len()
    }

    /// Every tracked `(fingerprint, since)` pair, sorted by fingerprint
    /// so checkpoint export is byte-stable.
    pub(crate) fn entries(&self) -> Vec<(String, SimTime)> {
        let mut entries: Vec<_> = self
            .since
            .iter()
            .map(|(fingerprint, since)| (fingerprint.clone(), *since))
            .collect();
        entries.sort();
        entries
    }

    /// Restores a tracked atom under its original start-of-truth instant.
    pub(crate) fn restore(&mut self, fingerprint: String, since: SimTime) {
        self.since.insert(fingerprint, since);
    }

    /// Since when a fingerprint's inner fact has been continuously true,
    /// without observing.
    pub(crate) fn held_since(&self, fingerprint: &str) -> Option<SimTime> {
        self.since.get(fingerprint).copied()
    }

    /// Stops tracking a fingerprint: its next true observation opens a
    /// new window.
    pub(crate) fn forget(&mut self, fingerprint: &str) {
        self.since.remove(fingerprint);
    }
}

/// The engine's held-for observer: it updates the tracker and, when an
/// observation opens a dwell window, arms the trigger index's deadline
/// for every rule on the fingerprint. Rule evaluation and the priority
/// guards in arbitration both observe through it.
pub(crate) struct DwellObserver<'a> {
    pub held: &'a mut HeldTracker,
    pub index: &'a mut TriggerIndex,
}

impl HeldObserver for DwellObserver<'_> {
    fn observe(&mut self, fingerprint: &str, inner_true: bool, now: SimTime) -> Option<SimTime> {
        let opens = inner_true && self.held.held_since(fingerprint).is_none();
        let since = self.held.observe(fingerprint, inner_true, now);
        if opens {
            self.index.on_dwell_opened(fingerprint, now);
        }
        since
    }
}

/// Compiled programs and the reference interpreter share one tracker
/// format: lowering reproduces the interpreter's fingerprints
/// byte-for-byte, so both observe (and reset) the same continuous-truth
/// state.
impl cadel_ir::HeldObserver for HeldTracker {
    fn observe(&mut self, fingerprint: &str, inner_true: bool, now: SimTime) -> Option<SimTime> {
        HeldTracker::observe(self, fingerprint, inner_true, now)
    }
}

/// The reference interpreter: evaluates a condition tree directly against
/// a [`ContextStore`].
///
/// The engine never calls it — it evaluates the compiled programs the
/// rule database stores. The interpreter is the oracle those programs are
/// tested against (a condition's program and its tree must agree on every
/// context), so it stays deliberately simple: a direct walk of the tree
/// with the same short-circuit order and freshness semantics as the
/// compiled code.
pub struct Evaluator<'a> {
    ctx: &'a ContextStore,
    held: &'a mut HeldTracker,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator borrowing the context and the held-for state.
    pub fn new(ctx: &'a ContextStore, held: &'a mut HeldTracker) -> Evaluator<'a> {
        Evaluator { ctx, held }
    }

    /// Whether a condition holds right now.
    pub fn condition_holds(&mut self, condition: &Condition) -> bool {
        match condition {
            Condition::True => true,
            Condition::Atom(atom) => self.atom_holds(atom),
            Condition::And(cs) => cs.iter().all(|c| self.condition_holds(c)),
            Condition::Or(cs) => cs.iter().any(|c| self.condition_holds(c)),
        }
    }

    /// Whether an atom holds right now.
    pub fn atom_holds(&mut self, atom: &Atom) -> bool {
        match atom {
            // Sensor-backed atoms read through the freshness policy, the
            // same one compiled code applies in `ir::eval_pred` — degraded
            // verdicts must agree between the two evaluators.
            Atom::Constraint(c) => match self.ctx.sensor_read_key(c.sensor()) {
                SensorRead::Value(Value::Number(q)) => {
                    if !q.is_comparable_to(&c.threshold()) {
                        cadel_ir::note_type_mismatch("ast", c.sensor(), q);
                    }
                    c.holds_for(q)
                }
                SensorRead::Value(other) => {
                    // Present but non-numeric: false, but no longer
                    // silently — the mismatch is counted and reported.
                    cadel_ir::note_type_mismatch("ast", c.sensor(), other);
                    false
                }
                SensorRead::AssumeFalse => false,
                SensorRead::AssumeTrue => true,
            },
            Atom::State(s) => match self.ctx.sensor_read_key(&s.sensor_key()) {
                SensorRead::Value(v) => s.holds_for(v),
                SensorRead::AssumeTrue => true,
                SensorRead::AssumeFalse => false,
            },
            Atom::Presence(p) => self.presence_holds(p),
            Atom::Event(e) => self.ctx.event_active(e.channel(), e.name()),
            Atom::Time(w) => w.contains(self.ctx.now().time_of_day()),
            Atom::Weekday(w) => self.ctx.weekday() == *w,
            Atom::Date(d) => self.ctx.date() == *d,
            Atom::HeldFor { inner, duration } => {
                let inner_true = self.atom_holds(inner);
                let now = self.ctx.now();
                let fingerprint = format!("{inner}~{}", duration.as_millis());
                match self.held.observe(&fingerprint, inner_true, now) {
                    Some(since) => now.since(since) >= *duration,
                    None => false,
                }
            }
            // `Atom` is non-exhaustive: future atom kinds default to false
            // (fail closed) until evaluation support is added.
            _ => false,
        }
    }

    fn presence_holds(&self, p: &PresenceAtom) -> bool {
        match p.subject() {
            Subject::Person(person) => self.ctx.person_place(person) == Some(p.place()),
            Subject::Somebody => !self.ctx.occupants(p.place()).is_empty(),
            Subject::Nobody => self.ctx.occupants(p.place()).is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_rule::{ConstraintAtom, EventAtom, StateAtom};
    use cadel_simplex::RelOp;
    use cadel_types::{
        DayPart, DeviceId, PersonId, PlaceId, Quantity, SensorKey, SimDuration, Unit,
    };

    fn ctx_at(now: SimTime) -> ContextStore {
        let mut ctx = ContextStore::default();
        ctx.set_now(now);
        ctx
    }

    fn eval(ctx: &ContextStore, held: &mut HeldTracker, atom: &Atom) -> bool {
        Evaluator::new(ctx, held).atom_holds(atom)
    }

    #[test]
    fn constraint_atoms_need_a_reading() {
        let mut ctx = ctx_at(SimTime::EPOCH);
        let mut held = HeldTracker::new();
        let key = SensorKey::new(DeviceId::new("thermo"), "temperature");
        let atom = Atom::Constraint(ConstraintAtom::new(
            key.clone(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        ));
        assert!(!eval(&ctx, &mut held, &atom)); // no reading yet
        ctx.set_value(
            key.clone(),
            Value::Number(Quantity::from_integer(28, Unit::Celsius)),
        );
        assert!(eval(&ctx, &mut held, &atom));
        ctx.set_value(
            key,
            Value::Number(Quantity::from_integer(25, Unit::Celsius)),
        );
        assert!(!eval(&ctx, &mut held, &atom));
    }

    #[test]
    fn state_atom_evaluation() {
        let mut ctx = ctx_at(SimTime::EPOCH);
        let mut held = HeldTracker::new();
        let atom = Atom::State(StateAtom::new(
            DeviceId::new("tv"),
            "power",
            Value::Bool(true),
        ));
        assert!(!eval(&ctx, &mut held, &atom));
        ctx.set_value(
            SensorKey::new(DeviceId::new("tv"), "power"),
            Value::Bool(true),
        );
        assert!(eval(&ctx, &mut held, &atom));
    }

    #[test]
    fn stale_readings_follow_the_freshness_policy() {
        use crate::context::{FreshnessMode, FreshnessPolicy};

        let mut ctx = ctx_at(SimTime::EPOCH);
        let mut held = HeldTracker::new();
        let key = SensorKey::new(DeviceId::new("thermo"), "temperature");
        let hot = Atom::Constraint(ConstraintAtom::new(
            key.clone(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        ));
        let cold = Atom::Constraint(ConstraintAtom::new(
            key.clone(),
            RelOp::Lt,
            Quantity::from_integer(0, Unit::Celsius),
        ));
        ctx.set_value(
            key,
            Value::Number(Quantity::from_integer(30, Unit::Celsius)),
        );
        ctx.set_now(SimTime::EPOCH + SimDuration::from_hours(1)); // reading now 1h old
        let max = SimDuration::from_minutes(10);

        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::HoldLastValue, max));
        assert!(eval(&ctx, &mut held, &hot)); // last value still used
        assert!(!eval(&ctx, &mut held, &cold));

        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::FailClosed, max));
        assert!(!eval(&ctx, &mut held, &hot)); // 30°C reading ignored
        assert!(!eval(&ctx, &mut held, &cold));

        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::FailOpen, max));
        assert!(eval(&ctx, &mut held, &hot));
        assert!(eval(&ctx, &mut held, &cold)); // even the false predicate
    }

    #[test]
    fn presence_subjects() {
        let mut ctx = ctx_at(SimTime::EPOCH);
        let mut held = HeldTracker::new();
        let lr = PlaceId::new("living room");
        let tom_at = Atom::Presence(PresenceAtom::person_at("tom", "living room"));
        let somebody = Atom::Presence(PresenceAtom::new(Subject::Somebody, lr.clone()));
        let nobody = Atom::Presence(PresenceAtom::new(Subject::Nobody, lr.clone()));

        assert!(!eval(&ctx, &mut held, &tom_at));
        assert!(!eval(&ctx, &mut held, &somebody));
        assert!(eval(&ctx, &mut held, &nobody));

        ctx.set_presence(PersonId::new("tom"), Some(lr));
        assert!(eval(&ctx, &mut held, &tom_at));
        assert!(eval(&ctx, &mut held, &somebody));
        assert!(!eval(&ctx, &mut held, &nobody));
    }

    #[test]
    fn time_window_evaluation() {
        let mut held = HeldTracker::new();
        let evening = Atom::Time(DayPart::Evening.window());
        // 18:00 is evening; 10:00 is not.
        let ctx = ctx_at(SimTime::EPOCH + SimDuration::from_hours(18));
        assert!(eval(&ctx, &mut held, &evening));
        let ctx = ctx_at(SimTime::EPOCH + SimDuration::from_hours(10));
        assert!(!eval(&ctx, &mut held, &evening));
    }

    #[test]
    fn held_for_requires_continuous_truth() {
        let mut ctx = ctx_at(SimTime::EPOCH);
        let mut held = HeldTracker::new();
        let key = SensorKey::new(DeviceId::new("door"), "locked");
        let unlocked = Atom::State(StateAtom::new(
            DeviceId::new("door"),
            "locked",
            Value::Bool(false),
        ));
        let for_an_hour = Atom::held_for(unlocked, SimDuration::from_hours(1));

        // Unlocked at t=0.
        ctx.set_value(key.clone(), Value::Bool(false));
        assert!(!eval(&ctx, &mut held, &for_an_hour)); // just started
        assert_eq!(held.tracked(), 1);

        // 30 minutes later: still not an hour.
        ctx.set_now(SimTime::EPOCH + SimDuration::from_minutes(30));
        assert!(!eval(&ctx, &mut held, &for_an_hour));

        // 61 minutes: fires.
        ctx.set_now(SimTime::EPOCH + SimDuration::from_minutes(61));
        assert!(eval(&ctx, &mut held, &for_an_hour));

        // Door relocked: resets the tracker.
        ctx.set_value(key.clone(), Value::Bool(true));
        assert!(!eval(&ctx, &mut held, &for_an_hour));
        assert_eq!(held.tracked(), 0);

        // Unlocked again: the hour starts over.
        ctx.set_value(key, Value::Bool(false));
        ctx.set_now(SimTime::EPOCH + SimDuration::from_minutes(90));
        assert!(!eval(&ctx, &mut held, &for_an_hour));
        ctx.set_now(SimTime::EPOCH + SimDuration::from_minutes(151));
        assert!(eval(&ctx, &mut held, &for_an_hour));
    }

    #[test]
    fn condition_tree_evaluation() {
        let mut ctx = ctx_at(SimTime::EPOCH);
        let mut held = HeldTracker::new();
        ctx.raise_event("tv-guide", "baseball game");
        let baseball = Condition::Atom(Atom::Event(EventAtom::new("tv-guide", "baseball game")));
        let movie = Condition::Atom(Atom::Event(EventAtom::new("tv-guide", "movie")));

        let mut ev = Evaluator::new(&ctx, &mut held);
        assert!(ev.condition_holds(&Condition::True));
        assert!(ev.condition_holds(&baseball));
        assert!(!ev.condition_holds(&movie));
        assert!(ev.condition_holds(&baseball.clone().or(movie.clone())));
        assert!(!ev.condition_holds(&baseball.and(movie)));
    }

    /// An engine's evaluation state; pin that it stays `Sync`, so a
    /// read-only view of an engine can be handed to any thread, and a
    /// regression surfaces here rather than far from the cause.
    #[test]
    fn shared_eval_state_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<cadel_rule::RuleDb>();
        assert_sync::<crate::context::ContextStore>();
        assert_sync::<crate::eval::HeldTracker>();
        assert_sync::<cadel_ir::RuleProgram>();
        assert_sync::<cadel_ir::ProgramArena>();
    }
}
