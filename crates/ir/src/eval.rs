//! Evaluation of compiled rule programs against a dense context view.
//!
//! The evaluator is generic over two host-provided capabilities so the IR
//! crate stays independent of the engine:
//!
//! * [`ContextView`] — slot-indexed reads of the live context (the engine's
//!   `ContextStore` implements it over its dense boards);
//! * [`HeldObserver`] — the continuous-truth bookkeeping behind `HeldFor`
//!   predicates (implemented by the engine's `HeldTracker`, shared with the
//!   reference interpreter through identical fingerprints).
//!
//! Evaluation order and short-circuiting replicate the reference
//! interpreter exactly: `HeldFor` observation is side-effectful, so a
//! skipped child is a semantic fact, not an optimization.

use crate::program::{Op, Pred};
use cadel_obs::{Event as ObsEvent, LazyCounter, Level};
use cadel_types::{Date, PersonId, PlaceId, SimTime, Value, Weekday};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Numeric predicates that saw a present but unusable reading (wrong value
/// type, or a quantity of the wrong dimension). Counts every occurrence;
/// the structured event is rate-limited.
static TYPE_MISMATCHES: LazyCounter = LazyCounter::new("engine_type_mismatch_total");
/// Occurrence count backing the event rate limit (separate from the
/// counter so the limit works even with metrics disabled).
static TYPE_MISMATCH_SEEN: AtomicU64 = AtomicU64::new(0);

/// Records a unit/type mismatch: a sensor reading was present but could
/// not satisfy a numeric predicate (non-numeric value, or a quantity of a
/// different dimension). The predicate still evaluates false — this makes
/// the degradation diagnosable instead of invisible.
///
/// Every occurrence ticks `engine_type_mismatch_total`; the structured
/// `engine.type_mismatch` event is rate-limited (the first 8 occurrences,
/// then every 1024th) so one mis-wired sensor in a hot loop cannot flood
/// the collector. Shared by the compiled evaluator and the engine's
/// reference interpreter so both report identically.
pub fn note_type_mismatch(
    path: &'static str,
    subject: &dyn fmt::Display,
    found: &dyn fmt::Display,
) {
    TYPE_MISMATCHES.inc();
    if !cadel_obs::enabled() {
        return;
    }
    let occurrence = TYPE_MISMATCH_SEEN.fetch_add(1, Ordering::Relaxed) + 1;
    if occurrence <= 8 || occurrence.is_multiple_of(1024) {
        cadel_obs::emit(
            ObsEvent::new("engine.type_mismatch", Level::Warn)
                .with_field("path", path)
                .with_field("subject", subject.to_string())
                .with_field("found", found.to_string())
                .with_field("occurrences", occurrence),
        );
    }
}

/// Display label for a sensor slot in mismatch events (the compiled path
/// has no string key at hand; the slot index is stable per interner).
struct SlotLabel(crate::SensorSlot);

impl fmt::Display for SlotLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sensor-slot {}", self.0.index())
    }
}

/// A policy-mediated sensor read: either a usable value or a forced
/// verdict when the host's freshness policy overrides the raw reading.
///
/// Hosts with staleness semantics (the engine's `ContextStore`) return
/// `AssumeFalse` / `AssumeTrue` for readings older than their freshness
/// window (fail-closed / fail-open), or keep returning `Value` to hold
/// the last value. The default [`ContextView::sensor_read`] has no
/// staleness notion: a present value is `Value`, an absent one is
/// `AssumeFalse` (the pre-existing semantics of a missing reading).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SensorRead<'a> {
    /// A usable reading (fresh, or held per policy).
    Value(&'a Value),
    /// No usable reading; predicates over this slot evaluate true.
    AssumeTrue,
    /// No usable reading; predicates over this slot evaluate false.
    AssumeFalse,
}

/// Slot-indexed, read-only view of the live context.
pub trait ContextView {
    /// The latest value on a sensor slot, if any.
    fn sensor_value(&self, slot: crate::SensorSlot) -> Option<&Value>;
    /// The policy-mediated reading on a sensor slot. Default: no staleness
    /// policy — present values pass through, absent ones fail closed.
    fn sensor_read(&self, slot: crate::SensorSlot) -> SensorRead<'_> {
        match self.sensor_value(slot) {
            Some(value) => SensorRead::Value(value),
            None => SensorRead::AssumeFalse,
        }
    }
    /// Whether the event pattern on a slot is currently active.
    fn event_active_slot(&self, slot: crate::EventSlot) -> bool;
    /// Where a person currently is, if known.
    fn person_place(&self, person: &PersonId) -> Option<&PlaceId>;
    /// Whether at least one person is at the place.
    fn place_occupied(&self, place: &PlaceId) -> bool;
    /// The current instant.
    fn now(&self) -> SimTime;
    /// The weekday at the current instant.
    fn weekday(&self) -> Weekday;
    /// The calendar date at the current instant.
    fn date(&self) -> Date;
}

/// Continuous-truth tracking for `HeldFor` predicates.
pub trait HeldObserver {
    /// Records the inner fact's truth under `fingerprint` and returns since
    /// when it has been continuously true (`None` when currently false).
    fn observe(&mut self, fingerprint: &str, inner_true: bool, now: SimTime) -> Option<SimTime>;
}

/// Evaluates flattened condition bytecode over a predicate table.
///
/// The code may be a whole [`crate::CondCode`] or an arena span: `And`/`Or`
/// `end` offsets are local to the slice, while `Op::Pred` indexes are
/// interpreted against whatever predicate table is passed alongside (a
/// program's own table, or the arena's global one with rebased indexes).
pub fn eval_code(
    code: &[Op],
    preds: &[Pred],
    view: &impl ContextView,
    held: &mut impl HeldObserver,
) -> bool {
    if code.is_empty() {
        return true;
    }
    let (value, _next) = eval_at(code, preds, 0, view, held);
    value
}

/// Evaluates the instruction at `pc`, returning its value and the pc just
/// past its region.
fn eval_at(
    code: &[Op],
    preds: &[Pred],
    pc: usize,
    view: &impl ContextView,
    held: &mut impl HeldObserver,
) -> (bool, usize) {
    match code[pc] {
        Op::True => (true, pc + 1),
        Op::Pred(i) => (eval_pred(preds, i, view, held), pc + 1),
        Op::And { end } => {
            let end = end as usize;
            let mut child = pc + 1;
            while child < end {
                let (value, next) = eval_at(code, preds, child, view, held);
                if !value {
                    // Short-circuit: remaining children are not evaluated,
                    // matching `Iterator::all` in the reference interpreter.
                    return (false, end);
                }
                child = next;
            }
            (true, end)
        }
        Op::Or { end } => {
            let end = end as usize;
            let mut child = pc + 1;
            while child < end {
                let (value, next) = eval_at(code, preds, child, view, held);
                if value {
                    return (true, end);
                }
                child = next;
            }
            (false, end)
        }
    }
}

fn eval_pred(
    preds: &[Pred],
    index: u32,
    view: &impl ContextView,
    held: &mut impl HeldObserver,
) -> bool {
    match &preds[index as usize] {
        Pred::NumCmp {
            slot,
            op,
            threshold,
            dim,
        } => match view.sensor_read(*slot) {
            SensorRead::Value(Value::Number(q)) => {
                if q.dimension() == *dim {
                    op.holds(q.canonical_value(), *threshold)
                } else {
                    note_type_mismatch("compiled", &SlotLabel(*slot), q);
                    false
                }
            }
            SensorRead::Value(other) => {
                note_type_mismatch("compiled", &SlotLabel(*slot), other);
                false
            }
            SensorRead::AssumeFalse => false,
            SensorRead::AssumeTrue => true,
        },
        Pred::StateEq { slot, expected } => match view.sensor_read(*slot) {
            SensorRead::Value(observed) => match expected {
                Value::Text(text) => observed.text_matches(text),
                other => other == observed,
            },
            SensorRead::AssumeTrue => true,
            SensorRead::AssumeFalse => false,
        },
        Pred::PersonAt { person, place } => view.person_place(person) == Some(place),
        Pred::SomebodyAt(place) => view.place_occupied(place),
        Pred::NobodyAt(place) => !view.place_occupied(place),
        Pred::Event(slot) => view.event_active_slot(*slot),
        Pred::TimeIn(window) => window.contains(view.now().time_of_day()),
        Pred::WeekdayIs(day) => view.weekday() == *day,
        Pred::DateIs(date) => view.date() == *date,
        Pred::HeldFor {
            inner,
            duration,
            fingerprint,
        } => {
            let inner_true = eval_pred(preds, *inner, view, held);
            match held.observe(fingerprint, inner_true, view.now()) {
                Some(since) => view.now().since(since) >= *duration,
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventSlot, SensorSlot};
    use cadel_simplex::RelOp;
    use cadel_types::unit::Dimension;
    use cadel_types::{Quantity, Rational, SimDuration, Unit};
    use std::collections::HashMap;

    /// A minimal context for exercising the evaluator without the engine.
    #[derive(Default)]
    struct TestView {
        sensors: Vec<Option<Value>>,
        events: Vec<bool>,
        now: SimTime,
    }

    impl ContextView for TestView {
        fn sensor_value(&self, slot: SensorSlot) -> Option<&Value> {
            self.sensors.get(slot.index())?.as_ref()
        }
        fn event_active_slot(&self, slot: EventSlot) -> bool {
            self.events.get(slot.index()).copied().unwrap_or(false)
        }
        fn person_place(&self, _: &PersonId) -> Option<&PlaceId> {
            None
        }
        fn place_occupied(&self, _: &PlaceId) -> bool {
            false
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn weekday(&self) -> Weekday {
            Weekday::Monday
        }
        fn date(&self) -> Date {
            Date::new(2005, 6, 6).unwrap()
        }
    }

    #[derive(Default)]
    struct TestHeld {
        since: HashMap<String, SimTime>,
        observations: usize,
    }

    impl HeldObserver for TestHeld {
        fn observe(&mut self, fp: &str, inner_true: bool, now: SimTime) -> Option<SimTime> {
            self.observations += 1;
            if inner_true {
                Some(*self.since.entry(fp.to_owned()).or_insert(now))
            } else {
                self.since.remove(fp);
                None
            }
        }
    }

    fn num_pred(slot: u32, op: RelOp, threshold: i64) -> Pred {
        Pred::NumCmp {
            slot: SensorSlot::new(slot),
            op,
            threshold: Rational::from_integer(threshold),
            dim: Dimension::Temperature,
        }
    }

    #[test]
    fn empty_code_is_true() {
        let view = TestView::default();
        let mut held = TestHeld::default();
        assert!(eval_code(&[], &[], &view, &mut held));
        assert!(eval_code(&[Op::True], &[], &view, &mut held));
    }

    #[test]
    fn numeric_pred_checks_dimension_and_value() {
        let mut view = TestView {
            sensors: vec![Some(Value::Number(Quantity::from_integer(
                28,
                Unit::Celsius,
            )))],
            ..TestView::default()
        };
        let mut held = TestHeld::default();
        let preds = vec![num_pred(0, RelOp::Gt, 26)];
        let code = vec![Op::Pred(0)];
        assert!(eval_code(&code, &preds, &view, &mut held));
        // Wrong dimension: fails closed.
        view.sensors = vec![Some(Value::Number(Quantity::from_integer(
            90,
            Unit::Percent,
        )))];
        assert!(!eval_code(&code, &preds, &view, &mut held));
        // No reading: false.
        view.sensors = vec![None];
        assert!(!eval_code(&code, &preds, &view, &mut held));
    }

    #[test]
    fn and_or_short_circuit_skips_held_observation() {
        let view = TestView {
            sensors: vec![Some(Value::Number(Quantity::from_integer(
                10,
                Unit::Celsius,
            )))],
            ..TestView::default()
        };
        let mut held = TestHeld::default();
        let preds = vec![
            num_pred(0, RelOp::Gt, 26), // false
            Pred::HeldFor {
                inner: 2,
                duration: SimDuration::from_minutes(1),
                fingerprint: "x".into(),
            },
            num_pred(0, RelOp::Gt, 0), // inner, true
        ];
        // And(false, held_for): held_for must NOT be observed.
        let code = vec![Op::And { end: 3 }, Op::Pred(0), Op::Pred(1)];
        assert!(!eval_code(&code, &preds, &view, &mut held));
        assert_eq!(held.observations, 0);
        // Or(true, held_for): held_for must NOT be observed either.
        let preds2 = vec![
            num_pred(0, RelOp::Gt, 0), // true
            preds[1].clone(),
            preds[2].clone(),
        ];
        let code = vec![Op::Or { end: 3 }, Op::Pred(0), Op::Pred(1)];
        assert!(eval_code(&code, &preds2, &view, &mut held));
        assert_eq!(held.observations, 0);
    }

    #[test]
    fn nested_groups_evaluate_in_order() {
        let view = TestView {
            sensors: vec![Some(Value::Number(Quantity::from_integer(
                30,
                Unit::Celsius,
            )))],
            events: vec![true],
            ..TestView::default()
        };
        let mut held = TestHeld::default();
        let preds = vec![
            num_pred(0, RelOp::Gt, 26),     // true
            Pred::Event(EventSlot::new(0)), // true
            num_pred(0, RelOp::Lt, 0),      // false
        ];
        // (p0 and (p2 or p1)) == true
        let code = vec![
            Op::And { end: 5 },
            Op::Pred(0),
            Op::Or { end: 5 },
            Op::Pred(2),
            Op::Pred(1),
        ];
        assert!(eval_code(&code, &preds, &view, &mut held));
        // Empty And is true, empty Or is false (matches all()/any()).
        assert!(eval_code(&[Op::And { end: 1 }], &preds, &view, &mut held));
        assert!(!eval_code(&[Op::Or { end: 1 }], &preds, &view, &mut held));
    }

    #[test]
    fn sensor_read_override_forces_predicate_verdicts() {
        /// A view whose freshness policy says "everything is stale":
        /// sensor reads come back as a forced verdict.
        struct StaleView {
            inner: TestView,
            verdict: bool,
        }
        impl ContextView for StaleView {
            fn sensor_value(&self, slot: SensorSlot) -> Option<&Value> {
                self.inner.sensor_value(slot)
            }
            fn sensor_read(&self, _slot: SensorSlot) -> SensorRead<'_> {
                if self.verdict {
                    SensorRead::AssumeTrue
                } else {
                    SensorRead::AssumeFalse
                }
            }
            fn event_active_slot(&self, slot: EventSlot) -> bool {
                self.inner.event_active_slot(slot)
            }
            fn person_place(&self, p: &PersonId) -> Option<&PlaceId> {
                self.inner.person_place(p)
            }
            fn place_occupied(&self, p: &PlaceId) -> bool {
                self.inner.place_occupied(p)
            }
            fn now(&self) -> SimTime {
                self.inner.now()
            }
            fn weekday(&self) -> Weekday {
                self.inner.weekday()
            }
            fn date(&self) -> Date {
                self.inner.date()
            }
        }

        let inner = TestView {
            sensors: vec![Some(Value::Number(Quantity::from_integer(
                10,
                Unit::Celsius,
            )))],
            ..TestView::default()
        };
        let mut held = TestHeld::default();
        // The raw value (10°C) fails `> 26` — but a fail-open policy
        // forces the predicate true, and fail-closed forces it false even
        // for `> 0` (which the raw value would satisfy).
        let preds = vec![
            num_pred(0, RelOp::Gt, 26),
            num_pred(0, RelOp::Gt, 0),
            Pred::StateEq {
                slot: SensorSlot::new(0),
                expected: Value::Bool(true),
            },
        ];
        let open = StaleView {
            inner,
            verdict: true,
        };
        for i in 0..3 {
            assert!(eval_code(&[Op::Pred(i)], &preds, &open, &mut held));
        }
        let closed = StaleView {
            inner: open.inner,
            verdict: false,
        };
        for i in 0..3 {
            assert!(!eval_code(&[Op::Pred(i)], &preds, &closed, &mut held));
        }
    }

    #[test]
    fn held_for_requires_continuous_truth() {
        let mut view = TestView {
            sensors: vec![Some(Value::Number(Quantity::from_integer(
                30,
                Unit::Celsius,
            )))],
            ..TestView::default()
        };
        let mut held = TestHeld::default();
        let preds = vec![
            Pred::HeldFor {
                inner: 1,
                duration: SimDuration::from_minutes(10),
                fingerprint: "hot~600000".into(),
            },
            num_pred(0, RelOp::Gt, 26),
        ];
        let code = vec![Op::Pred(0)];
        assert!(!eval_code(&code, &preds, &view, &mut held)); // just started
        view.now = SimTime::EPOCH + SimDuration::from_minutes(11);
        assert!(eval_code(&code, &preds, &view, &mut held));
        // Drops below: resets.
        view.sensors = vec![Some(Value::Number(Quantity::from_integer(
            10,
            Unit::Celsius,
        )))];
        assert!(!eval_code(&code, &preds, &view, &mut held));
        assert!(held.since.is_empty());
    }
}
