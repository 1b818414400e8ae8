//! A workspace-level arena of compiled rule programs in data-oriented
//! (structure-of-arrays) layout.
//!
//! Per-[`RuleProgram`] `Vec<Pred>`/`Vec<Op>` storage scatters a fleet's
//! programs across the heap. The [`ProgramArena`] instead appends every
//! registered program into one global predicate table and one global
//! opcode table; each rule owns a dense span of both, with `Op::Pred` and
//! `HeldFor::inner` indexes rebased to the global table at append time
//! (`And`/`Or` `end` offsets stay span-local, so evaluation slices the
//! span and passes the global predicate table). The spans are the only
//! stored executable form of a rule: the engine evaluates them, and its
//! trigger index reads a rule's footprint (the slots, places, channels,
//! thresholds, clock predicates and `held for` fingerprints it reads) in
//! one pass over [`ProgramArena::preds`]. The arena derives one flag per
//! rule, [`ProgramRef::temporal`], with an exhaustive match over [`Pred`],
//! so a new predicate kind is a compile error here, not a silent
//! every-step fallback.
//!
//! Rules are addressed by the dense ordinal their database assigns (see
//! `cadel_rule::RuleDb`), so a span record is one indexed load. Removal
//! tombstones a rule's spans; the arena compacts (rebuilds and
//! rebase-remaps all spans) once dead entries outnumber live ones. Spans
//! are only meaningful between mutations — consumers hold a [`ProgramRef`]
//! no longer than one evaluation phase.

use crate::interner::Interner;
use crate::program::{Op, Pred, RuleProgram};
use crate::{ContextView, HeldObserver};
use cadel_types::{Date, SimTime, TimeWindow, Weekday};

/// A predicate over the clock or the calendar alone: its truth changes
/// only at instants it can compute in advance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockPred {
    /// [`Pred::TimeIn`].
    TimeIn(TimeWindow),
    /// [`Pred::WeekdayIs`].
    WeekdayIs(Weekday),
    /// [`Pred::DateIs`].
    DateIs(Date),
}

impl ClockPred {
    /// The clock predicate `pred` is, or `None` when it reads anything
    /// but the clock and the calendar.
    pub fn of(pred: &Pred) -> Option<ClockPred> {
        match pred {
            Pred::TimeIn(window) => Some(ClockPred::TimeIn(*window)),
            Pred::WeekdayIs(day) => Some(ClockPred::WeekdayIs(*day)),
            Pred::DateIs(date) => Some(ClockPred::DateIs(*date)),
            _ => None,
        }
    }

    /// The first instant strictly after `now` at which the predicate's
    /// truth can change, given the weekday and date at `now`; `None` when
    /// it can never change again. A date still ahead re-arms at every
    /// midnight until it arrives.
    pub fn next_change_after(self, now: SimTime, today: Weekday, date: Date) -> Option<SimTime> {
        match self {
            ClockPred::TimeIn(window) => window.next_change_after(now),
            ClockPred::WeekdayIs(day) => {
                let days_until = (day.index() + 7 - today.index()) % 7;
                Some(now.midnight_after_days(if days_until == 0 {
                    1
                } else {
                    days_until as u64
                }))
            }
            ClockPred::DateIs(day) if day < date => None,
            ClockPred::DateIs(_) => Some(now.midnight_after_days(1)),
        }
    }
}

/// A rule's spans into the arena tables. Obtained from
/// [`ProgramArena::program_ref`]; invalidated by the next arena mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramRef {
    preds: (u32, u32),
    condition: (u32, u32),
    until: Option<(u32, u32)>,
    temporal: bool,
}

impl ProgramRef {
    /// Whether the rule's verdict can change without any change the
    /// engine can index — a dwell over a clock or event predicate, or an
    /// event pattern with no channel slot — so it must be re-evaluated
    /// every step rather than only when marked. Clock predicates alone do
    /// not make a rule temporal: [`ProgramArena::clock_preds`] exposes
    /// them for scheduling at their next boundary.
    pub fn temporal(&self) -> bool {
        self.temporal
    }
}

/// Contiguous SoA storage for every compiled program of a rule database.
#[derive(Clone, Debug, Default)]
pub struct ProgramArena {
    preds: Vec<Pred>,
    ops: Vec<Op>,
    /// Span records indexed by rule ordinal; `None` for a free ordinal.
    refs: Vec<Option<ProgramRef>>,
    /// Number of `Some` entries in `refs`.
    live: usize,
    dead_preds: usize,
    dead_ops: usize,
}

/// Whether the subtree rooted at `index` is heap-eligible: only
/// property-driven predicates (or nested eligible dwells), so its truth
/// can change only at steps where its sensors/places are dirty or a dwell
/// deadline fires. Time-of-day, date and event predicates flip without a
/// property change, so dwells over them fall back to every-step
/// evaluation.
fn subtree_eligible(preds: &[Pred], index: u32) -> bool {
    match &preds[index as usize] {
        Pred::NumCmp { .. }
        | Pred::StateEq { .. }
        | Pred::PersonAt { .. }
        | Pred::SomebodyAt(_)
        | Pred::NobodyAt(_) => true,
        Pred::HeldFor { inner, .. } => subtree_eligible(preds, *inner),
        Pred::Event(_) | Pred::TimeIn(_) | Pred::WeekdayIs(_) | Pred::DateIs(_) => false,
    }
}

impl ProgramArena {
    /// Creates an empty arena.
    pub fn new() -> ProgramArena {
        ProgramArena::default()
    }

    /// Appends a compiled program under a rule ordinal, rebasing its
    /// predicate indexes into the global tables and replacing any previous
    /// entry for the ordinal. The caller passes the same (locked) interner
    /// the program was compiled against: the places the program names are
    /// interned here, so presence dirt finds a slot for each of them and a
    /// place no stored rule names gets none.
    pub fn insert(&mut self, ord: u32, program: &RuleProgram, interner: &mut Interner) {
        self.remove(ord);
        let base = self.preds.len();
        let until = program.until().map(Vec::as_slice);
        let mut r = self.append(program.preds(), program.condition(), until, 0);
        // Deliberately exhaustive: adding a `Pred` variant must force a
        // decision about whether it makes a rule temporal. The span holds
        // every `HeldFor` inner as its own entry, so a flat pass covers
        // nested subtrees too, and inner indexes are already rebased, so
        // eligibility walks the global table.
        for (index, pred) in self.preds.iter().enumerate().skip(base) {
            r.temporal |= match pred {
                Pred::NumCmp { .. }
                | Pred::StateEq { .. }
                | Pred::TimeIn(_)
                | Pred::WeekdayIs(_)
                | Pred::DateIs(_) => false,
                Pred::PersonAt { place, .. } | Pred::SomebodyAt(place) | Pred::NobodyAt(place) => {
                    interner.place_slot(place);
                    false
                }
                // `event_slot` interns a pattern's channel with the
                // pattern; a pattern without one cannot be indexed, so its
                // rule is evaluated every step.
                Pred::Event(slot) => interner.event_channel_of(*slot).is_none(),
                Pred::HeldFor { .. } => !subtree_eligible(&self.preds, index as u32),
            };
        }
        self.set_ref(ord, r);
    }

    /// Appends one rule's predicates and code, moving its predicate
    /// indexes from a table where its predicates start at `old_base` to
    /// the arena's global table. `And`/`Or` `end` offsets are local to a
    /// code span and stay valid when the span is evaluated as a slice.
    fn append(
        &mut self,
        preds: &[Pred],
        condition: &[Op],
        until: Option<&[Op]>,
        old_base: u32,
    ) -> ProgramRef {
        let base = self.preds.len() as u32;
        let moved = |index: u32| index - old_base + base;
        self.preds.extend(preds.iter().map(|pred| match pred {
            Pred::HeldFor {
                inner,
                duration,
                fingerprint,
            } => Pred::HeldFor {
                inner: moved(*inner),
                duration: *duration,
                fingerprint: fingerprint.clone(),
            },
            other => other.clone(),
        }));
        let mut append_code = |code: &[Op]| {
            let start = self.ops.len() as u32;
            self.ops.extend(code.iter().map(|op| match op {
                Op::Pred(index) => Op::Pred(moved(*index)),
                other => *other,
            }));
            (start, self.ops.len() as u32)
        };
        ProgramRef {
            preds: (base, self.preds.len() as u32),
            condition: append_code(condition),
            until: until.map(append_code),
            temporal: false,
        }
    }

    /// Stores the span record of an ordinal, growing the table to cover it.
    fn set_ref(&mut self, ord: u32, r: ProgramRef) {
        let at = ord as usize;
        if self.refs.len() <= at {
            self.refs.resize(at + 1, None);
        }
        self.live += 1;
        self.refs[at] = Some(r);
    }

    /// Tombstones a rule's spans, compacting the tables once dead entries
    /// outnumber live ones.
    pub fn remove(&mut self, ord: u32) {
        let Some(r) = self.refs.get_mut(ord as usize).and_then(Option::take) else {
            return;
        };
        self.live -= 1;
        self.dead_preds += (r.preds.1 - r.preds.0) as usize;
        let (s, e) = r.condition;
        self.dead_ops += (e - s) as usize;
        if let Some((s, e)) = r.until {
            self.dead_ops += (e - s) as usize;
        }
        if self.dead_preds > self.preds.len() - self.dead_preds
            || self.dead_ops > self.ops.len() - self.dead_ops
        {
            self.compact();
        }
    }

    /// Rebuilds the tables with only live spans, remapping every ref.
    fn compact(&mut self) {
        let mut next = ProgramArena::new();
        for (ord, r) in self.refs.iter().enumerate() {
            let Some(r) = *r else {
                continue;
            };
            let code = |(s, e): (u32, u32)| &self.ops[s as usize..e as usize];
            let mut moved = next.append(
                self.preds(&r),
                code(r.condition),
                r.until.map(code),
                r.preds.0,
            );
            moved.temporal = r.temporal;
            next.set_ref(ord as u32, moved);
        }
        *self = next;
    }

    /// The span record of the program stored under a rule ordinal.
    pub fn program_ref(&self, ord: u32) -> Option<&ProgramRef> {
        self.refs.get(ord as usize)?.as_ref()
    }

    /// A rule's predicates: those of its condition and of its `until`
    /// clause, each `held for` inner an entry of its own whose `inner`
    /// index points into the arena's global table.
    pub fn preds(&self, r: &ProgramRef) -> &[Pred] {
        &self.preds[r.preds.0 as usize..r.preds.1 as usize]
    }

    /// The rule's clock and calendar predicates, in predicate order.
    pub fn clock_preds<'a>(&'a self, r: &ProgramRef) -> impl Iterator<Item = ClockPred> + 'a {
        self.preds(r).iter().filter_map(ClockPred::of)
    }

    /// Evaluates a rule's trigger condition over its arena span.
    pub fn condition_holds(
        &self,
        r: &ProgramRef,
        view: &impl ContextView,
        held: &mut impl HeldObserver,
    ) -> bool {
        crate::eval_code(
            &self.ops[r.condition.0 as usize..r.condition.1 as usize],
            &self.preds,
            view,
            held,
        )
    }

    /// Evaluates a rule's `until` condition (`None` when it has none).
    pub fn until_holds(
        &self,
        r: &ProgramRef,
        view: &impl ContextView,
        held: &mut impl HeldObserver,
    ) -> Option<bool> {
        r.until.map(|(s, e)| {
            crate::eval_code(&self.ops[s as usize..e as usize], &self.preds, view, held)
        })
    }

    /// Number of rules with live spans.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the arena holds no live spans.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SensorSlot;
    use cadel_simplex::RelOp;
    use cadel_types::unit::Dimension;
    use cadel_types::{DeviceId, PlaceId, Rational, SensorKey, SimDuration, Value};
    use std::collections::HashMap;

    struct NullView;
    impl ContextView for NullView {
        fn sensor_value(&self, _: SensorSlot) -> Option<&Value> {
            Some(&Value::Bool(true))
        }
        fn event_active_slot(&self, _: crate::EventSlot) -> bool {
            false
        }
        fn person_place(&self, _: &cadel_types::PersonId) -> Option<&PlaceId> {
            None
        }
        fn place_occupied(&self, _: &PlaceId) -> bool {
            true
        }
        fn now(&self) -> SimTime {
            SimTime::EPOCH
        }
        fn weekday(&self) -> cadel_types::Weekday {
            cadel_types::Weekday::Monday
        }
        fn date(&self) -> cadel_types::Date {
            cadel_types::Date::new(2005, 6, 6).unwrap()
        }
    }

    #[derive(Default)]
    struct MapHeld(HashMap<String, SimTime>);
    impl HeldObserver for MapHeld {
        fn observe(&mut self, fp: &str, inner_true: bool, now: SimTime) -> Option<SimTime> {
            if inner_true {
                Some(*self.0.entry(fp.to_owned()).or_insert(now))
            } else {
                self.0.remove(fp);
                None
            }
        }
    }

    fn num(slot: u32) -> Pred {
        Pred::NumCmp {
            slot: SensorSlot::new(slot),
            op: RelOp::Gt,
            threshold: Rational::from_integer(0),
            dim: Dimension::Temperature,
        }
    }

    fn held(inner: u32, fp: &str) -> Pred {
        Pred::HeldFor {
            inner,
            duration: cadel_types::SimDuration::from_minutes(5),
            fingerprint: fp.into(),
        }
    }

    fn presence_program(place: &str) -> RuleProgram {
        RuleProgram::new(
            vec![Pred::SomebodyAt(PlaceId::new(place))],
            vec![Op::Pred(0)],
            None,
            Vec::new(),
        )
    }

    #[test]
    fn insert_rebases_and_extracts_footprints() {
        let mut interner = Interner::new();
        let slot_a = interner.sensor_slot(&SensorKey::new(DeviceId::new("a"), "t"));
        let slot_b = interner.sensor_slot(&SensorKey::new(DeviceId::new("b"), "t"));
        let window = TimeWindow::new(
            cadel_types::TimeOfDay::hm(6, 0).unwrap(),
            cadel_types::TimeOfDay::hm(12, 0).unwrap(),
        );

        // Rule 2: numeric + time window, with an until over another
        // sensor.
        let p2 = RuleProgram::new(
            vec![
                num(slot_b.index() as u32),
                Pred::TimeIn(window),
                num(slot_a.index() as u32),
            ],
            vec![Op::And { end: 3 }, Op::Pred(0), Op::Pred(1)],
            Some(vec![Op::Pred(2)]),
            Vec::new(),
        );
        // Rule 1: nested dwell over a numeric read — heap-eligible.
        // preds = [leaf, inner-held, outer-held], like the compiler emits.
        let p1 = RuleProgram::new(
            vec![
                num(slot_a.index() as u32),
                held(0, "leaf~1"),
                held(1, "mid~2"),
            ],
            vec![Op::Pred(2)],
            None,
            Vec::new(),
        );

        let mut arena = ProgramArena::new();
        arena.insert(2, &p2, &mut interner);
        arena.insert(1, &p1, &mut interner);

        // A clock window is scheduled, not evaluated every step.
        let r2 = *arena.program_ref(2).unwrap();
        assert!(!r2.temporal());
        assert_eq!(arena.preds(&r2), p2.preds());
        assert_eq!(
            arena.clock_preds(&r2).collect::<Vec<_>>(),
            [ClockPred::TimeIn(window)]
        );

        // Rule 1's span follows rule 2's three predicates, and its dwell
        // inners point into the global table.
        let r1 = *arena.program_ref(1).unwrap();
        assert!(!r1.temporal());
        assert_eq!(
            arena.preds(&r1),
            [
                num(slot_a.index() as u32),
                held(3, "leaf~1"),
                held(4, "mid~2")
            ]
        );
        assert_eq!(arena.clock_preds(&r1).count(), 0);

        // Evaluating through the arena matches evaluating the program.
        let view = NullView;
        let mut h1 = MapHeld::default();
        let mut h2 = MapHeld::default();
        assert_eq!(
            arena.condition_holds(&r1, &view, &mut h1),
            crate::eval_code(p1.condition(), p1.preds(), &view, &mut h2)
        );
        assert_eq!(h1.0, h2.0);
        let mut h = MapHeld::default();
        assert_eq!(
            arena.until_holds(&r2, &view, &mut h),
            Some(crate::eval_code(
                p2.until().unwrap(),
                p2.preds(),
                &view,
                &mut h
            ))
        );
        assert_eq!(arena.until_holds(&r1, &view, &mut h), None);
    }

    #[test]
    fn calendar_predicates_change_only_at_midnight() {
        let monday = cadel_types::Date::new(2005, 6, 6).unwrap();
        let noon = SimTime::EPOCH + SimDuration::from_hours(12);
        let day = |d: u64| SimTime::EPOCH + SimDuration::from_hours(24 * d);
        let next = |p: ClockPred| p.next_change_after(noon, Weekday::Monday, monday);
        // Today's weekday ends at the next midnight; another weekday
        // starts at its own midnight.
        assert_eq!(next(ClockPred::WeekdayIs(Weekday::Monday)), Some(day(1)));
        assert_eq!(next(ClockPred::WeekdayIs(Weekday::Thursday)), Some(day(3)));
        assert_eq!(next(ClockPred::WeekdayIs(Weekday::Sunday)), Some(day(6)));
        // A past date never changes again; today's and future ones are
        // re-checked at the next midnight.
        let past = cadel_types::Date::new(2005, 6, 5).unwrap();
        assert_eq!(next(ClockPred::DateIs(past)), None);
        assert_eq!(next(ClockPred::DateIs(monday)), Some(day(1)));
        assert_eq!(next(ClockPred::DateIs(monday.advance(30))), Some(day(1)));
    }

    #[test]
    fn dwell_over_event_is_ineligible_and_temporal() {
        let mut interner = Interner::new();
        let ev = interner.event_slot("chan", "ding");
        let program = RuleProgram::new(
            vec![Pred::Event(ev), held(0, "ev~5")],
            vec![Op::Pred(1)],
            None,
            Vec::new(),
        );
        let mut arena = ProgramArena::new();
        arena.insert(7, &program, &mut interner);
        assert!(arena.program_ref(7).unwrap().temporal());
    }

    #[test]
    fn remove_tombstones_and_compaction_preserves_spans() {
        let mut interner = Interner::new();
        let mut arena = ProgramArena::new();
        let program = presence_program("living room");
        for ord in 0..8 {
            arena.insert(ord, &program, &mut interner);
        }
        // Inserting interns the place a presence predicate names.
        assert!(interner
            .lookup_place(&PlaceId::new("living room"))
            .is_some());
        assert_eq!(arena.len(), 8);
        for ord in 0..7 {
            arena.remove(ord);
        }
        assert_eq!(arena.len(), 1);
        // The survivor still evaluates after compaction.
        let r = *arena.program_ref(7).unwrap();
        let mut h = MapHeld::default();
        assert!(arena.condition_holds(&r, &NullView, &mut h));
        assert_eq!(arena.preds(&r), program.preds());
        // Removing an unknown ordinal is a no-op.
        arena.remove(99);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn compaction_rebases_threshold_and_clock_columns() {
        let mut interner = Interner::new();
        let slot = interner.sensor_slot(&SensorKey::new(DeviceId::new("a"), "t"));
        let window = TimeWindow::new(
            cadel_types::TimeOfDay::hm(6, 0).unwrap(),
            cadel_types::TimeOfDay::hm(9, 0).unwrap(),
        );
        let program = |threshold: i64| {
            RuleProgram::new(
                vec![
                    Pred::NumCmp {
                        slot,
                        op: RelOp::Ge,
                        threshold: Rational::from_integer(threshold),
                        dim: Dimension::Temperature,
                    },
                    Pred::TimeIn(window),
                    held(0, "ge~5"),
                ],
                vec![Op::And { end: 3 }, Op::Pred(2), Op::Pred(1)],
                None,
                Vec::new(),
            )
        };
        let mut arena = ProgramArena::new();
        for ord in 0..8 {
            arena.insert(ord, &program(ord as i64), &mut interner);
        }
        for ord in 0..7 {
            arena.remove(ord);
        }
        // Compaction moved the survivor to the front of the table, and
        // its dwell's inner index with it.
        let r = *arena.program_ref(7).unwrap();
        assert_eq!(arena.preds(&r), program(7).preds());
        assert_eq!(
            arena.clock_preds(&r).collect::<Vec<_>>(),
            [ClockPred::TimeIn(window)]
        );
    }
}
