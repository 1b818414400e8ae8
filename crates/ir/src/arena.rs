//! A workspace-level arena of compiled rule programs in data-oriented
//! (structure-of-arrays) layout.
//!
//! Per-[`RuleProgram`] `Vec<Pred>`/`Vec<Op>` storage
//! scatters a fleet's programs across the heap and leaves the engine's
//! trigger index to re-derive footprints from the AST. The
//! [`ProgramArena`] instead appends every registered program into shared
//! contiguous tables:
//!
//! * `preds` / `ops` — one global predicate table and one global opcode
//!   table; each rule owns a dense span of both, with `Op::Pred` and
//!   `HeldFor::inner` indexes rebased to the global table at append time
//!   (`And`/`Or` `end` offsets stay span-local, so evaluation slices the
//!   span and passes the global predicate table);
//! * footprint columns — the interned [`SensorSlot`]s, [`PlaceSlot`]s and
//!   [`ChannelSlot`]s a rule's condition *and* `until` clause read, its
//!   numeric thresholds ([`NumThreshold`]) and clock predicates
//!   ([`ClockPred`]), plus its `held for` fingerprints ([`HeldKey`]),
//!   extracted once with an exhaustive match over [`Pred`] so inverted
//!   indexes are built without ever touching the AST (and a new predicate
//!   kind is a compile error here, not a silent every-step fallback).
//!
//! Rules are addressed by the dense ordinal their database assigns (see
//! `cadel_rule::RuleDb`), so a span record is one indexed load. Removal
//! tombstones a rule's spans; the arena compacts (rebuilds and
//! rebase-remaps all spans) once dead entries outnumber live ones. Spans
//! are only meaningful between mutations — consumers hold a [`ProgramRef`]
//! no longer than one evaluation phase.

use crate::interner::{ChannelSlot, Interner, PlaceSlot, SensorSlot};
use crate::program::{Op, Pred, RuleProgram};
use crate::{ContextView, HeldObserver};
use cadel_simplex::RelOp;
use cadel_types::unit::Dimension;
use cadel_types::{Date, Rational, SimDuration, SimTime, TimeWindow, Weekday};

/// One [`Pred::NumCmp`] of a rule: the sensor it reads, the operator, and
/// the threshold it compares against, in canonical units of `dim`. Its
/// truth can change only when a usable reading of `dim` moves across
/// `threshold` (or onto or off it), which is what the engine's crossing
/// postings key on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumThreshold {
    /// The sensor board slot read.
    pub slot: SensorSlot,
    /// The comparison operator.
    pub op: RelOp,
    /// The dimension a reading must have to satisfy the predicate.
    pub dim: Dimension,
    /// The canonical threshold.
    pub threshold: Rational,
}

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

/// One `held for` predicate of a rule: where its [`Pred::HeldFor`] lives
/// in the arena table, and whether its inner subtree is purely
/// property-driven (see [`ProgramRef::temporal`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeldKey {
    /// Index of the `HeldFor` predicate in the arena's global table.
    pub pred: u32,
    /// Whether the dwell window can be scheduled on a deadline heap: true
    /// iff the inner subtree contains only property-driven predicates
    /// (numeric/state comparisons, presence) or nested eligible dwells.
    /// Time-of-day, date and event predicates flip without a property
    /// change, so dwells over them fall back to every-step evaluation.
    pub eligible: bool,
}

/// A rule's spans into the arena tables. Obtained from
/// [`ProgramArena::program_ref`]; invalidated by the next arena mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgramRef {
    preds: (u32, u32),
    condition: (u32, u32),
    until: Option<(u32, u32)>,
    sensors: (u32, u32),
    states: (u32, u32),
    numerics: (u32, u32),
    clocks: (u32, u32),
    places: (u32, u32),
    channels: (u32, u32),
    helds: (u32, u32),
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
    sensor_col: Vec<SensorSlot>,
    state_col: Vec<SensorSlot>,
    /// Indexes of each rule's `NumCmp` predicates in the global table.
    num_col: Vec<u32>,
    /// Indexes of each rule's clock predicates in the global table.
    clock_col: Vec<u32>,
    place_col: Vec<PlaceSlot>,
    channel_col: Vec<ChannelSlot>,
    held_col: Vec<HeldKey>,
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
/// deadline fires.
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

    /// Appends a compiled program, rebasing its predicate indexes into the
    /// global tables and extracting its slot footprint. Places and
    /// channels are interned here — the caller passes the same (locked)
    /// interner the program was compiled against. Replaces any previous
    /// entry for the ordinal.
    pub fn insert(&mut self, ord: u32, program: &RuleProgram, interner: &mut Interner) {
        self.remove(ord);
        let pred_base = self.preds.len() as u32;
        for pred in program.preds() {
            self.preds.push(match pred {
                Pred::HeldFor {
                    inner,
                    duration,
                    fingerprint,
                } => Pred::HeldFor {
                    inner: inner + pred_base,
                    duration: *duration,
                    fingerprint: fingerprint.clone(),
                },
                other => other.clone(),
            });
        }
        let condition = self.append_code(program.condition(), pred_base);
        let until = program
            .until()
            .map(|code| self.append_code(code, pred_base));

        // Footprint extraction. The predicate span already contains every
        // `HeldFor` inner as its own entry, so a flat pass covers nested
        // subtrees too. This match is deliberately exhaustive: adding a
        // `Pred` variant must force a decision about how it is indexed.
        let sensors = self.sensor_col.len() as u32;
        let states = self.state_col.len() as u32;
        let numerics = self.num_col.len() as u32;
        let clocks = self.clock_col.len() as u32;
        let places = self.place_col.len() as u32;
        let channels = self.channel_col.len() as u32;
        let helds = self.held_col.len() as u32;
        let mut temporal = false;
        for index in pred_base as usize..self.preds.len() {
            match &self.preds[index] {
                Pred::NumCmp { slot, .. } => {
                    self.sensor_col.push(*slot);
                    self.num_col.push(index as u32);
                }
                Pred::StateEq { slot, .. } => {
                    self.sensor_col.push(*slot);
                    self.state_col.push(*slot);
                }
                Pred::PersonAt { place, .. } | Pred::SomebodyAt(place) | Pred::NobodyAt(place) => {
                    self.place_col.push(interner.place_slot(place));
                }
                Pred::Event(slot) => {
                    // The channel slot exists: `event_slot` interned it
                    // when the pattern itself was interned at compile time.
                    if let Some(channel) = interner.event_channel_of(*slot) {
                        self.channel_col.push(channel);
                    } else {
                        temporal = true;
                    }
                }
                Pred::TimeIn(_) | Pred::WeekdayIs(_) | Pred::DateIs(_) => {
                    self.clock_col.push(index as u32);
                }
                Pred::HeldFor { .. } => {
                    // Inner indexes were already rebased, so eligibility
                    // walks the global table.
                    let eligible = subtree_eligible(&self.preds, index as u32);
                    temporal |= !eligible;
                    self.held_col.push(HeldKey {
                        pred: index as u32,
                        eligible,
                    });
                }
            }
        }
        sort_dedup_tail(&mut self.sensor_col, sensors as usize);
        sort_dedup_tail(&mut self.state_col, states as usize);
        sort_dedup_tail(&mut self.place_col, places as usize);
        sort_dedup_tail(&mut self.channel_col, channels as usize);

        let r = ProgramRef {
            preds: (pred_base, self.preds.len() as u32),
            condition,
            until,
            sensors: (sensors, self.sensor_col.len() as u32),
            states: (states, self.state_col.len() as u32),
            numerics: (numerics, self.num_col.len() as u32),
            clocks: (clocks, self.clock_col.len() as u32),
            places: (places, self.place_col.len() as u32),
            channels: (channels, self.channel_col.len() as u32),
            helds: (helds, self.held_col.len() as u32),
            temporal,
        };
        self.set_ref(ord, r);
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

    fn append_code(&mut self, code: &[Op], pred_base: u32) -> (u32, u32) {
        let start = self.ops.len() as u32;
        // `And`/`Or` `end` offsets are local to the code span and stay
        // valid when the span is evaluated as a slice; only predicate
        // indexes are rebased to the global table.
        self.ops.extend(code.iter().map(|op| match op {
            Op::Pred(i) => Op::Pred(i + pred_base),
            other => *other,
        }));
        (start, self.ops.len() as u32)
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
            let pred_base = next.preds.len() as u32;
            let old_base = r.preds.0;
            for pred in &self.preds[r.preds.0 as usize..r.preds.1 as usize] {
                next.preds.push(match pred {
                    Pred::HeldFor {
                        inner,
                        duration,
                        fingerprint,
                    } => Pred::HeldFor {
                        inner: inner - old_base + pred_base,
                        duration: *duration,
                        fingerprint: fingerprint.clone(),
                    },
                    other => other.clone(),
                });
            }
            let rebase_code = |next: &mut ProgramArena, (s, e): (u32, u32)| {
                let start = next.ops.len() as u32;
                next.ops
                    .extend(self.ops[s as usize..e as usize].iter().map(|op| match op {
                        Op::Pred(i) => Op::Pred(i - old_base + pred_base),
                        other => *other,
                    }));
                (start, next.ops.len() as u32)
            };
            let condition = rebase_code(&mut next, r.condition);
            let until = r.until.map(|span| rebase_code(&mut next, span));
            let sensors = copy_col(&mut next.sensor_col, &self.sensor_col, r.sensors);
            let states = copy_col(&mut next.state_col, &self.state_col, r.states);
            let rebase = |col: &mut Vec<u32>, src: &[u32], (s, e): (u32, u32)| {
                let start = col.len() as u32;
                col.extend(
                    src[s as usize..e as usize]
                        .iter()
                        .map(|&i| i - old_base + pred_base),
                );
                (start, col.len() as u32)
            };
            let numerics = rebase(&mut next.num_col, &self.num_col, r.numerics);
            let clocks = rebase(&mut next.clock_col, &self.clock_col, r.clocks);
            let places = copy_col(&mut next.place_col, &self.place_col, r.places);
            let channels = copy_col(&mut next.channel_col, &self.channel_col, r.channels);
            let helds_start = next.held_col.len() as u32;
            next.held_col.extend(
                self.held_col[r.helds.0 as usize..r.helds.1 as usize]
                    .iter()
                    .map(|k| HeldKey {
                        pred: k.pred - old_base + pred_base,
                        eligible: k.eligible,
                    }),
            );
            let r = ProgramRef {
                preds: (pred_base, next.preds.len() as u32),
                condition,
                until,
                sensors,
                states,
                numerics,
                clocks,
                places,
                channels,
                helds: (helds_start, next.held_col.len() as u32),
                temporal: r.temporal,
            };
            next.set_ref(ord as u32, r);
        }
        *self = next;
    }

    /// The span record of the program stored under a rule ordinal.
    pub fn program_ref(&self, ord: u32) -> Option<&ProgramRef> {
        self.refs.get(ord as usize)?.as_ref()
    }

    /// The sensor slots a rule's condition and `until` read (sorted,
    /// deduplicated).
    pub fn sensor_slots(&self, r: &ProgramRef) -> &[SensorSlot] {
        &self.sensor_col[r.sensors.0 as usize..r.sensors.1 as usize]
    }

    /// The sensor slots a rule reads through state comparisons
    /// ([`Pred::StateEq`]; sorted, deduplicated).
    pub fn state_slots(&self, r: &ProgramRef) -> &[SensorSlot] {
        &self.state_col[r.states.0 as usize..r.states.1 as usize]
    }

    /// The rule's numeric comparisons, one per [`Pred::NumCmp`] in its
    /// condition and `until` clause (in predicate order; may repeat).
    pub fn numeric_thresholds<'a>(
        &'a self,
        r: &ProgramRef,
    ) -> impl Iterator<Item = NumThreshold> + 'a {
        self.num_col[r.numerics.0 as usize..r.numerics.1 as usize]
            .iter()
            .map(|&i| match &self.preds[i as usize] {
                Pred::NumCmp {
                    slot,
                    op,
                    threshold,
                    dim,
                } => NumThreshold {
                    slot: *slot,
                    op: *op,
                    dim: *dim,
                    threshold: *threshold,
                },
                other => unreachable!("numeric column points at {other:?}"),
            })
    }

    /// The rule's clock and calendar predicates, in predicate order.
    pub fn clock_preds<'a>(&'a self, r: &ProgramRef) -> impl Iterator<Item = ClockPred> + 'a {
        self.clock_col[r.clocks.0 as usize..r.clocks.1 as usize]
            .iter()
            .map(|&i| match &self.preds[i as usize] {
                Pred::TimeIn(window) => ClockPred::TimeIn(*window),
                Pred::WeekdayIs(day) => ClockPred::WeekdayIs(*day),
                Pred::DateIs(date) => ClockPred::DateIs(*date),
                other => unreachable!("clock column points at {other:?}"),
            })
    }

    /// The place slots a rule's presence predicates read.
    pub fn place_slots(&self, r: &ProgramRef) -> &[PlaceSlot] {
        &self.place_col[r.places.0 as usize..r.places.1 as usize]
    }

    /// The channel slots a rule's event predicates listen on.
    pub fn channel_slots(&self, r: &ProgramRef) -> &[ChannelSlot] {
        &self.channel_col[r.channels.0 as usize..r.channels.1 as usize]
    }

    /// The rule's `held for` predicates.
    pub fn held_keys(&self, r: &ProgramRef) -> &[HeldKey] {
        &self.held_col[r.helds.0 as usize..r.helds.1 as usize]
    }

    /// The fingerprint and duration of a [`HeldKey`].
    ///
    /// # Panics
    ///
    /// Panics when the key does not point at a `HeldFor` predicate (keys
    /// are only produced by the arena itself, so this cannot happen for
    /// keys obtained from [`ProgramArena::held_keys`]).
    pub fn held_fingerprint(&self, key: HeldKey) -> (&str, SimDuration) {
        match &self.preds[key.pred as usize] {
            Pred::HeldFor {
                duration,
                fingerprint,
                ..
            } => (fingerprint, *duration),
            other => panic!("held key points at {other:?}"),
        }
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

/// Copies one rule's span of a footprint column during compaction.
fn copy_col<T: Copy>(col: &mut Vec<T>, src: &[T], (s, e): (u32, u32)) -> (u32, u32) {
    let start = col.len() as u32;
    col.extend_from_slice(&src[s as usize..e as usize]);
    (start, col.len() as u32)
}

/// Sorts and deduplicates the tail of a column appended since `start`.
fn sort_dedup_tail<T: Ord + Copy>(col: &mut Vec<T>, start: usize) {
    let tail = &mut col[start..];
    tail.sort_unstable();
    let mut write = start;
    for read in start..col.len() {
        if write == start || col[write - 1] != col[read] {
            col[write] = col[read];
            write += 1;
        }
    }
    col.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_simplex::RelOp;
    use cadel_types::unit::Dimension;
    use cadel_types::{DeviceId, PlaceId, Rational, SensorKey, SimTime, TimeWindow, Value};
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
        // Rule 2: numeric + time window — temporal, different sensor,
        // with an until over the same sensor (footprint must include it).
        let p2 = RuleProgram::new(
            vec![
                num(slot_b.index() as u32),
                Pred::TimeIn(TimeWindow::new(
                    cadel_types::TimeOfDay::hm(6, 0).unwrap(),
                    cadel_types::TimeOfDay::hm(12, 0).unwrap(),
                )),
                num(slot_a.index() as u32),
            ],
            vec![Op::And { end: 3 }, Op::Pred(0), Op::Pred(1)],
            Some(vec![Op::Pred(2)]),
            Vec::new(),
        );

        let mut arena = ProgramArena::new();
        arena.insert(1, &p1, &mut interner);
        arena.insert(2, &p2, &mut interner);

        let r1 = *arena.program_ref(1).unwrap();
        assert!(!r1.temporal());
        assert_eq!(arena.sensor_slots(&r1), &[slot_a]);
        let keys = arena.held_keys(&r1).to_vec();
        assert_eq!(keys.len(), 2);
        assert!(keys.iter().all(|k| k.eligible));
        let fps: Vec<&str> = keys.iter().map(|&k| arena.held_fingerprint(k).0).collect();
        assert_eq!(fps, ["leaf~1", "mid~2"]);

        let r2 = *arena.program_ref(2).unwrap();
        // A clock window is scheduled, not evaluated every step.
        assert!(!r2.temporal());
        assert_eq!(arena.sensor_slots(&r2), &[slot_a, slot_b]);
        assert!(arena.state_slots(&r2).is_empty());
        assert_eq!(
            arena.clock_preds(&r2).collect::<Vec<_>>(),
            [ClockPred::TimeIn(TimeWindow::new(
                cadel_types::TimeOfDay::hm(6, 0).unwrap(),
                cadel_types::TimeOfDay::hm(12, 0).unwrap(),
            ))]
        );
        let thresholds: Vec<SensorSlot> = arena.numeric_thresholds(&r2).map(|n| n.slot).collect();
        assert_eq!(thresholds, [slot_b, slot_a]);

        // Evaluating through the arena matches evaluating the program.
        let view = NullView;
        let mut h1 = MapHeld::default();
        let mut h2 = MapHeld::default();
        assert_eq!(
            arena.condition_holds(&r1, &view, &mut h1),
            crate::condition_holds(&p1, &view, &mut h2)
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
        let r = *arena.program_ref(7).unwrap();
        assert!(r.temporal());
        assert!(!arena.held_keys(&r)[0].eligible);
        let chan = interner.lookup_channel_normalized("chan").unwrap();
        assert_eq!(arena.channel_slots(&r), &[chan]);
    }

    #[test]
    fn remove_tombstones_and_compaction_preserves_spans() {
        let mut interner = Interner::new();
        let mut arena = ProgramArena::new();
        for ord in 0..8 {
            let program = presence_program("living room");
            arena.insert(ord, &program, &mut interner);
        }
        assert_eq!(arena.len(), 8);
        for ord in 0..7 {
            arena.remove(ord);
        }
        assert_eq!(arena.len(), 1);
        // The survivor still evaluates after compaction.
        let r = *arena.program_ref(7).unwrap();
        let mut h = MapHeld::default();
        assert!(arena.condition_holds(&r, &NullView, &mut h));
        assert_eq!(arena.place_slots(&r).len(), 1);
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
                ],
                vec![Op::And { end: 3 }, Op::Pred(0), Op::Pred(1)],
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
        let r = *arena.program_ref(7).unwrap();
        let thresholds: Vec<NumThreshold> = arena.numeric_thresholds(&r).collect();
        assert_eq!(
            thresholds,
            [NumThreshold {
                slot,
                op: RelOp::Ge,
                dim: Dimension::Temperature,
                threshold: Rational::from_integer(7),
            }]
        );
        assert_eq!(
            arena.clock_preds(&r).collect::<Vec<_>>(),
            [ClockPred::TimeIn(window)]
        );
    }
}
