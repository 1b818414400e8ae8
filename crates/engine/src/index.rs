//! The trigger index: slot-keyed inverted indexes over the compiled
//! [`ProgramArena`](cadel_ir::ProgramArena), plus deadline heaps for
//! dwell windows, freshness expiry and clock predicates, so a step's
//! candidate set holds only the rules whose verdict could have changed
//! since the last step rather than every registered rule.
//!
//! Rules are addressed by the dense ordinals the rule database assigns
//! (a freed ordinal is reused, so churn does not grow the tables) and
//! posted on inverted lists keyed by interned
//! [`SensorSlot`]/[`PlaceSlot`]/[`ChannelSlot`]. A rule's footprint is
//! read in one pass over its arena predicates, which cover its condition
//! *and* its `until` clause, once when it is indexed and once when it is
//! unindexed. Candidate collection unions, into a reusable scratch
//! bitset:
//!
//! * for every sensor slot the [`ContextStore`] dirt log recorded since
//!   the last drain, the numeric comparisons whose truth differs between
//!   the reading the previous step saw and the current one — each
//!   threshold lies in the closed interval between the two, and the
//!   *crossing postings* (grouped by dimension, operator class and
//!   canonical threshold) find them with range scans — plus every rule
//!   comparing the slot by state; when either reading is not a usable
//!   number, every rule on the slot;
//! * the posting lists of every dirtied place and event channel;
//! * `held for` dwell deadlines that have come due (a window opening at
//!   `since` schedules `since + duration` on a min-heap; ineligible
//!   dwells — over events or clock windows — are temporal instead);
//! * freshness deadlines (`stamp + max_age + 1ms`) for stamped sensors
//!   under an active [`FreshnessPolicy`](crate::FreshnessPolicy), which
//!   mark every rule on the slot;
//! * clock deadlines: each rule with time-of-day, weekday or date
//!   predicates is scheduled at the next instant one of them can change
//!   truth, and re-armed from the step that finds it due;
//! * rules marked directly: a rule with an `until` clause when it
//!   acquires its device (its release is evaluated only while it holds
//!   it), and a rule whose last state a final dispatch failure reset;
//! * the always-on sets: `temporal` rules (ineligible dwells, events with
//!   no channel slot), `true` rules that read an event (a transient event
//!   expires without dirt), and `pending` enabled rules that have never
//!   committed a verdict.
//!
//! Every predicate kind changes truth only through one of these, and
//! conditions are monotone in their atoms, so a rule that is not a
//! candidate would re-evaluate to the verdict it last committed, with
//! the same dwell observations. Over-approximation is always safe, so
//! stale heap entries and freed ordinals are tolerated with lazy
//! deletion; under-approximation is never safe, so every mutation path
//! either posts dirt, arms a deadline or lands in an always-on set.

use crate::context::{ContextStore, SensorDirt};
use crate::eval::HeldTracker;
use cadel_ir::{ChannelSlot, ClockPred, PlaceSlot, Pred, SensorSlot};
use cadel_rule::RuleDb;
use cadel_simplex::RelOp;
use cadel_types::unit::Dimension;
use cadel_types::{Rational, RuleId, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::ops::Bound;

/// A candidate rule: its id, which decides the evaluation order, and its
/// ordinal in the rule database, which addresses its state.
pub(crate) type Candidate = (RuleId, u32);

/// One millisecond: freshness deadlines fire the step *after* the last
/// instant a reading is still fresh (`now - stamp <= max_age` is
/// inclusive).
const ONE_MS: SimDuration = SimDuration::from_millis(1);

/// The rules registered against one `held for` fingerprint, and the
/// dwell duration encoded in it.
#[derive(Clone, Debug)]
struct FpEntry {
    duration: SimDuration,
    /// Sorted ordinals of rules whose condition contains this dwell.
    rules: Vec<u32>,
}

/// Rule ordinals grouped by canonical threshold, in threshold order; a
/// rule appears once per comparison.
type Groups = BTreeMap<Rational, Vec<u32>>;

/// The numeric comparisons of one dimension on a sensor slot, split by
/// how their operator treats a reading equal to the threshold `c`. For
/// readings `v0` and `v1` of the dimension, `lo = min` and `hi = max`:
///
/// * `x > c` and `x <= c` differ between them iff `lo <= c < hi`;
/// * `x >= c` and `x < c` iff `lo < c <= hi`;
/// * `x = c` iff `v0 != v1` and `c` is one of them.
///
/// Every such `c` lies in the closed interval `[lo, hi]`, so a move
/// selects exactly the comparisons it flips with range scans.
#[derive(Debug)]
struct Crossings {
    dim: Dimension,
    /// `>` and `<=`.
    from_lo: Groups,
    /// `>=` and `<`.
    to_hi: Groups,
    /// `=`.
    at: Groups,
}

impl Crossings {
    fn groups(&mut self, op: RelOp) -> &mut Groups {
        match op {
            RelOp::Gt | RelOp::Le => &mut self.from_lo,
            RelOp::Ge | RelOp::Lt => &mut self.to_hi,
            RelOp::Eq => &mut self.at,
        }
    }

    fn is_empty(&self) -> bool {
        self.from_lo.is_empty() && self.to_hi.is_empty() && self.at.is_empty()
    }

    /// The groups a move between readings `lo <= hi` flips.
    fn crossed(&self, lo: Rational, hi: Rational) -> impl Iterator<Item = &Vec<u32>> {
        let moved = lo != hi;
        let from_lo = self.from_lo.range(lo..hi);
        let to_hi = self.to_hi.range((Bound::Excluded(lo), Bound::Included(hi)));
        let at = [lo, hi]
            .into_iter()
            .filter(move |_| moved)
            .filter_map(|v| self.at.get(&v));
        from_lo.chain(to_hi).map(|(_, group)| group).chain(at)
    }

    fn all(&self) -> impl Iterator<Item = &Vec<u32>> {
        self.from_lo
            .values()
            .chain(self.to_hi.values())
            .chain(self.at.values())
    }
}

/// The rules reading one sensor slot.
#[derive(Debug, Default)]
struct SlotPostings {
    /// Sorted ordinals of rules comparing the slot by state: any write
    /// may flip them.
    plain: Vec<u32>,
    /// Rules comparing the slot numerically, per dimension.
    crossings: Vec<Crossings>,
}

impl SlotPostings {
    fn is_empty(&self) -> bool {
        self.plain.is_empty() && self.crossings.is_empty()
    }
}

/// The scratch bitset over ordinals plus the list of set bits, reused
/// across steps so steady-state collection allocates nothing.
#[derive(Debug, Default)]
struct Marks {
    words: Vec<u64>,
    out: Vec<u32>,
}

impl Marks {
    /// Sets one live ordinal's bit, recording first-time sets on the
    /// drain list.
    fn mark(&mut self, live: &[bool], ord: u32) {
        if !live[ord as usize] {
            return;
        }
        let word = &mut self.words[(ord / 64) as usize];
        let bit = 1u64 << (ord % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.out.push(ord);
        }
    }

    fn mark_all(&mut self, live: &[bool], ords: impl IntoIterator<Item = u32>) {
        for ord in ords {
            self.mark(live, ord);
        }
    }

    /// Marks every rule reading a sensor slot.
    fn mark_slot(&mut self, live: &[bool], postings: &SlotPostings) {
        self.mark_all(live, postings.plain.iter().copied());
        for group in postings.crossings.iter().flat_map(Crossings::all) {
            self.mark_all(live, group.iter().copied());
        }
    }
}

/// Slot-keyed inverted indexes and deadline heaps mapping context
/// changes to the rules whose verdicts could have changed. See the module
/// docs for the candidate-set contract.
#[derive(Debug, Default)]
pub struct TriggerIndex {
    /// Per ordinal: whether a rule is indexed under it.
    live: Vec<bool>,
    /// Per ordinal: whether the rule listens on an event channel, so a
    /// true verdict can fall when a transient event expires.
    reads_event: Vec<bool>,
    /// Per sensor slot index.
    by_sensor: Vec<SlotPostings>,
    /// Sorted ordinal posting lists, indexed by slot index.
    by_place: Vec<Vec<u32>>,
    by_channel: Vec<Vec<u32>>,
    /// Rules that must be evaluated every step: ineligible dwells and
    /// events without a channel slot.
    temporal: BTreeSet<u32>,
    /// Rules that read an event and whose last committed verdict was
    /// `true`: transient-event expiry logs no dirt, so they stay
    /// candidates until they fall.
    true_set: BTreeSet<u32>,
    /// Enabled rules that have never committed a verdict (newly added,
    /// re-enabled, or restored without state).
    pending: BTreeSet<u32>,
    by_fingerprint: HashMap<String, FpEntry>,
    /// `(since + duration, ordinal)` dwell deadlines, lazy-deleted.
    held_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// `(stamp + max_age + 1ms, sensor slot index)` freshness expiry
    /// deadlines, lazy-deleted; empty while no policy is active.
    fresh_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// `(next clock change, ordinal)` deadlines; an entry is live only
    /// while it equals the ordinal's `clock_due`.
    clock_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    clock_due: Vec<Option<SimTime>>,
    marks: Marks,
}

impl TriggerIndex {
    /// Creates an empty index.
    pub fn new() -> TriggerIndex {
        TriggerIndex::default()
    }

    /// Indexes the rule `db` stores under `ord`. Posts its footprint on
    /// the inverted lists, registers its dwell fingerprints (arming
    /// deadlines for windows already open in `held`), arms its clock
    /// deadline and, when a policy is active, freshness deadlines for its
    /// already-stamped sensors. An enabled rule is marked pending so it is
    /// evaluated until its first committed verdict; a disabled one never
    /// commits, and is re-indexed when it is re-enabled.
    pub(crate) fn insert(&mut self, ord: u32, db: &RuleDb, ctx: &ContextStore, held: &HeldTracker) {
        let arena = db.arena();
        let (Some(entry), Some(r)) = (db.entry(ord), arena.program_ref(ord).copied()) else {
            // Not stored: nothing to index.
            return;
        };
        if self.live.get(ord as usize) == Some(&true) {
            // Callers deindex before replacing; tolerate a stray
            // re-insert by unposting the current footprint first.
            self.remove(ord, db);
        }
        self.cover(ord);
        self.live[ord as usize] = true;
        if entry.enabled {
            self.pending.insert(ord);
        }
        if r.temporal() {
            self.temporal.insert(ord);
        }
        let max_age = ctx.freshness_policy().max_age;
        let interner = db.interner().read().expect("interner lock poisoned");
        // Deliberately exhaustive: adding a `Pred` variant must force a
        // decision about how it is indexed. A rule that reads a slot,
        // place, channel or fingerprint twice is posted there once, since
        // sorted posting lists are idempotent, but gets one crossing entry
        // per comparison, and `remove` takes one per comparison. It may
        // push two equal freshness deadlines, which mark the same slot.
        for pred in arena.preds(&r) {
            // The sensor slot the predicate reads, for its freshness
            // deadline.
            let sensor = match pred {
                Pred::NumCmp {
                    slot,
                    op,
                    threshold,
                    dim,
                } => {
                    let crossings = &mut self.postings(*slot).crossings;
                    let at = match crossings.iter().position(|c| c.dim == *dim) {
                        Some(at) => at,
                        None => {
                            crossings.push(Crossings {
                                dim: *dim,
                                from_lo: Groups::new(),
                                to_hi: Groups::new(),
                                at: Groups::new(),
                            });
                            crossings.len() - 1
                        }
                    };
                    crossings[at]
                        .groups(*op)
                        .entry(*threshold)
                        .or_default()
                        .push(ord);
                    Some(*slot)
                }
                Pred::StateEq { slot, .. } => {
                    post(&mut self.postings(*slot).plain, ord);
                    Some(*slot)
                }
                Pred::PersonAt { place, .. } | Pred::SomebodyAt(place) | Pred::NobodyAt(place) => {
                    // The arena interned the place when it stored the rule.
                    if let Some(slot) = interner.lookup_place(place) {
                        post_at(&mut self.by_place, slot.index(), ord);
                    }
                    None
                }
                Pred::Event(slot) => {
                    // A pattern without a channel slot makes the rule
                    // temporal instead.
                    if let Some(channel) = interner.event_channel_of(*slot) {
                        post_at(&mut self.by_channel, channel.index(), ord);
                        self.reads_event[ord as usize] = true;
                    }
                    None
                }
                // Scheduled by `arm_clock` below.
                Pred::TimeIn(_) | Pred::WeekdayIs(_) | Pred::DateIs(_) => None,
                Pred::HeldFor {
                    duration,
                    fingerprint,
                    ..
                } => {
                    let entry = self
                        .by_fingerprint
                        .entry(fingerprint.to_string())
                        .or_insert_with(|| FpEntry {
                            duration: *duration,
                            rules: Vec::new(),
                        });
                    post(&mut entry.rules, ord);
                    // A dwell window may already be open (rule added after
                    // restore, or sharing a fingerprint with an existing
                    // rule).
                    if let Some(since) = held.held_since(fingerprint) {
                        self.held_heap.push(Reverse((since + *duration, ord)));
                    }
                    None
                }
            };
            if let (Some(slot), Some(max_age)) = (sensor, max_age) {
                if let Some(stamp) = ctx.sensor_stamp(slot) {
                    self.fresh_heap
                        .push(Reverse((stamp + max_age + ONE_MS, slot.index() as u32)));
                }
            }
        }
        self.arm_clock(ord, arena.clock_preds(&r), ctx);
    }

    /// Unposts the rule indexed under `ord`, predicate by predicate as
    /// [`TriggerIndex::insert`] posted it. Must be called while the rule
    /// (and its arena span) is still present in `db`. Stale heap entries
    /// for the ordinal are left behind: they are skipped while it is free,
    /// and mark its next rule once, which is harmless.
    pub(crate) fn remove(&mut self, ord: u32, db: &RuleDb) {
        if self.live.get(ord as usize) != Some(&true) {
            return;
        }
        self.live[ord as usize] = false;
        self.reads_event[ord as usize] = false;
        self.clock_due[ord as usize] = None;
        self.temporal.remove(&ord);
        self.true_set.remove(&ord);
        self.pending.remove(&ord);
        let arena = db.arena();
        let Some(r) = arena.program_ref(ord) else {
            return;
        };
        let interner = db.interner().read().expect("interner lock poisoned");
        // Exhaustive for the same reason as in `insert`.
        for pred in arena.preds(r) {
            match pred {
                Pred::NumCmp {
                    slot,
                    op,
                    threshold,
                    dim,
                } => {
                    let Some(postings) = self.by_sensor.get_mut(slot.index()) else {
                        continue;
                    };
                    let crossings = &mut postings.crossings;
                    let Some(at) = crossings.iter().position(|c| c.dim == *dim) else {
                        continue;
                    };
                    let groups = crossings[at].groups(*op);
                    if let Some(group) = groups.get_mut(threshold) {
                        if let Some(at) = group.iter().position(|&o| o == ord) {
                            group.swap_remove(at);
                        }
                        if group.is_empty() {
                            groups.remove(threshold);
                        }
                    }
                    if crossings[at].is_empty() {
                        crossings.swap_remove(at);
                    }
                }
                Pred::StateEq { slot, .. } => {
                    if let Some(postings) = self.by_sensor.get_mut(slot.index()) {
                        unpost(&mut postings.plain, ord);
                    }
                }
                Pred::PersonAt { place, .. } | Pred::SomebodyAt(place) | Pred::NobodyAt(place) => {
                    let slot = interner.lookup_place(place);
                    if let Some(list) = slot.and_then(|slot| self.by_place.get_mut(slot.index())) {
                        unpost(list, ord);
                    }
                }
                Pred::Event(slot) => {
                    let channel = interner.event_channel_of(*slot);
                    if let Some(list) = channel.and_then(|c| self.by_channel.get_mut(c.index())) {
                        unpost(list, ord);
                    }
                }
                Pred::TimeIn(_) | Pred::WeekdayIs(_) | Pred::DateIs(_) => {}
                Pred::HeldFor { fingerprint, .. } => {
                    if let Some(entry) = self.by_fingerprint.get_mut(&**fingerprint) {
                        unpost(&mut entry.rules, ord);
                        if entry.rules.is_empty() {
                            self.by_fingerprint.remove(&**fingerprint);
                        }
                    }
                }
            }
        }
    }

    /// Marks the rules a sensor slot's first write since the last drain
    /// may have flipped: the numeric comparisons the move from the
    /// previous step's reading to the current one flips (every rule on
    /// the slot when either reading is not a usable number), plus every
    /// state comparison on the slot. Arms the slot's freshness deadline
    /// when a staleness policy is active.
    pub(crate) fn note_sensor_dirt(&mut self, dirt: &SensorDirt, ctx: &ContextStore) {
        let Some(postings) = self.by_sensor.get(dirt.slot.index()) else {
            return;
        };
        if postings.is_empty() {
            // No listener now means no listener at expiry either: a rule
            // added later re-arms its own deadlines from the stamps.
            return;
        }
        let live = &self.live;
        match ctx.sensor_move(dirt) {
            Some((dim, lo, hi)) => {
                self.marks.mark_all(live, postings.plain.iter().copied());
                // Comparisons of another dimension are false on both
                // sides.
                for crossings in postings.crossings.iter().filter(|c| c.dim == dim) {
                    for group in crossings.crossed(lo, hi) {
                        self.marks.mark_all(live, group.iter().copied());
                    }
                }
            }
            None => self.marks.mark_slot(live, postings),
        }
        if let (Some(max_age), Some(stamp)) =
            (ctx.freshness_policy().max_age, ctx.sensor_stamp(dirt.slot))
        {
            self.fresh_heap.push(Reverse((
                stamp + max_age + ONE_MS,
                dirt.slot.index() as u32,
            )));
        }
    }

    /// Marks every rule with a presence predicate over a dirtied place.
    pub(crate) fn mark_place(&mut self, slot: PlaceSlot) {
        if let Some(list) = self.by_place.get(slot.index()) {
            self.marks.mark_all(&self.live, list.iter().copied());
        }
    }

    /// Marks every rule listening on a dirtied event channel.
    pub(crate) fn mark_channel(&mut self, slot: ChannelSlot) {
        if let Some(list) = self.by_channel.get(slot.index()) {
            self.marks.mark_all(&self.live, list.iter().copied());
        }
    }

    /// Marks one rule for the next collection.
    pub(crate) fn mark_rule(&mut self, ord: u32) {
        if self.live.get(ord as usize) == Some(&true) {
            self.marks.mark(&self.live, ord);
        }
    }

    /// Drains due deadlines (re-arming clock deadlines from `ctx`'s
    /// instant, which is `now`), unions the always-on sets into the
    /// scratch bitset, and writes the candidates into `out`, deduped and
    /// in ascending id order. Clears the scratch for the next step;
    /// `out`'s capacity is retained by the caller.
    pub(crate) fn collect_candidates(
        &mut self,
        now: SimTime,
        db: &RuleDb,
        ctx: &ContextStore,
        out: &mut Vec<Candidate>,
    ) {
        out.clear();
        while let Some(&Reverse((deadline, ord))) = self.held_heap.peek() {
            if deadline > now {
                break;
            }
            self.held_heap.pop();
            self.marks.mark(&self.live, ord);
        }
        while let Some(&Reverse((deadline, slot))) = self.fresh_heap.peek() {
            if deadline > now {
                break;
            }
            self.fresh_heap.pop();
            if let Some(postings) = self.by_sensor.get(slot as usize) {
                self.marks.mark_slot(&self.live, postings);
            }
        }
        while let Some(&Reverse((deadline, ord))) = self.clock_heap.peek() {
            if deadline > now {
                break;
            }
            self.clock_heap.pop();
            if self.clock_due[ord as usize] != Some(deadline) {
                continue;
            }
            self.marks.mark(&self.live, ord);
            if let Some(r) = db.arena().program_ref(ord).copied() {
                self.arm_clock(ord, db.arena().clock_preds(&r), ctx);
            }
        }
        for set in [&self.temporal, &self.true_set, &self.pending] {
            self.marks.mark_all(&self.live, set.iter().copied());
        }
        for &ord in &self.marks.out {
            if let Some(entry) = db.entry(ord).filter(|_| self.live[ord as usize]) {
                out.push((entry.id, ord));
            }
            self.marks.words[(ord / 64) as usize] &= !(1u64 << (ord % 64));
        }
        self.marks.out.clear();
        out.sort_unstable();
    }

    /// Records a committed edge or first verdict: the rule leaves
    /// `pending`, and enters or leaves the `true` set when it reads an
    /// event.
    pub(crate) fn on_committed(&mut self, ord: u32, now_true: bool) {
        if self.live.get(ord as usize) != Some(&true) {
            return;
        }
        self.pending.remove(&ord);
        if now_true && self.reads_event[ord as usize] {
            self.true_set.insert(ord);
        } else {
            self.true_set.remove(&ord);
        }
    }

    /// Records that dispatch finally failed and the engine reset the
    /// rule's last state to `false` so it can re-fire. The condition may
    /// still hold, in which case a full scan sees a fresh edge on the
    /// very next step — so the rule is marked for it.
    pub(crate) fn force_false(&mut self, ord: u32) {
        if self.live.get(ord as usize) == Some(&true) {
            self.true_set.remove(&ord);
            self.marks.mark(&self.live, ord);
        }
    }

    /// The ordinals of the rules whose condition contains a `held for`
    /// fingerprint, ascending; empty when no indexed rule reads it.
    pub(crate) fn fingerprint_rules(&self, fingerprint: &str) -> &[u32] {
        self.by_fingerprint
            .get(fingerprint)
            .map_or(&[], |entry| &entry.rules)
    }

    /// Observes a dwell window opening at `since`: arms `since + duration`
    /// for every rule sharing the fingerprint. A reset needs nothing —
    /// stale deadlines mark rules whose dwell then evaluates false, a
    /// harmless no-op.
    pub(crate) fn on_dwell_opened(&mut self, fingerprint: &str, since: SimTime) {
        if let Some(entry) = self.by_fingerprint.get(fingerprint) {
            let deadline = since + entry.duration;
            for &ord in &entry.rules {
                self.held_heap.push(Reverse((deadline, ord)));
            }
        }
    }

    /// Re-arms the freshness heap after the policy changed: old
    /// deadlines are dropped, every stamped sensor gets a deadline under
    /// the new `max_age`, and every rule is marked dirty once so
    /// verdicts flipped by the policy itself are re-evaluated.
    pub(crate) fn on_policy_changed(
        &mut self,
        stamped: &[(SensorSlot, SimTime)],
        max_age: Option<SimDuration>,
    ) {
        self.fresh_heap.clear();
        if let Some(max_age) = max_age {
            for &(slot, stamp) in stamped {
                self.fresh_heap
                    .push(Reverse((stamp + max_age + ONE_MS, slot.index() as u32)));
            }
        }
        self.mark_all();
    }

    /// Rebuilds all runtime-derived state after a snapshot import: dwell
    /// deadlines from the restored tracker, freshness deadlines from the
    /// restored stamps and policy, clock deadlines from the restored
    /// clock, `true`/`pending` membership from each ordinal's restored
    /// last verdict, and one full dirty sweep so the first step
    /// re-evaluates everything against the restored context.
    pub(crate) fn rearm_after_import(
        &mut self,
        db: &RuleDb,
        ctx: &ContextStore,
        held: &HeldTracker,
        verdict: impl Fn(u32) -> Option<bool>,
    ) {
        self.held_heap.clear();
        for (fingerprint, since) in held.entries() {
            if let Some(entry) = self.by_fingerprint.get(&fingerprint) {
                let deadline = since + entry.duration;
                for &ord in &entry.rules {
                    self.held_heap.push(Reverse((deadline, ord)));
                }
            }
        }
        self.fresh_heap.clear();
        if let Some(max_age) = ctx.freshness_policy().max_age {
            for (slot, stamp) in ctx.stamped_sensor_slots() {
                self.fresh_heap
                    .push(Reverse((stamp + max_age + ONE_MS, slot.index() as u32)));
            }
        }
        self.clock_heap.clear();
        self.true_set.clear();
        self.pending.clear();
        for ord in 0..self.live.len() as u32 {
            if !self.live[ord as usize] {
                continue;
            }
            if let Some(r) = db.arena().program_ref(ord).copied() {
                self.arm_clock(ord, db.arena().clock_preds(&r), ctx);
            }
            match verdict(ord) {
                Some(true) if self.reads_event[ord as usize] => {
                    self.true_set.insert(ord);
                }
                Some(_) => {}
                None => {
                    if db.entry(ord).is_some_and(|entry| entry.enabled) {
                        self.pending.insert(ord);
                    }
                }
            }
        }
        self.mark_all();
    }

    /// Schedules a rule at the next instant one of its clock predicates
    /// can change truth after `ctx`'s clock; no deadline when none can.
    fn arm_clock(&mut self, ord: u32, clocks: impl Iterator<Item = ClockPred>, ctx: &ContextStore) {
        let (now, weekday, date) = (ctx.now(), ctx.weekday(), ctx.date());
        let due = clocks
            .filter_map(|clock| clock.next_change_after(now, weekday, date))
            .min();
        self.clock_due[ord as usize] = due;
        if let Some(at) = due {
            self.clock_heap.push(Reverse((at, ord)));
        }
    }

    /// The postings of a sensor slot, growing the table to cover it.
    fn postings(&mut self, slot: SensorSlot) -> &mut SlotPostings {
        if self.by_sensor.len() <= slot.index() {
            self.by_sensor
                .resize_with(slot.index() + 1, SlotPostings::default);
        }
        &mut self.by_sensor[slot.index()]
    }

    /// Grows the per-ordinal columns and the scratch bitset to cover
    /// `ord`.
    fn cover(&mut self, ord: u32) {
        let len = ord as usize + 1;
        if self.live.len() < len {
            self.live.resize(len, false);
            self.reads_event.resize(len, false);
            self.clock_due.resize(len, None);
        }
        while self.marks.words.len() * 64 < len {
            self.marks.words.push(0);
        }
    }

    /// Marks every live rule dirty (policy changes, snapshot import).
    fn mark_all(&mut self) {
        self.marks.mark_all(&self.live, 0..self.live.len() as u32);
    }

    /// Structural view for churn tests: every posting, membership and
    /// fingerprint registration mapped back to rule ids, in sorted
    /// order. Runtime state (true/pending sets, heaps, scratch) is
    /// excluded — it depends on history, not structure.
    #[cfg(test)]
    fn structure(&self, db: &RuleDb) -> IndexStructure {
        let id_at = |ord: u32| db.entry(ord).expect("an indexed ordinal is stored").id;
        let ids = |ords: &[u32]| -> Vec<RuleId> {
            let mut ids: Vec<RuleId> = ords.iter().map(|&o| id_at(o)).collect();
            ids.sort_unstable();
            ids
        };
        let lists = |postings: &[Vec<u32>]| -> Vec<(usize, Vec<RuleId>)> {
            postings
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
                .map(|(slot, l)| (slot, ids(l)))
                .collect()
        };
        let mut crossings: Vec<(usize, String, Rational, RuleId)> = Vec::new();
        for (slot, postings) in self.by_sensor.iter().enumerate() {
            for c in &postings.crossings {
                for (kind, groups) in [("lo", &c.from_lo), ("hi", &c.to_hi), ("at", &c.at)] {
                    for (&threshold, group) in groups {
                        for &ord in group {
                            crossings.push((
                                slot,
                                format!("{:?} {kind}", c.dim),
                                threshold,
                                id_at(ord),
                            ));
                        }
                    }
                }
            }
        }
        crossings.sort();
        let plain: Vec<Vec<u32>> = self.by_sensor.iter().map(|p| p.plain.clone()).collect();
        let temporal_ords: Vec<u32> = self.temporal.iter().copied().collect();
        let mut fingerprints: Vec<(String, u64, Vec<RuleId>)> = self
            .by_fingerprint
            .iter()
            .map(|(fp, e)| (fp.clone(), e.duration.as_millis(), ids(&e.rules)))
            .collect();
        fingerprints.sort();
        let mut clocks: Vec<(RuleId, Option<SimTime>)> = (0..self.live.len() as u32)
            .filter(|&ord| self.live[ord as usize])
            .map(|ord| (id_at(ord), self.clock_due[ord as usize]))
            .collect();
        clocks.sort();
        IndexStructure {
            plain: lists(&plain),
            crossings,
            by_place: lists(&self.by_place),
            by_channel: lists(&self.by_channel),
            temporal: ids(&temporal_ords),
            fingerprints,
            clocks,
        }
    }
}

/// See [`TriggerIndex::structure`].
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
struct IndexStructure {
    plain: Vec<(usize, Vec<RuleId>)>,
    crossings: Vec<(usize, String, Rational, RuleId)>,
    by_place: Vec<(usize, Vec<RuleId>)>,
    by_channel: Vec<(usize, Vec<RuleId>)>,
    temporal: Vec<RuleId>,
    fingerprints: Vec<(String, u64, Vec<RuleId>)>,
    clocks: Vec<(RuleId, Option<SimTime>)>,
}

/// Inserts an ordinal into a sorted posting list.
fn post(list: &mut Vec<u32>, ord: u32) {
    if let Err(pos) = list.binary_search(&ord) {
        list.insert(pos, ord);
    }
}

/// Inserts an ordinal into a slot's sorted posting list, growing the
/// table to cover the slot.
fn post_at(lists: &mut Vec<Vec<u32>>, slot: usize, ord: u32) {
    if lists.len() <= slot {
        lists.resize_with(slot + 1, Vec::new);
    }
    post(&mut lists[slot], ord);
}

/// Removes an ordinal from a sorted posting list.
fn unpost(list: &mut Vec<u32>, ord: u32) {
    if let Ok(pos) = list.binary_search(&ord) {
        list.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FreshnessMode, FreshnessPolicy};
    use cadel_rule::{
        ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom, Rule, StateAtom,
        Subject, Verb,
    };
    use cadel_simplex::RelOp;
    use cadel_types::{
        Date, DeviceId, PersonId, PlaceId, Quantity, SensorKey, TimeOfDay, TimeWindow, Unit, Value,
    };

    fn mins(m: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_minutes(m)
    }

    fn rule_with(id: u64, condition: Condition) -> Rule {
        Rule::builder(PersonId::new("tom"))
            .condition(condition)
            .action(ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn))
            .build(RuleId::new(id))
            .unwrap()
    }

    fn thermo() -> SensorKey {
        SensorKey::new(DeviceId::new("thermo-lr"), "temperature")
    }

    fn cmp_atom(op: RelOp, threshold: i64) -> Atom {
        Atom::Constraint(ConstraintAtom::new(
            thermo(),
            op,
            Quantity::from_integer(threshold, Unit::Celsius),
        ))
    }

    fn temp_atom() -> Atom {
        cmp_atom(RelOp::Gt, 26)
    }

    struct Fixture {
        db: RuleDb,
        ctx: ContextStore,
        held: HeldTracker,
        index: TriggerIndex,
    }

    impl Fixture {
        fn new(rules: Vec<Rule>) -> Fixture {
            let mut db = RuleDb::new();
            let ctx =
                ContextStore::with_interner(Date::new(2005, 6, 6).unwrap(), db.interner().clone());
            let held = HeldTracker::new();
            let mut index = TriggerIndex::new();
            for rule in rules {
                let id = rule.id();
                db.insert(rule).unwrap();
                index.insert(db.ordinal(id).unwrap(), &db, &ctx, &held);
            }
            Fixture {
                db,
                ctx,
                held,
                index,
            }
        }

        /// Forwards the context's dirt log into the index, like the
        /// engine's candidate phase does, and collects at `now`.
        fn candidates(&mut self, now: SimTime) -> Vec<u64> {
            self.ctx.set_now(now);
            for dirt in self.ctx.dirty_sensors() {
                self.index.note_sensor_dirt(dirt, &self.ctx);
            }
            for &slot in self.ctx.dirty_places() {
                self.index.mark_place(slot);
            }
            for &slot in self.ctx.dirty_channels() {
                self.index.mark_channel(slot);
            }
            self.ctx.clear_dirt();
            let mut out = Vec::new();
            self.index
                .collect_candidates(now, &self.db, &self.ctx, &mut out);
            out.iter().map(|(id, _)| id.raw()).collect()
        }

        /// Commits a false first verdict for every rule.
        fn settle(&mut self) {
            let ords: Vec<u32> = self.db.ordinals().map(|(_, ord)| ord).collect();
            for ord in ords {
                self.index.on_committed(ord, false);
            }
        }

        /// The ordinal of a stored rule.
        fn ord(&self, id: u64) -> u32 {
            self.db.ordinal(RuleId::new(id)).unwrap()
        }

        fn write(&mut self, value: Value) {
            self.ctx.set_value(thermo(), value);
        }
    }

    fn celsius(v: i64) -> Value {
        Value::Number(Quantity::from_integer(v, Unit::Celsius))
    }

    const NONE: [u64; 0] = [];

    #[test]
    fn sensor_dirt_marks_only_listeners() {
        let r1 = rule_with(1, Condition::Atom(temp_atom()));
        let r2 = rule_with(
            2,
            Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new("lux-lr"), "illuminance"),
                RelOp::Lt,
                Quantity::from_integer(100, Unit::Lux),
            ))),
        );
        let mut f = Fixture::new(vec![r1, r2]);
        // Both are pending until their first committed verdict.
        assert_eq!(f.candidates(mins(0)), [1, 2]);
        f.settle();
        assert_eq!(f.candidates(mins(1)), NONE);

        f.write(celsius(28));
        assert_eq!(f.candidates(mins(2)), [1]);
    }

    #[test]
    fn crossing_postings_mark_exactly_the_flipped_comparisons() {
        // Two comparisons per threshold 10..=19 under rotating operators,
        // so moves onto, off and across a threshold exercise every tie.
        let ops = [RelOp::Gt, RelOp::Ge, RelOp::Lt, RelOp::Le, RelOp::Eq];
        let op = |k: u64| ops[k as usize % 5];
        let threshold = |k: u64| 10 + (k / 2) as i64;
        let rules = (0..20u64)
            .map(|k| rule_with(k, Condition::Atom(cmp_atom(op(k), threshold(k)))))
            .collect();
        let flipped = |v0: i64, v1: i64| -> Vec<u64> {
            let holds = |k: u64, v: i64| {
                op(k).holds(
                    Rational::from_integer(v),
                    Rational::from_integer(threshold(k)),
                )
            };
            (0..20).filter(|&k| holds(k, v0) != holds(k, v1)).collect()
        };
        let mut f = Fixture::new(rules);
        f.write(celsius(12));
        f.candidates(mins(0));
        f.settle();

        let mut v0 = 12;
        for (m, v1) in [15, 11, 11, 14, 14, 19, 10, 9, 20, 15, 16]
            .into_iter()
            .enumerate()
        {
            f.write(celsius(v1));
            assert_eq!(
                f.candidates(mins(m as u64 + 1)),
                flipped(v0, v1),
                "{v0} → {v1}"
            );
            v0 = v1;
        }
        // Several writes in one step: v0 is what the last step saw.
        f.write(celsius(19));
        f.write(celsius(13));
        assert_eq!(f.candidates(mins(20)), flipped(16, 13));
        // A Fahrenheit reading compares in canonical units: 59 °F = 15 °C.
        f.write(Value::Number(Quantity::from_integer(59, Unit::Fahrenheit)));
        assert_eq!(f.candidates(mins(21)), flipped(13, 15));
        // A reading of another dimension, or no number at all, marks
        // every rule on the slot, on the way in and on the way out.
        let all: Vec<u64> = (0..20).collect();
        f.write(Value::Number(Quantity::from_integer(50, Unit::Percent)));
        assert_eq!(f.candidates(mins(22)), all);
        f.write(celsius(15));
        assert_eq!(f.candidates(mins(23)), all);
        f.write(Value::Text("offline".into()));
        assert_eq!(f.candidates(mins(24)), all);
        f.write(celsius(15));
        assert_eq!(f.candidates(mins(25)), all);
        assert_eq!(f.candidates(mins(26)), NONE);
    }

    #[test]
    fn stale_readings_mark_the_whole_slot() {
        let rules = (0..4u64)
            .map(|k| rule_with(k, Condition::Atom(cmp_atom(RelOp::Gt, 10 * k as i64))))
            .collect();
        let mut f = Fixture::new(rules);
        f.write(celsius(5));
        f.candidates(mins(0));
        f.settle();
        // Fail-closed: a reading that went stale before this write was
        // seen as false, so the fresh write may flip every rule.
        f.ctx.set_freshness_policy(FreshnessPolicy::new(
            FreshnessMode::FailClosed,
            SimDuration::from_minutes(5),
        ));
        f.ctx.set_now(mins(20));
        f.write(celsius(6));
        assert_eq!(f.candidates(mins(20)), [0, 1, 2, 3]);
        // Fresh on both sides: only the crossed threshold.
        f.ctx.set_now(mins(21));
        f.write(celsius(12));
        assert_eq!(f.candidates(mins(21)), [1]);
        // Hold-last-value never overrides a reading, so a write over a
        // stale one marks crossings only. (The expiry deadline itself
        // still marks the slot once.)
        f.ctx.set_freshness_policy(FreshnessPolicy::new(
            FreshnessMode::HoldLastValue,
            SimDuration::from_minutes(5),
        ));
        assert_eq!(f.candidates(mins(30)), [0, 1, 2, 3]);
        f.ctx.set_now(mins(40));
        f.write(celsius(13));
        assert_eq!(f.candidates(mins(40)), NONE);
    }

    #[test]
    fn state_comparisons_ride_every_write() {
        let state = rule_with(
            1,
            Condition::Atom(Atom::State(StateAtom::new(
                DeviceId::new("thermo-lr"),
                "temperature",
                Value::Bool(true),
            ))),
        );
        let mut f = Fixture::new(vec![state, rule_with(2, Condition::Atom(temp_atom()))]);
        f.write(celsius(20));
        f.candidates(mins(0));
        f.settle();
        f.write(celsius(21));
        assert_eq!(f.candidates(mins(1)), [1]);
    }

    #[test]
    fn true_rules_stay_candidates_until_they_fall() {
        // A true rule over an event stays a candidate: the event's expiry
        // logs no dirt. A true rule over a reading does not.
        let event = rule_with(
            1,
            Condition::Atom(Atom::Event(EventAtom::new("door", "ding"))),
        );
        let mut f = Fixture::new(vec![event, rule_with(2, Condition::Atom(temp_atom()))]);
        let (one, two) = (f.ord(1), f.ord(2));
        f.index.on_committed(one, true);
        f.index.on_committed(two, true);
        assert_eq!(f.candidates(mins(1)), [1]);
        assert_eq!(f.candidates(mins(2)), [1]);
        f.index.on_committed(one, false);
        assert_eq!(f.candidates(mins(3)), NONE);
        // A final dispatch failure resets the last verdict to false while
        // the condition may still hold: a full scan sees a fresh edge on
        // the next step, so the rule is a candidate there.
        f.index.on_committed(two, true);
        f.index.force_false(two);
        assert_eq!(f.candidates(mins(4)), [2]);
        assert_eq!(f.candidates(mins(5)), NONE);
    }

    #[test]
    fn disabled_rules_are_never_pending() {
        let disabled = rule_with(1, Condition::Atom(temp_atom())).with_enabled(false);
        let mut f = Fixture::new(vec![disabled, rule_with(2, Condition::Atom(temp_atom()))]);
        assert_eq!(f.candidates(mins(0)), [2]);
        let two = f.ord(2);
        f.index.on_committed(two, false);
        assert_eq!(f.candidates(mins(1)), NONE);
    }

    #[test]
    fn place_and_channel_dirt_mark_their_rules() {
        let presence = rule_with(
            1,
            Condition::Atom(Atom::Presence(PresenceAtom::new(
                Subject::Somebody,
                PlaceId::new("living room"),
            ))),
        );
        let event = rule_with(
            2,
            Condition::Atom(Atom::Event(EventAtom::new("door", "ding"))),
        );
        let mut f = Fixture::new(vec![presence, event]);
        f.settle();

        let (place, channel) = {
            let interner = f.db.interner().read().unwrap();
            (
                interner.lookup_place(&PlaceId::new("living room")).unwrap(),
                interner.lookup_channel_normalized("door").unwrap(),
            )
        };
        f.index.mark_place(place);
        assert_eq!(f.candidates(mins(1)), [1]);
        f.index.mark_channel(channel);
        assert_eq!(f.candidates(mins(2)), [2]);
        assert_eq!(f.candidates(mins(3)), NONE);
    }

    #[test]
    fn dwell_deadline_fires_exactly_once() {
        let dwell = rule_with(
            1,
            Condition::Atom(Atom::held_for(temp_atom(), SimDuration::from_minutes(10))),
        );
        let mut f = Fixture::new(vec![dwell]);
        // Eligible dwell over a numeric read: not temporal.
        assert!(f.index.temporal.is_empty());
        f.settle();

        let fingerprint = f.index.by_fingerprint.keys().next().unwrap().clone();
        f.index.on_dwell_opened(&fingerprint, mins(5));
        assert_eq!(f.candidates(mins(14)), NONE);
        assert_eq!(f.candidates(mins(15)), [1]);
        assert_eq!(f.candidates(mins(16)), NONE);
        assert_eq!(f.candidates(mins(30)), NONE);
    }

    #[test]
    fn clock_deadlines_mark_rules_at_their_boundaries() {
        let window = |id, start: (u8, u8), end: (u8, u8)| {
            rule_with(
                id,
                Condition::Atom(Atom::Time(TimeWindow::new(
                    TimeOfDay::hm(start.0, start.1).unwrap(),
                    TimeOfDay::hm(end.0, end.1).unwrap(),
                ))),
            )
        };
        let tuesday = Atom::Weekday(cadel_types::Weekday::Tuesday);
        let mut f = Fixture::new(vec![
            window(1, (0, 10), (0, 20)),
            // Wraps midnight.
            window(2, (23, 50), (0, 5)),
            // All day: never due.
            window(3, (6, 0), (6, 0)),
            // The epoch is a Monday.
            rule_with(4, Condition::Atom(tuesday)),
        ]);
        // Clock predicates alone do not make a rule temporal.
        assert!(f.index.temporal.is_empty());
        assert_eq!(f.candidates(mins(0)), [1, 2, 3, 4]);
        f.settle();
        assert_eq!(f.candidates(mins(9)), [2]);
        // Exactly on a boundary, then 1 ms to either side of the next.
        assert_eq!(f.candidates(mins(10)), [1]);
        let ms =
            |t: SimTime, delta: i64| SimTime::from_millis((t.as_millis() as i64 + delta) as u64);
        assert_eq!(f.candidates(ms(mins(20), -1)), NONE);
        assert_eq!(f.candidates(ms(mins(20), 1)), [1]);
        // A jump across several boundaries marks once and re-arms from
        // the step that found it due.
        let day = 24 * 60;
        assert_eq!(f.candidates(mins(day + 15)), [1, 2, 4]);
        assert_eq!(f.candidates(mins(day + 19)), NONE);
        assert_eq!(f.candidates(mins(day + 20)), [1]);
        assert_eq!(f.candidates(mins(day + 23 * 60 + 50)), [2]);
        // Midnight ends Tuesday.
        assert_eq!(f.candidates(mins(2 * day)), [4]);
        assert_eq!(f.candidates(mins(2 * day + 5)), [2]);
    }

    #[test]
    fn freshness_deadline_replaces_the_full_scan() {
        let mut f = Fixture::new(vec![rule_with(1, Condition::Atom(temp_atom()))]);
        f.settle();
        f.ctx.set_freshness_policy(FreshnessPolicy::new(
            FreshnessMode::FailClosed,
            SimDuration::from_minutes(5),
        ));
        let stamped = f.ctx.stamped_sensor_slots();
        f.index
            .on_policy_changed(&stamped, f.ctx.freshness_policy().max_age);
        // Policy change marks everything once.
        assert_eq!(f.candidates(mins(0)), [1]);

        f.ctx.set_now(mins(1));
        f.write(celsius(28));
        assert_eq!(f.candidates(mins(1)), [1]);
        // Fresh through minute 6 (`max_age` is inclusive); the deadline
        // marks the rule once at 6:00:00.001, i.e. by minute 7.
        assert_eq!(f.candidates(mins(6)), NONE);
        assert_eq!(f.candidates(mins(7)), [1]);
        assert_eq!(f.candidates(mins(8)), NONE);
    }

    #[test]
    fn churned_index_matches_fresh_rebuild() {
        let tv_on = || {
            Atom::State(StateAtom::new(
                DeviceId::new("tv"),
                "power",
                Value::Bool(true),
            ))
        };
        let kitchen = |subject| {
            Condition::Atom(Atom::Presence(PresenceAtom::new(
                subject,
                PlaceId::new("kitchen"),
            )))
        };
        let door = |name| Condition::Atom(Atom::Event(EventAtom::new("door", name)));
        // Shapes 6 to 9 read one slot, place or channel twice, so removal
        // must unpost every posting a rule made, not only its first.
        let mk = |id: u64| match id % 10 {
            0 => rule_with(id, Condition::Atom(cmp_atom(RelOp::Ge, id as i64))),
            1 => rule_with(
                id,
                Condition::Atom(Atom::Presence(PresenceAtom::new(
                    Subject::Somebody,
                    PlaceId::new("kitchen"),
                ))),
            ),
            2 => rule_with(
                id,
                Condition::Atom(Atom::Event(EventAtom::new("door", "ding"))),
            ),
            3 => rule_with(
                id,
                Condition::Atom(Atom::State(StateAtom::new(
                    DeviceId::new("tv"),
                    "power",
                    Value::Bool(true),
                ))),
            ),
            4 => rule_with(
                id,
                Condition::Atom(Atom::Time(TimeWindow::new(
                    TimeOfDay::hm(6, id as u8 % 60).unwrap(),
                    TimeOfDay::hm(9, 0).unwrap(),
                ))),
            ),
            5 => rule_with(
                id,
                Condition::Atom(Atom::held_for(temp_atom(), SimDuration::from_minutes(id))),
            ),
            6 => {
                let n = id as i64;
                rule_with(
                    id,
                    Condition::Atom(cmp_atom(RelOp::Ge, n))
                        .and(Condition::Atom(cmp_atom(RelOp::Lt, n + 5)))
                        .and(Condition::Atom(cmp_atom(RelOp::Ge, n))),
                )
            }
            7 => rule_with(
                id,
                Condition::Atom(tv_on()).and(Condition::Atom(Atom::held_for(
                    tv_on(),
                    SimDuration::from_minutes(id),
                ))),
            ),
            8 => rule_with(id, kitchen(Subject::Somebody).or(kitchen(Subject::Nobody))),
            _ => rule_with(id, door("ding").or(door("dong"))),
        };
        let mut f = Fixture::new((0..36).map(mk).collect());
        // Deterministic churn: remove every third, re-add some fresh ids,
        // replace a few in place with a different condition shape.
        for id in (0..36u64).step_by(3) {
            let ord = f.ord(id);
            f.index.remove(ord, &f.db);
            f.db.remove(RuleId::new(id)).unwrap();
        }
        for id in (0..36u64).step_by(6) {
            let rule = mk(id + 1000);
            let rid = rule.id();
            f.db.insert(rule).unwrap();
            // The database hands a freed ordinal to the newcomer.
            let ord = f.ord(rid.raw());
            assert!(ord < 36, "ordinal {ord} was not reused");
            f.index.insert(ord, &f.db, &f.ctx, &f.held);
        }
        for id in [1u64, 5, 7, 10] {
            let shape = mk(id + 2);
            let replacement = rule_with(id, shape.condition().clone());
            let ord = f.ord(id);
            f.index.remove(ord, &f.db);
            f.db.replace(replacement).unwrap();
            assert_eq!(f.ord(id), ord, "a replacement keeps its ordinal");
            f.index.insert(ord, &f.db, &f.ctx, &f.held);
        }

        let mut rebuilt = TriggerIndex::new();
        let ords: Vec<u32> = f.db.ordinals().map(|(_, ord)| ord).collect();
        for ord in ords {
            rebuilt.insert(ord, &f.db, &f.ctx, &f.held);
        }
        assert_eq!(f.index.structure(&f.db), rebuilt.structure(&f.db));

        // Identical candidate sets for the same dirt (all rules are
        // still pending in both, so runtime state matches too).
        let place =
            f.db.interner()
                .read()
                .unwrap()
                .lookup_place(&PlaceId::new("kitchen"))
                .unwrap();
        f.index.mark_place(place);
        rebuilt.mark_place(place);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        f.index.collect_candidates(mins(1), &f.db, &f.ctx, &mut a);
        rebuilt.collect_candidates(mins(1), &f.db, &f.ctx, &mut b);
        assert_eq!(a, b);
    }
}
