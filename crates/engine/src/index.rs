//! The trigger index: slot-keyed inverted indexes over the compiled
//! [`ProgramArena`](cadel_ir::ProgramArena), plus deadline heaps for
//! dwell windows and freshness expiry, so a step's candidate set is
//! proportional to the *dirty set* — what actually changed since the
//! last step — rather than to the number of registered rules.
//!
//! Rules are mapped to dense ordinals (with a free-list so churn does
//! not grow the tables) and posted on sorted inverted lists keyed by
//! interned [`SensorSlot`]/[`PlaceSlot`]/[`ChannelSlot`] — the same
//! slots the arena extracted from each rule's condition *and* `until`
//! footprint. Candidate collection unions, into a reusable scratch
//! bitset:
//!
//! * the posting lists of every slot the [`ContextStore`] dirt log
//!   recorded since the last drain;
//! * `held for` dwell deadlines that have come due (a tracker
//!   transition to `Some(since)` schedules `since + duration` on a
//!   min-heap; ineligible dwells — over events or clock windows — are
//!   temporal instead);
//! * freshness deadlines (`stamp + max_age + 1ms`) for stamped sensors
//!   under an active [`FreshnessPolicy`](crate::FreshnessPolicy), so
//!   staleness no longer forces a full scan;
//! * the always-on sets: `temporal` rules (clock windows, event dwells),
//!   currently-`true` rules (falling edges, transient
//!   expiry and `until` releases), and `pending` rules that have never
//!   committed a verdict.
//!
//! Over-approximation is always safe — evaluating an unchanged rule
//! commits a no-op — so stale heap entries and freed ordinals are
//! tolerated with lazy deletion; under-approximation is never safe, so
//! every mutation path either posts dirt or lands in an always-on set.

use crate::context::ContextStore;
use crate::eval::HeldTracker;
use cadel_ir::{ChannelSlot, PlaceSlot, SensorSlot, SharedInterner};
use cadel_rule::RuleDb;
use cadel_types::{RuleId, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

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

/// Slot-keyed inverted indexes and deadline heaps mapping context dirt
/// to the rules whose verdicts could have changed. See the module docs
/// for the candidate-set contract.
#[derive(Debug)]
pub struct TriggerIndex {
    interner: SharedInterner,
    ord_of: HashMap<RuleId, u32>,
    id_of: Vec<RuleId>,
    live: Vec<bool>,
    free: Vec<u32>,
    /// Sorted ordinal posting lists, indexed by slot index.
    by_sensor: Vec<Vec<u32>>,
    by_place: Vec<Vec<u32>>,
    by_channel: Vec<Vec<u32>>,
    /// Rules that must be evaluated every step: clock/date windows and
    /// ineligible dwells.
    temporal: BTreeSet<u32>,
    /// Rules whose last committed verdict was `true` — falling edges
    /// (transient-event expiry, dwell resets, `until` releases) happen
    /// without new dirt, so these stay candidates until they fall.
    true_set: BTreeSet<u32>,
    /// Rules that have never committed a verdict (newly added, restored
    /// without state, or disabled — evaluation skips them so they never
    /// commit).
    pending: BTreeSet<u32>,
    by_fingerprint: HashMap<String, FpEntry>,
    /// `(since + duration, ordinal)` dwell deadlines, lazy-deleted.
    held_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// `(stamp + max_age + 1ms, sensor slot index)` freshness expiry
    /// deadlines, lazy-deleted; empty while no policy is active.
    fresh_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Scratch bitset over ordinals plus the list of set bits, reused
    /// across steps so steady-state collection allocates nothing.
    dirty_words: Vec<u64>,
    dirty_out: Vec<u32>,
}

impl TriggerIndex {
    /// Creates an empty index over the rule database's interner.
    pub fn new(interner: SharedInterner) -> TriggerIndex {
        TriggerIndex {
            interner,
            ord_of: HashMap::new(),
            id_of: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            by_sensor: Vec::new(),
            by_place: Vec::new(),
            by_channel: Vec::new(),
            temporal: BTreeSet::new(),
            true_set: BTreeSet::new(),
            pending: BTreeSet::new(),
            by_fingerprint: HashMap::new(),
            held_heap: BinaryHeap::new(),
            fresh_heap: BinaryHeap::new(),
            dirty_words: Vec::new(),
            dirty_out: Vec::new(),
        }
    }

    /// Number of indexed rules.
    pub fn len(&self) -> usize {
        self.ord_of.len()
    }

    /// Whether no rules are indexed.
    pub fn is_empty(&self) -> bool {
        self.ord_of.is_empty()
    }

    /// Indexes a rule already present in `db`. Posts its arena footprint
    /// on the inverted lists, registers its dwell fingerprints (arming
    /// deadlines for windows already open in `held`), arms freshness
    /// deadlines for its already-stamped sensors when a policy is
    /// active, and marks it pending so it is evaluated until its first
    /// committed verdict.
    pub(crate) fn insert(
        &mut self,
        id: RuleId,
        db: &RuleDb,
        ctx: &ContextStore,
        held: &HeldTracker,
    ) {
        if self.ord_of.contains_key(&id) {
            // Callers deindex before replacing; tolerate a stray
            // re-insert by unposting the current footprint first.
            self.remove(id, db);
        }
        let Some(r) = db.program_ref(id).copied() else {
            // Not stored: nothing to index.
            return;
        };
        let ord = self.alloc_ord(id);
        self.pending.insert(ord);
        let arena = db.arena();
        if r.temporal() {
            self.temporal.insert(ord);
        }
        for &slot in arena.sensor_slots(&r) {
            post(&mut self.by_sensor, slot.index(), ord);
        }
        for &slot in arena.place_slots(&r) {
            post(&mut self.by_place, slot.index(), ord);
        }
        for &slot in arena.channel_slots(&r) {
            post(&mut self.by_channel, slot.index(), ord);
        }
        for &key in arena.held_keys(&r) {
            let (fingerprint, duration) = arena.held_fingerprint(key);
            let entry = self
                .by_fingerprint
                .entry(fingerprint.to_owned())
                .or_insert_with(|| FpEntry {
                    duration,
                    rules: Vec::new(),
                });
            if let Err(pos) = entry.rules.binary_search(&ord) {
                entry.rules.insert(pos, ord);
            }
            // A dwell window may already be open (rule added after
            // restore, or sharing a fingerprint with an existing rule).
            if let Some(since) = held.held_since(fingerprint) {
                self.held_heap.push(Reverse((since + duration, ord)));
            }
        }
        if let Some(max_age) = ctx.freshness_policy().max_age {
            let interner = self.interner.read().expect("interner lock poisoned");
            for &slot in arena.sensor_slots(&r) {
                // Resolve the stamp through the string-keyed store: the
                // mirror boards may not have synced a newly-interned
                // slot yet.
                if let Some(key) = interner.sensor_key(slot) {
                    if let Some(stamp) = ctx.sensor_updated_at(key) {
                        self.fresh_heap
                            .push(Reverse((stamp + max_age + ONE_MS, slot.index() as u32)));
                    }
                }
            }
        }
    }

    /// Unposts a rule and frees its ordinal. Must be called while the
    /// rule (and its arena footprint) is still present in `db`. Stale
    /// heap entries for the freed ordinal are left behind and skipped
    /// lazily.
    pub(crate) fn remove(&mut self, id: RuleId, db: &RuleDb) {
        let Some(ord) = self.ord_of.remove(&id) else {
            return;
        };
        self.live[ord as usize] = false;
        self.temporal.remove(&ord);
        self.true_set.remove(&ord);
        self.pending.remove(&ord);
        if let Some(r) = db.program_ref(id).copied() {
            let arena = db.arena();
            for &slot in arena.sensor_slots(&r) {
                unpost(&mut self.by_sensor, slot.index(), ord);
            }
            for &slot in arena.place_slots(&r) {
                unpost(&mut self.by_place, slot.index(), ord);
            }
            for &slot in arena.channel_slots(&r) {
                unpost(&mut self.by_channel, slot.index(), ord);
            }
            for &key in arena.held_keys(&r) {
                let (fingerprint, _) = arena.held_fingerprint(key);
                let emptied = match self.by_fingerprint.get_mut(fingerprint) {
                    Some(entry) => {
                        if let Ok(pos) = entry.rules.binary_search(&ord) {
                            entry.rules.remove(pos);
                        }
                        entry.rules.is_empty()
                    }
                    None => false,
                };
                if emptied {
                    self.by_fingerprint.remove(fingerprint);
                }
            }
        }
        self.free.push(ord);
    }

    /// Marks every rule reading a dirtied sensor, and arms its freshness
    /// deadline when a staleness policy is active.
    pub(crate) fn note_sensor_dirt(
        &mut self,
        slot: SensorSlot,
        stamp: SimTime,
        max_age: Option<SimDuration>,
    ) {
        let has_listeners = match self.by_sensor.get(slot.index()) {
            Some(list) => {
                for &ord in list {
                    Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
                }
                !list.is_empty()
            }
            None => false,
        };
        // No listener now means no listener at expiry either: a rule
        // added later re-arms its own deadlines from the stamps.
        if has_listeners {
            if let Some(max_age) = max_age {
                self.fresh_heap
                    .push(Reverse((stamp + max_age + ONE_MS, slot.index() as u32)));
            }
        }
    }

    /// Marks every rule with a presence predicate over a dirtied place.
    pub(crate) fn mark_place(&mut self, slot: PlaceSlot) {
        if let Some(list) = self.by_place.get(slot.index()) {
            for &ord in list {
                Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
            }
        }
    }

    /// Marks every rule listening on a dirtied event channel.
    pub(crate) fn mark_channel(&mut self, slot: ChannelSlot) {
        if let Some(list) = self.by_channel.get(slot.index()) {
            for &ord in list {
                Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
            }
        }
    }

    /// Drains due deadlines, unions the always-on sets into the scratch
    /// bitset, and writes the candidate rule ids (ascending, deduped)
    /// into `out`. Clears the scratch for the next step; `out`'s
    /// capacity is retained by the caller.
    pub(crate) fn collect_candidates(&mut self, now: SimTime, out: &mut Vec<RuleId>) {
        out.clear();
        while let Some(&Reverse((deadline, ord))) = self.held_heap.peek() {
            if deadline > now {
                break;
            }
            self.held_heap.pop();
            Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
        }
        while let Some(&Reverse((deadline, slot))) = self.fresh_heap.peek() {
            if deadline > now {
                break;
            }
            self.fresh_heap.pop();
            if let Some(list) = self.by_sensor.get(slot as usize) {
                for &ord in list {
                    Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
                }
            }
        }
        for set in [&self.temporal, &self.true_set, &self.pending] {
            for &ord in set.iter() {
                Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
            }
        }
        for &ord in &self.dirty_out {
            if self.live[ord as usize] {
                out.push(self.id_of[ord as usize]);
            }
            self.dirty_words[(ord / 64) as usize] &= !(1u64 << (ord % 64));
        }
        self.dirty_out.clear();
        out.sort_unstable();
    }

    /// Records a committed verdict: the rule leaves `pending`, and
    /// enters or leaves the `true` set.
    pub(crate) fn on_committed(&mut self, id: RuleId, now_true: bool) {
        let Some(&ord) = self.ord_of.get(&id) else {
            return;
        };
        self.pending.remove(&ord);
        if now_true {
            self.true_set.insert(ord);
        } else {
            self.true_set.remove(&ord);
        }
    }

    /// Records that dispatch finally failed and the engine reset the
    /// rule's last state to `false` so it can re-fire. The condition may
    /// still hold, in which case a full scan sees a fresh edge on the
    /// very next step — so the rule must stay a candidate (pending)
    /// until its next commit settles it into `true_set` or out.
    pub(crate) fn force_false(&mut self, id: RuleId) {
        if let Some(&ord) = self.ord_of.get(&id) {
            if self.live[ord as usize] {
                self.true_set.remove(&ord);
                self.pending.insert(ord);
            }
        }
    }

    /// Observes a committed dwell-tracker transition. An opening window
    /// (`Some(since)`) arms `since + duration` for every rule sharing
    /// the fingerprint; a reset needs nothing — stale deadlines mark
    /// rules whose dwell then evaluates false, a harmless no-op.
    pub(crate) fn on_held_transition(&mut self, fingerprint: &str, change: Option<SimTime>) {
        let Some(since) = change else {
            return;
        };
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
    /// restored stamps and policy, `true`/`pending` membership from the
    /// restored last-state map, and one full dirty sweep so the first
    /// step re-evaluates everything against the restored context.
    pub(crate) fn rearm_after_import(
        &mut self,
        ctx: &ContextStore,
        held: &HeldTracker,
        last_state: &HashMap<RuleId, bool>,
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
        self.true_set.clear();
        self.pending.clear();
        for (id, &ord) in &self.ord_of {
            match last_state.get(id) {
                Some(true) => {
                    self.true_set.insert(ord);
                }
                Some(false) => {}
                None => {
                    self.pending.insert(ord);
                }
            }
        }
        self.mark_all();
    }

    /// Allocates a dense ordinal for a new rule, reusing freed slots.
    fn alloc_ord(&mut self, id: RuleId) -> u32 {
        let ord = match self.free.pop() {
            Some(ord) => {
                self.id_of[ord as usize] = id;
                self.live[ord as usize] = true;
                ord
            }
            None => {
                let ord = self.id_of.len() as u32;
                self.id_of.push(id);
                self.live.push(true);
                ord
            }
        };
        while self.dirty_words.len() * 64 <= ord as usize {
            self.dirty_words.push(0);
        }
        self.ord_of.insert(id, ord);
        ord
    }

    /// Marks every live rule dirty (policy changes, snapshot import).
    fn mark_all(&mut self) {
        for ord in 0..self.id_of.len() as u32 {
            Self::mark(&mut self.dirty_words, &mut self.dirty_out, &self.live, ord);
        }
    }

    /// Sets one ordinal's scratch bit, recording first-time sets on the
    /// drain list. Associated fn so callers can hold posting-list
    /// borrows of disjoint fields.
    fn mark(words: &mut [u64], out: &mut Vec<u32>, live: &[bool], ord: u32) {
        if !live[ord as usize] {
            return;
        }
        let word = &mut words[(ord / 64) as usize];
        let bit = 1u64 << (ord % 64);
        if *word & bit == 0 {
            *word |= bit;
            out.push(ord);
        }
    }

    /// Structural view for churn tests: every posting, membership and
    /// fingerprint registration mapped back to rule ids, in sorted
    /// order. Runtime state (true/pending sets, heaps, scratch) is
    /// excluded — it depends on history, not structure.
    #[cfg(test)]
    fn structure(&self) -> IndexStructure {
        let ids = |ords: &[u32]| -> Vec<RuleId> {
            let mut ids: Vec<RuleId> = ords.iter().map(|&o| self.id_of[o as usize]).collect();
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
        let temporal_ords: Vec<u32> = self.temporal.iter().copied().collect();
        let mut fingerprints: Vec<(String, u64, Vec<RuleId>)> = self
            .by_fingerprint
            .iter()
            .map(|(fp, e)| (fp.clone(), e.duration.as_millis(), ids(&e.rules)))
            .collect();
        fingerprints.sort();
        IndexStructure {
            by_sensor: lists(&self.by_sensor),
            by_place: lists(&self.by_place),
            by_channel: lists(&self.by_channel),
            temporal: ids(&temporal_ords),
            fingerprints,
        }
    }
}

/// See [`TriggerIndex::structure`].
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
struct IndexStructure {
    by_sensor: Vec<(usize, Vec<RuleId>)>,
    by_place: Vec<(usize, Vec<RuleId>)>,
    by_channel: Vec<(usize, Vec<RuleId>)>,
    temporal: Vec<RuleId>,
    fingerprints: Vec<(String, u64, Vec<RuleId>)>,
}

/// Inserts an ordinal into a slot's sorted posting list, growing the
/// table to cover the slot.
fn post(lists: &mut Vec<Vec<u32>>, slot: usize, ord: u32) {
    if lists.len() <= slot {
        lists.resize_with(slot + 1, Vec::new);
    }
    let list = &mut lists[slot];
    if let Err(pos) = list.binary_search(&ord) {
        list.insert(pos, ord);
    }
}

/// Removes an ordinal from a slot's posting list.
fn unpost(lists: &mut [Vec<u32>], slot: usize, ord: u32) {
    if let Some(list) = lists.get_mut(slot) {
        if let Ok(pos) = list.binary_search(&ord) {
            list.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FreshnessMode, FreshnessPolicy};
    use cadel_rule::{
        ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom, Rule, Subject, Verb,
    };
    use cadel_simplex::RelOp;
    use cadel_types::{Date, DeviceId, PersonId, PlaceId, Quantity, SensorKey, Unit, Value};

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

    fn temp_atom() -> Atom {
        Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        ))
    }

    fn setup(rules: Vec<Rule>) -> (RuleDb, ContextStore, HeldTracker, TriggerIndex) {
        let mut db = RuleDb::new();
        let mut ctx = ContextStore::new(Date::new(2005, 6, 6).unwrap());
        ctx.attach_interner(db.interner().clone());
        let held = HeldTracker::new();
        let mut index = TriggerIndex::new(db.interner().clone());
        for rule in rules {
            let id = rule.id();
            db.insert(rule).unwrap();
            index.insert(id, &db, &ctx, &held);
        }
        (db, ctx, held, index)
    }

    fn candidates(index: &mut TriggerIndex, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        index.collect_candidates(now, &mut out);
        out.iter().map(|id| id.raw()).collect()
    }

    /// Forwards the context's dirt log into the index, like the engine's
    /// candidate phase does.
    fn drain_dirt(index: &mut TriggerIndex, ctx: &mut ContextStore) {
        let max_age = ctx.freshness_policy().max_age;
        for &(slot, stamp) in ctx.dirty_sensors() {
            index.note_sensor_dirt(slot, stamp, max_age);
        }
        for &slot in ctx.dirty_places() {
            index.mark_place(slot);
        }
        for &slot in ctx.dirty_channels() {
            index.mark_channel(slot);
        }
        ctx.clear_dirt();
    }

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
        let (_db, mut ctx, _held, mut index) = setup(vec![r1, r2]);
        // Both are pending until their first committed verdict.
        assert_eq!(candidates(&mut index, mins(0)), [1, 2]);
        index.on_committed(RuleId::new(1), false);
        index.on_committed(RuleId::new(2), false);
        assert_eq!(candidates(&mut index, mins(1)), [] as [u64; 0]);

        ctx.set_now(mins(2));
        ctx.set_value(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            Value::Number(Quantity::from_integer(28, Unit::Celsius)),
        );
        drain_dirt(&mut index, &mut ctx);
        assert_eq!(candidates(&mut index, mins(2)), [1]);
    }

    #[test]
    fn true_rules_stay_candidates_until_they_fall() {
        let (_db, _ctx, _held, mut index) = setup(vec![rule_with(1, Condition::Atom(temp_atom()))]);
        index.on_committed(RuleId::new(1), true);
        assert_eq!(candidates(&mut index, mins(1)), [1]);
        assert_eq!(candidates(&mut index, mins(2)), [1]);
        index.on_committed(RuleId::new(1), false);
        assert_eq!(candidates(&mut index, mins(3)), [] as [u64; 0]);
        // A final dispatch failure resets last_state to false while the
        // condition may still hold: the rule keeps re-firing under a full
        // scan, so it must stay a candidate until its next commit.
        index.on_committed(RuleId::new(1), true);
        index.force_false(RuleId::new(1));
        assert_eq!(candidates(&mut index, mins(4)), [1]);
        assert_eq!(candidates(&mut index, mins(5)), [1]);
        index.on_committed(RuleId::new(1), false);
        assert_eq!(candidates(&mut index, mins(6)), [] as [u64; 0]);
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
        let (db, _ctx, _held, mut index) = setup(vec![presence, event]);
        index.on_committed(RuleId::new(1), false);
        index.on_committed(RuleId::new(2), false);

        let (place, channel) = {
            let interner = db.interner().read().unwrap();
            (
                interner.lookup_place(&PlaceId::new("living room")).unwrap(),
                interner.lookup_channel_normalized("door").unwrap(),
            )
        };
        index.mark_place(place);
        assert_eq!(candidates(&mut index, mins(1)), [1]);
        index.mark_channel(channel);
        assert_eq!(candidates(&mut index, mins(2)), [2]);
        assert_eq!(candidates(&mut index, mins(3)), [] as [u64; 0]);
    }

    #[test]
    fn dwell_deadline_fires_exactly_once() {
        let dwell = rule_with(
            1,
            Condition::Atom(Atom::held_for(temp_atom(), SimDuration::from_minutes(10))),
        );
        let (_db, _ctx, _held, mut index) = setup(vec![dwell]);
        // Eligible dwell over a numeric read: not temporal.
        assert!(index.temporal.is_empty());
        index.on_committed(RuleId::new(1), false);

        let fingerprint = index.by_fingerprint.keys().next().unwrap().clone();
        index.on_held_transition(&fingerprint, Some(mins(5)));
        assert_eq!(candidates(&mut index, mins(14)), [] as [u64; 0]);
        assert_eq!(candidates(&mut index, mins(15)), [1]);
        assert_eq!(candidates(&mut index, mins(16)), [] as [u64; 0]);
        // A reset arms nothing.
        index.on_held_transition(&fingerprint, None);
        assert_eq!(candidates(&mut index, mins(30)), [] as [u64; 0]);
    }

    #[test]
    fn freshness_deadline_replaces_the_full_scan() {
        let (_db, mut ctx, _held, mut index) =
            setup(vec![rule_with(1, Condition::Atom(temp_atom()))]);
        index.on_committed(RuleId::new(1), false);
        ctx.set_freshness_policy(FreshnessPolicy::new(
            FreshnessMode::FailClosed,
            SimDuration::from_minutes(5),
        ));
        index.on_policy_changed(&ctx.stamped_sensor_slots(), ctx.freshness_policy().max_age);
        // Policy change marks everything once.
        assert_eq!(candidates(&mut index, mins(0)), [1]);

        ctx.set_now(mins(1));
        ctx.set_value(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            Value::Number(Quantity::from_integer(28, Unit::Celsius)),
        );
        drain_dirt(&mut index, &mut ctx);
        assert_eq!(candidates(&mut index, mins(1)), [1]);
        // Fresh through minute 6 (`max_age` is inclusive); the deadline
        // marks the rule once at 6:00:00.001, i.e. by minute 7.
        assert_eq!(candidates(&mut index, mins(6)), [] as [u64; 0]);
        assert_eq!(candidates(&mut index, mins(7)), [1]);
        assert_eq!(candidates(&mut index, mins(8)), [] as [u64; 0]);
    }

    #[test]
    fn churned_index_matches_fresh_rebuild() {
        let mk = |id: u64| match id % 4 {
            0 => rule_with(id, Condition::Atom(temp_atom())),
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
            _ => rule_with(
                id,
                Condition::Atom(Atom::held_for(temp_atom(), SimDuration::from_minutes(id))),
            ),
        };
        let (mut db, ctx, held, mut index) = setup((0..24).map(mk).collect());
        // Deterministic churn: remove every third, re-add some fresh ids,
        // replace a few in place with a different condition shape.
        for id in (0..24u64).step_by(3) {
            index.remove(RuleId::new(id), &db);
            db.remove(RuleId::new(id)).unwrap();
        }
        for id in (0..24u64).step_by(6) {
            let rule = mk(id + 1000);
            let rid = rule.id();
            db.insert(rule).unwrap();
            index.insert(rid, &db, &ctx, &held);
        }
        for id in [1u64, 5, 7] {
            let shape = mk(id + 2);
            let replacement = rule_with(id, shape.condition().clone());
            index.remove(RuleId::new(id), &db);
            db.replace(replacement).unwrap();
            index.insert(RuleId::new(id), &db, &ctx, &held);
        }

        let mut rebuilt = TriggerIndex::new(db.interner().clone());
        let ids: Vec<RuleId> = db.iter().map(|r| r.id()).collect();
        for id in ids {
            rebuilt.insert(id, &db, &ctx, &held);
        }
        assert_eq!(index.structure(), rebuilt.structure());

        // Identical candidate sets for the same dirt (all rules are
        // still pending in both, so runtime state matches too).
        let place = db
            .interner()
            .read()
            .unwrap()
            .lookup_place(&PlaceId::new("kitchen"))
            .unwrap();
        index.mark_place(place);
        rebuilt.mark_place(place);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        index.collect_candidates(mins(1), &mut a);
        rebuilt.collect_candidates(mins(1), &mut b);
        assert_eq!(a, b);
    }
}
