//! The rule database: storage, per-device index, compiled programs, and
//! export.
//!
//! The home server's conflict check begins by "extract\[ing\] from the
//! database the set of rules which control the same device" (paper §4.4) —
//! that extraction is served by the [`RuleDb::rules_for_device`] index and
//! is the first timed phase of experiment E2.
//!
//! Each source [`Rule`] is lowered on registration, against a shared
//! [`Interner`](cadel_ir::Interner), to a
//! [`RuleProgram`](cadel_ir::RuleProgram). The program's predicates and
//! code go to the [`ProgramArena`], the only stored executable form of a
//! rule, and its conjunct systems stay beside the rule with a
//! monotonically increasing *revision* stamp. Lowering is total over
//! stored rules: a rule that does not compile is refused, so every stored
//! rule has an arena span. The engine evaluates the span instead of
//! re-walking the condition tree; the conflict graph shares the conjunct
//! systems and rebuilds a rule's node when its revision changes.
//!
//! Every insert, replace and removal is also written to a bounded *change
//! feed*: a reader keeps a [`ChangeCursor`] and asks
//! [`RuleDb::changes_since`] which ids changed after it, instead of
//! rescanning the whole database. The feed does not know its readers.
//!
//! Each stored rule also has a dense *ordinal*, and each device a rule
//! targets a dense *device slot*, so per-rule and per-device state
//! elsewhere (the program arena, the engine's trigger index and commit
//! state) lives in plain vectors. An insert takes a freed ordinal if
//! there is one, a removal frees it, and a replacement keeps it. A device
//! slot is never freed. Ordinals are a storage detail of one database:
//! they are never persisted and never decide an order, and a rebuilt
//! database may number the same rules differently.

use crate::compile::compile_rule;
use crate::error::RuleError;
use crate::rule::{Rule, RuleBuilder};
use cadel_ir::{CompiledConjunct, ProgramArena, ProgramRef, SharedInterner};
use cadel_obs::{LazyCounter, LazyHistogram, Stopwatch};
use cadel_types::{DeviceId, RuleId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lowerings attempted on storage (register, insert, replace).
static LOWERED: LazyCounter = LazyCounter::new("rule_lower_total");
/// Wall-clock latency of lowering one rule to its compiled program.
static LOWER_NS: LazyHistogram = LazyHistogram::new("rule_lower_duration_ns");

/// How many changes the feed keeps. A reader further behind than this
/// gets `None` from [`RuleDb::changes_since`] and rescans the database.
pub const CHANGE_LOG_CAPACITY: usize = 1024;

/// Revision stamps, process-wide: a `(id, revision)` pair names one
/// compiled artifact even across databases (a clone shares its stamps
/// with the original, a rebuilt database never reuses them).
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);
/// Feed identities, process-wide.
static NEXT_FEED: AtomicU64 = AtomicU64::new(1);

/// A position in one database's change feed: the database's identity and
/// the number of changes it had made when the cursor was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChangeCursor {
    feed: u64,
    version: u64,
}

/// The change feed: a version counter and the ids of the last
/// [`CHANGE_LOG_CAPACITY`] changes. Its identity is never copied: a
/// cloned database starts a feed of its own, so a cursor taken from one
/// database never reads another's log.
#[derive(Debug)]
struct ChangeFeed {
    identity: u64,
    version: u64,
    log: VecDeque<RuleId>,
}

impl Default for ChangeFeed {
    fn default() -> ChangeFeed {
        ChangeFeed {
            identity: NEXT_FEED.fetch_add(1, Ordering::Relaxed),
            version: 0,
            log: VecDeque::new(),
        }
    }
}

impl Clone for ChangeFeed {
    /// A fresh identity and an empty log: no cursor of the original
    /// matches the clone.
    fn clone(&self) -> ChangeFeed {
        ChangeFeed {
            version: self.version,
            ..ChangeFeed::default()
        }
    }
}

impl ChangeFeed {
    fn record(&mut self, id: RuleId) {
        if self.log.len() == CHANGE_LOG_CAPACITY {
            self.log.pop_front();
        }
        self.log.push_back(id);
        self.version += 1;
    }
}

/// A rule with its conjunct systems, revision stamp and ordinal; its
/// predicates and code are in the arena, under the ordinal.
#[derive(Clone, Debug)]
struct StoredRule {
    rule: Rule,
    revision: u64,
    conjuncts: Arc<[CompiledConjunct]>,
    ord: u32,
}

/// What a stored rule's ordinal says about it without touching the rule:
/// the facts the engine reads for every candidate it evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleEntry {
    /// The rule's id.
    pub id: RuleId,
    /// The slot of the device its action targets (see
    /// [`RuleDb::device_at`]).
    pub device: u32,
    /// Whether the rule is enabled.
    pub enabled: bool,
    /// Whether the rule has an `until` clause.
    pub until: bool,
}

/// A device slot: the device's name and the rules that target it.
#[derive(Clone, Debug)]
struct DeviceEntry {
    id: DeviceId,
    rules: BTreeSet<RuleId>,
}

/// An indexed store of compiled rules.
///
/// Cloning the database clones the rules but *shares* the interner: a clone
/// evaluates its programs against the same slot universe as the original.
/// It does not share the change feed: a clone gets an identity of its own.
///
/// # Example
///
/// ```
/// use cadel_rule::{RuleDb, Rule, ActionSpec, Verb, Condition};
/// use cadel_types::{DeviceId, PersonId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut db = RuleDb::new();
/// let id = db.register(
///     Rule::builder(PersonId::new("tom"))
///         .action(ActionSpec::new(DeviceId::new("stereo"), Verb::Play)),
/// )?;
/// assert_eq!(db.rules_for_device(&DeviceId::new("stereo")).len(), 1);
/// assert!(db.get(id).is_some());
/// assert!(db.conjuncts(id).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct RuleDb {
    rules: BTreeMap<RuleId, StoredRule>,
    /// Per ordinal: the stored rule's entry, `None` while the ordinal is
    /// free.
    entries: Vec<Option<RuleEntry>>,
    /// Freed ordinals, reused by later inserts.
    free: Vec<u32>,
    /// Device slots by device.
    by_device: HashMap<DeviceId, u32>,
    /// Per device slot: the device and the ids of the rules targeting it.
    devices: Vec<DeviceEntry>,
    next_id: RuleId,
    interner: SharedInterner,
    feed: ChangeFeed,
    /// Compiled programs in contiguous SoA layout, appended at compile
    /// time. The engine evaluates rules and indexes their footprints
    /// through the arena.
    arena: ProgramArena,
}

impl RuleDb {
    /// Creates an empty database.
    pub fn new() -> RuleDb {
        RuleDb::default()
    }

    /// Number of stored rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The interner compiled programs resolve their slots against. The
    /// engine's context store attaches to it to keep its dense boards in
    /// sync.
    pub fn interner(&self) -> &SharedInterner {
        &self.interner
    }

    /// Finalizes a builder under a freshly allocated id and stores the
    /// rule, compiling it to a program.
    ///
    /// # Errors
    ///
    /// Propagates [`RuleBuilder::build`] errors (over-complex condition,
    /// missing action) and returns [`RuleError::DimensionMismatch`] when
    /// the rule does not compile; nothing is stored then (the allocated
    /// id stays burned).
    pub fn register(&mut self, builder: RuleBuilder) -> Result<RuleId, RuleError> {
        let id = self.allocate_id();
        let rule = builder.build(id)?;
        self.store(rule)?;
        Ok(id)
    }

    /// Inserts an already-built rule, keeping its id (import path).
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::DuplicateRule`] if the id is taken and
    /// [`RuleError::DimensionMismatch`] when the rule does not compile;
    /// nothing is stored on either error.
    pub fn insert(&mut self, rule: Rule) -> Result<(), RuleError> {
        if self.rules.contains_key(&rule.id()) {
            return Err(RuleError::DuplicateRule(rule.id()));
        }
        let id = rule.id();
        self.store(rule)?;
        if id >= self.next_id {
            self.next_id = id.next();
        }
        Ok(())
    }

    /// Replaces an existing rule in place (customization path), keeping
    /// its id. The replacement is compiled once and stamped with a
    /// **fresh revision**, so anything derived from the old
    /// `(id, revision)` pair — notably the conflict graph's node — is
    /// rebuilt.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::UnknownRule`] if no rule holds this id and
    /// [`RuleError::DimensionMismatch`] when the replacement does not
    /// compile; the incumbent stays in place on either error.
    pub fn replace(&mut self, rule: Rule) -> Result<(), RuleError> {
        if !self.rules.contains_key(&rule.id()) {
            return Err(RuleError::UnknownRule(rule.id()));
        }
        self.store(rule)
    }

    /// Compiles a rule, appends it to the arena and the indexes, and
    /// stores it under a fresh revision, displacing a stored rule with
    /// the same id and keeping its ordinal; the id goes to the change feed
    /// once. A rule that does not compile touches nothing: no interned
    /// name, index entry, ordinal or arena span, no displaced rule and no
    /// feed entry.
    fn store(&mut self, rule: Rule) -> Result<(), RuleError> {
        let sw = Stopwatch::start();
        LOWERED.inc();
        let interner = Arc::clone(&self.interner);
        let mut interner = interner.write().expect("interner lock poisoned");
        let program = compile_rule(&rule, &mut interner)?;
        let id = rule.id();
        let ord = match self.unstore(id) {
            Some((_, ord)) => ord,
            None => self.free.pop().unwrap_or_else(|| {
                self.entries.push(None);
                (self.entries.len() - 1) as u32
            }),
        };
        // Appended under the same lock the program was compiled under, so
        // the places the arena interns share the program's slot universe.
        self.arena.insert(ord, &program, &mut interner);
        drop(interner);
        LOWER_NS.record(&sw);
        let device = self.index(&rule);
        self.entries[ord as usize] = Some(RuleEntry {
            id,
            device,
            enabled: rule.is_enabled(),
            until: rule.until().is_some(),
        });
        let stored = StoredRule {
            rule,
            revision: NEXT_REVISION.fetch_add(1, Ordering::Relaxed),
            conjuncts: Arc::clone(program.conjuncts()),
            ord,
        };
        self.rules.insert(id, stored);
        self.feed.record(id);
        Ok(())
    }

    /// Allocates the next free rule id without storing anything.
    pub fn allocate_id(&mut self) -> RuleId {
        let id = self.next_id;
        self.next_id = self.next_id.next();
        id
    }

    /// The id the next allocation would hand out, without allocating.
    ///
    /// Persisted in snapshots so a recovered database resumes the same
    /// allocation sequence even when ids were burned on rejected rules.
    pub fn next_id(&self) -> RuleId {
        self.next_id
    }

    /// Advances the allocator so the next id is at least `at_least`.
    /// Never moves it backwards (restore path).
    pub fn ensure_next_id(&mut self, at_least: RuleId) {
        if at_least > self.next_id {
            self.next_id = at_least;
        }
    }

    /// Adds a rule to the device index, giving its device a slot on first
    /// use, and returns that slot.
    fn index(&mut self, rule: &Rule) -> u32 {
        let device = rule.action().device();
        let slot = match self.by_device.get(device) {
            Some(&slot) => slot,
            None => {
                let slot = self.devices.len() as u32;
                self.devices.push(DeviceEntry {
                    id: device.clone(),
                    rules: BTreeSet::new(),
                });
                self.by_device.insert(device.clone(), slot);
                slot
            }
        };
        self.devices[slot as usize].rules.insert(rule.id());
        slot
    }

    /// Removes a rule.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::UnknownRule`] if absent.
    pub fn remove(&mut self, id: RuleId) -> Result<Rule, RuleError> {
        let (rule, ord) = self.unstore(id).ok_or(RuleError::UnknownRule(id))?;
        self.free.push(ord);
        self.feed.record(id);
        Ok(rule)
    }

    /// Takes a rule out of the map, the arena and the indexes, without a
    /// feed entry, and returns it with its ordinal, which the caller
    /// either frees or reuses.
    fn unstore(&mut self, id: RuleId) -> Option<(Rule, u32)> {
        let StoredRule { rule, ord, .. } = self.rules.remove(&id)?;
        self.arena.remove(ord);
        if let Some(entry) = self.entries[ord as usize].take() {
            self.devices[entry.device as usize].rules.remove(&id);
        }
        Some((rule, ord))
    }

    /// The feed's current position. Passed to [`RuleDb::changes_since`]
    /// later, it yields the ids changed after this call.
    pub fn cursor(&self) -> ChangeCursor {
        ChangeCursor {
            feed: self.feed.identity,
            version: self.feed.version,
        }
    }

    /// The ids inserted, replaced or removed since `cursor`, oldest
    /// first; an id appears once per change. An empty iterator means the
    /// database is exactly as it was at `cursor`.
    ///
    /// Returns `None` when the log cannot answer: the cursor was taken
    /// from another database (a clone or a rebuilt one counts as
    /// another), or more than [`CHANGE_LOG_CAPACITY`] changes have
    /// happened since. The reader must then rescan the whole database.
    pub fn changes_since(&self, cursor: ChangeCursor) -> Option<impl Iterator<Item = RuleId> + '_> {
        let feed = &self.feed;
        if cursor.feed != feed.identity || cursor.version > feed.version {
            return None;
        }
        let behind = usize::try_from(feed.version - cursor.version).ok()?;
        let start = feed.log.len().checked_sub(behind)?;
        Some(feed.log.range(start..).copied())
    }

    /// Looks up a rule by id.
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id).map(|s| &s.rule)
    }

    /// The precompiled constraint system of each of a rule's DNF
    /// conjuncts, in DNF order; `None` only for an unknown id.
    pub fn conjuncts(&self, id: RuleId) -> Option<&Arc<[CompiledConjunct]>> {
        self.rules.get(&id).map(|s| &s.conjuncts)
    }

    /// The ordinal of a stored rule.
    pub fn ordinal(&self, id: RuleId) -> Option<u32> {
        self.rules.get(&id).map(|s| s.ord)
    }

    /// The entry of the rule stored under an ordinal; `None` for a free
    /// or never-assigned ordinal.
    pub fn entry(&self, ord: u32) -> Option<RuleEntry> {
        self.entries.get(ord as usize).copied().flatten()
    }

    /// One more than the highest ordinal ever assigned: every ordinal is
    /// below it, so a vector this long covers them all.
    pub fn ordinal_bound(&self) -> usize {
        self.entries.len()
    }

    /// Every stored rule's id and ordinal, in id order.
    pub fn ordinals(&self) -> impl Iterator<Item = (RuleId, u32)> + '_ {
        self.rules.iter().map(|(&id, s)| (id, s.ord))
    }

    /// The slot of a device that at least one stored rule targets.
    pub fn device_slot(&self, device: &DeviceId) -> Option<u32> {
        let slot = *self.by_device.get(device)?;
        (!self.devices[slot as usize].rules.is_empty()).then_some(slot)
    }

    /// The device a slot stands for.
    ///
    /// # Panics
    ///
    /// Panics when `slot` was never assigned; slots come from
    /// [`RuleEntry::device`] and [`RuleDb::device_slot`].
    pub fn device_at(&self, slot: u32) -> &DeviceId {
        &self.devices[slot as usize].id
    }

    /// Number of device slots ever assigned: every slot is below it. A
    /// slot stays assigned after its last rule is removed.
    pub fn device_slot_count(&self) -> usize {
        self.devices.len()
    }

    /// The arena holding every compiled program in contiguous SoA layout.
    pub fn arena(&self) -> &ProgramArena {
        &self.arena
    }

    /// A rule's span record in the arena; `None` only for an unknown id.
    /// Invalidated by the next database mutation.
    pub fn program_ref(&self, id: RuleId) -> Option<&ProgramRef> {
        self.arena.program_ref(self.ordinal(id)?)
    }

    /// The revision stamp of a rule: unique per stored artifact across the
    /// process, so a `(id, revision)` pair identifies a rule's exact
    /// compiled content (re-inserting after removal yields a new
    /// revision, and a clone shares its original's stamps).
    pub fn revision(&self, id: RuleId) -> Option<u64> {
        self.rules.get(&id).map(|s| s.revision)
    }

    /// Iterates over all rules in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.values().map(|s| &s.rule)
    }

    /// The rules whose action targets `device`, in id order — the
    /// extraction step of the paper's conflict check.
    pub fn rules_for_device(&self, device: &DeviceId) -> Vec<&Rule> {
        self.by_device
            .get(device)
            .map(|&slot| {
                self.devices[slot as usize]
                    .rules
                    .iter()
                    .filter_map(|id| self.rules.get(id).map(|s| &s.rule))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All devices that at least one rule targets.
    pub fn targeted_devices(&self) -> Vec<&DeviceId> {
        let mut devices: Vec<_> = self
            .devices
            .iter()
            .filter(|d| !d.rules.is_empty())
            .map(|d| &d.id)
            .collect();
        devices.sort();
        devices
    }

    /// Serializes all rules to pretty JSON (paper §4.3(iv): export).
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` is kept for API stability.
    pub fn export_json(&self) -> Result<String, RuleError> {
        Ok(crate::codec::rules_to_json(self.iter()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, ConstraintAtom, EventAtom};
    use crate::{ActionSpec, Condition, Verb};
    use cadel_ir::Pred;
    use cadel_simplex::RelOp;
    use cadel_types::{PersonId, Quantity, SensorKey, Unit};

    fn builder(owner: &str, device: &str, event: &str) -> RuleBuilder {
        Rule::builder(PersonId::new(owner))
            .condition(Condition::Atom(Atom::Event(EventAtom::new(
                "tv-guide", event,
            ))))
            .action(ActionSpec::new(DeviceId::new(device), Verb::TurnOn))
    }

    #[test]
    fn register_allocates_sequential_ids() {
        let mut db = RuleDb::new();
        let a = db.register(builder("tom", "stereo", "e1")).unwrap();
        let b = db.register(builder("alan", "tv", "e2")).unwrap();
        assert_eq!(a.raw() + 1, b.raw());
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn registration_compiles_a_program_and_interns_names() {
        let mut db = RuleDb::new();
        let id = db.register(builder("tom", "stereo", "jazz")).unwrap();
        let r = *db.program_ref(id).expect("compiled");
        assert_eq!(db.arena().preds(&r).len(), 1);
        assert_eq!(db.interner().read().unwrap().event_count(), 1);
        assert!(db.revision(id).is_some());
    }

    #[test]
    fn revisions_are_unique_per_artifact() {
        let mut db = RuleDb::new();
        let a = db.register(builder("tom", "tv", "a")).unwrap();
        let b = db.register(builder("tom", "tv", "b")).unwrap();
        assert_ne!(db.revision(a), db.revision(b));
        // Re-inserting after removal re-stamps.
        let r1 = db.revision(a).unwrap();
        let rule = db.remove(a).unwrap();
        db.insert(rule).unwrap();
        assert_ne!(db.revision(a), Some(r1));
    }

    /// One conjunct constraining the same sensor as °C and as %.
    fn clash_rule(owner: &str, device: &str) -> RuleBuilder {
        let key = SensorKey::new(DeviceId::new("multi"), "reading");
        let clash = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            key.clone(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        )))
        .and(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            key,
            RelOp::Lt,
            Quantity::from_integer(60, Unit::Percent),
        ))));
        Rule::builder(PersonId::new(owner))
            .condition(clash)
            .action(ActionSpec::new(DeviceId::new(device), Verb::TurnOn))
    }

    #[test]
    fn dimension_clash_is_refused_and_stores_nothing() {
        let mut db = RuleDb::new();
        db.register(builder("tom", "tv", "a")).unwrap();
        let tv = DeviceId::new("tv");
        let interned = db.interner().read().unwrap().sensor_count();

        let err = db.register(clash_rule("tom", "tv")).unwrap_err();
        assert!(matches!(err, RuleError::DimensionMismatch { .. }), "{err}");
        let err = db
            .insert(clash_rule("tom", "tv").build(RuleId::new(50)).unwrap())
            .unwrap_err();
        assert!(matches!(err, RuleError::DimensionMismatch { .. }), "{err}");

        assert_eq!(db.len(), 1);
        assert_eq!(db.rules_for_device(&tv).len(), 1);
        assert_eq!(db.arena().len(), 1);
        assert_eq!(db.interner().read().unwrap().sensor_count(), interned);
        // A refused import does not advance the id allocator either.
        assert!(db.next_id() < RuleId::new(50));
    }

    #[test]
    fn refused_replacement_keeps_the_incumbent() {
        let mut db = RuleDb::new();
        let id = db.register(builder("tom", "tv", "a")).unwrap();
        let revision = db.revision(id);
        let err = db
            .replace(clash_rule("tom", "tv").build(id).unwrap())
            .unwrap_err();
        assert!(matches!(err, RuleError::DimensionMismatch { .. }), "{err}");
        assert_eq!(db.revision(id), revision);
        assert!(db.program_ref(id).is_some());
        assert_eq!(db.rules_for_device(&DeviceId::new("tv")).len(), 1);
        assert_eq!(db.arena().len(), 1);
    }

    #[test]
    fn device_index_serves_extraction() {
        let mut db = RuleDb::new();
        for i in 0..10 {
            let device = if i % 3 == 0 { "tv" } else { "stereo" };
            db.register(builder("tom", device, &format!("e{i}")))
                .unwrap();
        }
        let tv_rules = db.rules_for_device(&DeviceId::new("tv"));
        assert_eq!(tv_rules.len(), 4);
        assert!(tv_rules
            .iter()
            .all(|r| r.action().device().as_str() == "tv"));
        assert!(db.rules_for_device(&DeviceId::new("toaster")).is_empty());
        assert_eq!(db.targeted_devices().len(), 2);
    }

    #[test]
    fn remove_updates_indices() {
        let mut db = RuleDb::new();
        let id = db.register(builder("tom", "tv", "a")).unwrap();
        db.register(builder("tom", "tv", "b")).unwrap();
        let removed = db.remove(id).unwrap();
        assert_eq!(removed.id(), id);
        assert_eq!(db.rules_for_device(&DeviceId::new("tv")).len(), 1);
        assert!(matches!(db.remove(id), Err(RuleError::UnknownRule(_))));
        assert!(db.conjuncts(id).is_none());
        assert!(db.program_ref(id).is_none());
        assert!(db.revision(id).is_none());
    }

    #[test]
    fn insert_rejects_duplicates_and_advances_ids() {
        let mut db = RuleDb::new();
        let rule = builder("tom", "tv", "a").build(RuleId::new(41)).unwrap();
        db.insert(rule.clone()).unwrap();
        assert!(matches!(db.insert(rule), Err(RuleError::DuplicateRule(_))));
        // Fresh registrations continue past the imported id.
        let next = db.register(builder("tom", "tv", "b")).unwrap();
        assert!(next.raw() > 41);
    }

    #[test]
    fn replace_bumps_the_revision_so_derived_state_rebuilds() {
        let mut db = RuleDb::new();
        let id = db.register(builder("tom", "tv", "a")).unwrap();
        let before = db.revision(id).unwrap();

        // Anything derived from (id, revision), such as a conflict-graph
        // node, is now stale: the replacement carries different behaviour
        // under the same id.
        let replacement = builder("tom", "tv", "b").build(id).unwrap();
        db.replace(replacement).unwrap();
        let after = db.revision(id).unwrap();
        assert_ne!(before, after, "replacement must re-stamp the revision");
        assert!(after > before);
        // Indices track the replacement, and it is recompiled.
        assert_eq!(db.rules_for_device(&DeviceId::new("tv")).len(), 1);
        assert!(db.program_ref(id).is_some());
        // Replacing a missing id is an error, not an insert.
        let ghost = builder("tom", "tv", "c").build(RuleId::new(77)).unwrap();
        assert!(matches!(db.replace(ghost), Err(RuleError::UnknownRule(_))));
    }

    #[test]
    fn next_id_survives_ensure_and_never_regresses() {
        let mut db = RuleDb::new();
        db.register(builder("tom", "tv", "a")).unwrap();
        let next = db.next_id();
        db.ensure_next_id(RuleId::new(100));
        assert_eq!(db.next_id(), RuleId::new(100));
        db.ensure_next_id(next); // lower: no-op
        assert_eq!(db.next_id(), RuleId::new(100));
        assert_eq!(db.allocate_id(), RuleId::new(100));
    }

    #[test]
    fn arena_tracks_insert_replace_remove() {
        let mut db = RuleDb::new();
        let a = db.register(builder("tom", "tv", "a")).unwrap();
        let b = db.register(builder("tom", "stereo", "b")).unwrap();
        assert_eq!(db.arena().len(), 2);
        assert!(db.program_ref(a).is_some());

        // The arena span holds the compiled predicate: one event pattern.
        let r = *db.program_ref(a).unwrap();
        assert!(matches!(db.arena().preds(&r), [Pred::Event(_)]));

        db.remove(a).unwrap();
        assert!(db.program_ref(a).is_none());
        assert_eq!(db.arena().len(), 1);

        // Replace rebuilds the span under the same id.
        let replacement = builder("tom", "stereo", "c").build(b).unwrap();
        db.replace(replacement).unwrap();
        assert!(db.program_ref(b).is_some());
        assert_eq!(db.arena().len(), 1);
    }

    #[test]
    fn ordinals_are_reused_after_removal_and_kept_by_a_replacement() {
        let mut db = RuleDb::new();
        let a = db.register(builder("tom", "tv", "a")).unwrap();
        let b = db.register(builder("tom", "stereo", "b")).unwrap();
        let (oa, ob) = (db.ordinal(a).unwrap(), db.ordinal(b).unwrap());
        assert_ne!(oa, ob);
        assert_eq!(db.ordinal_bound(), 2);
        let entry = db.entry(oa).unwrap();
        assert_eq!(entry.id, a);
        assert_eq!(db.device_at(entry.device), &DeviceId::new("tv"));
        assert!(entry.enabled && !entry.until);
        assert_eq!(db.entry(ob).map(|e| e.id), Some(b));

        // A replacement keeps the ordinal and refreshes the entry.
        let moved = builder("tom", "stereo", "c")
            .build(a)
            .unwrap()
            .with_enabled(false);
        db.replace(moved).unwrap();
        assert_eq!(db.ordinal(a), Some(oa));
        let entry = db.entry(oa).unwrap();
        assert_eq!(db.device_at(entry.device), &DeviceId::new("stereo"));
        assert!(!entry.enabled);
        // A refused store touches no ordinal.
        assert!(db.register(clash_rule("tom", "tv")).is_err());
        assert_eq!(db.ordinal_bound(), 2);

        // A removal frees the ordinal; the next insert takes it.
        db.remove(b).unwrap();
        assert_eq!(db.entry(ob), None);
        let c = db.register(builder("alan", "tv", "d")).unwrap();
        assert_eq!(db.ordinal(c), Some(ob));
        assert_eq!(db.ordinal_bound(), 2);
        let listed: Vec<(RuleId, u32)> = db.ordinals().collect();
        assert_eq!(listed, vec![(a, oa), (c, ob)]);
    }

    #[test]
    fn device_slots_are_assigned_once_and_answer_while_targeted() {
        let mut db = RuleDb::new();
        let a = db.register(builder("tom", "tv", "a")).unwrap();
        db.register(builder("tom", "stereo", "b")).unwrap();
        let tv = db.device_slot(&DeviceId::new("tv")).unwrap();
        let stereo = db.device_slot(&DeviceId::new("stereo")).unwrap();
        assert_ne!(tv, stereo);
        assert_eq!(db.device_slot_count(), 2);
        assert_eq!(db.device_slot(&DeviceId::new("toaster")), None);

        // The last rule leaving a device keeps its slot but stops the
        // lookup; a rule targeting it again gets the same slot.
        db.remove(a).unwrap();
        assert_eq!(db.device_slot(&DeviceId::new("tv")), None);
        assert_eq!(db.targeted_devices(), vec![&DeviceId::new("stereo")]);
        let again = db.register(builder("tom", "tv", "c")).unwrap();
        assert_eq!(db.entry(db.ordinal(again).unwrap()).unwrap().device, tv);
        assert_eq!(db.device_slot(&DeviceId::new("tv")), Some(tv));
        assert_eq!(db.device_slot_count(), 2);
    }

    #[test]
    fn export_import_round_trip() {
        let mut db = RuleDb::new();
        db.register(builder("tom", "stereo", "jazz")).unwrap();
        db.register(builder("emily", "tv", "movie")).unwrap();
        let json = db.export_json().unwrap();

        let mut restored = RuleDb::new();
        for rule in crate::codec::rules_from_json(&json).unwrap() {
            restored.insert(rule).unwrap();
        }
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.rules_for_device(&DeviceId::new("tv")).len(), 1);
        // Imported rules are compiled too.
        assert!(restored
            .iter()
            .all(|rule| restored.program_ref(rule.id()).is_some()));
        // Importing the same JSON again collides.
        for rule in crate::codec::rules_from_json(&json).unwrap() {
            assert!(matches!(
                restored.insert(rule),
                Err(RuleError::DuplicateRule(_))
            ));
        }
    }

    #[test]
    fn feed_lists_each_change_once_and_nothing_when_unchanged() {
        let mut db = RuleDb::new();
        let start = db.cursor();
        let a = db.register(builder("tom", "tv", "a")).unwrap();
        let b = db.register(builder("tom", "stereo", "b")).unwrap();
        let mid = db.cursor();
        db.replace(builder("tom", "tv", "c").build(a).unwrap())
            .unwrap();
        db.remove(b).unwrap();
        // A refused store and a refused removal log nothing.
        assert!(db.register(clash_rule("tom", "tv")).is_err());
        assert!(db.remove(b).is_err());
        let since = |c| db.changes_since(c).unwrap().collect::<Vec<_>>();
        assert_eq!(since(start), vec![a, b, a, b]);
        assert_eq!(since(mid), vec![a, b]);
        assert_eq!(since(db.cursor()), vec![]);
        // The allocator is not a change.
        let now = db.cursor();
        db.allocate_id();
        db.ensure_next_id(RuleId::new(90));
        assert_eq!(db.cursor(), now);
    }

    #[test]
    fn a_foreign_cursor_reads_nothing() {
        let mut db = RuleDb::new();
        db.register(builder("tom", "tv", "a")).unwrap();
        let mut other = RuleDb::new();
        other.register(builder("tom", "tv", "a")).unwrap();
        // Same history, same version: still another database.
        assert!(db.changes_since(other.cursor()).is_none());
        assert!(other.changes_since(db.cursor()).is_none());
    }

    #[test]
    fn a_clone_has_a_feed_of_its_own() {
        let mut db = RuleDb::new();
        let before = db.cursor();
        db.register(builder("tom", "tv", "a")).unwrap();
        let mut clone = db.clone();
        assert!(clone.changes_since(before).is_none());
        assert!(clone.changes_since(db.cursor()).is_none());
        assert!(db.changes_since(clone.cursor()).is_none());
        // Each side keeps its own log from there on, and the clone
        // shares the original's revision stamps.
        let id = db.iter().next().unwrap().id();
        assert_eq!(clone.revision(id), db.revision(id));
        let mark = clone.cursor();
        clone.remove(id).unwrap();
        assert_eq!(
            clone.changes_since(mark).unwrap().collect::<Vec<_>>(),
            vec![id]
        );
        assert_eq!(db.changes_since(before).unwrap().count(), 1);
    }

    #[test]
    fn an_overflowed_log_reads_nothing() {
        let mut db = RuleDb::new();
        let start = db.cursor();
        let id = db.register(builder("tom", "tv", "a")).unwrap();
        let one_in = db.cursor();
        for i in 0..CHANGE_LOG_CAPACITY - 1 {
            db.replace(builder("tom", "tv", &format!("e{i}")).build(id).unwrap())
                .unwrap();
        }
        // Exactly a full log back: still answerable.
        assert_eq!(
            db.changes_since(start).unwrap().count(),
            CHANGE_LOG_CAPACITY
        );
        db.remove(id).unwrap();
        assert!(db.changes_since(start).is_none());
        assert_eq!(
            db.changes_since(one_in).unwrap().count(),
            CHANGE_LOG_CAPACITY
        );
        assert_eq!(db.changes_since(db.cursor()).unwrap().count(), 0);
    }
}
