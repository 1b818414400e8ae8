//! The context store: the engine's live picture of the home.
//!
//! Everything a rule condition can test is kept here, fed by UPnP
//! property-change events:
//!
//! * **Sensor/state values** — any property change is stored under its
//!   `(device, variable)` [`SensorKey`].
//! * **Presence** — changes of a presence reader's `occupants` variable
//!   (comma-separated person list) update who is at the reader's place.
//! * **Events** — changes of an `arrival` variable (`"<channel>|<name>"`)
//!   raise a *transient* event fact that stays active for a configurable
//!   window; changes of the TV guide's `on-air` variable maintain a
//!   *persistent* broadcast fact that lasts until the program ends.
//! * **Clock/calendar** — the current [`SimTime`] plus the weekday/date of
//!   day zero, so time-window, weekday and date atoms can be decided.
//!
//! Readings, their update stamps and event facts live on dense boards
//! indexed by the slots of a [`SharedInterner`]: the rule database's in an
//! engine, so a compiled program's slot read is an array index. A write
//! interns its name on first use; a lookup by name (the reference
//! interpreter's path) resolves the name through the interner and reads
//! the same board, so both evaluators see one store.
//!
//! Transient-event windows are **inclusive at both ends**: an event raised
//! at `t` with window `W` is active on every step whose clock satisfies
//! `t <= now <= t + W`, and expires strictly after `t + W`. This mirrors
//! the freshness rule (a reading aged exactly `max_age` is still fresh).
//!
//! Sensor values additionally carry the sim instant of their last update;
//! a configurable [`FreshnessPolicy`] decides how conjuncts over *stale*
//! readings evaluate (fail-closed, fail-open, or hold the last value).
//! Both evaluators — the compiled IR via [`ContextView::sensor_read`] and
//! the reference interpreter via [`ContextStore::sensor_read_key`] — share
//! one policy implementation, so their verdicts agree.

use cadel_ir::{
    ChannelSlot, ContextView, EventSlot, Interner, PlaceSlot, SensorRead, SensorSlot,
    SharedInterner,
};
use cadel_obs::{Event as ObsEvent, LazyCounter, Level};
use cadel_types::unit::Dimension;
use cadel_types::{
    Date, DeviceId, PersonId, PlaceId, Rational, SensorKey, SimDuration, SimTime, Value, Weekday,
};
use cadel_upnp::PropertyChange;
use std::collections::{BTreeSet, HashMap};
use std::sync::RwLockReadGuard;

static STALE_READS: LazyCounter = LazyCounter::new("engine_stale_reads_total");

/// Default lifetime of transient events ("Alan got home from work").
pub const DEFAULT_EVENT_WINDOW: SimDuration = SimDuration::from_minutes(10);

/// The variable name presence readers publish occupant lists on.
pub const OCCUPANTS_VARIABLE: &str = "occupants";
/// The variable name arrival announcements are published on.
pub const ARRIVAL_VARIABLE: &str = "arrival";
/// The variable name the TV guide publishes the current program on.
pub const ON_AIR_VARIABLE: &str = "on-air";
/// The event channel of broadcast programs.
pub const TV_GUIDE_CHANNEL: &str = "tv-guide";
/// The generic person-event channel ("someone returns home").
pub const ANY_PERSON_CHANNEL: &str = "person";

/// How a conjunct over a *stale* sensor reading evaluates.
///
/// Readings carry the sim timestamp of their last update; a
/// [`FreshnessPolicy`] with a `max_age` marks older readings stale and
/// this mode decides what evaluation does with them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FreshnessMode {
    /// Stale readings evaluate as if absent: the predicate is false.
    FailClosed,
    /// Stale readings force the predicate true.
    FailOpen,
    /// Stale readings keep their last value (the behavior with no
    /// staleness semantics at all).
    #[default]
    HoldLastValue,
}

impl std::fmt::Display for FreshnessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FreshnessMode::FailClosed => "fail-closed",
            FreshnessMode::FailOpen => "fail-open",
            FreshnessMode::HoldLastValue => "hold-last-value",
        })
    }
}

/// When a sensor reading counts as stale and what to do about it.
///
/// The default policy (`HoldLastValue`, no `max_age`) is exactly the
/// legacy behavior: readings never expire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreshnessPolicy {
    /// Degraded-evaluation mode for stale readings.
    pub mode: FreshnessMode,
    /// Maximum age before a reading counts as stale; `None` disables
    /// staleness entirely.
    pub max_age: Option<SimDuration>,
}

impl FreshnessPolicy {
    /// A policy marking readings older than `max_age` stale, degraded per
    /// `mode`.
    pub fn new(mode: FreshnessMode, max_age: SimDuration) -> FreshnessPolicy {
        FreshnessPolicy {
            mode,
            max_age: Some(max_age),
        }
    }
}

/// The first write to a sensor slot since the dirt log was last drained,
/// with what the slot held just before it: the reading the previous step
/// evaluated against. The trigger index compares it with the slot's
/// current reading to find the thresholds the reading crossed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SensorDirt {
    /// The slot written.
    pub slot: SensorSlot,
    /// The previous reading's dimension and canonical value, `None` when
    /// it was absent or not a number.
    pub prev: Option<(Dimension, Rational)>,
    /// The previous reading's update stamp.
    pub prev_stamp: Option<SimTime>,
}

/// One sensor slot's board entry.
#[derive(Clone, Debug, Default)]
struct SensorCell {
    /// The latest reading and the sim instant it was written (the
    /// staleness source).
    reading: Option<(Value, SimTime)>,
    /// Whether the dirt log already holds the slot's first write since
    /// the last drain.
    logged: bool,
}

/// One event slot's board entry.
#[derive(Clone, Copy, Debug, Default)]
struct EventCell {
    /// When the transient fact expires; compared against `now` at query
    /// time and cleared once the clock passes it.
    expiry: Option<SimTime>,
    /// Whether the persistent fact is set.
    persistent: bool,
}

/// The engine's view of current context.
#[derive(Clone, Debug)]
pub struct ContextStore {
    now: SimTime,
    epoch_date: Date,
    /// Names to board slots; every name this store was written under is
    /// interned here.
    interner: SharedInterner,
    /// Per sensor slot.
    sensors: Vec<SensorCell>,
    /// Per event slot, keyed by normalized (trimmed, lowercase) channel
    /// and name.
    events: Vec<EventCell>,
    /// The event slots whose transient expiry is set: what
    /// [`ContextStore::set_now`] sweeps, so its cost follows the live
    /// facts, not every name ever written.
    transient: Vec<EventSlot>,
    freshness: FreshnessPolicy,
    presence: HashMap<PersonId, PlaceId>,
    place_occupants: HashMap<PlaceId, BTreeSet<PersonId>>,
    device_places: HashMap<DeviceId, PlaceId>,
    event_window: SimDuration,
    /// Dirt log: slots mutated since the engine last drained it. Every
    /// mutator — property-change ingest *and* direct scenario writes like
    /// [`ContextStore::set_value`] or [`ContextStore::raise_event`] —
    /// records the slots it touched, so the trigger index never misses a
    /// change regardless of which door it came through. A place or
    /// channel the interner has no slot for produces no dirt: no rule
    /// mentions it. A sensor slot is logged once per drain, at its first
    /// write; place and channel entries may repeat (marking is
    /// idempotent).
    dirty_sensors: Vec<SensorDirt>,
    dirty_places: Vec<PlaceSlot>,
    dirty_channels: Vec<ChannelSlot>,
}

impl ContextStore {
    /// Creates a store whose simulation epoch (day 0) falls on
    /// `epoch_date`, over an interner of its own.
    pub fn new(epoch_date: Date) -> ContextStore {
        ContextStore::with_interner(epoch_date, SharedInterner::default())
    }

    /// Creates a store over a shared interner, so compiled programs
    /// lowered against it read this store's boards by slot. The engine
    /// passes its rule database's interner.
    pub fn with_interner(epoch_date: Date, interner: SharedInterner) -> ContextStore {
        ContextStore {
            now: SimTime::EPOCH,
            epoch_date,
            interner,
            sensors: Vec::new(),
            events: Vec::new(),
            transient: Vec::new(),
            freshness: FreshnessPolicy::default(),
            presence: HashMap::new(),
            place_occupants: HashMap::new(),
            device_places: HashMap::new(),
            event_window: DEFAULT_EVENT_WINDOW,
            dirty_sensors: Vec::new(),
            dirty_places: Vec::new(),
            dirty_channels: Vec::new(),
        }
    }

    fn names(&self) -> RwLockReadGuard<'_, Interner> {
        self.interner.read().expect("interner lock poisoned")
    }

    /// Writes a reading stamped `at`, logging the slot's previous reading
    /// on its first write since the last drain. The key is interned on
    /// its first write. A checkpoint import passes each reading's
    /// original stamp, so freshness verdicts survive a restart unchanged.
    pub(crate) fn write_sensor(&mut self, key: &SensorKey, value: Value, at: SimTime) {
        let known = self.names().lookup_sensor(key);
        let slot = known.unwrap_or_else(|| {
            let mut interner = self.interner.write().expect("interner lock poisoned");
            interner.sensor_slot(key)
        });
        let i = slot.index();
        if i >= self.sensors.len() {
            self.sensors.resize_with(i + 1, SensorCell::default);
        }
        let cell = &mut self.sensors[i];
        if !cell.logged {
            cell.logged = true;
            self.dirty_sensors.push(SensorDirt {
                slot,
                prev: numeric(cell.reading.as_ref().map(|(value, _)| value)),
                prev_stamp: cell.reading.as_ref().map(|(_, at)| *at),
            });
        }
        cell.reading = Some((value, at));
    }

    /// The slot of an event fact, interned on its first write, with a
    /// board entry. Inputs must be normalized (trimmed, lowercase).
    fn event_slot(&mut self, channel: &str, name: &str) -> EventSlot {
        let known = self.names().lookup_event_normalized(channel, name);
        let slot = known.unwrap_or_else(|| {
            let mut interner = self.interner.write().expect("interner lock poisoned");
            interner.event_slot(channel, name)
        });
        if slot.index() >= self.events.len() {
            self.events.resize(slot.index() + 1, EventCell::default());
        }
        slot
    }

    /// Logs dirt for a place whose occupancy (or a person's presence at
    /// it) changed.
    fn log_place_dirt(&mut self, place: &PlaceId) {
        let slot = self.names().lookup_place(place);
        self.dirty_places.extend(slot);
    }

    /// Logs dirt for an event channel. `channel` must already be
    /// normalized (trimmed, lowercase) — this is the alloc-free path.
    fn log_channel_dirt(&mut self, channel: &str) {
        let slot = self.names().lookup_channel_normalized(channel);
        self.dirty_channels.extend(slot);
    }

    /// Overrides the transient-event lifetime.
    pub fn set_event_window(&mut self, window: SimDuration) {
        self.event_window = window;
    }

    /// Registers where a device is installed (needed to map `occupants`
    /// updates to a place).
    pub fn set_device_place(&mut self, device: DeviceId, place: PlaceId) {
        self.device_places.insert(device, place);
    }

    /// Where a device is installed, when registered via
    /// [`ContextStore::set_device_place`].
    pub fn device_place(&self, device: &DeviceId) -> Option<&PlaceId> {
        self.device_places.get(device)
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock and expires transient events. An event whose
    /// window ends exactly at `now` is still active this step (inclusive
    /// boundary) and is dropped on the next advance past it.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
        let events = &mut self.events;
        self.transient.retain(|slot| {
            let cell = &mut events[slot.index()];
            let live = cell.expiry.is_some_and(|expiry| expiry >= now);
            if !live {
                cell.expiry = None;
            }
            live
        });
    }

    /// The weekday at the current instant.
    pub fn weekday(&self) -> Weekday {
        self.epoch_date.weekday().advance(self.now.day_index())
    }

    /// The calendar date at the current instant.
    pub fn date(&self) -> Date {
        self.epoch_date.advance(self.now.day_index())
    }

    /// The reading on a sensor slot with its update stamp.
    fn reading(&self, slot: SensorSlot) -> Option<&(Value, SimTime)> {
        self.sensors.get(slot.index())?.reading.as_ref()
    }

    /// The reading stored under a key, resolved through the interner.
    fn reading_of(&self, key: &SensorKey) -> Option<&(Value, SimTime)> {
        let slot = self.names().lookup_sensor(key)?;
        self.reading(slot)
    }

    /// The latest value of a sensor/state variable.
    pub fn value(&self, key: &SensorKey) -> Option<&Value> {
        self.reading_of(key).map(|(value, _)| value)
    }

    /// Directly stores a sensor/state value (scenario scripting and
    /// initial state snapshots), stamped with the current instant.
    pub fn set_value(&mut self, key: SensorKey, value: Value) {
        self.write_sensor(&key, value, self.now);
    }

    /// When a sensor value was last written, if it ever was.
    pub fn sensor_updated_at(&self, key: &SensorKey) -> Option<SimTime> {
        self.reading_of(key).map(|(_, at)| *at)
    }

    /// Sets the staleness policy for sensor reads.
    pub fn set_freshness_policy(&mut self, policy: FreshnessPolicy) {
        self.freshness = policy;
    }

    /// The active staleness policy.
    pub fn freshness_policy(&self) -> FreshnessPolicy {
        self.freshness
    }

    /// Whether a reading stamped `stamp` is stale right now under a policy
    /// that overrides stale readings (fail-closed or fail-open).
    fn forced_stale(&self, stamp: Option<SimTime>) -> bool {
        match self.freshness.max_age {
            Some(max_age) if self.freshness.mode != FreshnessMode::HoldLastValue => {
                stamp.is_none_or(|s| self.now.since(s) > max_age)
            }
            _ => false,
        }
    }

    /// The closed interval of canonical values a dirtied sensor slot's
    /// reading moved across since the previous step, with the dimension
    /// both ends share. `None` when either end is not a usable number:
    /// absent, not a number, of different dimensions, or stale under a
    /// fail-closed or fail-open policy. The previous end is judged stale
    /// at the current instant, which covers staleness at any earlier one.
    pub(crate) fn sensor_move(&self, dirt: &SensorDirt) -> Option<(Dimension, Rational, Rational)> {
        let (dim, v0) = dirt.prev?;
        let (value, stamp) = self.reading(dirt.slot)?;
        let (d1, v1) = numeric(Some(value))?;
        if d1 != dim || self.forced_stale(dirt.prev_stamp) || self.forced_stale(Some(*stamp)) {
            return None;
        }
        Some((dim, v0.min(v1), v0.max(v1)))
    }

    /// The update stamp of the reading on a sensor slot.
    pub(crate) fn sensor_stamp(&self, slot: SensorSlot) -> Option<SimTime> {
        self.reading(slot).map(|(_, at)| *at)
    }

    /// Applies the freshness policy to a reading and its update stamp.
    /// Shared by the slot-indexed ([`ContextView::sensor_read`]) and
    /// string-keyed ([`ContextStore::sensor_read_key`]) paths so compiled
    /// code and the reference interpreter agree.
    fn read_policy<'a>(&self, reading: Option<&'a (Value, SimTime)>) -> SensorRead<'a> {
        let Some((value, stamp)) = reading else {
            return SensorRead::AssumeFalse;
        };
        let Some(max_age) = self.freshness.max_age else {
            return SensorRead::Value(value);
        };
        if self.now.since(*stamp) <= max_age {
            return SensorRead::Value(value);
        }
        STALE_READS.inc();
        if cadel_obs::enabled() {
            cadel_obs::emit(
                ObsEvent::new("context.stale_read", Level::Debug)
                    .with_field("mode", self.freshness.mode.to_string())
                    .with_field("age_ms", self.now.since(*stamp).as_millis()),
            );
        }
        match self.freshness.mode {
            FreshnessMode::FailClosed => SensorRead::AssumeFalse,
            FreshnessMode::FailOpen => SensorRead::AssumeTrue,
            FreshnessMode::HoldLastValue => SensorRead::Value(value),
        }
    }

    /// The policy-mediated reading for a string-keyed sensor (the
    /// reference interpreter's entry point; mirrors
    /// [`ContextView::sensor_read`]).
    pub fn sensor_read_key(&self, key: &SensorKey) -> SensorRead<'_> {
        self.read_policy(self.reading_of(key))
    }

    /// Where a person currently is, if known.
    pub fn person_place(&self, person: &PersonId) -> Option<&PlaceId> {
        self.presence.get(person)
    }

    /// Who is currently at a place.
    pub fn occupants(&self, place: &PlaceId) -> Vec<&PersonId> {
        self.place_occupants
            .get(place)
            .map(|s| s.iter().collect())
            .unwrap_or_default()
    }

    /// Directly sets a person's location (`None` removes them).
    pub fn set_presence(&mut self, person: PersonId, place: Option<PlaceId>) {
        if let Some(previous) = self.presence.get(&person).cloned() {
            self.log_place_dirt(&previous);
            if let Some(set) = self.place_occupants.get_mut(&previous) {
                set.remove(&person);
            }
        }
        match place {
            Some(p) => {
                self.log_place_dirt(&p);
                self.place_occupants
                    .entry(p.clone())
                    .or_default()
                    .insert(person.clone());
                self.presence.insert(person, p);
            }
            None => {
                self.presence.remove(&person);
            }
        }
    }

    /// Raises a transient event, active until the event window elapses.
    pub fn raise_event(&mut self, channel: &str, name: &str) {
        let expiry = self.now + self.event_window;
        self.restore_transient_event(channel, name, expiry);
    }

    /// Sets a persistent event fact (active until cleared).
    pub fn set_persistent_event(&mut self, channel: &str, name: &str) {
        let (channel, name) = (normalize(channel), normalize(name));
        let slot = self.event_slot(&channel, &name);
        self.events[slot.index()].persistent = true;
        self.log_channel_dirt(&channel);
    }

    /// Clears every persistent event on a channel.
    pub fn clear_persistent_channel(&mut self, channel: &str) {
        let channel = normalize(channel);
        self.log_channel_dirt(&channel);
        let interner = self.interner.read().expect("interner lock poisoned");
        for slot in interner.channel_slots(&channel) {
            if let Some(cell) = self.events.get_mut(slot.index()) {
                cell.persistent = false;
            }
        }
    }

    /// Whether an event is currently active (case-insensitive). Transient
    /// events are active through the end of their window inclusive: raised
    /// at `t` with window `W`, the last active instant is exactly `t + W`.
    pub fn event_active(&self, channel: &str, name: &str) -> bool {
        let slot = self
            .names()
            .lookup_event_normalized(&normalize(channel), &normalize(name));
        slot.is_some_and(|slot| self.event_active_slot(slot))
    }

    /// Ingests a UPnP property change, applying the conventions described
    /// at the module level.
    pub fn apply_property_change(&mut self, change: &PropertyChange) {
        match change.variable.as_str() {
            OCCUPANTS_VARIABLE => {
                if let (Some(place), Some(list)) = (
                    self.device_places.get(&change.device).cloned(),
                    change.value.as_text(),
                ) {
                    let new_set: BTreeSet<PersonId> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(PersonId::new)
                        .collect();
                    let old_set = self
                        .place_occupants
                        .get(&place)
                        .cloned()
                        .unwrap_or_default();
                    // Departures below bypass `set_presence`, so dirty the
                    // reader's place here once up front.
                    self.log_place_dirt(&place);
                    for gone in old_set.difference(&new_set) {
                        if self.presence.get(gone) == Some(&place) {
                            self.presence.remove(gone);
                        }
                    }
                    for person in &new_set {
                        self.set_presence(person.clone(), Some(place.clone()));
                    }
                    self.place_occupants.insert(place, new_set);
                }
            }
            ARRIVAL_VARIABLE => {
                if let Some(payload) = change.value.as_text() {
                    if let Some((channel, name)) = payload.split_once('|') {
                        self.raise_event(channel, name);
                        // "someone returns home" listens on the generic
                        // person channel.
                        if channel.starts_with("person:") {
                            self.raise_event(ANY_PERSON_CHANNEL, name);
                        }
                    }
                }
            }
            ON_AIR_VARIABLE => {
                if let Some(listing) = change.value.as_text() {
                    self.clear_persistent_channel(TV_GUIDE_CHANNEL);
                    for program in listing.split(';') {
                        let program = program.trim();
                        if !program.is_empty() {
                            self.set_persistent_event(TV_GUIDE_CHANNEL, program);
                        }
                    }
                }
            }
            _ => {}
        }
        // Every change, including the special ones, is visible as a state
        // value (so "the TV is turned on" reads power(tv)), stamped with
        // the change's own timestamp for staleness tracking.
        let key = SensorKey::new(change.device.clone(), change.variable.clone());
        self.write_sensor(&key, change.value.clone(), change.at);
    }

    /// Sensor slots written since the last [`ContextStore::clear_dirt`],
    /// each once, with the reading it held before its first write.
    pub(crate) fn dirty_sensors(&self) -> &[SensorDirt] {
        &self.dirty_sensors
    }

    /// Places whose occupancy changed since the last clear.
    pub(crate) fn dirty_places(&self) -> &[PlaceSlot] {
        &self.dirty_places
    }

    /// Event channels with raised/cleared facts since the last clear.
    pub(crate) fn dirty_channels(&self) -> &[ChannelSlot] {
        &self.dirty_channels
    }

    /// Empties the dirt log (capacity is retained, so a steady-state step
    /// with no traffic performs no allocation).
    pub(crate) fn clear_dirt(&mut self) {
        for dirt in &self.dirty_sensors {
            self.sensors[dirt.slot.index()].logged = false;
        }
        self.dirty_sensors.clear();
        self.dirty_places.clear();
        self.dirty_channels.clear();
    }

    /// Every sensor slot that has a recorded update stamp. Used to
    /// rebuild the freshness deadline heap when the policy changes.
    pub(crate) fn stamped_sensor_slots(&self) -> Vec<(SensorSlot, SimTime)> {
        (0..self.sensors.len() as u32)
            .map(SensorSlot::new)
            .filter_map(|slot| Some((slot, self.sensor_stamp(slot)?)))
            .collect()
    }

    fn place_has_occupants(&self, place: &PlaceId) -> bool {
        self.place_occupants
            .get(place)
            .map(|s| !s.is_empty())
            .unwrap_or(false)
    }
}

/// The dimension and canonical value of a numeric reading.
fn numeric(value: Option<&Value>) -> Option<(Dimension, Rational)> {
    match value {
        Some(Value::Number(q)) => Some((q.dimension(), q.canonical_value())),
        _ => None,
    }
}

/// An event channel or name as facts are keyed: trimmed, ASCII-lowercased.
fn normalize(text: &str) -> String {
    text.trim().to_ascii_lowercase()
}

/// 2005-06-06, a Monday — the week of ICDCS 2005: day zero of a store
/// built without an explicit epoch.
pub(crate) fn default_epoch() -> Date {
    Date::new(2005, 6, 6).expect("static date is valid")
}

/// Slot-indexed reads for compiled-rule evaluation. Slots come from the
/// store's interner; one it never wrote reads as absent/inactive.
impl ContextView for ContextStore {
    fn sensor_value(&self, slot: SensorSlot) -> Option<&Value> {
        self.reading(slot).map(|(value, _)| value)
    }

    fn sensor_read(&self, slot: SensorSlot) -> SensorRead<'_> {
        self.read_policy(self.reading(slot))
    }

    fn event_active_slot(&self, slot: EventSlot) -> bool {
        self.events.get(slot.index()).is_some_and(|cell| {
            cell.persistent || cell.expiry.is_some_and(|expiry| expiry >= self.now)
        })
    }

    fn person_place(&self, person: &PersonId) -> Option<&PlaceId> {
        ContextStore::person_place(self, person)
    }

    fn place_occupied(&self, place: &PlaceId) -> bool {
        self.place_has_occupants(place)
    }

    fn now(&self) -> SimTime {
        ContextStore::now(self)
    }

    fn weekday(&self) -> Weekday {
        ContextStore::weekday(self)
    }

    fn date(&self) -> Date {
        ContextStore::date(self)
    }
}

impl Default for ContextStore {
    fn default() -> Self {
        ContextStore::new(default_epoch())
    }
}

/// Persistence support: deterministic iteration for checkpoint export and
/// stamp-preserving restore for replay. Crate-internal — the public
/// surface is `Engine::export_runtime_json`/`import_runtime_json`.
impl ContextStore {
    /// An empty store over the same interner, calendar and device places
    /// (which come from the world, not from a checkpoint): what a
    /// checkpoint import restores into before it replaces this store.
    pub(crate) fn emptied(&self) -> ContextStore {
        let mut staged = ContextStore::with_interner(self.epoch_date, self.interner.clone());
        staged.device_places = self.device_places.clone();
        staged
    }

    /// Every stored sensor value with its last-update stamp, sorted by
    /// key so checkpoint output is byte-stable.
    pub(crate) fn sensor_entries(&self) -> Vec<(SensorKey, Value, SimTime)> {
        let interner = self.names();
        let mut entries: Vec<_> = self
            .sensors
            .iter()
            .enumerate()
            .filter_map(|(i, cell)| {
                let (value, at) = cell.reading.as_ref()?;
                let key = interner.sensor_key(SensorSlot::new(i as u32))?;
                Some((key.clone(), value.clone(), *at))
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Every person with a known place, sorted by person.
    pub(crate) fn presence_entries(&self) -> Vec<(PersonId, PlaceId)> {
        let mut entries: Vec<_> = self
            .presence
            .iter()
            .map(|(person, place)| (person.clone(), place.clone()))
            .collect();
        entries.sort();
        entries
    }

    /// The event facts `keep` selects, as `(channel, name, cell)` sorted
    /// by channel and name.
    fn event_entries(&self, keep: impl Fn(&EventCell) -> bool) -> Vec<(String, String, EventCell)> {
        let interner = self.names();
        let mut entries: Vec<_> = self
            .events
            .iter()
            .enumerate()
            .filter(|(_, cell)| keep(cell))
            .filter_map(|(i, cell)| {
                let (channel, name) = interner.event_key(EventSlot::new(i as u32))?;
                Some((channel.to_owned(), name.to_owned(), *cell))
            })
            .collect();
        entries.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        entries
    }

    /// Transient events with their expiry instants, in fact order.
    pub(crate) fn transient_event_entries(&self) -> Vec<(String, String, SimTime)> {
        self.event_entries(|cell| cell.expiry.is_some())
            .into_iter()
            .filter_map(|(channel, name, cell)| Some((channel, name, cell.expiry?)))
            .collect()
    }

    /// Restores a transient event under its original expiry (unlike
    /// [`ContextStore::raise_event`], which restarts the event window).
    pub(crate) fn restore_transient_event(&mut self, channel: &str, name: &str, expiry: SimTime) {
        let (channel, name) = (normalize(channel), normalize(name));
        let slot = self.event_slot(&channel, &name);
        if self.events[slot.index()].expiry.replace(expiry).is_none() {
            self.transient.push(slot);
        }
        self.log_channel_dirt(&channel);
    }

    /// Active persistent events, in fact order.
    pub(crate) fn persistent_event_entries(&self) -> Vec<(String, String)> {
        self.event_entries(|cell| cell.persistent)
            .into_iter()
            .map(|(channel, name, _)| (channel, name))
            .collect()
    }

    /// The transient-event window currently in force.
    pub(crate) fn event_window(&self) -> SimDuration {
        self.event_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::{Quantity, Unit};

    fn change(device: &str, variable: &str, value: Value) -> PropertyChange {
        PropertyChange {
            device: DeviceId::new(device),
            variable: variable.to_owned(),
            value,
            seq: 0,
            at: SimTime::EPOCH,
        }
    }

    #[test]
    fn sensor_values_are_stored() {
        let mut ctx = ContextStore::default();
        ctx.apply_property_change(&change(
            "thermo",
            "temperature",
            Value::Number(Quantity::from_integer(27, Unit::Celsius)),
        ));
        let key = SensorKey::new(DeviceId::new("thermo"), "temperature");
        assert_eq!(
            ctx.value(&key),
            Some(&Value::Number(Quantity::from_integer(27, Unit::Celsius)))
        );
        assert!(ctx
            .value(&SensorKey::new(DeviceId::new("x"), "y"))
            .is_none());
    }

    #[test]
    fn occupants_update_presence() {
        let mut ctx = ContextStore::default();
        ctx.set_device_place(DeviceId::new("rfid-lr"), PlaceId::new("living room"));
        ctx.apply_property_change(&change("rfid-lr", "occupants", Value::from("tom")));
        assert_eq!(
            ctx.person_place(&PersonId::new("tom")),
            Some(&PlaceId::new("living room"))
        );
        ctx.apply_property_change(&change("rfid-lr", "occupants", Value::from("alan,tom")));
        assert_eq!(ctx.occupants(&PlaceId::new("living room")).len(), 2);
        // Tom leaves.
        ctx.apply_property_change(&change("rfid-lr", "occupants", Value::from("alan")));
        assert_eq!(ctx.person_place(&PersonId::new("tom")), None);
        assert_eq!(
            ctx.person_place(&PersonId::new("alan")),
            Some(&PlaceId::new("living room"))
        );
    }

    #[test]
    fn moving_between_places_updates_both() {
        let mut ctx = ContextStore::default();
        ctx.set_device_place(DeviceId::new("rfid-hall"), PlaceId::new("hall"));
        ctx.set_device_place(DeviceId::new("rfid-lr"), PlaceId::new("living room"));
        ctx.apply_property_change(&change("rfid-hall", "occupants", Value::from("emily")));
        ctx.apply_property_change(&change("rfid-lr", "occupants", Value::from("emily")));
        // The living-room reader saw her last.
        assert_eq!(
            ctx.person_place(&PersonId::new("emily")),
            Some(&PlaceId::new("living room"))
        );
        // Hall reader reports empty.
        ctx.apply_property_change(&change("rfid-hall", "occupants", Value::from("")));
        assert_eq!(
            ctx.person_place(&PersonId::new("emily")),
            Some(&PlaceId::new("living room"))
        );
        assert!(ctx.occupants(&PlaceId::new("hall")).is_empty());
    }

    #[test]
    fn arrival_raises_transient_events_that_expire() {
        let mut ctx = ContextStore::default();
        ctx.apply_property_change(&change(
            "rfid-hall",
            "arrival",
            Value::from("person:alan|got home from work"),
        ));
        assert!(ctx.event_active("person:alan", "got home from work"));
        assert!(ctx.event_active("person", "got home from work")); // generic
        assert!(!ctx.event_active("person:emily", "got home from work"));
        // The empty reset publish does not clear the fact...
        ctx.apply_property_change(&change("rfid-hall", "arrival", Value::from("")));
        assert!(ctx.event_active("person:alan", "got home from work"));
        // ...but the window elapsing does.
        ctx.set_now(SimTime::EPOCH + DEFAULT_EVENT_WINDOW + SimDuration::from_secs(1));
        assert!(!ctx.event_active("person:alan", "got home from work"));
    }

    #[test]
    fn on_air_is_persistent_until_replaced() {
        let mut ctx = ContextStore::default();
        ctx.apply_property_change(&change("epg", "on-air", Value::from("Baseball Game")));
        assert!(ctx.event_active("tv-guide", "baseball game"));
        ctx.set_now(SimTime::EPOCH + SimDuration::from_hours(3));
        assert!(ctx.event_active("tv-guide", "baseball game")); // still on
        ctx.apply_property_change(&change("epg", "on-air", Value::from("News")));
        assert!(!ctx.event_active("tv-guide", "baseball game"));
        assert!(ctx.event_active("tv-guide", "news"));
        ctx.apply_property_change(&change("epg", "on-air", Value::from("")));
        assert!(!ctx.event_active("tv-guide", "news"));
    }

    #[test]
    fn calendar_advances_with_days() {
        let mut ctx = ContextStore::default(); // epoch = Monday 2005-06-06
        assert_eq!(ctx.weekday(), Weekday::Monday);
        ctx.set_now(SimTime::EPOCH + SimDuration::from_hours(49));
        assert_eq!(ctx.weekday(), Weekday::Wednesday);
        assert_eq!(ctx.date(), Date::new(2005, 6, 8).unwrap());
    }

    #[test]
    fn property_changes_stamp_with_their_own_time() {
        let mut ctx = ContextStore::default();
        let at = SimTime::EPOCH + SimDuration::from_minutes(90);
        ctx.apply_property_change(&PropertyChange {
            at,
            ..change(
                "thermo",
                "temperature",
                Value::Number(Quantity::from_integer(27, Unit::Celsius)),
            )
        });
        let key = SensorKey::new(DeviceId::new("thermo"), "temperature");
        assert_eq!(ctx.sensor_updated_at(&key), Some(at));
        assert_eq!(
            ctx.sensor_updated_at(&SensorKey::new(DeviceId::new("x"), "y")),
            None
        );
    }

    #[test]
    fn staleness_policy_degrades_reads() {
        let mut ctx = ContextStore::default();
        let key = SensorKey::new(DeviceId::new("thermo"), "temperature");
        let reading = Value::Number(Quantity::from_integer(30, Unit::Celsius));
        ctx.set_value(key.clone(), reading.clone());
        assert_eq!(ctx.sensor_updated_at(&key), Some(SimTime::EPOCH));

        // Default policy: readings never expire.
        ctx.set_now(SimTime::EPOCH + SimDuration::from_hours(5));
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::Value(&reading));

        // With a 10-minute window the reading is long stale.
        let max = SimDuration::from_minutes(10);
        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::FailClosed, max));
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::AssumeFalse);
        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::FailOpen, max));
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::AssumeTrue);
        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::HoldLastValue, max));
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::Value(&reading));

        // Rewriting the value refreshes the stamp; an age of exactly
        // `max_age` still counts as fresh.
        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::FailClosed, max));
        ctx.set_value(key.clone(), reading.clone());
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::Value(&reading));
        ctx.set_now(ctx.now() + max);
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::Value(&reading));
        ctx.set_now(ctx.now() + SimDuration::from_millis(1));
        assert_eq!(ctx.sensor_read_key(&key), SensorRead::AssumeFalse);

        // Absent keys fail closed under every mode.
        let missing = SensorKey::new(DeviceId::new("x"), "y");
        ctx.set_freshness_policy(FreshnessPolicy::new(FreshnessMode::FailOpen, max));
        assert_eq!(ctx.sensor_read_key(&missing), SensorRead::AssumeFalse);
    }

    /// `set_now` sweeps only the slots with a live transient fact, each
    /// listed once, so its cost does not grow with every name written.
    #[test]
    fn the_expiry_sweep_holds_only_live_transient_facts() {
        let mut ctx = ContextStore::default();
        ctx.raise_event("person", "arrives");
        ctx.raise_event("person", "arrives");
        ctx.raise_event("person", "leaves");
        ctx.set_persistent_event("tv-guide", "news");
        assert_eq!(ctx.transient.len(), 2);
        ctx.set_now(SimTime::EPOCH + DEFAULT_EVENT_WINDOW + SimDuration::from_secs(1));
        assert!(ctx.transient.is_empty());
        assert!(!ctx.event_active("person", "arrives"));
        assert!(ctx.event_active("tv-guide", "news"));
        ctx.raise_event("person", "leaves");
        assert_eq!(ctx.transient.len(), 1);
        assert!(ctx.event_active("person", "leaves"));
    }

    #[test]
    fn custom_event_window() {
        let mut ctx = ContextStore::default();
        ctx.set_event_window(SimDuration::from_secs(30));
        ctx.raise_event("person", "arrives");
        ctx.set_now(SimTime::EPOCH + SimDuration::from_secs(29));
        assert!(ctx.event_active("person", "arrives"));
        ctx.set_now(SimTime::EPOCH + SimDuration::from_secs(31));
        assert!(!ctx.event_active("person", "arrives"));
    }

    #[test]
    fn event_window_boundary_is_inclusive() {
        // An event raised at t with window W is active at exactly t + W
        // (mirroring the `age == max_age` freshness rule) and gone one
        // millisecond later — whether the clock lands on the boundary
        // directly or arrives there via `set_now` expiry.
        let window = SimDuration::from_secs(30);
        let boundary = SimTime::EPOCH + window;

        let mut ctx = ContextStore::default();
        ctx.set_event_window(window);
        ctx.raise_event("person", "arrives");
        ctx.set_now(boundary);
        assert!(ctx.event_active("person", "arrives"));
        ctx.set_now(boundary + SimDuration::from_millis(1));
        assert!(!ctx.event_active("person", "arrives"));

        // Same verdicts when `now` was already past raise time before the
        // query (no intermediate set_now at the boundary).
        let mut ctx = ContextStore::default();
        ctx.set_event_window(window);
        ctx.raise_event("person", "arrives");
        ctx.set_now(boundary + SimDuration::from_millis(1));
        assert!(!ctx.event_active("person", "arrives"));
    }
}
