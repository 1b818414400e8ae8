//! The context store: the engine's live picture of the home.
//!
//! Everything a rule condition can test is mirrored here, fed by UPnP
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
//!
//! Transient-event windows are **inclusive at both ends**: an event raised
//! at `t` with window `W` is active on every step whose clock satisfies
//! `t <= now <= t + W`, and expires strictly after `t + W`. This mirrors
//! the freshness rule (a reading aged exactly `max_age` is still fresh)
//! and is honored identically by the string-keyed path
//! ([`ContextStore::event_active`]) and the compiled-IR slot path
//! ([`ContextView::event_active_slot`]).
//! * **Clock/calendar** — the current [`SimTime`] plus the weekday/date of
//!   day zero, so time-window, weekday and date atoms can be decided.
//!
//! Sensor values additionally carry the sim instant of their last update;
//! a configurable [`FreshnessPolicy`] decides how conjuncts over *stale*
//! readings evaluate (fail-closed, fail-open, or hold the last value).
//! Both evaluators — the compiled IR via [`ContextView::sensor_read`] and
//! the reference interpreter via [`ContextStore::sensor_read_key`] — share
//! one policy implementation, so their verdicts agree.

use cadel_ir::{
    ChannelSlot, ContextView, EventSlot, PlaceSlot, SensorRead, SensorSlot, SharedInterner,
};
use cadel_obs::{Event as ObsEvent, LazyCounter, Level};
use cadel_types::unit::Dimension;
use cadel_types::{
    Date, DeviceId, PersonId, PlaceId, Rational, SensorKey, SimDuration, SimTime, Value, Weekday,
};
use cadel_upnp::PropertyChange;
use std::collections::{BTreeMap, BTreeSet, HashMap};

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

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EventFact {
    channel: String,
    name: String,
}

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

/// Dense, slot-indexed mirror of the context for compiled-rule evaluation.
///
/// The string-keyed maps of [`ContextStore`] remain the source of truth;
/// the mirror is updated incrementally by every mutator (for names the
/// interner already knows) and rebuilt wholesale by
/// [`ContextStore::sync_ir`] whenever the interner's revision changed
/// (i.e. new rules interned new names).
#[derive(Clone, Debug)]
struct IrMirror {
    interner: SharedInterner,
    /// Interner revision the boards were last rebuilt against. `None`
    /// until the first [`ContextStore::sync_ir`].
    seen_revision: Option<u64>,
    sensor_board: Vec<Option<Value>>,
    /// Last-update instant per sensor slot, parallel to `sensor_board`
    /// (the dense mirror of `ContextStore::sensor_stamps`).
    stamp_board: Vec<Option<SimTime>>,
    /// Per sensor slot, whether the dirt log already holds its first
    /// write since the last drain (parallel to `sensor_board`).
    logged: Vec<bool>,
    /// Expiry instant per transient event slot (compared against `now` at
    /// query time, mirroring [`ContextStore::event_active`]).
    transient_board: Vec<Option<SimTime>>,
    persistent_board: Vec<bool>,
}

/// The engine's view of current context.
#[derive(Clone, Debug)]
pub struct ContextStore {
    now: SimTime,
    epoch_date: Date,
    sensor_values: HashMap<SensorKey, Value>,
    /// Sim instant each sensor value was last written (staleness source).
    sensor_stamps: HashMap<SensorKey, SimTime>,
    freshness: FreshnessPolicy,
    presence: HashMap<PersonId, PlaceId>,
    place_occupants: HashMap<PlaceId, BTreeSet<PersonId>>,
    device_places: HashMap<DeviceId, PlaceId>,
    transient_events: BTreeMap<EventFact, SimTime>,
    persistent_events: BTreeSet<EventFact>,
    event_window: SimDuration,
    ir: Option<IrMirror>,
    /// Dirt log: interned slots mutated since the engine last drained it.
    /// Every mutator — property-change ingest *and* direct scenario writes
    /// like [`ContextStore::set_value`] or [`ContextStore::raise_event`] —
    /// records the slots it touched, so the trigger index never misses a
    /// change regardless of which door it came through. Names the interner
    /// does not know have no slot, and correctly produce no dirt: no rule
    /// can mention them. A sensor slot is logged once per drain, at its
    /// first write; place and channel entries may repeat (marking is
    /// idempotent).
    dirty_sensors: Vec<SensorDirt>,
    dirty_places: Vec<PlaceSlot>,
    dirty_channels: Vec<ChannelSlot>,
}

impl ContextStore {
    /// Creates a store whose simulation epoch (day 0) falls on
    /// `epoch_date`.
    pub fn new(epoch_date: Date) -> ContextStore {
        ContextStore {
            now: SimTime::EPOCH,
            epoch_date,
            sensor_values: HashMap::new(),
            sensor_stamps: HashMap::new(),
            freshness: FreshnessPolicy::default(),
            presence: HashMap::new(),
            place_occupants: HashMap::new(),
            device_places: HashMap::new(),
            transient_events: BTreeMap::new(),
            persistent_events: BTreeSet::new(),
            event_window: DEFAULT_EVENT_WINDOW,
            ir: None,
            dirty_sensors: Vec::new(),
            dirty_places: Vec::new(),
            dirty_channels: Vec::new(),
        }
    }

    /// Attaches the rule database's interner so this store can serve
    /// compiled-rule evaluation through dense slot-indexed boards. Until an
    /// interner is attached, [`ContextView`] reads return nothing.
    pub fn attach_interner(&mut self, interner: SharedInterner) {
        self.ir = Some(IrMirror {
            interner,
            seen_revision: None,
            sensor_board: Vec::new(),
            stamp_board: Vec::new(),
            logged: Vec::new(),
            transient_board: Vec::new(),
            persistent_board: Vec::new(),
        });
    }

    /// Brings the slot boards up to date with the interner.
    ///
    /// Cheap when no new names were interned since the last call (one
    /// relaxed read-lock and revision compare); on a revision change the
    /// boards are rebuilt from the string-keyed maps, which stay the source
    /// of truth.
    pub fn sync_ir(&mut self) {
        let Some(mirror) = &mut self.ir else {
            return;
        };
        let interner = mirror.interner.read().expect("interner lock poisoned");
        if mirror.seen_revision == Some(interner.revision()) {
            return;
        }
        mirror.sensor_board = (0..interner.sensor_count())
            .map(|i| {
                interner
                    .sensor_key(SensorSlot::new(i as u32))
                    .and_then(|key| self.sensor_values.get(key).cloned())
            })
            .collect();
        mirror.stamp_board = (0..interner.sensor_count())
            .map(|i| {
                interner
                    .sensor_key(SensorSlot::new(i as u32))
                    .and_then(|key| self.sensor_stamps.get(key).copied())
            })
            .collect();
        // Slots are stable across revisions: first-write flags carry over.
        mirror.logged.resize(interner.sensor_count(), false);
        mirror.transient_board = vec![None; interner.event_count()];
        mirror.persistent_board = vec![false; interner.event_count()];
        for i in 0..interner.event_count() {
            let slot = EventSlot::new(i as u32);
            let Some((channel, name)) = interner.event_key(slot) else {
                continue;
            };
            let fact = EventFact {
                channel: channel.to_owned(),
                name: name.to_owned(),
            };
            mirror.persistent_board[i] = self.persistent_events.contains(&fact);
            mirror.transient_board[i] = self.transient_events.get(&fact).copied();
        }
        mirror.seen_revision = Some(interner.revision());
    }

    /// Writes a sensor value and its update instant through to the boards
    /// when the interner knows the key, logging the slot's previous
    /// reading on its first write since the last drain. Names never
    /// mentioned by a rule have no slot and are (correctly) skipped.
    fn mirror_sensor(&mut self, key: &SensorKey, value: &Value, at: SimTime) {
        if let Some(mirror) = &mut self.ir {
            let interner = mirror.interner.read().expect("interner lock poisoned");
            if let Some(slot) = interner.lookup_sensor(key) {
                let i = slot.index();
                if i >= mirror.sensor_board.len() {
                    mirror.sensor_board.resize(i + 1, None);
                    mirror.stamp_board.resize(i + 1, None);
                }
                if i >= mirror.logged.len() {
                    mirror.logged.resize(i + 1, false);
                }
                if !mirror.logged[i] {
                    mirror.logged[i] = true;
                    self.dirty_sensors.push(SensorDirt {
                        slot,
                        prev: numeric(mirror.sensor_board[i].as_ref()),
                        prev_stamp: mirror.stamp_board[i],
                    });
                }
                mirror.sensor_board[i] = Some(value.clone());
                mirror.stamp_board[i] = Some(at);
            }
        }
    }

    /// Logs dirt for a place whose occupancy (or a person's presence at
    /// it) changed.
    fn log_place_dirt(&mut self, place: &PlaceId) {
        if let Some(mirror) = &self.ir {
            let interner = mirror.interner.read().expect("interner lock poisoned");
            if let Some(slot) = interner.lookup_place(place) {
                self.dirty_places.push(slot);
            }
        }
    }

    /// Logs dirt for an event channel. `channel` must already be
    /// normalized (trimmed, lowercase) — this is the alloc-free path.
    fn log_channel_dirt(&mut self, channel: &str) {
        if let Some(mirror) = &self.ir {
            let interner = mirror.interner.read().expect("interner lock poisoned");
            if let Some(slot) = interner.lookup_channel_normalized(channel) {
                self.dirty_channels.push(slot);
            }
        }
    }

    /// Writes a transient event's expiry through to the board. Inputs must
    /// be normalized (trimmed, lowercase).
    fn mirror_transient(&mut self, channel: &str, name: &str, expiry: SimTime) {
        if let Some(mirror) = &mut self.ir {
            let interner = mirror.interner.read().expect("interner lock poisoned");
            if let Some(slot) = interner.lookup_event_normalized(channel, name) {
                if slot.index() >= mirror.transient_board.len() {
                    mirror.transient_board.resize(slot.index() + 1, None);
                }
                mirror.transient_board[slot.index()] = Some(expiry);
            }
        }
    }

    /// Writes a persistent event flag through to the board. Inputs must be
    /// normalized (trimmed, lowercase).
    fn mirror_persistent(&mut self, channel: &str, name: &str, active: bool) {
        if let Some(mirror) = &mut self.ir {
            let interner = mirror.interner.read().expect("interner lock poisoned");
            if let Some(slot) = interner.lookup_event_normalized(channel, name) {
                if slot.index() >= mirror.persistent_board.len() {
                    mirror.persistent_board.resize(slot.index() + 1, false);
                }
                mirror.persistent_board[slot.index()] = active;
            }
        }
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
        self.transient_events.retain(|_, expiry| *expiry >= now);
    }

    /// The weekday at the current instant.
    pub fn weekday(&self) -> Weekday {
        self.epoch_date.weekday().advance(self.now.day_index())
    }

    /// The calendar date at the current instant.
    pub fn date(&self) -> Date {
        self.epoch_date.advance(self.now.day_index())
    }

    /// The latest value of a sensor/state variable.
    pub fn value(&self, key: &SensorKey) -> Option<&Value> {
        self.sensor_values.get(key)
    }

    /// Directly stores a sensor/state value (scenario scripting and
    /// initial state snapshots), stamped with the current instant.
    pub fn set_value(&mut self, key: SensorKey, value: Value) {
        self.mirror_sensor(&key, &value, self.now);
        self.sensor_stamps.insert(key.clone(), self.now);
        self.sensor_values.insert(key, value);
    }

    /// When a sensor value was last written, if it ever was.
    pub fn sensor_updated_at(&self, key: &SensorKey) -> Option<SimTime> {
        self.sensor_stamps.get(key).copied()
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
        let mirror = self.ir.as_ref()?;
        let (dim, v0) = dirt.prev?;
        let i = dirt.slot.index();
        let (d1, v1) = numeric(mirror.sensor_board.get(i)?.as_ref())?;
        if d1 != dim
            || self.forced_stale(dirt.prev_stamp)
            || self.forced_stale(mirror.stamp_board[i])
        {
            return None;
        }
        Some((dim, v0.min(v1), v0.max(v1)))
    }

    /// The update stamp of the reading on a sensor slot.
    pub(crate) fn sensor_stamp(&self, slot: SensorSlot) -> Option<SimTime> {
        self.ir
            .as_ref()?
            .stamp_board
            .get(slot.index())
            .copied()
            .flatten()
    }

    /// Applies the freshness policy to a raw `(value, last-update)` pair.
    /// Shared by the slot-indexed ([`ContextView::sensor_read`]) and
    /// string-keyed ([`ContextStore::sensor_read_key`]) paths so compiled
    /// code and the reference interpreter agree.
    fn read_policy<'a>(&self, value: Option<&'a Value>, stamp: Option<SimTime>) -> SensorRead<'a> {
        let Some(value) = value else {
            return SensorRead::AssumeFalse;
        };
        let Some(max_age) = self.freshness.max_age else {
            return SensorRead::Value(value);
        };
        let fresh = stamp.map(|s| self.now.since(s) <= max_age).unwrap_or(false);
        if fresh {
            return SensorRead::Value(value);
        }
        STALE_READS.inc();
        if cadel_obs::enabled() {
            let mut event = ObsEvent::new("context.stale_read", Level::Debug)
                .with_field("mode", self.freshness.mode.to_string());
            if let Some(s) = stamp {
                event = event.with_field("age_ms", self.now.since(s).as_millis());
            }
            cadel_obs::emit(event);
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
        self.read_policy(
            self.sensor_values.get(key),
            self.sensor_stamps.get(key).copied(),
        )
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
        let fact = EventFact {
            channel: channel.trim().to_ascii_lowercase(),
            name: name.trim().to_ascii_lowercase(),
        };
        let expiry = self.now + self.event_window;
        self.mirror_transient(&fact.channel, &fact.name, expiry);
        self.log_channel_dirt(&fact.channel);
        self.transient_events.insert(fact, expiry);
    }

    /// Sets a persistent event fact (active until cleared).
    pub fn set_persistent_event(&mut self, channel: &str, name: &str) {
        let fact = EventFact {
            channel: channel.trim().to_ascii_lowercase(),
            name: name.trim().to_ascii_lowercase(),
        };
        self.mirror_persistent(&fact.channel, &fact.name, true);
        self.log_channel_dirt(&fact.channel);
        self.persistent_events.insert(fact);
    }

    /// Clears every persistent event on a channel.
    pub fn clear_persistent_channel(&mut self, channel: &str) {
        let channel = channel.trim().to_ascii_lowercase();
        self.log_channel_dirt(&channel);
        self.persistent_events.retain(|f| f.channel != channel);
        if let Some(mirror) = &mut self.ir {
            let interner = mirror.interner.read().expect("interner lock poisoned");
            for slot in interner.channel_slots(&channel) {
                if let Some(flag) = mirror.persistent_board.get_mut(slot.index()) {
                    *flag = false;
                }
            }
        }
    }

    /// Whether an event is currently active (case-insensitive). Transient
    /// events are active through the end of their window inclusive: raised
    /// at `t` with window `W`, the last active instant is exactly `t + W`.
    pub fn event_active(&self, channel: &str, name: &str) -> bool {
        let fact = EventFact {
            channel: channel.trim().to_ascii_lowercase(),
            name: name.trim().to_ascii_lowercase(),
        };
        self.persistent_events.contains(&fact)
            || self
                .transient_events
                .get(&fact)
                .map(|expiry| *expiry >= self.now)
                .unwrap_or(false)
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
        self.mirror_sensor(&key, &change.value, change.at);
        self.sensor_stamps.insert(key.clone(), change.at);
        self.sensor_values.insert(key, change.value.clone());
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
        if let Some(mirror) = &mut self.ir {
            for dirt in &self.dirty_sensors {
                if let Some(flag) = mirror.logged.get_mut(dirt.slot.index()) {
                    *flag = false;
                }
            }
        }
        self.dirty_sensors.clear();
        self.dirty_places.clear();
        self.dirty_channels.clear();
    }

    /// Every interned sensor slot that has a recorded update stamp. Used
    /// to rebuild the freshness deadline heap when the policy changes.
    pub(crate) fn stamped_sensor_slots(&self) -> Vec<(SensorSlot, SimTime)> {
        let Some(mirror) = &self.ir else {
            return Vec::new();
        };
        let interner = mirror.interner.read().expect("interner lock poisoned");
        self.sensor_stamps
            .iter()
            .filter_map(|(key, at)| interner.lookup_sensor(key).map(|slot| (slot, *at)))
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

/// Slot-indexed reads for compiled-rule evaluation. Meaningful only after
/// [`ContextStore::attach_interner`] and [`ContextStore::sync_ir`]; without
/// them every slot reads as absent/inactive.
impl ContextView for ContextStore {
    fn sensor_value(&self, slot: SensorSlot) -> Option<&Value> {
        self.ir.as_ref()?.sensor_board.get(slot.index())?.as_ref()
    }

    fn sensor_read(&self, slot: SensorSlot) -> SensorRead<'_> {
        let Some(mirror) = &self.ir else {
            return SensorRead::AssumeFalse;
        };
        let value = mirror
            .sensor_board
            .get(slot.index())
            .and_then(|v| v.as_ref());
        let stamp = mirror.stamp_board.get(slot.index()).copied().flatten();
        self.read_policy(value, stamp)
    }

    fn event_active_slot(&self, slot: EventSlot) -> bool {
        let Some(mirror) = &self.ir else {
            return false;
        };
        if mirror
            .persistent_board
            .get(slot.index())
            .copied()
            .unwrap_or(false)
        {
            return true;
        }
        mirror
            .transient_board
            .get(slot.index())
            .copied()
            .flatten()
            .map(|expiry| expiry >= self.now)
            .unwrap_or(false)
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
        // 2005-06-06, a Monday — the week of ICDCS 2005.
        ContextStore::new(Date::new(2005, 6, 6).expect("static date is valid"))
    }
}

/// Persistence support: deterministic iteration for checkpoint export and
/// stamp-preserving restore for replay. Crate-internal — the public
/// surface is `Engine::export_runtime_json`/`import_runtime_json`.
impl ContextStore {
    /// Every stored sensor value with its last-update stamp, sorted by
    /// key so checkpoint output is byte-stable.
    pub(crate) fn sensor_entries(&self) -> Vec<(SensorKey, Value, SimTime)> {
        let mut entries: Vec<_> = self
            .sensor_values
            .iter()
            .map(|(key, value)| {
                let at = self
                    .sensor_stamps
                    .get(key)
                    .copied()
                    .unwrap_or(SimTime::EPOCH);
                (key.clone(), value.clone(), at)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Restores a sensor value under its *original* stamp (unlike
    /// [`ContextStore::set_value`], which stamps with the current clock),
    /// so freshness verdicts survive a restart unchanged.
    pub(crate) fn restore_sensor(&mut self, key: SensorKey, value: Value, at: SimTime) {
        self.mirror_sensor(&key, &value, at);
        self.sensor_stamps.insert(key.clone(), at);
        self.sensor_values.insert(key, value);
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

    /// Active transient events with their expiry instants, in fact order.
    pub(crate) fn transient_event_entries(&self) -> Vec<(String, String, SimTime)> {
        self.transient_events
            .iter()
            .map(|(fact, expiry)| (fact.channel.clone(), fact.name.clone(), *expiry))
            .collect()
    }

    /// Restores a transient event under its original expiry (unlike
    /// [`ContextStore::raise_event`], which restarts the event window).
    pub(crate) fn restore_transient_event(&mut self, channel: &str, name: &str, expiry: SimTime) {
        let fact = EventFact {
            channel: channel.trim().to_ascii_lowercase(),
            name: name.trim().to_ascii_lowercase(),
        };
        self.mirror_transient(&fact.channel, &fact.name, expiry);
        self.log_channel_dirt(&fact.channel);
        self.transient_events.insert(fact, expiry);
    }

    /// Active persistent events, in fact order.
    pub(crate) fn persistent_event_entries(&self) -> Vec<(String, String)> {
        self.persistent_events
            .iter()
            .map(|fact| (fact.channel.clone(), fact.name.clone()))
            .collect()
    }

    /// The transient-event window currently in force.
    pub(crate) fn event_window(&self) -> SimDuration {
        self.event_window
    }

    /// Drops all *dynamic* context (sensor readings, presence, events)
    /// ahead of a checkpoint import, which restores a complete snapshot.
    /// Registry-derived device places survive: they come from the world,
    /// not from the checkpoint. The IR boards are cleared and marked for
    /// a full rebuild on the next [`ContextStore::sync_ir`].
    pub(crate) fn clear_dynamic_state(&mut self) {
        self.sensor_values.clear();
        self.sensor_stamps.clear();
        self.presence.clear();
        self.place_occupants.clear();
        self.transient_events.clear();
        self.persistent_events.clear();
        if let Some(mirror) = &mut self.ir {
            mirror.seen_revision = None;
            mirror.sensor_board.clear();
            mirror.stamp_board.clear();
            mirror.logged.clear();
            mirror.transient_board.clear();
            mirror.persistent_board.clear();
        }
        self.clear_dirt();
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
