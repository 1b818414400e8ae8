//! Interning of context-observable names into dense `u32` slots.
//!
//! Compiled rule programs never hash strings at evaluation time: every
//! sensor variable and event pattern a registered rule mentions is interned
//! here once, at compile time. The engine's context store shares the
//! interner and keeps its readings and event facts on dense boards indexed
//! by these slots, interning each name it is first written under.

use cadel_obs::LazyGauge;
use cadel_types::{PlaceId, SensorKey};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Size of the sensor-slot table, updated as slots are interned. With
/// several interners alive (tests, clones) the gauge tracks whichever
/// interned last; in the home-server deployment there is one.
static SENSOR_SLOTS: LazyGauge = LazyGauge::new("ir_interner_sensor_slots");
/// Size of the event-slot table; same caveat as `ir_interner_sensor_slots`.
static EVENT_SLOTS: LazyGauge = LazyGauge::new("ir_interner_event_slots");
/// Size of the place-slot table; same caveat as `ir_interner_sensor_slots`.
static PLACE_SLOTS: LazyGauge = LazyGauge::new("ir_interner_place_slots");
/// Size of the channel-slot table; same caveat as `ir_interner_sensor_slots`.
static CHANNEL_SLOTS: LazyGauge = LazyGauge::new("ir_interner_channel_slots");

/// A dense index for a [`SensorKey`] (a `(device, variable)` pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorSlot(u32);

impl SensorSlot {
    /// Creates a slot from its raw index.
    pub const fn new(index: u32) -> SensorSlot {
        SensorSlot(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense index for a normalized `(channel, name)` event pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventSlot(u32);

impl EventSlot {
    /// Creates a slot from its raw index.
    pub const fn new(index: u32) -> EventSlot {
        EventSlot(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense index for a [`PlaceId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceSlot(u32);

impl PlaceSlot {
    /// Creates a slot from its raw index.
    pub const fn new(index: u32) -> PlaceSlot {
        PlaceSlot(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dense index for a normalized event channel name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelSlot(u32);

impl ChannelSlot {
    /// Creates a slot from its raw index.
    pub const fn new(index: u32) -> ChannelSlot {
        ChannelSlot(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Maps sensor keys and event patterns to dense slots.
///
/// The interner is append-only: slots are never reused, so a compiled
/// program's slot references, and a context board's entries, stay valid
/// for the interner's lifetime.
#[derive(Debug, Default)]
pub struct Interner {
    sensors: HashMap<SensorKey, SensorSlot>,
    sensor_keys: Vec<SensorKey>,
    /// channel → name → slot, both normalized (trimmed, ASCII-lowercased).
    events: HashMap<String, HashMap<String, EventSlot>>,
    event_keys: Vec<(String, String)>,
    /// channel → slots on that channel (serves bulk channel clears).
    by_channel: HashMap<String, Vec<EventSlot>>,
    places: HashMap<PlaceId, PlaceSlot>,
    place_keys: Vec<PlaceId>,
    /// Normalized channel name → slot; slots are dense, so its length
    /// is the channel count.
    channels: HashMap<String, ChannelSlot>,
    /// Channel slot of each event slot, parallel to `event_keys`.
    event_channels: Vec<ChannelSlot>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The slot of a sensor key, interning it on first use.
    pub fn sensor_slot(&mut self, key: &SensorKey) -> SensorSlot {
        if let Some(slot) = self.sensors.get(key) {
            return *slot;
        }
        let slot = SensorSlot::new(self.sensor_keys.len() as u32);
        self.sensors.insert(key.clone(), slot);
        self.sensor_keys.push(key.clone());
        SENSOR_SLOTS.set(self.sensor_keys.len() as i64);
        slot
    }

    /// The slot of an already-interned sensor key.
    pub fn lookup_sensor(&self, key: &SensorKey) -> Option<SensorSlot> {
        self.sensors.get(key).copied()
    }

    /// The sensor key behind a slot.
    pub fn sensor_key(&self, slot: SensorSlot) -> Option<&SensorKey> {
        self.sensor_keys.get(slot.index())
    }

    /// Number of interned sensor slots.
    pub fn sensor_count(&self) -> usize {
        self.sensor_keys.len()
    }

    /// The slot of an event pattern, interning it on first use. Channel and
    /// name are normalized (trimmed, ASCII-lowercased) so patterns match
    /// the engine's case-insensitive event semantics.
    pub fn event_slot(&mut self, channel: &str, name: &str) -> EventSlot {
        let channel = channel.trim().to_ascii_lowercase();
        let name = name.trim().to_ascii_lowercase();
        if let Some(slot) = self.events.get(&channel).and_then(|m| m.get(&name)) {
            return *slot;
        }
        let slot = EventSlot::new(self.event_keys.len() as u32);
        self.events
            .entry(channel.clone())
            .or_default()
            .insert(name.clone(), slot);
        self.by_channel
            .entry(channel.clone())
            .or_default()
            .push(slot);
        // The channel is interned alongside the pattern, so the engine's
        // inverted indexes key event dirt by dense channel slot instead of
        // cloning channel strings per lookup.
        let channel_slot = self.intern_normalized_channel(&channel);
        self.event_channels.push(channel_slot);
        self.event_keys.push((channel, name));
        EVENT_SLOTS.set(self.event_keys.len() as i64);
        slot
    }

    /// The slot of an already-interned event pattern. The inputs must
    /// already be normalized (trimmed, lowercase) — the engine's event
    /// facts are stored normalized, so its lookups take this allocation-free
    /// path.
    pub fn lookup_event_normalized(&self, channel: &str, name: &str) -> Option<EventSlot> {
        self.events.get(channel).and_then(|m| m.get(name)).copied()
    }

    /// The normalized `(channel, name)` behind an event slot.
    pub fn event_key(&self, slot: EventSlot) -> Option<(&str, &str)> {
        self.event_keys
            .get(slot.index())
            .map(|(c, n)| (c.as_str(), n.as_str()))
    }

    /// All event slots on a normalized channel.
    pub fn channel_slots(&self, channel: &str) -> &[EventSlot] {
        self.by_channel
            .get(channel)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of interned event slots.
    pub fn event_count(&self) -> usize {
        self.event_keys.len()
    }

    /// The channel slot of an event slot.
    pub fn event_channel_of(&self, slot: EventSlot) -> Option<ChannelSlot> {
        self.event_channels.get(slot.index()).copied()
    }

    /// The slot of a place, interning it on first use.
    pub fn place_slot(&mut self, place: &PlaceId) -> PlaceSlot {
        if let Some(slot) = self.places.get(place) {
            return *slot;
        }
        let slot = PlaceSlot::new(self.place_keys.len() as u32);
        self.places.insert(place.clone(), slot);
        self.place_keys.push(place.clone());
        PLACE_SLOTS.set(self.place_keys.len() as i64);
        slot
    }

    /// The slot of an already-interned place.
    pub fn lookup_place(&self, place: &PlaceId) -> Option<PlaceSlot> {
        self.places.get(place).copied()
    }

    /// The place behind a slot.
    pub fn place_key(&self, slot: PlaceSlot) -> Option<&PlaceId> {
        self.place_keys.get(slot.index())
    }

    /// Number of interned place slots.
    pub fn place_count(&self) -> usize {
        self.place_keys.len()
    }

    /// The slot of an event channel, interning it on first use. The name
    /// is normalized (trimmed, ASCII-lowercased) like event patterns.
    pub fn channel_slot(&mut self, channel: &str) -> ChannelSlot {
        let channel = channel.trim().to_ascii_lowercase();
        self.intern_normalized_channel(&channel)
    }

    fn intern_normalized_channel(&mut self, channel: &str) -> ChannelSlot {
        if let Some(slot) = self.channels.get(channel) {
            return *slot;
        }
        let slot = ChannelSlot::new(self.channels.len() as u32);
        self.channels.insert(channel.to_owned(), slot);
        CHANNEL_SLOTS.set(self.channels.len() as i64);
        slot
    }

    /// The slot of an already-interned channel. The input must already be
    /// normalized (trimmed, lowercase); this path never allocates.
    pub fn lookup_channel_normalized(&self, channel: &str) -> Option<ChannelSlot> {
        self.channels.get(channel).copied()
    }

    /// Number of interned channel slots.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }
}

/// An interner shared between the rule database (which interns at compile
/// time) and the engine's context store (which interns at write time and
/// indexes its boards by the slots).
pub type SharedInterner = Arc<RwLock<Interner>>;

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::DeviceId;

    fn key(device: &str, variable: &str) -> SensorKey {
        SensorKey::new(DeviceId::new(device), variable)
    }

    #[test]
    fn sensor_interning_is_stable_and_dense() {
        let mut i = Interner::new();
        let a = i.sensor_slot(&key("thermo", "temperature"));
        let b = i.sensor_slot(&key("hygro", "humidity"));
        assert_eq!(a, i.sensor_slot(&key("thermo", "temperature")));
        assert_ne!(a, b);
        assert_eq!(i.sensor_count(), 2);
        assert_eq!(i.sensor_key(a), Some(&key("thermo", "temperature")));
        assert_eq!(i.lookup_sensor(&key("nope", "x")), None);
    }

    #[test]
    fn event_patterns_are_normalized() {
        let mut i = Interner::new();
        let a = i.event_slot(" TV-Guide ", "Baseball Game");
        assert_eq!(a, i.event_slot("tv-guide", "baseball game"));
        assert_eq!(
            i.lookup_event_normalized("tv-guide", "baseball game"),
            Some(a)
        );
        assert_eq!(i.lookup_event_normalized("tv-guide", "movie"), None);
        assert_eq!(i.event_key(a), Some(("tv-guide", "baseball game")));
    }

    #[test]
    fn places_and_channels_intern_densely() {
        let mut i = Interner::new();
        let lr = i.place_slot(&PlaceId::new("living room"));
        let hall = i.place_slot(&PlaceId::new("hall"));
        assert_ne!(lr, hall);
        assert_eq!(i.place_slot(&PlaceId::new("living room")), lr);
        assert_eq!(i.lookup_place(&PlaceId::new("hall")), Some(hall));
        assert_eq!(i.place_key(lr), Some(&PlaceId::new("living room")));
        assert_eq!(i.place_count(), 2);

        // Interning an event pattern interns its channel as a side effect.
        let ding = i.event_slot(" Home ", "Ding");
        let chan = i.lookup_channel_normalized("home").expect("interned");
        assert_eq!(i.event_channel_of(ding), Some(chan));
        assert_eq!(i.channel_slot("HOME"), chan);
        assert_eq!(i.channel_count(), 1);
        assert_eq!(i.lookup_channel_normalized("tv-guide"), None);
    }

    #[test]
    fn channel_index_tracks_slots() {
        let mut i = Interner::new();
        let a = i.event_slot("tv-guide", "news");
        let b = i.event_slot("tv-guide", "movie");
        i.event_slot("person", "arrives");
        assert_eq!(i.channel_slots("tv-guide"), &[a, b]);
        assert_eq!(i.channel_slots("nothing"), &[] as &[EventSlot]);
    }
}
