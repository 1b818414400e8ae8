//! Condition atoms — the primitive facts a rule condition can test.

use cadel_simplex::RelOp;
use cadel_types::{
    Date, DeviceId, PersonId, PlaceId, Quantity, SensorKey, SimDuration, TimeWindow, Value, Weekday,
};
use std::fmt;

/// A numeric comparison of a sensor variable against a threshold:
/// `temperature(thermo-livingroom) > 26 °C`.
///
/// This is the atom class the paper's conflict check reasons about with the
/// Simplex method (§4.4 — "condition in each rule is described as a logical
/// conjunction of inequalities").
#[derive(Clone, Debug, PartialEq)]
pub struct ConstraintAtom {
    sensor: SensorKey,
    op: RelOp,
    threshold: Quantity,
}

impl ConstraintAtom {
    /// Creates the comparison `sensor op threshold`.
    pub fn new(sensor: SensorKey, op: RelOp, threshold: Quantity) -> ConstraintAtom {
        ConstraintAtom {
            sensor,
            op,
            threshold,
        }
    }

    /// The sensor variable being compared.
    pub fn sensor(&self) -> &SensorKey {
        &self.sensor
    }

    /// The comparison operator.
    pub fn op(&self) -> RelOp {
        self.op
    }

    /// The threshold the sensor is compared against.
    pub fn threshold(&self) -> Quantity {
        self.threshold
    }

    /// Evaluates against a concrete sensor reading. Readings of a
    /// different dimension never satisfy the atom.
    pub fn holds_for(&self, reading: &Quantity) -> bool {
        if !reading.is_comparable_to(&self.threshold) {
            return false;
        }
        self.op
            .holds(reading.canonical_value(), self.threshold.canonical_value())
    }
}

impl fmt::Display for ConstraintAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.sensor, self.op, self.threshold)
    }
}

/// Who a presence atom talks about.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Subject {
    /// A specific person ("Tom is at the living room").
    Person(PersonId),
    /// Any person ("someone returns home").
    Somebody,
    /// No person ("nobody is at the hall").
    Nobody,
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Person(p) => write!(f, "{p}"),
            Subject::Somebody => f.write_str("someone"),
            Subject::Nobody => f.write_str("nobody"),
        }
    }
}

/// A presence fact: `subject is at place`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PresenceAtom {
    subject: Subject,
    place: PlaceId,
}

impl PresenceAtom {
    /// Creates `subject is at place`.
    pub fn new(subject: Subject, place: PlaceId) -> PresenceAtom {
        PresenceAtom { subject, place }
    }

    /// Convenience constructor for a named person.
    pub fn person_at(person: impl Into<PersonId>, place: impl AsRef<str>) -> PresenceAtom {
        PresenceAtom::new(Subject::Person(person.into()), PlaceId::new(place))
    }

    /// The subject of the fact.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The place of the fact.
    pub fn place(&self) -> &PlaceId {
        &self.place
    }
}

impl fmt::Display for PresenceAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.subject, self.place)
    }
}

/// A device state fact: `variable(device) == value`, e.g.
/// `power(tv) == true` for "the TV is turned on".
#[derive(Clone, Debug, PartialEq)]
pub struct StateAtom {
    device: DeviceId,
    variable: String,
    value: Value,
}

impl StateAtom {
    /// Creates `variable(device) == value`.
    pub fn new(device: DeviceId, variable: impl Into<String>, value: Value) -> StateAtom {
        StateAtom {
            device,
            variable: variable.into(),
            value,
        }
    }

    /// The device whose state is tested.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The state variable name.
    pub fn variable(&self) -> &str {
        &self.variable
    }

    /// The expected value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// The sensor key this atom observes.
    pub fn sensor_key(&self) -> SensorKey {
        SensorKey::new(self.device.clone(), self.variable.clone())
    }

    /// Evaluates against an observed value. Text comparison is
    /// case-insensitive.
    pub fn holds_for(&self, observed: &Value) -> bool {
        match (&self.value, observed) {
            (Value::Text(expected), observed) => observed.text_matches(expected),
            (expected, observed) => expected == observed,
        }
    }
}

impl fmt::Display for StateAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{} = {}", self.device, self.variable, self.value)
    }
}

/// An ambient event: something that *happens* rather than a state that
/// holds — "a baseball game is on air", "Alan got home from work".
///
/// Events are matched case-insensitively by channel and name against the
/// engine's set of currently-active event facts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EventAtom {
    channel: String,
    name: String,
}

impl EventAtom {
    /// Creates an event pattern on `channel` with the given `name`, both
    /// normalized to lower case.
    pub fn new(channel: impl AsRef<str>, name: impl AsRef<str>) -> EventAtom {
        EventAtom {
            channel: channel.as_ref().trim().to_ascii_lowercase(),
            name: name.as_ref().trim().to_ascii_lowercase(),
        }
    }

    /// The event channel (e.g. `"tv-guide"`, `"person:alan"`).
    pub fn channel(&self) -> &str {
        &self.channel
    }

    /// The event name (e.g. `"baseball game"`, `"got home from work"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether an occurred event matches this pattern.
    pub fn matches(&self, channel: &str, name: &str) -> bool {
        self.channel.eq_ignore_ascii_case(channel.trim())
            && self.name.eq_ignore_ascii_case(name.trim())
    }
}

impl fmt::Display for EventAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event {}:{}", self.channel, self.name)
    }
}

/// A primitive fact in a rule condition.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Atom {
    /// A numeric sensor comparison.
    Constraint(ConstraintAtom),
    /// A presence fact.
    Presence(PresenceAtom),
    /// A device state fact.
    State(StateAtom),
    /// An ambient event.
    Event(EventAtom),
    /// A daily time window ("after evening", "at night").
    Time(TimeWindow),
    /// A weekday guard ("every Monday").
    Weekday(Weekday),
    /// A specific-date guard.
    Date(Date),
    /// The inner atom must have held continuously for the duration
    /// ("entrance door is unlocked for 1 hour").
    HeldFor {
        /// The qualified atom.
        inner: Box<Atom>,
        /// How long it must have held.
        duration: SimDuration,
    },
}

impl Atom {
    /// Wraps an atom with a continuous-duration qualifier.
    pub fn held_for(inner: Atom, duration: SimDuration) -> Atom {
        Atom::HeldFor {
            inner: Box::new(inner),
            duration,
        }
    }

    /// The atom with any `HeldFor` qualifiers stripped — the instantaneous
    /// fact whose truth the engine tracks over time.
    pub fn instantaneous(&self) -> &Atom {
        match self {
            Atom::HeldFor { inner, .. } => inner.instantaneous(),
            other => other,
        }
    }

    /// The sensor key this atom observes, if it observes one.
    pub fn sensor_key(&self) -> Option<SensorKey> {
        match self {
            Atom::Constraint(c) => Some(c.sensor().clone()),
            Atom::State(s) => Some(s.sensor_key()),
            Atom::HeldFor { inner, .. } => inner.sensor_key(),
            _ => None,
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Constraint(c) => write!(f, "{c}"),
            Atom::Presence(p) => write!(f, "{p}"),
            Atom::State(s) => write!(f, "{s}"),
            Atom::Event(e) => write!(f, "{e}"),
            Atom::Time(w) => write!(f, "time in {w}"),
            Atom::Weekday(w) => write!(f, "every {w}"),
            Atom::Date(d) => write!(f, "on {d}"),
            Atom::HeldFor { inner, duration } => write!(f, "{inner} for {duration}"),
        }
    }
}

impl From<ConstraintAtom> for Atom {
    fn from(a: ConstraintAtom) -> Atom {
        Atom::Constraint(a)
    }
}

impl From<PresenceAtom> for Atom {
    fn from(a: PresenceAtom) -> Atom {
        Atom::Presence(a)
    }
}

impl From<StateAtom> for Atom {
    fn from(a: StateAtom) -> Atom {
        Atom::State(a)
    }
}

impl From<EventAtom> for Atom {
    fn from(a: EventAtom) -> Atom {
        Atom::Event(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::Unit;

    fn thermo() -> SensorKey {
        SensorKey::new(DeviceId::new("thermo"), "temperature")
    }

    #[test]
    fn constraint_atom_evaluates_with_units() {
        let atom = ConstraintAtom::new(
            thermo(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        );
        assert!(atom.holds_for(&Quantity::from_integer(27, Unit::Celsius)));
        assert!(!atom.holds_for(&Quantity::from_integer(26, Unit::Celsius)));
        // 80°F ≈ 26.7°C > 26°C.
        assert!(atom.holds_for(&Quantity::from_integer(80, Unit::Fahrenheit)));
        // Wrong dimension: never true.
        assert!(!atom.holds_for(&Quantity::from_integer(90, Unit::Percent)));
    }

    #[test]
    fn state_atom_text_matching_is_case_insensitive() {
        let atom = StateAtom::new(DeviceId::new("tv"), "program", Value::from("Baseball Game"));
        assert!(atom.holds_for(&Value::from("baseball game")));
        assert!(!atom.holds_for(&Value::from("news")));
        assert!(!atom.holds_for(&Value::Bool(true)));
    }

    #[test]
    fn state_atom_bool_matching() {
        let atom = StateAtom::new(DeviceId::new("tv"), "power", Value::Bool(true));
        assert!(atom.holds_for(&Value::Bool(true)));
        assert!(!atom.holds_for(&Value::Bool(false)));
        assert_eq!(
            atom.sensor_key(),
            SensorKey::new(DeviceId::new("tv"), "power")
        );
    }

    #[test]
    fn event_atom_matches_normalized() {
        let atom = EventAtom::new(" TV-Guide ", "Baseball Game");
        assert!(atom.matches("tv-guide", "baseball game"));
        assert!(atom.matches("TV-GUIDE", " Baseball Game "));
        assert!(!atom.matches("tv-guide", "movie"));
    }

    #[test]
    fn held_for_unwraps_to_instantaneous() {
        let inner = Atom::State(StateAtom::new(
            DeviceId::new("door"),
            "locked",
            Value::Bool(false),
        ));
        let wrapped = Atom::held_for(inner.clone(), SimDuration::from_hours(1));
        assert_eq!(wrapped.instantaneous(), &inner);
        // Nested wrapping still unwraps fully.
        let nested = Atom::held_for(wrapped.clone(), SimDuration::from_minutes(5));
        assert_eq!(nested.instantaneous(), &inner);
        assert!(wrapped.sensor_key().is_some());
    }

    #[test]
    fn displays_are_informative() {
        let atom = ConstraintAtom::new(
            thermo(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        );
        assert_eq!(atom.to_string(), "thermo.temperature > 26°C");
        let p = PresenceAtom::person_at("tom", "Living Room");
        assert_eq!(p.to_string(), "tom at living room");
        assert_eq!(
            PresenceAtom::new(Subject::Nobody, PlaceId::new("hall")).to_string(),
            "nobody at hall"
        );
    }
}
