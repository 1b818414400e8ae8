//! Dynamic values observed from sensors and device state variables.

use crate::{PlaceId, Quantity, TimeOfDay};
use std::fmt;

/// A value carried by a sensor reading, device state variable or event
/// payload.
///
/// The context store in `cadel-engine` maps every
/// [`SensorKey`](crate::SensorKey) to its latest `Value`; condition atoms
/// then compare these against rule thresholds.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Value {
    /// A numeric reading with unit (temperature, humidity, volume, …).
    Number(Quantity),
    /// A boolean state (power on/off, door locked, …).
    Bool(bool),
    /// Free text (current TV program title, mode names, …).
    Text(String),
    /// A place (where a person currently is).
    Place(PlaceId),
    /// A wall-clock time of day.
    Time(TimeOfDay),
}

/// The coarse type of a [`Value`], used in error messages and in device
/// state-variable declarations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ValueKind {
    /// [`Value::Number`].
    Number,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Text`].
    Text,
    /// [`Value::Place`].
    Place,
    /// [`Value::Time`].
    Time,
}

impl Value {
    /// The kind of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Number(_) => ValueKind::Number,
            Value::Bool(_) => ValueKind::Bool,
            Value::Text(_) => ValueKind::Text,
            Value::Place(_) => ValueKind::Place,
            Value::Time(_) => ValueKind::Time,
        }
    }

    /// The numeric quantity, if this is a number.
    pub fn as_number(&self) -> Option<&Quantity> {
        match self {
            Value::Number(q) => Some(q),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The text, if this is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The place, if this is a place.
    pub fn as_place(&self) -> Option<&PlaceId> {
        match self {
            Value::Place(p) => Some(p),
            _ => None,
        }
    }

    /// The time of day, if this is a time.
    pub fn as_time(&self) -> Option<TimeOfDay> {
        match self {
            Value::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Case-insensitive text equality — "Baseball Game" matches
    /// "baseball game". Non-text values return `false`.
    pub fn text_matches(&self, other: &str) -> bool {
        self.as_text()
            .map(|t| t.eq_ignore_ascii_case(other.trim()))
            .unwrap_or(false)
    }
}

impl From<Quantity> for Value {
    fn from(q: Quantity) -> Self {
        Value::Number(q)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<PlaceId> for Value {
    fn from(p: PlaceId) -> Self {
        Value::Place(p)
    }
}

impl From<TimeOfDay> for Value {
    fn from(t: TimeOfDay) -> Self {
        Value::Time(t)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(q) => write!(f, "{q}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Text(t) => write!(f, "{t:?}"),
            Value::Place(p) => write!(f, "@{p}"),
            Value::Time(t) => write!(f, "{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unit;

    #[test]
    fn accessors_are_type_safe() {
        let v = Value::Number(Quantity::from_integer(25, Unit::Celsius));
        assert!(v.as_number().is_some());
        assert!(v.as_bool().is_none());
        assert_eq!(v.kind(), ValueKind::Number);

        let v = Value::Bool(true);
        assert_eq!(v.as_bool(), Some(true));
        assert_eq!(v.kind(), ValueKind::Bool);
    }

    #[test]
    fn text_matching_is_case_insensitive() {
        let v = Value::from("Baseball Game");
        assert!(v.text_matches("baseball game"));
        assert!(v.text_matches("  BASEBALL GAME "));
        assert!(!v.text_matches("movie"));
        assert!(!Value::Bool(true).text_matches("true"));
    }

    #[test]
    fn conversions_via_from() {
        assert_eq!(Value::from(true).kind(), ValueKind::Bool);
        assert_eq!(Value::from("tv").kind(), ValueKind::Text);
        assert_eq!(Value::from(PlaceId::new("hall")).kind(), ValueKind::Place);
        assert_eq!(
            Value::from(TimeOfDay::hm(9, 0).unwrap()).kind(),
            ValueKind::Time
        );
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Value::Number(Quantity::from_integer(60, Unit::Percent)).to_string(),
            "60%"
        );
        assert_eq!(Value::from(PlaceId::new("hall")).to_string(), "@hall");
    }
}
