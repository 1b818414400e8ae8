//! Identifier newtypes.
//!
//! Every entity in the framework — people, devices, services, rules,
//! sensor-observable variables and user-defined vocabulary words — gets a
//! distinct newtype so identifiers cannot be mixed up across subsystems
//! (C-NEWTYPE).

use std::fmt;

macro_rules! string_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(String);

        impl $name {
            /// Creates a new identifier from any string-like value.
            pub fn new(value: impl Into<String>) -> Self {
                $name(value.into())
            }

            /// The identifier as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(value: &str) -> Self {
                $name(value.to_owned())
            }
        }

        impl From<String> for $name {
            fn from(value: String) -> Self {
                $name(value)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }
    };
}

string_id! {
    /// Identifies a person (home occupant) — in the paper, the holder of an
    /// RFID tag ("Tom", "Alan", "Emily").
    PersonId
}

string_id! {
    /// Identifies a concrete device instance. In the UPnP substrate this is
    /// the device's UDN; friendly names map to it through the registry.
    DeviceId
}

string_id! {
    /// Identifies a service hosted by a device (UPnP service id).
    ServiceId
}

string_id! {
    /// A word a user defined through CADEL's `<CondDef>` / `<ConfDef>`
    /// ("hot and stuffy", "half-lighting"). Stored lower-cased by the
    /// dictionary so lookups are case-insensitive.
    UserDefinedWord
}

/// Identifies a registered rule. Allocated sequentially by the rule
/// database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RuleId(u64);

impl RuleId {
    /// Creates a rule id from its raw integer.
    pub const fn new(raw: u64) -> RuleId {
        RuleId(raw)
    }

    /// The raw integer value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The next sequential id.
    pub const fn next(self) -> RuleId {
        RuleId(self.0 + 1)
    }
}

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RuleId({})", self.0)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

/// A sensor-observable variable: a `(device, variable)` pair such as
/// `(thermometer-livingroom, temperature)`.
///
/// Conditions in rule objects constrain `SensorKey`s; the engine's context
/// store maps each key to its latest [`crate::Value`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorKey {
    device: DeviceId,
    variable: String,
}

impl SensorKey {
    /// Creates a sensor key for `variable` exposed by `device`.
    pub fn new(device: DeviceId, variable: impl Into<String>) -> SensorKey {
        SensorKey {
            device,
            variable: variable.into(),
        }
    }

    /// The device exposing the variable.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The variable name within the device.
    pub fn variable(&self) -> &str {
        &self.variable
    }
}

impl fmt::Debug for SensorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SensorKey({}.{})", self.device, self.variable)
    }
}

impl fmt::Display for SensorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.device, self.variable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn string_ids_compare_by_content() {
        assert_eq!(PersonId::new("tom"), PersonId::from("tom"));
        assert_ne!(PersonId::new("tom"), PersonId::new("alan"));
    }

    #[test]
    fn ids_are_hashable() {
        let mut set = HashSet::new();
        set.insert(DeviceId::new("tv"));
        set.insert(DeviceId::new("tv"));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn rule_id_sequencing() {
        let id = RuleId::new(7);
        assert_eq!(id.next().raw(), 8);
        assert_eq!(id.to_string(), "rule#7");
    }

    #[test]
    fn sensor_key_accessors() {
        let key = SensorKey::new(DeviceId::new("thermo-1"), "temperature");
        assert_eq!(key.device().as_str(), "thermo-1");
        assert_eq!(key.variable(), "temperature");
        assert_eq!(key.to_string(), "thermo-1.temperature");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", DeviceId::new("")).is_empty());
        assert!(!format!("{:?}", RuleId::default()).is_empty());
    }
}
