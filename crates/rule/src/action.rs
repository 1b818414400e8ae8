//! Actions: the device commands rules issue.

use cadel_types::{DeviceId, Value};
use std::fmt;

/// The verb of a CADEL rule (`<Verb>` in Table 1 of the paper).
///
/// The grammar's open alternative set is filled with the verbs needed by
/// the appliances in `cadel-devices`; anything else can be carried by
/// [`Verb::Custom`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Verb {
    /// "Turn on".
    TurnOn,
    /// "Turn off".
    TurnOff,
    /// "Record" (video recorder).
    Record,
    /// "Play" / "play back".
    Play,
    /// "Stop".
    Stop,
    /// "Lock" (door lock).
    Lock,
    /// "Unlock".
    Unlock,
    /// "Dim" (lights to a low level).
    Dim,
    /// "Brighten" (lights to a high level).
    Brighten,
    /// "Show" (display content on a screen).
    Show,
    /// "Notify" (pop-up / alert).
    Notify,
    /// "Set" (apply configuration settings only).
    Set,
    /// Any other verb, carried verbatim (lower-cased).
    Custom(String),
}

impl Verb {
    /// Parses a verb phrase, case-insensitive ("Turn on", "turn off",
    /// "record", …). Unknown phrases become [`Verb::Custom`].
    pub fn from_phrase(phrase: &str) -> Verb {
        match phrase.trim().to_ascii_lowercase().as_str() {
            "turn on" | "switch on" => Verb::TurnOn,
            "turn off" | "switch off" => Verb::TurnOff,
            "record" => Verb::Record,
            "play" | "play back" => Verb::Play,
            "stop" => Verb::Stop,
            "lock" => Verb::Lock,
            "unlock" => Verb::Unlock,
            "dim" => Verb::Dim,
            "brighten" => Verb::Brighten,
            "show" => Verb::Show,
            "notify" => Verb::Notify,
            "set" => Verb::Set,
            other => Verb::Custom(other.to_owned()),
        }
    }

    /// The canonical phrase for the verb.
    pub fn phrase(&self) -> &str {
        match self {
            Verb::TurnOn => "turn on",
            Verb::TurnOff => "turn off",
            Verb::Record => "record",
            Verb::Play => "play",
            Verb::Stop => "stop",
            Verb::Lock => "lock",
            Verb::Unlock => "unlock",
            Verb::Dim => "dim",
            Verb::Brighten => "brighten",
            Verb::Show => "show",
            Verb::Notify => "notify",
            Verb::Set => "set",
            Verb::Custom(s) => s,
        }
    }

    /// The verb that undoes this one, when one exists. Used by the engine
    /// when an `until`-bounded action expires.
    pub fn inverse(&self) -> Option<Verb> {
        match self {
            Verb::TurnOn => Some(Verb::TurnOff),
            Verb::TurnOff => Some(Verb::TurnOn),
            Verb::Play | Verb::Record => Some(Verb::Stop),
            Verb::Lock => Some(Verb::Unlock),
            Verb::Unlock => Some(Verb::Lock),
            _ => None,
        }
    }
}

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.phrase())
    }
}

/// One configuration setting from a `<Configuration>` clause:
/// "with **25 degrees of temperature setting**".
#[derive(Clone, Debug, PartialEq)]
pub struct Setting {
    parameter: String,
    value: Value,
}

impl Setting {
    /// Creates a setting for `parameter` (normalized to lower case).
    pub fn new(parameter: impl AsRef<str>, value: Value) -> Setting {
        Setting {
            parameter: parameter.as_ref().trim().to_ascii_lowercase(),
            value,
        }
    }

    /// The parameter name ("temperature", "channel", "volume", …).
    pub fn parameter(&self) -> &str {
        &self.parameter
    }

    /// The value to apply.
    pub fn value(&self) -> &Value {
        &self.value
    }
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of {} setting", self.value, self.parameter)
    }
}

/// A fully-resolved device command: verb + target device + settings.
///
/// Two `ActionSpec`s *conflict* when they target the same device but
/// command different behaviour — the situation the paper's conflict check
/// exists to detect (§4.4).
#[derive(Clone, Debug, PartialEq)]
pub struct ActionSpec {
    device: DeviceId,
    verb: Verb,
    settings: Vec<Setting>,
}

impl ActionSpec {
    /// Creates an action with no settings.
    pub fn new(device: DeviceId, verb: Verb) -> ActionSpec {
        ActionSpec {
            device,
            verb,
            settings: Vec::new(),
        }
    }

    /// Adds a configuration setting (builder style).
    #[must_use]
    pub fn with_setting(
        mut self,
        parameter: impl AsRef<str>,
        value: impl Into<Value>,
    ) -> ActionSpec {
        self.settings.push(Setting::new(parameter, value.into()));
        self
    }

    /// The target device.
    pub fn device(&self) -> &DeviceId {
        &self.device
    }

    /// The verb.
    pub fn verb(&self) -> &Verb {
        &self.verb
    }

    /// The configuration settings.
    pub fn settings(&self) -> &[Setting] {
        &self.settings
    }

    /// Looks up a setting by parameter name (case-insensitive).
    pub fn setting(&self, parameter: &str) -> Option<&Value> {
        let p = parameter.trim().to_ascii_lowercase();
        self.settings
            .iter()
            .find(|s| s.parameter == p)
            .map(|s| s.value())
    }

    /// Whether this action commands *different behaviour* on the *same
    /// device* as `other` — the definition of a device conflict between
    /// two simultaneously-enabled rules.
    ///
    /// Same verb and same settings (regardless of setting order) are
    /// compatible; everything else on a shared device conflicts.
    pub fn conflicts_with(&self, other: &ActionSpec) -> bool {
        if self.device != other.device {
            return false;
        }
        if self.verb != other.verb {
            return true;
        }
        if self.settings.len() != other.settings.len() {
            return true;
        }
        // Order-insensitive settings comparison.
        self.settings.iter().any(|s| {
            other
                .setting(s.parameter())
                .map(|v| v != s.value())
                .unwrap_or(true)
        })
    }
}

impl fmt::Display for ActionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.verb, self.device)?;
        if !self.settings.is_empty() {
            f.write_str(" with ")?;
            for (i, s) in self.settings.iter().enumerate() {
                if i > 0 {
                    f.write_str(" and ")?;
                }
                write!(f, "{s}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::{Quantity, Unit};

    fn aircon() -> DeviceId {
        DeviceId::new("aircon")
    }

    #[test]
    fn verb_parsing() {
        assert_eq!(Verb::from_phrase("Turn on"), Verb::TurnOn);
        assert_eq!(Verb::from_phrase("TURN OFF"), Verb::TurnOff);
        assert_eq!(Verb::from_phrase("play back"), Verb::Play);
        assert_eq!(
            Verb::from_phrase("defenestrate"),
            Verb::Custom("defenestrate".into())
        );
    }

    #[test]
    fn verb_inverses() {
        assert_eq!(Verb::TurnOn.inverse(), Some(Verb::TurnOff));
        assert_eq!(Verb::Record.inverse(), Some(Verb::Stop));
        assert_eq!(Verb::Notify.inverse(), None);
    }

    #[test]
    fn settings_lookup_is_case_insensitive() {
        let a = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("Temperature", Quantity::from_integer(25, Unit::Celsius))
            .with_setting("humidity", Quantity::from_integer(60, Unit::Percent));
        assert!(a.setting("TEMPERATURE").is_some());
        assert!(a.setting("channel").is_none());
        assert_eq!(a.settings().len(), 2);
    }

    #[test]
    fn same_action_does_not_conflict() {
        let a = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius))
            .with_setting("humidity", Quantity::from_integer(60, Unit::Percent));
        // Same settings in a different order.
        let b = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("humidity", Quantity::from_integer(60, Unit::Percent))
            .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius));
        assert!(!a.conflicts_with(&b));
        assert!(!b.conflicts_with(&a));
    }

    #[test]
    fn different_settings_conflict() {
        // Tom wants 25°C, Alan wants 24°C — the paper's central example.
        let tom = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius));
        let alan = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("temperature", Quantity::from_integer(24, Unit::Celsius));
        assert!(tom.conflicts_with(&alan));
    }

    #[test]
    fn different_verbs_conflict() {
        let on = ActionSpec::new(aircon(), Verb::TurnOn);
        let off = ActionSpec::new(aircon(), Verb::TurnOff);
        assert!(on.conflicts_with(&off));
    }

    #[test]
    fn different_devices_never_conflict() {
        let tv = ActionSpec::new(DeviceId::new("tv"), Verb::TurnOn);
        let stereo = ActionSpec::new(DeviceId::new("stereo"), Verb::TurnOn);
        assert!(!tv.conflicts_with(&stereo));
    }

    #[test]
    fn missing_setting_conflicts() {
        let with = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius));
        let without = ActionSpec::new(aircon(), Verb::TurnOn);
        assert!(with.conflicts_with(&without));
        assert!(without.conflicts_with(&with));
    }

    #[test]
    fn display() {
        let a = ActionSpec::new(aircon(), Verb::TurnOn)
            .with_setting("temperature", Quantity::from_integer(25, Unit::Celsius));
        assert_eq!(
            a.to_string(),
            "turn on aircon with 25°C of temperature setting"
        );
    }
}
