//! Declarative environment-channel effects of device actions.
//!
//! Two rules can fight without ever touching the same device: a heater
//! that drives *temperature up* and an air conditioner that drives
//! *temperature down* interfere through the room, not through a UPnP
//! target. The [`EnvTable`] makes that physics explicit and cheap: a
//! small declarative map from *(device keyword, verb)* to the
//! environment channels the action moves (and any event channels it
//! raises), consulted by the conflict graph when classifying
//! cross-device environmental conflicts and action→sensor feedback
//! edges.
//!
//! Channel names are sensor variable names ("temperature", "humidity",
//! "luminance"), so an effect links directly to the constraint atoms
//! other rules read.

use cadel_rule::{ActionSpec, Verb};
use std::fmt;

/// Direction an action pushes an environment channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnvDirection {
    /// The action raises the channel (heater on → temperature up).
    Up,
    /// The action lowers the channel (window open → temperature down).
    Down,
}

impl EnvDirection {
    /// Whether two directions pull the same channel apart.
    pub fn opposes(self, other: EnvDirection) -> bool {
        self != other
    }

    /// The one direction that opposes this one.
    pub fn opposite(self) -> EnvDirection {
        match self {
            EnvDirection::Up => EnvDirection::Down,
            EnvDirection::Down => EnvDirection::Up,
        }
    }
}

impl fmt::Display for EnvDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EnvDirection::Up => "up",
            EnvDirection::Down => "down",
        })
    }
}

/// One table entry: actions on devices whose id contains `keyword`
/// (case-insensitive) with this exact verb move `effects` and raise
/// `raises`.
#[derive(Clone, Debug)]
struct EnvEntry {
    keyword: String,
    verb: Verb,
    effects: Vec<(String, EnvDirection)>,
    raises: Vec<String>,
}

/// The declarative environment-channel table.
///
/// Lookup is first-match over the entry list, so more specific keywords
/// ("dehumidifier") must be registered before the generic ones they
/// contain ("humidifier") — [`EnvTable::default_home`] is ordered that
/// way.
#[derive(Clone, Debug, Default)]
pub struct EnvTable {
    entries: Vec<EnvEntry>,
}

impl EnvTable {
    /// An empty table: no action has environmental effects.
    pub fn empty() -> EnvTable {
        EnvTable::default()
    }

    /// The built-in home-appliance table: heaters, air conditioners,
    /// fans, windows, (de)humidifiers and lights.
    pub fn default_home() -> EnvTable {
        let up = EnvDirection::Up;
        let down = EnvDirection::Down;
        EnvTable::empty()
            .with_entry("heater", Verb::TurnOn, &[("temperature", up)], &[])
            .with_entry("radiator", Verb::TurnOn, &[("temperature", up)], &[])
            .with_entry(
                "aircon",
                Verb::TurnOn,
                &[("temperature", down), ("humidity", down)],
                &[],
            )
            .with_entry(
                "air conditioner",
                Verb::TurnOn,
                &[("temperature", down), ("humidity", down)],
                &[],
            )
            .with_entry("fan", Verb::TurnOn, &[("temperature", down)], &[])
            .with_entry(
                "window",
                Verb::Custom("open".to_owned()),
                &[("temperature", down)],
                &[],
            )
            .with_entry("window", Verb::TurnOn, &[("temperature", down)], &[])
            .with_entry("window", Verb::Unlock, &[("temperature", down)], &[])
            // "dehumidifier" contains "humidifier": specific first.
            .with_entry("dehumidifier", Verb::TurnOn, &[("humidity", down)], &[])
            .with_entry("humidifier", Verb::TurnOn, &[("humidity", up)], &[])
            .with_entry("lamp", Verb::TurnOn, &[("luminance", up)], &[])
            .with_entry("lamp", Verb::Brighten, &[("luminance", up)], &[])
            .with_entry("lamp", Verb::Dim, &[("luminance", down)], &[])
            .with_entry("lamp", Verb::TurnOff, &[("luminance", down)], &[])
            .with_entry("light", Verb::TurnOn, &[("luminance", up)], &[])
            .with_entry("light", Verb::Brighten, &[("luminance", up)], &[])
            .with_entry("light", Verb::Dim, &[("luminance", down)], &[])
            .with_entry("light", Verb::TurnOff, &[("luminance", down)], &[])
            .with_entry("fluorescent", Verb::TurnOn, &[("luminance", up)], &[])
            .with_entry("fluorescent", Verb::Brighten, &[("luminance", up)], &[])
            .with_entry("fluorescent", Verb::Dim, &[("luminance", down)], &[])
    }

    /// Appends one entry (builder form). `keyword` is matched as a
    /// case-insensitive substring of the actuated device id; `effects`
    /// pairs channel names with directions; `raises` lists event
    /// channels the action raises (feeding event-triggered rules).
    pub fn with_entry(
        mut self,
        keyword: &str,
        verb: Verb,
        effects: &[(&str, EnvDirection)],
        raises: &[&str],
    ) -> EnvTable {
        self.entries.push(EnvEntry {
            keyword: keyword.to_ascii_lowercase(),
            verb,
            effects: effects
                .iter()
                .map(|(c, d)| (c.to_ascii_lowercase(), *d))
                .collect(),
            raises: raises.iter().map(|c| c.to_ascii_lowercase()).collect(),
        });
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entry_for(&self, action: &ActionSpec) -> Option<&EnvEntry> {
        let device = action.device().as_str().to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.verb == *action.verb() && device.contains(&e.keyword))
    }

    /// The environment channels this action moves, with directions.
    /// Empty when the table has no matching entry.
    pub fn effects_of(&self, action: &ActionSpec) -> &[(String, EnvDirection)] {
        self.entry_for(action).map_or(&[], |e| e.effects.as_slice())
    }

    /// The event channels this action raises per the table.
    pub fn raised_channels(&self, action: &ActionSpec) -> &[String] {
        self.entry_for(action).map_or(&[], |e| e.raises.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_types::DeviceId;

    fn action(device: &str, verb: Verb) -> ActionSpec {
        ActionSpec::new(DeviceId::new(device), verb)
    }

    #[test]
    fn heater_and_aircon_oppose_on_temperature() {
        let table = EnvTable::default_home();
        let heat = table.effects_of(&action("bedroom-heater", Verb::TurnOn));
        let cool = table.effects_of(&action("aircon-2", Verb::TurnOn));
        assert_eq!(heat, &[("temperature".to_owned(), EnvDirection::Up)]);
        assert_eq!(cool[0].0, "temperature");
        assert!(heat[0].1.opposes(cool[0].1));
    }

    #[test]
    fn dehumidifier_wins_over_humidifier_substring() {
        let table = EnvTable::default_home();
        let effects = table.effects_of(&action("hall-dehumidifier", Verb::TurnOn));
        assert_eq!(effects, &[("humidity".to_owned(), EnvDirection::Down)]);
    }

    #[test]
    fn window_open_lowers_temperature() {
        let table = EnvTable::default_home();
        let effects = table.effects_of(&action("window-south", Verb::from_phrase("open")));
        assert_eq!(effects, &[("temperature".to_owned(), EnvDirection::Down)]);
    }

    #[test]
    fn unknown_actions_have_no_effects() {
        let table = EnvTable::default_home();
        assert!(table.effects_of(&action("stereo", Verb::Play)).is_empty());
        assert!(table
            .raised_channels(&action("stereo", Verb::Play))
            .is_empty());
    }

    #[test]
    fn custom_entries_declare_raised_channels() {
        let table = EnvTable::empty().with_entry("doorbell", Verb::Notify, &[], &["chime"]);
        let raised = table.raised_channels(&action("front-doorbell", Verb::Notify));
        assert_eq!(raised, &["chime".to_owned()]);
    }
}
