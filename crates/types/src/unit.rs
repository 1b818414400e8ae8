//! Physical units understood by CADEL rules.

use crate::Rational;
use std::fmt;

/// The unit attached to a [`crate::Quantity`].
///
/// CADEL's grammar mentions temperatures (Celsius and Fahrenheit) and
/// percentages explicitly; the remaining units cover the sensors shipped in
/// `cadel-devices` (illuminance, loudness, elapsed time, counts).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[derive(Default)]
pub enum Unit {
    /// Degrees Celsius.
    Celsius,
    /// Degrees Fahrenheit.
    Fahrenheit,
    /// Percentage (relative humidity, brightness, volume, …).
    Percent,
    /// Illuminance in lux.
    Lux,
    /// Sound level in decibels.
    Decibel,
    /// Elapsed time in seconds.
    Seconds,
    /// A dimensionless count (channel numbers, number of people, …).
    Count,
    /// No unit information.
    #[default]
    Unitless,
}

/// The physical dimension a unit measures. Quantities are only comparable
/// when their dimensions match.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Dimension {
    /// Temperature.
    Temperature,
    /// A ratio in percent.
    Ratio,
    /// Illuminance.
    Illuminance,
    /// Sound level.
    SoundLevel,
    /// Elapsed time.
    Time,
    /// Dimensionless numbers.
    Dimensionless,
}

impl Unit {
    /// The dimension this unit measures.
    pub fn dimension(self) -> Dimension {
        match self {
            Unit::Celsius | Unit::Fahrenheit => Dimension::Temperature,
            Unit::Percent => Dimension::Ratio,
            Unit::Lux => Dimension::Illuminance,
            Unit::Decibel => Dimension::SoundLevel,
            Unit::Seconds => Dimension::Time,
            Unit::Count | Unit::Unitless => Dimension::Dimensionless,
        }
    }

    /// The canonical unit used when comparing quantities of this unit's
    /// dimension (Celsius for temperatures, and otherwise the unit itself).
    pub fn canonical(self) -> Unit {
        match self {
            Unit::Fahrenheit => Unit::Celsius,
            Unit::Count => Unit::Unitless,
            other => other,
        }
    }

    /// Converts a value expressed in `self` to the canonical unit of its
    /// dimension.
    pub fn to_canonical(self, value: Rational) -> Rational {
        match self {
            // C = (F - 32) * 5/9, exact in rationals.
            Unit::Fahrenheit => (value - Rational::from_integer(32)) * Rational::new(5, 9),
            _ => value,
        }
    }

    /// Converts a value expressed in the canonical unit back to `self`.
    pub fn from_canonical(self, value: Rational) -> Rational {
        match self {
            Unit::Fahrenheit => value * Rational::new(9, 5) + Rational::from_integer(32),
            _ => value,
        }
    }

    /// The conventional symbol used when displaying quantities.
    pub fn symbol(self) -> &'static str {
        match self {
            Unit::Celsius => "°C",
            Unit::Fahrenheit => "°F",
            Unit::Percent => "%",
            Unit::Lux => "lx",
            Unit::Decibel => "dB",
            Unit::Seconds => "s",
            Unit::Count => "",
            Unit::Unitless => "",
        }
    }

    /// Parses the unit words accepted by the CADEL grammar
    /// (`degrees`, `degrees Celsius`, `percent`, …). Returns `None` for
    /// unknown words. Matching is case-insensitive.
    pub fn from_word(word: &str) -> Option<Unit> {
        match word.to_ascii_lowercase().as_str() {
            "degrees" | "degree" | "celsius" | "c" | "°c" => Some(Unit::Celsius),
            "fahrenheit" | "f" | "°f" => Some(Unit::Fahrenheit),
            "percent" | "%" => Some(Unit::Percent),
            "lux" | "lx" => Some(Unit::Lux),
            "decibels" | "decibel" | "db" => Some(Unit::Decibel),
            "seconds" | "second" | "s" => Some(Unit::Seconds),
            _ => None,
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fahrenheit_converts_exactly() {
        let f = Rational::from_integer(77);
        assert_eq!(Unit::Fahrenheit.to_canonical(f), Rational::from_integer(25));
        let c = Rational::from_integer(25);
        assert_eq!(
            Unit::Fahrenheit.from_canonical(c),
            Rational::from_integer(77)
        );
    }

    #[test]
    fn conversion_round_trips() {
        let v = Rational::new(987, 10);
        let canon = Unit::Fahrenheit.to_canonical(v);
        assert_eq!(Unit::Fahrenheit.from_canonical(canon), v);
    }

    #[test]
    fn dimensions_partition_units() {
        assert_eq!(Unit::Celsius.dimension(), Unit::Fahrenheit.dimension());
        assert_ne!(Unit::Celsius.dimension(), Unit::Percent.dimension());
        assert_eq!(Unit::Count.dimension(), Unit::Unitless.dimension());
    }

    #[test]
    fn canonical_is_idempotent() {
        for u in [
            Unit::Celsius,
            Unit::Fahrenheit,
            Unit::Percent,
            Unit::Lux,
            Unit::Decibel,
            Unit::Seconds,
            Unit::Count,
            Unit::Unitless,
        ] {
            assert_eq!(u.canonical().canonical(), u.canonical());
        }
    }

    #[test]
    fn word_parsing_is_case_insensitive() {
        assert_eq!(Unit::from_word("Degrees"), Some(Unit::Celsius));
        assert_eq!(Unit::from_word("FAHRENHEIT"), Some(Unit::Fahrenheit));
        assert_eq!(Unit::from_word("percent"), Some(Unit::Percent));
        assert_eq!(Unit::from_word("martian"), None);
    }
}
