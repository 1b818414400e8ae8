//! Quantities: exact numeric values paired with a [`Unit`].

use crate::error::ParseQuantityError;
use crate::unit::Dimension;
use crate::{Rational, Unit};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// An exact numeric value with a unit, e.g. `25 °C`, `60 %`, `500 lx`.
///
/// Quantities of the same [`Dimension`] compare by converting both sides to
/// the dimension's canonical unit (Celsius for temperatures), so
/// `77 °F == 25 °C` holds exactly.
///
/// # Example
///
/// ```
/// use cadel_types::{Quantity, Unit, Rational};
///
/// let c = Quantity::new(Rational::from_integer(25), Unit::Celsius);
/// let f: Quantity = "77 fahrenheit".parse().unwrap();
/// assert_eq!(c, f);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Quantity {
    value: Rational,
    unit: Unit,
}

impl Quantity {
    /// Creates a quantity from an exact value and unit.
    pub fn new(value: Rational, unit: Unit) -> Quantity {
        Quantity { value, unit }
    }

    /// Convenience constructor for integer-valued quantities.
    pub fn from_integer(value: i64, unit: Unit) -> Quantity {
        Quantity::new(Rational::from_integer(value), unit)
    }

    /// A dimensionless quantity.
    pub fn unitless(value: Rational) -> Quantity {
        Quantity::new(value, Unit::Unitless)
    }

    /// The numeric value in the quantity's own unit.
    pub fn value(&self) -> Rational {
        self.value
    }

    /// The quantity's unit.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// The dimension of the quantity's unit.
    pub fn dimension(&self) -> Dimension {
        self.unit.dimension()
    }

    /// The value converted to the canonical unit of its dimension
    /// (temperatures in Celsius). This is the representation used by the
    /// constraint solver so that Fahrenheit and Celsius thresholds land in
    /// one coordinate system.
    pub fn canonical_value(&self) -> Rational {
        self.unit.to_canonical(self.value)
    }

    /// Converts to another unit of the same dimension.
    ///
    /// Returns `None` when the dimensions differ.
    pub fn to_unit(&self, unit: Unit) -> Option<Quantity> {
        if self.dimension() != unit.dimension() {
            return None;
        }
        Some(Quantity::new(
            unit.from_canonical(self.canonical_value()),
            unit,
        ))
    }

    /// Whether two quantities can be compared (same dimension).
    pub fn is_comparable_to(&self, other: &Quantity) -> bool {
        self.dimension() == other.dimension()
    }

    /// Approximate `f64` value in the quantity's own unit (simulation and
    /// display only).
    pub fn to_f64(&self) -> f64 {
        self.value.to_f64()
    }
}

impl PartialEq for Quantity {
    fn eq(&self, other: &Quantity) -> bool {
        self.is_comparable_to(other) && self.canonical_value() == other.canonical_value()
    }
}

impl Eq for Quantity {}

impl PartialOrd for Quantity {
    /// Quantities of different dimensions are incomparable and return
    /// `None`.
    fn partial_cmp(&self, other: &Quantity) -> Option<Ordering> {
        if !self.is_comparable_to(other) {
            return None;
        }
        Some(self.canonical_value().cmp(&other.canonical_value()))
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbol = self.unit.symbol();
        if symbol.is_empty() {
            write!(f, "{}", self.value)
        } else {
            write!(f, "{}{}", self.value, symbol)
        }
    }
}

impl FromStr for Quantity {
    type Err = ParseQuantityError;

    /// Parses `"25 degrees"`, `"77 fahrenheit"`, `"60 percent"`, `"25°C"`,
    /// or a bare number (unitless).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseQuantityError::new(s, "empty input"));
        }
        // Try "number unit-word(s)" split on first whitespace.
        if let Some((num, rest)) = s.split_once(char::is_whitespace) {
            let value: Rational = num
                .parse()
                .map_err(|_| ParseQuantityError::new(s, "invalid number"))?;
            let rest = rest.trim();
            // "degrees Celsius" / "degrees Fahrenheit" two-word forms.
            let unit = match rest.to_ascii_lowercase().as_str() {
                "degrees celsius" | "degree celsius" => Unit::Celsius,
                "degrees fahrenheit" | "degree fahrenheit" => Unit::Fahrenheit,
                other => Unit::from_word(other)
                    .ok_or_else(|| ParseQuantityError::new(s, "unknown unit"))?,
            };
            return Ok(Quantity::new(value, unit));
        }
        // Suffixed symbol forms like "25°C" / "60%".
        for (suffix, unit) in [
            ("°c", Unit::Celsius),
            ("°f", Unit::Fahrenheit),
            ("%", Unit::Percent),
            ("lx", Unit::Lux),
            ("db", Unit::Decibel),
        ] {
            let lower = s.to_ascii_lowercase();
            if let Some(num) = lower.strip_suffix(suffix) {
                let value: Rational = num
                    .trim()
                    .parse()
                    .map_err(|_| ParseQuantityError::new(s, "invalid number"))?;
                return Ok(Quantity::new(value, unit));
            }
        }
        let value: Rational = s
            .parse()
            .map_err(|_| ParseQuantityError::new(s, "invalid number"))?;
        Ok(Quantity::unitless(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_unit_equality() {
        let c = Quantity::from_integer(25, Unit::Celsius);
        let f = Quantity::from_integer(77, Unit::Fahrenheit);
        assert_eq!(c, f);
        assert_eq!(f.partial_cmp(&c), Some(Ordering::Equal));
    }

    #[test]
    fn cross_unit_ordering() {
        let c = Quantity::from_integer(26, Unit::Celsius);
        let f = Quantity::from_integer(77, Unit::Fahrenheit); // 25 C
        assert!(c > f);
    }

    #[test]
    fn different_dimensions_are_incomparable() {
        let c = Quantity::from_integer(25, Unit::Celsius);
        let p = Quantity::from_integer(25, Unit::Percent);
        assert_ne!(c, p);
        assert_eq!(c.partial_cmp(&p), None);
        assert!(c.to_unit(Unit::Percent).is_none());
    }

    #[test]
    fn unit_conversion() {
        let c = Quantity::from_integer(100, Unit::Celsius);
        let f = c.to_unit(Unit::Fahrenheit).unwrap();
        assert_eq!(f.value(), Rational::from_integer(212));
        assert_eq!(f.unit(), Unit::Fahrenheit);
    }

    #[test]
    fn parse_word_forms() {
        assert_eq!(
            "25 degrees".parse::<Quantity>().unwrap(),
            Quantity::from_integer(25, Unit::Celsius)
        );
        assert_eq!(
            "77 degrees Fahrenheit".parse::<Quantity>().unwrap(),
            Quantity::from_integer(77, Unit::Fahrenheit)
        );
        assert_eq!(
            "60 percent".parse::<Quantity>().unwrap(),
            Quantity::from_integer(60, Unit::Percent)
        );
        assert_eq!(
            "500 lux".parse::<Quantity>().unwrap(),
            Quantity::from_integer(500, Unit::Lux)
        );
    }

    #[test]
    fn parse_symbol_forms() {
        assert_eq!(
            "25°C".parse::<Quantity>().unwrap(),
            Quantity::from_integer(25, Unit::Celsius)
        );
        assert_eq!(
            "60%".parse::<Quantity>().unwrap(),
            Quantity::from_integer(60, Unit::Percent)
        );
    }

    #[test]
    fn parse_bare_number_is_unitless() {
        let q = "42".parse::<Quantity>().unwrap();
        assert_eq!(q.unit(), Unit::Unitless);
        assert_eq!(q.value(), Rational::from_integer(42));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Quantity>().is_err());
        assert!("hot".parse::<Quantity>().is_err());
        assert!("12 bananas".parse::<Quantity>().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Quantity::from_integer(25, Unit::Celsius).to_string(),
            "25°C"
        );
        assert_eq!(Quantity::from_integer(60, Unit::Percent).to_string(), "60%");
        assert_eq!(
            Quantity::unitless(Rational::from_integer(3)).to_string(),
            "3"
        );
    }

    #[test]
    fn celsius_fahrenheit_round_trip_over_random_readings() {
        let mut rng = crate::Rng::new(0xC0FF);
        for _ in 0..512 {
            let c = Quantity::from_integer(rng.range_i64(-1000, 999), Unit::Celsius);
            let f = c.to_unit(Unit::Fahrenheit).unwrap();
            let back = f.to_unit(Unit::Celsius).unwrap();
            assert_eq!(back.value(), c.value(), "{c}");
        }
    }

    #[test]
    fn comparison_is_unit_invariant_over_random_pairs() {
        let mut rng = crate::Rng::new(0xF00D);
        for _ in 0..512 {
            let ca = Quantity::from_integer(rng.range_i64(-500, 499), Unit::Celsius);
            let cb = Quantity::from_integer(rng.range_i64(-500, 499), Unit::Celsius);
            let fa = ca.to_unit(Unit::Fahrenheit).unwrap();
            assert_eq!(fa.partial_cmp(&cb), ca.partial_cmp(&cb), "{ca} vs {cb}");
        }
    }
}
