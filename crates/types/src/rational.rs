//! Exact rational arithmetic.
//!
//! Conflict detection in the CADEL framework decides satisfiability of
//! conjunctions of linear inequalities (paper §4.4). Floating point would
//! make those verdicts tolerance-dependent, so every numeric literal parsed
//! from a rule is kept as an exact [`Rational`] and the simplex solver in
//! `cadel-simplex` computes over rationals end to end.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::error::ParseRationalError;

/// An exact rational number `numer / denom` stored in lowest terms with a
/// strictly positive denominator.
///
/// Arithmetic uses `i128` intermediates and reduces aggressively; the range
/// is far beyond anything a home-automation rule can produce (sensor
/// readings, set-points, percentages).
///
/// # Example
///
/// ```
/// use cadel_types::Rational;
///
/// let third: Rational = "1/3".parse().unwrap();
/// let dec: Rational = "0.5".parse().unwrap();
/// assert_eq!(third + dec, Rational::new(5, 6));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    numer: i128,
    denom: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { numer: 0, denom: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { numer: 1, denom: 1 };

    /// Creates a rational from a numerator and denominator, reducing to
    /// lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn new(numer: i128, denom: i128) -> Rational {
        assert!(denom != 0, "rational denominator must be non-zero");
        let g = gcd(numer, denom);
        let sign = if denom < 0 { -1 } else { 1 };
        if g == 0 {
            return Rational::ZERO;
        }
        Rational {
            numer: sign * numer / g,
            denom: sign * denom / g,
        }
    }

    /// Creates a rational from an integer.
    pub const fn from_integer(n: i64) -> Rational {
        Rational {
            numer: n as i128,
            denom: 1,
        }
    }

    /// The numerator in lowest terms (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.numer
    }

    /// The denominator in lowest terms (always positive).
    pub fn denom(&self) -> i128 {
        self.denom
    }

    /// Returns `true` when the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.numer == 0
    }

    /// Returns `true` when the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.numer > 0
    }

    /// Returns `true` when the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.numer < 0
    }

    /// Returns `true` when the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.denom == 1
    }

    /// The sign of the value: `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match self.numer.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }

    /// Absolute value.
    pub fn abs(self) -> Rational {
        Rational {
            numer: self.numer.abs(),
            denom: self.denom,
        }
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Rational {
        assert!(self.numer != 0, "cannot invert zero");
        Rational::new(self.denom, self.numer)
    }

    /// Converts to the nearest `f64` (for display and simulation only —
    /// never used in satisfiability decisions).
    pub fn to_f64(&self) -> f64 {
        self.numer as f64 / self.denom as f64
    }

    /// Approximates an `f64` as a rational with denominator up to `10^6`.
    ///
    /// Used when a simulated sensor reading (an `f64`) must be compared
    /// against exact rule thresholds. Returns `None` for non-finite input.
    pub fn approximate_f64(x: f64) -> Option<Rational> {
        if !x.is_finite() {
            return None;
        }
        const SCALE: f64 = 1_000_000.0;
        let scaled = (x * SCALE).round();
        if scaled.abs() >= i128::MAX as f64 / 2.0 {
            return None;
        }
        Some(Rational::new(scaled as i128, 1_000_000))
    }

    /// Checked addition, returning `None` on `i128` overflow.
    pub fn checked_add(self, other: Rational) -> Option<Rational> {
        let n = self
            .numer
            .checked_mul(other.denom)?
            .checked_add(other.numer.checked_mul(self.denom)?)?;
        let d = self.denom.checked_mul(other.denom)?;
        Some(Rational::new(n, d))
    }

    /// Checked subtraction, returning `None` on `i128` overflow.
    pub fn checked_sub(self, other: Rational) -> Option<Rational> {
        self.checked_add(-other)
    }

    /// Checked multiplication, returning `None` on `i128` overflow.
    pub fn checked_mul(self, other: Rational) -> Option<Rational> {
        // Cross-reduce first to keep the intermediates small.
        let g1 = gcd(self.numer, other.denom).max(1);
        let g2 = gcd(other.numer, self.denom).max(1);
        let n = (self.numer / g1).checked_mul(other.numer / g2)?;
        let d = (self.denom / g2).checked_mul(other.denom / g1)?;
        Some(Rational::new(n, d))
    }

    /// Checked division, returning `None` on overflow or division by zero.
    pub fn checked_div(self, other: Rational) -> Option<Rational> {
        if other.is_zero() {
            return None;
        }
        self.checked_mul(other.recip())
    }

    /// Minimum of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_integer(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_integer(n as i64)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, other: Rational) -> Rational {
        self.checked_add(other).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, other: Rational) -> Rational {
        self.checked_sub(other)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, other: Rational) -> Rational {
        self.checked_mul(other)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, other: Rational) -> Rational {
        self.checked_div(other)
            .expect("rational division overflow or by zero")
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            numer: -self.numer,
            denom: self.denom,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, other: Rational) {
        *self = *self + other;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, other: Rational) {
        *self = *self - other;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, other: Rational) {
        *self = *self * other;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, other: Rational) {
        *self = *self / other;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // denom > 0 invariant makes cross-multiplication order-preserving.
        let lhs = self.numer.checked_mul(other.denom);
        let rhs = other.numer.checked_mul(self.denom);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            // Fall back to f64 comparison only on overflow, which the
            // reduced representations of rule constants cannot reach.
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.denom == 1 {
            write!(f, "{}", self.numer)
        } else {
            write!(f, "{}/{}", self.numer, self.denom)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"3"`, `"-3"`, `"3/4"` or decimal `"3.25"` forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseRationalError::new(s));
        }
        if let Some((n, d)) = s.split_once('/') {
            let numer: i128 = n.trim().parse().map_err(|_| ParseRationalError::new(s))?;
            let denom: i128 = d.trim().parse().map_err(|_| ParseRationalError::new(s))?;
            if denom == 0 {
                return Err(ParseRationalError::new(s));
            }
            return Ok(Rational::new(numer, denom));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: i128 = if int_part == "-" || int_part.is_empty() {
                0
            } else {
                int_part.parse().map_err(|_| ParseRationalError::new(s))?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseRationalError::new(s));
            }
            if frac_part.len() > 18 {
                return Err(ParseRationalError::new(s));
            }
            let frac: i128 = frac_part.parse().map_err(|_| ParseRationalError::new(s))?;
            let scale = 10i128.pow(frac_part.len() as u32);
            let magnitude = int.abs() * scale + frac;
            let numer = if negative { -magnitude } else { magnitude };
            return Ok(Rational::new(numer, scale));
        }
        let n: i128 = s.parse().map_err(|_| ParseRationalError::new(s))?;
        Ok(Rational::new(n, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Rational::new(4, 8);
        assert_eq!(r.numer(), 1);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn normalizes_negative_denominator() {
        let r = Rational::new(3, -6);
        assert_eq!(r.numer(), -1);
        assert_eq!(r.denom(), 2);
    }

    #[test]
    fn zero_has_canonical_form() {
        let r = Rational::new(0, -17);
        assert_eq!(r, Rational::ZERO);
        assert_eq!(r.denom(), 1);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from_integer(2));
        assert_eq!(-a, Rational::new(-1, 3));
    }

    #[test]
    fn ordering_matches_real_numbers() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 2) > Rational::from_integer(3));
    }

    #[test]
    fn parses_integer_fraction_and_decimal() {
        assert_eq!(
            "42".parse::<Rational>().unwrap(),
            Rational::from_integer(42)
        );
        assert_eq!(
            "-7".parse::<Rational>().unwrap(),
            Rational::from_integer(-7)
        );
        assert_eq!("3/4".parse::<Rational>().unwrap(), Rational::new(3, 4));
        assert_eq!("0.25".parse::<Rational>().unwrap(), Rational::new(1, 4));
        assert_eq!("-1.5".parse::<Rational>().unwrap(), Rational::new(-3, 2));
        assert_eq!(".5".parse::<Rational>().unwrap(), Rational::new(1, 2));
    }

    #[test]
    fn rejects_malformed_strings() {
        for bad in ["", "abc", "1/0", "1.2.3", "1.", "--3", "1/ a"] {
            assert!(bad.parse::<Rational>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        for s in ["5", "-5", "1/3", "-2/7"] {
            let r: Rational = s.parse().unwrap();
            assert_eq!(r.to_string(), s);
            assert_eq!(r.to_string().parse::<Rational>().unwrap(), r);
        }
    }

    #[test]
    fn recip_inverts() {
        assert_eq!(Rational::new(3, 4).recip(), Rational::new(4, 3));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn approximate_f64_is_close() {
        let r = Rational::approximate_f64(0.1).unwrap();
        assert!((r.to_f64() - 0.1).abs() < 1e-6);
        assert!(Rational::approximate_f64(f64::NAN).is_none());
        assert!(Rational::approximate_f64(f64::INFINITY).is_none());
    }

    /// A seeded stream of small rationals (numerator in [-1000, 999],
    /// denominator in [1, 999]).
    fn small_rationals(seed: u64) -> impl FnMut() -> Rational {
        let mut rng = crate::Rng::new(seed);
        move || {
            let n = rng.range_i64(-1000, 999) as i128;
            let d = rng.range_i64(1, 999) as i128;
            Rational::new(n, d)
        }
    }

    #[test]
    fn field_laws_hold_over_random_rationals() {
        let mut next = small_rationals(0x5EED);
        for _ in 0..512 {
            let (a, b, c) = (next(), next(), next());
            assert_eq!(a + b, b + a, "commutativity: {a}, {b}");
            assert_eq!((a + b) + c, a + (b + c), "associativity: {a}, {b}, {c}");
            assert_eq!(a * (b + c), a * b + a * c, "distributivity: {a}, {b}, {c}");
            assert_eq!(a + b - b, a, "inverse: {a}, {b}");
        }
    }

    #[test]
    fn ordering_agrees_with_f64_over_random_rationals() {
        let mut next = small_rationals(0x0DE5);
        for _ in 0..512 {
            let (a, b) = (next(), next());
            if (a.to_f64() - b.to_f64()).abs() > 1e-9 {
                assert_eq!(a < b, a.to_f64() < b.to_f64(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn random_rationals_are_in_lowest_terms() {
        let mut next = small_rationals(0x10E5);
        for _ in 0..512 {
            let a = next();
            let g = super::gcd(a.numer(), a.denom());
            assert!(g == 1 || a.numer() == 0, "{a}");
            assert!(a.denom() > 0, "{a}");
        }
    }
}
