//! Rationals extended with a symbolic infinitesimal ε.
//!
//! A strict inequality `e < b` over the rationals is satisfiable exactly
//! when `e ≤ b − ε` is satisfiable for *some* (equivalently, all
//! sufficiently small) ε > 0. Representing bounds as `a + b·ε` with ε a
//! formal infinitesimal lets the solver treat strict and non-strict
//! inequalities uniformly and still return exact verdicts — the standard
//! technique from Simplex-based SMT solvers.

use cadel_types::Rational;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

use crate::SolveError;

/// A number of the form `real + eps·ε` where ε is a positive infinitesimal.
///
/// Ordering is lexicographic: the real parts dominate and the ε parts break
/// ties, which is exactly the ordering of `a + bε` for all sufficiently
/// small ε > 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EpsRational {
    real: Rational,
    eps: Rational,
}

impl EpsRational {
    /// Zero.
    pub const ZERO: EpsRational = EpsRational {
        real: Rational::ZERO,
        eps: Rational::ZERO,
    };

    /// The infinitesimal ε itself.
    pub const EPSILON: EpsRational = EpsRational {
        real: Rational::ZERO,
        eps: Rational::ONE,
    };

    /// Creates `real + eps·ε`.
    pub fn new(real: Rational, eps: Rational) -> EpsRational {
        EpsRational { real, eps }
    }

    /// Creates a purely real value.
    pub fn from_rational(real: Rational) -> EpsRational {
        EpsRational {
            real,
            eps: Rational::ZERO,
        }
    }

    /// The real (standard) part.
    pub fn real(&self) -> Rational {
        self.real
    }

    /// The coefficient of ε.
    pub fn eps(&self) -> Rational {
        self.eps
    }

    /// Whether this is exactly zero (both parts).
    pub fn is_zero(&self) -> bool {
        self.real.is_zero() && self.eps.is_zero()
    }

    /// Whether the value is `> 0` (for all small ε > 0).
    pub fn is_positive(&self) -> bool {
        self.real.is_positive() || (self.real.is_zero() && self.eps.is_positive())
    }

    /// Whether the value is `< 0` (for all small ε > 0).
    pub fn is_negative(&self) -> bool {
        self.real.is_negative() || (self.real.is_zero() && self.eps.is_negative())
    }

    /// Multiplies by a rational scalar.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Overflow`] on `i128` overflow.
    pub fn scale(self, k: Rational) -> Result<EpsRational, SolveError> {
        Ok(EpsRational {
            real: self.real.checked_mul(k).ok_or(SolveError::Overflow)?,
            eps: self.eps.checked_mul(k).ok_or(SolveError::Overflow)?,
        })
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Overflow`] on `i128` overflow.
    pub fn checked_add(self, other: EpsRational) -> Result<EpsRational, SolveError> {
        Ok(EpsRational {
            real: self
                .real
                .checked_add(other.real)
                .ok_or(SolveError::Overflow)?,
            eps: self
                .eps
                .checked_add(other.eps)
                .ok_or(SolveError::Overflow)?,
        })
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Overflow`] on `i128` overflow.
    pub fn checked_sub(self, other: EpsRational) -> Result<EpsRational, SolveError> {
        self.checked_add(-other)
    }

    /// Substitutes a concrete positive rational for ε.
    pub fn substitute(self, epsilon: Rational) -> Rational {
        self.real + self.eps * epsilon
    }
}

impl From<Rational> for EpsRational {
    fn from(r: Rational) -> Self {
        EpsRational::from_rational(r)
    }
}

impl Add for EpsRational {
    type Output = EpsRational;
    fn add(self, other: EpsRational) -> EpsRational {
        EpsRational {
            real: self.real + other.real,
            eps: self.eps + other.eps,
        }
    }
}

impl Sub for EpsRational {
    type Output = EpsRational;
    fn sub(self, other: EpsRational) -> EpsRational {
        EpsRational {
            real: self.real - other.real,
            eps: self.eps - other.eps,
        }
    }
}

impl Neg for EpsRational {
    type Output = EpsRational;
    fn neg(self) -> EpsRational {
        EpsRational {
            real: -self.real,
            eps: -self.eps,
        }
    }
}

impl AddAssign for EpsRational {
    fn add_assign(&mut self, other: EpsRational) {
        *self = *self + other;
    }
}

impl SubAssign for EpsRational {
    fn sub_assign(&mut self, other: EpsRational) {
        *self = *self - other;
    }
}

impl PartialOrd for EpsRational {
    fn partial_cmp(&self, other: &EpsRational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EpsRational {
    fn cmp(&self, other: &EpsRational) -> Ordering {
        self.real
            .cmp(&other.real)
            .then_with(|| self.eps.cmp(&other.eps))
    }
}

impl fmt::Debug for EpsRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.eps.is_zero() {
            write!(f, "{}", self.real)
        } else if self.real.is_zero() {
            write!(f, "{}ε", self.eps)
        } else {
            write!(
                f,
                "{}{}{}ε",
                self.real,
                if self.eps.is_negative() { "" } else { "+" },
                self.eps
            )
        }
    }
}

impl fmt::Display for EpsRational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_integer(n)
    }

    #[test]
    fn ordering_is_lexicographic() {
        let five = EpsRational::from_rational(r(5));
        let five_minus = five - EpsRational::EPSILON;
        let five_plus = five + EpsRational::EPSILON;
        assert!(five_minus < five);
        assert!(five < five_plus);
        assert!(five_minus < five_plus);
        // Real part dominates any ε coefficient.
        let four_plus_huge_eps = EpsRational::new(r(4), r(1_000_000));
        assert!(four_plus_huge_eps < five_minus);
    }

    #[test]
    fn sign_predicates() {
        assert!(EpsRational::EPSILON.is_positive());
        assert!((-EpsRational::EPSILON).is_negative());
        assert!(EpsRational::ZERO.is_zero());
        assert!(!EpsRational::ZERO.is_positive());
        assert!(EpsRational::new(r(-1), r(100)).is_negative());
    }

    #[test]
    fn arithmetic() {
        let a = EpsRational::new(r(2), r(1));
        let b = EpsRational::new(r(3), r(-1));
        assert_eq!(a + b, EpsRational::from_rational(r(5)));
        assert_eq!(a - b, EpsRational::new(r(-1), r(2)));
        assert_eq!(a.scale(r(3)).unwrap(), EpsRational::new(r(6), r(3)));
        assert_eq!(-a, EpsRational::new(r(-2), r(-1)));
    }

    #[test]
    fn substitution_recovers_concrete_value() {
        let v = EpsRational::new(r(5), r(-2));
        assert_eq!(v.substitute(Rational::new(1, 4)), Rational::new(9, 2));
    }

    #[test]
    fn display_forms() {
        assert_eq!(EpsRational::from_rational(r(3)).to_string(), "3");
        assert_eq!(EpsRational::EPSILON.to_string(), "1ε");
        assert_eq!(EpsRational::new(r(2), r(-1)).to_string(), "2-1ε");
    }

    /// A seeded stream of small symbolic values `a + bε`, a and b in
    /// [-100, 99].
    fn small_values(seed: u64) -> impl FnMut() -> EpsRational {
        let mut rng = cadel_types::Rng::new(seed);
        move || EpsRational::new(r(rng.range_i64(-100, 99)), r(rng.range_i64(-100, 99)))
    }

    #[test]
    fn order_matches_small_epsilon_substitution() {
        // For ε = 1/10^6 (smaller than any ratio formed from the bounded
        // coefficients), the symbolic order equals the concrete order.
        let eps = Rational::new(1, 1_000_000);
        let mut next = small_values(0xE95);
        for _ in 0..512 {
            let (a, b) = (next(), next());
            assert_eq!(
                a.cmp(&b),
                a.substitute(eps).cmp(&b.substitute(eps)),
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn add_sub_round_trips() {
        let mut next = small_values(0xADD);
        for _ in 0..512 {
            let (a, b) = (next(), next());
            assert_eq!(a + b - b, a, "{a}, {b}");
        }
    }
}
