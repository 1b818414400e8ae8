//! Linear expressions over solver variables.

use cadel_types::Rational;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A dense index identifying a solver variable.
///
/// Upstream crates (conflict checking) maintain the mapping from
/// [`SensorKey`](cadel_types::SensorKey)s to `VarId`s; the solver only sees
/// indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable id from its raw index.
    pub const fn new(index: u32) -> VarId {
        VarId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A linear expression `Σ cᵢ·xᵢ` with exact rational coefficients.
///
/// Zero coefficients are never stored, so `num_terms` reflects the true
/// support of the expression.
///
/// # Example
///
/// ```
/// use cadel_simplex::{LinExpr, VarId};
/// use cadel_types::Rational;
///
/// let x = VarId::new(0);
/// let y = VarId::new(1);
/// let e = LinExpr::var(x) * Rational::from_integer(2) + LinExpr::var(y);
/// assert_eq!(e.num_terms(), 2);
/// assert_eq!(e.coefficient(x), Rational::from_integer(2));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    terms: BTreeMap<VarId, Rational>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> LinExpr {
        LinExpr::default()
    }

    /// The expression consisting of a single variable with coefficient one.
    pub fn var(v: VarId) -> LinExpr {
        LinExpr::term(v, Rational::ONE)
    }

    /// The expression `c·v`.
    pub fn term(v: VarId, c: Rational) -> LinExpr {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(v, c);
        }
        LinExpr { terms }
    }

    /// Builds an expression from `(variable, coefficient)` pairs; repeated
    /// variables accumulate.
    pub fn from_terms(pairs: impl IntoIterator<Item = (VarId, Rational)>) -> LinExpr {
        let mut e = LinExpr::zero();
        for (v, c) in pairs {
            e.add_term(v, c);
        }
        e
    }

    /// Adds `c·v` into the expression.
    pub fn add_term(&mut self, v: VarId, c: Rational) {
        if c.is_zero() {
            return;
        }
        let entry = self.terms.entry(v).or_insert(Rational::ZERO);
        *entry += c;
        if entry.is_zero() {
            self.terms.remove(&v);
        }
    }

    /// The coefficient of `v` (zero when absent).
    pub fn coefficient(&self, v: VarId) -> Rational {
        self.terms.get(&v).copied().unwrap_or(Rational::ZERO)
    }

    /// The number of variables with non-zero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Rational)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// The largest variable index mentioned, if any.
    pub fn max_var(&self) -> Option<VarId> {
        self.terms.keys().next_back().copied()
    }

    /// Returns the expression with every variable replaced through `f`
    /// (coefficients of variables mapped to the same target accumulate).
    ///
    /// Used when embedding a constraint system built over local variable
    /// indices into a larger shared system (conflict checking merges two
    /// rules' precompiled systems this way).
    pub fn map_vars(&self, mut f: impl FnMut(VarId) -> VarId) -> LinExpr {
        LinExpr::from_terms(self.iter().map(|(v, c)| (f(v), c)))
    }

    /// Evaluates the expression under an assignment (missing variables are
    /// zero).
    pub fn evaluate(&self, assignment: &[Rational]) -> Rational {
        let mut acc = Rational::ZERO;
        for (v, c) in self.iter() {
            let x = assignment.get(v.index()).copied().unwrap_or(Rational::ZERO);
            acc += c * x;
        }
        acc
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, other: LinExpr) -> LinExpr {
        for (v, c) in other.iter() {
            self.add_term(v, c);
        }
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, other: LinExpr) -> LinExpr {
        self + (-other)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for c in self.terms.values_mut() {
            *c = -*c;
        }
        self
    }
}

impl Mul<Rational> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: Rational) -> LinExpr {
        if k.is_zero() {
            return LinExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        for (i, (v, c)) in self.iter().enumerate() {
            if i == 0 {
                if c == Rational::ONE {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}·{v}")?;
                }
            } else if c == Rational::ONE {
                write!(f, " + {v}")?;
            } else if c.is_negative() {
                write!(f, " - {}·{v}", -c)?;
            } else {
                write!(f, " + {c}·{v}")?;
            }
        }
        Ok(())
    }
}

impl fmt::Display for LinExpr {
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
    fn zero_coefficients_are_not_stored() {
        let mut e = LinExpr::var(VarId::new(0));
        e.add_term(VarId::new(0), r(-1));
        assert!(e.is_zero());
        assert_eq!(e.num_terms(), 0);
        assert_eq!(LinExpr::term(VarId::new(3), r(0)).num_terms(), 0);
    }

    #[test]
    fn accumulation_merges_terms() {
        let e = LinExpr::from_terms([
            (VarId::new(0), r(2)),
            (VarId::new(1), r(1)),
            (VarId::new(0), r(3)),
        ]);
        assert_eq!(e.coefficient(VarId::new(0)), r(5));
        assert_eq!(e.num_terms(), 2);
    }

    #[test]
    fn algebra() {
        let x = LinExpr::var(VarId::new(0));
        let y = LinExpr::var(VarId::new(1));
        let e = (x.clone() + y.clone()) * r(2) - x.clone();
        assert_eq!(e.coefficient(VarId::new(0)), r(1));
        assert_eq!(e.coefficient(VarId::new(1)), r(2));
        assert_eq!((x * r(0)).num_terms(), 0);
        let neg = -y;
        assert_eq!(neg.coefficient(VarId::new(1)), r(-1));
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::from_terms([(VarId::new(0), r(2)), (VarId::new(2), r(-1))]);
        let assignment = [r(3), r(100), r(4)];
        assert_eq!(e.evaluate(&assignment), r(2));
        // Missing variables default to zero.
        assert_eq!(e.evaluate(&[r(3)]), r(6));
    }

    #[test]
    fn max_var() {
        assert_eq!(LinExpr::zero().max_var(), None);
        let e = LinExpr::from_terms([(VarId::new(7), r(1)), (VarId::new(2), r(1))]);
        assert_eq!(e.max_var(), Some(VarId::new(7)));
    }

    #[test]
    fn display() {
        let e = LinExpr::from_terms([(VarId::new(0), r(1)), (VarId::new(1), r(-2))]);
        assert_eq!(e.to_string(), "x0 - 2·x1");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }
}
