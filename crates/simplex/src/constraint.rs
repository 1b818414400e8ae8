//! Linear constraints `expr ⋈ rhs`.

use crate::eps::EpsRational;
use crate::expr::{LinExpr, VarId};
use cadel_types::Rational;
use std::fmt;

/// The relational operator of a constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `≤`
    Le,
    /// `<` (strict)
    Lt,
    /// `≥`
    Ge,
    /// `>` (strict)
    Gt,
    /// `=`
    Eq,
}

impl RelOp {
    /// The operator with both sides swapped (`<` ↔ `>`, `≤` ↔ `≥`).
    pub fn flipped(self) -> RelOp {
        match self {
            RelOp::Le => RelOp::Ge,
            RelOp::Lt => RelOp::Gt,
            RelOp::Ge => RelOp::Le,
            RelOp::Gt => RelOp::Lt,
            RelOp::Eq => RelOp::Eq,
        }
    }

    /// Whether the operator is strict.
    pub fn is_strict(self) -> bool {
        matches!(self, RelOp::Lt | RelOp::Gt)
    }

    /// Applies the operator to concrete rationals.
    pub fn holds(self, lhs: Rational, rhs: Rational) -> bool {
        match self {
            RelOp::Le => lhs <= rhs,
            RelOp::Lt => lhs < rhs,
            RelOp::Ge => lhs >= rhs,
            RelOp::Gt => lhs > rhs,
            RelOp::Eq => lhs == rhs,
        }
    }

    /// The conventional symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            RelOp::Le => "<=",
            RelOp::Lt => "<",
            RelOp::Ge => ">=",
            RelOp::Gt => ">",
            RelOp::Eq => "=",
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A linear constraint `expr ⋈ rhs` over solver variables.
#[derive(Clone, PartialEq, Eq)]
pub struct Constraint {
    expr: LinExpr,
    op: RelOp,
    rhs: Rational,
}

impl Constraint {
    /// Creates the constraint `expr op rhs`.
    pub fn new(expr: LinExpr, op: RelOp, rhs: Rational) -> Constraint {
        Constraint { expr, op, rhs }
    }

    /// The left-hand expression.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// The relational operator.
    pub fn op(&self) -> RelOp {
        self.op
    }

    /// The right-hand constant.
    pub fn rhs(&self) -> Rational {
        self.rhs
    }

    /// Returns the constraint with every variable replaced through `f`
    /// (see [`LinExpr::map_vars`]).
    pub fn map_vars(&self, f: impl FnMut(VarId) -> VarId) -> Constraint {
        Constraint {
            expr: self.expr.map_vars(f),
            op: self.op,
            rhs: self.rhs,
        }
    }

    /// Whether an assignment satisfies the constraint (missing variables
    /// are zero).
    pub fn is_satisfied_by(&self, assignment: &[Rational]) -> bool {
        self.op.holds(self.expr.evaluate(assignment), self.rhs)
    }

    /// Rewrites into `≤`-form rows `expr ≤ bound` with ε-extended bounds:
    ///
    /// * `e ≤ b`  →  `e ≤ b`
    /// * `e < b`  →  `e ≤ b − ε`
    /// * `e ≥ b`  →  `−e ≤ −b`
    /// * `e > b`  →  `−e ≤ −b − ε`
    /// * `e = b`  →  `e ≤ b` and `−e ≤ −b`
    pub fn to_le_rows(&self) -> Vec<(LinExpr, EpsRational)> {
        let b = EpsRational::from_rational(self.rhs);
        match self.op {
            RelOp::Le => vec![(self.expr.clone(), b)],
            RelOp::Lt => vec![(self.expr.clone(), b - EpsRational::EPSILON)],
            RelOp::Ge => vec![(-self.expr.clone(), -b)],
            RelOp::Gt => vec![(-self.expr.clone(), -b - EpsRational::EPSILON)],
            RelOp::Eq => vec![(self.expr.clone(), b), (-self.expr.clone(), -b)],
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.expr, self.op, self.rhs)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarId;

    fn r(n: i64) -> Rational {
        Rational::from_integer(n)
    }

    #[test]
    fn holds_on_concrete_values() {
        assert!(RelOp::Lt.holds(r(1), r(2)));
        assert!(!RelOp::Lt.holds(r(2), r(2)));
        assert!(RelOp::Le.holds(r(2), r(2)));
        assert!(RelOp::Eq.holds(r(2), r(2)));
        assert!(RelOp::Gt.holds(r(3), r(2)));
        assert!(RelOp::Ge.holds(r(2), r(2)));
    }

    #[test]
    fn flipping() {
        assert_eq!(RelOp::Lt.flipped(), RelOp::Gt);
        assert_eq!(RelOp::Ge.flipped(), RelOp::Le);
        assert_eq!(RelOp::Eq.flipped(), RelOp::Eq);
    }

    #[test]
    fn satisfied_by_assignment() {
        let c = Constraint::new(LinExpr::var(VarId::new(0)), RelOp::Gt, r(26));
        assert!(c.is_satisfied_by(&[r(27)]));
        assert!(!c.is_satisfied_by(&[r(26)]));
        assert!(!c.is_satisfied_by(&[]));
    }

    #[test]
    fn le_rows_encode_strictness() {
        let x = LinExpr::var(VarId::new(0));
        let lt = Constraint::new(x.clone(), RelOp::Lt, r(5)).to_le_rows();
        assert_eq!(lt.len(), 1);
        assert_eq!(
            lt[0].1,
            EpsRational::from_rational(r(5)) - EpsRational::EPSILON
        );

        let gt = Constraint::new(x.clone(), RelOp::Gt, r(5)).to_le_rows();
        assert_eq!(gt[0].0.coefficient(VarId::new(0)), r(-1));
        assert_eq!(
            gt[0].1,
            EpsRational::from_rational(r(-5)) - EpsRational::EPSILON
        );

        let eq = Constraint::new(x, RelOp::Eq, r(5)).to_le_rows();
        assert_eq!(eq.len(), 2);
    }

    #[test]
    fn display() {
        let c = Constraint::new(LinExpr::var(VarId::new(1)), RelOp::Ge, r(60));
        assert_eq!(c.to_string(), "x1 >= 60");
    }
}
