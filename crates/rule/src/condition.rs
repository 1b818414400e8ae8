//! Condition trees and disjunctive normal form.

use crate::atom::Atom;
use crate::error::RuleError;
use std::fmt;

/// The maximum number of conjuncts a condition may expand to in DNF.
///
/// CADEL conditions written by home users are tiny; the cap guards the
/// conflict checker against pathological machine-generated input.
pub const MAX_DNF_CONJUNCTS: usize = 512;

/// A rule condition: an and/or tree over [`Atom`]s.
///
/// `Condition::True` is the condition of an unconditional command
/// ("Turn on the TV" with no `if`/`when` part).
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Condition {
    /// Always true.
    #[default]
    True,
    /// A primitive fact.
    Atom(Atom),
    /// All sub-conditions must hold.
    And(Vec<Condition>),
    /// At least one sub-condition must hold.
    Or(Vec<Condition>),
}

impl Condition {
    /// Conjunction of two conditions, flattening nested `And`s.
    pub fn and(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::True, c) | (c, Condition::True) => c,
            (Condition::And(mut a), Condition::And(b)) => {
                a.extend(b);
                Condition::And(a)
            }
            (Condition::And(mut a), c) => {
                a.push(c);
                Condition::And(a)
            }
            (c, Condition::And(mut b)) => {
                b.insert(0, c);
                Condition::And(b)
            }
            (a, b) => Condition::And(vec![a, b]),
        }
    }

    /// Disjunction of two conditions, flattening nested `Or`s.
    pub fn or(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::Or(mut a), Condition::Or(b)) => {
                a.extend(b);
                Condition::Or(a)
            }
            (Condition::Or(mut a), c) => {
                a.push(c);
                Condition::Or(a)
            }
            (c, Condition::Or(mut b)) => {
                b.insert(0, c);
                Condition::Or(b)
            }
            (a, b) => Condition::Or(vec![a, b]),
        }
    }

    /// The number of atoms in the tree.
    pub fn atom_count(&self) -> usize {
        match self {
            Condition::True => 0,
            Condition::Atom(_) => 1,
            Condition::And(cs) | Condition::Or(cs) => cs.iter().map(Condition::atom_count).sum(),
        }
    }

    /// Iterates over all atoms in the tree (in syntactic order).
    pub fn atoms(&self) -> Vec<&Atom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a Atom>) {
        match self {
            Condition::True => {}
            Condition::Atom(a) => out.push(a),
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_atoms(out);
                }
            }
        }
    }

    /// Normalizes the condition to disjunctive normal form.
    ///
    /// # Errors
    ///
    /// Returns [`RuleError::ConditionTooComplex`] when the expansion would
    /// exceed [`MAX_DNF_CONJUNCTS`].
    pub fn to_dnf(&self) -> Result<Dnf, RuleError> {
        let conjuncts = self.dnf_conjuncts()?;
        Ok(Dnf { conjuncts })
    }

    fn dnf_conjuncts(&self) -> Result<Vec<Conjunct>, RuleError> {
        match self {
            Condition::True => Ok(vec![Conjunct::empty()]),
            Condition::Atom(a) => Ok(vec![Conjunct::new(vec![a.clone()])]),
            Condition::Or(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    out.extend(c.dnf_conjuncts()?);
                    if out.len() > MAX_DNF_CONJUNCTS {
                        return Err(RuleError::ConditionTooComplex {
                            conjuncts: out.len(),
                            limit: MAX_DNF_CONJUNCTS,
                        });
                    }
                }
                Ok(out)
            }
            Condition::And(cs) => {
                let mut acc = vec![Conjunct::empty()];
                for c in cs {
                    let rhs = c.dnf_conjuncts()?;
                    let product = acc.len().saturating_mul(rhs.len());
                    if product > MAX_DNF_CONJUNCTS {
                        return Err(RuleError::ConditionTooComplex {
                            conjuncts: product,
                            limit: MAX_DNF_CONJUNCTS,
                        });
                    }
                    let mut next = Vec::with_capacity(product);
                    for left in &acc {
                        for right in &rhs {
                            next.push(left.join(right));
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
        }
    }
}

impl From<Atom> for Condition {
    fn from(a: Atom) -> Condition {
        Condition::Atom(a)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => f.write_str("true"),
            Condition::Atom(a) => write!(f, "{a}"),
            Condition::And(cs) => {
                f.write_str("(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" and ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
            Condition::Or(cs) => {
                f.write_str("(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" or ")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A conjunction of atoms — one disjunct of a DNF.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Conjunct {
    atoms: Vec<Atom>,
}

impl Conjunct {
    /// The empty (always-true) conjunct.
    pub fn empty() -> Conjunct {
        Conjunct::default()
    }

    /// Creates a conjunct from atoms.
    pub fn new(atoms: Vec<Atom>) -> Conjunct {
        Conjunct { atoms }
    }

    /// The atoms of the conjunct.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Whether the conjunct is empty (always true).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Concatenation of two conjuncts.
    pub fn join(&self, other: &Conjunct) -> Conjunct {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        Conjunct { atoms }
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return f.write_str("true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str(" and ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A condition in disjunctive normal form: a disjunction of conjunctions
/// of atoms.
#[derive(Clone, Debug, PartialEq)]
pub struct Dnf {
    conjuncts: Vec<Conjunct>,
}

impl Dnf {
    /// The disjuncts.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// Whether the DNF is trivially true (contains an empty conjunct).
    pub fn is_trivially_true(&self) -> bool {
        self.conjuncts.iter().any(Conjunct::is_empty)
    }

    /// Whether the DNF is trivially false (no conjuncts at all). This can
    /// only arise from an empty `Or`.
    pub fn is_trivially_false(&self) -> bool {
        self.conjuncts.is_empty()
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conjuncts.is_empty() {
            return f.write_str("false");
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" or ")?;
            }
            write!(f, "[{c}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{ConstraintAtom, EventAtom};
    use cadel_simplex::RelOp;
    use cadel_types::{DeviceId, Quantity, SensorKey, Unit};

    fn temp_gt(n: i64) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo"), "temperature"),
            RelOp::Gt,
            Quantity::from_integer(n, Unit::Celsius),
        )))
    }

    fn event(name: &str) -> Condition {
        Condition::Atom(Atom::Event(EventAtom::new("tv-guide", name)))
    }

    #[test]
    fn and_or_flatten() {
        let c = temp_gt(1).and(temp_gt(2)).and(temp_gt(3));
        match &c {
            Condition::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        let c = temp_gt(1).or(temp_gt(2)).or(temp_gt(3));
        match &c {
            Condition::Or(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn true_is_identity_for_and() {
        let c = Condition::True.and(temp_gt(5));
        assert_eq!(c, temp_gt(5));
        let c = temp_gt(5).and(Condition::True);
        assert_eq!(c, temp_gt(5));
    }

    #[test]
    fn atom_count_and_collection() {
        let c = temp_gt(1).and(event("a").or(event("b")));
        assert_eq!(c.atom_count(), 3);
        assert_eq!(c.atoms().len(), 3);
        assert_eq!(Condition::True.atom_count(), 0);
    }

    #[test]
    fn dnf_of_simple_conjunction() {
        let c = temp_gt(26).and(temp_gt(25));
        let dnf = c.to_dnf().unwrap();
        assert_eq!(dnf.conjuncts().len(), 1);
        assert_eq!(dnf.conjuncts()[0].atoms().len(), 2);
    }

    #[test]
    fn dnf_distributes_and_over_or() {
        // (a or b) and (c or d) => 4 conjuncts.
        let c = event("a").or(event("b")).and(event("c").or(event("d")));
        let dnf = c.to_dnf().unwrap();
        assert_eq!(dnf.conjuncts().len(), 4);
        for conj in dnf.conjuncts() {
            assert_eq!(conj.atoms().len(), 2);
        }
    }

    #[test]
    fn dnf_of_true_is_trivially_true() {
        let dnf = Condition::True.to_dnf().unwrap();
        assert!(dnf.is_trivially_true());
        assert!(!dnf.is_trivially_false());
    }

    #[test]
    fn dnf_of_empty_or_is_false() {
        let dnf = Condition::Or(vec![]).to_dnf().unwrap();
        assert!(dnf.is_trivially_false());
    }

    #[test]
    fn dnf_blowup_is_bounded() {
        // (a or b)^10 = 1024 conjuncts > 512.
        let mut c = Condition::True;
        for _ in 0..10 {
            c = c.and(event("a").or(event("b")));
        }
        match c.to_dnf() {
            Err(RuleError::ConditionTooComplex { limit, .. }) => {
                assert_eq!(limit, MAX_DNF_CONJUNCTS)
            }
            other => panic!("expected complexity error, got {other:?}"),
        }
    }

    #[test]
    fn display_round_trip_readability() {
        let c = temp_gt(26).and(event("baseball game"));
        let s = c.to_string();
        assert!(s.contains("temperature > 26"));
        assert!(s.contains("baseball game"));
        let dnf = c.to_dnf().unwrap();
        assert!(dnf.to_string().starts_with('['));
    }
}
