//! The compiled rule program: predicate table, condition bytecode, and
//! per-conjunct precompiled constraint systems.

use crate::error::IrError;
use crate::interner::{EventSlot, SensorSlot};
use cadel_simplex::{Constraint, LinExpr, RelOp, VarId};
use cadel_types::unit::Dimension;
use cadel_types::{
    Date, PersonId, PlaceId, Rational, SensorKey, SimDuration, TimeWindow, Value, Weekday,
};
use std::sync::Arc;

/// A compiled primitive predicate — one entry of a program's predicate
/// table. Each variant mirrors one `Atom` kind of the rule layer, with
/// every string lookup resolved to a dense slot and every unit conversion
/// done at compile time.
#[derive(Clone, Debug, PartialEq)]
pub enum Pred {
    /// Numeric sensor comparison: the reading (converted to the canonical
    /// unit of its dimension) against a canonicalized threshold. Readings
    /// of a different dimension never satisfy the predicate.
    NumCmp {
        /// The sensor board slot to read.
        slot: SensorSlot,
        /// The comparison operator.
        op: RelOp,
        /// The threshold in canonical units.
        threshold: Rational,
        /// The dimension the reading must have.
        dim: Dimension,
    },
    /// Device state equality (`power(tv) == true`); text comparison is
    /// case-insensitive, matching `StateAtom::holds_for`.
    StateEq {
        /// The sensor board slot to read.
        slot: SensorSlot,
        /// The expected value.
        expected: Value,
    },
    /// A specific person is at a place.
    PersonAt {
        /// The person.
        person: PersonId,
        /// The place.
        place: PlaceId,
    },
    /// At least one person is at the place.
    SomebodyAt(PlaceId),
    /// No person is at the place.
    NobodyAt(PlaceId),
    /// An event pattern is currently active.
    Event(EventSlot),
    /// The time of day falls in the window.
    TimeIn(TimeWindow),
    /// The current weekday matches.
    WeekdayIs(Weekday),
    /// The current date matches.
    DateIs(Date),
    /// The inner predicate has held continuously for the duration.
    HeldFor {
        /// Index of the inner predicate in the program's table.
        inner: u32,
        /// How long it must have held.
        duration: SimDuration,
        /// The tracker fingerprint — precomputed at compile time, byte-equal
        /// to the one the reference interpreter derives, so both observe one
        /// continuous-truth history.
        fingerprint: Box<str>,
    },
}

/// One instruction of the flattened condition bytecode.
///
/// The code is a pre-order flattening of the original `Condition` tree:
/// an `And`/`Or` op covers the instructions up to its `end` offset. The
/// original tree shape and child order are preserved — evaluation must
/// short-circuit exactly like the reference interpreter because `HeldFor`
/// predicates have observation side effects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Always true (`Condition::True`).
    True,
    /// Evaluate the predicate at this index in the program's table.
    Pred(u32),
    /// All children in `[pc+1, end)` must hold; stops at the first false.
    And {
        /// One past the last instruction of the region.
        end: u32,
    },
    /// At least one child in `[pc+1, end)` must hold; stops at the first
    /// true.
    Or {
        /// One past the last instruction of the region.
        end: u32,
    },
}

/// Flattened condition bytecode.
pub type CondCode = Vec<Op>;

/// The linear-constraint system of one DNF conjunct, lowered once at
/// compile time.
///
/// Constraints are expressed over *local* variable indices `0..vars.len()`;
/// `vars[i]` names the sensor behind local variable `i` and `dims[i]` its
/// physical dimension. Two conjuncts' systems are combined with
/// [`merge_conjuncts`], which unifies shared sensors and remaps the second
/// system's variables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompiledConjunct {
    constraints: Vec<Constraint>,
    vars: Vec<SensorKey>,
    dims: Vec<Dimension>,
}

impl CompiledConjunct {
    /// Creates an empty (always numerically feasible) conjunct system.
    pub fn new() -> CompiledConjunct {
        CompiledConjunct::default()
    }

    /// Adds the bound `sensor op rhs` (rhs in canonical units), interning
    /// the sensor as a local variable.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DimensionMismatch`] when the sensor was already
    /// bounded with a different dimension.
    pub fn add_bound(
        &mut self,
        sensor: &SensorKey,
        dim: Dimension,
        op: RelOp,
        rhs: Rational,
    ) -> Result<(), IrError> {
        let var = match self.vars.iter().position(|k| k == sensor) {
            Some(i) => {
                if self.dims[i] != dim {
                    return Err(IrError::DimensionMismatch {
                        context: format!(
                            "sensor {} constrained as {:?} and {:?}",
                            sensor, self.dims[i], dim
                        ),
                    });
                }
                VarId::new(i as u32)
            }
            None => {
                self.vars.push(sensor.clone());
                self.dims.push(dim);
                VarId::new((self.vars.len() - 1) as u32)
            }
        };
        self.constraints
            .push(Constraint::new(LinExpr::var(var), op, rhs));
        Ok(())
    }

    /// The constraints, over local variables `0..vars().len()`.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The sensor behind each local variable.
    pub fn vars(&self) -> &[SensorKey] {
        &self.vars
    }

    /// The dimension of each local variable.
    pub fn dims(&self) -> &[Dimension] {
        &self.dims
    }
}

/// Merges two precompiled conjunct systems into one joint system, unifying
/// variables that name the same sensor — the compiled equivalent of
/// extracting both conjuncts through one shared `VarPool`.
///
/// Returns the joint constraints plus the sensor behind each joint
/// variable, in interning order (all of `a`'s variables first, then `b`'s
/// new ones) so feasibility witnesses can be labelled.
///
/// # Errors
///
/// Returns [`IrError::DimensionMismatch`] when the two systems bound a
/// shared sensor with different dimensions.
pub fn merge_conjuncts(
    a: &CompiledConjunct,
    b: &CompiledConjunct,
) -> Result<(Vec<Constraint>, Vec<SensorKey>), IrError> {
    let mut vars = a.vars.clone();
    let mut dims = a.dims.clone();
    let mut constraints = a.constraints.clone();
    let mut remap = Vec::with_capacity(b.vars.len());
    for (i, key) in b.vars.iter().enumerate() {
        match vars.iter().position(|k| k == key) {
            Some(j) => {
                if dims[j] != b.dims[i] {
                    return Err(IrError::DimensionMismatch {
                        context: format!(
                            "sensor {} constrained as {:?} and {:?}",
                            key, dims[j], b.dims[i]
                        ),
                    });
                }
                remap.push(VarId::new(j as u32));
            }
            None => {
                vars.push(key.clone());
                dims.push(b.dims[i]);
                remap.push(VarId::new((vars.len() - 1) as u32));
            }
        }
    }
    constraints.extend(
        b.constraints
            .iter()
            .map(|c| c.map_vars(|v| remap[v.index()])),
    );
    Ok((constraints, vars))
}

/// A rule compiled to its executable form: the paper's *rule object*.
///
/// Holds everything the engine's fast path and the conflict graph need,
/// derived once at registration time:
///
/// * [`RuleProgram::condition`] / [`RuleProgram::until`] — flattened
///   bytecode over the shared predicate table;
/// * [`RuleProgram::conjuncts`] — one precompiled linear-constraint system
///   per DNF disjunct, aligned index-for-index with the rule's `Dnf`,
///   behind an `Arc` so the conflict graph shares them instead of copying.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleProgram {
    preds: Vec<Pred>,
    condition: CondCode,
    until: Option<CondCode>,
    conjuncts: Arc<[CompiledConjunct]>,
}

impl RuleProgram {
    /// Assembles a program from its parts (used by the rule compiler).
    pub fn new(
        preds: Vec<Pred>,
        condition: CondCode,
        until: Option<CondCode>,
        conjuncts: Vec<CompiledConjunct>,
    ) -> RuleProgram {
        RuleProgram {
            preds,
            condition,
            until,
            conjuncts: conjuncts.into(),
        }
    }

    /// The predicate table shared by the condition and `until` code.
    pub fn preds(&self) -> &[Pred] {
        &self.preds
    }

    /// The compiled trigger condition.
    pub fn condition(&self) -> &CondCode {
        &self.condition
    }

    /// The compiled release condition, when the rule has one.
    pub fn until(&self) -> Option<&CondCode> {
        self.until.as_ref()
    }

    /// The precompiled constraint system of each DNF conjunct, in DNF
    /// order.
    pub fn conjuncts(&self) -> &Arc<[CompiledConjunct]> {
        &self.conjuncts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_simplex::{is_satisfiable, solve, Solution};
    use cadel_types::DeviceId;

    fn key(device: &str, variable: &str) -> SensorKey {
        SensorKey::new(DeviceId::new(device), variable)
    }

    #[test]
    fn conjunct_interns_locally_and_solves() {
        let mut c = CompiledConjunct::new();
        c.add_bound(
            &key("thermo", "temperature"),
            Dimension::Temperature,
            RelOp::Gt,
            Rational::from_integer(26),
        )
        .unwrap();
        c.add_bound(
            &key("thermo", "temperature"),
            Dimension::Temperature,
            RelOp::Lt,
            Rational::from_integer(20),
        )
        .unwrap();
        assert_eq!(c.vars().len(), 1);
        assert_eq!(c.constraints().len(), 2);
        assert!(!is_satisfiable(c.constraints()).unwrap());
    }

    #[test]
    fn conjunct_rejects_dimension_mismatch() {
        let mut c = CompiledConjunct::new();
        c.add_bound(
            &key("multi", "reading"),
            Dimension::Temperature,
            RelOp::Gt,
            Rational::from_integer(26),
        )
        .unwrap();
        let err = c
            .add_bound(
                &key("multi", "reading"),
                Dimension::Ratio,
                RelOp::Gt,
                Rational::from_integer(60),
            )
            .unwrap_err();
        assert!(err.to_string().contains("constrained as"));
    }

    #[test]
    fn merge_unifies_shared_sensors() {
        // a: t > 26, h > 65; b: t > 25, h > 60 — the paper's aircon pair.
        let mut a = CompiledConjunct::new();
        a.add_bound(
            &key("thermo", "temperature"),
            Dimension::Temperature,
            RelOp::Gt,
            Rational::from_integer(26),
        )
        .unwrap();
        a.add_bound(
            &key("hygro", "humidity"),
            Dimension::Ratio,
            RelOp::Gt,
            Rational::from_integer(65),
        )
        .unwrap();
        let mut b = CompiledConjunct::new();
        b.add_bound(
            &key("thermo", "temperature"),
            Dimension::Temperature,
            RelOp::Gt,
            Rational::from_integer(25),
        )
        .unwrap();
        b.add_bound(
            &key("hygro", "humidity"),
            Dimension::Ratio,
            RelOp::Gt,
            Rational::from_integer(60),
        )
        .unwrap();
        let (system, vars) = merge_conjuncts(&a, &b).unwrap();
        assert_eq!(vars.len(), 2); // shared sensors unified
        assert_eq!(system.len(), 4);
        match solve(&system).unwrap() {
            Solution::Feasible(assignment) => assert_eq!(assignment.len(), 2),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn merge_appends_new_sensors_after_a() {
        let mut a = CompiledConjunct::new();
        a.add_bound(
            &key("thermo", "temperature"),
            Dimension::Temperature,
            RelOp::Gt,
            Rational::from_integer(26),
        )
        .unwrap();
        let mut b = CompiledConjunct::new();
        b.add_bound(
            &key("hygro", "humidity"),
            Dimension::Ratio,
            RelOp::Gt,
            Rational::from_integer(60),
        )
        .unwrap();
        let (_, vars) = merge_conjuncts(&a, &b).unwrap();
        assert_eq!(vars[0], key("thermo", "temperature"));
        assert_eq!(vars[1], key("hygro", "humidity"));
    }

    #[test]
    fn merge_rejects_cross_system_dimension_mismatch() {
        let mut a = CompiledConjunct::new();
        a.add_bound(
            &key("multi", "reading"),
            Dimension::Temperature,
            RelOp::Gt,
            Rational::from_integer(26),
        )
        .unwrap();
        let mut b = CompiledConjunct::new();
        b.add_bound(
            &key("multi", "reading"),
            Dimension::Ratio,
            RelOp::Gt,
            Rational::from_integer(60),
        )
        .unwrap();
        assert!(merge_conjuncts(&a, &b).is_err());
    }
}
