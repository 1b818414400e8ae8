//! Pairwise conflict decisions for the [`ConflictGraph`](crate::ConflictGraph).
//!
//! Two rules whose actions conflict clash when some conjunct of one and
//! some conjunct of the other can hold together. The graph decides each
//! candidate pair on one of two paths:
//!
//! * the *witness path* (`cheap_pair`), for rules that read disjoint
//!   sensors: their merged system is block-diagonal, so the per-conjunct
//!   witnesses from `solve_each` settle the pair without a solve;
//! * the *solver path* (`solved_pair`), for rules that share a sensor:
//!   one merged Simplex solve per conjunct pair over the two rules'
//!   compiled systems.
//!
//! Both return the verdict and witness that
//! [`check_conflict`](crate::check_conflict), the brute-force oracle,
//! returns for the same pair.

use crate::check::Conflict;
use crate::discrete::discrete_compatible;
use crate::error::ConflictError;
use cadel_ir::{merge_conjuncts, CompiledConjunct};
use cadel_rule::{Rule, RuleError};
use cadel_simplex::{solve, Solution, SolveError};
use cadel_types::{Rational, SensorKey};

/// A sensor assignment under which a conjunct holds.
pub(crate) type Witness = Vec<(SensorKey, Rational)>;

/// One witness per conjunct, solved alone; `None` marks a dead
/// (individually infeasible) conjunct.
pub(crate) type Witnesses = Vec<Option<Witness>>;

/// Solves each conjunct system on its own: a witness when feasible,
/// `None` when the conjunct is dead.
///
/// # Errors
///
/// Returns the first solver error.
pub(crate) fn solve_each(systems: &[CompiledConjunct]) -> Result<Witnesses, SolveError> {
    systems
        .iter()
        .map(|sys| {
            Ok(match solve(sys.constraints())? {
                Solution::Feasible(assignment) => Some(
                    sys.vars()
                        .iter()
                        .cloned()
                        .zip(assignment.iter().copied())
                        .collect(),
                ),
                Solution::Infeasible => None,
            })
        })
        .collect()
}

/// Decides a disjoint-footprint pair without a merged solve: the joint
/// system is block-diagonal, so a conjunct pair is co-satisfiable iff
/// both sides are individually feasible and their discrete atoms agree.
/// The returned witness is the two per-conjunct witnesses concatenated
/// in merge order (`a`'s variables first).
pub(crate) fn cheap_pair(a: &Rule, wa: &Witnesses, b: &Rule, wb: &Witnesses) -> Option<Conflict> {
    for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
        let Some(wa_i) = wa.get(i).and_then(|w| w.as_ref()) else {
            continue;
        };
        for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
            let Some(wb_j) = wb.get(j).and_then(|w| w.as_ref()) else {
                continue;
            };
            if !discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                continue;
            }
            let witness = wa_i.iter().cloned().chain(wb_j.iter().cloned()).collect();
            return Some(Conflict::new(a.id(), b.id(), i, j, witness));
        }
    }
    None
}

/// Decides a shared-footprint pair by merging each conjunct pair's
/// systems and solving the result; semantics identical to
/// [`check_conflict`](crate::check_conflict) once the actions conflict.
///
/// `a_sys` / `b_sys` must be the compiled systems of `a` / `b`, aligned
/// index-for-index with each rule's DNF. The merge unifies shared
/// sensors exactly like a shared `VarPool` would, with `a`'s variables
/// first, so the witness ordering matches the brute-force oracle.
pub(crate) fn solved_pair(
    a: &Rule,
    a_sys: &[CompiledConjunct],
    b: &Rule,
    b_sys: &[CompiledConjunct],
) -> Result<Option<Conflict>, ConflictError> {
    debug_assert_eq!(a.dnf().conjuncts().len(), a_sys.len());
    debug_assert_eq!(b.dnf().conjuncts().len(), b_sys.len());
    for (i, (ca, ca_sys)) in a.dnf().conjuncts().iter().zip(a_sys).enumerate() {
        for (j, (cb, cb_sys)) in b.dnf().conjuncts().iter().zip(b_sys).enumerate() {
            if !discrete_compatible(ca.atoms().iter().chain(cb.atoms().iter())) {
                continue;
            }
            let (system, keys) = merge_conjuncts(ca_sys, cb_sys).map_err(RuleError::from)?;
            if let Solution::Feasible(assignment) = solve(&system)? {
                let witness = keys.into_iter().zip(assignment.iter().copied()).collect();
                return Ok(Some(Conflict::new(a.id(), b.id(), i, j, witness)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::find_conflicts;
    use cadel_rule::{
        compile_conjuncts, ActionSpec, Atom, Condition, ConstraintAtom, RuleDb, Verb,
    };
    use cadel_simplex::RelOp;
    use cadel_types::{DeviceId, PersonId, Quantity, RuleId, Unit};

    fn temp(op: RelOp, n: i64) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo"), "temperature"),
            op,
            Quantity::from_integer(n, Unit::Celsius),
        )))
    }

    fn humid(op: RelOp, n: i64) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("hygro"), "humidity"),
            op,
            Quantity::from_integer(n, Unit::Percent),
        )))
    }

    fn aircon_at(owner: &str, setpoint: i64, cond: Condition, id: u64) -> Rule {
        Rule::builder(PersonId::new(owner))
            .condition(cond)
            .action(
                ActionSpec::new(DeviceId::new("aircon"), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(setpoint, Unit::Celsius),
                ),
            )
            .build(RuleId::new(id))
            .unwrap()
    }

    #[test]
    fn checker_agrees_with_plain_find_conflicts() {
        // The paper's aircon trio: Tom's rule conflicts with Alan's and
        // Emily's, not with the sub-zero rule.
        let mut db = RuleDb::new();
        let alan = temp(RelOp::Gt, 25).and(humid(RelOp::Gt, 60));
        let emily = temp(RelOp::Gt, 29).and(humid(RelOp::Gt, 75));
        db.insert(aircon_at("alan", 24, alan, 100)).unwrap();
        db.insert(aircon_at("emily", 27, emily, 101)).unwrap();
        db.insert(aircon_at("x", 20, temp(RelOp::Lt, 0), 102))
            .unwrap();
        let tom = aircon_at(
            "tom",
            25,
            temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)),
            200,
        );
        let plain = find_conflicts(&db, &tom).unwrap();
        // Every pair shares the thermometer, so every pair takes the
        // solver path against the stored rule's own systems.
        let tom_sys = compile_conjuncts(&tom).unwrap();
        let mut compiled = Vec::new();
        for existing in db.rules_for_device(tom.action().device()) {
            let stored = db.conjuncts(existing.id()).unwrap();
            compiled.extend(solved_pair(&tom, &tom_sys, existing, stored).unwrap());
        }
        assert_eq!(plain, compiled);
        let partners: Vec<u64> = compiled.iter().map(|c| c.rule_b().raw()).collect();
        assert_eq!(partners, vec![100, 101]);
        // Witness ordering and content match the shared-VarPool path too.
        assert_eq!(plain[0].witness(), compiled[0].witness());
        assert_eq!(compiled[0].witness().len(), 2);
    }
}
