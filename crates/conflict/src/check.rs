//! Registration-time consistency and conflict checks (paper §4.4).

use crate::discrete::discrete_compatible;
use crate::error::ConflictError;
use cadel_rule::{Rule, RuleDb, VarPool};
use cadel_simplex::{solve, Solution};
use cadel_types::{Rational, RuleId, SensorKey};
use std::fmt;

/// The outcome of checking a single rule's own condition.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsistencyReport {
    satisfiable: bool,
    dead_conjuncts: Vec<usize>,
    total_conjuncts: usize,
}

impl ConsistencyReport {
    /// The report for a condition of `total_conjuncts` disjuncts whose
    /// `dead_conjuncts` can never hold.
    pub(crate) fn new(dead_conjuncts: Vec<usize>, total_conjuncts: usize) -> ConsistencyReport {
        ConsistencyReport {
            satisfiable: dead_conjuncts.len() < total_conjuncts,
            dead_conjuncts,
            total_conjuncts,
        }
    }

    /// Whether the condition can hold at all. An inconsistent rule should
    /// be bounced back to the user ("the module warns the user to modify
    /// the condition").
    pub fn is_satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// Indices (into the DNF) of disjuncts that can never hold. A rule can
    /// be satisfiable overall yet contain dead branches worth warning
    /// about.
    pub fn dead_conjuncts(&self) -> &[usize] {
        &self.dead_conjuncts
    }

    /// Total number of DNF disjuncts examined.
    pub fn total_conjuncts(&self) -> usize {
        self.total_conjuncts
    }
}

impl fmt::Display for ConsistencyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.satisfiable {
            if self.dead_conjuncts.is_empty() {
                write!(f, "consistent ({} disjunct(s))", self.total_conjuncts)
            } else {
                write!(
                    f,
                    "consistent, but {} of {} disjunct(s) can never hold",
                    self.dead_conjuncts.len(),
                    self.total_conjuncts
                )
            }
        } else {
            write!(f, "inconsistent: the condition can never hold")
        }
    }
}

/// Checks whether a rule's condition is satisfiable (the *inconsistency
/// check* of §4.4), lowering it through a fresh `VarPool`.
///
/// Each DNF disjunct is tested independently: its numeric atoms go through
/// the simplex, its discrete atoms through [`discrete_compatible`]. The
/// rule is consistent when at least one disjunct passes both.
///
/// This is the oracle: registration takes the same verdict from
/// [`ConflictGraph::analyze`](crate::ConflictGraph::analyze), which lowers
/// the rule once for consistency and conflicts together.
///
/// # Errors
///
/// Returns [`ConflictError`] on solver overflow or dimension mismatch.
pub fn check_consistency(rule: &Rule) -> Result<ConsistencyReport, ConflictError> {
    let conjuncts = rule.dnf().conjuncts();
    let mut dead = Vec::new();
    for (i, conjunct) in conjuncts.iter().enumerate() {
        let mut pool = VarPool::new();
        let system = pool.conjunct_constraints(conjunct)?;
        let numeric_ok = solve(&system)?.is_feasible();
        let discrete_ok = discrete_compatible(conjunct.atoms().iter());
        if !(numeric_ok && discrete_ok) {
            dead.push(i);
        }
    }
    Ok(ConsistencyReport::new(dead, conjuncts.len()))
}

/// Evidence that two rules conflict: which disjuncts can co-fire and a
/// concrete sensor assignment under which both conditions hold.
#[derive(Clone, Debug, PartialEq)]
pub struct Conflict {
    rule_a: RuleId,
    rule_b: RuleId,
    conjunct_a: usize,
    conjunct_b: usize,
    witness: Vec<(SensorKey, Rational)>,
}

impl Conflict {
    /// Assembles a conflict record (shared with the conflict graph).
    pub(crate) fn new(
        rule_a: RuleId,
        rule_b: RuleId,
        conjunct_a: usize,
        conjunct_b: usize,
        witness: Vec<(SensorKey, Rational)>,
    ) -> Conflict {
        Conflict {
            rule_a,
            rule_b,
            conjunct_a,
            conjunct_b,
            witness,
        }
    }

    /// The first rule (the one being registered, in [`find_conflicts`]).
    pub fn rule_a(&self) -> RuleId {
        self.rule_a
    }

    /// The existing rule it conflicts with.
    pub fn rule_b(&self) -> RuleId {
        self.rule_b
    }

    /// The index of the co-satisfiable disjunct of rule A.
    pub fn conjunct_a(&self) -> usize {
        self.conjunct_a
    }

    /// The index of the co-satisfiable disjunct of rule B.
    pub fn conjunct_b(&self) -> usize {
        self.conjunct_b
    }

    /// A sensor assignment (in canonical units) under which both
    /// conditions hold simultaneously — shown to the user when prompting
    /// for a priority.
    pub fn witness(&self) -> &[(SensorKey, Rational)] {
        &self.witness
    }
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} conflicts with {}", self.rule_a, self.rule_b)?;
        if !self.witness.is_empty() {
            f.write_str(" (e.g. when ")?;
            for (i, (key, value)) in self.witness.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{key} = {value}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// Checks whether two rules conflict: same device, different actions, and
/// co-satisfiable conditions.
///
/// Returns `None` when they cannot conflict; otherwise the first
/// co-satisfiable disjunct pair with a witness.
///
/// # Errors
///
/// Returns [`ConflictError`] on solver overflow or dimension mismatch.
pub fn check_conflict(a: &Rule, b: &Rule) -> Result<Option<Conflict>, ConflictError> {
    if !a.action().conflicts_with(b.action()) {
        return Ok(None);
    }
    for (i, ca) in a.dnf().conjuncts().iter().enumerate() {
        for (j, cb) in b.dnf().conjuncts().iter().enumerate() {
            // Discrete compatibility over the union of atoms.
            let atoms = ca.atoms().iter().chain(cb.atoms().iter());
            if !discrete_compatible(atoms) {
                continue;
            }
            // Joint numeric feasibility: one shared pool so common sensors
            // become the same variable.
            let mut pool = VarPool::new();
            let mut system = pool.conjunct_constraints(ca)?;
            system.extend(pool.conjunct_constraints(cb)?);
            if let Solution::Feasible(assignment) = solve(&system)? {
                let witness = assignment
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, value)| {
                        pool.key_for(cadel_simplex::VarId::new(idx as u32))
                            .map(|key| (key.clone(), *value))
                    })
                    .collect();
                return Ok(Some(Conflict {
                    rule_a: a.id(),
                    rule_b: b.id(),
                    conjunct_a: i,
                    conjunct_b: j,
                    witness,
                }));
            }
        }
    }
    Ok(None)
}

/// Finds every existing rule the new rule conflicts with — the full
/// registration-time procedure of §4.4 and the workload of experiment E2:
///
/// 1. extract same-device rules through the database index,
/// 2. for each, build the concatenated inequality system,
/// 3. decide feasibility.
///
/// Disabled rules and the rule itself (when already stored) are skipped.
///
/// # Errors
///
/// Returns [`ConflictError`] on solver overflow or dimension mismatch.
pub fn find_conflicts(db: &RuleDb, new_rule: &Rule) -> Result<Vec<Conflict>, ConflictError> {
    let mut conflicts = Vec::new();
    for existing in db.rules_for_device(new_rule.action().device()) {
        if existing.id() == new_rule.id() || !existing.is_enabled() {
            continue;
        }
        if let Some(conflict) = check_conflict(new_rule, existing)? {
            conflicts.push(conflict);
        }
    }
    Ok(conflicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom, Verb};
    use cadel_simplex::RelOp;
    use cadel_types::{DeviceId, PersonId, Quantity, Unit};

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
    fn consistent_rule_passes() {
        let rule = aircon_at("tom", 25, temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)), 1);
        let report = check_consistency(&rule).unwrap();
        assert!(report.is_satisfiable());
        assert!(report.dead_conjuncts().is_empty());
        assert!(report.to_string().contains("consistent"));
    }

    #[test]
    fn numerically_impossible_rule_is_flagged() {
        // temperature > 30 and temperature < 20: can never hold.
        let rule = aircon_at("tom", 25, temp(RelOp::Gt, 30).and(temp(RelOp::Lt, 20)), 1);
        let report = check_consistency(&rule).unwrap();
        assert!(!report.is_satisfiable());
        assert_eq!(report.dead_conjuncts(), &[0]);
        assert!(report.to_string().contains("never hold"));
    }

    #[test]
    fn discretely_impossible_rule_is_flagged() {
        let cond = Condition::Atom(Atom::Presence(PresenceAtom::person_at("tom", "kitchen"))).and(
            Condition::Atom(Atom::Presence(PresenceAtom::person_at(
                "tom",
                "living room",
            ))),
        );
        let rule = aircon_at("tom", 25, cond, 1);
        assert!(!check_consistency(&rule).unwrap().is_satisfiable());
    }

    #[test]
    fn dead_branch_is_reported_but_rule_stays_consistent() {
        let dead = temp(RelOp::Gt, 30).and(temp(RelOp::Lt, 20));
        let alive = temp(RelOp::Gt, 26);
        let rule = aircon_at("tom", 25, dead.or(alive), 1);
        let report = check_consistency(&rule).unwrap();
        assert!(report.is_satisfiable());
        assert_eq!(report.dead_conjuncts(), &[0]);
        assert_eq!(report.total_conjuncts(), 2);
    }

    #[test]
    fn paper_aircon_example_conflicts() {
        // Tom: t>26 ∧ h>65 → 25°C; Alan: t>25 ∧ h>60 → 24°C.
        let tom = aircon_at("tom", 25, temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)), 1);
        let alan = aircon_at("alan", 24, temp(RelOp::Gt, 25).and(humid(RelOp::Gt, 60)), 2);
        let conflict = check_conflict(&tom, &alan)
            .unwrap()
            .expect("should conflict");
        assert_eq!(conflict.rule_a(), RuleId::new(1));
        assert_eq!(conflict.rule_b(), RuleId::new(2));
        // The witness names both sensors with values satisfying all four
        // inequalities.
        assert_eq!(conflict.witness().len(), 2);
        let display = conflict.to_string();
        assert!(display.contains("conflicts with"));
    }

    #[test]
    fn same_action_is_not_a_conflict() {
        // Identical setpoints: both rules want the same thing.
        let tom = aircon_at("tom", 25, temp(RelOp::Gt, 26), 1);
        let alan = aircon_at("alan", 25, temp(RelOp::Gt, 25), 2);
        assert!(check_conflict(&tom, &alan).unwrap().is_none());
    }

    #[test]
    fn disjoint_conditions_do_not_conflict() {
        // Tom's rule fires below 10°C, Alan's above 30°C.
        let tom = aircon_at("tom", 25, temp(RelOp::Lt, 10), 1);
        let alan = aircon_at("alan", 24, temp(RelOp::Gt, 30), 2);
        assert!(check_conflict(&tom, &alan).unwrap().is_none());
    }

    #[test]
    fn discretely_disjoint_conditions_do_not_conflict() {
        // Emily-watching-TV-in-living-room vs nobody-in-living-room.
        let a = Rule::builder(PersonId::new("emily"))
            .condition(Condition::Atom(Atom::Presence(PresenceAtom::person_at(
                "emily",
                "living room",
            ))))
            .action(ActionSpec::new(DeviceId::new("tv"), Verb::TurnOn))
            .build(RuleId::new(1))
            .unwrap();
        let b = Rule::builder(PersonId::new("alan"))
            .condition(Condition::Atom(Atom::Presence(PresenceAtom::new(
                cadel_rule::Subject::Nobody,
                cadel_types::PlaceId::new("living room"),
            ))))
            .action(ActionSpec::new(DeviceId::new("tv"), Verb::TurnOff))
            .build(RuleId::new(2))
            .unwrap();
        assert!(check_conflict(&a, &b).unwrap().is_none());
    }

    #[test]
    fn disjunctive_conditions_check_all_pairs() {
        // A fires on (impossible) or (t>26); B fires on (t<30).
        let a = aircon_at(
            "tom",
            25,
            temp(RelOp::Gt, 50)
                .and(temp(RelOp::Lt, 40))
                .or(temp(RelOp::Gt, 26)),
            1,
        );
        let b = aircon_at("alan", 24, temp(RelOp::Lt, 30), 2);
        let conflict = check_conflict(&a, &b).unwrap().expect("should conflict");
        assert_eq!(conflict.conjunct_a(), 1); // the live disjunct
        assert_eq!(conflict.conjunct_b(), 0);
    }

    #[test]
    fn find_conflicts_scans_only_same_device() {
        let mut db = RuleDb::new();
        // 20 rules on the stereo, 3 on the aircon; one aircon rule overlaps.
        for i in 0..20 {
            db.insert(
                Rule::builder(PersonId::new("x"))
                    .condition(Condition::Atom(Atom::Event(EventAtom::new(
                        "e",
                        format!("{i}"),
                    ))))
                    .action(ActionSpec::new(DeviceId::new("stereo"), Verb::Play))
                    .build(RuleId::new(i))
                    .unwrap(),
            )
            .unwrap();
        }
        db.insert(aircon_at(
            "alan",
            24,
            temp(RelOp::Gt, 25).and(humid(RelOp::Gt, 60)),
            100,
        ))
        .unwrap();
        db.insert(aircon_at(
            "emily",
            27,
            temp(RelOp::Gt, 29).and(humid(RelOp::Gt, 75)),
            101,
        ))
        .unwrap();
        db.insert(aircon_at("x", 20, temp(RelOp::Lt, 0), 102))
            .unwrap();

        let tom = aircon_at(
            "tom",
            25,
            temp(RelOp::Gt, 26).and(humid(RelOp::Gt, 65)),
            200,
        );
        let conflicts = find_conflicts(&db, &tom).unwrap();
        // Tom conflicts with Alan (overlap) and Emily (29< t allows both),
        // but not with the sub-zero rule.
        let partners: Vec<u64> = conflicts.iter().map(|c| c.rule_b().raw()).collect();
        assert_eq!(partners, vec![100, 101]);
    }

    #[test]
    fn find_conflicts_skips_disabled_and_self() {
        let mut db = RuleDb::new();
        let alan = aircon_at("alan", 24, temp(RelOp::Gt, 25), 1).with_enabled(false);
        db.insert(alan).unwrap();
        let tom = aircon_at("tom", 25, temp(RelOp::Gt, 26), 2);
        db.insert(tom.clone()).unwrap();
        // Alan is disabled; Tom does not conflict with himself.
        assert!(find_conflicts(&db, &tom).unwrap().is_empty());
    }
}
