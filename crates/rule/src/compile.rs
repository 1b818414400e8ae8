//! Lowering of [`Rule`]s into `cadel-ir` programs.
//!
//! A registered rule is compiled once into a [`RuleProgram`]: atoms become
//! slot-indexed predicates, the condition tree becomes flat bytecode with
//! the same shape and short-circuit order, and each DNF conjunct's linear
//! constraints are pre-built into a local solver system for the conflict
//! graph.

use crate::atom::{Atom, Subject};
use crate::condition::{Condition, Conjunct};
use crate::error::RuleError;
use crate::rule::Rule;
use cadel_ir::{CompiledConjunct, CondCode, Interner, IrError, Op, Pred, RuleProgram};

impl From<IrError> for RuleError {
    fn from(e: IrError) -> RuleError {
        match e {
            IrError::DimensionMismatch { context } => RuleError::DimensionMismatch { context },
            // `IrError` is non-exhaustive; future kinds surface as
            // serialization-ish internal errors rather than panicking.
            other => RuleError::DimensionMismatch {
                context: other.to_string(),
            },
        }
    }
}

/// Compiles a rule into an executable program, interning every sensor and
/// event name the rule mentions.
///
/// # Errors
///
/// Returns [`RuleError::DimensionMismatch`] when a conjunct constrains the
/// same sensor under two different physical dimensions. The conjunct
/// systems are built first, so a refused rule interns nothing.
pub fn compile_rule(rule: &Rule, interner: &mut Interner) -> Result<RuleProgram, RuleError> {
    let conjuncts = compile_conjuncts(rule)?;
    let mut preds = Vec::new();
    let mut condition = CondCode::new();
    lower_condition(rule.condition(), interner, &mut preds, &mut condition);
    let until = rule.until().map(|u| {
        let mut code = CondCode::new();
        lower_condition(u, interner, &mut preds, &mut code);
        code
    });
    Ok(RuleProgram::new(preds, condition, until, conjuncts))
}

/// Lowers a bare condition to bytecode over its own predicate table —
/// the compiled form of a priority order's context guard, evaluated with
/// [`cadel_ir::eval_code`].
///
/// Infallible: only a rule's DNF constraint systems can clash dimensions,
/// and a bare condition builds none.
pub fn compile_condition(condition: &Condition, interner: &mut Interner) -> (Vec<Pred>, CondCode) {
    let mut preds = Vec::new();
    let mut code = CondCode::new();
    lower_condition(condition, interner, &mut preds, &mut code);
    (preds, code)
}

/// Pre-builds the linear constraint system of every DNF conjunct of a rule,
/// over conjunct-local solver variables.
///
/// The result is independent of any interner, so the conflict graph can
/// compile a probe rule that is not (yet) registered. Conjuncts align
/// index-for-index with [`Rule::dnf`].
///
/// # Errors
///
/// Returns [`RuleError::DimensionMismatch`] on incompatible dimensions for
/// one sensor within a conjunct.
pub fn compile_conjuncts(rule: &Rule) -> Result<Vec<CompiledConjunct>, RuleError> {
    rule.dnf()
        .conjuncts()
        .iter()
        .map(compile_conjunct)
        .collect()
}

/// Pre-builds the linear constraint system of one conjunct.
///
/// # Errors
///
/// Returns [`RuleError::DimensionMismatch`] on incompatible dimensions.
pub fn compile_conjunct(conjunct: &Conjunct) -> Result<CompiledConjunct, RuleError> {
    let mut compiled = CompiledConjunct::new();
    for atom in conjunct.atoms() {
        collect_bounds(atom, &mut compiled)?;
    }
    Ok(compiled)
}

fn collect_bounds(atom: &Atom, out: &mut CompiledConjunct) -> Result<(), RuleError> {
    match atom {
        Atom::Constraint(c) => out.add_bound(
            c.sensor(),
            c.threshold().dimension(),
            c.op(),
            c.threshold().canonical_value(),
        )?,
        // The duration-qualified form contributes its instantaneous inner
        // comparison, as in `VarPool::conjunct_constraints`.
        Atom::HeldFor { inner, .. } => collect_bounds(inner, out)?,
        Atom::Presence(_)
        | Atom::State(_)
        | Atom::Event(_)
        | Atom::Time(_)
        | Atom::Weekday(_)
        | Atom::Date(_) => {}
    }
    Ok(())
}

/// Flattens a condition tree into bytecode, preserving child order and
/// grouping so evaluation short-circuits exactly like the reference
/// interpreter.
fn lower_condition(
    condition: &Condition,
    interner: &mut Interner,
    preds: &mut Vec<Pred>,
    code: &mut CondCode,
) {
    match condition {
        Condition::True => code.push(Op::True),
        Condition::Atom(atom) => {
            let idx = lower_atom(atom, interner, preds);
            code.push(Op::Pred(idx));
        }
        Condition::And(cs) => {
            let at = code.len();
            code.push(Op::And { end: 0 });
            for c in cs {
                lower_condition(c, interner, preds, code);
            }
            code[at] = Op::And {
                end: code.len() as u32,
            };
        }
        Condition::Or(cs) => {
            let at = code.len();
            code.push(Op::Or { end: 0 });
            for c in cs {
                lower_condition(c, interner, preds, code);
            }
            code[at] = Op::Or {
                end: code.len() as u32,
            };
        }
    }
}

/// Lowers one atom into the predicate table and returns its index.
fn lower_atom(atom: &Atom, interner: &mut Interner, preds: &mut Vec<Pred>) -> u32 {
    let pred = match atom {
        Atom::Constraint(c) => Pred::NumCmp {
            slot: interner.sensor_slot(c.sensor()),
            op: c.op(),
            threshold: c.threshold().canonical_value(),
            dim: c.threshold().dimension(),
        },
        Atom::State(s) => Pred::StateEq {
            slot: interner.sensor_slot(&s.sensor_key()),
            expected: s.value().clone(),
        },
        Atom::Presence(p) => match p.subject() {
            Subject::Person(person) => Pred::PersonAt {
                person: person.clone(),
                place: p.place().clone(),
            },
            Subject::Somebody => Pred::SomebodyAt(p.place().clone()),
            Subject::Nobody => Pred::NobodyAt(p.place().clone()),
        },
        Atom::Event(e) => Pred::Event(interner.event_slot(e.channel(), e.name())),
        Atom::Time(w) => Pred::TimeIn(*w),
        Atom::Weekday(w) => Pred::WeekdayIs(*w),
        Atom::Date(d) => Pred::DateIs(*d),
        Atom::HeldFor { inner, duration } => {
            let inner_idx = lower_atom(inner, interner, preds);
            Pred::HeldFor {
                inner: inner_idx,
                duration: *duration,
                // Byte-identical to the reference interpreter's tracking
                // key, so both observe one `HeldTracker` history.
                fingerprint: format!("{inner}~{}", duration.as_millis()).into_boxed_str(),
            }
        }
    };
    preds.push(pred);
    (preds.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{ConstraintAtom, EventAtom, StateAtom};
    use crate::{ActionSpec, Verb};
    use cadel_simplex::{solve, RelOp, Solution};
    use cadel_types::{DeviceId, PersonId, Quantity, RuleId, SensorKey, SimDuration, Unit, Value};

    fn thermo() -> SensorKey {
        SensorKey::new(DeviceId::new("thermo"), "temperature")
    }

    fn temp_gt(n: i64) -> Condition {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            thermo(),
            RelOp::Gt,
            Quantity::from_integer(n, Unit::Celsius),
        )))
    }

    fn event(name: &str) -> Condition {
        Condition::Atom(Atom::Event(EventAtom::new("tv-guide", name)))
    }

    fn rule_with(condition: Condition) -> Rule {
        Rule::builder(PersonId::new("tom"))
            .condition(condition)
            .action(ActionSpec::new(DeviceId::new("aircon"), Verb::TurnOn))
            .build(RuleId::new(1))
            .unwrap()
    }

    #[test]
    fn lowering_preserves_tree_shape() {
        let rule = rule_with(temp_gt(26).and(event("news").or(event("movie"))));
        let mut interner = Interner::new();
        let program = compile_rule(&rule, &mut interner).unwrap();
        // And{..} Pred(temp) Or{..} Pred(news) Pred(movie)
        assert_eq!(program.condition().len(), 5);
        assert!(matches!(program.condition()[0], Op::And { end: 5 }));
        assert!(matches!(program.condition()[2], Op::Or { end: 5 }));
        assert_eq!(program.preds().len(), 3);
        assert_eq!(interner.sensor_count(), 1);
        assert_eq!(interner.event_count(), 2);
    }

    #[test]
    fn until_shares_the_predicate_table() {
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(event("movie"))
            .until(event("movie ends"))
            .action(ActionSpec::new(DeviceId::new("tv"), Verb::TurnOn))
            .build(RuleId::new(2))
            .unwrap();
        let mut interner = Interner::new();
        let program = compile_rule(&rule, &mut interner).unwrap();
        assert_eq!(program.condition(), &vec![Op::Pred(0)]);
        assert_eq!(program.until(), Some(&vec![Op::Pred(1)]));
        assert_eq!(program.preds().len(), 2);
    }

    #[test]
    fn held_for_fingerprints_match_the_interpreter() {
        let inner = Atom::State(StateAtom::new(
            DeviceId::new("door"),
            "locked",
            Value::Bool(false),
        ));
        let rule = rule_with(Condition::Atom(Atom::held_for(
            inner.clone(),
            SimDuration::from_hours(1),
        )));
        let mut interner = Interner::new();
        let program = compile_rule(&rule, &mut interner).unwrap();
        let expected = format!("{inner}~{}", SimDuration::from_hours(1).as_millis());
        match &program.preds()[1] {
            Pred::HeldFor { fingerprint, .. } => assert_eq!(fingerprint.as_ref(), expected),
            other => panic!("expected HeldFor, got {other:?}"),
        }
    }

    #[test]
    fn conjuncts_align_with_dnf_and_solve() {
        let rule = rule_with(temp_gt(26).or(temp_gt(30).and(event("news"))));
        let conjuncts = compile_conjuncts(&rule).unwrap();
        assert_eq!(conjuncts.len(), rule.dnf().conjuncts().len());
        assert_eq!(conjuncts[0].constraints().len(), 1);
        assert_eq!(conjuncts[1].constraints().len(), 1);
        assert!(matches!(
            solve(conjuncts[1].constraints()).unwrap(),
            Solution::Feasible(_)
        ));
    }

    #[test]
    fn dimension_mismatch_matches_var_pool_wording() {
        let clash = temp_gt(26).and(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            thermo(),
            RelOp::Lt,
            Quantity::from_integer(60, Unit::Percent),
        ))));
        let rule = rule_with(clash);
        let err = compile_conjuncts(&rule).unwrap_err();
        let mut pool = crate::convert::VarPool::new();
        let old = pool
            .conjunct_constraints(&rule.dnf().conjuncts()[0])
            .unwrap_err();
        assert_eq!(err.to_string(), old.to_string());
    }

    #[test]
    fn trivially_true_condition_lowers_to_one_op() {
        let rule = rule_with(Condition::True);
        let mut interner = Interner::new();
        let program = compile_rule(&rule, &mut interner).unwrap();
        assert_eq!(program.condition(), &vec![Op::True]);
        assert!(program.preds().is_empty());
        // One trivially-true conjunct, no numeric constraints.
        assert_eq!(program.conjuncts().len(), rule.dnf().conjuncts().len());
        assert!(program
            .conjuncts()
            .iter()
            .all(|c| c.constraints().is_empty()));
    }

    #[test]
    fn nested_held_for_lowers_recursively() {
        // held(held(t > 26, 5 min), 10 min): both levels get distinct
        // fingerprints and the inner index chain bottoms out at NumCmp.
        let inner = Atom::Constraint(ConstraintAtom::new(
            thermo(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        ));
        let mid = Atom::held_for(inner, SimDuration::from_minutes(5));
        let outer = Atom::held_for(mid.clone(), SimDuration::from_minutes(10));
        let rule = rule_with(Condition::Atom(outer));
        let mut interner = Interner::new();
        let program = compile_rule(&rule, &mut interner).unwrap();
        assert_eq!(program.preds().len(), 3);
        let Pred::HeldFor {
            inner: mid_idx,
            fingerprint: outer_fp,
            ..
        } = program.preds().last().unwrap()
        else {
            panic!("outermost predicate should be HeldFor");
        };
        let Pred::HeldFor {
            inner: leaf_idx,
            fingerprint: mid_fp,
            ..
        } = &program.preds()[*mid_idx as usize]
        else {
            panic!("middle predicate should be HeldFor");
        };
        assert!(matches!(
            program.preds()[*leaf_idx as usize],
            Pred::NumCmp { .. }
        ));
        assert_ne!(outer_fp, mid_fp);
        assert_eq!(
            outer_fp.as_ref(),
            format!("{mid}~{}", SimDuration::from_minutes(10).as_millis())
        );
        // Numeric bounds inside HeldFor still reach the conjunct system.
        assert_eq!(program.conjuncts().len(), 1);
        assert_eq!(program.conjuncts()[0].constraints().len(), 1);
    }

    #[test]
    fn bare_condition_lowers_like_a_rule_condition() {
        let condition = temp_gt(26).and(event("news").or(event("movie")));
        let mut interner = Interner::new();
        let (preds, code) = compile_condition(&condition, &mut interner);
        let program = compile_rule(&rule_with(condition), &mut interner).unwrap();
        assert_eq!(preds, program.preds());
        assert_eq!(&code, program.condition());
    }

    #[test]
    fn empty_or_lowers_to_false() {
        let rule = rule_with(Condition::Or(vec![]));
        let mut interner = Interner::new();
        let program = compile_rule(&rule, &mut interner).unwrap();
        assert_eq!(program.condition(), &vec![Op::Or { end: 1 }]);
        assert!(rule.dnf().is_trivially_false());
        assert!(program.conjuncts().is_empty());
    }
}
