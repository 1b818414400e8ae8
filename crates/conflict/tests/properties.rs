//! Property tests over the conflict checker's core guarantees, on seeded
//! random rule pairs.
//!
//! Every verdict is decided by the production path — a [`ConflictGraph`]
//! over a database holding the existing rule — and cross-checked against
//! the brute-force oracle [`check_conflict`].

use cadel_conflict::{check_conflict, check_consistency, ConflictGraph};
use cadel_rule::{
    ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom, Rule, RuleDb, Verb,
};
use cadel_simplex::RelOp;
use cadel_types::{DeviceId, PersonId, Quantity, Rng, RuleId, SensorKey, Unit};

const CASES: u64 = 96;
const OPS: [RelOp; 5] = [RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge, RelOp::Eq];

fn sensor(i: u64) -> SensorKey {
    SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading")
}

fn arb_atom(rng: &mut Rng) -> Atom {
    match rng.below(3) {
        // Numeric constraints over 3 shared sensors.
        0 => Atom::Constraint(ConstraintAtom::new(
            sensor(rng.below(3)),
            *rng.pick(&OPS),
            Quantity::from_integer(rng.range_i64(-10, 39), Unit::Celsius),
        )),
        // Presence of 2 people over 2 places.
        1 => Atom::Presence(PresenceAtom::person_at(
            format!("person-{}", rng.below(2)),
            format!("room-{}", rng.below(2)),
        )),
        // Events on a shared channel.
        _ => Atom::Event(EventAtom::new("chan", format!("event-{}", rng.below(3)))),
    }
}

/// One to three atoms joined all by `and` or all by `or`.
fn arb_condition(rng: &mut Rng) -> Condition {
    let use_or = rng.chance(1, 2);
    let first = Condition::Atom(arb_atom(rng));
    (0..rng.below(3)).fold(first, |acc, _| {
        let next = Condition::Atom(arb_atom(rng));
        if use_or {
            acc.or(next)
        } else {
            acc.and(next)
        }
    })
}

/// A rule on the shared device: `verb` with a temperature setting.
fn rule(id: u64, condition: Condition, verb: Verb, setpoint: i64) -> Rule {
    let setting = Quantity::from_integer(setpoint, Unit::Celsius);
    let action = ActionSpec::new(DeviceId::new("shared-device"), verb);
    Rule::builder(PersonId::new(format!("user-{id}")))
        .condition(condition)
        .action(action.with_setting("temperature", setting))
        .build(RuleId::new(id))
        .expect("generated rules are simple enough to build")
}

fn arb_rule(rng: &mut Rng, id: u64) -> Rule {
    let verb = if rng.chance(1, 2) {
        Verb::TurnOn
    } else {
        Verb::TurnOff
    };
    rule(id, arb_condition(rng), verb, 20 + rng.range_i64(0, 2))
}

fn reading(op: RelOp, n: i64) -> Condition {
    Condition::Atom(Atom::Constraint(ConstraintAtom::new(
        sensor(0),
        op,
        Quantity::from_integer(n, Unit::Celsius),
    )))
}

/// Whether `probe` conflicts with `existing`: the conflict graph's verdict,
/// asserted equal to the brute-force oracle's.
fn conflicts(probe: &Rule, existing: &Rule) -> bool {
    let mut db = RuleDb::new();
    db.insert(existing.clone()).unwrap();
    let report = ConflictGraph::default().analyze(&db, probe).unwrap();
    let oracle = check_conflict(probe, existing).unwrap().is_some();
    assert_eq!(
        !report.conflicts.is_empty(),
        oracle,
        "graph and oracle disagree on {probe} vs {existing}"
    );
    oracle
}

/// The conflict verdict is symmetric: whether two rules can collide does
/// not depend on which one is "being registered".
#[test]
fn conflict_verdict_is_symmetric() {
    let mut rng = Rng::new(0x5);
    for _ in 0..CASES {
        let (a, b) = (arb_rule(&mut rng, 1), arb_rule(&mut rng, 2));
        assert_eq!(conflicts(&a, &b), conflicts(&b, &a), "{a} vs {b}");
    }
}

/// A rule never conflicts with an exact copy of itself under a new id and
/// owner (identical actions are compatible by §4.4).
#[test]
fn rule_never_conflicts_with_its_clone() {
    let mut rng = Rng::new(0xC1);
    for _ in 0..CASES {
        let a = arb_rule(&mut rng, 1);
        let clone = a
            .clone()
            .reassigned(RuleId::new(99), PersonId::new("other"));
        assert!(!conflicts(&a, &clone), "{a}");
    }
}

/// Conflicting rules are individually consistent: a conflict requires both
/// conditions to hold somewhere, so each must be satisfiable.
#[test]
fn conflicts_imply_consistency() {
    let mut rng = Rng::new(0xC0);
    for _ in 0..CASES {
        let (a, b) = (arb_rule(&mut rng, 1), arb_rule(&mut rng, 2));
        if conflicts(&a, &b) {
            assert!(check_consistency(&a).unwrap().is_satisfiable(), "{a}");
            assert!(check_consistency(&b).unwrap().is_satisfiable(), "{b}");
        }
    }
}

/// An inconsistent rule conflicts with nothing.
#[test]
fn inconsistent_rules_conflict_with_nothing() {
    let impossible = reading(RelOp::Gt, 50).and(reading(RelOp::Lt, -50));
    let a = rule(1, impossible, Verb::TurnOn, 99);
    assert!(!check_consistency(&a).unwrap().is_satisfiable());
    let mut rng = Rng::new(0x1C);
    for _ in 0..CASES {
        let b = arb_rule(&mut rng, 2);
        assert!(!conflicts(&a, &b), "{b}");
    }
}

/// Widening a threshold can only preserve or create conflicts, never
/// remove them (monotonicity of satisfiability in the bound).
#[test]
fn loosening_a_lower_bound_preserves_conflicts() {
    let above = |threshold| rule(1, reading(RelOp::Gt, threshold), Verb::TurnOn, 99);
    let mut rng = Rng::new(0x10);
    let mut held = 0;
    for _ in 0..CASES {
        let b = arb_rule(&mut rng, 2);
        let tight = rng.range_i64(0, 29);
        let slack = rng.range_i64(1, 9);
        if conflicts(&above(tight), &b) {
            held += 1;
            assert!(
                conflicts(&above(tight - slack), &b),
                "{b} at {tight}-{slack}"
            );
        }
    }
    assert!(held > 0, "the workload never produced a conflict to loosen");
}
