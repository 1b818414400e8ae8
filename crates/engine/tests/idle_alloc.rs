//! An idle engine step must not allocate.
//!
//! The dirty-set refactor claims a step's cost scales with the dirty
//! set; the degenerate case is an empty one. With no sensor writes, no
//! due dwell or freshness deadlines and no pending or true rules, the
//! candidate set is empty and the whole step — ingest, candidate
//! refresh, evaluation, commit, arbitration, metrics — must run in
//! recycled buffers: zero heap allocations, regardless of how many
//! rules are loaded.
//!
//! Pinned with a counting global allocator (`counting_alloc`).

use cadel_engine::Engine;
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, RuleId, SensorKey, SimDuration, SimTime, Unit, Value,
};
use cadel_upnp::{ControlPoint, Registry};
use counting_alloc::allocations_during;

mod counting_alloc;

fn sensor(i: u64) -> SensorKey {
    SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading")
}

/// `sensor-{i} > 100` — never true in this workload, so the rule
/// settles out of the pending set after its first committed verdict.
fn quiet_rule(id: u64) -> Rule {
    let mut atom = Atom::Constraint(ConstraintAtom::new(
        sensor(id % 8),
        RelOp::Gt,
        Quantity::from_integer(100, Unit::Celsius),
    ));
    // A sprinkling of dwell clauses: their inner conditions stay false,
    // so no window ever opens and no deadline is ever armed.
    if id.is_multiple_of(5) {
        atom = Atom::held_for(atom, SimDuration::from_minutes(5));
    }
    Rule::builder(PersonId::new("tom"))
        .condition(Condition::Atom(atom))
        .action(ActionSpec::new(DeviceId::new("dev-0"), Verb::TurnOn))
        .build(RuleId::new(id))
        .expect("static rule compiles")
}

#[test]
fn idle_steps_do_not_allocate() {
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    for id in 1..=64 {
        engine.add_rule(quiet_rule(id)).unwrap();
    }

    // Warm-up: the first steps commit every rule's (false) verdict out
    // of the pending set, grow the candidate/stats buffers and touch the
    // lazily-initialised metrics. Include some sensor writes so the dirt
    // log and the mirror boards reach their steady capacity too.
    for s in 0..10u64 {
        engine.context_mut().set_value(
            sensor(s % 8),
            Value::Number(Quantity::from_integer(-5, Unit::Celsius)),
        );
        let report = engine.step(SimTime::EPOCH + SimDuration::from_secs(s));
        assert!(report.is_empty(), "no rule can fire in this workload");
    }

    let ((), allocations) = allocations_during(|| {
        for s in 10..1_010u64 {
            let report = engine.step(SimTime::EPOCH + SimDuration::from_secs(s));
            assert!(report.is_empty());
        }
    });
    assert_eq!(
        allocations, 0,
        "idle steady-state steps must not allocate \
         ({allocations} allocations across 1000 steps with 64 rules loaded)"
    );
}
