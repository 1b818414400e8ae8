//! The `held for` hot path must not allocate in steady state.
//!
//! Evaluating a `HeldFor` atom identifies the tracked condition by a
//! textual fingerprint. Rendering it per evaluation would mean one String
//! per step — a permanent allocation tax on every rule with a dwell
//! clause. Lowering precomputes the fingerprint into the compiled
//! program, so steady-state evaluation allocates nothing.
//!
//! This test pins that on the path the engine runs — a rule's span in the
//! database's program arena, evaluated against the context's slot boards
//! — with a counting global allocator (`counting_alloc`): after a warm-up
//! evaluation (which inserts the tracker entries), repeated evaluations
//! of a held-for condition perform zero heap allocations.

use cadel_engine::{ContextStore, HeldTracker};
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, RuleDb, Verb};
use cadel_simplex::RelOp;
use cadel_types::{
    Date, DeviceId, PersonId, Quantity, SensorKey, SimDuration, SimTime, Unit, Value,
};
use counting_alloc::allocations_during;

mod counting_alloc;

#[test]
fn steady_state_heldfor_evaluation_does_not_allocate() {
    let sensor = SensorKey::new(DeviceId::new("thermo"), "temperature");
    // Two dwell clauses under an Or: while both are pending, neither
    // short-circuits away, so every evaluation observes both dwell clauses.
    let condition = Condition::Atom(Atom::held_for(
        Atom::Constraint(ConstraintAtom::new(
            sensor.clone(),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        )),
        SimDuration::from_minutes(5),
    ))
    .or(Condition::Atom(Atom::held_for(
        Atom::Constraint(ConstraintAtom::new(
            sensor.clone(),
            RelOp::Gt,
            Quantity::from_integer(28, Unit::Celsius),
        )),
        SimDuration::from_minutes(7),
    )));

    let mut db = RuleDb::new();
    let id = db
        .register(
            Rule::builder(PersonId::new("tom"))
                .condition(condition)
                .action(ActionSpec::new(DeviceId::new("fan"), Verb::TurnOn)),
        )
        .unwrap();
    let program = *db.program_ref(id).expect("stored rules are compiled");
    let arena = db.arena();

    let mut ctx = ContextStore::with_interner(
        Date::new(2005, 6, 6).expect("static date"),
        db.interner().clone(),
    );
    ctx.set_now(SimTime::EPOCH);
    ctx.set_value(
        sensor,
        Value::Number(Quantity::from_integer(30, Unit::Celsius)),
    );
    let mut held = HeldTracker::new();

    // Warm-up: inserts both tracker entries (the only transitions this
    // workload ever makes).
    for _ in 0..3 {
        arena.condition_holds(&program, &ctx, &mut held);
    }
    assert_eq!(held.tracked(), 2, "both dwell clauses are tracked");

    let (holds, allocations) = allocations_during(|| {
        (0..1_000)
            .filter(|_| arena.condition_holds(&program, &ctx, &mut held))
            .count()
    });
    assert_eq!(holds, 0, "the 5-minute dwell has not elapsed at EPOCH");
    assert_eq!(
        allocations, 0,
        "steady-state held-for evaluation must not allocate \
         ({allocations} allocations across 1000 evaluations)"
    );

    // And once the dwell elapses the condition actually holds — the
    // precomputed fingerprint still matches the tracked entry.
    ctx.set_now(SimTime::EPOCH + SimDuration::from_minutes(6));
    assert!(arena.condition_holds(&program, &ctx, &mut held));
}
