//! The engine's four phase histograms account for its step time:
//! `engine_phase_{ingest,candidates,evaluate,arbitrate}_ns` sum to
//! `engine_step_duration_ns` within 10 %.
//!
//! Lives in its own integration binary because it flips the
//! process-global observability switch.

use cadel_engine::Engine;
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, Rng, RuleId, SensorKey, SimDuration, SimTime, TimeOfDay,
    TimeWindow, Unit, Value,
};
use cadel_upnp::{ControlPoint, Registry};

const PHASES: [&str; 4] = [
    "engine_phase_ingest_ns",
    "engine_phase_candidates_ns",
    "engine_phase_evaluate_ns",
    "engine_phase_arbitrate_ns",
];

fn sensor(i: u64) -> SensorKey {
    SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading")
}

#[test]
fn phase_histograms_sum_to_step_time() {
    cadel_obs::enable_metrics_only();
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    for id in 0..600u64 {
        let mut condition = Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            sensor(id % 8),
            RelOp::Gt,
            Quantity::from_integer((id % 40) as i64, Unit::Celsius),
        )));
        if id % 3 == 0 {
            let start = TimeOfDay::from_minutes((id * 7 % 1440) as u32);
            let end = TimeOfDay::from_minutes((id * 13 % 1440) as u32);
            condition = condition.and(Condition::Atom(Atom::Time(TimeWindow::new(start, end))));
        }
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(condition)
            .action(ActionSpec::new(
                DeviceId::new(format!("dev-{}", id % 16)),
                Verb::TurnOn,
            ))
            .build(RuleId::new(id))
            .unwrap();
        engine.add_rule(rule).unwrap();
    }
    let mut rng = Rng::new(5);
    for step in 1..=300u64 {
        for s in 0..8 {
            if rng.chance(1, 2) {
                engine.context_mut().set_value(
                    sensor(s),
                    Value::Number(Quantity::from_integer(rng.range_i64(0, 40), Unit::Celsius)),
                );
            }
        }
        engine.step(SimTime::EPOCH + SimDuration::from_minutes(step * 5));
    }

    let snapshot = cadel_obs::metrics_snapshot();
    let sum = |name: &str| {
        let h = snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} missing from snapshot"));
        assert_eq!(h.count, 300, "{name} must record every step");
        h.sum as f64
    };
    let step = sum("engine_step_duration_ns");
    let phases: f64 = PHASES.iter().map(|name| sum(name)).sum();
    assert!(
        (phases - step).abs() <= 0.1 * step,
        "phases sum to {phases} ns, steps to {step} ns"
    );
    cadel_obs::shutdown();
}
