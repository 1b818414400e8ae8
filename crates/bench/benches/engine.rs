//! Engine-step benchmarks.
//!
//! * **A3 (ablation)** — trigger indexing: one sensor event against the
//!   index vs the index-less full scan, and the cost of an idle tick.

use cadel_bench::timing::{run, section};
use cadel_engine::Engine;
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_simplex::RelOp;
use cadel_types::{DeviceId, PersonId, Quantity, RuleId, SensorKey, SimTime, Unit, Value};
use cadel_upnp::{ControlPoint, EventBus, Registry};
use std::hint::black_box;

fn constraint(sensor: &SensorKey, op: RelOp, n: i64) -> Condition {
    Condition::Atom(Atom::Constraint(ConstraintAtom::new(
        sensor.clone(),
        op,
        Quantity::from_integer(n, Unit::Celsius),
    )))
}

/// A3 fleet: each rule watches its own sensor; the event only touches
/// `sensor-0`.
fn a3_engine(n: u64, use_index: bool) -> Engine {
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    engine.set_use_trigger_index(use_index);
    for i in 0..n {
        let sensor = SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading");
        let rule = Rule::builder(PersonId::new("bench"))
            .condition(constraint(&sensor, RelOp::Gt, 50))
            .action(ActionSpec::new(
                DeviceId::new(format!("device-{i}")),
                Verb::TurnOn,
            ))
            .build(RuleId::new(i))
            .unwrap();
        engine.add_rule(rule).unwrap();
    }
    engine.step(SimTime::from_millis(1)); // settle the initial pass
    engine
}

fn publish_reading(bus: &EventBus, device: &str, seq: u64, value: i64) {
    bus.publish_change(
        DeviceId::new(device),
        "reading".to_owned(),
        Value::Number(Quantity::from_integer(value, Unit::Celsius)),
        SimTime::from_millis(seq),
    );
}

fn main() {
    section("a3_step_after_one_sensor_event (indexed vs full scan)");
    for n in [100u64, 1_000, 10_000] {
        for (label, use_index) in [("indexed", true), ("full-scan", false)] {
            let mut engine = a3_engine(n, use_index);
            let bus = engine.control().registry().event_bus().clone();
            let mut seq = 2u64;
            run(&format!("a3_step/{label}/{n}"), || {
                // Alternate below/above threshold so the watched rule
                // keeps toggling (worst case: the rule stays live).
                seq += 1;
                let value = if seq.is_multiple_of(2) { 30 } else { 70 };
                publish_reading(&bus, "sensor-0", seq, value);
                black_box(engine.step(SimTime::from_millis(seq)).firings.len())
            });
        }
    }

    section("a3_idle_step (no events)");
    for n in [1_000u64, 10_000] {
        for (label, use_index) in [("indexed", true), ("full-scan", false)] {
            let mut engine = a3_engine(n, use_index);
            let mut seq = 2u64;
            run(&format!("a3_idle/{label}/{n}"), || {
                seq += 1;
                black_box(engine.step(SimTime::from_millis(seq)).is_empty())
            });
        }
    }
}
