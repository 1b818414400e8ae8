//! P-series: ingest coalescing.
//!
//! * **P2** — a step whose batch carries many redundant readings of the
//!   same sensors, with last-write-wins coalescing on vs off.
//!
//! (P1, the `eval_threads` sweep, was removed with the threaded
//! evaluation path; its last numbers are in EXPERIMENTS.md.)
//!
//! `CADEL_BENCH_SMOKE=1` shrinks it to CI-smoke size.

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

/// P2 fleet: `rules` rules spread over `sensors` sensors.
fn p2_engine(rules: u64, sensors: u64, coalesce: bool) -> Engine {
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    engine.set_coalesce_events(coalesce);
    for i in 0..rules {
        let sensor = SensorKey::new(DeviceId::new(format!("sensor-{}", i % sensors)), "reading");
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
    engine.step(SimTime::from_millis(1));
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
    let smoke = std::env::var("CADEL_BENCH_SMOKE").is_ok();
    let (p2_rules, p2_sensors, repeats) = if smoke { (200, 8, 8) } else { (1_000, 8, 16) };
    section("p2_coalesced_ingest (redundant same-sensor readings per batch)");
    for (label, coalesce) in [("coalesced", true), ("verbatim", false)] {
        let mut engine = p2_engine(p2_rules, p2_sensors, coalesce);
        let bus = engine.control().registry().event_bus().clone();
        let mut seq = 2u64;
        run(
            &format!("p2_step/{label}/{p2_sensors}x{repeats}-changes"),
            || {
                seq += 1;
                // Each sensor publishes `repeats` times; only the last
                // value per sensor is observable after the batch.
                for s in 0..p2_sensors {
                    for r in 0..repeats {
                        let value = if (seq + r).is_multiple_of(2) { 30 } else { 70 };
                        publish_reading(&bus, &format!("sensor-{s}"), seq, value);
                    }
                }
                black_box(engine.step(SimTime::from_millis(seq)).firings.len())
            },
        );
    }
}
