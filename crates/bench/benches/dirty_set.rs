//! P-series continued: dirty-set incremental evaluation.
//!
//! * **P3** — dirty-set scaling: one step over fleets of 10k/100k/1M
//!   rules where each rule watches its own sensor, swept across dirty
//!   sets of 1/16/256 sensors. With the slot-keyed trigger index a
//!   step's cost tracks the dirty set, not the fleet size — the
//!   100k-rule/1-sensor step should sit within a small factor of the
//!   1k-rule one.
//! * **P4** — the ablation: the same fleet and dirty set with the
//!   trigger index on vs off (`set_use_trigger_index(false)` scans every
//!   rule).
//! * **P5** — crossing postings and clock deadlines: 10,000 rules on one
//!   shared sensor over 1,000 distinct thresholds plus 2,500 time-window
//!   rules, index on vs off. Prints the per-phase time and the rules
//!   evaluated per step, and asserts that a one-unit reading move
//!   evaluates at most 100 rules and an idle step away from any window
//!   boundary evaluates none.
//!
//! `CADEL_BENCH_SMOKE=1` shrinks the fleets to CI-smoke size.

use cadel_bench::timing::{run, section};
use cadel_devices::{Light, LightKind};
use cadel_engine::Engine;
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, RuleId, SensorKey, SimDuration, SimTime, TimeOfDay, TimeWindow,
    Unit, Value,
};
use cadel_upnp::{ControlPoint, EventBus, Registry};
use std::hint::black_box;

/// One rule per sensor: `sensor-i > 50 → turn on device-i`. A reading
/// for sensor `i` dirties exactly one rule.
fn fleet(n: u64) -> Engine {
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    for i in 0..n {
        let sensor = SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading");
        let rule = Rule::builder(PersonId::new("bench"))
            .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                sensor,
                RelOp::Gt,
                Quantity::from_integer(50, Unit::Celsius),
            ))))
            .action(ActionSpec::new(
                DeviceId::new(format!("device-{i}")),
                Verb::TurnOn,
            ))
            .build(RuleId::new(i))
            .unwrap();
        engine.add_rule(rule).unwrap();
    }
    // Settle the pending set: every rule commits its first verdict here.
    engine.step(SimTime::from_millis(1));
    engine
}

fn publish_reading(bus: &EventBus, sensor: u64, seq: u64, value: i64) {
    bus.publish_change(
        DeviceId::new(format!("sensor-{sensor}")),
        "reading".to_owned(),
        Value::Number(Quantity::from_integer(value, Unit::Celsius)),
        SimTime::from_millis(seq),
    );
}

/// One benchmark case: publish `dirty` readings (alternating above/below
/// the threshold so the touched rules genuinely flip) and take one step.
fn step_case(engine: &mut Engine, label: &str, dirty: u64) {
    let bus = engine.control().registry().event_bus().clone();
    let mut seq = 2u64;
    run(label, || {
        seq += 1;
        let value = if seq.is_multiple_of(2) { 30 } else { 70 };
        for s in 0..dirty {
            publish_reading(&bus, s, seq, value);
        }
        black_box(engine.step(SimTime::from_millis(seq)).firings.len())
    });
}

fn main() {
    let smoke = std::env::var("CADEL_BENCH_SMOKE").is_ok();
    let fleet_sizes: &[u64] = if smoke {
        &[1_000, 5_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let dirty_sizes: &[u64] = if smoke { &[1, 16] } else { &[1, 16, 256] };

    section("p3_dirty_set_scaling (per-step cost vs fleet size and dirty set)");
    for &n in fleet_sizes {
        let mut engine = fleet(n);
        for &dirty in dirty_sizes {
            step_case(
                &mut engine,
                &format!("p3_step/rules-{n}/dirty-{dirty}"),
                dirty,
            );
        }
    }

    let (p4_rules, p4_dirty) = if smoke { (5_000, 16) } else { (100_000, 16) };
    section("p4_full_scan_ablation (trigger index on vs off)");
    for (label, trigger) in [("dirty", true), ("fullscan", false)] {
        let mut engine = fleet(p4_rules);
        engine.set_use_trigger_index(trigger);
        step_case(
            &mut engine,
            &format!("p4_step/{label}/rules-{p4_rules}"),
            p4_dirty,
        );
    }

    p5(smoke);
}

/// Series the P5 table reads, in step order.
const PHASES: [&str; 4] = [
    "engine_phase_ingest_ns",
    "engine_phase_candidates_ns",
    "engine_phase_evaluate_ns",
    "engine_phase_arbitrate_ns",
];

/// P5 fleet: `shared` rules `sensor-0 > (i mod 1000)` on four lamps,
/// plus `windows` rules `time in [h, h + 2 h) and sensor-0 > 5000` with
/// `h = i mod 24`, which never hold under P5's readings.
fn p5_engine(shared: u64, windows: u64) -> Engine {
    let registry = Registry::new();
    for lamp in 0..4 {
        let udn = format!("lamp-{lamp}");
        registry
            .register(Light::new(&udn, &udn, "hall", LightKind::FloorLamp))
            .unwrap();
    }
    let mut engine = Engine::new(ControlPoint::new(registry));
    let sensor = SensorKey::new(DeviceId::new("sensor-0"), "reading");
    let above = |n: u64| {
        Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            sensor.clone(),
            RelOp::Gt,
            Quantity::from_integer(n as i64, Unit::Celsius),
        )))
    };
    for i in 0..shared + windows {
        let condition = if i < shared {
            above(i % 1000)
        } else {
            let start = (i % 24) as u8;
            let window = TimeWindow::new(
                TimeOfDay::hm(start, 0).unwrap(),
                TimeOfDay::hm((start + 2) % 24, 0).unwrap(),
            );
            Condition::Atom(Atom::Time(window)).and(above(5_000))
        };
        let rule = Rule::builder(PersonId::new("bench"))
            .condition(condition)
            .action(ActionSpec::new(
                DeviceId::new(format!("lamp-{}", i % 4)),
                Verb::TurnOn,
            ))
            .build(RuleId::new(i))
            .unwrap();
        engine.add_rule(rule).unwrap();
    }
    engine
}

/// Runs `steps` steps, each after `before_step(k)`, and returns the mean
/// per-phase nanoseconds and the largest number of rules one step
/// evaluated.
fn p5_steps(
    engine: &mut Engine,
    steps: u64,
    mut before_step: impl FnMut(u64) -> SimTime,
) -> ([f64; 4], u64) {
    let evaluated = || {
        cadel_obs::metrics_snapshot()
            .counter("engine_rules_evaluated_total")
            .unwrap_or(0)
    };
    let sums = || {
        let snapshot = cadel_obs::metrics_snapshot();
        PHASES.map(|name| snapshot.histogram(name).map_or(0, |h| h.sum))
    };
    let start = sums();
    let mut most = 0;
    for k in 0..steps {
        let now = before_step(k);
        let before = evaluated();
        engine.step(now);
        most = most.max(evaluated() - before);
    }
    let end = sums();
    let mut mean = [0.0; 4];
    for (i, m) in mean.iter_mut().enumerate() {
        *m = (end[i] - start[i]) as f64 / steps as f64;
    }
    (mean, most)
}

fn p5(smoke: bool) {
    let (shared, windows) = (10_000, 2_500);
    let steps = if smoke { 50 } else { 400 };
    section("p5_crossing_postings (one shared sensor, 1,000 thresholds, clock windows)");
    cadel_obs::enable_metrics_only();
    println!(
        "{:<34} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "case (mean µs per step)", "ingest", "candid.", "evaluate", "arbitr.", "evaluated"
    );
    // Mid-hour, so no window boundary falls inside the measured steps.
    let half_past = SimTime::EPOCH + SimDuration::from_minutes(30);
    for (label, trigger) in [("index", true), ("fullscan", false)] {
        let mut engine = p5_engine(shared, windows);
        engine.set_use_trigger_index(trigger);
        let bus = engine.control().registry().event_bus().clone();
        // Settle: every rule commits its first verdict.
        publish_reading(&bus, 0, 0, 0);
        engine.step(half_past);
        let at = |k: u64| half_past + SimDuration::from_millis(k + 1);

        // One-unit moves, 0 ↔ 1: only the ten `> 0` rules flip.
        let (moves, most) = p5_steps(&mut engine, steps, |k| {
            publish_reading(&bus, 0, k, 1 - (k % 2) as i64);
            at(k)
        });
        print_p5(&format!("p5/{label}/one-unit-move"), moves, most);
        let (idle, idle_most) = p5_steps(&mut engine, steps, |k| at(steps + k));
        print_p5(&format!("p5/{label}/idle"), idle, idle_most);
        if trigger {
            assert!(
                most <= 100,
                "a one-unit move evaluated {most} rules (at most 100 expected)"
            );
            assert_eq!(
                idle_most, 0,
                "an idle step away from any window boundary evaluated {idle_most} rules"
            );
        } else {
            assert_eq!(most, shared + windows, "the full scan evaluates every rule");
        }
    }
    cadel_obs::shutdown();
}

fn print_p5(label: &str, phases: [f64; 4], evaluated: u64) {
    let us = phases.map(|ns| ns / 1_000.0);
    println!(
        "{:<34} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10}",
        label, us[0], us[1], us[2], us[3], evaluated
    );
}
