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
//! * **P6** — the dense home's engine step, in process: the `dense_home`
//!   workload's 100 rooms of 100 rules and 400 priority orders, fed the
//!   workload's seeded readings through its devices. Prints one JSON
//!   line: the step's p50 and p99, the mean of each step phase, and the
//!   rules evaluated and firings per step. Asserts that the first 50
//!   steps fire exactly as the full scan does.
//!
//! `CADEL_BENCH_SMOKE=1` shrinks the fleets to CI-smoke size.

use cadel_bench::timing::{run, section};
use cadel_conflict::PriorityOrder;
use cadel_devices::{
    AirConditioner, EnvironmentSensor, Hygrometer, Light, LightKind, PresenceReader, Thermometer,
};
use cadel_engine::{Engine, StepReport};
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, Rule, Verb};
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, Rational, Rng, RuleId, SensorKey, SimDuration, SimTime,
    TimeOfDay, TimeWindow, Unit, Value,
};
use cadel_upnp::{ControlPoint, EventBus, Registry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

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
    p6(smoke);
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

/// P6 home size: as in the `dense_home` workload.
const ROOMS: usize = 100;
const RULES_PER_ROOM: usize = 100;
/// Of each room's rules, this many actuate its air conditioner; the
/// rest its light.
const AIRCON_RULES: usize = 60;
/// Room readings per tick, beside the shared sensors.
const ROOM_READINGS: usize = 56;
const ARRIVAL_EVENT: &str = "came home";

fn thermo(r: usize) -> String {
    format!("thermo-{r:03}")
}

fn aircon(r: usize) -> String {
    format!("aircon-{r:03}")
}

fn light(r: usize) -> String {
    format!("light-{r:03}")
}

fn dense_bound(device: &str, variable: &str, op: RelOp, value: i64, unit: Unit) -> Atom {
    Atom::Constraint(ConstraintAtom::new(
        SensorKey::new(DeviceId::new(device), variable),
        op,
        Quantity::from_integer(value, unit),
    ))
}

fn dense_window(start_hour: u8, hours: u8) -> Atom {
    Atom::Time(TimeWindow::new(
        TimeOfDay::hm(start_hour % 24, 0).unwrap(),
        TimeOfDay::hm((start_hour + hours) % 24, 0).unwrap(),
    ))
}

/// The whole-home part of rule `k`'s condition.
fn dense_shared_atom(k: usize) -> Atom {
    match k % 20 {
        0..=7 => dense_bound(
            "thermo-outdoor",
            "temperature",
            RelOp::Gt,
            5 + (k * 7 % 30) as i64,
            Unit::Celsius,
        ),
        8..=12 => dense_bound(
            "hygro-outdoor",
            "humidity",
            RelOp::Gt,
            30 + (k * 11 % 60) as i64,
            Unit::Percent,
        ),
        13..=17 => dense_window((k * 5 % 24) as u8, 4),
        _ => Atom::Event(EventAtom::new("person", ARRIVAL_EVENT)),
    }
}

/// The dense home's rules and orders: per room, the room's thermometer
/// against a threshold (held for three minutes on every seventh rule)
/// and one whole-home input, an `until` on every fifth rule, and for
/// each of the room's two devices a default order and a reversed
/// context-scoped one.
fn dense_rules() -> (Vec<Rule>, Vec<PriorityOrder>) {
    let mut rules = Vec::with_capacity(ROOMS * RULES_PER_ROOM);
    let mut orders = Vec::new();
    for r in 0..ROOMS {
        let base = (r * RULES_PER_ROOM) as u64 + 1;
        for k in 0..RULES_PER_ROOM {
            let threshold = 20 + (k % 10) as i64;
            let room = if k % 7 == 3 {
                Atom::held_for(
                    dense_bound(
                        &thermo(r),
                        "temperature",
                        RelOp::Gt,
                        threshold,
                        Unit::Celsius,
                    ),
                    SimDuration::from_minutes(3),
                )
            } else if k < AIRCON_RULES {
                dense_bound(
                    &thermo(r),
                    "temperature",
                    RelOp::Gt,
                    threshold,
                    Unit::Celsius,
                )
            } else {
                let below = 34 - (k % 10) as i64;
                dense_bound(&thermo(r), "temperature", RelOp::Lt, below, Unit::Celsius)
            };
            let action = if k < AIRCON_RULES {
                ActionSpec::new(DeviceId::new(aircon(r)), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(16 + (k % 17) as i64, Unit::Celsius),
                )
            } else {
                ActionSpec::new(DeviceId::new(light(r)), Verb::TurnOn).with_setting(
                    "brightness",
                    Quantity::from_integer(10 + (k % 90) as i64, Unit::Percent),
                )
            };
            let mut builder = Rule::builder(PersonId::new("resident"))
                .condition(Condition::Atom(room).and(Condition::Atom(dense_shared_atom(k))))
                .action(action);
            if k % 5 == 0 {
                let floor = 18 + (k % 10) as i64;
                builder = builder.until(Condition::Atom(dense_bound(
                    &thermo(r),
                    "temperature",
                    RelOp::Lt,
                    floor,
                    Unit::Celsius,
                )));
            }
            rules.push(builder.build(RuleId::new(base + k as u64)).unwrap());
        }
        let ids = |range: std::ops::Range<usize>| -> Vec<RuleId> {
            range.map(|k| RuleId::new(base + k as u64)).collect()
        };
        let reversed = |v: &[RuleId]| v.iter().rev().copied().collect::<Vec<_>>();
        let cool = ids(0..AIRCON_RULES);
        let lamp = ids(AIRCON_RULES..RULES_PER_ROOM);
        orders.push(
            PriorityOrder::new(DeviceId::new(aircon(r)), reversed(&cool))
                .in_context(Condition::Atom(dense_window(18, 5))),
        );
        orders.push(PriorityOrder::new(DeviceId::new(aircon(r)), cool));
        orders.push(
            PriorityOrder::new(DeviceId::new(light(r)), reversed(&lamp)).in_context(
                Condition::Atom(dense_bound(
                    "hygro-outdoor",
                    "humidity",
                    RelOp::Gt,
                    70,
                    Unit::Percent,
                )),
            ),
        );
        orders.push(PriorityOrder::new(DeviceId::new(light(r)), lamp));
    }
    (rules, orders)
}

/// One dense home: the engine and the devices readings land on.
struct DenseHome {
    engine: Engine,
    rooms: Vec<Arc<EnvironmentSensor>>,
    outdoor: Arc<EnvironmentSensor>,
    humidity: Arc<EnvironmentSensor>,
    door: Arc<PresenceReader>,
}

impl DenseHome {
    fn new(trigger_index: bool) -> DenseHome {
        let registry = Registry::new();
        let mut rooms = Vec::with_capacity(ROOMS);
        for r in 0..ROOMS {
            let place = format!("room {r}");
            let t = Thermometer::new(&thermo(r), "Thermometer", &place, 22);
            registry.register(t.clone()).unwrap();
            rooms.push(t);
            registry
                .register(AirConditioner::new(&aircon(r), "Air Conditioner", &place))
                .unwrap();
            registry
                .register(Light::new(
                    &light(r),
                    "Light",
                    &place,
                    LightKind::Fluorescent,
                ))
                .unwrap();
        }
        let outdoor = Thermometer::new("thermo-outdoor", "Outdoor Thermometer", "garden", 20);
        let humidity = Hygrometer::new("hygro-outdoor", "Outdoor Hygrometer", "garden", 50);
        let door = PresenceReader::new("reader-door", "Door Reader", "entrance");
        registry.register(outdoor.clone()).unwrap();
        registry.register(humidity.clone()).unwrap();
        registry.register(door.clone()).unwrap();
        let mut engine = Engine::new(ControlPoint::new(registry));
        engine.set_use_trigger_index(trigger_index);
        let (rules, orders) = dense_rules();
        for rule in rules {
            engine.add_rule(rule).unwrap();
        }
        for order in orders {
            engine.add_priority(order);
        }
        DenseHome {
            engine,
            rooms,
            outdoor,
            humidity,
            door,
        }
    }

    /// Delivers one tick of readings and steps the engine at the tick's
    /// minute.
    fn tick(&mut self, traffic: &mut DenseTraffic) -> (StepReport, f64) {
        let at = SimTime::from_millis(traffic.tick * 60_000);
        let celsius = |v: i64| Rational::from_integer(v);
        let (outdoor, humidity, arrival, rooms) = traffic.next();
        self.outdoor.set_reading(celsius(outdoor), at).unwrap();
        if let Some(h) = humidity {
            self.humidity.set_reading(celsius(h), at).unwrap();
        }
        if arrival {
            self.door
                .announce_arrival(&PersonId::new("alan"), ARRIVAL_EVENT, at);
        }
        for (r, v) in rooms {
            self.rooms[r].set_reading(celsius(v), at).unwrap();
        }
        let start = Instant::now();
        let report = self.engine.step(at);
        (report, start.elapsed().as_secs_f64() * 1e6)
    }
}

/// The `dense_home` workload's seeded readings: a mean-reverting random
/// walk per room (56 rooms a tick, in shuffled order), outdoor
/// temperature every tick, outdoor humidity every third tick, and an
/// arrival one tick in ten.
struct DenseTraffic {
    rng: Rng,
    rooms: Vec<i64>,
    outdoor: i64,
    humidity: i64,
    tick: u64,
}

impl DenseTraffic {
    fn new(seed: u64) -> DenseTraffic {
        DenseTraffic {
            rng: Rng::new(seed ^ 0xd0e5_e40e),
            rooms: vec![22; ROOMS],
            outdoor: 20,
            humidity: 50,
            tick: 0,
        }
    }

    /// One tick: outdoor temperature, humidity if due, whether someone
    /// arrives, and the room readings.
    #[allow(clippy::type_complexity)]
    fn next(&mut self) -> (i64, Option<i64>, bool, Vec<(usize, i64)>) {
        self.outdoor =
            (self.outdoor + self.rng.range_i64(-2, 2) + (20 - self.outdoor).signum()).clamp(0, 40);
        let humidity = self.tick.is_multiple_of(3).then(|| {
            self.humidity =
                (self.humidity + self.rng.range_i64(-5, 5) + (55 - self.humidity).signum())
                    .clamp(20, 95);
            self.humidity
        });
        let arrival = self.rng.chance(1, 10);
        let mut order: Vec<usize> = (0..ROOMS).collect();
        let mut rooms = Vec::with_capacity(ROOM_READINGS);
        for i in 0..ROOM_READINGS {
            let j = i + self.rng.below((ROOMS - i) as u64) as usize;
            order.swap(i, j);
            let r = order[i];
            self.rooms[r] =
                (self.rooms[r] + self.rng.range_i64(-2, 2) + (24 - self.rooms[r]).signum())
                    .clamp(12, 36);
            rooms.push((r, self.rooms[r]));
        }
        self.tick += 1;
        (self.outdoor, humidity, arrival, rooms)
    }
}

fn p6(smoke: bool) {
    const SEED: u64 = 11;
    const WARMUP: u64 = 16;
    const CHECKED: u64 = 50;
    let steps = if smoke { 200 } else { 2_000 };
    section("p6_dense_home_step (the dense home's engine step, in process)");

    // The first steps fire exactly as the full scan does.
    let mut indexed = DenseHome::new(true);
    let mut full = DenseHome::new(false);
    let (mut a, mut b) = (DenseTraffic::new(SEED), DenseTraffic::new(SEED));
    for tick in 0..CHECKED {
        let (left, _) = indexed.tick(&mut a);
        let (right, _) = full.tick(&mut b);
        assert_eq!(
            left, right,
            "tick {tick}: the index and the full scan fire differently"
        );
    }
    drop((indexed, full));

    let mut home = DenseHome::new(true);
    let mut traffic = DenseTraffic::new(SEED);
    for _ in 0..WARMUP {
        home.tick(&mut traffic);
    }
    cadel_obs::enable_metrics_only();
    let counter = |name: &str| cadel_obs::metrics_snapshot().counter(name).unwrap_or(0);
    let sums = || {
        let snapshot = cadel_obs::metrics_snapshot();
        PHASES.map(|name| snapshot.histogram(name).map_or(0, |h| h.sum))
    };
    let (phases_before, evaluated_before) = (sums(), counter("engine_rules_evaluated_total"));
    let mut step_us = Vec::with_capacity(steps as usize);
    let mut firings = 0;
    for _ in 0..steps {
        let (report, us) = home.tick(&mut traffic);
        firings += report.firings.len();
        step_us.push(us);
    }
    let phases_after = sums();
    let evaluated = counter("engine_rules_evaluated_total") - evaluated_before;
    cadel_obs::shutdown();
    step_us.sort_unstable_by(f64::total_cmp);
    let quantile = |q: f64| step_us[((step_us.len() - 1) as f64 * q).round() as usize];
    let phase = |i: usize| (phases_after[i] - phases_before[i]) as f64 / steps as f64 / 1_000.0;
    let per_step = |n: u64| n as f64 / steps as f64;
    assert!(firings > 0, "the dense home never fired");
    println!(
        "{{\"bench\": \"p6_dense_home_step\", \"rules\": {}, \"orders\": {}, \"steps\": {steps}, \
         \"step_us\": {{\"p50\": {:.1}, \"p99\": {:.1}}}, \"phase_us_mean\": {{\"ingest\": {:.1}, \
         \"candidates\": {:.1}, \"evaluate\": {:.1}, \"arbitrate\": {:.1}}}, \
         \"evaluated_per_step\": {:.1}, \"firings_per_step\": {:.1}}}",
        ROOMS * RULES_PER_ROOM,
        ROOMS * 4,
        quantile(0.5),
        quantile(0.99),
        phase(0),
        phase(1),
        phase(2),
        phase(3),
        per_step(evaluated),
        per_step(firings as u64),
    );
}
