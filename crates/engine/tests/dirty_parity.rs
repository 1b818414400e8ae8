//! Acceptance parity for incremental evaluation: an engine on the
//! trigger index must be observationally identical to the full scan
//! (every rule evaluated every step) — byte-identical [`StepReport`]s
//! *and* byte-identical runtime checkpoints (`export_runtime_json`) after
//! every step.
//!
//! Both engines drive real devices: lamps that accept `TurnOn` and
//! `TurnOff`, one of them behind a seeded transient-fault plan, under
//! default and context-scoped priority orders. So holders, `until`
//! releases, latches, suppressions, replacements, retries and breakers
//! are compared too, not only verdicts. The tapes cover what the index
//! has to get right:
//!
//! * readings in °F against °C thresholds, readings of another
//!   dimension, non-numeric readings, and ties on every threshold;
//! * time windows (some wrapping midnight, some all day), weekday and
//!   date atoms, with steps that land exactly on a window boundary or
//!   1 ms to either side of it, over several days of irregular jumps;
//! * an active [`FreshnessPolicy`] that changes mid-run, pending
//!   `held for` windows, direct `context_mut()` writes, device state
//!   read back by rules, and randomized rule churn
//!   (add/remove/update/enable-disable);
//! * a dense-shaped home in the pattern of the `dense_home` benchmark.
//!
//! The tapes are deterministic (SplitMix64 seeds) and applied to both
//! engines identically; any divergence pinpoints an under-approximated
//! candidate set.

use cadel_conflict::PriorityOrder;
use cadel_devices::{AirConditioner, Light, LightKind};
use cadel_engine::{ContextStore, Engine, FreshnessMode, FreshnessPolicy, StepReport};
use cadel_rule::{
    ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom, Rule, StateAtom, Subject,
    Verb,
};
use cadel_simplex::RelOp;
use cadel_types::{
    Date, DeviceId, PersonId, PlaceId, Quantity, Rational, Rng, RuleId, SensorKey, SimDuration,
    SimTime, TimeOfDay, TimeWindow, Unit, Value, Weekday,
};
use cadel_upnp::{ControlPoint, FaultPlan, FaultyDevice, Registry};

const PEOPLE: [&str; 2] = ["tom", "alan"];
const PLACES: [&str; 2] = ["living room", "hall"];
const OPS: [RelOp; 5] = [RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge, RelOp::Eq];
const DEVICES: u64 = 3;
/// Minutes of the day every generated window starts or ends at, so the
/// step schedule can land on them.
const BOUNDARIES: [u64; 8] = [0, 30, 360, 555, 720, 1080, 1320, 1425];
const DAY_MS: u64 = 24 * 60 * 60_000;

fn sensor(i: u64) -> SensorKey {
    SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading")
}

fn device(i: u64) -> DeviceId {
    DeviceId::new(format!("dev-{i}"))
}

fn epoch_date() -> Date {
    Date::new(2005, 6, 6).unwrap()
}

fn constraint_atom(rng: &mut Rng) -> Atom {
    Atom::Constraint(ConstraintAtom::new(
        sensor(rng.below(4)),
        *rng.pick(&OPS),
        Quantity::from_integer(rng.range_i64(-5, 15), Unit::Celsius),
    ))
}

fn boundary(rng: &mut Rng) -> TimeOfDay {
    TimeOfDay::from_minutes(*rng.pick(&BOUNDARIES) as u32)
}

fn arb_atom(rng: &mut Rng) -> Atom {
    match rng.below(13) {
        0..=2 => constraint_atom(rng),
        3 => Atom::Event(EventAtom::new("chan", format!("event-{}", rng.below(3)))),
        4 => Atom::State(StateAtom::new(
            DeviceId::new("tv-0"),
            "power",
            Value::Bool(rng.chance(1, 2)),
        )),
        // A lamp's own state, so actuation feeds back into conditions.
        5 => Atom::State(StateAtom::new(
            device(rng.below(DEVICES)),
            "power",
            Value::Bool(rng.chance(1, 2)),
        )),
        6 => Atom::Presence(PresenceAtom::person_at(
            *rng.pick(&PEOPLE),
            *rng.pick(&PLACES),
        )),
        7 => {
            let subject = if rng.chance(1, 2) {
                Subject::Somebody
            } else {
                Subject::Nobody
            };
            Atom::Presence(PresenceAtom::new(subject, PlaceId::new(*rng.pick(&PLACES))))
        }
        // Windows may wrap midnight, and start == end covers the day.
        8 => Atom::Time(TimeWindow::new(boundary(rng), boundary(rng))),
        9 => Atom::Weekday(Weekday::ALL[rng.below(7) as usize]),
        10 => Atom::Date(epoch_date().advance(rng.below(4))),
        11 => Atom::held_for(
            constraint_atom(rng),
            SimDuration::from_minutes(rng.range_i64(1, 3) as u64),
        ),
        // Nested dwell: exercises chained deadline arming.
        _ => Atom::held_for(
            Atom::held_for(constraint_atom(rng), SimDuration::from_minutes(1)),
            SimDuration::from_minutes(rng.range_i64(1, 2) as u64),
        ),
    }
}

fn arb_condition(rng: &mut Rng, depth: u32) -> Condition {
    if depth == 0 || rng.chance(2, 5) {
        return Condition::Atom(arb_atom(rng));
    }
    let children: Vec<Condition> = (0..rng.range_i64(1, 3))
        .map(|_| arb_condition(rng, depth - 1))
        .collect();
    if rng.chance(1, 2) {
        Condition::And(children)
    } else {
        Condition::Or(children)
    }
}

fn arb_rule(rng: &mut Rng, id: u64) -> Option<Rule> {
    let verb = if rng.chance(1, 2) {
        Verb::TurnOn
    } else {
        Verb::TurnOff
    };
    let mut builder = Rule::builder(PersonId::new(*rng.pick(&PEOPLE)))
        .condition(arb_condition(rng, 2))
        .action(ActionSpec::new(device(rng.below(DEVICES)), verb));
    if rng.chance(3, 10) {
        builder = builder.until(arb_condition(rng, 1));
    }
    builder.build(RuleId::new(id)).ok()
}

/// A default order and a context-scoped one per device, each over a
/// random subset of the rules.
fn arb_orders(rng: &mut Rng, rules: &[Rule]) -> Vec<PriorityOrder> {
    let mut orders = Vec::new();
    for d in 0..DEVICES {
        let ranking = |rng: &mut Rng| {
            let mut ids: Vec<RuleId> = rules
                .iter()
                .map(|r| r.id())
                .filter(|_| rng.chance(2, 3))
                .collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i as u64 + 1) as usize);
            }
            ids
        };
        let scoped = ranking(rng);
        let context = arb_condition(rng, 1);
        orders.push(PriorityOrder::new(device(d), scoped).in_context(context));
        let default = ranking(rng);
        orders.push(PriorityOrder::new(device(d), default));
    }
    orders
}

/// One sensor reading, in the forms the index must tell apart.
fn arb_reading(rng: &mut Rng) -> Value {
    let c = rng.range_i64(-5, 15);
    match rng.below(10) {
        // The same temperature in °F: canonically equal, so ties with
        // °C thresholds stay ties.
        0 | 1 => Value::Number(Quantity::new(
            Rational::new(9 * c as i128 + 160, 5),
            Unit::Fahrenheit,
        )),
        2 => Value::Number(Quantity::from_integer(c, Unit::Percent)),
        3 => Value::Text("offline".to_owned()),
        _ => Value::Number(Quantity::from_integer(c, Unit::Celsius)),
    }
}

enum Mutation {
    Sensor(u64, Value),
    TvPower(bool),
    Event(u64),
    PersistentEvent(u64),
    ClearChannel,
    Presence(usize, Option<usize>),
}

fn arb_mutations(rng: &mut Rng) -> Vec<Mutation> {
    let mut muts = Vec::new();
    for s in 0..4 {
        if rng.chance(1, 2) {
            muts.push(Mutation::Sensor(s, arb_reading(rng)));
        }
    }
    if rng.chance(1, 3) {
        muts.push(Mutation::TvPower(rng.chance(1, 2)));
    }
    if rng.chance(1, 3) {
        muts.push(Mutation::Event(rng.below(3)));
    }
    if rng.chance(1, 6) {
        muts.push(Mutation::PersistentEvent(rng.below(3)));
    }
    if rng.chance(1, 12) {
        muts.push(Mutation::ClearChannel);
    }
    if rng.chance(1, 3) {
        muts.push(Mutation::Presence(
            rng.below(2) as usize,
            match rng.below(3) {
                0 => None,
                p => Some((p - 1) as usize),
            },
        ));
    }
    muts
}

/// Direct `context_mut()` writes — the paths that bypass ingest and are
/// covered only by the context's dirt log.
fn apply(ctx: &mut ContextStore, mutation: &Mutation) {
    match mutation {
        Mutation::Sensor(s, value) => ctx.set_value(sensor(*s), value.clone()),
        Mutation::TvPower(on) => ctx.set_value(
            SensorKey::new(DeviceId::new("tv-0"), "power"),
            Value::Bool(*on),
        ),
        Mutation::Event(e) => ctx.raise_event("chan", &format!("event-{e}")),
        Mutation::PersistentEvent(e) => ctx.set_persistent_event("chan", &format!("event-{e}")),
        Mutation::ClearChannel => ctx.clear_persistent_channel("chan"),
        Mutation::Presence(person, place) => ctx.set_presence(
            PersonId::new(PEOPLE[*person]),
            place.map(|p| PlaceId::new(PLACES[p])),
        ),
    }
}

/// The next step's instant: mostly minutes later, often exactly on a
/// window boundary or 1 ms to either side of one, sometimes days later.
fn next_time(rng: &mut Rng, now: SimTime) -> SimTime {
    let later = match rng.below(10) {
        0..=3 => now + SimDuration::from_minutes(rng.range_i64(1, 90) as u64),
        4..=7 => {
            // The boundary's next occurrence, today or tomorrow.
            let minute = rng.pick(&BOUNDARIES) * 60_000;
            let mut at = now.day_index() * DAY_MS + minute;
            if at <= now.as_millis() {
                at += DAY_MS;
            }
            SimTime::from_millis(at.saturating_add_signed(rng.range_i64(-1, 1)))
        }
        8 => now + SimDuration::from_millis(1),
        _ => now + SimDuration::from_hours(24 * rng.range_i64(1, 2) as u64 + rng.below(20)),
    };
    if later > now {
        later
    } else {
        now + SimDuration::from_minutes(7)
    }
}

/// One rule-set mutation, applied identically to both engines.
enum Churn {
    Add(Rule),
    Remove(RuleId),
    Replace(Rule),
    Toggle(RuleId, bool),
}

fn arb_churn(rng: &mut Rng, live: &mut Vec<u64>, next_id: &mut u64) -> Option<Churn> {
    match rng.below(4) {
        0 => {
            let id = *next_id;
            *next_id += 1;
            let rule = arb_rule(rng, id)?;
            live.push(id);
            Some(Churn::Add(rule))
        }
        1 if live.len() > 10 => {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            Some(Churn::Remove(RuleId::new(victim)))
        }
        2 if !live.is_empty() => {
            let id = live[rng.below(live.len() as u64) as usize];
            let rule = arb_rule(rng, id)?;
            Some(Churn::Replace(rule))
        }
        3 if !live.is_empty() => {
            let id = live[rng.below(live.len() as u64) as usize];
            Some(Churn::Toggle(RuleId::new(id), rng.chance(1, 2)))
        }
        _ => None,
    }
}

fn apply_churn(engine: &mut Engine, churn: &Churn) {
    match churn {
        Churn::Add(rule) => {
            engine.add_rule(rule.clone()).unwrap();
        }
        Churn::Remove(id) => engine.remove_rule(*id).unwrap(),
        Churn::Replace(rule) => engine.update_rule(rule.clone()).unwrap(),
        Churn::Toggle(id, enabled) => {
            let rule = engine.rules().get(*id).unwrap().clone();
            engine.update_rule(rule.with_enabled(*enabled)).unwrap();
        }
    }
}

/// Three lamps, the second behind a seeded transient-fault plan.
fn lamps(fault_seed: u64) -> Registry {
    let registry = Registry::new();
    for d in 0..DEVICES {
        let udn = format!("dev-{d}");
        registry
            .register(Light::new(
                &udn,
                &udn,
                PLACES[d as usize % 2],
                LightKind::FloorLamp,
            ))
            .unwrap();
    }
    let faults = FaultPlan::random_transient(
        fault_seed,
        SimTime::EPOCH,
        SimTime::EPOCH + SimDuration::from_hours(24 * 8),
        SimDuration::from_minutes(20),
        300,
    );
    FaultyDevice::wrap(&registry, &device(1), faults).unwrap();
    registry
}

fn fresh_engine(
    registry: Registry,
    rules: &[Rule],
    orders: &[PriorityOrder],
    trigger_index: bool,
) -> Engine {
    let mut engine = Engine::new(ControlPoint::new(registry));
    engine.set_use_trigger_index(trigger_index);
    for rule in rules {
        engine.add_rule(rule.clone()).unwrap();
    }
    for order in orders {
        engine.add_priority(order.clone());
    }
    engine
}

/// Steps both engines at `now` and asserts byte-identical reports and
/// checkpoints.
fn step_both(indexed: &mut Engine, full: &mut Engine, now: SimTime, what: &str) -> StepReport {
    let a = indexed.step(now);
    let b = full.step(now);
    assert_eq!(a, b, "reports diverged at {now} ({what})");
    // Same held-for windows, last-state map, holders, latches, retries,
    // breakers and context.
    assert_eq!(
        indexed.export_runtime_json().to_compact(),
        full.export_runtime_json().to_compact(),
        "runtime checkpoints diverged at {now} ({what})"
    );
    a
}

/// Drives the indexed engine and the full scan in lockstep over the same
/// tape.
fn run_lockstep(seed: u64) {
    let mut rng = Rng::new(seed);
    let rules: Vec<Rule> = (0..40).filter_map(|i| arb_rule(&mut rng, 1 + i)).collect();
    assert!(rules.len() >= 30, "seed {seed} generated too few rules");
    let orders = arb_orders(&mut rng, &rules);
    let mut live: Vec<u64> = rules.iter().map(|r| r.id().raw()).collect();
    let mut next_id = 1000u64;

    let mut indexed = fresh_engine(lamps(seed), &rules, &orders, true);
    let mut full = fresh_engine(lamps(seed), &rules, &orders, false);

    let (mut dispatched, mut days) = (0, 0);
    let mut now = SimTime::EPOCH;
    for step in 1..=160u64 {
        // Mid-run policy changes: activate a freshness window, later
        // tighten it, later drop it — each transition must re-arm the
        // index without a divergence.
        let policy = match step {
            40 => Some(FreshnessPolicy::new(
                FreshnessMode::FailClosed,
                SimDuration::from_minutes(30),
            )),
            80 => Some(FreshnessPolicy::new(
                FreshnessMode::FailOpen,
                SimDuration::from_minutes(10),
            )),
            120 => Some(FreshnessPolicy::default()),
            _ => None,
        };
        if let Some(policy) = policy {
            indexed.context_mut().set_freshness_policy(policy);
            full.context_mut().set_freshness_policy(policy);
        }
        if step % 6 == 0 {
            if let Some(churn) = arb_churn(&mut rng, &mut live, &mut next_id) {
                apply_churn(&mut indexed, &churn);
                apply_churn(&mut full, &churn);
            }
        }
        for mutation in arb_mutations(&mut rng) {
            apply(indexed.context_mut(), &mutation);
            apply(full.context_mut(), &mutation);
        }
        now = next_time(&mut rng, now);
        let report = step_both(
            &mut indexed,
            &mut full,
            now,
            &format!("step {step}, seed {seed}"),
        );
        dispatched += report.dispatched().len();
        days = now.day_index();
    }
    assert!(dispatched > 0, "seed {seed} was inert");
    assert!(days >= 3, "seed {seed} spanned only {days} days");
}

#[test]
fn dirty_set_matches_full_scan_serial() {
    for seed in [3, 99, 2718, 314, 161] {
        run_lockstep(seed);
    }
}

/// A restored engine on the trigger index resumes in lockstep with a
/// restored full-scan engine: import re-arms dwell, freshness and clock
/// deadlines from the checkpoint, not from live observation.
#[test]
fn restored_engines_stay_in_parity() {
    let seed = 77u64;
    let mut rng = Rng::new(seed);
    let rules: Vec<Rule> = (0..40).filter_map(|i| arb_rule(&mut rng, 1 + i)).collect();
    let orders = arb_orders(&mut rng, &rules);
    let mut indexed = fresh_engine(lamps(seed), &rules, &orders, true);
    let mut full = fresh_engine(lamps(seed), &rules, &orders, false);
    let mut now = SimTime::EPOCH;
    for step in 1..=40u64 {
        for mutation in arb_mutations(&mut rng) {
            apply(indexed.context_mut(), &mutation);
            apply(full.context_mut(), &mutation);
        }
        now = next_time(&mut rng, now);
        step_both(&mut indexed, &mut full, now, &format!("step {step}"));
    }
    let checkpoint = indexed.export_runtime_json();
    assert_eq!(checkpoint, full.export_runtime_json());

    // Restore BOTH paths from the same checkpoint into fresh engines and
    // keep going: deadlines must come back armed.
    let mut indexed2 = fresh_engine(lamps(seed), &rules, &orders, true);
    let mut full2 = fresh_engine(lamps(seed), &rules, &orders, false);
    indexed2.import_runtime_json(&checkpoint).unwrap();
    full2.import_runtime_json(&checkpoint).unwrap();
    for step in 41..=80u64 {
        for mutation in arb_mutations(&mut rng) {
            apply(indexed2.context_mut(), &mutation);
            apply(full2.context_mut(), &mutation);
        }
        now = next_time(&mut rng, now);
        step_both(
            &mut indexed2,
            &mut full2,
            now,
            &format!("restored, step {step}"),
        );
    }
}

const ROOMS: usize = 10;
const RULES_PER_ROOM: usize = 100;
const AIRCON_RULES: usize = 60;

fn room_temp(r: usize) -> SensorKey {
    SensorKey::new(DeviceId::new(format!("thermo-{r}")), "temperature")
}

fn outdoor_temp() -> SensorKey {
    SensorKey::new(DeviceId::new("thermo-outdoor"), "temperature")
}

fn humidity() -> SensorKey {
    SensorKey::new(DeviceId::new("hygro-outdoor"), "humidity")
}

fn bound(key: SensorKey, op: RelOp, value: i64, unit: Unit) -> Atom {
    Atom::Constraint(ConstraintAtom::new(
        key,
        op,
        Quantity::from_integer(value, unit),
    ))
}

fn four_hours_from(hour: usize) -> Atom {
    Atom::Time(TimeWindow::new(
        TimeOfDay::hm((hour % 24) as u8, 0).unwrap(),
        TimeOfDay::hm(((hour + 4) % 24) as u8, 0).unwrap(),
    ))
}

/// The `dense_home` pattern at a tenth of its size: per room, a bound on
/// the room's temperature AND one whole-home input (outdoor temperature,
/// humidity, a four-hour window or an arrival), an `until` on every
/// fifth rule and a `held for` on every seventh, with a default and a
/// reversed context-scoped order per device.
fn dense_home() -> (Vec<Rule>, Vec<PriorityOrder>) {
    let mut rules = Vec::new();
    let mut orders = Vec::new();
    for r in 0..ROOMS {
        let base = (r * RULES_PER_ROOM) as u64 + 1;
        for k in 0..RULES_PER_ROOM {
            let threshold = 20 + (k % 10) as i64;
            let room = if k % 7 == 3 {
                Atom::held_for(
                    bound(room_temp(r), RelOp::Gt, threshold, Unit::Celsius),
                    SimDuration::from_minutes(30),
                )
            } else if k < AIRCON_RULES {
                bound(room_temp(r), RelOp::Gt, threshold, Unit::Celsius)
            } else {
                bound(room_temp(r), RelOp::Lt, 54 - threshold, Unit::Celsius)
            };
            let shared = match k % 20 {
                0..=7 => bound(
                    outdoor_temp(),
                    RelOp::Gt,
                    5 + (k * 7 % 30) as i64,
                    Unit::Celsius,
                ),
                8..=12 => bound(
                    humidity(),
                    RelOp::Gt,
                    30 + (k * 11 % 60) as i64,
                    Unit::Percent,
                ),
                13..=17 => four_hours_from(k * 5),
                _ => Atom::Event(EventAtom::new("person", "arrives")),
            };
            let action = if k < AIRCON_RULES {
                ActionSpec::new(DeviceId::new(format!("aircon-{r}")), Verb::TurnOn).with_setting(
                    "temperature",
                    Quantity::from_integer(16 + (k % 17) as i64, Unit::Celsius),
                )
            } else {
                ActionSpec::new(DeviceId::new(format!("light-{r}")), Verb::TurnOn).with_setting(
                    "brightness",
                    Quantity::from_integer(10 + (k % 90) as i64, Unit::Percent),
                )
            };
            let mut builder = Rule::builder(PersonId::new("resident"))
                .condition(Condition::Atom(room).and(Condition::Atom(shared)))
                .action(action);
            if k % 5 == 0 {
                builder = builder.until(Condition::Atom(bound(
                    room_temp(r),
                    RelOp::Lt,
                    18 + (k % 10) as i64,
                    Unit::Celsius,
                )));
            }
            rules.push(builder.build(RuleId::new(base + k as u64)).unwrap());
        }
        let ids = |range: std::ops::Range<usize>| -> Vec<RuleId> {
            range.map(|k| RuleId::new(base + k as u64)).collect()
        };
        let reversed = |ids: &[RuleId]| ids.iter().rev().copied().collect::<Vec<_>>();
        let cool = ids(0..AIRCON_RULES);
        let lamp = ids(AIRCON_RULES..RULES_PER_ROOM);
        let aircon = DeviceId::new(format!("aircon-{r}"));
        let light = DeviceId::new(format!("light-{r}"));
        orders.push(
            PriorityOrder::new(aircon.clone(), reversed(&cool))
                .in_context(Condition::Atom(four_hours_from(18))),
        );
        orders.push(PriorityOrder::new(aircon, cool));
        orders.push(
            PriorityOrder::new(light.clone(), reversed(&lamp)).in_context(Condition::Atom(bound(
                humidity(),
                RelOp::Gt,
                70,
                Unit::Percent,
            ))),
        );
        orders.push(PriorityOrder::new(light, lamp));
    }
    (rules, orders)
}

fn dense_devices() -> Registry {
    let registry = Registry::new();
    for r in 0..ROOMS {
        let aircon = format!("aircon-{r}");
        let light = format!("light-{r}");
        registry
            .register(AirConditioner::new(&aircon, &aircon, "hall"))
            .unwrap();
        registry
            .register(Light::new(&light, &light, "hall", LightKind::FloorLamp))
            .unwrap();
    }
    registry
}

/// Mean-reverting random walk, clamped.
fn walk(rng: &mut Rng, value: &mut i64, level: i64, step: i64, range: (i64, i64)) {
    *value =
        (*value + rng.range_i64(-step, step) + (level - *value).signum()).clamp(range.0, range.1);
}

#[test]
fn dense_shaped_home_matches_full_scan() {
    let (rules, orders) = dense_home();
    let mut indexed = fresh_engine(dense_devices(), &rules, &orders, true);
    let mut full = fresh_engine(dense_devices(), &rules, &orders, false);
    let mut rng = Rng::new(0xde45e);
    let mut rooms = [24i64; ROOMS];
    let (mut outdoor, mut humid) = (20i64, 55i64);
    let celsius = |v: i64| Value::Number(Quantity::from_integer(v, Unit::Celsius));

    let (mut dispatched, mut suppressed, mut released) = (0, 0, 0);
    let mut now = SimTime::EPOCH;
    // Two and a half days of 10-minute steps: every window boundary and
    // two midnights, with one step in seven shifted 1 ms off the grid.
    for step in 1..=360u64 {
        let mut writes: Vec<(SensorKey, Value)> = Vec::new();
        walk(&mut rng, &mut outdoor, 20, 2, (0, 40));
        writes.push((outdoor_temp(), celsius(outdoor)));
        if step % 3 == 0 {
            walk(&mut rng, &mut humid, 55, 5, (20, 95));
            writes.push((
                humidity(),
                Value::Number(Quantity::from_integer(humid, Unit::Percent)),
            ));
        }
        for _ in 0..6 {
            let r = rng.below(ROOMS as u64) as usize;
            walk(&mut rng, &mut rooms[r], 24, 2, (12, 36));
            writes.push((room_temp(r), celsius(rooms[r])));
        }
        let arrives = rng.chance(1, 10);
        for engine in [&mut indexed, &mut full] {
            let ctx = engine.context_mut();
            for (key, value) in &writes {
                ctx.set_value(key.clone(), value.clone());
            }
            if arrives {
                ctx.raise_event("person", "arrives");
            }
        }
        let grid = SimTime::EPOCH + SimDuration::from_minutes(step * 10);
        now = match step % 7 {
            0 => SimTime::from_millis(grid.as_millis() - 1),
            3 => grid + SimDuration::from_millis(1),
            _ => grid,
        }
        .max(now + SimDuration::from_millis(1));
        let report = step_both(&mut indexed, &mut full, now, &format!("dense step {step}"));
        dispatched += report.dispatched().len();
        released += report.releases.len();
        suppressed += report
            .firings
            .iter()
            .filter(|f| matches!(f.outcome, cadel_engine::FiringOutcome::SuppressedBy(_)))
            .count();
    }
    assert!(now.day_index() >= 2, "the run must cross two midnights");
    assert!(
        dispatched > 0 && suppressed > 0 && released > 0,
        "dense run too quiet: {dispatched} dispatched, {suppressed} suppressed, \
         {released} released"
    );
}
