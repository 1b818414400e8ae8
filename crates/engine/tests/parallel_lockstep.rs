//! Ingest-pipeline invariants of the engine step:
//!
//! * batch coalescing is invisible — an engine that coalesces redundant
//!   same-sensor readings reports identically to one that applies every
//!   payload, over the randomized workload the compiled-program oracle
//!   suite uses (numeric constraints, device state, events, presence,
//!   time windows and `held for` dwell clauses under nested And/Or with
//!   optional `until` releases);
//! * coalescing never drops event-bearing payloads — every `arrival` in
//!   a batch raises its event even when the same sensor repeats;
//! * the transient-event expiry boundary is inclusive at `t + W`, and
//!   the compiled program agrees with the reference interpreter exactly
//!   at the boundary.
//!
//! `CADEL_TRIGGER_INDEX=0` re-runs the suite on the full scan, so the CI
//! determinism matrix covers both candidate paths.

use cadel_engine::{Engine, Evaluator, HeldTracker};
use cadel_rule::{ActionSpec, Atom, Condition, EventAtom, Rule, Verb};
use cadel_types::{
    DeviceId, PersonId, Quantity, Rng, RuleId, SensorKey, SimDuration, SimTime, Unit, Value,
};
use cadel_upnp::{ControlPoint, EventBus, Registry};
use workload::arb_rule;

mod workload;

/// `CADEL_TRIGGER_INDEX=0` re-runs the whole suite with the dirty-set
/// trigger index ablated (every rule re-evaluated every step), so the CI
/// determinism matrix covers both candidate paths.
fn trigger_index_under_test() -> bool {
    std::env::var("CADEL_TRIGGER_INDEX").map_or(true, |v| v != "0")
}

/// One batch of UPnP property changes, generated once and published to
/// both engines' buses. Publishing (rather than mutating the context
/// directly) routes everything through the batched-ingest phase.
fn arb_batch(rng: &mut Rng) -> Vec<(u64, Value)> {
    let mut batch = Vec::new();
    for s in 0..3u64 {
        // Redundant same-sensor readings exercise the coalescer.
        for _ in 0..rng.range_i64(0, 3) {
            let value = if rng.chance(1, 10) {
                Value::Text("offline".to_owned())
            } else {
                Value::Number(Quantity::from_integer(rng.range_i64(-5, 15), Unit::Celsius))
            };
            batch.push((s, value));
        }
    }
    batch
}

fn fresh_engine(rules: &[Rule]) -> (Engine, EventBus) {
    let registry = Registry::new();
    let bus = registry.event_bus().clone();
    let mut engine = Engine::new(ControlPoint::new(registry));
    engine.set_use_trigger_index(trigger_index_under_test());
    for rule in rules {
        engine.add_rule(rule.clone()).unwrap();
    }
    (engine, bus)
}

/// Coalescing is an ingest optimization, never a semantic change: an
/// engine that applies every payload and one that coalesces redundant
/// same-sensor readings report identically.
#[test]
fn coalescing_does_not_change_reports() {
    let mut rng = Rng::new(99);
    let rules: Vec<Rule> = (0..40).filter_map(|i| arb_rule(&mut rng, 1 + i)).collect();

    let (mut coalesced, bus_a) = fresh_engine(&rules);
    let (mut verbatim, bus_b) = fresh_engine(&rules);
    coalesced.set_coalesce_events(true);
    verbatim.set_coalesce_events(false);

    for step in 1..=60u64 {
        let now = SimTime::EPOCH + SimDuration::from_minutes(step * 7);
        for (s, value) in arb_batch(&mut rng) {
            for bus in [&bus_a, &bus_b] {
                bus.publish_change(
                    DeviceId::new(format!("sensor-{s}")),
                    "reading".to_owned(),
                    value.clone(),
                    now,
                );
            }
        }
        let a = coalesced.step(now);
        let b = verbatim.step(now);
        assert_eq!(a, b, "coalescing changed the report at step {step}");
    }
}

/// Event-bearing variables are exempt from coalescing: when one batch
/// carries several `arrival` payloads from the same presence sensor,
/// every one of them must raise its transient event.
#[test]
fn coalescing_never_drops_arrival_payloads() {
    let registry = Registry::new();
    let bus = registry.event_bus().clone();
    let mut engine = Engine::new(ControlPoint::new(registry));
    engine.set_coalesce_events(true);

    let now = SimTime::from_millis(1_000);
    for (i, name) in ["got home", "came back", "dropped by"].iter().enumerate() {
        bus.publish_change(
            DeviceId::new("door-sensor"),
            "arrival".to_owned(),
            Value::Text(format!("person:p{i}|{name}")),
            now,
        );
    }
    // An interleaved plain sensor reading repeated three times: the
    // repeats coalesce, the arrivals must not.
    for v in [1, 2, 3] {
        bus.publish_change(
            DeviceId::new("door-sensor"),
            "reading".to_owned(),
            Value::Number(Quantity::from_integer(v, Unit::Celsius)),
            now,
        );
    }
    engine.step(now);

    let ctx = engine.context();
    for (i, name) in ["got home", "came back", "dropped by"].iter().enumerate() {
        assert!(
            ctx.event_active(&format!("person:p{i}"), name),
            "arrival {i} ({name}) was dropped by coalescing"
        );
    }
    // The plain reading coalesced to its final value.
    assert_eq!(
        ctx.value(&SensorKey::new(DeviceId::new("door-sensor"), "reading")),
        Some(&Value::Number(Quantity::from_integer(3, Unit::Celsius)))
    );
}

/// The transient-event expiry boundary is inclusive (`t + W` still
/// active, strictly after expired), and the engine's compiled program
/// agrees with the reference interpreter exactly at the boundary.
#[test]
fn event_expiry_boundary_compiled_and_interpreted_agree() {
    let window = SimDuration::from_minutes(10);
    let raise_at = SimTime::from_millis(5_000);
    let boundary = raise_at + window;

    let rule = Rule::builder(PersonId::new("tom"))
        .condition(Condition::Atom(Atom::Event(EventAtom::new("chan", "ding"))))
        .action(ActionSpec::new(DeviceId::new("bell"), Verb::TurnOn))
        .build(RuleId::new(1))
        .unwrap();
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    engine.context_mut().set_event_window(window);
    engine.add_rule(rule.clone()).unwrap();
    engine.context_mut().set_now(raise_at);
    engine.context_mut().raise_event("chan", "ding");
    // Both evaluators' verdicts over the engine's context right now.
    let verdicts = |engine: &Engine| {
        let rules = engine.rules();
        let program = rules.program_ref(RuleId::new(1)).unwrap();
        let ctx = engine.context();
        (
            rules
                .arena()
                .condition_holds(program, ctx, &mut HeldTracker::new()),
            Evaluator::new(ctx, &mut HeldTracker::new()).condition_holds(rule.condition()),
        )
    };

    let at_boundary = engine.step(boundary);
    assert_eq!(
        at_boundary.firings.len(),
        1,
        "the event must still be active at exactly t + W"
    );
    assert_eq!(verdicts(&engine), (true, true), "at t + W");

    let past = engine.step(boundary + SimDuration::from_millis(1));
    // One millisecond later the event is gone and the rule's state falls
    // back to false — no new firing either way.
    assert!(
        past.firings.is_empty(),
        "the event must expire strictly after t + W"
    );
    assert!(!engine.context().event_active("chan", "ding"));
    assert_eq!(verdicts(&engine), (false, false), "after t + W");
}
