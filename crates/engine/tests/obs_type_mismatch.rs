//! A numeric constraint reading a present-but-non-numeric value used to
//! evaluate to a silent `false` — indistinguishable from "the room is
//! cold" when a flaky sensor starts reporting `"offline"`. Both the
//! engine's compiled evaluation and the reference interpreter now report
//! it: `engine_type_mismatch_total` ticks on every occurrence and a
//! rate-limited `engine.type_mismatch` warning event carries the sensor
//! and the offending value.
//!
//! Lives in its own integration binary because it flips the
//! process-global observability switch.

use cadel_engine::{Engine, Evaluator, HeldTracker};
use cadel_obs::RingCollector;
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_simplex::RelOp;
use cadel_types::{DeviceId, PersonId, Quantity, RuleId, SensorKey, SimTime, Unit, Value};
use cadel_upnp::{ControlPoint, Registry};
use std::sync::Arc;

fn mismatch_rule(rule_id: u64) -> Rule {
    Rule::builder(PersonId::new("tom"))
        .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo"), "reading"),
            RelOp::Gt,
            Quantity::from_integer(26, Unit::Celsius),
        ))))
        .action(ActionSpec::new(DeviceId::new("fan"), Verb::TurnOn))
        .build(RuleId::new(rule_id))
        .unwrap()
}

fn mismatch_engine(rule_id: u64) -> Engine {
    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    engine.add_rule(mismatch_rule(rule_id)).unwrap();
    engine
}

#[test]
fn non_numeric_reading_is_counted_and_reported_on_both_paths() {
    let ring = Arc::new(RingCollector::new(64));
    cadel_obs::install(ring.clone());

    let counter = || {
        cadel_obs::metrics_snapshot()
            .counter("engine_type_mismatch_total")
            .unwrap_or(0)
    };
    let key = SensorKey::new(DeviceId::new("thermo"), "reading");

    let mut engine = mismatch_engine(1);
    engine
        .context_mut()
        .set_value(key.clone(), Value::Text("offline".to_owned()));

    let before = counter();
    let report = engine.step(SimTime::from_millis(1));
    assert!(
        report.firings.is_empty(),
        "a non-numeric reading must not satisfy the constraint"
    );
    assert_eq!(counter() - before, 1, "one evaluation, one mismatch tick");

    // The reference interpreter reports the same reading the same way.
    let before = counter();
    let holds = Evaluator::new(engine.context(), &mut HeldTracker::new())
        .condition_holds(mismatch_rule(1).condition());
    assert!(
        !holds,
        "ast: a non-numeric reading must not satisfy the constraint"
    );
    assert_eq!(
        counter() - before,
        1,
        "ast: one evaluation, one mismatch tick"
    );

    // Incomparable dimensions (a humidity reading against a temperature
    // threshold) are the same defect and tick the same counter.
    let mut engine = mismatch_engine(1);
    engine.context_mut().set_value(
        key,
        Value::Number(Quantity::from_integer(60, Unit::Percent)),
    );
    let before = counter();
    engine.step(SimTime::from_millis(1));
    assert_eq!(counter() - before, 1, "dimension clash ticks the counter");

    // The warning event names the offending value.
    let warnings = ring.events_named("engine.type_mismatch");
    assert!(
        !warnings.is_empty(),
        "mismatches must surface as engine.type_mismatch events"
    );
    let rendered = cadel_obs::format_logfmt(&warnings[0].event);
    assert!(rendered.contains("offline"), "logfmt: {rendered}");

    cadel_obs::shutdown();
}
