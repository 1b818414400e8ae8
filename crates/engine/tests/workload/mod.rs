//! The randomized rule workload shared by the engine's lockstep suites
//! (`ir_parity.rs`, `parallel_lockstep.rs`): numeric constraints, device
//! state, events, presence, time windows and `held for` dwell clauses
//! under nested And/Or with optional `until` releases, drawn from a
//! deterministic [`Rng`] seed.

use cadel_rule::{
    ActionSpec, Atom, Condition, ConstraintAtom, EventAtom, PresenceAtom, Rule, StateAtom, Subject,
    Verb,
};
use cadel_simplex::RelOp;
use cadel_types::{
    DayPart, DeviceId, PersonId, PlaceId, Quantity, Rng, RuleId, SensorKey, SimDuration, Unit,
    Value,
};

pub const PEOPLE: [&str; 2] = ["tom", "alan"];
pub const PLACES: [&str; 2] = ["living room", "hall"];
pub const OPS: [RelOp; 5] = [RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge, RelOp::Eq];

/// The numeric sensor `sensor-{i}.reading`.
pub fn sensor(i: u64) -> SensorKey {
    SensorKey::new(DeviceId::new(format!("sensor-{i}")), "reading")
}

pub fn constraint_atom(rng: &mut Rng) -> Atom {
    Atom::Constraint(ConstraintAtom::new(
        sensor(rng.below(3)),
        *rng.pick(&OPS),
        Quantity::from_integer(rng.range_i64(-5, 15), Unit::Celsius),
    ))
}

/// One atom of any kind the IR lowers, including `held for`.
pub fn arb_atom(rng: &mut Rng) -> Atom {
    match rng.below(8) {
        0 | 1 => constraint_atom(rng),
        2 => Atom::Event(EventAtom::new("chan", format!("event-{}", rng.below(3)))),
        3 => Atom::State(StateAtom::new(
            DeviceId::new("tv-0"),
            "power",
            Value::Bool(rng.chance(1, 2)),
        )),
        4 => Atom::Presence(PresenceAtom::person_at(
            *rng.pick(&PEOPLE),
            *rng.pick(&PLACES),
        )),
        5 => {
            let subject = if rng.chance(1, 2) {
                Subject::Somebody
            } else {
                Subject::Nobody
            };
            Atom::Presence(PresenceAtom::new(subject, PlaceId::new(*rng.pick(&PLACES))))
        }
        6 => Atom::Time(
            rng.pick(&[DayPart::Morning, DayPart::Afternoon, DayPart::Evening])
                .window(),
        ),
        _ => Atom::held_for(
            constraint_atom(rng),
            SimDuration::from_minutes(rng.range_i64(1, 3) as u64),
        ),
    }
}

/// An And/Or tree over random atoms, at most `depth` levels deep.
pub fn arb_condition(rng: &mut Rng, depth: u32) -> Condition {
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

/// A random rule on one of three devices, sometimes with an `until`
/// clause; `None` when its DNF would blow up.
pub fn arb_rule(rng: &mut Rng, id: u64) -> Option<Rule> {
    let device = DeviceId::new(format!("dev-{}", rng.below(3)));
    let verb = if rng.chance(1, 2) {
        Verb::TurnOn
    } else {
        Verb::TurnOff
    };
    let mut builder = Rule::builder(PersonId::new(*rng.pick(&PEOPLE)))
        .condition(arb_condition(rng, 2))
        .action(ActionSpec::new(device, verb));
    if rng.chance(3, 10) {
        builder = builder.until(arb_condition(rng, 1));
    }
    // DNF blowup is the only way build can fail here; skip those rules.
    builder.build(RuleId::new(id)).ok()
}
