//! The compiled programs the engine runs, checked against the reference
//! interpreter ([`Evaluator`]) as an oracle.
//!
//! An engine steps through a randomized workload (deterministic
//! SplitMix64 seeds) under each of the three freshness modes, with the
//! trigger index on and off. After every step, for every rule, the
//! rule's span in the rule database's program arena (the code the engine
//! evaluates) and the tree-walking interpreter must agree on
//! the trigger condition and the `until` clause over the engine's live
//! context — and the condition must hold exactly when its DNF (the form
//! the conflict checker reasons over) holds, and every constraint atom
//! must follow its relational operator on usable readings.
//!
//! The workload covers every atom kind the IR can lower — numeric
//! constraints (including non-numeric and stale readings), device state,
//! events (transient and persistent), presence, time windows and nested
//! `HeldFor` — under arbitrarily nested And/Or conditions and optional
//! `until` release clauses.

use cadel_engine::{ContextStore, Engine, Evaluator, FreshnessMode, FreshnessPolicy, HeldTracker};
use cadel_ir::SensorRead;
use cadel_rule::{Atom, Rule};
use cadel_types::{
    DeviceId, PersonId, PlaceId, Quantity, Rng, SensorKey, SimDuration, SimTime, Unit, Value,
};
use cadel_upnp::{ControlPoint, Registry};
use workload::{arb_rule, sensor, PEOPLE, PLACES};

mod workload;

const MODES: [FreshnessMode; 3] = [
    FreshnessMode::FailClosed,
    FreshnessMode::FailOpen,
    FreshnessMode::HoldLastValue,
];

/// One context mutation, generated from the seed and applied before a
/// step.
enum Mutation {
    Sensor(u64, i64),
    /// A non-numeric reading on a numeric sensor (never satisfies
    /// constraints).
    SensorText(u64),
    TvPower(bool),
    Event(u64),
    PersistentEvent(u64),
    ClearChannel,
    Presence(usize, Option<usize>),
}

fn arb_mutations(rng: &mut Rng) -> Vec<Mutation> {
    let mut muts = Vec::new();
    for s in 0..3 {
        if rng.chance(1, 2) {
            if rng.chance(1, 10) {
                muts.push(Mutation::SensorText(s));
            } else {
                muts.push(Mutation::Sensor(s, rng.range_i64(-5, 15)));
            }
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

fn apply(ctx: &mut ContextStore, mutation: &Mutation) {
    match mutation {
        Mutation::Sensor(s, v) => ctx.set_value(
            sensor(*s),
            Value::Number(Quantity::from_integer(*v, Unit::Celsius)),
        ),
        Mutation::SensorText(s) => ctx.set_value(sensor(*s), Value::Text("offline".to_owned())),
        Mutation::TvPower(on) => {
            ctx.set_value(
                SensorKey::new(DeviceId::new("tv-0"), "power"),
                Value::Bool(*on),
            );
        }
        Mutation::Event(e) => ctx.raise_event("chan", &format!("event-{e}")),
        Mutation::PersistentEvent(e) => ctx.set_persistent_event("chan", &format!("event-{e}")),
        Mutation::ClearChannel => ctx.clear_persistent_channel("chan"),
        Mutation::Presence(person, place) => ctx.set_presence(
            PersonId::new(PEOPLE[*person]),
            place.map(|p| PlaceId::new(PLACES[p])),
        ),
    }
}

/// Steps an engine through the seeded workload under one freshness mode
/// and checks every rule's compiled program against the interpreter after
/// every step. Returns how many steps reported something and how many
/// verdicts were true and false, so callers can reject a vacuous run.
fn run_against_oracle(seed: u64, mode: FreshnessMode, trigger_index: bool) -> [usize; 3] {
    let mut rng = Rng::new(seed);
    let rules: Vec<Rule> = (0..40).filter_map(|i| arb_rule(&mut rng, 1 + i)).collect();
    assert!(rules.len() >= 30, "seed {seed} generated too few rules");

    let mut engine = Engine::new(ControlPoint::new(Registry::new()));
    engine.set_use_trigger_index(trigger_index);
    engine
        .context_mut()
        .set_freshness_policy(FreshnessPolicy::new(mode, SimDuration::from_minutes(10)));
    for rule in &rules {
        engine.add_rule(rule.clone()).unwrap();
    }

    // Each side keeps its own dwell history; both observe the same atoms
    // in the same order, so the histories stay identical.
    let mut program_held = HeldTracker::new();
    let mut oracle_held = HeldTracker::new();
    let mut tally = [0usize; 3];
    for step in 1..=80u64 {
        for mutation in arb_mutations(&mut rng) {
            apply(engine.context_mut(), &mutation);
        }
        let now = SimTime::EPOCH + SimDuration::from_minutes(step * 7);
        tally[0] += usize::from(!engine.step(now).is_empty());
        let ctx = engine.context();
        for rule in &rules {
            let at = format!("{} at step {step} (seed {seed}, {mode})", rule.id());
            let arena = engine.rules().arena();
            let program = engine
                .rules()
                .program_ref(rule.id())
                .expect("stored rules have an arena span");

            let before = oracle_held.clone();
            let tree = Evaluator::new(ctx, &mut oracle_held).condition_holds(rule.condition());
            let compiled = arena.condition_holds(program, ctx, &mut program_held);
            assert_eq!(compiled, tree, "condition of {at}");
            tally[1 + usize::from(tree)] += 1;

            let until_tree = rule
                .until()
                .map(|until| Evaluator::new(ctx, &mut oracle_held).condition_holds(until));
            let until_compiled = arena.until_holds(program, ctx, &mut program_held);
            assert_eq!(until_compiled, until_tree, "until of {at}");

            // A condition holds exactly when its DNF does. Observation is
            // idempotent within one instant, so the DNF evaluated from the
            // pre-step dwell history sees the atom verdicts the tree saw.
            let mut scratch = before;
            let mut atom_holds = |atom: &Atom| Evaluator::new(ctx, &mut scratch).atom_holds(atom);
            let dnf = rule.dnf().conjuncts();
            let via_dnf = dnf.iter().any(|c| c.atoms().iter().all(&mut atom_holds));
            assert_eq!(via_dnf, tree, "DNF of {at}");

            // Constraint atoms follow their relational operator on every
            // usable reading.
            for atom in dnf.iter().flat_map(|c| c.atoms()) {
                let Atom::Constraint(c) = atom.instantaneous() else {
                    continue;
                };
                if let SensorRead::Value(Value::Number(q)) = ctx.sensor_read_key(c.sensor()) {
                    let expected = c
                        .op()
                        .holds(q.canonical_value(), c.threshold().canonical_value());
                    let holds = Evaluator::new(ctx, &mut HeldTracker::new())
                        .atom_holds(&Atom::Constraint(c.clone()));
                    assert_eq!(holds, expected, "{c} on {q}: {at}");
                }
            }
        }
        assert_eq!(
            program_held.tracked(),
            oracle_held.tracked(),
            "dwell at step {step}"
        );
    }
    tally
}

fn assert_agreement(seeds: &[u64], trigger_index: bool) {
    for &seed in seeds {
        for mode in MODES {
            // Sanity: the workload fires rules and exercises both verdicts.
            let [reports, false_verdicts, true_verdicts] =
                run_against_oracle(seed, mode, trigger_index);
            assert!(reports > 0, "seed {seed} ({mode}) was inert");
            assert!(
                false_verdicts > 0 && true_verdicts > 0,
                "seed {seed} ({mode}) was one-sided"
            );
        }
    }
}

#[test]
fn compiled_and_interpreted_agree_with_trigger_index() {
    assert_agreement(&[1, 42, 4242], true);
}

#[test]
fn compiled_and_interpreted_agree_without_trigger_index() {
    assert_agreement(&[7, 1337], false);
}
