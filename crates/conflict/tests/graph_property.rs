//! Property test: the footprint-pruned [`ConflictGraph`] agrees with a
//! brute-force all-pairs [`find_conflicts`] scan on randomized rule
//! sets — i.e. pruning never drops (or invents) a Simplex-confirmed
//! pair, across mixed atom classes, shared and distinct sensors, dead
//! conjuncts, disabled rules, and register/remove churn — and its
//! consistency verdict agrees with [`check_consistency`].
//!
//! Deterministic: a tiny inline xorshift PRNG seeded per case, no
//! external dependencies.

use cadel_conflict::{check_consistency, find_conflicts, Conflict, ConflictGraph};
use cadel_rule::{
    ActionSpec, Atom, Condition, ConstraintAtom, PresenceAtom, Rule, RuleDb, StateAtom, Verb,
};
use cadel_simplex::RelOp;
use cadel_types::{DeviceId, PersonId, Quantity, RuleId, SensorKey, Unit, Value};

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A fixed sensor pool: every key always appears with one unit, so the
/// generator never produces dimension clashes (those error identically
/// on both paths and are covered by unit tests). The first two sensors
/// are "popular" to force shared-footprint (solver-path) pairs; the
/// rest are mostly rule-private, exercising the witness path.
fn sensor(rng: &mut XorShift) -> (SensorKey, Unit) {
    let pool: [(&str, &str, Unit); 8] = [
        ("thermo", "temperature", Unit::Celsius),
        ("hygro", "humidity", Unit::Percent),
        ("lux-3", "luminance", Unit::Unitless),
        ("co2-4", "co2", Unit::Unitless),
        ("press-5", "pressure", Unit::Unitless),
        ("temp-6", "temperature", Unit::Celsius),
        ("hum-7", "humidity", Unit::Percent),
        ("lux-8", "luminance", Unit::Unitless),
    ];
    // Bias toward the shared sensors.
    let i = if rng.chance(40) {
        rng.below(2)
    } else {
        rng.below(pool.len() as u64)
    } as usize;
    let (device, variable, unit) = pool[i];
    (SensorKey::new(DeviceId::new(device), variable), unit)
}

fn atom(rng: &mut XorShift) -> Atom {
    match rng.below(10) {
        0 => {
            let people = ["alan", "emily", "tom"];
            let places = ["living room", "kitchen", "bedroom"];
            Atom::Presence(PresenceAtom::person_at(
                people[rng.below(3) as usize],
                places[rng.below(3) as usize],
            ))
        }
        1 => {
            let devices = ["tv", "door"];
            Atom::State(StateAtom::new(
                DeviceId::new(devices[rng.below(2) as usize]),
                "power",
                Value::Bool(rng.chance(50)),
            ))
        }
        _ => {
            let (key, unit) = sensor(rng);
            let ops = [RelOp::Le, RelOp::Lt, RelOp::Ge, RelOp::Gt, RelOp::Eq];
            let op = ops[rng.below(5) as usize];
            let threshold = rng.below(50) as i64 - 10;
            Atom::Constraint(ConstraintAtom::new(
                key,
                op,
                Quantity::from_integer(threshold, unit),
            ))
        }
    }
}

fn conjunct(rng: &mut XorShift) -> Condition {
    let mut cond = Condition::Atom(atom(rng));
    for _ in 0..rng.below(3) {
        cond = cond.and(Condition::Atom(atom(rng)));
    }
    cond
}

fn condition(rng: &mut XorShift) -> Condition {
    let mut cond = conjunct(rng);
    if rng.chance(30) {
        cond = cond.or(conjunct(rng));
    }
    cond
}

/// Actions over a small device pool; settings vary so same-device pairs
/// mix identical (non-conflicting) and different (conflicting) actions.
fn action(rng: &mut XorShift) -> ActionSpec {
    let devices = ["aircon", "heater-1", "window-a", "tv", "stereo"];
    let device = DeviceId::new(devices[rng.below(5) as usize]);
    let verb = if rng.chance(70) {
        Verb::TurnOn
    } else {
        Verb::TurnOff
    };
    let mut spec = ActionSpec::new(device, verb);
    if rng.chance(60) {
        spec = spec.with_setting(
            "level",
            Quantity::from_integer(rng.below(4) as i64, Unit::Unitless),
        );
    }
    spec
}

fn random_rule(rng: &mut XorShift, id: u64) -> Rule {
    let owners = ["alan", "emily", "tom"];
    Rule::builder(PersonId::new(owners[rng.below(3) as usize]))
        .condition(condition(rng))
        .action(action(rng))
        .enabled(rng.chance(90))
        .build(RuleId::new(id))
        .unwrap()
}

fn pair_keys(conflicts: &[Conflict]) -> Vec<(RuleId, RuleId, usize, usize)> {
    conflicts
        .iter()
        .map(|c| (c.rule_a(), c.rule_b(), c.conjunct_a(), c.conjunct_b()))
        .collect()
}

/// Both paths must report the same consistency verdict and the same
/// conflicting pairs, down to the first-hit conjunct indices. Witness
/// values may differ (any valid witness is acceptable); every reported
/// witness must exist. An inconsistent probe reports nothing else.
/// Returns whether the probe was inconsistent.
fn assert_agreement(db: &RuleDb, graph: &mut ConflictGraph, probe: &Rule, context: &str) -> bool {
    let brute = find_conflicts(db, probe).unwrap();
    let report = graph.analyze(db, probe).unwrap();
    assert_eq!(
        check_consistency(probe).unwrap(),
        report.consistency,
        "graph and oracle disagree on consistency for {context}",
    );
    let inconsistent = !report.consistency.is_satisfiable();
    if inconsistent {
        assert!(
            report.conflicts.is_empty() && report.advisories.is_empty(),
            "inconsistent probe reported findings for {context}",
        );
    }
    assert_eq!(
        pair_keys(&brute),
        pair_keys(&report.conflicts),
        "graph and brute force disagree for {context}",
    );
    for conflict in &report.conflicts {
        assert!(
            conflict
                .witness()
                .iter()
                .all(|(key, _)| !key.device().as_str().is_empty()),
            "malformed witness for {context}",
        );
    }
    inconsistent
}

#[test]
fn graph_agrees_with_brute_force_on_random_rule_sets() {
    let mut inconsistent = 0;
    for seed in 1..=6u64 {
        let mut rng = XorShift::new(seed);
        let mut db = RuleDb::new();
        for id in 1..=40u64 {
            db.insert(random_rule(&mut rng, id)).unwrap();
        }
        let mut graph = ConflictGraph::default();

        // Every stored rule as the probe (the customize path).
        let ids: Vec<RuleId> = db.iter().map(Rule::id).collect();
        for id in ids {
            let probe = db.get(id).unwrap().clone();
            let context = format!("seed {seed} stored {id}");
            inconsistent += usize::from(assert_agreement(&db, &mut graph, &probe, &context));
        }

        // Fresh unstored probes (the registration path).
        for id in 500..510u64 {
            let probe = random_rule(&mut rng, id);
            let context = format!("seed {seed} probe {id}");
            inconsistent += usize::from(assert_agreement(&db, &mut graph, &probe, &context));
        }

        // Churn: remove a third of the rules, add replacements under
        // fresh ids, and re-verify — exercises node removal and the
        // revision-keyed sync.
        for id in (1..=40u64).filter(|id| id % 3 == 0) {
            db.remove(RuleId::new(id)).unwrap();
        }
        for id in 600..612u64 {
            db.insert(random_rule(&mut rng, id)).unwrap();
        }
        for id in 700..706u64 {
            let probe = random_rule(&mut rng, id);
            let context = format!("seed {seed} churn {id}");
            inconsistent += usize::from(assert_agreement(&db, &mut graph, &probe, &context));
        }
    }
    assert!(
        inconsistent > 0,
        "the generator produced no wholly inconsistent probe"
    );
}
