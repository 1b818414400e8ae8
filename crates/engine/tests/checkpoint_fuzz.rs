//! Hostile-input fuzz of the runtime-checkpoint boundary
//! (`Engine::import_runtime_json`).
//!
//! Valid version 1 and version 2 documents are exported from an engine
//! stepped through the seeded rule workload (faulty devices give it
//! breakers, retries and dead letters; `until` rules and shared devices
//! give it holders, contenders and latches). Each case applies a few
//! seeded mutations — dropped members, wrong types, negative and extreme
//! integers, truncated arrays, a rule in both edge lists, unknown
//! versions — and imports the result into an engine that has imported
//! the unmutated document first. The import must return `Ok` or
//! `EngineError::Persist`, never panic; a refused import must leave the
//! engine exporting exactly what it exported before; and the engine
//! must then survive one raised event and ten steps, whether the
//! document was accepted or refused.
//!
//! A failing seed is shrunk to its fewest mutations and printed; commit
//! it as a named case beside the ones below.

mod workload;

use cadel_devices::{Light, LightKind};
use cadel_engine::{Engine, EngineError};
use cadel_types::json::Json;
use cadel_types::{
    DeviceId, PersonId, PlaceId, Quantity, Rng, SensorKey, SimDuration, SimTime, Unit, Value,
};
use cadel_upnp::{ControlPoint, FaultPlan, FaultyDevice, Registry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::{arb_rule, sensor, PEOPLE, PLACES};

const RULE_SEED: u64 = 0x0c4e_c0de;
const CASES: u64 = 600;

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

/// An engine over three lights (two of them failing for a while) with
/// the seeded rule set, and no runtime state yet.
fn fresh_engine() -> Engine {
    let registry = Registry::new();
    for i in 0..3 {
        let udn = format!("dev-{i}");
        registry
            .register(Light::new(
                &udn,
                "Light",
                "living room",
                LightKind::Fluorescent,
            ))
            .unwrap();
        if i < 2 {
            let plan = FaultPlan::new().fail_between(mins(10 * i + 5), mins(10 * i + 40));
            FaultyDevice::wrap(&registry, &DeviceId::new(udn), plan).unwrap();
        }
    }
    let mut engine = Engine::new(ControlPoint::new(registry));
    let mut rng = Rng::new(RULE_SEED);
    for id in 1..=40 {
        if let Some(rule) = arb_rule(&mut rng, id) {
            engine.add_rule(rule).unwrap();
        }
    }
    engine
}

/// Seeded context changes before one step.
fn stir(engine: &mut Engine, rng: &mut Rng) {
    let ctx = engine.context_mut();
    for s in 0..3 {
        if rng.chance(1, 2) {
            let reading = Quantity::from_integer(rng.range_i64(-5, 15), Unit::Celsius);
            ctx.set_value(sensor(s), Value::Number(reading));
        }
    }
    if rng.chance(1, 3) {
        let key = SensorKey::new(DeviceId::new("tv-0"), "power");
        ctx.set_value(key, Value::Bool(rng.chance(1, 2)));
    }
    if rng.chance(1, 3) {
        ctx.raise_event("chan", &format!("event-{}", rng.below(3)));
    }
    if rng.chance(1, 6) {
        ctx.set_persistent_event("chan", &format!("event-{}", rng.below(3)));
    }
    if rng.chance(1, 3) {
        let place = match rng.below(3) {
            0 => None,
            p => Some(PlaceId::new(PLACES[(p - 1) as usize])),
        };
        ctx.set_presence(PersonId::new(*rng.pick(&PEOPLE)), place);
    }
}

/// The version 2 documents the fuzz starts from: exports taken while
/// the faults are live and after they clear.
fn base_documents() -> Vec<Json> {
    let mut engine = fresh_engine();
    let mut rng = Rng::new(RULE_SEED ^ 0x5eed);
    let mut docs = Vec::new();
    for step in 1..=60 {
        stir(&mut engine, &mut rng);
        engine.step(mins(step));
        if step % 15 == 0 {
            docs.push(engine.export_runtime_json());
        }
    }
    docs
}

/// Rewrites a version 2 document the way version 1 wrote it: one
/// `{"rule", "state"}` object per rule, ascending, in place of the two
/// edge lists.
fn to_v1(v2: &Json) -> Json {
    let Json::Obj(members) = v2 else {
        panic!("a runtime document is an object")
    };
    let ids = |key: &str| -> Vec<i64> {
        let list = v2.get(key).and_then(Json::as_arr).expect("a v2 edge list");
        list.iter().map(|id| id.as_int().expect("an id")).collect()
    };
    let mut states: Vec<(i64, bool)> = ids("last_true").into_iter().map(|id| (id, true)).collect();
    states.extend(ids("last_false").into_iter().map(|id| (id, false)));
    states.sort();
    let last_state = Json::Arr(
        states
            .into_iter()
            .map(|(id, state)| {
                Json::obj(vec![("rule", Json::Int(id)), ("state", Json::Bool(state))])
            })
            .collect(),
    );
    let mut v1 = Vec::new();
    for (key, value) in members {
        match key.as_str() {
            "version" => v1.push((key.clone(), Json::Int(1))),
            "last_true" => v1.push(("last_state".to_owned(), last_state.clone())),
            "last_false" => {}
            _ => v1.push((key.clone(), value.clone())),
        }
    }
    Json::Obj(v1)
}

/// One step from a node to a child: an object member or an array item.
#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Index(usize),
}

fn key(name: &str) -> Step {
    Step::Key(name.to_owned())
}

/// One change to a document, addressed by the path to the node it
/// changes.
#[derive(Clone, Debug)]
enum Mutation {
    /// Remove the object member (or array item) the path ends at.
    Drop(Vec<Step>),
    /// Replace the node the path ends at.
    Set(Vec<Step>, Json),
    /// Keep only the first `len` items of the array the path ends at.
    Truncate(Vec<Step>, usize),
    /// Put the first id of `last_true` into `last_false` too (version 2
    /// documents; a no-op when `last_true` is empty).
    Overlap,
}

fn node_mut<'a>(doc: &'a mut Json, path: &[Step]) -> Option<&'a mut Json> {
    let mut node = doc;
    for step in path {
        node = match (node, step) {
            (Json::Obj(members), Step::Key(key)) => {
                &mut members.iter_mut().find(|(k, _)| k == key)?.1
            }
            (Json::Arr(items), Step::Index(i)) => items.get_mut(*i)?,
            _ => return None,
        };
    }
    Some(node)
}

fn apply(doc: &mut Json, mutation: &Mutation) {
    match mutation {
        Mutation::Drop(path) => {
            let (last, parent) = path.split_last().expect("never the root");
            match (node_mut(doc, parent), last) {
                (Some(Json::Obj(members)), Step::Key(key)) => members.retain(|(k, _)| k != key),
                (Some(Json::Arr(items)), Step::Index(i)) if *i < items.len() => {
                    items.remove(*i);
                }
                _ => {}
            }
        }
        Mutation::Set(path, value) => {
            if let Some(node) = node_mut(doc, path) {
                *node = value.clone();
            }
        }
        Mutation::Truncate(path, len) => {
            if let Some(Json::Arr(items)) = node_mut(doc, path) {
                items.truncate(*len);
            }
        }
        Mutation::Overlap => {
            let first = doc
                .get("last_true")
                .and_then(Json::as_arr)
                .and_then(|ids| ids.first().cloned());
            let falses = node_mut(doc, &[key("last_false")]);
            if let (Some(id), Some(Json::Arr(items))) = (first, falses) {
                items.push(id);
            }
        }
    }
}

/// Every path in `doc`, pre-order, the root excluded.
fn paths(doc: &Json) -> Vec<Vec<Step>> {
    fn walk(node: &Json, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
        let children: Vec<(Step, &Json)> = match node {
            Json::Obj(members) => members.iter().map(|(k, v)| (key(k), v)).collect(),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| (Step::Index(i), v))
                .collect(),
            _ => Vec::new(),
        };
        for (step, child) in children {
            prefix.push(step);
            out.push(prefix.clone());
            walk(child, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(doc, &mut Vec::new(), &mut out);
    out
}

fn node<'a>(doc: &'a Json, path: &[Step]) -> Option<&'a Json> {
    let mut node = doc;
    for step in path {
        node = match (node, step) {
            (Json::Obj(members), Step::Key(key)) => &members.iter().find(|(k, _)| k == key)?.1,
            (Json::Arr(items), Step::Index(i)) => items.get(*i)?,
            _ => return None,
        };
    }
    Some(node)
}

const EXTREMES: [i64; 9] = [
    -1,
    -60_000,
    i64::MIN,
    i64::MAX,
    i64::MAX - 1,
    u32::MAX as i64,
    u32::MAX as i64 + 1,
    1 << 53,
    0,
];

/// A value of a different kind than `current`.
fn wrong_type(rng: &mut Rng, current: &Json) -> Json {
    let options = [
        Json::Null,
        Json::Bool(true),
        Json::Int(7),
        Json::Float(2.5),
        Json::str("x"),
        Json::Arr(vec![Json::Int(1)]),
        Json::Obj(vec![]),
    ];
    loop {
        let pick = rng.pick(&options);
        if std::mem::discriminant(pick) != std::mem::discriminant(current) {
            return pick.clone();
        }
    }
}

/// Draws one to three mutations against `doc`.
fn arb_mutations(rng: &mut Rng, doc: &Json) -> Vec<Mutation> {
    let all = paths(doc);
    let ints: Vec<&Vec<Step>> = all
        .iter()
        .filter(|p| matches!(node(doc, p), Some(Json::Int(_))))
        .collect();
    let arrays: Vec<&Vec<Step>> = all
        .iter()
        .filter(|p| matches!(node(doc, p), Some(Json::Arr(items)) if !items.is_empty()))
        .collect();
    (0..1 + rng.below(3))
        .map(|_| match rng.below(6) {
            0 => Mutation::Drop(rng.pick(&all).clone()),
            1 => {
                let path = rng.pick(&all).clone();
                let value = wrong_type(rng, node(doc, &path).expect("a listed path"));
                Mutation::Set(path, value)
            }
            2 | 3 if !ints.is_empty() => {
                Mutation::Set((*rng.pick(&ints)).clone(), Json::Int(*rng.pick(&EXTREMES)))
            }
            4 if !arrays.is_empty() => {
                let path = (*rng.pick(&arrays)).clone();
                let len = node(doc, &path)
                    .and_then(Json::as_arr)
                    .map_or(0, <[Json]>::len);
                Mutation::Truncate(path, rng.below(len as u64) as usize)
            }
            5 if rng.chance(1, 2) => Mutation::Overlap,
            _ => {
                let versions = [
                    Json::Int(0),
                    Json::Int(3),
                    Json::Int(-2),
                    Json::Int(i64::MAX),
                    Json::str("2"),
                    Json::Float(2.0),
                ];
                Mutation::Set(vec![key("version")], rng.pick(&versions).clone())
            }
        })
        .collect()
}

/// Imports the valid `base`, then `doc`, into a fresh engine, then
/// raises an event and steps ten times after `resume_at`. A refused
/// import must change nothing the engine exports, and steps too:
/// recovery skips a refused record and carries on with the engine it
/// left. `Err` carries the fault.
fn check(base: &Json, doc: &Json, resume_at: SimTime) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = fresh_engine();
        engine
            .import_runtime_json(base)
            .map_err(|e| format!("the base document was refused: {e}"))?;
        let imported = engine.export_runtime_json().to_compact();
        match engine.import_runtime_json(doc) {
            Ok(()) => {}
            Err(EngineError::Persist(_)) => {
                if engine.export_runtime_json().to_compact() != imported {
                    return Err("a refused import changed the engine".to_owned());
                }
            }
            Err(other) => return Err(format!("untyped refusal: {other:?}")),
        }
        engine.context_mut().raise_event("chan", "event-0");
        for k in 1..=10 {
            engine.step(resume_at + SimDuration::from_minutes(k));
        }
        Ok(())
    }));
    outcome.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Err(format!("panicked: {message}"))
    })
}

fn mutated(base: &Json, mutations: &[Mutation]) -> Json {
    let mut doc = base.clone();
    for mutation in mutations {
        apply(&mut doc, mutation);
    }
    doc
}

fn now_of(doc: &Json) -> SimTime {
    SimTime::from_millis(doc.get("now").and_then(Json::as_int).expect("a clock") as u64)
}

/// Drops mutations one at a time while the case still fails.
fn shrink(base: &Json, mut mutations: Vec<Mutation>) -> Vec<Mutation> {
    let mut i = 0;
    while i < mutations.len() {
        let mut fewer = mutations.clone();
        fewer.remove(i);
        if check(base, &mutated(base, &fewer), now_of(base)).is_err() {
            mutations = fewer;
        } else {
            i += 1;
        }
    }
    mutations
}

#[test]
fn the_valid_documents_import_and_resume() {
    let bases = base_documents();
    assert_eq!(bases.len(), 4);
    let last = bases.last().unwrap();
    for key in ["last_true", "last_false", "held", "sensors"] {
        assert!(
            !last.get(key).unwrap().as_arr().unwrap().is_empty(),
            "the workload leaves '{key}' empty"
        );
    }
    let resilience = bases[1].get("resilience").unwrap();
    assert!(
        ["breakers", "queue", "dlq"].iter().any(|key| !resilience
            .get(key)
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty()),
        "the faults left no resilience state"
    );
    for doc in &bases {
        for version in [to_v1(doc), doc.clone()] {
            check(&version, &version, now_of(doc)).unwrap();
            let mut engine = fresh_engine();
            engine.import_runtime_json(&version).unwrap();
            assert_eq!(&engine.export_runtime_json(), doc);
        }
    }
}

#[test]
fn mutated_documents_are_refused_typed_or_survive_stepping() {
    let bases: Vec<Json> = base_documents()
        .iter()
        .flat_map(|doc| [to_v1(doc), doc.clone()])
        .collect();
    let mut failures = Vec::new();
    let mut accepted = 0;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let base = &bases[rng.below(bases.len() as u64) as usize];
        let mutations = arb_mutations(&mut rng, base);
        let doc = mutated(base, &mutations);
        match check(base, &doc, now_of(base)) {
            Ok(()) => {
                accepted += usize::from(fresh_engine().import_runtime_json(&doc).is_ok());
            }
            Err(fault) => {
                let shrunk = shrink(base, mutations);
                failures.push(format!(
                    "seed {seed} (base version {:?}): {fault}\n  shrunk: {shrunk:?}",
                    base.get("version")
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Some mutations (a truncated list, an in-range integer) leave a
    // valid document: the survival half of the check is exercised.
    assert!(accepted > CASES as usize / 10, "only {accepted} accepted");
}

/// The first document the fuzz starts from: taken at minute 15, while
/// both lights' fault windows are open.
fn mid_fault_base() -> Json {
    base_documents().swap_remove(0)
}

/// Shrunk from seed 1,603 of a 6,000-case run: a clock at `i64::MAX`
/// (with an unrelated jitter seed) hung the import, because re-arming
/// each rule's clock deadline walked the calendar month by month from
/// the epoch, about 3.5 billion months per rule.
#[test]
fn shrunk_a_clock_at_i64_max_imports_and_steps() {
    for base in [to_v1(&mid_fault_base()), mid_fault_base()] {
        let doc = mutated(
            &base,
            &[Mutation::Set(vec![key("now")], Json::Int(i64::MAX))],
        );
        check(&base, &doc, now_of(&base)).unwrap();
    }
}

/// A closed breaker restored with a failure streak of `u32::MAX`
/// overflowed the streak on the device's next failure ("attempt to add
/// with overflow" in a debug build). It needs two mutations of the same
/// breaker, which the seeded run rarely draws together, so it is kept
/// here by name.
#[test]
fn shrunk_a_closed_breaker_at_u32_max_failures_fails_again() {
    let base = mid_fault_base();
    let breakers = base
        .get("resilience")
        .and_then(|r| r.get("breakers"))
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    assert!(breakers > 0, "the mid-fault document has no breaker");
    for b in 0..breakers {
        let path = |field: &str| {
            vec![
                key("resilience"),
                key("breakers"),
                Step::Index(b),
                key(field),
            ]
        };
        let doc = mutated(
            &base,
            &[
                Mutation::Set(path("state"), Json::str("closed")),
                Mutation::Set(path("failures"), Json::Int(u32::MAX.into())),
            ],
        );
        check(&base, &doc, now_of(&base)).unwrap();
    }
}
