//! Generated interleavings of the rule dialog, checked against the
//! semantics of arbitration.
//!
//! Each seed drives a durable server for a small home — air-conditioner
//! and floor-lamp rules from three users — through random submits,
//! arbitrations, customizes, disables, re-enables, removals, priority
//! additions and export/import round trips. Arbitrations answer with
//! rankings that are complete, that omit a partner, that were chosen
//! before later rules arrived, or that would replace an order while
//! dropping a live rule, unscoped or scoped to who is in the living
//! room. After every operation:
//!
//! - every conflict `find_conflicts` reports for an enabled live rule is
//!   covered by the priority store;
//! - for every order and every live pair it ranks, `resolve` returns the
//!   order's preference when only that order's context holds;
//! - a refused operation leaves the server's durable state unchanged.
//!
//! At the end, the server reopened from its WAL has the live state, and
//! its rule-id allocator is past every id a refused rule was handed back
//! under.
//!
//! All randomness is seeded: a failing seed replays exactly.

use cadel::conflict::{find_conflicts, PriorityOrder};
use cadel::devices::LivingRoomHome;
use cadel::rule::codec::{rules_from_json, rules_to_json};
use cadel::rule::{Atom, Condition, PresenceAtom, Rule};
use cadel::server::{HomeServer, SubmitOutcome};
use cadel::types::json::Json;
use cadel::types::{DeviceId, PersonId, Rng, RuleId, Topology};
use cadel::upnp::{ControlPoint, Registry};
use std::path::{Path, PathBuf};

const USERS: [&str; 3] = ["tom", "alan", "emily"];
const DEVICES: [&str; 2] = ["aircon-lr", "lamp-lr"];
const OPS_PER_SEED: usize = 80;
const SEEDS: u64 = 16;
/// Refused rules the callers still hold, oldest first.
const HELD: usize = 6;

fn open(dir: &Path) -> HomeServer {
    let registry = Registry::new();
    LivingRoomHome::install(&registry);
    let mut topology = Topology::new("home");
    topology.add_floor("first floor").unwrap();
    topology.add_room("living room", "first floor").unwrap();
    topology.add_room("hall", "first floor").unwrap();
    HomeServer::open_at(ControlPoint::new(registry), topology, dir)
        .expect("store opens")
        .0
}

/// A random rule sentence on one of the two devices. Few thresholds and
/// settings, so rules overlap, conflict and sometimes coincide.
fn sentence(rng: &mut Rng) -> String {
    if rng.chance(1, 2) {
        let threshold = 20 + 2 * rng.below(6);
        let setpoint = 22 + rng.below(4);
        format!(
            "If temperature is higher than {threshold} degrees, turn on the air conditioner \
             with {setpoint} degrees of temperature setting."
        )
    } else {
        let threshold = 50 + 10 * rng.below(4);
        let brightness = 30 * (1 + rng.below(3));
        format!(
            "If humidity is higher than {threshold} percent, turn on the floor lamp \
             with {brightness} percent of brightness setting."
        )
    }
}

fn presence(person: &str) -> Condition {
    Condition::Atom(Atom::Presence(PresenceAtom::person_at(
        person,
        "living room",
    )))
}

fn shuffle(rng: &mut Rng, ids: &mut [RuleId]) {
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The durable state without the rule-id allocator. Compiling a sentence
/// allocates an id, and a customize abandons it (the compiled rule takes
/// the live rule's id); the WAL records only the ids that stored rules
/// and refused rules handed back carry.
fn sans_allocator(doc: Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .into_iter()
                .filter(|(key, _)| key != "next_rule_id")
                .collect(),
        ),
        other => other,
    }
}

fn next_rule_id(doc: &Json) -> i64 {
    doc.get("next_rule_id")
        .and_then(Json::as_int)
        .expect("snapshot carries the allocator")
}

/// A refused rule and the partners it was refused over, as its caller
/// saw them.
struct Held {
    rule: Rule,
    partners: Vec<RuleId>,
}

/// One driver: the server, the refused rules its callers hold, and the
/// seeded choices.
struct Driver {
    server: HomeServer,
    rng: Rng,
    held: Vec<Held>,
    /// The largest id of a new rule ever handed back refused.
    handed_back: Option<RuleId>,
    refusals: usize,
    accepted: usize,
}

impl Driver {
    fn user(&mut self) -> PersonId {
        PersonId::new(*self.rng.pick(&USERS))
    }

    fn live_ids(&self) -> Vec<RuleId> {
        let mut ids: Vec<RuleId> = self.server.engine().rules().iter().map(Rule::id).collect();
        ids.sort();
        ids
    }

    fn live_on(&self, device: &DeviceId) -> Vec<RuleId> {
        let mut ids: Vec<RuleId> = self
            .server
            .engine()
            .rules()
            .iter()
            .filter(|r| r.action().device() == device)
            .map(Rule::id)
            .collect();
        ids.sort();
        ids
    }

    fn context(&mut self) -> Option<Condition> {
        match self.rng.below(3) {
            0 => Some(presence("tom")),
            1 => Some(presence("alan")),
            _ => None,
        }
    }

    /// Keeps a refused rule for a later arbitration, as its caller would.
    fn hold(&mut self, outcome: &SubmitOutcome) {
        if let SubmitOutcome::ConflictDetected { rule, conflicts } = outcome {
            if self.server.engine().rules().get(rule.id()).is_none() {
                self.handed_back = self.handed_back.max(Some(rule.id()));
            }
            let partners = conflicts.iter().map(|c| c.rule_b()).collect();
            self.held.push(Held {
                rule: (**rule).clone(),
                partners,
            });
            if self.held.len() > HELD {
                self.held.remove(0);
            }
        }
    }

    /// Whether an outcome changed nothing.
    fn refused(outcome: &SubmitOutcome) -> bool {
        matches!(
            outcome,
            SubmitOutcome::ConflictDetected { .. } | SubmitOutcome::RejectedInconsistent { .. }
        )
    }

    /// A ranking for a held rule: complete (its partners plus every live
    /// rule the order it would replace ranks), partners only, complete
    /// but missing one partner, or the rule alone.
    fn ranking_for(&mut self, held: &Held, context: &Option<Condition>) -> Vec<RuleId> {
        let device = held.rule.action().device().clone();
        let mut ranking = vec![held.rule.id()];
        let strategy = self.rng.below(4);
        if strategy == 3 {
            return ranking;
        }
        ranking.extend(held.partners.iter().copied());
        if strategy != 1 {
            let existing = self
                .server
                .engine()
                .priorities()
                .orders()
                .iter()
                .find(|o| o.device() == &device && o.context() == context.as_ref())
                .map(|o| o.ranking().to_vec())
                .unwrap_or_default();
            ranking.extend(existing);
            // Rules that arrived since the refusal: a caller that looks
            // again ranks them too.
            ranking.extend(self.live_on(&device));
        }
        let mut seen = std::collections::BTreeSet::new();
        ranking.retain(|id| seen.insert(*id));
        if strategy == 2 && ranking.len() > 1 {
            let drop = 1 + self.rng.below(ranking.len() as u64 - 1) as usize;
            ranking.remove(drop);
        }
        shuffle(&mut self.rng, &mut ranking);
        ranking
    }

    /// Runs one random operation; returns whether it was refused and
    /// whether it allocated a rule id along the way.
    fn step(&mut self) -> (String, bool, bool) {
        let live = self.live_ids();
        let pick_live = |rng: &mut Rng| (!live.is_empty()).then(|| *rng.pick(&live));
        match self.rng.below(10) {
            0..=2 => {
                let user = self.user();
                let text = sentence(&mut self.rng);
                let outcome = self.server.submit(&user, &text).expect("submit");
                self.hold(&outcome);
                (format!("submit {text:?}"), Self::refused(&outcome), true)
            }
            3..=4 if !self.held.is_empty() => {
                let index = self.rng.below(self.held.len() as u64) as usize;
                let held = self.held.remove(index);
                let context = self.context();
                let ranking = self.ranking_for(&held, &context);
                let device = held.rule.action().device().clone();
                let mut order = PriorityOrder::new(device, ranking);
                if let Some(context) = context {
                    order = order.in_context(context);
                }
                let what = format!("arbitrate {} with {order}", held.rule.id());
                let user = self.user();
                match self.server.arbitrate(&user, held.rule.clone(), order) {
                    Ok(outcome) => {
                        let refused = Self::refused(&outcome);
                        self.hold(&outcome);
                        (what, refused, false)
                    }
                    Err(error) => {
                        // The caller still holds the rule and may try again.
                        self.held.push(held);
                        (format!("{what}: {error}"), true, false)
                    }
                }
            }
            5 => {
                let Some(id) = pick_live(&mut self.rng) else {
                    return ("customize (empty base)".into(), true, false);
                };
                let user = self.user();
                let text = sentence(&mut self.rng);
                let compiled = self
                    .server
                    .compile_rule(&user, &text)
                    .expect("compile")
                    .expect("a rule sentence");
                let live = self.server.engine().rules().get(id).unwrap();
                let owner = live.owner().clone();
                let enabled = live.is_enabled();
                let rule = compiled.reassigned(id, owner).with_enabled(enabled);
                let outcome = self.server.customize_rule(rule).expect("customize");
                self.hold(&outcome);
                let what = format!("customize {id} to {text:?}");
                (what, Self::refused(&outcome), true)
            }
            6 => {
                let Some(id) = pick_live(&mut self.rng) else {
                    return ("toggle (empty base)".into(), true, false);
                };
                let enable = !self.server.engine().rules().get(id).unwrap().is_enabled();
                let outcome = self.server.set_rule_enabled(id, enable).expect("toggle");
                self.hold(&outcome);
                (
                    format!("set {id} enabled={enable}"),
                    Self::refused(&outcome),
                    false,
                )
            }
            7 => {
                let Some(id) = pick_live(&mut self.rng) else {
                    return ("remove (empty base)".into(), true, false);
                };
                self.server.remove_rule(id).expect("remove");
                (format!("remove {id}"), false, false)
            }
            8 => {
                let device = DeviceId::new(*self.rng.pick(&DEVICES));
                let mut ranking = self.live_on(&device);
                ranking.retain(|_| self.rng.chance(3, 4));
                shuffle(&mut self.rng, &mut ranking);
                let mut order = PriorityOrder::new(device, ranking);
                if let Some(context) = self.context() {
                    order = order.in_context(context);
                }
                let what = format!("add {order}");
                match self.server.add_priority(order) {
                    Ok(_) => (what, false, false),
                    Err(error) => (format!("{what}: {error}"), true, false),
                }
            }
            _ => {
                let Some(id) = pick_live(&mut self.rng) else {
                    return ("import (empty base)".into(), true, false);
                };
                let exported = rules_from_json(&self.server.export_rules().unwrap()).unwrap();
                let rule = exported.into_iter().find(|r| r.id() == id).unwrap();
                let user = self.user();
                let report = self
                    .server
                    .import_rules(&user, &rules_to_json([&rule]))
                    .expect("import");
                let what = format!("import {id} for {user}: {report:?}");
                (what, report.imported.is_empty(), true)
            }
        }
    }
}

/// The semantics every state reachable through the server must keep.
fn check_invariants(server: &HomeServer, context: &str) {
    let rules = server.engine().rules();
    let priorities = server.engine().priorities();
    for rule in rules.iter().filter(|r| r.is_enabled()) {
        for conflict in find_conflicts(rules, rule).expect("conflict check") {
            assert!(
                priorities.covers(rule.action().device(), conflict.rule_a(), conflict.rule_b()),
                "{context}: uncovered conflict {conflict}"
            );
        }
    }
    for (index, order) in priorities.orders().iter().enumerate() {
        let ranked: Vec<RuleId> = order
            .ranking()
            .iter()
            .copied()
            .filter(|id| rules.get(*id).is_some())
            .collect();
        for (i, &first) in ranked.iter().enumerate() {
            for &second in &ranked[i + 1..] {
                let winner = if order.context().is_some() {
                    priorities.resolve(order.device(), &[second, first], |k| k == index)
                } else {
                    priorities.resolve(order.device(), &[second, first], |_| false)
                };
                assert_eq!(
                    winner.winner(),
                    Some(first),
                    "{context}: order {index} ({order}) does not decide {first} vs {second}"
                );
            }
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-arbitration-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one seed; returns (accepted, refused) operation counts.
fn run_seed(seed: u64) -> (usize, usize) {
    let dir = temp_dir(&format!("seed-{seed}"));
    let mut server = open(&dir);
    for user in USERS {
        server.add_user(user).unwrap();
    }
    let mut driver = Driver {
        server,
        rng: Rng::new(seed),
        held: Vec::new(),
        handed_back: None,
        refusals: 0,
        accepted: 0,
    };
    for op in 0..OPS_PER_SEED {
        let before = driver.server.snapshot_json();
        let (what, refused, allocates) = driver.step();
        let context = format!("seed {seed}, op {op}: {what}");
        if refused {
            driver.refusals += 1;
            let after = driver.server.snapshot_json();
            if allocates {
                assert_eq!(sans_allocator(after), sans_allocator(before), "{context}");
            } else {
                assert_eq!(after, before, "{context}");
            }
        } else {
            driver.accepted += 1;
        }
        check_invariants(&driver.server, &context);
    }

    driver.server.sync().unwrap();
    let live = driver.server.snapshot_json();
    let counts = (driver.accepted, driver.refusals);
    let handed_back = driver.handed_back;
    drop(driver);
    let recovered = open(&dir).snapshot_json();
    // The recovered allocator never re-issues the id of a refused rule a
    // caller may still arbitrate, and never runs ahead of the live one.
    let next = next_rule_id(&recovered);
    if let Some(id) = handed_back {
        assert!(
            next > id.raw() as i64,
            "seed {seed}: {id} would be re-issued"
        );
    }
    assert!(next <= next_rule_id(&live), "seed {seed}");
    assert_eq!(
        sans_allocator(recovered),
        sans_allocator(live),
        "seed {seed}: the WAL replays to the live state"
    );
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

#[test]
fn generated_interleavings_keep_every_conflict_covered() {
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..SEEDS {
        let (a, r) = run_seed(seed);
        accepted += a;
        refused += r;
    }
    // The generator reaches both sides of every check.
    assert!(accepted > SEEDS as usize * 10, "accepted {accepted}");
    assert!(refused > SEEDS as usize * 10, "refused {refused}");
}
