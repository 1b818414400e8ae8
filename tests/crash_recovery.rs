//! Crash-point-injected restart tests for the durable home server.
//!
//! A scripted scenario of durable mutations — users, private words, rule
//! registrations, a conflict arbitration, priorities, policy changes,
//! removals, customizations, and engine-runtime checkpoints — runs once on
//! a reference server, recording the write-ahead-log byte boundary and a
//! state fingerprint ([`HomeServer::snapshot_json`]) after every
//! operation. The matrix then simulates a crash at **every** record
//! boundary by copying the log's byte prefix into a fresh directory and
//! recovering over a fresh world, asserting the recovered state matches
//! the reference fingerprint at that point. Torn-write variants append
//! garbage after a boundary; corruption variants flip a byte inside the
//! last record. Both must truncate to the previous consistent boundary,
//! never refuse recovery.
//!
//! Two companion tests prove the tentpole's other claims: a restarted
//! server resumes a seeded fault-injection soak in lockstep with a server
//! that never crashed, and a 1,000-rule log recovers completely (the
//! replay time is printed for `docs/EXPERIMENTS.md`).

use cadel::devices::LivingRoomHome;
use cadel::rule::{ActionSpec, Atom, Condition, ConstraintAtom, PresenceAtom, Rule, Verb};
use cadel::server::{HomeServer, SubmitOutcome};
use cadel::simplex::RelOp;
use cadel::store::WAL_FILE;
use cadel::types::json::Json;
use cadel::types::{
    DeviceId, PersonId, Quantity, Rational, RuleId, SensorKey, SimDuration, SimTime, Topology, Unit,
};
use cadel::upnp::{ControlPoint, FaultPlan, FaultyDevice, Registry};
use cadel_conflict::PriorityOrder;
use std::path::{Path, PathBuf};

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn standard_topology() -> Topology {
    let mut t = Topology::new("home");
    t.add_floor("first floor").unwrap();
    t.add_room("living room", "first floor").unwrap();
    t.add_room("hall", "first floor").unwrap();
    t
}

fn fresh_world() -> (ControlPoint, Topology, LivingRoomHome) {
    let registry = Registry::new();
    let home = LivingRoomHome::install(&registry);
    (ControlPoint::new(registry), standard_topology(), home)
}

/// One scripted operation. Each must append **exactly one** record to the
/// write-ahead log (asserted by the matrix), may drive sensors and step
/// the engine, and must be replayable on any server that has already
/// applied the preceding operations — so ids are discovered dynamically
/// and all times are absolute.
type Op = (&'static str, fn(&mut HomeServer, &LivingRoomHome));

fn rule_owned_by(server: &HomeServer, owner: &str) -> RuleId {
    let owner = PersonId::new(owner);
    server
        .engine()
        .rules()
        .iter()
        .find(|r| r.owner() == &owner)
        .map(Rule::id)
        .expect("scripted op ran out of order: owner has no rule")
}

/// Alan's air-conditioner rule, which conflicts with Tom's.
const ALAN_COOLS: &str = "If temperature is higher than 25 degrees, turn on the air \
                          conditioner with 24 degrees of temperature setting.";

fn scripted_ops() -> Vec<Op> {
    vec![
        ("add user tom", |s, _| {
            s.add_user("Tom").unwrap();
        }),
        ("add user alan", |s, _| {
            s.add_user("Alan").unwrap();
        }),
        ("define private word", |s, _| {
            let out = s
                .submit(
                    &PersonId::new("tom"),
                    "Let's call the condition that temperature is higher than 26 degrees \
                     too hot",
                )
                .unwrap();
            assert!(matches!(out, SubmitOutcome::ConditionWordDefined { .. }));
        }),
        ("register rule via word", |s, _| {
            let out = s
                .submit(
                    &PersonId::new("tom"),
                    "If too hot, turn on the air conditioner with 25 degrees of \
                     temperature setting.",
                )
                .unwrap();
            assert!(matches!(out, SubmitOutcome::Registered { .. }));
        }),
        ("refuse a conflicting rule, reserving its id", |s, _| {
            let out = s.submit(&PersonId::new("alan"), ALAN_COOLS).unwrap();
            assert!(
                matches!(out, SubmitOutcome::ConflictDetected { .. }),
                "expected a conflict, got {out:?}"
            );
        }),
        ("arbitrate a conflict", |s, _| {
            let alan = PersonId::new("alan");
            let rule = s
                .compile_rule(&alan, ALAN_COOLS)
                .unwrap()
                .expect("a rule sentence");
            let loser = rule_owned_by(s, "tom");
            let order = PriorityOrder::new(rule.action().device().clone(), vec![rule.id(), loser])
                .with_label("Alan first");
            let out = s.arbitrate(&alan, rule, order).unwrap();
            assert!(matches!(out, SubmitOutcome::Registered { .. }), "{out:?}");
        }),
        ("add context-scoped priority", |s, _| {
            let tom = rule_owned_by(s, "tom");
            let alan = rule_owned_by(s, "alan");
            let order = PriorityOrder::new(DeviceId::new("aircon-lr"), vec![tom, alan])
                .in_context(Condition::Atom(Atom::Presence(PresenceAtom::person_at(
                    "tom",
                    "living room",
                ))))
                .with_label("Tom is home");
            s.add_priority(order).unwrap();
        }),
        ("set freshness policy", |s, _| {
            s.set_freshness_policy(cadel::engine::FreshnessPolicy::new(
                cadel::engine::FreshnessMode::HoldLastValue,
                SimDuration::from_minutes(10),
            ))
            .unwrap();
        }),
        ("activity then runtime checkpoint", |s, home| {
            home.thermometer
                .set_reading(Rational::from_integer(29), mins(1))
                .unwrap();
            for m in 2..6 {
                s.step(mins(m));
            }
            s.checkpoint_runtime().unwrap();
        }),
        ("remove tom's rule", |s, _| {
            let id = rule_owned_by(s, "tom");
            s.remove_rule(id).unwrap();
        }),
        ("disable alan's rule", |s, _| {
            let id = rule_owned_by(s, "alan");
            s.set_rule_enabled(id, false).unwrap();
        }),
        ("more activity, second checkpoint", |s, home| {
            home.thermometer
                .set_reading(Rational::from_integer(24), mins(7))
                .unwrap();
            home.living_presence
                .person_entered(&PersonId::new("tom"), mins(7));
            for m in 8..11 {
                s.step(mins(m));
            }
            s.checkpoint_runtime().unwrap();
        }),
    ]
}

/// Drops the context's sensor board from a fingerprint. Device-echo
/// readings (`power`, `setpoint`, …) mirror the *external* world: after a
/// recovery over fresh devices they are re-learned from live device
/// events, so their timestamps legitimately differ from a never-crashed
/// run (see `docs/PERSISTENCE.md`). Everything the server itself owns —
/// rules, priorities, words, held/retry/breaker state — must still match
/// byte for byte.
fn strip_sensor_echoes(doc: &mut Json) {
    if let Json::Obj(members) = doc {
        members.retain(|(key, _)| key != "sensors");
        for (_, value) in members.iter_mut() {
            strip_sensor_echoes(value);
        }
    }
}

fn fingerprint_sans_sensors(server: &HomeServer) -> String {
    let mut doc = server.snapshot_json();
    strip_sensor_echoes(&mut doc);
    doc.to_pretty()
}

/// Copies the first `len` bytes of the reference log into a fresh store
/// directory, optionally appending `tail` garbage bytes, and optionally
/// flipping the byte at `corrupt_at`.
fn plant_wal(dir: &Path, wal: &[u8], len: u64, tail: &[u8], corrupt_at: Option<u64>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut bytes = wal[..len as usize].to_vec();
    if let Some(at) = corrupt_at {
        bytes[at as usize] ^= 0x55;
    }
    bytes.extend_from_slice(tail);
    std::fs::write(dir.join(WAL_FILE), bytes).unwrap();
}

fn recover_fingerprint(dir: &Path) -> (String, cadel::store::RecoveryReport) {
    let (control, topology, _home) = fresh_world();
    let (server, report) = HomeServer::open_at(control, topology, dir).unwrap();
    (server.snapshot_json().to_pretty(), report)
}

#[test]
fn crash_matrix_recovers_identically_at_every_record_boundary() {
    let ops = scripted_ops();
    let reference_dir = temp_dir("matrix-ref");

    // Reference run: every op appends exactly one record; capture the
    // log boundary and state fingerprint after each.
    let mut boundaries = Vec::new(); // boundaries[k] = wal_len after k ops
    let mut fingerprints = Vec::new(); // fingerprints[k] = state after k ops
    {
        let (control, topology, home) = fresh_world();
        let (mut server, _) = HomeServer::open_at(control, topology, &reference_dir).unwrap();
        boundaries.push(server.store().unwrap().wal_len());
        fingerprints.push(server.snapshot_json().to_pretty());
        for (name, op) in &ops {
            let before = server.store().unwrap().wal_len();
            op(&mut server, &home);
            let after = server.store().unwrap().wal_len();
            assert!(
                after > before,
                "op '{name}' appended no record — boundary map is broken"
            );
            boundaries.push(after);
            fingerprints.push(server.snapshot_json().to_pretty());
        }
        server.sync().unwrap();
    }
    let wal = std::fs::read(reference_dir.join(WAL_FILE)).unwrap();
    assert_eq!(wal.len() as u64, *boundaries.last().unwrap());

    let crash_dir = temp_dir("matrix-crash");
    for k in 0..boundaries.len() {
        // Clean crash exactly at boundary k: all k records replay.
        plant_wal(&crash_dir, &wal, boundaries[k], &[], None);
        let (fp, report) = recover_fingerprint(&crash_dir);
        assert_eq!(fp, fingerprints[k], "clean boundary {k} diverged");
        assert_eq!(report.records_replayed, k as u64);
        assert_eq!(report.bytes_truncated, 0);
        assert!(!report.snapshot_used);

        // Torn write: garbage after the boundary (shorter than a minimal
        // frame) is truncated and the prefix still replays.
        for tail_len in [1usize, 3, 7] {
            let tail = vec![0xAB; tail_len];
            plant_wal(&crash_dir, &wal, boundaries[k], &tail, None);
            let (fp, report) = recover_fingerprint(&crash_dir);
            assert_eq!(fp, fingerprints[k], "torn boundary {k}+{tail_len} diverged");
            assert_eq!(report.records_replayed, k as u64);
            assert_eq!(report.bytes_truncated, tail_len as u64);
        }

        // Bit rot inside the last record: the checksum rejects it and
        // recovery lands on the previous boundary.
        if k > 0 {
            let corrupt_at = boundaries[k - 1] + 10; // inside the payload
            plant_wal(&crash_dir, &wal, boundaries[k], &[], Some(corrupt_at));
            let (fp, report) = recover_fingerprint(&crash_dir);
            assert_eq!(fp, fingerprints[k - 1], "corrupt boundary {k} diverged");
            assert_eq!(report.records_replayed, (k - 1) as u64);
            assert_eq!(report.bytes_truncated, boundaries[k] - boundaries[k - 1]);
        }
    }
}

#[test]
fn recovered_server_finishes_the_script_like_the_reference() {
    let ops = scripted_ops();
    let reference_dir = temp_dir("resume-ref");

    let mut boundaries = Vec::new();
    let final_fingerprint;
    {
        let (control, topology, home) = fresh_world();
        let (mut server, _) = HomeServer::open_at(control, topology, &reference_dir).unwrap();
        boundaries.push(server.store().unwrap().wal_len());
        for (_, op) in &ops {
            op(&mut server, &home);
            boundaries.push(server.store().unwrap().wal_len());
        }
        server.sync().unwrap();
        final_fingerprint = fingerprint_sans_sensors(&server);
    }
    let wal = std::fs::read(reference_dir.join(WAL_FILE)).unwrap();

    // Crash after k ops, recover, run the remaining ops on the recovered
    // server: the final state must be byte-identical to the reference.
    let crash_dir = temp_dir("resume-crash");
    for k in 0..boundaries.len() {
        plant_wal(&crash_dir, &wal, boundaries[k], &[], None);
        let (control, topology, home) = fresh_world();
        let (mut server, _) = HomeServer::open_at(control, topology, &crash_dir).unwrap();
        for (_, op) in &ops[k..] {
            op(&mut server, &home);
        }
        assert_eq!(
            fingerprint_sans_sensors(&server),
            final_fingerprint,
            "resume from boundary {k} ended in a different state"
        );
    }
}

/// A deterministic faulty world: the living room with the air conditioner
/// failing on a seeded pseudo-random schedule.
fn faulty_world(seed: u64) -> (ControlPoint, Topology, LivingRoomHome) {
    let registry = Registry::new();
    let home = LivingRoomHome::install(&registry);
    FaultyDevice::wrap(
        &registry,
        &DeviceId::new("aircon-lr"),
        FaultPlan::random_transient(
            seed,
            SimTime::EPOCH,
            mins(240),
            SimDuration::from_minutes(7),
            350,
        ),
    )
    .unwrap();
    (ControlPoint::new(registry), standard_topology(), home)
}

fn register_soak_rules(server: &mut HomeServer) {
    server.add_user("Tom").unwrap();
    let tom = PersonId::new("tom");
    for sentence in [
        "If temperature is higher than 28 degrees, turn on the air conditioner with \
         25 degrees of temperature setting.",
        "If temperature is higher than 31 degrees, turn on the fluorescent light.",
    ] {
        let out = server.submit(&tom, sentence).unwrap();
        assert!(matches!(out, SubmitOutcome::Registered { .. }));
    }
}

/// Per-minute sensor drive: a deterministic temperature wiggle crossing
/// both rule thresholds, so rules fire and release while the faulty
/// aircon trips breakers and queues retries.
fn drive_minute(server: &mut HomeServer, home: &LivingRoomHome, m: u64) -> String {
    let temp = 24 + ((m * 5) % 13) as i64;
    home.thermometer
        .set_reading(Rational::from_integer(temp), mins(m))
        .unwrap();
    server.step(mins(m)).to_string()
}

#[test]
fn recovered_server_resumes_seeded_soak_in_lockstep() {
    const SEED: u64 = 7;
    const CHECKPOINT_AT: u64 = 120;
    const END: u64 = 240;

    // Reference: never crashes, runs the whole soak.
    let (control, topology, home_a) = faulty_world(SEED);
    let mut server_a = HomeServer::new(control, topology);
    register_soak_rules(&mut server_a);
    let mut reference_reports = Vec::new();
    for m in 1..=END {
        let report = drive_minute(&mut server_a, &home_a, m);
        if m > CHECKPOINT_AT {
            reference_reports.push(report);
        }
    }

    // Durable twin: identical world, crashes right after a runtime
    // checkpoint mid-soak.
    let dir = temp_dir("soak");
    {
        let (control, topology, home_b) = faulty_world(SEED);
        let (mut server_b, _) = HomeServer::open_at(control, topology, &dir).unwrap();
        register_soak_rules(&mut server_b);
        for m in 1..=CHECKPOINT_AT {
            drive_minute(&mut server_b, &home_b, m);
        }
        server_b.checkpoint_runtime().unwrap();
        server_b.sync().unwrap();
    }

    // Recovery over a third identical world resumes in lockstep: every
    // remaining step report matches the never-crashed reference, and so
    // does the final runtime state.
    let (control, topology, home_c) = faulty_world(SEED);
    let (mut server_c, report) = HomeServer::open_at(control, topology, &dir).unwrap();
    assert!(report.records_replayed >= 4);
    for (i, m) in (CHECKPOINT_AT + 1..=END).enumerate() {
        let live = drive_minute(&mut server_c, &home_c, m);
        assert_eq!(
            live, reference_reports[i],
            "step at minute {m} diverged after recovery"
        );
    }
    let mut runtime_c = server_c.engine().export_runtime_json();
    let mut runtime_a = server_a.engine().export_runtime_json();
    strip_sensor_echoes(&mut runtime_c);
    strip_sensor_echoes(&mut runtime_a);
    assert_eq!(runtime_c, runtime_a);
}

#[test]
fn thousand_rule_log_recovers_completely() {
    const RULES: u64 = 1_000;
    let devices = [
        "aircon-lr",
        "tv-lr",
        "lamp-lr",
        "stereo",
        "fluorescent",
        "vcr-lr",
    ];
    let dir = temp_dir("thousand");

    {
        let (control, topology, _home) = fresh_world();
        let (mut server, _) = HomeServer::open_at(control, topology, &dir).unwrap();
        server.add_user("Tom").unwrap();
        for i in 0..RULES {
            // Identical action per device (round-robin) so no pair
            // conflicts; unique thresholds keep every condition distinct.
            let device = DeviceId::new(devices[(i % devices.len() as u64) as usize]);
            let rule = Rule::builder(PersonId::new("tom"))
                .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                    SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
                    RelOp::Gt,
                    Quantity::from_integer(15 + (i % 20) as i64, Unit::Celsius),
                ))))
                .action(ActionSpec::new(device, Verb::TurnOn))
                .build(RuleId::new(i + 1))
                .unwrap();
            let out = server.register_rule(rule).unwrap();
            assert!(matches!(out, SubmitOutcome::Registered { .. }));
        }
        server.sync().unwrap();
        assert_eq!(server.engine().rules().len(), RULES as usize);
    }

    let (control, topology, _home) = fresh_world();
    let started = std::time::Instant::now();
    let (server, report) = HomeServer::open_at(control, topology, &dir).unwrap();
    let elapsed = started.elapsed();
    // records: 1 user + 1,000 rules
    assert_eq!(report.records_replayed, RULES + 1);
    assert_eq!(report.bytes_truncated, 0);
    assert_eq!(server.engine().rules().len(), RULES as usize);
    assert_eq!(server.engine().rules().next_id(), RuleId::new(RULES + 1));
    println!("recovered {RULES}-rule log in {elapsed:?} (S2 in docs/EXPERIMENTS.md)");
}

/// The fleet keeps every tenant's WAL in its own segment directory
/// (`<root>/tenants/<name>/`, [`cadel::store::segment_dir`]). The crash
/// guarantees must hold unchanged there: recovery inside one segment
/// behaves exactly like a flat store directory, and a torn-tail crash in
/// one tenant's segment cannot leak into a healthy sibling's.
#[test]
fn crash_matrix_holds_in_fleet_segment_layout() {
    let ops = scripted_ops();
    let root = temp_dir("fleet-seg");
    let healthy_dir = cadel::store::segment_dir(&root, "unit-0");

    // Reference run inside unit-0's segment.
    let final_fingerprint = {
        let (control, topology, home) = fresh_world();
        let (mut server, _) = HomeServer::open_at(control, topology, &healthy_dir).unwrap();
        for (_, op) in &ops {
            op(&mut server, &home);
        }
        server.sync().unwrap();
        server.snapshot_json().to_pretty()
    };
    let wal = std::fs::read(healthy_dir.join(WAL_FILE)).unwrap();

    // Plant a torn-tail crash in a sibling segment: recovery truncates
    // to the last record boundary and reproduces the full state.
    let torn_dir = cadel::store::segment_dir(&root, "unit-1");
    plant_wal(&torn_dir, &wal, wal.len() as u64, b"\x7fgarbage tail", None);
    let (fingerprint, report) = recover_fingerprint(&torn_dir);
    assert_eq!(fingerprint, final_fingerprint);
    assert!(report.bytes_truncated > 0);

    // The healthy sibling's bytes and recovery are untouched by the
    // sibling's crash and repair.
    assert_eq!(std::fs::read(healthy_dir.join(WAL_FILE)).unwrap(), wal);
    let (fingerprint, report) = recover_fingerprint(&healthy_dir);
    assert_eq!(fingerprint, final_fingerprint);
    assert_eq!(report.bytes_truncated, 0);
    assert_eq!(report.records_replayed, ops.len() as u64);

    let _ = std::fs::remove_dir_all(&root);
}
