//! Durable-store benchmarks.
//!
//! * **S1 (append throughput)** — appending a representative
//!   `rule_registered` record (framing + CRC + compact JSON encoding) to
//!   the write-ahead log, buffered and with a per-record fdatasync. The
//!   buffered number is what the server pays inline on every durable
//!   mutation; the synced number is the worst-case durability knob
//!   ([`cadel_store::Store::set_sync_on_append`]).
//! * **S2 (recovery replay)** — reopening a 1,000-rule log: once as a raw
//!   [`cadel_store::Store::open`] scan (framing, checksum, JSON parse)
//!   and once as a full [`HomeServer::open_at`] recovery over a fresh
//!   world (record decode, conflict-free insert, IR recompile, trigger
//!   index rebuild).
//! * **S3 (runtime checkpoint)** — [`HomeServer::checkpoint_runtime`] on
//!   a 10,000-rule home (100 rooms of 100 rules over the room's
//!   thermometer, air conditioner and light), stepped until every rule
//!   has an edge state: the median cost of one checkpoint (export,
//!   compact encode, CRC-32, write; no sync), the bytes per record, and
//!   the time to recover a log holding 64 such records after the
//!   snapshot of the rule base. The last line is the S3 result as JSON.
//!
//! `CADEL_BENCH_SMOKE=1` shrinks S3 to a 1,000-rule home for CI.

use cadel_bench::timing::{run, section};
use cadel_devices::{
    AirConditioner, EnvironmentSensor, Light, LightKind, LivingRoomHome, Thermometer,
};
use cadel_rule::codec::rule_to_json;
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_server::HomeServer;
use cadel_simplex::RelOp;
use cadel_store::Store;
use cadel_types::json::Json;
use cadel_types::{
    DeviceId, PersonId, Quantity, Rational, RuleId, SensorKey, SimDuration, SimTime, Topology, Unit,
};
use cadel_upnp::{ControlPoint, Registry};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const REPLAY_RULES: u64 = 1_000;
/// Rules per room of the S3 home.
const ROOM_RULES: usize = 100;
/// Runtime records in the S3 recovery log.
const RUNTIME_RECORDS: u64 = 64;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_rule(i: u64) -> Rule {
    let devices = [
        "aircon-lr",
        "tv-lr",
        "lamp-lr",
        "stereo",
        "fluorescent",
        "vcr-lr",
    ];
    Rule::builder(PersonId::new("bench"))
        .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
            SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
            RelOp::Gt,
            Quantity::from_integer(15 + (i % 20) as i64, Unit::Celsius),
        ))))
        .action(ActionSpec::new(
            DeviceId::new(devices[(i % devices.len() as u64) as usize]),
            Verb::TurnOn,
        ))
        .build(RuleId::new(i + 1))
        .unwrap()
}

/// A record shaped like the server's `rule_registered` WAL entry.
fn record(i: u64) -> Json {
    Json::obj(vec![
        ("type", Json::str("rule_registered")),
        ("rule", rule_to_json(&bench_rule(i))),
    ])
}

fn fresh_world() -> (ControlPoint, Topology) {
    let registry = Registry::new();
    LivingRoomHome::install(&registry);
    let mut t = Topology::new("home");
    t.add_floor("first floor").unwrap();
    t.add_room("living room", "first floor").unwrap();
    t.add_room("hall", "first floor").unwrap();
    (ControlPoint::new(registry), t)
}

/// Writes the S2 workload once: a log holding one user and 1,000 rule
/// registrations, exactly what a server that never compacted would leave
/// behind.
fn build_replay_log(dir: &Path) {
    let (control, topology) = fresh_world();
    let (mut server, _) = HomeServer::open_at(control, topology, dir).unwrap();
    server.add_user("Bench").unwrap();
    for i in 0..REPLAY_RULES {
        server.register_rule(bench_rule(i)).unwrap();
    }
    server.sync().unwrap();
}

/// The S3 home: `rooms` rooms, each with a thermometer, an air
/// conditioner and a light, and a world the rules read and actuate.
fn checkpoint_world(rooms: usize) -> (ControlPoint, Topology, Vec<Arc<EnvironmentSensor>>) {
    let registry = Registry::new();
    let mut thermometers = Vec::with_capacity(rooms);
    for r in 0..rooms {
        let place = format!("room {r}");
        let thermometer = Thermometer::new(&format!("thermo-{r}"), "Thermometer", &place, 22);
        registry.register(thermometer.clone()).unwrap();
        thermometers.push(thermometer);
        registry
            .register(AirConditioner::new(
                &format!("aircon-{r}"),
                "Air Conditioner",
                &place,
            ))
            .unwrap();
        registry
            .register(Light::new(
                &format!("light-{r}"),
                "Light",
                &place,
                LightKind::Fluorescent,
            ))
            .unwrap();
    }
    (
        ControlPoint::new(registry),
        Topology::new("home"),
        thermometers,
    )
}

/// Room `r`'s rules: 60 cool the room above a threshold, 40 light it
/// below one; every fifth has an `until`, every seventh a `held for`.
fn room_rules(r: usize) -> impl Iterator<Item = Rule> {
    let thermo = SensorKey::new(DeviceId::new(format!("thermo-{r}")), "temperature");
    (0..ROOM_RULES).map(move |k| {
        let (op, threshold, device) = if k < 60 {
            (RelOp::Gt, 20 + (k % 10) as i64, format!("aircon-{r}"))
        } else {
            (RelOp::Lt, 34 - (k % 10) as i64, format!("light-{r}"))
        };
        let mut atom = Atom::Constraint(ConstraintAtom::new(
            thermo.clone(),
            op,
            Quantity::from_integer(threshold, Unit::Celsius),
        ));
        if k % 7 == 3 {
            atom = Atom::held_for(atom, SimDuration::from_minutes(3));
        }
        let mut builder = Rule::builder(PersonId::new("bench"))
            .condition(Condition::Atom(atom))
            .action(ActionSpec::new(DeviceId::new(device), Verb::TurnOn));
        if k % 5 == 0 {
            builder = builder.until(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                thermo.clone(),
                RelOp::Lt,
                Quantity::from_integer(18, Unit::Celsius),
            ))));
        }
        builder
            .build(RuleId::new((r * ROOM_RULES + k) as u64 + 1))
            .unwrap()
    })
}

/// Opens a durable S3 home at `dir` with its rule base inserted and
/// compacted into the snapshot, so the log holds only what follows.
fn checkpoint_home(dir: &Path, rooms: usize) -> (HomeServer, Vec<Arc<EnvironmentSensor>>) {
    let (control, topology, thermometers) = checkpoint_world(rooms);
    let (mut server, _) = HomeServer::open_at(control, topology, dir).unwrap();
    for r in 0..rooms {
        for rule in room_rules(r) {
            server.engine_mut().add_rule(rule).unwrap();
        }
    }
    server.checkpoint().unwrap();
    (server, thermometers)
}

/// Moves every room's temperature and steps once at minute `minute`.
fn stir(server: &mut HomeServer, thermometers: &[Arc<EnvironmentSensor>], minute: u64) {
    let at = SimTime::EPOCH + SimDuration::from_minutes(minute);
    for (r, thermometer) in thermometers.iter().enumerate() {
        let reading = 14 + ((r as u64 * 7 + minute * 3) % 24) as i64;
        thermometer
            .set_reading(Rational::from_integer(reading), at)
            .unwrap();
    }
    server.step(at);
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).unwrap().len()
}

fn s3(smoke: bool) {
    let rooms = if smoke { 10 } else { 100 };
    let rules = rooms * ROOM_RULES;
    section(&format!(
        "s3_runtime_checkpoint ({rules}-rule home, every rule with an edge state)"
    ));

    let dir = temp_dir("checkpoint");
    let (mut server, thermometers) = checkpoint_home(&dir, rooms);
    for minute in 1..=4 {
        stir(&mut server, &thermometers, minute);
    }
    // Version 1 documents hold the edge state in one `last_state` list;
    // counting it too keeps the bench comparable against such a build.
    let doc = server.engine().export_runtime_json();
    let edges: usize = ["last_true", "last_false", "last_state"]
        .iter()
        .filter_map(|key| doc.get(key).and_then(Json::as_arr))
        .map(<[Json]>::len)
        .sum();
    assert_eq!(edges, rules, "every rule has an edge state");

    let before = wal_bytes(&dir);
    server.checkpoint_runtime().unwrap();
    let record_bytes = wal_bytes(&dir) - before;
    let checkpoint = run("checkpoint_runtime/export+append", || {
        server.checkpoint_runtime().unwrap();
    });
    println!(
        "{:<58} {:>10} B/record {:>12.1} MB/s",
        "checkpoint_runtime/record",
        record_bytes,
        record_bytes as f64 / checkpoint.median_ns() * 1e9 / 1e6
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);

    // A log of RUNTIME_RECORDS checkpoints, each after a step, behind
    // the snapshot of the rule base.
    let dir = temp_dir("checkpoint-replay");
    let (mut server, thermometers) = checkpoint_home(&dir, rooms);
    let open = |dir: &Path| {
        let (control, topology, _) = checkpoint_world(rooms);
        let (server, report) = HomeServer::open_at(control, topology, dir).unwrap();
        assert!(report.snapshot_used);
        black_box(server.engine().rules().len());
        report.records_replayed
    };
    let snapshot_only = run("recovery/snapshot_only", || open(black_box(&dir)));
    for minute in 1..=RUNTIME_RECORDS {
        stir(&mut server, &thermometers, minute);
        server.checkpoint_runtime().unwrap();
    }
    server.sync().unwrap();
    drop(server);
    let scan = run("recovery/store_scan_only (64 runtime records)", || {
        let (_store, recovered) = Store::open(black_box(&dir)).unwrap();
        black_box(recovered.records.len())
    });
    let full = run("recovery/full_server_open_at (64 runtime records)", || {
        assert_eq!(open(black_box(&dir)), RUNTIME_RECORDS);
    });
    let per_record_ns = (full.median_ns() - snapshot_only.median_ns()) / RUNTIME_RECORDS as f64;
    println!(
        "{:<58} {:>10.2} ms/recovery {:>9.2} ms/runtime record",
        "recovery/full_server_open_at/total",
        full.median_ns() / 1e6,
        per_record_ns / 1e6
    );
    let _ = std::fs::remove_dir_all(&dir);

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let result = Json::obj(vec![
        ("bench", Json::str("s3_runtime_checkpoint")),
        ("rules", Json::Int(rules as i64)),
        ("cores", Json::Int(cores as i64)),
        (
            "checkpoint_ns_p50",
            Json::Int(checkpoint.median_ns() as i64),
        ),
        ("record_bytes", Json::Int(record_bytes as i64)),
        ("records", Json::Int(RUNTIME_RECORDS as i64)),
        ("scan_ns_p50", Json::Int(scan.median_ns() as i64)),
        ("recover_ns_p50", Json::Int(full.median_ns() as i64)),
        (
            "snapshot_only_ns_p50",
            Json::Int(snapshot_only.median_ns() as i64),
        ),
    ]);
    println!("{}", result.to_compact());
}

fn main() {
    let smoke = std::env::var("CADEL_BENCH_SMOKE").is_ok();
    section("s1_wal_append (rule_registered record: frame + crc32 + compact json)");
    {
        let dir = temp_dir("append");
        let (mut store, _) = Store::open(&dir).unwrap();
        let doc = record(0);
        let bytes = doc.to_compact().len() + 8;
        let m = run("wal_append/buffered", || {
            store.append(black_box(&doc)).unwrap();
        });
        let per_append = m.median_ns();
        println!(
            "{:<58} {:>10} B/record {:>12.1} MB/s",
            "wal_append/buffered/throughput",
            bytes,
            bytes as f64 / per_append * 1e9 / 1e6
        );

        let dir = temp_dir("append-sync");
        let (mut store, _) = Store::open(&dir).unwrap();
        store.set_sync_on_append(true);
        run("wal_append/fdatasync-each", || {
            store.append(black_box(&doc)).unwrap();
        });
    }

    section("s2_recovery_replay (1,000-rule log)");
    {
        let dir = temp_dir("replay");
        build_replay_log(&dir);

        run("recovery/store_scan_only", || {
            let (_store, recovered) = Store::open(black_box(&dir)).unwrap();
            black_box(recovered.records.len())
        });

        let m = run("recovery/full_server_open_at", || {
            let (control, topology) = fresh_world();
            let (server, report) = HomeServer::open_at(control, topology, black_box(&dir)).unwrap();
            assert_eq!(report.records_replayed, REPLAY_RULES + 1);
            black_box(server.engine().rules().len())
        });
        println!(
            "{:<58} {:>10.2} ms/recovery {:>9.1} rules/ms",
            "recovery/full_server_open_at/total",
            m.median_ns() / 1e6,
            REPLAY_RULES as f64 / (m.median_ns() / 1e6)
        );
    }

    s3(smoke);
}
