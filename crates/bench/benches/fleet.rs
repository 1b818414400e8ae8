//! FL-series: the supervised multi-tenant fleet runtime.
//!
//! * **FL1** — wave throughput: one `step_ready` wave over a fleet of
//!   unit tenants (each a full durable `HomeServer` with three rules and
//!   its own WAL segment), swept across worker counts. Each wave
//!   delivers every tenant's sensor batch, steps every tenant, and has
//!   the worker that stepped a tenant sync its WAL, which issues an
//!   fdatasync only for the WALs the wave appended to. After the timed
//!   sections, one counted wave asserts that: its fdatasyncs equal its
//!   WAL appends (the tenants whose phased runtime checkpoint fell on
//!   it), fewer than the tenants stepped.
//! * **FL2** — supervision overhead under chaos: the same wave with a
//!   slice of tenants whose rule-evaluation hook panics every time it is
//!   re-armed, so each iteration pays catch_unwind quarantine plus a
//!   WAL restart for the faulted slice. The healthy-slice cost versus
//!   FL1 is the isolation overhead; the end-of-run health counters and
//!   noisy-neighbour rollup are printed for `EXPERIMENTS.md`.
//!
//! `CADEL_BENCH_SMOKE=1` shrinks the fleets to CI-smoke size.

use cadel::fleet::{Fleet, FleetConfig};
use cadel::sim::{tenant_name, unit_tenant_builder, FleetTraffic};
use cadel::types::{SimDuration, SimTime};
use cadel_bench::timing::{run, section};
use std::hint::black_box;
use std::path::PathBuf;

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

fn bench_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-bench-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_fleet(root: &PathBuf, tenants: usize, workers: usize) -> Fleet {
    let mut fleet = Fleet::new(
        root,
        FleetConfig {
            workers,
            checkpoint_every: 16,
            ..FleetConfig::default()
        },
    );
    let builder = unit_tenant_builder(None);
    for i in 0..tenants {
        fleet
            .add_tenant_arc(tenant_name(i), builder.clone())
            .expect("fresh fleet");
    }
    fleet
}

/// One full wave: deliver every tenant's batch, step and sync.
fn wave(fleet: &mut Fleet, traffic: &mut FleetTraffic, tick: u64) -> usize {
    let at = mins(tick);
    for (i, batch) in traffic.tick(at).into_iter().enumerate() {
        for ingress in batch {
            let _ = fleet.offer_at(i, ingress);
        }
    }
    fleet.step_ready(at).stepped()
}

fn main() {
    let smoke = std::env::var("CADEL_BENCH_SMOKE").is_ok();
    let tenants: usize = if smoke { 24 } else { 192 };
    let worker_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };

    section("fl1_wave_throughput (tenants stepped + synced per wave)");
    for &workers in worker_counts {
        let root = bench_root(&format!("fl1-w{workers}"));
        let mut fleet = build_fleet(&root, tenants, workers);
        let mut traffic = FleetTraffic::new(tenants, 7);
        let mut tick = 0u64;
        run(
            &format!("fl1_wave/workers-{workers}/{tenants}-tenants"),
            || {
                tick += 1;
                black_box(wave(&mut fleet, &mut traffic, tick))
            },
        );
        assert_eq!(fleet.health().healthy, tenants, "FL1 must stay fault-free");
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }

    // FL2: every 12th tenant detonates whenever its hook is re-armed, so
    // each iteration quarantines and WAL-restarts that slice while the
    // rest of the fleet proceeds.
    section("fl2_chaos_wave (panic + quarantine + WAL restart per wave)");
    // The injected panics are caught by the supervisor; keep the default
    // hook from spraying backtraces over the measurements.
    std::panic::set_hook(Box::new(|_| {}));
    let workers = if smoke { 4 } else { 8 };
    for fault_every in [0usize, 12] {
        let root = bench_root(&format!("fl2-f{fault_every}"));
        let mut fleet = build_fleet(&root, tenants, workers);
        let mut traffic = FleetTraffic::new(tenants, 7);
        let mut tick = 0u64;
        let label = if fault_every == 0 {
            format!("fl2_wave/no-faults/{tenants}-tenants")
        } else {
            format!("fl2_wave/1-in-{fault_every}-panicking/{tenants}-tenants")
        };
        run(&label, || {
            if fault_every != 0 {
                for i in (0..tenants).step_by(fault_every) {
                    // Healthy again after last wave's restart: re-arm.
                    if let Some(server) = fleet.server_mut_of(&tenant_name(i)) {
                        server
                            .engine_mut()
                            .set_eval_hook(Some(Box::new(|_, _| panic!("fl2 chaos"))));
                    }
                }
            }
            tick += 1;
            black_box(wave(&mut fleet, &mut traffic, tick))
        });
        let health = fleet.health();
        println!(
            "  fl2 health: healthy={} quarantined={} panics={} restarts={} shed={}",
            health.healthy, health.quarantined, health.panics, health.restarts, health.shed
        );
        if fault_every != 0 {
            assert!(health.panics > 0, "FL2 chaos slice never panicked");
            assert!(health.restarts > 0, "FL2 never restarted a tenant");
            println!("  noisiest tenants:");
            for line in fleet.render_noisy(3).lines() {
                println!("    {line}");
            }
        }
        drop(fleet);
        let _ = std::fs::remove_dir_all(&root);
    }
    let _ = std::panic::take_hook();

    section("fl1_counted_wave (WAL appends and fdatasyncs in one wave)");
    let root = bench_root("fl1-counted");
    let mut fleet = build_fleet(&root, tenants, 4);
    let mut traffic = FleetTraffic::new(tenants, 7);
    // The first wave syncs what building the tenants logged.
    wave(&mut fleet, &mut traffic, 1);
    cadel::obs::enable_metrics_only();
    let counter = |name| cadel::obs::metrics_snapshot().counter(name).unwrap_or(0);
    let (appends, syncs) = (
        counter("store_wal_appends_total"),
        counter("store_syncs_total"),
    );
    let stepped = wave(&mut fleet, &mut traffic, 2);
    let appends = counter("store_wal_appends_total") - appends;
    let syncs = counter("store_syncs_total") - syncs;
    cadel::obs::shutdown();
    println!(
        "  fl1 counted wave: {stepped} tenants stepped, {appends} WAL appends, {syncs} fdatasyncs"
    );
    assert_eq!(stepped, tenants, "every tenant has readings every wave");
    assert_eq!(
        syncs, appends,
        "a wave syncs exactly the WALs it appended to"
    );
    assert!(
        syncs > 0 && syncs < tenants as u64,
        "phased checkpoints: {syncs} syncs for {tenants} tenants"
    );
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}
