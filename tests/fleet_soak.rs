//! Fleet soak: a large tenant population with faults injected into a
//! small subset, proving the supervision contract end to end.
//!
//! Two runs share identical per-tenant traffic (each tenant's sensor
//! walk is keyed by its own index, independent of everything else):
//!
//! * a **reference** run with no faults anywhere;
//! * a **chaos** run where ≤5 % of tenants are faulted — some panic
//!   (a rule-evaluation hook detonates mid-step), some hit simulated
//!   `ENOSPC` (WAL appends start failing mid-soak), and some get a
//!   flaky air conditioner (actuator faults that flow into the
//!   engine's retry/dead-letter resilience, *not* the supervisor).
//!
//! The assertions are the tentpole's acceptance criteria:
//!
//! 1. **Zero cross-tenant divergence** — every *unaffected* tenant's
//!    per-wave step reports and final snapshot are byte-identical
//!    between the two runs. Panic isolation, quarantine, and shedding
//!    in one tenant must be invisible to its neighbours.
//! 2. **Every quarantined tenant restarted from its WAL** — panicking
//!    and `ENOSPC` tenants end the soak healthy with `restarts ≥ 1`,
//!    and a fresh recovery from each one's WAL segment reproduces the
//!    live server's state (sensor echoes excluded: they are re-learned
//!    from live readings, not persisted).
//! 3. Device-faulted tenants are *not* quarantined: actuator failures
//!    are the engine resilience layer's job.
//!
//! Scale is tunable for CI smoke via `CADEL_SOAK_TENANTS` /
//! `CADEL_SOAK_TICKS` (defaults: 1000 tenants, 20 ticks).

use cadel::fleet::{Fleet, FleetConfig, StepStatus, TenantState};
use cadel::server::HomeServer;
use cadel::sim::{tenant_name, unit_tenant_builder, FleetTraffic};
use cadel::types::json::Json;
use cadel::types::{SimDuration, SimTime};
use cadel::upnp::FaultPlan;
use std::path::PathBuf;

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

fn soak_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn env_scale(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

/// Which fault (if any) a tenant index gets in the chaos run. Spread
/// deterministically so faulted tenants sit between healthy neighbours.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Panic,
    Enospc,
    Device,
}

fn fault_of(index: usize) -> Fault {
    match index % 101 {
        5 => Fault::Panic,
        17 => Fault::Enospc,
        29 => Fault::Device,
        _ => Fault::None,
    }
}

const TRAFFIC_SEED: u64 = 20250809;
const ENOSPC_ARM_TICK: u64 = 8;
/// Runtime-checkpoint cadence. A step appends nothing but its tenant's
/// checkpoint, so an armed `ENOSPC` tenant fails an append within this
/// many steps, whatever its checkpoint phase.
const CHECKPOINT_EVERY: u64 = 4;

struct RunResult {
    fleet: Fleet,
    /// Per tenant: one line per wave it stepped in (tick, status tag,
    /// rendered step report).
    logs: Vec<Vec<String>>,
}

fn run_fleet(root: &PathBuf, tenants: usize, ticks: u64, chaos: bool) -> RunResult {
    let mut fleet = Fleet::new(
        root,
        FleetConfig {
            workers: 8,
            checkpoint_every: CHECKPOINT_EVERY,
            ..FleetConfig::default()
        },
    );
    let plain = unit_tenant_builder(None);
    for i in 0..tenants {
        let builder = if chaos && fault_of(i) == Fault::Device {
            unit_tenant_builder(Some(FaultPlan::random_transient(
                9000 + i as u64,
                SimTime::EPOCH,
                mins(ticks),
                SimDuration::from_minutes(2),
                400,
            )))
        } else {
            plain.clone()
        };
        fleet.add_tenant_arc(tenant_name(i), builder).unwrap();
    }
    if chaos {
        // Arm the panic hooks: the first rule verdict in the first wave
        // detonates. The hook dies with the quarantined engine and is
        // not re-armed by the rebuild, so each tenant panics once.
        for i in (0..tenants).filter(|&i| fault_of(i) == Fault::Panic) {
            fleet
                .server_mut_of(&tenant_name(i))
                .unwrap()
                .engine_mut()
                .set_eval_hook(Some(Box::new(|rule, _| {
                    panic!("soak chaos: rule {rule:?} evaluation detonated")
                })));
        }
    }

    let mut traffic = FleetTraffic::new(tenants, TRAFFIC_SEED);
    let mut logs: Vec<Vec<String>> = vec![Vec::new(); tenants];
    for tick in 0..ticks {
        let at = mins(tick);
        if chaos && tick == ENOSPC_ARM_TICK {
            for i in (0..tenants).filter(|&i| fault_of(i) == Fault::Enospc) {
                // The tenant is healthy here (no earlier fault), so the
                // server handle exists.
                fleet
                    .server_mut_of(&tenant_name(i))
                    .unwrap()
                    .inject_append_faults(true);
            }
        }
        for (i, batch) in traffic.tick(at).into_iter().enumerate() {
            for ingress in batch {
                fleet.offer_at(i, ingress).unwrap();
            }
        }
        let wave = fleet.step_ready(at);
        for outcome in &wave.outcomes {
            let tag = match &outcome.status {
                StepStatus::Ok => "ok",
                StepStatus::Panicked(_) => "panicked",
                StepStatus::Overrun { .. } => "overrun",
                StepStatus::StoreFault(_) => "store-fault",
            };
            let report = outcome
                .report
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_owned());
            logs[outcome.index].push(format!("{tick} {tag} {report}"));
        }
    }
    let failures = fleet.checkpoint_all();
    assert!(
        failures.is_empty(),
        "end-of-soak checkpoint failed: {failures:?}"
    );
    RunResult { fleet, logs }
}

#[test]
fn faulted_fleet_soak_isolates_tenants_and_restarts_from_wal() {
    let tenants = env_scale("CADEL_SOAK_TENANTS", 1000);
    let ticks = env_scale("CADEL_SOAK_TICKS", 20) as u64;
    let faulted: Vec<usize> = (0..tenants)
        .filter(|&i| fault_of(i) != Fault::None)
        .collect();
    assert!(
        faulted.len() * 20 <= tenants || tenants < 101,
        "fault ratio exceeds 5%"
    );

    let ref_root = soak_root("reference");
    let chaos_root = soak_root("chaos");
    let reference = run_fleet(&ref_root, tenants, ticks, false);
    let chaos = run_fleet(&chaos_root, tenants, ticks, true);

    // Sanity: chaos actually happened.
    let health = chaos.fleet.health();
    if tenants > 101 {
        assert!(health.panics > 0, "no panic was injected");
        assert!(health.store_faults > 0, "no store fault was injected");
        assert!(health.restarts > 0, "nothing restarted");
    }

    // (1) Zero cross-tenant divergence: unaffected tenants are
    // byte-identical to the fault-free reference, wave by wave and in
    // their final snapshot (sensor echoes included — traffic is
    // identical).
    for i in (0..tenants).filter(|&i| fault_of(i) == Fault::None) {
        assert_eq!(
            reference.logs[i], chaos.logs[i],
            "tenant {i} diverged from the no-fault reference"
        );
        let name = tenant_name(i);
        assert_eq!(
            reference
                .fleet
                .server_of(&name)
                .unwrap()
                .snapshot_json()
                .to_pretty(),
            chaos
                .fleet
                .server_of(&name)
                .unwrap()
                .snapshot_json()
                .to_pretty(),
            "tenant {i} final state diverged from the no-fault reference"
        );
    }

    // (2) Every quarantined tenant came back healthy via a WAL restart,
    // and its WAL segment alone reproduces its live state.
    let rebuild = unit_tenant_builder(None);
    for &i in &faulted {
        let name = tenant_name(i);
        let state = chaos.fleet.state_of(&name).unwrap();
        assert_eq!(state, TenantState::Healthy, "tenant {i} ended unhealthy");
        match fault_of(i) {
            Fault::Panic | Fault::Enospc => {
                assert!(
                    chaos.fleet.restarts_of(&name).unwrap() >= 1,
                    "quarantined tenant {i} never restarted from its WAL"
                );
                let recovery = chaos.fleet.last_recovery_of(&name).unwrap();
                assert!(
                    recovery.records_replayed > 0 || recovery.snapshot_used,
                    "tenant {i} restarted without reading its WAL"
                );
                if fault_of(i) == Fault::Enospc && ticks >= ENOSPC_ARM_TICK + CHECKPOINT_EVERY {
                    let faulted_at = chaos.logs[i]
                        .iter()
                        .find(|line| line.contains(" store-fault "))
                        .and_then(|line| line.split(' ').next()?.parse::<u64>().ok());
                    assert!(
                        faulted_at.is_some_and(|t| t < ENOSPC_ARM_TICK + CHECKPOINT_EVERY),
                        "ENOSPC tenant {i} first failed an append at tick {faulted_at:?}"
                    );
                }
            }
            // (3) Actuator faults are the engine resilience layer's
            // problem; the supervisor must not quarantine for them.
            Fault::Device => {
                assert_eq!(
                    chaos.fleet.restarts_of(&name),
                    Some(0),
                    "device-faulted tenant {i} was wrongly quarantined"
                );
            }
            Fault::None => unreachable!(),
        }
        let live = fingerprint_sans_sensors(chaos.fleet.server_of(&name).unwrap());
        let dir = chaos.fleet.dir_of(&name).unwrap();
        let recovered = rebuild(&dir).unwrap();
        assert_eq!(
            fingerprint_sans_sensors(&recovered.server),
            live,
            "tenant {i}: WAL segment does not reproduce live state"
        );
    }

    // All tenants ended healthy; quarantines were transient.
    assert_eq!(chaos.fleet.health().healthy, tenants);

    // The noisy-neighbour rollup blames a faulted tenant, not a healthy
    // one, for the disruption weighting.
    if tenants > 101 {
        let panicky = chaos.fleet.rollup().load(&tenant_name(5));
        assert!(panicky.panics >= 1);
        drop(reference);
        let _ = chaos.fleet.render_noisy(5);
    }

    drop(chaos);
    let _ = std::fs::remove_dir_all(&ref_root);
    let _ = std::fs::remove_dir_all(&chaos_root);
}
