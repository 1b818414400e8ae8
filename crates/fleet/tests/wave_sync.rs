//! Wave durability costs what was written. Eight unit tenants step in
//! lockstep with a runtime checkpoint every four steps. The checkpoint
//! is phased by fleet index, so every wave appends exactly two runtime
//! records, and the workers issue exactly two fdatasyncs: a WAL with
//! nothing new is synced without a system call. After each wave every
//! stepped tenant's store is on stable storage. A tenant quarantined
//! with records its wave never synced gets them synced by its restart.
//!
//! This is its own test binary because it switches on the process-global
//! metrics registry and reads counter deltas, which a test running beside
//! it in the same process would disturb. Its own tests take turns.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cadel_fleet::{Fleet, FleetConfig, StepStatus, TenantState};
use cadel_sim::{tenant_name, unit_tenant_builder, FleetTraffic};
use cadel_types::{SimDuration, SimTime};

const TENANTS: usize = 8;
const CHECKPOINT_EVERY: u64 = 4;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn counter(name: &str) -> u64 {
    cadel_obs::metrics_snapshot().counter(name).unwrap_or(0)
}

fn fleet_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("cadel-wave-sync-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn each_lockstep_wave_appends_and_syncs_only_the_phased_checkpoints() {
    let _serial = serial();
    cadel_obs::enable_metrics_only();
    let root = fleet_root("lockstep");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            ..FleetConfig::default()
        },
    );
    let builder = unit_tenant_builder(None);
    for i in 0..TENANTS {
        fleet
            .add_tenant_arc(tenant_name(i), builder.clone())
            .unwrap();
    }
    // Building a tenant logs its user and rules. Flush them, so that
    // every wave below starts from clean segments.
    assert!(fleet.checkpoint_all().is_empty());

    let mut traffic = FleetTraffic::new(TENANTS, 25);
    let per_wave = TENANTS as u64 / CHECKPOINT_EVERY;
    for tick in 0..3 * CHECKPOINT_EVERY {
        let at = SimTime::EPOCH + SimDuration::from_minutes(tick);
        for (i, batch) in traffic.tick(at).into_iter().enumerate() {
            assert!(!batch.is_empty(), "every tenant steps every wave");
            for ingress in batch {
                fleet.offer_at(i, ingress).unwrap();
            }
        }
        let appends = counter("store_wal_appends_total");
        let syncs = counter("store_syncs_total");
        let skipped = counter("store_syncs_skipped_total");
        let wave = fleet.step_ready(at);
        assert_eq!(wave.stepped(), TENANTS, "tick {tick}");
        assert_eq!(wave.faults(), 0, "tick {tick}");
        for outcome in &wave.outcomes {
            let store = fleet.server_of(&outcome.tenant).unwrap().store().unwrap();
            assert!(
                store.is_synced(),
                "tick {tick}: {} unsynced",
                outcome.tenant
            );
        }
        assert_eq!(
            counter("store_wal_appends_total") - appends,
            per_wave,
            "tick {tick}: runtime records appended"
        );
        assert_eq!(
            counter("store_syncs_total") - syncs,
            per_wave,
            "tick {tick}: fdatasyncs issued"
        );
        assert_eq!(
            counter("store_syncs_skipped_total") - skipped,
            TENANTS as u64 - per_wave,
            "tick {tick}: clean syncs skipped"
        );
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_restart_syncs_what_the_quarantined_handle_left_unsynced() {
    let _serial = serial();
    cadel_obs::enable_metrics_only();
    let root = fleet_root("restart");
    // No runtime checkpoints, so a step appends nothing.
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            checkpoint_every: 0,
            ..FleetConfig::default()
        },
    );
    let name = tenant_name(0);
    fleet
        .add_tenant_arc(name.clone(), unit_tenant_builder(None))
        .unwrap();
    let mut traffic = FleetTraffic::new(1, 7);
    let mut offer_tick = |fleet: &mut Fleet, minute: u64| {
        let at = SimTime::EPOCH + SimDuration::from_minutes(minute);
        for ingress in traffic.tick(at).remove(0) {
            fleet.offer_at(0, ingress).unwrap();
        }
        at
    };

    // Building logged the tenant's user and rules. The wave's sync of
    // them fails, and the quarantine drops the handle with them unsynced.
    fleet.server_mut_of(&name).unwrap().inject_sync_faults(true);
    let at = offer_tick(&mut fleet, 1);
    let wave = fleet.step_ready(at);
    assert!(
        matches!(wave.outcomes[0].status, StepStatus::StoreFault(_)),
        "{:?}",
        wave.outcomes[0].status
    );
    assert_eq!(fleet.state_of(&name), Some(TenantState::Quarantined));

    // The restart reopens the segment (the builder logs nothing over a
    // replayed WAL) and the tenant steps without appending; the one
    // fdatasync of the wave is the reopen's, which flushes the records
    // the dropped handle left behind.
    let at = offer_tick(&mut fleet, 2);
    let appends = counter("store_wal_appends_total");
    let syncs = counter("store_syncs_total");
    let wave = fleet.step_ready(at);
    assert_eq!(wave.restarted, 1);
    assert!(wave.outcomes[0].status.is_ok());
    assert_eq!(counter("store_wal_appends_total") - appends, 0);
    assert_eq!(
        counter("store_syncs_total") - syncs,
        1,
        "the reopen syncs the records the quarantined handle never synced"
    );
    assert!(fleet.server_of(&name).unwrap().store().unwrap().is_synced());

    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}
