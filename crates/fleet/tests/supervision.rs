//! Supervision-contract tests for the fleet runtime: admission control
//! and shedding, panic isolation with WAL restart, read-only store
//! faults, the post-hoc watchdog, strike budgets, and worker-count
//! determinism. Each tenant is a full durable [`HomeServer`] over the
//! living-room device fleet with one real registered rule, so quarantine
//! restarts exercise genuine WAL recovery, not mocks.

use cadel_devices::{EnvironmentSensor, LivingRoomHome};
use cadel_fleet::{
    Admission, Fleet, FleetConfig, FleetError, Ingress, StepStatus, TenantParts, TenantState,
    TenantWorld,
};
use cadel_rule::{ActionSpec, Atom, Condition, ConstraintAtom, Rule, Verb};
use cadel_server::HomeServer;
use cadel_simplex::RelOp;
use cadel_types::{
    DeviceId, PersonId, Quantity, RuleId, SensorKey, SimDuration, SimTime, Topology, Unit, Value,
};
use cadel_upnp::{ControlPoint, Registry};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_minutes(m)
}

fn fleet_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cadel-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A minimal tenant world: temperature readings land on the living-room
/// thermometer; everything else is dropped.
struct LrWorld {
    thermometer: Arc<EnvironmentSensor>,
}

impl TenantWorld for LrWorld {
    fn deliver(&mut self, ingress: &Ingress) {
        if ingress.variable == "temperature" {
            if let Value::Number(q) = &ingress.value {
                let _ = self.thermometer.set_reading(q.value(), ingress.at);
            }
        }
    }
}

/// Builds one living-room tenant with a WAL-registered rule: temperature
/// above 28 °C turns the air conditioner on. Fresh directories are
/// seeded; restarts recover user and rule from the WAL alone.
fn lr_tenant(dir: &Path) -> Result<TenantParts, cadel_server::ServerError> {
    let registry = Registry::new();
    let home = LivingRoomHome::install(&registry);
    let mut topology = Topology::new("home");
    topology.add_floor("first floor").unwrap();
    topology.add_room("living room", "first floor").unwrap();
    topology.add_room("hall", "first floor").unwrap();
    let (mut server, report) = HomeServer::open_at(ControlPoint::new(registry), topology, dir)?;
    if report.records_replayed == 0 && !report.snapshot_used {
        server.add_user("Tom")?;
        let rule = Rule::builder(PersonId::new("tom"))
            .condition(Condition::Atom(Atom::Constraint(ConstraintAtom::new(
                SensorKey::new(DeviceId::new("thermo-lr"), "temperature"),
                RelOp::Gt,
                Quantity::from_integer(28, Unit::Celsius),
            ))))
            .action(ActionSpec::new(DeviceId::new("aircon-lr"), Verb::TurnOn))
            .build(RuleId::new(1))
            .expect("rule builds");
        server.register_rule(rule)?;
    }
    Ok(TenantParts {
        server,
        report,
        world: Box::new(LrWorld {
            thermometer: home.thermometer.clone(),
        }),
    })
}

fn temp_reading(celsius: i64, at: SimTime) -> Ingress {
    Ingress {
        device: DeviceId::new("thermo-lr"),
        variable: "temperature".to_owned(),
        value: Value::Number(Quantity::from_integer(celsius, Unit::Celsius)),
        at,
    }
}

fn arrival(person: &str, at: SimTime) -> Ingress {
    Ingress {
        device: DeviceId::new("rfid-hall"),
        variable: "arrival".to_owned(),
        value: Value::Text(person.to_owned()),
        at,
    }
}

#[test]
fn admission_coalesces_readings_and_sheds_by_policy() {
    let root = fleet_root("admission");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            inbox_capacity: 2,
            ..FleetConfig::default()
        },
    );
    fleet.add_tenant("t0", lr_tenant).unwrap();

    // A newer reading of the same device variable replaces in place.
    assert_eq!(
        fleet.offer("t0", temp_reading(25, mins(1))).unwrap(),
        Admission::Enqueued
    );
    assert_eq!(
        fleet.offer("t0", temp_reading(26, mins(2))).unwrap(),
        Admission::Coalesced
    );
    assert_eq!(fleet.inbox_len_of("t0"), Some(1));

    // Event-bearing entries never coalesce.
    assert_eq!(
        fleet.offer("t0", arrival("tom", mins(3))).unwrap(),
        Admission::Enqueued
    );
    assert_eq!(fleet.inbox_len_of("t0"), Some(2));

    // Full inbox: the oldest coalescible entry (the reading) is shed to
    // admit the new event.
    assert_eq!(
        fleet.offer("t0", arrival("alan", mins(4))).unwrap(),
        Admission::AdmittedAfterShed
    );
    assert_eq!(fleet.inbox_len_of("t0"), Some(2));

    // Nothing coalescible left: the new entry is rejected.
    assert_eq!(
        fleet.offer("t0", arrival("bob", mins(5))),
        Err(FleetError::InboxFull {
            tenant: "t0".to_owned()
        })
    );
    assert_eq!(fleet.health().shed, 2);

    assert_eq!(
        fleet.offer("missing", temp_reading(20, mins(6))),
        Err(FleetError::UnknownTenant("missing".to_owned()))
    );

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn panicking_tenant_is_quarantined_and_restarts_from_its_wal() {
    let root = fleet_root("panic");
    let mut fleet = Fleet::new(&root, FleetConfig::default());
    fleet.add_tenant("t0", lr_tenant).unwrap();

    // Arm a rule-evaluation hook that panics once the hot reading lands.
    fleet
        .server_mut_of("t0")
        .unwrap()
        .engine_mut()
        .set_eval_hook(Some(Box::new(|_, _| panic!("chaos monkey"))));

    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    let wave = fleet.step_ready(mins(1));
    assert_eq!(wave.stepped(), 1);
    assert_eq!(wave.faults(), 1);
    let outcome = &wave.outcomes[0];
    assert!(
        matches!(&outcome.status, StepStatus::Panicked(msg) if msg.contains("chaos monkey")),
        "unexpected status: {:?}",
        outcome.status
    );
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    assert!(fleet.server_of("t0").is_none(), "poisoned state discarded");
    assert_eq!(
        fleet.last_fault_of("t0").as_deref(),
        Some("panic: chaos monkey")
    );
    // The drained batch was requeued, not lost.
    assert_eq!(fleet.inbox_len_of("t0"), Some(1));
    assert_eq!(fleet.health().panics, 1);
    assert_eq!(fleet.rollup().load("t0").panics, 1);

    // Next wave: supervisor restarts the tenant from its WAL (user and
    // rule recovered; the panic hook is gone with the old engine), then
    // replays the requeued reading — the rule finally fires.
    let wave = fleet.step_ready(mins(2));
    assert_eq!(wave.restarted, 1);
    assert_eq!(wave.stepped(), 1);
    assert!(wave.outcomes[0].status.is_ok());
    let report = wave.outcomes[0].report.as_ref().unwrap();
    assert_eq!(report.dispatched().len(), 1, "recovered rule fires");
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Healthy));
    assert_eq!(fleet.restarts_of("t0"), Some(1));
    let recovery = fleet.last_recovery_of("t0").unwrap();
    assert!(recovery.records_replayed > 0 || recovery.snapshot_used);
    assert!(!recovery.is_lossy());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn append_faults_quarantine_the_tenant_and_restart_clears_read_only() {
    let root = fleet_root("enospc");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            checkpoint_every: 1,
            ..FleetConfig::default()
        },
    );
    fleet.add_tenant("t0", lr_tenant).unwrap();

    // Simulated disk-full: every WAL append fails until restart.
    fleet
        .server_mut_of("t0")
        .unwrap()
        .inject_append_faults(true);
    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    let wave = fleet.step_ready(mins(1));
    assert!(
        matches!(wave.outcomes[0].status, StepStatus::StoreFault(_)),
        "unexpected status: {:?}",
        wave.outcomes[0].status
    );
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    assert_eq!(fleet.health().store_faults, 1);

    // Restart rebuilds against a healthy store; the tenant steps again
    // and is writable.
    fleet.offer("t0", temp_reading(29, mins(2))).unwrap();
    let wave = fleet.step_ready(mins(2));
    assert_eq!(wave.restarted, 1);
    assert!(wave.outcomes[0].status.is_ok());
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Healthy));
    assert!(!fleet.server_of("t0").unwrap().is_read_only());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_failed_wave_sync_quarantines_only_that_tenant() {
    let root = fleet_root("sync-fault");
    let mut fleet = Fleet::new(&root, FleetConfig::default());
    fleet.add_tenant("t0", lr_tenant).unwrap();
    fleet.add_tenant("t1", lr_tenant).unwrap();

    // Building logged each tenant's user and rule, so the first wave
    // syncs both WALs; t0's fdatasync fails.
    fleet.server_mut_of("t0").unwrap().inject_sync_faults(true);
    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    fleet.offer("t1", temp_reading(30, mins(1))).unwrap();
    let wave = fleet.step_ready(mins(1));
    match &wave.outcomes[0].status {
        StepStatus::StoreFault(fault) => {
            assert!(fault.starts_with("wave sync failed: "), "{fault}")
        }
        other => panic!("unexpected status: {other:?}"),
    }
    assert!(
        wave.outcomes[0].report.is_some(),
        "the step ran; its report stands"
    );
    assert!(wave.outcomes[1].status.is_ok());
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    assert_eq!(fleet.state_of("t1"), Some(TenantState::Healthy));
    assert_eq!(
        fleet.inbox_len_of("t0"),
        Some(0),
        "the batch is not requeued"
    );
    assert!(fleet.server_of("t1").unwrap().store().unwrap().is_synced());
    let health = fleet.health();
    assert_eq!((health.store_faults, health.overruns), (1, 0));

    // The restart reopens a healthy store and the tenant steps again.
    fleet.offer("t0", temp_reading(29, mins(2))).unwrap();
    let wave = fleet.step_ready(mins(2));
    assert_eq!(wave.restarted, 1);
    assert!(wave.outcomes[0].status.is_ok());
    assert!(fleet.server_of("t0").unwrap().store().unwrap().is_synced());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn strike_budget_exhaustion_parks_the_tenant_until_revived() {
    let root = fleet_root("budget");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            panic_budget: 0,
            ..FleetConfig::default()
        },
    );
    fleet.add_tenant("t0", lr_tenant).unwrap();
    fleet
        .server_mut_of("t0")
        .unwrap()
        .engine_mut()
        .set_eval_hook(Some(Box::new(|_, _| panic!("hard down"))));
    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    fleet.step_ready(mins(1));
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    assert_eq!(fleet.strikes_of("t0"), Some(1));

    // Over budget: waves leave it parked.
    let wave = fleet.step_ready(mins(2));
    assert_eq!(wave.restarted, 0);
    assert_eq!(wave.stepped(), 0);
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));

    // An operator revive resets the budget; the next wave restarts it.
    fleet.revive("t0").unwrap();
    let wave = fleet.step_ready(mins(3));
    assert_eq!(wave.restarted, 1);
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Healthy));
    assert!(matches!(
        fleet.revive("missing"),
        Err(FleetError::UnknownTenant(_))
    ));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn zero_deadline_trips_the_post_hoc_watchdog() {
    let root = fleet_root("watchdog");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            step_deadline: Duration::ZERO,
            ..FleetConfig::default()
        },
    );
    fleet.add_tenant("t0", lr_tenant).unwrap();
    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    let wave = fleet.step_ready(mins(1));
    let outcome = &wave.outcomes[0];
    assert!(
        matches!(outcome.status, StepStatus::Overrun { .. }),
        "unexpected status: {:?}",
        outcome.status
    );
    // The watchdog is post-hoc: the step finished, so its report exists.
    assert!(outcome.report.is_some());
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    assert_eq!(fleet.health().overruns, 1);

    // Idle after restart (the overrun consumed the batch): the tenant is
    // restarted but not stepped.
    let wave = fleet.step_ready(mins(2));
    assert_eq!(wave.restarted, 1);
    assert_eq!(wave.stepped(), 0);
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Healthy));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn backpressure_signal_trips_at_the_watermark() {
    let root = fleet_root("backpressure");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            inbox_capacity: 4,
            backpressure_watermark: 0.5,
            ..FleetConfig::default()
        },
    );
    fleet.add_tenant("t0", lr_tenant).unwrap();
    fleet.add_tenant("t1", lr_tenant).unwrap();
    assert!(!fleet.overloaded());

    // Fill half of the fleet-wide capacity with non-coalescible events.
    for (i, tenant) in [(0, "t0"), (1, "t1"), (2, "t0"), (3, "t1")] {
        fleet
            .offer(tenant, arrival(&format!("guest-{i}"), mins(1)))
            .unwrap();
    }
    assert_eq!(fleet.backlog(), 4);
    assert!((fleet.backpressure() - 0.5).abs() < 1e-9);
    assert!(fleet.overloaded());

    // Draining the inboxes clears the signal.
    fleet.step_ready(mins(2));
    assert_eq!(fleet.backlog(), 0);
    assert!(!fleet.overloaded());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn waves_are_deterministic_across_worker_counts() {
    let run = |tag: &str, workers: usize| -> Vec<String> {
        let root = fleet_root(tag);
        let mut fleet = Fleet::new(
            &root,
            FleetConfig {
                workers,
                ..FleetConfig::default()
            },
        );
        for i in 0..8 {
            fleet.add_tenant(format!("t{i}"), lr_tenant).unwrap();
        }
        let mut lines = Vec::new();
        for tick in 0..6u64 {
            for i in 0..8 {
                // Alternate hot and cool readings per tenant and tick.
                let celsius = if (i + tick) % 2 == 0 { 30 } else { 20 };
                fleet
                    .offer(&format!("t{i}"), temp_reading(celsius as i64, mins(tick)))
                    .unwrap();
            }
            let wave = fleet.step_ready(mins(tick));
            for outcome in &wave.outcomes {
                let report = outcome.report.as_ref().unwrap();
                lines.push(format!("{} {} {report}", outcome.tenant, outcome.index));
            }
        }
        for i in 0..8 {
            let name = format!("t{i}");
            let snapshot = fleet.server_of(&name).unwrap().snapshot_json().to_pretty();
            lines.push(format!("{name} {snapshot}"));
        }
        let _ = std::fs::remove_dir_all(&root);
        lines
    };

    let serial = run("det-serial", 1);
    let parallel = run("det-parallel", 4);
    assert_eq!(serial, parallel);
    assert!(serial.iter().any(|l| l.contains("fired")) || serial.iter().any(|l| !l.is_empty()));
}

#[test]
fn duplicate_tenants_are_rejected_and_idle_tenants_cost_nothing() {
    let root = fleet_root("dup");
    let mut fleet = Fleet::new(&root, FleetConfig::default());
    fleet.add_tenant("t0", lr_tenant).unwrap();
    assert_eq!(
        fleet.add_tenant("t0", lr_tenant),
        Err(FleetError::DuplicateTenant("t0".to_owned()))
    );
    assert_eq!(fleet.len(), 1);
    assert_eq!(fleet.names(), vec!["t0"]);

    // Event-driven scheduling: an empty inbox means no step at all.
    let wave = fleet.step_ready(mins(1));
    assert_eq!(wave.stepped(), 0);
    assert_eq!(fleet.health().healthy, 1);

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drains_backlog_and_checkpoints() {
    let root = fleet_root("shutdown");
    let mut fleet = Fleet::new(&root, FleetConfig::default());
    fleet.add_tenant("t0", lr_tenant).unwrap();
    fleet.add_tenant("t1", lr_tenant).unwrap();
    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    fleet.offer("t1", temp_reading(30, mins(1))).unwrap();
    fleet.offer("t1", arrival("tom", mins(1))).unwrap();
    assert_eq!(fleet.backlog(), 3);

    let report = fleet.shutdown(Duration::from_secs(5), mins(1));
    assert!(report.is_clean(), "{report}");
    assert!(report.drained);
    assert_eq!(report.remaining_backlog, 0);
    assert!(report.waves >= 1);
    assert!(report.flush_failures.is_empty());
    assert_eq!(fleet.backlog(), 0);

    // The drain actually stepped the engines: the queued 30 °C reading
    // fired the cool rule before the checkpoint.
    let snapshot = fleet.server_of("t0").unwrap().snapshot_json().to_compact();
    assert!(snapshot.contains("aircon-lr"), "{snapshot}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_reports_per_tenant_flush_failures() {
    let root = fleet_root("shutdown-flush");
    let mut fleet = Fleet::new(&root, FleetConfig::default());
    fleet.add_tenant("t0", lr_tenant).unwrap();
    fleet.add_tenant("t1", lr_tenant).unwrap();

    // t0's disk "fills up" right before shutdown: its checkpoint
    // flush fails and must be reported, while t1 flushes cleanly.
    fleet
        .server_mut_of("t0")
        .unwrap()
        .inject_append_faults(true);
    let report = fleet.shutdown(Duration::from_secs(5), mins(1));
    assert!(!report.is_clean(), "{report}");
    assert!(report.drained, "an empty backlog still counts as drained");
    assert_eq!(report.flush_failures.len(), 1, "{report}");
    assert_eq!(report.flush_failures[0].0, "t0");
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    assert_eq!(fleet.state_of("t1"), Some(TenantState::Healthy));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_stalls_on_unrevivable_backlog_instead_of_spinning() {
    let root = fleet_root("shutdown-stall");
    let mut fleet = Fleet::new(
        &root,
        FleetConfig {
            panic_budget: 0,
            checkpoint_every: 1,
            ..FleetConfig::default()
        },
    );
    fleet.add_tenant("t0", lr_tenant).unwrap();
    // Park the tenant past its (zero) strike budget.
    fleet
        .server_mut_of("t0")
        .unwrap()
        .inject_append_faults(true);
    fleet.offer("t0", temp_reading(30, mins(1))).unwrap();
    let _ = fleet.step_ready(mins(1));
    assert_eq!(fleet.state_of("t0"), Some(TenantState::Quarantined));
    fleet.offer("t0", temp_reading(31, mins(2))).unwrap();

    // The drain cannot make progress; it must detect the stall and
    // return promptly rather than spinning to the deadline.
    let started = std::time::Instant::now();
    let report = fleet.shutdown(Duration::from_secs(30), mins(2));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "stall detection"
    );
    assert!(!report.drained, "{report}");
    assert!(report.remaining_backlog > 0);
    let _ = std::fs::remove_dir_all(&root);
}
