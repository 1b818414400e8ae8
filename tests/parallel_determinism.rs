//! The trigger index must be invisible: the same seeded workload run on
//! the index and on the full scan (every rule evaluated every step) must
//! produce byte-identical activity timelines and server snapshots.
//!
//! Two workloads, both deterministic and both over real devices:
//!
//! * the Fig. 1 living-room scenario under the fault-injection plan from
//!   the resilience soak — faults, retries, breakers and releases all
//!   flow through the commit and arbitration phases, so none of it may
//!   diverge;
//! * the apartment-block load scenario — many units, same-device
//!   contention, `held for` dwell clauses, `until` releases and batched
//!   redundant sensor readings through the ingest coalescer.

use cadel::sim::{ApartmentBlockScenario, LivingRoomScenario, ScenarioWorld};
use cadel::types::{DeviceId, SimDuration, SimTime};
use cadel::upnp::FaultPlan;

fn hm(h: u64, m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_hours(h) + SimDuration::from_minutes(m)
}

/// The resilience soak's fault plan: transient aircon faults, a hard TV
/// outage, stereo event latency and a thermometer dropout.
fn faulty_world(trigger_index: bool) -> ScenarioWorld {
    let faults = vec![
        (
            DeviceId::new("aircon-lr"),
            FaultPlan::random_transient(
                7,
                hm(17, 0),
                hm(19, 15),
                SimDuration::from_minutes(1),
                350,
            ),
        ),
        (
            DeviceId::new("tv-lr"),
            FaultPlan::new().fail_between(hm(18, 0), hm(18, 8)),
        ),
        (
            DeviceId::new("stereo-lr"),
            FaultPlan::new().delay_between(hm(17, 0), hm(17, 2), SimDuration::from_secs(30)),
        ),
        (
            DeviceId::new("thermo-lr"),
            FaultPlan::new().drop_sensors_between(hm(18, 54), hm(18, 56)),
        ),
    ];
    let mut scenario = LivingRoomScenario::build_with_faults(faults);
    scenario
        .server_mut()
        .engine_mut()
        .set_use_trigger_index(trigger_index);
    scenario.run()
}

#[test]
fn living_room_fault_soak_is_index_invariant() {
    let indexed = faulty_world(true);
    let full_scan = faulty_world(false);

    assert_eq!(
        indexed.activity.render(),
        full_scan.activity.render(),
        "activity timelines diverged between the trigger index and the full scan"
    );
    assert_eq!(
        indexed.server.snapshot_json().to_compact(),
        full_scan.server.snapshot_json().to_compact(),
        "server snapshots diverged between the trigger index and the full scan"
    );
    // Sanity: the workload was not inert.
    assert!(indexed.activity.rows().iter().any(|r| r.firings() > 0));
}

#[test]
fn apartment_block_is_index_invariant() {
    let run = |trigger_index: bool| {
        let mut scenario = ApartmentBlockScenario::build(12, 23);
        scenario
            .server_mut()
            .engine_mut()
            .set_use_trigger_index(trigger_index);
        scenario.run(120)
    };
    let indexed = run(true);
    let full_scan = run(false);

    assert_eq!(
        indexed.activity.render(),
        full_scan.activity.render(),
        "apartment activity diverged between the trigger index and the full scan"
    );
    assert_eq!(
        indexed.server.snapshot_json().to_compact(),
        full_scan.server.snapshot_json().to_compact(),
        "apartment snapshots diverged between the trigger index and the full scan"
    );
    let dispatched: usize = indexed.activity.rows().iter().map(|r| r.dispatched).sum();
    assert!(dispatched > 0, "apartment workload was inert");
}
