//! End-to-end observability: run the Fig. 1 living-room scenario with a
//! collector installed and read the whole pipeline back through
//! [`HomeServer::metrics_snapshot`].
//!
//! Every stage of the registration and execution pipeline must leave a
//! trace — parse, compile, lower, Simplex, conflict check, registration,
//! engine steps, UPnP dispatch, a runtime checkpoint — and the
//! structured-event stream must carry the registration/arbitration
//! story.
//!
//! One test function only: the observability switch is process-global,
//! so this binary owns it for its whole lifetime.

use cadel::obs::{Level, RingCollector};
use cadel::sim::LivingRoomScenario;
use std::sync::Arc;

#[test]
fn scenario_populates_metrics_and_events() {
    let ring = Arc::new(RingCollector::new(8_192));
    cadel::obs::install(ring.clone());

    let mut world = LivingRoomScenario::build().run();
    world.server.checkpoint_runtime().unwrap();
    let snapshot = world.server.metrics_snapshot();

    // --- counters: one per pipeline stage ---------------------------
    let counter = |name: &str| {
        snapshot
            .counter(name)
            .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
    };
    assert!(counter("lang_parses_total") > 0, "parser untouched");
    assert!(counter("lang_compiles_total") > 0, "compiler untouched");
    assert!(counter("rule_lower_total") > 0, "no rules lowered");
    assert!(counter("simplex_solves_total") > 0, "Simplex never ran");
    assert!(
        counter("conflict_graph_analyses_total") > 0,
        "no conflict analyses"
    );
    assert!(
        counter("conflict_pairs_conflicting_total") > 0,
        "the scenario's five conflicts went unrecorded"
    );
    assert!(counter("server_submits_total") >= 10, "submissions missing");
    assert!(
        counter("server_rules_registered_total") >= 11,
        "registrations missing"
    );
    assert!(
        counter("server_rules_conflicted_total") >= 5,
        "conflict prompts missing"
    );
    assert!(counter("engine_steps_total") > 0, "engine never stepped");
    assert!(
        counter("engine_firings_dispatched_total") > 0,
        "nothing dispatched"
    );
    assert!(counter("upnp_invokes_total") > 0, "no UPnP invocations");

    // --- latency histograms -----------------------------------------
    for name in [
        "lang_parse_duration_ns",
        "lang_compile_duration_ns",
        "rule_lower_duration_ns",
        "simplex_solve_duration_ns",
        "conflict_graph_analyze_duration_ns",
        "server_submit_duration_ns",
        "server_checkpoint_runtime_ns",
        "engine_step_duration_ns",
        "upnp_invoke_duration_ns",
    ] {
        let h = snapshot
            .histogram(name)
            .unwrap_or_else(|| panic!("histogram {name} missing from snapshot"));
        assert!(h.count > 0, "{name} recorded nothing");
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99(), "{name} quantiles");
    }

    // --- exposition --------------------------------------------------
    let text = snapshot.render_prometheus();
    assert!(text.contains("engine_steps_total"));
    assert!(text.contains("upnp_invoke_duration_ns_bucket"));

    // --- structured events -------------------------------------------
    assert!(
        !ring.events_named("server.rule_registered").is_empty(),
        "registration events missing"
    );
    assert!(
        !ring
            .events_named("server.rule_conflict_detected")
            .is_empty(),
        "conflict events missing"
    );
    let steps = ring.events_named("engine.step");
    assert!(!steps.is_empty(), "step spans missing");
    assert!(steps.iter().all(|t| t.event.level == Level::Debug));
    assert!(
        steps.iter().all(|t| t.event.elapsed_ns.is_some()),
        "step spans must carry a duration"
    );

    // The activity timeline and the metrics agree on engine activity.
    let dispatched: usize = world.activity.rows().iter().map(|r| r.dispatched).sum();
    let replaced: usize = world.activity.rows().iter().map(|r| r.replaced).sum();
    assert_eq!(
        counter("engine_firings_dispatched_total"),
        dispatched as u64
    );
    assert_eq!(counter("engine_firings_replaced_total"), replaced as u64);

    cadel::obs::shutdown();
}
