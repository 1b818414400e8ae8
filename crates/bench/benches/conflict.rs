//! **E2 — "Time for Detecting Conflicting Rules"** (paper §5), plus the
//! conflict-graph series.
//!
//! The paper's workload: 10,000 registered rules, 100 of them on the same
//! device as the new rule, each condition a conjunction of two
//! inequalities, so registration evaluates 100 four-inequality systems.
//! Reported numbers: extraction ≤ 10 ms; the 100 satisfiability checks
//! ≈ 0.2 ms total.
//!
//! Series:
//! * `e2_extract` — the database extraction step over a size sweep;
//! * `e2_solve_100x4` — the paper's "logical product of four inequalities
//!   … 100 times" micro-measurement;
//! * `e2_full_check/ast` — `find_conflicts`, the brute-force oracle
//!   (recompiles every system per call), over the same-device sweep;
//! * `e2_full_check/graph` — [`ConflictGraph::analyze`], the production
//!   path, on the same workloads: the probe is lowered once per call and
//!   merged with the database's precompiled systems;
//! * `e2_size/{ast,graph}` — both paths at 1,000, 10,000 and 40,000 rules,
//!   100 of them on the device: the analysis costs what the probe's
//!   neighbourhood costs, not what the home costs.
//!
//! The run asserts the shape: `e2_full_check/graph/100` within 3× the
//! oracle, `analyze` at 40,000 rules within 3× `analyze` at 1,000, and a
//! repeat analysis of an unchanged base rebuilds no graph node
//! (`conflict_graph_rebuilds_total`), nor does disabling a rule, while
//! re-enabling it rebuilds one.

use cadel_bench::timing::{run, section};
use cadel_bench::{e2_database, e2_probe, two_inequality_condition, SHARED_DEVICE};
use cadel_conflict::{find_conflicts, ConflictGraph};
use cadel_rule::VarPool;
use cadel_simplex::is_satisfiable;
use cadel_types::{DeviceId, RuleId};
use std::hint::black_box;

/// Times `analyze` of the E2 probe on a graph synced once, outside the
/// timed region, as registration keeps it; returns the median ns.
fn time_graph(label: &str, db: &cadel_rule::RuleDb, expected: u64) -> f64 {
    let probe = e2_probe();
    let mut graph = ConflictGraph::default();
    graph.sync(db);
    run(label, || {
        let report = graph.analyze(black_box(db), black_box(&probe)).unwrap();
        assert_eq!(report.conflicts.len() as u64, expected);
        report.conflicts.len()
    })
    .median_ns()
}

fn main() {
    section("e2_extract_same_device (database index)");
    for total in [1_000u64, 10_000, 50_000] {
        let db = e2_database(total, 100);
        let device = DeviceId::new(SHARED_DEVICE);
        run(&format!("e2_extract/{total}"), || {
            let rules = db.rules_for_device(black_box(&device));
            assert_eq!(rules.len(), 100);
            rules.len()
        });
    }

    section("e2_solve_100x4_inequalities (paper's micro-measurement)");
    {
        // Prebuild the 100 four-inequality systems exactly as the AST
        // conflict checker would: probe ∧ stored, one shared pool.
        let db = e2_database(10_000, 100);
        let probe = e2_probe();
        let probe_conjunct = &probe.dnf().conjuncts()[0];
        let systems: Vec<Vec<cadel_simplex::Constraint>> = db
            .rules_for_device(&DeviceId::new(SHARED_DEVICE))
            .iter()
            .map(|rule| {
                let mut pool = VarPool::new();
                let mut system = pool.conjunct_constraints(probe_conjunct).unwrap();
                system.extend(
                    pool.conjunct_constraints(&rule.dnf().conjuncts()[0])
                        .unwrap(),
                );
                assert_eq!(system.len(), 4);
                system
            })
            .collect();
        run("e2_solve_100x4", || {
            let mut feasible = 0u32;
            for system in &systems {
                if is_satisfiable(black_box(system)).unwrap() {
                    feasible += 1;
                }
            }
            assert_eq!(feasible, 100);
            feasible
        });
    }

    section("e2_full_conflict_check (AST oracle vs conflict graph, 10k rules)");
    for same_device in [10u64, 100, 1_000] {
        let db = e2_database(10_000, same_device);
        let probe = e2_probe();
        let oracle = run(&format!("e2_full_check/ast/{same_device}"), || {
            let conflicts = find_conflicts(black_box(&db), black_box(&probe)).unwrap();
            assert_eq!(conflicts.len() as u64, same_device);
            conflicts.len()
        })
        .median_ns();
        let graph = time_graph(
            &format!("e2_full_check/graph/{same_device}"),
            &db,
            same_device,
        );
        if same_device == 100 {
            assert!(
                graph <= 3.0 * oracle,
                "e2_full_check/graph/100 is {:.1}x the oracle",
                graph / oracle
            );
        }
    }

    section("e2_size_sweep (100 same-device rules, growing home)");
    let mut by_size = Vec::new();
    for total in [1_000u64, 10_000, 40_000] {
        let db = e2_database(total, 100);
        let probe = e2_probe();
        run(&format!("e2_size/ast/{total}"), || {
            find_conflicts(black_box(&db), black_box(&probe))
                .unwrap()
                .len()
        });
        by_size.push(time_graph(&format!("e2_size/graph/{total}"), &db, 100));
    }
    assert!(
        by_size[2] <= 3.0 * by_size[0],
        "analyze at 40,000 rules is {:.1}x analyze at 1,000",
        by_size[2] / by_size[0]
    );

    section("e2_unchanged_base (graph nodes rebuilt per analysis)");
    {
        cadel_obs::enable_metrics_only();
        let rebuilds = || {
            cadel_obs::metrics_snapshot()
                .counter("conflict_graph_rebuilds_total")
                .unwrap_or(0)
        };
        let mut db = e2_database(10_000, 100);
        let probe = e2_probe();
        let mut graph = ConflictGraph::default();
        graph.analyze(&db, &probe).unwrap();
        let before = rebuilds();
        graph.analyze(&db, &probe).unwrap();
        let unchanged = rebuilds() - before;
        // A disable drops the rule's node; re-enabling it builds one node.
        let rule = db.get(RuleId::new(1)).unwrap().clone();
        db.replace(rule.clone().with_enabled(false)).unwrap();
        graph.analyze(&db, &probe).unwrap();
        let after_disable = rebuilds() - before;
        db.replace(rule).unwrap();
        graph.analyze(&db, &probe).unwrap();
        let after_enable = rebuilds() - before - after_disable;
        println!(
            "e2_rebuilds/unchanged {unchanged}, after a disable {after_disable}, after the re-enable {after_enable}"
        );
        assert_eq!(unchanged, 0, "a repeat analysis rebuilt nodes");
        assert_eq!(after_disable, 0, "a disable rebuilt nodes");
        assert_eq!(after_enable, 1);
    }

    section("e2_registration_checks_total (consistency + conflicts)");
    {
        let db = e2_database(10_000, 100);
        run("e2_registration/ast", || {
            let probe = e2_probe();
            let report = cadel_conflict::check_consistency(black_box(&probe)).unwrap();
            assert!(report.is_satisfiable());
            let conflicts = find_conflicts(black_box(&db), &probe).unwrap();
            assert_eq!(conflicts.len(), 100);
            conflicts.len()
        });
        let condition = two_inequality_condition(26, 65);
        let rule = cadel_rule::Rule::builder(cadel_types::PersonId::new("x"))
            .condition(condition)
            .action(cadel_rule::ActionSpec::new(
                DeviceId::new("dev"),
                cadel_rule::Verb::TurnOn,
            ))
            .build(cadel_types::RuleId::new(1))
            .unwrap();
        run("e2_consistency_single_rule", || {
            cadel_conflict::check_consistency(black_box(&rule)).unwrap()
        });
    }
}
