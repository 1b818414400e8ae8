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
//!   merged with the database's precompiled systems.

use cadel_bench::timing::{run, section};
use cadel_bench::{e2_database, e2_probe, two_inequality_condition, SHARED_DEVICE};
use cadel_conflict::{find_conflicts, ConflictGraph};
use cadel_rule::VarPool;
use cadel_simplex::is_satisfiable;
use cadel_types::DeviceId;
use std::hint::black_box;

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
        run(&format!("e2_full_check/ast/{same_device}"), || {
            let conflicts = find_conflicts(black_box(&db), black_box(&probe)).unwrap();
            assert_eq!(conflicts.len() as u64, same_device);
            conflicts.len()
        });
        // The graph's nodes are built once, outside the timed region, as
        // registration keeps them.
        let mut graph = ConflictGraph::default();
        graph.sync(&db);
        run(&format!("e2_full_check/graph/{same_device}"), || {
            let report = graph.analyze(black_box(&db), black_box(&probe)).unwrap();
            assert_eq!(report.conflicts.len() as u64, same_device);
            report.conflicts.len()
        });
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
