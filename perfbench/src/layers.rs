//! The traced run's per-layer metrics and self-time table.
//!
//! Layers the benchmark calls directly (api, fleet, devices) are timed
//! by its own spans; layers reached only from inside another (engine,
//! upnp, store, server, lang, rule, conflict, simplex) are read from the
//! `cadel-obs` series those crates export. Tracing is enabled only for
//! the traced window, so every obs series covers exactly that window.

use crate::common::*;
use crate::Metrics;
use cadel_obs::MetricsSnapshot;
use std::collections::{BTreeMap, HashMap};

/// Self time per span name: duration minus the union of its children.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let mut total = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    total += b - a;
                    cursor = b;
                }
            }
            total
        });
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_default() += own as f64 / 1e9;
    }
    out
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn hist_q(snap: &MetricsSnapshot, name: &str, q: f64) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.quantile(q) as f64)
}

fn hist_sum_s(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.sum as f64 / 1e9)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What the traced window left behind: the obs registry, the spans and
/// the WAL split, taken before the off-clock checks add to them.
pub struct Capture {
    snap: MetricsSnapshot,
    spans: Vec<SpanRec>,
    store: (f64, f64, f64),
}

impl Capture {
    /// Writes every span, one per line: id, parent, name, start and end
    /// (nanoseconds since process start) and the tick or operation id.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\ttag")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.tag
            )?;
        }
        out.flush()
    }
}

/// Takes the traced window's capture and switches obs off again.
pub fn capture() -> Capture {
    let capture = Capture {
        snap: cadel_obs::metrics_snapshot(),
        spans: take_spans(),
        store: store_counters(),
    };
    cadel_obs::shutdown();
    capture
}

/// Every per-layer metric, from the traced window `w` and its capture;
/// `plain` holds the untraced half's end-to-end metrics.
pub fn per_layer(
    w: &Window,
    capture: &Capture,
    plain: &Metrics,
    traced_e2e: &Metrics,
    failed: u64,
    attempted: u64,
) -> (Metrics, BTreeMap<&'static str, f64>) {
    let snap = &capture.snap;
    let spans = &capture.spans;
    let selfs = self_times(spans);
    let deliver_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "devices.deliver")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_owned(), (value, unit));
    };

    // api
    put("api.post_readings_us.p50", quantile(&w.post_us, 0.5), "us");
    put("api.post_readings_us.p99", quantile(&w.post_us, 0.99), "us");
    put(
        "api.request_us.p50",
        hist_q(snap, "api_request_ns", 0.5) / 1e3,
        "us",
    );
    put(
        "api.request_us.p99",
        hist_q(snap, "api_request_ns", 0.99) / 1e3,
        "us",
    );
    put(
        "api.notify_lag_us.p50",
        quantile(&w.notify_lag_us, 0.5),
        "us",
    );
    put(
        "api.notify_lag_us.p99",
        quantile(&w.notify_lag_us, 0.99),
        "us",
    );
    put("api.shed", counter(snap, "api_shed_total"), "count");
    put(
        "api.parse_errors",
        counter(snap, "api_parse_errors_total"),
        "count",
    );
    put("api.timeouts", counter(snap, "api_timeouts_total"), "count");
    put(
        "api.events_dropped",
        counter(snap, "api_events_dropped_total"),
        "count",
    );

    // fleet
    put("fleet.wave_ms.p50", quantile(&w.wave_ms, 0.5), "ms");
    put("fleet.wave_ms.p99", quantile(&w.wave_ms, 0.99), "ms");
    put(
        "fleet.tenant_step_us.p50",
        quantile(&w.tenant_step_us, 0.5),
        "us",
    );
    put(
        "fleet.tenant_step_us.p99",
        quantile(&w.tenant_step_us, 0.99),
        "us",
    );
    put(
        "fleet.wave_residual_ms.p50",
        quantile(&w.wave_residual_ms, 0.5),
        "ms",
    );
    put(
        "fleet.tenants_per_wave",
        median(&w.tenants_per_wave),
        "count",
    );
    put(
        "fleet.coalesce_ratio",
        ratio(
            counter(snap, "fleet_coalesced_total"),
            w.readings_applied as f64,
        ),
        "ratio",
    );
    put("fleet.shed", counter(snap, "fleet_shed_total"), "count");
    put(
        "fleet.quarantines",
        counter(snap, "fleet_panics_total")
            + counter(snap, "fleet_overruns_total")
            + counter(snap, "fleet_store_faults_total"),
        "count",
    );

    // devices
    put("devices.deliver_us.p50", quantile(&deliver_us, 0.5), "us");

    // engine
    let steps = counter(snap, "engine_steps_total");
    let evaluated = counter(snap, "engine_rules_evaluated_total");
    let dispatched = counter(snap, "engine_firings_dispatched_total")
        + counter(snap, "engine_firings_replaced_total");
    put(
        "engine.step_us.p50",
        hist_q(snap, "engine_step_duration_ns", 0.5) / 1e3,
        "us",
    );
    put(
        "engine.step_us.p99",
        hist_q(snap, "engine_step_duration_ns", 0.99) / 1e3,
        "us",
    );
    put(
        "engine.rules_evaluated_per_step",
        ratio(evaluated, steps),
        "rules",
    );
    put("engine.fire_ratio", ratio(dispatched, evaluated), "ratio");
    put(
        "engine.coalesce_ratio",
        ratio(
            counter(snap, "engine_events_coalesced_total"),
            counter(snap, "engine_events_ingested_total"),
        ),
        "ratio",
    );
    put("engine.firings_dispatched", dispatched, "count");
    put(
        "engine.firings_suppressed",
        counter(snap, "engine_firings_suppressed_total"),
        "count",
    );
    put(
        "engine.releases",
        counter(snap, "engine_releases_total"),
        "count",
    );
    let ast = counter(snap, "engine_eval_ast_total");
    put(
        "engine.eval_ast_share",
        ratio(ast, ast + counter(snap, "engine_eval_compiled_total")),
        "ratio",
    );

    // upnp
    put(
        "upnp.invoke_us.p50",
        hist_q(snap, "upnp_invoke_duration_ns", 0.5) / 1e3,
        "us",
    );
    put("upnp.invokes", counter(snap, "upnp_invokes_total"), "count");
    put(
        "upnp.invoke_failures",
        counter(snap, "upnp_invoke_failures_total"),
        "count",
    );

    // store
    let (wave_appends, wave_bytes, rule_bytes) = capture.store;
    put(
        "store.wal_appends_per_wave",
        ratio(wave_appends, w.waves as f64),
        "records",
    );
    put(
        "store.wal_bytes_per_wave",
        ratio(wave_bytes, w.waves as f64),
        "bytes",
    );
    put(
        "store.wal_bytes_per_registration",
        ratio(rule_bytes, w.registrations as f64),
        "bytes",
    );

    // server
    put(
        "server.submit_ms.p50",
        hist_q(snap, "server_submit_duration_ns", 0.5) / 1e6,
        "ms",
    );
    put(
        "server.submit_ms.p95",
        hist_q(snap, "server_submit_duration_ns", 0.95) / 1e6,
        "ms",
    );
    put(
        "server.registered",
        counter(snap, "server_rules_registered_total"),
        "count",
    );
    put(
        "server.conflicted",
        counter(snap, "server_rules_conflicted_total"),
        "count",
    );

    // lang, rule
    put(
        "lang.parse_us.p50",
        hist_q(snap, "lang_parse_duration_ns", 0.5) / 1e3,
        "us",
    );
    put(
        "lang.compile_us.p50",
        hist_q(snap, "lang_compile_duration_ns", 0.5) / 1e3,
        "us",
    );
    put(
        "rule.lower_us.p50",
        hist_q(snap, "rule_lower_duration_ns", 0.5) / 1e3,
        "us",
    );
    put(
        "rule.lower_failures",
        counter(snap, "rule_lower_failures_total"),
        "count",
    );

    // conflict
    let analyses = counter(snap, "conflict_graph_analyses_total");
    let pairs = counter(snap, "conflict_graph_pairs_total");
    put(
        "conflict.analyze_ms.p50",
        hist_q(snap, "conflict_graph_analyze_duration_ns", 0.5) / 1e6,
        "ms",
    );
    put(
        "conflict.analyze_ms.p95",
        hist_q(snap, "conflict_graph_analyze_duration_ns", 0.95) / 1e6,
        "ms",
    );
    put(
        "conflict.pairs_per_analyze",
        ratio(pairs, analyses),
        "pairs",
    );
    put(
        "conflict.prune_ratio",
        ratio(counter(snap, "conflict_graph_pairs_pruned_total"), pairs),
        "ratio",
    );
    put(
        "conflict.simplex_pairs_per_analyze",
        ratio(
            counter(snap, "conflict_graph_simplex_pairs_total"),
            analyses,
        ),
        "pairs",
    );
    let hits = counter(snap, "conflict_memo_hits_total");
    put(
        "conflict.memo_hit_ratio",
        ratio(hits, hits + counter(snap, "conflict_memo_misses_total")),
        "ratio",
    );
    put(
        "conflict.advisories",
        counter(snap, "conflict_graph_advisories_total"),
        "count",
    );
    put(
        "conflict.graph_rebuilds",
        counter(snap, "conflict_graph_rebuilds_total"),
        "count",
    );

    // simplex
    let solves = counter(snap, "simplex_solves_total");
    put(
        "simplex.solves_per_analyze",
        ratio(solves, analyses),
        "solves",
    );
    put(
        "simplex.solve_us.p50",
        hist_q(snap, "simplex_solve_duration_ns", 0.5) / 1e3,
        "us",
    );
    put(
        "simplex.pivots",
        counter(snap, "simplex_pivots_total"),
        "count",
    );
    put(
        "simplex.interval_share",
        ratio(counter(snap, "simplex_interval_path_total"), solves),
        "ratio",
    );

    // obs: what tracing cost, per end-to-end metric.
    for (name, (value, _)) in traced_e2e {
        if name == "setup_s" || name == "peak_rss_mb" {
            continue;
        }
        if let Some((base, _)) = plain.get(name) {
            put(
                &format!("obs.trace_overhead.{name}"),
                ratio(*value, *base) - 1.0,
                "ratio",
            );
        }
    }

    // generator and failure accounting
    put("gen.late_p99_us", quantile(&w.gen_late_us, 0.99), "us");
    put(
        "bench.failed_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    );

    // Self-time shares of the reading path and the rule path.
    let shares = shares(w, &selfs, snap);
    for (name, share) in &shares {
        put(&format!("share.{name}"), *share, "ratio");
    }
    (m, shares)
}

/// Splits wall time into layers. Reading path: the closed-loop ticks
/// (or open-loop sends); rule path: the rule operations. Layers inside a
/// wave are apportioned by their obs busy-time sums.
fn shares(
    w: &Window,
    selfs: &BTreeMap<&'static str, f64>,
    snap: &MetricsSnapshot,
) -> BTreeMap<&'static str, f64> {
    let get = |k: &str| selfs.get(k).copied().unwrap_or(0.0);
    let mut out = BTreeMap::new();

    // Reading path.
    let wave_wall: f64 = w.wave_ms.iter().sum::<f64>() / 1e3;
    let residual: f64 = w.wave_residual_ms.iter().sum::<f64>() / 1e3;
    let busy: f64 = w.tenant_step_us.iter().sum::<f64>() / 1e6;
    let deliver = get("devices.deliver");
    let engine_all = hist_sum_s(snap, "engine_step_duration_ns");
    let upnp = hist_sum_s(snap, "upnp_invoke_duration_ns").min(engine_all);
    let parallel = (wave_wall - residual).max(0.0);
    let scale = ratio(parallel, busy);
    let read_total = get("tick") + get("api.post") + wave_wall + get("api.rule.inline");
    if read_total > 0.0 {
        out.insert("read.gen", get("tick") / read_total);
        out.insert("read.api", get("api.post") / read_total);
        out.insert("read.devices", deliver * scale / read_total);
        out.insert("read.engine", (engine_all - upnp) * scale / read_total);
        out.insert("read.upnp", upnp * scale / read_total);
        out.insert(
            "read.tenant_other",
            (busy - deliver - engine_all).max(0.0) * scale / read_total,
        );
        out.insert("read.fleet_residual", residual / read_total);
        out.insert("read.rule_edits", get("api.rule.inline") / read_total);
    }

    // Rule path.
    let rule_total = get("api.rule") + get("api.rule.inline");
    if rule_total > 0.0 {
        let submit = hist_sum_s(snap, "server_submit_duration_ns");
        let analyze = hist_sum_s(snap, "conflict_graph_analyze_duration_ns");
        let simplex = hist_sum_s(snap, "simplex_solve_duration_ns").min(analyze);
        let lang = hist_sum_s(snap, "lang_parse_duration_ns")
            + hist_sum_s(snap, "lang_compile_duration_ns");
        let lower = hist_sum_s(snap, "rule_lower_duration_ns");
        let server_work = submit.max(analyze + lang + lower);
        out.insert("rule.api", (rule_total - server_work).max(0.0) / rule_total);
        out.insert("rule.lang", lang / rule_total);
        out.insert("rule.rule", lower / rule_total);
        out.insert("rule.conflict", (analyze - simplex) / rule_total);
        out.insert("rule.simplex", simplex / rule_total);
        out.insert(
            "rule.server_other",
            (server_work - analyze - lang - lower).max(0.0) / rule_total,
        );
    }
    out
}

/// Prints the per-layer table and the self-time shares.
pub fn print_table(workload: &str, metrics: &Metrics, shares: &BTreeMap<&'static str, f64>) {
    println!("per-layer metrics, traced window, workload {workload}:");
    for (name, (value, unit)) in metrics {
        if !name.starts_with("share.") {
            println!("  {name:<40} {value:>14.3} {unit}");
        }
    }
    println!("self-time shares:");
    for (name, share) in shares {
        println!("  {name:<40} {:>13.1}%", share * 100.0);
    }
}
