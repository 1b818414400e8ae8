//! End-to-end benchmark of the CADEL stack.
//!
//! `cadel-perfbench --workload <telemetry|dense_home|authoring> --seed N
//! --seconds S --trace <0|1>` sets the deployment up three times (the
//! median is `setup_s`), drives the last one over a live `cadel-api`
//! frontend on loopback, checks the outputs off the clock, and prints one
//! JSON result as its last line of standard output. See `README.md` in
//! this directory for the workloads and metrics.

mod authoring;
mod common;
mod dense;
mod layers;
mod telemetry;

use common::*;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A deployment under test: timed windows, then checks, then teardown.
pub trait Workload {
    /// Runs the workload for `seconds` of wall time.
    fn window(&mut self, seconds: f64) -> Window;
    /// Output checks, off the clock; returns what failed.
    fn check(&mut self) -> Vec<String>;
    /// Drains and stops the deployment; returns what failed.
    fn teardown(&mut self) -> Vec<String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(workload: &str, seed: u64, rep: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "telemetry" => Box::new(telemetry::Telemetry::setup(seed, rep)),
        "dense_home" => Box::new(dense::DenseHome::setup(seed, rep)),
        "authoring" => Box::new(authoring::Authoring::setup(seed, rep)),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// One metric as printed: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The end-to-end metrics of one window: throughput and reaction figures
/// are medians over its slices, registration percentiles span the whole
/// window (a slice holds too few registrations).
fn end_to_end(w: &Window, setup_s: f64) -> Metrics {
    let (slices, secs) = w.full_slices();
    let over = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (setup_s, "s"));
    m.insert(
        "readings_per_s".into(),
        (over(&|s: &Slice| s.readings as f64 / secs), "readings/s"),
    );
    m.insert(
        "react_p50_us".into(),
        (over(&|s: &Slice| quantile(&s.react_us, 0.5)), "us"),
    );
    m.insert(
        "react_p99_us".into(),
        (over(&|s: &Slice| quantile(&s.react_us, 0.99)), "us"),
    );
    m.insert(
        "register_p50_ms".into(),
        (quantile(&w.register_ms, 0.5), "ms"),
    );
    m.insert(
        "register_p95_ms".into(),
        (quantile(&w.register_ms, 0.95), "ms"),
    );
    m.insert(
        "rule_ops_per_s".into(),
        (over(&|s: &Slice| s.rule_ops as f64 / secs), "ops/s"),
    );
    m.insert("peak_rss_mb".into(), (peak_rss_mb(), "MiB"));
    m
}

fn git_rev() -> String {
    std::env::var("CADEL_GIT_REV").unwrap_or_else(|_| "unknown".into())
}

/// The filesystem type holding the benchmark's data directory.
fn fs_type() -> String {
    let root = std::fs::canonicalize(data_root()).unwrap_or_default();
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            root.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn json_string(s: &str) -> String {
    cadel_types::json::Json::str(s).to_compact()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cadel-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = now_ns();
    std::fs::create_dir_all(data_root()).expect("create data directory");

    // Each earlier set-up is torn down before the next is built, so
    // only one deployment is ever resident.
    let mut setup_times = Vec::new();
    let mut env: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut previous) = env.take() {
            let errors = previous.teardown();
            assert!(errors.is_empty(), "set-up teardown: {errors:?}");
        }
        let started = Instant::now();
        match setup(&args.workload, args.seed, rep) {
            Ok(built) => env = Some(built),
            Err(e) => {
                eprintln!("cadel-perfbench: {e}");
                return ExitCode::from(2);
            }
        }
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let setup_s = median(&setup_times);

    // The traced run measures an untraced half and a traced half, so the
    // cost of tracing is reported beside the per-layer table.
    let (untraced, traced) = if args.trace {
        let plain = env.window(args.seconds / 2.0);
        cadel_obs::enable_metrics_only();
        set_tracing(true);
        let traced = env.window(args.seconds / 2.0);
        set_tracing(false);
        (plain, Some((traced, layers::capture())))
    } else {
        (env.window(args.seconds), None)
    };

    let mut errors = env.check();
    errors.extend(env.teardown());
    let _ = std::fs::remove_dir(data_root());

    let windows: Vec<&Window> = std::iter::once(&untraced)
        .chain(traced.as_ref().map(|(w, _)| w))
        .collect();
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failures.count).sum();
    for w in &windows {
        for f in &w.failures.first {
            eprintln!("failure: {f}");
        }
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();

    let metrics = match &traced {
        Some((traced, capture)) => {
            let plain = end_to_end(&untraced, setup_s);
            let traced_e2e = end_to_end(traced, setup_s);
            let (metrics, shares) =
                layers::per_layer(traced, capture, &plain, &traced_e2e, failed, attempted);
            layers::print_table(&args.workload, &metrics, &shares);
            let path = format!(".bench_out/spans-{}-{}.tsv", args.workload, args.seed);
            match capture.write_spans(std::path::Path::new(&path)) {
                Ok(()) => println!("spans written to {path}"),
                Err(e) => eprintln!("cadel-perfbench: writing {path}: {e}"),
            }
            metrics
        }
        None => end_to_end(&untraced, setup_s),
    };

    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"nproc\": {}, \"fleet_workers\": {}, \"git_rev\": {}, \"fs_type\": {}, \"run_seconds\": {}, \"trace\": {}, \"setup_reps_s\": {:?}}}}}",
        json_string(&args.workload),
        args.seed,
        workers(),
        fleet_config().workers,
        json_string(&git_rev()),
        json_string(&fs_type()),
        args.seconds,
        args.trace,
        setup_times,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                format_value(*value),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A finite JSON number with all its digits.
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
