#!/usr/bin/env python3
"""Builds and runs the CADEL end-to-end benchmark; sweeps seeds; compares.

Run from the repository root:

    python3 perfbench/run.py --workload telemetry --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py sweep --workload telemetry --seeds 1-10 --out a.jsonl
    python3 perfbench/run.py compare a.jsonl b.jsonl

The first form builds `perfbench/` (a standalone cargo package over the
repository's crates) into `$CARGO_TARGET_DIR` (default `.bench_build`)
and runs one workload; the last line of its standard output is the JSON
result. `sweep` runs one workload over several seeds and appends each
run's metadata and result to a JSON-lines file. `compare` reads two such
files and prints, per workload and metric, both medians, their quartiles,
each side's spread, and whether the difference exceeds the metric's
bound in `BENCHMARK.json`.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must finish within 180 s; leave room to report the timeout.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    binary = os.path.join(target_dir(), "release", "cadel-perfbench")
    return binary if os.path.exists(binary) else None


def git_rev():
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_once(binary, args):
    """Runs the binary once with `args`; returns (exit code, stdout)."""
    # One malloc arena: otherwise peak RSS depends on which arena each
    # short-lived connection thread happens to land in (seen as a 28 %
    # run-to-run swing in `authoring`).
    env = dict(os.environ, CADEL_GIT_REV=git_rev(), MALLOC_ARENA_MAX="1")
    proc = subprocess.Popen([binary] + args, cwd=os.getcwd(), env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def bench(args):
    binary = build()
    if binary is None:
        return 1
    code, out = run_once(binary, args)
    sys.stdout.write(out)
    return code


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def flags(argv):
    out = {}
    it = iter(argv)
    for flag in it:
        out[flag.lstrip("-")] = next(it)
    return out


def sweep(argv):
    opts = flags(argv)
    workload = opts["workload"]
    seconds = opts.get("seconds", str(benchmark_config()["run_seconds"]))
    trace = opts.get("trace", "0")
    binary = build()
    if binary is None:
        return 1
    rows = []
    for seed in parse_seeds(opts.get("seeds", "1-10")):
        code, out = run_once(binary, ["--workload", workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", trace])
        lines = [l for l in out.splitlines() if l.startswith("{")]
        if code != 0 or len(lines) < 2:
            print(f"perfbench: seed {seed} failed (exit {code})", file=sys.stderr)
            return 1
        row = {"meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}
        rows.append(row)
        with open(opts["out"], "a") as f:
            f.write(json.dumps(row) + "\n")
        metrics = row["result"]["metrics"]
        print(f"seed {seed}: correct={row['result']['correct']} failed={row['result']['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items())))
    summarize(rows)
    return 0


def benchmark_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def by_workload(rows):
    out = {}
    for row in rows:
        out.setdefault(row["meta"]["workload"], []).append(row)
    return out


def summarize(rows):
    bounds = {m["name"]: m for m in benchmark_config()["end_to_end"]}
    for workload, group in sorted(by_workload(rows).items()):
        print(f"{workload}: {len(group)} runs")
        names = sorted(group[0]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in group]
            q1, q2, q3 = quartiles(values)
            bound = bounds.get(name, {}).get("bound")
            mark = ""
            if bound is not None and name != "setup_s":
                s = spread(values)
                mark = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"  {name:<28} median {q2:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
                  f"spread {spread(values):<8.3f} {mark}")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(argv):
    """Compares two result sets (base, then candidate)."""
    base, cand = load(argv[0]), load(argv[1])
    metrics = {m["name"]: m for m in benchmark_config()["end_to_end"]}
    base_w, cand_w = by_workload(base), by_workload(cand)
    worse_any = False
    for workload in sorted(set(base_w) | set(cand_w)):
        if workload not in base_w or workload not in cand_w:
            print(f"{workload}: only in one set")
            continue
        print(f"{workload}: {len(base_w[workload])} vs {len(cand_w[workload])} runs")
        for name, spec in metrics.items():
            a = [r["result"]["metrics"][name]["value"] for r in base_w[workload]
                 if name in r["result"]["metrics"]]
            b = [r["result"]["metrics"][name]["value"] for r in cand_w[workload]
                 if name in r["result"]["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = change if spec["better"] == "lower" else -change
            verdict = "WORSE beyond bound" if worse > spec["bound"] else (
                "better" if worse < 0 else "within bound")
            worse_any |= worse > spec["bound"]
            print(f"  {name:<18} base {qa[1]:<11.5g} [{qa[0]:.5g}, {qa[2]:.5g}] "
                  f"cand {qb[1]:<11.5g} [{qb[0]:.5g}, {qb[2]:.5g}] "
                  f"change {change:+.3f} (bound {spec['bound']}) "
                  f"spread {spread(a):.3f}/{spread(b):.3f}  {verdict}")
    return 1 if worse_any else 0


def main(argv):
    if argv and argv[0] == "sweep":
        return sweep(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    return bench(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
