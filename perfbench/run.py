#!/usr/bin/env python3
"""City-day benchmark: wall cost per request of the Metropolis day.

Run from the repository root:

    python3 perfbench/run.py --workload city-day --seed 1 --seconds 20 --trace 0

It builds `perfbench` (a Cargo package of its own), then, for about
`--seconds` seconds, runs untraced days of the chosen workload, one day per
process, each between two runs of a fixed reference kernel that gauges the
host's speed, and one traced replay of the same day. It checks the outputs,
appends a record to `perfbench/out/results.jsonl`, writes the replay's
spans to `perfbench/out/spans-<workload>.tsv`, and prints one JSON object
as its last line: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`. See `perfbench/README.md`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("city-day", "write-infer", "fine-windows")
# Fewest untraced days a run takes, however short `--seconds` is.
MIN_DAYS = 3
# The reference kernel's wall time (`perfbench calib`, median) on the 2-core
# host the bounds were set on. Day times are scaled to that host speed.
REF_CALIB_S = 0.2
# Reference-kernel runs on each side of a day that gauge the host's speed
# for it. Two, rather than one, average out the kernel's own noise while
# still following the host's minute-long swings.
CALIB_NEAR = 2
# Any single child process gets this long (the run must end within 180 s).
CHILD_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850
OUT_DIR = os.path.join("perfbench", "out")
GOLDEN = os.path.join("tests", "golden", "bench_baseline", "BENCH_metropolis.json")
# The day outcome fields the replay must reproduce (see src/main.rs).
OUTCOME_KEYS = (
    "executed",
    "answered",
    "unanswered",
    "sends",
    "delivered",
    "duplicates",
    "lost",
    "decision_log",
    "flight_fingerprint",
    "report_digest",
)


class BenchError(Exception):
    """A step failed in a way that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    cmd = ["cargo", "build", "--offline", "--release", "--manifest-path", "perfbench/Cargo.toml"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(target, "release", "perfbench")


def child(binary, *args):
    """Runs one perfbench process and returns its JSON line."""
    cmd = [binary, *args]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{' '.join(cmd)}: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])


def git_rev():
    """The checked-out commit, read from `.git` without leaving the checkout."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def outcome(day):
    return {k: day[k] for k in OUTCOME_KEYS}


def declared_metrics():
    """The metric names and units BENCHMARK.json declares."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def golden_checks(binary):
    """E19's quick seed-42 day, run and replayed, against the committed baseline."""
    with open(GOLDEN) as f:
        det = json.load(f)["deterministic"]
    day = child(binary, "day", "--workload", "e19-quick", "--seed", "42")
    spans = os.path.join(OUT_DIR, "spans-e19-quick.tsv")
    rep = child(binary, "replay", "--workload", "e19-quick", "--seed", "42", "--spans", spans)
    return {
        "golden_decision_log": day["decision_log"] == det["decision_log"],
        "golden_flight_fingerprint": day["flight_fingerprint"] == det["flight_fingerprint"],
        "golden_replay_equals_metrosim": outcome(rep) == outcome(day),
    }


def calib(binary):
    return child(binary, "calib")["calib_s"]


def day_checks(days, rep):
    """The checks of each untraced day and then of the replay, by name."""
    first = outcome(days[0])
    configured = days[0]["config"]["sample_total"]
    checks = []
    for d in days + [rep]:
        same = "replay_equals_metrosim" if d is rep else "days_are_deterministic"
        checks.append(
            {
                "answered_plus_unanswered_is_executed": d["answered"] + d["unanswered"]
                == d["executed"],
                "delivered_plus_lost_is_sent": d["delivered"] + d["lost"] == d["sends"],
                "executed_is_configured": d["executed"] == configured,
                same: outcome(d) == first,
            }
        )
    return checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    end_to_end_units, per_layer_units = declared_metrics()
    checks = golden_checks(binary)

    seed = str(args.seed)
    days = []
    calib_s = [calib(binary)]
    start = time.monotonic()
    while len(days) < MIN_DAYS or time.monotonic() - start < args.seconds:
        days.append(child(binary, "day", "--workload", args.workload, "--seed", seed))
        calib_s.append(calib(binary))
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv")
    rep = child(binary, "replay", "--workload", args.workload, "--seed", seed, "--spans", spans)
    per_day = day_checks(days, rep)
    for name in sorted({name for c in per_day for name in c}):
        checks[name] = all(c.get(name, True) for c in per_day)

    # Each day's times, scaled by the host's speed around it: the reference
    # kernel's time on the reference host over its mean time in the
    # CALIB_NEAR runs before and after the day (fewer at the run's ends).
    scale = [
        REF_CALIB_S / statistics.mean(calib_s[max(0, i + 1 - CALIB_NEAR) : i + 1 + CALIB_NEAR])
        for i in range(len(days))
    ]
    day_s = statistics.median(d["day_s"] for d in days)
    executed = days[0]["executed"]
    end_to_end = {
        "us_per_request": statistics.median(
            d["day_s"] * k * 1e6 / d["executed"] for d, k in zip(days, scale)
        ),
        "setup_s": statistics.median(d["setup_s"] * k for d, k in zip(days, scale)),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in days),
        "answered_frac": days[0]["answered"] / executed,
        "ingest_delivered_frac": days[0]["delivered"] / days[0]["sends"],
    }
    per_layer = {k: v["value"] for k, v in rep["per_layer"].items()}
    per_layer["trace.overhead_ratio"] = rep["day_s"] / day_s
    layer_ms = sum(v for k, v in per_layer.items() if k.endswith(".self_ms"))
    checks["layer_self_times_sum_to_traced_day"] = (
        abs(layer_ms - per_layer["trace.day_ms"]) <= 1e-6 * per_layer["trace.day_ms"]
    )
    checks["metric_names_match_benchmark_json"] = set(end_to_end) == set(
        end_to_end_units
    ) and set(per_layer) == set(per_layer_units)

    if args.trace:
        metrics = {k: (v, per_layer_units.get(k, "?")) for k, v in per_layer.items()}
    else:
        metrics = {k: (v, end_to_end_units.get(k, "?")) for k, v in end_to_end.items()}
    correct = all(checks.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "config": days[0]["config"],
        "executed_per_day": executed,
        "days": [{k: d[k] for k in ("day_s", "setup_s", "peak_rss_mb")} for d in days],
        "calib_s": calib_s,
        "unscaled_us_per_request": statistics.median(
            d["day_s"] * 1e6 / d["executed"] for d in days
        ),
        "unscaled_setup_s": statistics.median(d["setup_s"] for d in days),
        "replay_day_s": rep["day_s"],
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(
        f"# {args.workload} seed {args.seed}: {len(days)} untraced days + 1 traced replay, "
        f"{executed} requests per day, git {record['git_rev'][:12]}, nproc {record['nproc']}"
    )
    for name, ok in checks.items():
        print(f"# check {name}: {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(per_day),
                "failed": sum(not all(c.values()) for c in per_day),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
