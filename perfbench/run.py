#!/usr/bin/env python3
"""The simulator's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pod-1k --seed 1 --seconds 25 --trace 0

Builds perfbench_runner from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs the workload's draws, each in its own process. A
draw is one simulation on a sub-seed derived from --seed.

--trace 0: every draw once, then draws again from the first while 80 % of
--seconds lasts (at least one repeat), then set-up-only processes for the
rest; prints the end-to-end metrics of BENCHMARK.json. --trace 1: every draw
untraced and then traced; prints the per-layer metrics. Every run is checked
(repeats and the traced run reproduce the digest and outcomes, no invariant
violations, nothing left unfinished). "failed" counts the operations that
failed in the simulation (unfinished pods and DLT jobs; requests shed,
expired or served late; DLI queries past their SLO). A failed check prints
the result with "correct": false, counts every operation as failed and
exits 1.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNNER = "perfbench_runner"

# Distinct draws per run: enough simulations that the pooled result does not
# hinge on one sub-seed, few enough to leave time for repeats. A pod-1k draw
# simulates 1000 nodes and takes about half a run by itself.
DRAWS = {
    "pod-1k": 1,
    "testbed-overcommit": 48,
    "serve-flash-crowd": 48,
    "dl-fabric": 16,
}
# Share of --seconds given to set-up-only processes (up to 50 ms each), and
# the fewest of them a run takes even when its draws overran.
SETUP_SHARE = 0.2
MIN_SETUP_SAMPLES = 60
PROCESS_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed correctness check)."""


# ---------------------------------------------------------------------------
# Build.

def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", RUNNER, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / RUNNER


# ---------------------------------------------------------------------------
# Running draws.

def sub_seed(seed, draw):
    return (seed * 1_000_003 + draw) % (1 << 63)


def run_draw(runner, workload, seed, mode="untraced", spans=None):
    cmd = [str(runner), "--workload", workload, "--seed", str(seed)]
    if mode == "traced":
        cmd.append("--traced")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    elif mode == "setup":
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Runs:
    """Every process one benchmark run made, by kind."""

    def __init__(self, draws):
        self.first = [None] * draws  # first untraced run of each draw
        self.repeats = []            # later untraced runs, any draw
        self.traced = []             # traced runs, in draw order
        self.setup = []              # set-up-only runs

    def untraced(self):
        return self.first + self.repeats


def measure(runner, workload, seed, seconds, trace):
    k = DRAWS[workload]
    seeds = [sub_seed(seed, d) for d in range(k)]
    runs = Runs(k)
    start = time.monotonic()
    if trace:
        spans = ROOT / ".bench_out" / "spans" / f"{workload}-seed{seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        for d, s in enumerate(seeds):
            runs.first[d] = run_draw(runner, workload, s)
            runs.traced.append(run_draw(runner, workload, s, "traced",
                                        spans if d == 0 else None))
        return runs

    for d, s in enumerate(seeds):
        runs.first[d] = run_draw(runner, workload, s)
    per_draw = (time.monotonic() - start) / k
    draw_budget = (1.0 - SETUP_SHARE) * seconds
    d = 0
    while (not runs.repeats
           or time.monotonic() - start + per_draw <= draw_budget):
        runs.repeats.append(run_draw(runner, workload, seeds[d % k]))
        d += 1
    while (len(runs.setup) < MIN_SETUP_SAMPLES
           or time.monotonic() - start < seconds):
        s = seeds[len(runs.setup) % k]
        runs.setup.append(run_draw(runner, workload, s, "setup"))
    return runs


# ---------------------------------------------------------------------------
# Operation and failure accounting.

def offered_ops(rec):
    """Operations a draw offers: pods, requests, or DLT jobs + DLI queries."""
    ops = rec["ops"]
    if "offered" in ops:
        return ops["offered"]
    if "dlt_total" in ops:
        return ops["dlt_total"] + ops["dli_total"]
    return ops["pods_total"]


def slo_missed(rec):
    """Latency-critical operations that missed their target: requests shed,
    expired or served late; DLI queries past their SLO; LC query pods past
    their QoS target."""
    ops = rec["ops"]
    if "offered" in ops:
        return ops["shed"] + ops["expired"] + ops["late"]
    if "dli_violations" in ops:
        return ops["dli_violations"]
    return ops["qos_violations"]


def slo_offered(rec):
    """Latency-critical operations a draw offers (the base of slo_missed)."""
    ops = rec["ops"]
    if "offered" in ops:
        return ops["offered"]
    if "dli_total" in ops:
        return ops["dli_total"]
    return ops["queries"]


def failed_ops(rec):
    """Operations of a correct draw that failed in the simulation: pods or
    DLT jobs not completed, requests shed, expired or served past their SLO,
    DLI queries past their SLO."""
    ops = rec["ops"]
    if "offered" in ops:
        return ops["shed"] + ops["expired"] + ops["late"]
    if "dlt_total" in ops:
        return ops["dlt_total"] - ops["dlt_completed"] + ops["dli_violations"]
    return ops["pods_total"] - ops["pods_completed"]


def simulated_counts(rec):
    """A draw's simulated counts; host timings (keys ending in _s) excluded."""
    return {k: v for k, v in rec["ops"].items()
            if not k.endswith("_s") or k in ("sim_s", "window_s")}


def check_runs(runs):
    """Correctness gate; returns a list of failures (empty = correct)."""
    errors = []
    for rec in runs.untraced() + runs.traced:
        tag = f"{rec['workload']} seed {rec['seed']}"
        if rec["invariant_violations"] > 0:
            errors.append(f"{tag}: {rec['invariant_violations']} invariant "
                          "violations")
        if rec["unfinished"] > 0:
            errors.append(f"{tag}: {rec['unfinished']} left unfinished at the "
                          "drain deadline")
    reference = {rec["seed"]: rec for rec in runs.first}
    for rec, what in ([(r, "repeat") for r in runs.repeats]
                      + [(r, "traced run") for r in runs.traced]):
        ref = reference[rec["seed"]]
        if rec["digest"] != ref["digest"]:
            errors.append(f"seed {rec['seed']}: {what} digest "
                          f"{rec['digest']} != {ref['digest']}")
        if (rec["outcomes"] != ref["outcomes"]
                or simulated_counts(rec) != simulated_counts(ref)):
            errors.append(f"seed {rec['seed']}: {what} changed the simulated "
                          "outcomes")
    return errors


# ---------------------------------------------------------------------------
# End-to-end metrics.

def host_throughput(records):
    """Simulated work per host second of the median draw. A draw's wall time
    is the median over its runs; the median over draws keeps one slow draw
    (a CBP queue blow-up on the testbed) or one noisy run from setting the
    figure."""
    walls, draw = {}, {}
    for r in records:
        walls.setdefault(r["seed"], []).append(r["run_wall_s"])
        draw[r["seed"]] = r
    rates = {"node_ticks_per_s": [], "requests_per_s": [], "gpu_steps_per_s": []}
    for seed, times in walls.items():
        wall = statistics.median(times)
        ops = draw[seed]["ops"]
        rates["node_ticks_per_s"].append(ops["ticks"] * ops["nodes"] / wall)
        rates["requests_per_s"].append(offered_ops(draw[seed]) / wall)
        rates["gpu_steps_per_s"].append(ops["ticks"] * ops["gpus"] / wall)
    return {name: statistics.median(v) for name, v in rates.items()}


def simulated_outcomes(records):
    """Outcomes pooled over distinct draws (deterministic for a seed)."""
    def total(f):
        return sum(f(r) for r in records)

    def mean_of(name):
        return statistics.fmean(r["outcomes"][name]["value"] for r in records)

    window_s = total(lambda r: r["ops"]["window_s"])
    sim_s = total(lambda r: r["ops"]["sim_s"])
    missed = total(slo_missed)
    offered = total(slo_offered)
    energy = total(lambda r: r["outcomes"]["mean_power_w"]["value"] * r["ops"]["sim_s"])
    return {
        "cluster_util_p50_pct": mean_of("cluster_util_p50_pct"),
        "mean_power_w": energy / sim_s,
        "dl_mean_jct_h": mean_of("dl_mean_jct_h"),
        "qos_violations_per_kilo": 1000.0 * missed / offered if offered else 0.0,
        "slo_goodput_qps": (offered - missed) / window_s,
        "dli_violations_per_h": missed / (window_s / 3600.0),
    }


UNITS = {
    "setup_s": "s",
    "node_ticks_per_s": "1/s",
    "requests_per_s": "1/s",
    "gpu_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cluster_util_p50_pct": "%",
    "mean_power_w": "W",
    "dl_mean_jct_h": "h",
    "qos_violations_per_kilo": "1/1000",
    "slo_goodput_qps": "1/s",
    "dli_violations_per_h": "1/h",
}
# Printed with the per-layer metrics, by the same names, without a bound
# (see README.md): gpu_steps_per_s is node_ticks_per_s times the GPUs per
# node, slo_goodput_qps varies from seed to seed more than a bound allows,
# and the violation rates are 0 on most dl-fabric seeds.
UNBOUNDED = ("gpu_steps_per_s", "qos_violations_per_kilo", "slo_goodput_qps",
             "dli_violations_per_h")


def with_units(values):
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def setup_seconds(samples):
    """The lower decile of the set-up samples. Set-up is mostly page faults
    on the telemetry arena, whose cost has a long upper tail while the host
    compacts memory for huge pages; the lower decile of many processes is
    the set-up cost itself."""
    samples = list(samples)
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[0]


def run_figures(runs):
    """Every end-to-end figure of a run, bounded or not."""
    untraced = runs.untraced()
    values = {
        "setup_s": setup_seconds(r["setup_s"] for r in untraced + runs.setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    values.update(host_throughput(untraced))
    values.update(simulated_outcomes(runs.first))
    return values


def end_to_end_metrics(runs):
    values = run_figures(runs)
    return with_units({k: v for k, v in values.items() if k not in UNBOUNDED})


# ---------------------------------------------------------------------------
# Per-layer metrics (traced runs).

# How a layer metric pools over draws, by unit: shares and rates are
# weighted by wall time, ratios by their denominator, host-time percentiles
# take the median draw, and seconds, counts and MB add up.
# The disjoint shares of a traced run's wall; with unattributed_pct they sum
# to 100.
SHARES = ("telemetry.scrape_pct", "cluster.advance_pct", "sched.round_pct",
          "verify.audit_pct", "verify.digest_pct", "dlsim.policy_pct",
          "unattributed_pct")
RATIO_WEIGHTS = {
    "sched.place_yield": "sched.pending_scanned",
    "net.contended_ratio": "net.flows_finished",
    "serve.batch_fill": "serve.batches",
}


def layer_units():
    """Per-layer names and units declared in BENCHMARK.json. A workload that
    does not exercise a layer reports its metrics as 0."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer"]}


def pool_layers(records):
    walls = [r["run_wall_s"] for r in records]
    pooled = {}
    for name, first in records[0]["layer"].items():
        unit = first["unit"]
        vals = [r["layer"][name]["value"] for r in records]
        if unit in ("%", "1/s"):
            value = sum(v * w for v, w in zip(vals, walls)) / sum(walls)
        elif unit == "ratio":
            weights = [r["layer"][RATIO_WEIGHTS[name]]["value"] for r in records]
            value = (sum(v * w for v, w in zip(vals, weights)) / sum(weights)
                     if sum(weights) > 0 else 0.0)
        elif unit == "us":
            value = statistics.median(vals)
        else:
            value = sum(vals)
        pooled[name] = {"value": value, "unit": unit}
    return pooled


def per_layer_metrics(runs):
    metrics = pool_layers(runs.traced)
    for name, unit in layer_units().items():
        metrics.setdefault(name, {"value": 0.0, "unit": unit})
    traced_wall = sum(r["run_wall_s"] for r in runs.traced)
    untraced_wall = sum(r["run_wall_s"] for r in runs.first)
    metrics["trace_overhead_pct"] = {
        "value": 100.0 * (traced_wall / untraced_wall - 1.0), "unit": "%"}
    values = run_figures(runs)
    metrics.update(with_units({k: values[k] for k in UNBOUNDED}))
    return metrics


# ---------------------------------------------------------------------------
# Entry point.

def result(runs, errors, metrics):
    """The printed result. Operations are those of the run's distinct draws:
    repeats and traced runs simulate the same draws again (the gate checks
    that they reproduce them), so the counts depend on the seed alone, not
    on how many repeats fit in --seconds. A run that fails the correctness
    gate counts all of its operations as failed."""
    attempted = int(sum(offered_ops(r) for r in runs.first))
    failed = int(sum(failed_ops(r) for r in runs.first))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": attempted if errors else failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(DRAWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        runner = build()
        runs = measure(runner, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    errors = check_runs(runs)
    for e in errors:
        print(f"perfbench: correctness check failed: {e}", file=sys.stderr)
    if args.trace:
        metrics = per_layer_metrics(runs)
    else:
        metrics = end_to_end_metrics(runs)
    print(json.dumps(result(runs, errors, metrics)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
