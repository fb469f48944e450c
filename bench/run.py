"""incalg benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample runs in a fresh interpreter (``bench/sample.py``), one at a time,
single-threaded, because that is how ``incalg verify`` meets its users: the
table and potent caches are per process. The program is imported from
``src/`` of this checkout; nothing is installed or compiled.

``--trace 0`` runs samples until ``--seconds`` have passed (at least
MIN_SAMPLES) and reports the end-to-end metrics. ``--trace 1`` runs one
untraced and two traced samples and reports the per-layer metrics, the
tracing overhead, and whether the traced run reproduced the untraced output.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine facts and the raw per-sample figures.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-kpotent-c2-gf7", "verify-z2-vee-gf2", "factor-vee-gf5",
             "oracle-c2-gf5")
MIN_SAMPLES = 3
MIN_SETUPS = 9       # set-up time is the median of at least this many starts
DEADLINE_S = 150     # never start a sample after this; the run must end < 180 s
TRACED_SAMPLES = 2


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", INCALG_NO_NUMBA="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


class SampleCrashed(Exception):
    pass


def spawn(workload, seed, mode, deadline):
    """Run one sample in a fresh interpreter and return its JSON result."""
    timeout = max(5.0, deadline - time.monotonic())
    spawn_t = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "sample.py"), workload, str(seed),
             mode, repr(spawn_t)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise SampleCrashed(f"{mode} sample timed out after {timeout:.0f} s") from e
    if proc.returncode != 0:
        raise SampleCrashed(f"{mode} sample exited with {proc.returncode}: "
                            f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(workload, seed, seconds, deadline):
    samples = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples) if samples else 0.0
        if len(samples) >= MIN_SAMPLES and elapsed + per_sample > seconds:
            break
        if samples and time.monotonic() > deadline:
            break
        samples.append(spawn(workload, seed, "plain", deadline + 25))
    setups = [s["setup_s"] for s in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "probe", deadline + 25)["setup_s"])
    op_ms = [t for s in samples for t in s["op_ms"]]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    metrics = {
        "wall_s": metric(statistics.median(s["wall_s"] for s in samples), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(s["rss_mb"] for s in samples),
                              "MB"),
        "op_ms_p95": metric(percentile(op_ms, 0.95), "ms"),
        "ok_frac": metric(1 - failed / attempted, "frac"),
    }
    # The per-operation median is printed but is no metric: under host
    # contention per-operation times split into a fast and a slow mode, and
    # the median jumps between them from run to run.
    raw = {"wall_s": [s["wall_s"] for s in samples], "setup_s": setups,
           "rss_mb": [s["rss_mb"] for s in samples], "n_ops": len(op_ms),
           "op_ms_p50": percentile(op_ms, 0.50)}
    return samples, attempted, failed, metrics, raw


def layer_metrics(traced, plain):
    """Per-layer metrics from the traced samples (median of their values)."""
    def med(get):
        return statistics.median(get(t["trace"]) for t in traced)

    counts = traced[0]["trace"]["counts"]
    out = {}

    def span(name):
        out[f"{name}.s"] = metric(med(lambda t: t["s"][name]), "s")

    span("kernels.sweep_gl")
    sweep_s = out["kernels.sweep_gl.s"]["value"]
    n_maps = counts["kernels.sweep_gl.n_maps"]
    out["kernels.sweep_gl.maps_per_s"] = metric(
        n_maps / sweep_s if sweep_s else 0.0, "1/s")
    for key in ("kernels.sweep_gl.n_maps", "kernels.sweep_gl.preservers",
                "kernels.sweep_gl.lie_maps"):
        out[key] = metric(counts[key], "count")
    span("kernels.build_sweep_tables")
    span("potents.potent_code_tables")
    out["potents.npot"] = metric(counts["potents.npot"], "count")
    for name in ("families.jordan_like_maps", "families.scaled_maps",
                 "families.bijective_shifts"):
        span(name)
    compositions = counts["families.compose.calls"]
    out["families.compose.calls"] = metric(compositions, "count")
    out["families.distinct_ratio"] = metric(
        counts["families.distinct"] / compositions if compositions else 0.0,
        "ratio")
    for name in ("classify.classify_preserver", "classify.jordan_decompose",
                 "classify.z2_decompose", "classify.scalar_split"):
        span(name)
        out[f"{name}.calls"] = metric(counts[f"{name}.calls"], "count")
    name = "linmaps.is_k_potent_preserver"
    span(name)
    calls = counts[f"{name}.calls"]
    out[f"{name}.calls"] = metric(calls, "count")
    out[f"{name}.us_per_call"] = metric(
        out[f"{name}.s"]["value"] / calls * 1e6 if calls else 0.0, "us")
    out[f"{name}.potents_checked"] = metric(counts[f"{name}.potents_checked"],
                                            "count")
    out["algebra.convolve.calls"] = metric(counts["algebra.convolve.calls"],
                                           "count")
    span("gl.enumerate_gl")
    out["gl.enumerate_gl.maps"] = metric(counts["gl.enumerate_gl.maps"],
                                         "count")
    span("verify.verify_theorem")
    out["verify.verify_theorem.self_s"] = metric(
        med(lambda t: t["self_s"]["verify.verify_theorem"]), "s")
    span("cli.main")

    traced_wall = statistics.median(t["wall_s"] for t in traced)
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - plain["wall_s"], "s")
    out["trace.accounted_frac"] = metric(
        med(lambda t: t["root_s"]) / traced_wall, "frac")
    return out


def run_traced(workload, seed, deadline):
    plain = spawn(workload, seed, "plain", deadline + 25)
    traced = [spawn(workload, seed, "traced", deadline + 25)
              for _ in range(TRACED_SAMPLES)]
    samples = [plain] + traced
    problems = []
    first = traced[0]["trace"]
    for t in traced[1:]:
        for key, value in first["counts"].items():
            if t["trace"]["counts"][key] != value:
                problems.append(f"count {key} differs between traced samples: "
                                f"{value} vs {t['trace']['counts'][key]}")
        if t["trace"]["sweep_digest"] != first["sweep_digest"]:
            problems.append("sweep preserver lists differ between traced "
                            "samples")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    raw = {"wall_s": {"plain": plain["wall_s"],
                      "traced": [t["wall_s"] for t in traced]},
           "counts": first["counts"], "edges_s": first["edges"]}
    return (samples, attempted, failed, layer_metrics(traced, plain), raw,
            problems)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "incalg" / "__init__.py").is_file():
        print(f"error: the program is missing: no {SRC / 'incalg'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # Untimed first start: fills the bytecode cache and the page cache,
        # and fails fast when the program cannot be imported.
        machine = spawn(args.workload, args.seed, "probe", deadline)["machine"]
        if args.trace:
            samples, attempted, failed, metrics, raw, problems = run_traced(
                args.workload, args.seed, deadline)
        else:
            samples, attempted, failed, metrics, raw = run_plain(
                args.workload, args.seed, args.seconds, deadline)
            problems = []
    except SampleCrashed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for i, s in enumerate(samples):
        problems += [f"sample {i}: {p}" for p in s["problems"]]
    if len({s["digest"] for s in samples}) != 1:
        problems.append("samples of the same inputs gave different outputs")
    correct = failed == 0 and not problems

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine,
                      "samples": len(samples), "raw": raw,
                      "problems": problems}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
