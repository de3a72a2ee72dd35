"""specherit benchmark: one command, one workload per invocation.

    python3 bench/run.py --workload {estimate-file,mc-study,traits} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. The
run makes its inputs once, untimed, then sets its workload up five times
with the program's own calls (``setup_s`` is the median), then
measures whole passes of public calls for ``--seconds`` seconds, then
checks the outputs. Inputs depend only on the seed. BLAS threads are left
as the environment sets them and recorded in the provenance block.

``--trace 0`` interleaves warm passes with cold child processes and reports
the end-to-end metrics. ``--trace 1`` alternates untraced and traced
passes, with no children, and reports per-layer self times per work item,
exact solver counts per pass and the tracing overhead; the spans are written
to ``.bench_work/spans-<workload>-<seed>.jsonl``. bench/NOTES.md lists the
metrics and the end-to-end metric each per-layer one should move.

Standard output ends with two JSON lines: a report (provenance, the metric
names of the workload's own vocabulary, sample counts, failures) and the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
MODULES = ("harness", "synthcohort", "spectral", "likelihood", "inference")

# Spans whose self time per work item is a per-layer metric.
SELF_TIMES = (
    "harness.read_genotypes",
    "harness.estimate_files",
    "harness.run_study",
    "synthcohort.sample_genotypes",
    "synthcohort.simulate_cohort",
    "spectral.standardize",
    "spectral.residualize",
    "spectral.kinship",
    "spectral.eigendecompose",
    "spectral.rotate",
    "likelihood.newton_estimate",
    "likelihood.loglik_grid",
    "inference.build_report",
)
SOLVER_COUNTS = (
    "derivative_calls", "newton_iterations", "grid_overrides", "clamped_fits", "zero_fits",
)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies, so the
    median is returned. Returns (value, percentile).
    """
    ordered = sorted(samples)
    k = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool, work: str):
    """Prepare, set up, run passes for ``seconds``, verify. Returns the raw samples."""
    workload.prepare(seed, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    tracer = Tracer() if trace else None
    raw = {"setup": setups, "latency": [], "cold": [], "pass_s": {True: [], False: []}}
    deadline = time.perf_counter() + seconds
    step = 0
    while step < 2 or time.perf_counter() < deadline:
        traced = trace and step % 2 == 1
        step += 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw["latency"].extend(workload.run_pass())
        except Exception:  # a failing call is counted and the loop goes on
            workload.fail(traceback.format_exc(limit=3), workload.items_per_pass)
        finally:
            if traced:
                tracer.uninstall()
        raw["pass_s"][traced].append(time.perf_counter() - t0)
        if not trace:
            try:
                raw["cold"].append(workload.cold())
            except Exception:
                workload.fail(traceback.format_exc(limit=3))
    try:
        workload.verify()
    except Exception:
        workload.fail(traceback.format_exc(limit=3))
    return raw, tracer


def end_to_end(workload, raw) -> dict:
    """Metrics a caller sees, each a median over the run's samples."""
    return {
        "setup_s": (statistics.median(raw["setup"]), "s"),
        "throughput_per_s": (
            workload.items_per_pass / statistics.median(raw["pass_s"][False]), "1/s"),
        "call_s_p50": (statistics.median(raw["latency"]), "s"),
        "cold_start_s": (statistics.median(raw["cold"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(workload, raw, tracer) -> dict:
    passes = len(raw["pass_s"][True])
    items = workload.items_per_pass * passes
    wall = sum(raw["pass_s"][True])
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (selfs.get(name, 0.0) / items, "s/item")
    # Work items are replicates wherever run_study runs.
    out["harness.run_study.cpu_s_per_replicate"] = (
        counts["harness.run_study.cpu_s"] / items if "harness.run_study" in selfs else 0.0,
        "s/item")
    flop, kin_s = counts["spectral.kinship.flop"], selfs.get("spectral.kinship", 0.0)
    out["spectral.kinship.gflop"] = (flop / 1e9 / items, "GFLOP/item")
    out["spectral.kinship.bytes"] = (counts["spectral.kinship.bytes"] / items, "B/item")
    out["spectral.kinship.gflop_per_s"] = (flop / 1e9 / kin_s if kin_s else 0.0, "GFLOP/s")
    calls = counts["spectral.eigendecompose.calls"]
    out["spectral.eigendecompose.null_dim"] = (
        counts["spectral.eigendecompose.null_dim"] / calls if calls else 0.0, "count/call")
    # Exact counts per pass (every pass of a run makes the same calls) and
    # as shares of Newton solves.
    solves = counts["likelihood.solves"]
    counts["likelihood.derivative_calls"] = (
        counts["likelihood.dloglik"] + counts["likelihood.d2loglik"])
    for name in SOLVER_COUNTS:
        total = counts[f"likelihood.{name}"]
        out[f"likelihood.{name}"] = (total / passes, "count/pass")
        out[f"likelihood.{name}_per_solve"] = (total / solves if solves else 0.0, "ratio")
    attributed = 0.0
    for module in MODULES:
        share = sum(v for k, v in selfs.items() if k.startswith(module + ".")) / wall
        attributed += share
        out[f"{module}.share"] = (share, "fraction")
    out["unattributed.share"] = (1.0 - attributed, "fraction")
    untraced = statistics.median(raw["pass_s"][False])
    out["tracing.overhead_frac"] = (statistics.median(raw["pass_s"][True]) / untraced - 1.0,
                                    "fraction")
    return out


def named(name: str, metrics: dict, raw, failed_frac: float) -> dict:
    """The end-to-end metrics under the names of the workload's own vocabulary.

    The tails are printed here but not bounded in BENCHMARK.json: on a
    shared virtual machine their run-to-run spread exceeds any usable bound.
    """
    slow = (tail(raw["latency"])[0], "s")
    common = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
              "failed_frac": (failed_frac, "ratio")}
    if name == "estimate-file":
        return {**common, "estimate_s_p50": metrics["call_s_p50"], "estimate_s_tail": slow,
                "cli_estimate_s": metrics["cold_start_s"]}
    if name == "traits":
        return {**common, "traits_per_s": metrics["throughput_per_s"],
                "trait_s_p50": metrics["call_s_p50"], "trait_s_tail": slow}
    return {**common, "replicates_per_s": metrics["throughput_per_s"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("estimate-file", "mc-study", "traits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "specherit", "__init__.py")):
        print(f"error: no specherit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import provenance
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        raw, tracer = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not raw["latency"] or not (raw["cold"] or args.trace):
        print("error: no call completed", file=sys.stderr)
        for message in workload.failures[:3]:
            print(message, file=sys.stderr)
        return 1

    attempted = max(workload.attempted, 1)
    failed = min(len(workload.failures), attempted)
    if args.trace:
        metrics = per_layer(workload, raw, tracer)
        tracer.dump(os.path.join(base, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(workload, raw)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance.collect(ROOT, args.seed, workload.csv_sha256),
        "samples": {
            "setups": len(raw["setup"]),
            "calls": len(raw["latency"]),
            "tail_percentile": tail(raw["latency"])[1],
            "cold_children": len(raw["cold"]),
            "passes_untraced": len(raw["pass_s"][False]),
            "passes_traced": len(raw["pass_s"][True]),
        },
        "failures": workload.failures[:5],
    }
    if not args.trace:
        own_names = named(args.workload, metrics, raw, failed / attempted)
        report["named"] = {k: {"value": v, "unit": u} for k, (v, u) in own_names.items()}
    print(json.dumps(report))
    print(json.dumps({
        "correct": not workload.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
