"""thermion benchmark: end-to-end and per-layer metrics of four CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 33 --trace 0

Each sample is a fresh process (perfbench/sample.py) that calls
``thermion.cli.main`` once on the workload's arguments; samples run one
after another (a closed loop with one client) until the next one, taking
the median sample time, would overrun ``--seconds``; at least MIN_SAMPLES
run (three when traced).  Every report is checked against the reference
pinned from the seed commit in perfbench/reference/.  ``--trace 0`` prints the end-to-end metrics (medians
over the samples); ``--trace 1`` alternates traced and untraced samples and
prints the per-layer metrics of the traced ones.  The last line of standard
output is one JSON object; the lines before it are a readable table.
Without ``--workload`` every workload runs in turn.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (CLI arguments, absolute tolerance on check values, compare series)
# Check values agree with the reference when |v - ref| <= atol + RTOL |ref|.
# RTOL is above the quadrature (quad epsrel 1.5e-8) and ARPACK (tol 1e-10)
# relative errors; atol is the absolute error of the solver behind each
# workload's checks: ARPACK at tol 1e-10 (chain, virial), the survival
# series' Krylov budget of 1e-8 per step over 60 steps, and roundoff for the
# quadratures (fgr).
WORKLOADS = {
    "chain": (["bound-chain", "model.n_e=24", "model.n_u=24",
               "model.n_max=1"], 1e-10, False),
    "survival": (["dynamics"], 2e-6, True),
    "virial": (["virial-scan", "model.n_e=10", "model.n_u=20"], 1e-10, False),
    "fgr": (["fgr", "fgr.eps_list=[0.2,0.1]"], 1e-12, False),
}
RTOL = 1e-6

BLAS_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 2          # a traced run takes one more, so that two are traced
HARD_LIMIT_S = 150.0     # a run must end within 180 s

LAYERS = ("lattice", "operators", "flows", "commutators", "fgr", "feshbach",
          "virial", "dynamics", "linalg")
# function-level metrics: (function, field)
FUNCTION_METRICS = (
    ("linalg.lanczos_decomposition", "calls"),
    ("linalg.lanczos_decomposition", "self_s"),
    ("linalg.min_eig_hermitian", "calls"),
    ("linalg.min_eig_hermitian", "self_s"),
    ("linalg.eig_pairs_smallest", "self_s"),
    ("linalg.operator_norm", "self_s"),
    ("operators.assemble_liouvillian", "calls"),
    ("operators.assemble_conjugates", "calls"),
    ("operators.hermitize", "self_s"),
    ("operators.kron3", "self_s"),
    ("commutators.interaction_commutator", "calls"),
    ("commutators.interaction_commutator", "self_s"),
    ("commutators.estimate_small_coupling_bound", "self_s"),
    ("feshbach.feshbach_map", "self_s"),
    ("virial.build_regularized_family", "self_s"),
    ("virial.bandlimited_mollifier", "self_s"),
    ("dynamics.evolve", "calls"),
    ("fgr.gamma_regularized", "calls"),
    ("fgr.gamma_regularized", "self_s"),
)


def provenance() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", blas["name"]).split())
    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {config}, "
            f"nproc {len(os.sched_getaffinity(0))}, "
            f"BLAS threads {blas_threads()}")


def blas_threads() -> int:
    return min(BLAS_THREADS, len(os.sched_getaffinity(0)))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(blas_threads())
    return env


def run_sample(root, work, index, cli_args, traced, timeout):
    """One fresh process; returns (result dict or None, report bytes or
    None, why it failed or None)."""
    out = os.path.join(work, f"sample{index}")
    result_path = os.path.join(work, f"sample{index}.json")
    trace_path = os.path.join(work, f"spans{index}.json") if traced else "-"
    args = [sys.executable, os.path.join(HERE, "sample.py"), result_path,
            trace_path, *cli_args, "--out", out, "--format", "json"]
    env = child_env(root)
    with open(os.path.join(work, f"sample{index}.log"), "w") as log:
        env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
        proc = subprocess.Popen(args, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, None, f"killed after {timeout:.0f} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, None, f"harness exited {proc.returncode}, see {log.name}"
    with open(result_path) as fh:
        result = json.load(fh)
    if result["error"]:
        return result, None, result["error"].strip().splitlines()[-1]
    report_path = os.path.join(out, f"{cli_args[0]}.json")
    if not os.path.exists(report_path):
        return result, None, f"exit {result['code']} without a report"
    with open(report_path, "rb") as fh:
        return result, fh.read(), None


def _close(value, ref, atol) -> bool:
    if not (math.isfinite(value) and math.isfinite(ref)):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return abs(value - ref) <= atol + RTOL * abs(ref)


def disagreements(report: dict, ref: dict, atol: float, series: bool):
    """Where a report departs from the pinned reference (empty if nowhere)."""
    names = [c["check"] for c in report["checks"]]
    ref_names = [c["check"] for c in ref["checks"]]
    if names != ref_names:
        return [f"checks {names} differ from the reference {ref_names}"]
    out = []
    for c, r in zip(report["checks"], ref["checks"]):
        if c["passed"] != r["passed"]:
            out.append(f"{c['check']!r}: passed={c['passed']}, "
                       f"reference {r['passed']}")
        if not _close(c["value"], r["value"], atol):
            out.append(f"{c['check']!r}: value {c['value']!r}, "
                       f"reference {r['value']!r}")
    if series:
        if len(report["series"]) != len(ref["series"]):
            return out + ["series count differs from the reference"]
        for i, (s, r) in enumerate(zip(report["series"], ref["series"])):
            if len(s["values"]) != len(r["values"]) or not all(
                    _close(a, b, 0.0) for a, b in zip(s["times"], r["times"])):
                out.append(f"series {i}: sample times differ")
            elif not all(_close(a, b, atol)
                         for a, b in zip(s["values"], r["values"])):
                out.append(f"series {i}: values differ beyond {atol:g}")
    return out


def trace_counts(summary: dict) -> dict:
    """The parts of a trace summary that must repeat exactly."""
    return {"functions": {n: f["calls"]
                          for n, f in summary["functions"].items()},
            "library": summary["library"],
            "assembly_keys": summary["assembly_keys"]}


def layer_metrics(summaries: list, overhead_s: float) -> dict:
    """Per-layer metrics: counts from the first traced sample (they repeat
    exactly), times and memory as medians over the traced samples."""
    first = summaries[0]

    def med(get):
        return statistics.median(get(s) for s in summaries)

    def calls(fn):
        return first["functions"].get(fn, {"calls": 0})["calls"]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        for field, unit in (("self_s", "s"), ("rss_rise_mb", "MB")):
            metrics[f"{layer}.{field}"] = (
                med(lambda s: s["layers"][layer][field]), unit)
    for fn, field in FUNCTION_METRICS:
        if field == "calls":
            metrics[f"{fn}.calls"] = (calls(fn), "count")
        else:
            metrics[f"{fn}.self_s"] = (med(
                lambda s: s["functions"].get(fn, {"self_s": 0.0})["self_s"]),
                "s")
    lib = first["library"]
    matvecs = calls("operators.LiouvillianAction.matvec")
    metrics["linalg.arpack_calls"] = (lib["arpack"], "count")
    metrics["linalg.dense_eigh_calls"] = (lib["dense_eigh"], "count")
    metrics["feshbach.splu_factorizations"] = (lib["splu"], "count")
    metrics["operators.matvecs"] = (matvecs, "count")

    # ratios; 0 where the base is 0 (the workload never reaches the layer)
    def ratio(num, base):
        return num / base if base else 0.0

    evolves = calls("dynamics.evolve")
    metrics["dynamics.lanczos_runs_per_step"] = (
        ratio(calls("linalg.lanczos_decomposition"), evolves), "runs/step")
    # base: sample times of every survival series (one per evolve, plus
    # the t=0 sample of each series, which needs no step)
    metrics["dynamics.matvecs_per_sample"] = (
        ratio(matvecs, evolves + calls("dynamics.survival")), "matvecs/sample")
    metrics["operators.assembly_reuse"] = (
        ratio(first["assembly_keys"], calls("operators.assemble_liouvillian")),
        "keys/call")
    metrics["trace_overhead_s"] = (overhead_s, "s")
    return metrics


def run_workload(root: str, name: str, seed: int, seconds: float,
                 trace: bool):
    cli_args, atol, series = WORKLOADS[name]
    cli_args = [*cli_args, "--seed", str(seed)]
    with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
        ref = json.load(fh)
    expected_code = 0 if all(c["passed"] for c in ref["checks"]) else 2

    work = os.path.join(root, ".perfbench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    samples = []         # (traced, result, failure)
    first_report = first_counts = None
    durations = []
    start = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 0
        elapsed = time.monotonic() - start
        result, report, failure = run_sample(
            root, work, len(samples), cli_args, traced,
            timeout=max(1.0, HARD_LIMIT_S - elapsed))
        if failure is None and result["code"] != expected_code:
            failure = f"exit {result['code']}, reference {expected_code}"
        if failure is None:
            problems = disagreements(json.loads(report), ref, atol, series)
            if problems:
                failure = "; ".join(problems)
        if failure is None:
            if first_report is None:
                first_report = report
            elif report != first_report:
                failure = "report bytes differ from the run's first sample"
        if failure is None and traced:
            counts = trace_counts(result["trace"])
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                failure = "trace counts differ from the first traced sample"
        if failure is not None:
            print(f"sample {len(samples)} failed: {failure}", file=sys.stderr)
        samples.append((traced, result, failure))

        durations.append(time.monotonic() - start - elapsed)
        elapsed = time.monotonic() - start
        if (len(samples) >= MIN_SAMPLES + trace
                and elapsed + statistics.median(durations) > seconds):
            break
        if elapsed + max(durations) > HARD_LIMIT_S:
            break

    plain = [r for t, r, _ in samples if not t and r is not None]
    traced_ok = [r for t, r, f in samples if t and f is None]
    failed = sum(1 for _, _, f in samples if f is not None)
    if not plain or (trace and not traced_ok):
        print(f"{name}: no sample completed", file=sys.stderr)
        return None

    e2e = {"wall_s": ("s", [r["wall_s"] for r in plain]),
           "setup_s": ("s", [r["setup_s"] for r in plain]),
           "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in plain])}
    print(f"{name}: thermion {' '.join(cli_args)}")
    print(f"  {provenance()}")
    print(f"  {'metric':<14}{'median':>12}  {'unit':<6}{'samples':>8}"
          f"{'min':>12}{'max':>12}")
    for metric, (unit, values) in e2e.items():
        print(f"  {metric:<14}{statistics.median(values):>12.4f}  {unit:<6}"
              f"{len(values):>8}{min(values):>12.4f}{max(values):>12.4f}")
    print(f"  {'failed_frac':<14}{failed / len(samples):>12.4f}  "
          f"{'1':<6}{len(samples):>8}   ({failed} of {len(samples)} "
          f"samples failed)")
    if not trace:
        metrics = {m: (statistics.median(v), u) for m, (u, v) in e2e.items()}
    else:
        overhead = (statistics.median(r["wall_s"] for r in traced_ok)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics = layer_metrics([r["trace"] for r in traced_ok], overhead)
        print(f"  per-layer metrics, {len(traced_ok)} traced samples:")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<46}{value:>14.6g}  {unit}")
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": u}
                        for m, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running sample is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thermion", "cli.py")):
        print("perfbench: run from a thermion checkout (no src/thermion "
              "here)", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        out = run_workload(root, name, args.seed, args.seconds,
                           bool(args.trace))
        if out is None:
            return 1
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
