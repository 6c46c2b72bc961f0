"""Benchmark of the ncsq package, end to end and per layer.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Every repetition runs in a fresh worker process (bench/workloads.py), so
the interpreter starts fresh, the package import is left out of the
timing, and the worker's peak resident memory comes from ``os.wait4``.
Repetitions run within a window of ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics: medians of
``wall_s`` and ``peak_rss_mb`` over the repetitions, and ``setup_s``,
the median time of ``import ncsq.cli`` in fresh processes.  With
``--trace 1`` untraced and traced repetitions alternate, and the run
reports the per-layer metrics of the traced ones (see bench/spans.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any output check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

from machine import machine  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    # check-c40: dense operator builds, dense expm, identity_suite
    ("fock.build_operator_set.calls", "count"),
    ("fock.build_operator_set.self_s", "s"),
    ("fock.phase_space_ops.self_s", "s"),
    ("fock.dense_bytes", "B"),
    ("fock.matrix_exp.calls", "count"),
    ("fock.matrix_exp.self_s", "s"),
    ("fock.expm.calls", "count"),
    ("fock.expm.self_s", "s"),
    ("verifier.identity_suite.self_s", "s"),
    ("verifier.algebra_residuals.self_s", "s"),
    ("verifier.adjoint_mode_transform.self_s", "s"),
    # check-c40, ungated: a known displacement_property defect (workloads.py)
    ("fock.displacement_op.residual_r07", "1"),
    # crosscheck-c30: state preparation and expectations per case
    ("fock.deformed_vacuum.self_s", "s"),
    ("fock.make_state.calls", "count"),
    ("fock.make_state.self_s", "s"),
    ("fock.expm_multiply.calls", "count"),
    ("fock.expm_multiply.self_s", "s"),
    ("fock.expectation_and_variance.calls", "count"),
    ("fock.expectation_and_variance.self_s", "s"),
    ("verifier.crosscheck_suite.case_s", "s"),
    # a few calls per workload: parameters, scalar closed forms and the CLI
    ("params.make_params.calls", "count"),
    ("params.make_params.self_s", "s"),
    ("analytic.single_mode_report.calls", "count"),
    ("analytic.single_mode_report.self_s", "s"),
    ("analytic.two_mode_report.calls", "count"),
    ("analytic.two_mode_report.self_s", "s"),
    ("cli.run.self_s", "s"),
    # mc-overcompleteness: array closed forms
    ("verifier.overcompleteness_mc.probe_s", "s"),
    # every workload
    ("trace.overhead_frac", "ratio"),
)

# The ROADMAP Baseline per-layer table: inclusive time per call.
BASELINE_LAYERS = ("fock.build_operator_set", "fock.deformed_vacuum", "fock.make_state",
                   "verifier.algebra_residuals", "verifier.adjoint_mode_transform",
                   "verifier.identity_suite")

SETUP_PROBES = 7
IMPORT_PROBE = ("import time\nstart = time.perf_counter()\nimport ncsq.cli\n"
                "print(time.perf_counter() - start)\n")
RUN_BUDGET_S = 150.0  # a run has to exit within 180 s
# Untraced repetitions per run: the median of three drops one slow outlier.
# One check-c40 repetition already takes about 20 s.  Past the minimum, a
# repetition starts only if one of median length still ends within
# --seconds, so every run fits its window instead of overshooting by up to
# one repetition.
MIN_REPS = {"check-c40": 1}
DEFAULT_MIN_REPS = 3
RECORDED_ENV = ("NCSQ_THREADS", "OPENBLAS_NUM_THREADS")


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its resource usage; kill it past ``deadline``.

    The wait blocks, so this process does not wake while the worker runs.
    """
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def import_time(env: Dict[str, str]) -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def run_rep(workload: str, inputs: dict, trace: bool, work: Path,
            env: Dict[str, str], deadline: float) -> dict:
    """One repetition in a fresh worker; adds its peak RSS to the result."""
    rep = Path(tempfile.mkdtemp(dir=work))
    spec, result = rep / "spec.json", rep / "result.json"
    spec.write_text(json.dumps({"workload": workload, "inputs": inputs,
                                "trace": trace, "work": str(rep)}))
    proc = subprocess.Popen([sys.executable, str(BENCH / "workloads.py"), str(spec),
                             str(result)], env=env, cwd=ROOT, stdout=sys.stderr)
    code, usage = _wait(proc, deadline)
    if code != 0 or not result.is_file():
        out = {"wall_s": None, "attempted": 1, "failed": 1,
               "errors": ["worker exited with code %d" % code], "extra": {}}
    else:
        out = json.loads(result.read_text())
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    shutil.rmtree(rep)
    return out


def layer_metrics(rep: dict) -> Dict[str, float]:
    """Per-layer values of one traced repetition (0 where a layer did not run)."""
    totals = rep["totals"]
    values: Dict[str, float] = {}
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        tot = totals.get(span, {})
        if name == "fock.dense_bytes":
            value = rep["dense_bytes"]
        elif name == "fock.displacement_op.residual_r07":
            value = rep.get("displacement_residual", 0.0)
        elif name == "trace.overhead_frac":
            continue
        elif kind in ("calls", "self_s"):
            value = tot.get(kind, 0)
        elif kind in ("case_s", "probe_s"):
            value = tot["total_s"] / tot["units"] if tot.get("units") else 0.0
        else:
            raise ValueError("no rule for metric %r" % name)
        values[name] = value
    return values


def _mismatched_estimates(reps: List[dict]) -> int:
    """Probes whose Monte Carlo estimate differs from the first repetition's."""
    runs = [rep["extra"].get("estimates") or [] for rep in reps]
    return sum(a != b for other in runs[1:] for a, b in zip_longest(runs[0], other))


def _repeat(workload: str, inputs: dict, seconds: float, trace: bool,
            env: Dict[str, str], started: float) -> Tuple[List[dict], List[dict]]:
    """Untraced and (when tracing) traced repetitions, alternating."""
    min_reps = 1 if trace else MIN_REPS.get(workload, DEFAULT_MIN_REPS)
    plain: List[dict] = []
    traced: List[dict] = []
    lengths: List[float] = []
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        begin = time.monotonic()
        while True:
            is_traced = trace and len(traced) < len(plain)
            t0 = time.monotonic()
            rep = run_rep(workload, inputs, is_traced, work, env,
                          deadline=started + RUN_BUDGET_S + 25.0)
            (traced if is_traced else plain).append(rep)
            now = time.monotonic()
            lengths.append(now - t0)
            if trace and not traced:
                continue
            if now - begin + statistics.median(lengths) > seconds and len(plain) >= min_reps:
                break
            if now + max(lengths) - started > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return plain, traced


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All repetitions of one workload run; returns metrics and details."""
    started = time.monotonic()
    env = _child_env()
    inputs = make_inputs(workload, seed)
    setup: List[float] = []
    if not trace:
        import_time(env)  # the first import may compile bytecode
        setup = [import_time(env) for _ in range(SETUP_PROBES)]
    plain, traced = _repeat(workload, inputs, seconds, trace, env, started)

    reps = plain + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failed = min(attempted, sum(rep["failed"] for rep in reps) + _mismatched_estimates(reps))
    walls = [rep["wall_s"] for rep in plain if rep["wall_s"] is not None]
    result = {"workload": workload, "seed": seed, "trace": trace,
              "inputs": inputs, "reps": len(plain), "traced_reps": len(traced),
              "attempted": attempted, "failed": failed,
              "errors": [e for rep in reps for e in rep["errors"]][:20],
              "walls": walls, "setup": setup,
              "software": next((rep["software"] for rep in reps if "software" in rep), {}),
              "machine": machine(ROOT),
              "env": {name: env.get(name, "unset") for name in RECORDED_ENV}}
    metrics: Dict[str, Tuple[float, str]] = {}
    complete = len(walls) == len(plain) and all(rep["wall_s"] is not None for rep in traced)
    if complete and not trace:
        metrics["wall_s"] = (statistics.median(walls), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in plain), "MB")
    elif complete:
        per_rep = [layer_metrics(rep) for rep in traced]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(walls) - 1.0)
            else:
                # counts repeat exactly; median_low keeps them whole
                pick = statistics.median_low if unit in ("count", "B") else statistics.median
                value = pick(values[name] for values in per_rep)
            metrics[name] = (value, unit)
        result["totals"] = traced[0]["totals"]
        result["spans"] = traced[0]["spans"]
    result["metrics"] = metrics
    return result


def _report(result: dict) -> None:
    """Human-readable lines, all before the final JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print("%s seed %d: %d reps%s, %d/%d operations failed (failed_frac %.6g)" % (
        result["workload"], result["seed"], result["reps"],
        " + %d traced" % result["traced_reps"] if result["trace"] else "",
        failed, attempted, failed / attempted))
    for error in result["errors"][:5]:
        print("  error: %s" % error.strip().replace("\n", " | "))
    for name, (value, unit) in result["metrics"].items():
        print("  %-42s %.6g %s" % (name, value, unit))
    totals = result.get("totals", {})
    for name in BASELINE_LAYERS:
        if totals.get(name, {}).get("calls"):
            tot = totals[name]
            print("  per call %-33s %.1f ms (%d calls)" % (
                name, 1e3 * tot["total_s"] / tot["calls"], tot["calls"]))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not (ROOT / "src" / "ncsq" / "__init__.py").is_file():
        print("bench: no ncsq source at %s" % (ROOT / "src" / "ncsq"), file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    OUT.mkdir(exist_ok=True)
    for result in results:
        _report(result)
        path = OUT / ("result-%s-seed%d-trace%d.json" % (result["workload"], args.seed, args.trace))
        path.write_text(json.dumps(result, indent=1))
    for result in results:
        print("provenance %s %s" % (result["workload"], json.dumps(
            {key: result[key] for key in ("machine", "software", "env")})))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    prefix = len(results) > 1
    metrics = {("%s.%s" % (r["workload"], name) if prefix else name):
               {"value": value, "unit": unit}
               for r in results for name, (value, unit) in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
