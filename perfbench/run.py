"""Verdict benchmark for selfconcord: time to an exact verdict, and coverage.

Run from the repository root:

    python3 perfbench/run.py --workload relax-ladder --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): relax-ladder, small-sweep, oracle-ladder.
Each is a fixed, seeded list of decisions.  The parent process builds it,
computes ground truth with `clique_number`, and then runs whole passes over
it, each in a fresh worker process (cold caches, its own peak RSS, BLAS
pinned to one thread), one decision at a time, until --seconds have been
used: at least one pass, and another only if the run then ends nearer the
deadline.  In untraced runs, set-up time is measured on seven more worker
processes that stop once their inputs are built.

Every verdict is checked against the clique number, and every NOT witness
is re-verified with `violates_cubic` / `violates_quartic` in exact
arithmetic, outside the timed region.  All passes must print byte-identical
verdicts; their SHA-256 is reported as the verdict digest.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports per-layer metrics from the
traced ones (spans are also written to .perfbench_out/).  The last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.

Exit status: 0 when every verdict is right, 1 on a wrong or unrepeatable
verdict, 2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# numpy's OpenBLAS would otherwise use every core for the SVD and for
# eval_form_batch; one thread keeps runs comparable and is <= nproc.
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_SAMPLES = 7

NOT, SC, UNDECIDED = "NOT_SELF_CONCORDANT", "SELF_CONCORDANT", "UNDECIDED"


@dataclass
class Pass:
    setup_s: float
    results: list  # one dict per decision: {"s": seconds, "verdict": ...} or {"s", "error"}
    done: dict  # loop_s, maxrss_kb, caches and (traced) trace summary
    traced: bool

    def digest(self) -> str:
        h = hashlib.sha256()
        for r in self.results:
            h.update(json.dumps(r.get("verdict") or {"error": r["error"]}, sort_keys=True).encode())
            h.update(b"\n")
        return h.hexdigest()


def run_worker(job_text: str, traced: bool) -> Pass:
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    spawned = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    ) as proc:
        try:
            proc.stdin.write(job_text)
            proc.stdin.close()
            lines = [json.loads(line) for line in proc.stdout]
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise RuntimeError(f"worker failed with exit status {proc.returncode}")
    setup_s = lines[0]["ready"] - spawned
    if len(lines) == 1:
        return Pass(setup_s, [], {}, traced)
    return Pass(setup_s, lines[1:-1], lines[-1], traced)


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of all order statistics, in place of the single
    nearest-rank sample: decision times form clusters (one per gadget
    dimension), and a lone order statistic jumps between clusters from run
    to run.  The Beta density is integrated numerically on a grid around
    its mean, which needs nothing beyond numpy.
    """
    import numpy as np  # imported only after main() has pinned the BLAS threads

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    mean, sd = a / (a + b), math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    t = np.linspace(max(mean - 12 * sd, 0.0), min(mean + 12 * sd, 1.0), 20001)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(t))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(weights @ x)


def truth_class(omega: int, k: int) -> str:
    if omega >= k:
        return "not"
    return "boundary" if omega == k - 1 else "sc"


def verify(plan, results: list, build_instance) -> list[str]:
    """Wrong verdicts of one pass, checked against the clique number and exact witnesses."""
    from selfconcord import violates_cubic, violates_quartic

    wrong = []
    for i, ((g, kind, mode, k), r) in enumerate(zip(plan.decisions, results)):
        if "error" in r:
            continue
        v = r["verdict"]
        omega = plan.omegas[g]
        status = v["status"]
        problem = None
        if v["mode"] != mode:
            problem = f"mode {v['mode']} for a {mode} decision"
        elif status == NOT:
            if omega < k:
                problem = "NOT although omega < k"
            else:
                inst = build_instance(plan.graphs[g], kind, k)
                violates = violates_cubic if kind == "cubic" else violates_quartic
                h = [Fraction(x) for x in v["certificate"]["witness"]]
                if not violates(inst.A, h, inst.q)[0]:
                    problem = "NOT witness fails exact re-verification"
        elif status == SC:
            if omega >= k:
                problem = "SELF_CONCORDANT although omega >= k"
        elif status == UNDECIDED:
            if mode == "oracle":
                problem = "UNDECIDED from the oracle, which is complete"
        else:
            problem = f"unknown status {status!r}"
        if problem:
            wrong.append(f"decision {i} (n={plan.graphs[g].n}, omega={omega}, {kind}, {mode}, k={k}): {problem}")
    return wrong


def share(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def coverage(plan, results: list, classes: tuple, status: str, mode=None, kind=None) -> tuple[int, int]:
    """(decisions that returned `status`, decisions) among those whose truth class is in `classes`.

    Truth classes are "sc" (omega <= k-2), "boundary" (omega = k-1) and
    "not" (omega >= k); `mode` and `kind` narrow the decisions considered.
    """
    hit = total = 0
    for (g, d_kind, d_mode, k), r in zip(plan.decisions, results):
        if (mode and d_mode != mode) or (kind and d_kind != kind):
            continue
        if truth_class(plan.omegas[g], k) in classes:
            total += 1
            hit += r.get("verdict", {}).get("status") == status
    return hit, total


def end_to_end(plan, passes: list[Pass], setups: list[float], tail_p: float, report) -> dict:
    untraced = [p for p in passes if not p.traced]
    times = [r["s"] for p in untraced for r in p.results]
    # Latency percentiles cover decisions that returned a verdict; the ones
    # that raised are counted in `failed` and failed_share instead.
    latencies = [r["s"] for p in untraced for r in p.results if "error" not in r]
    first = untraced[0].results
    decided = sum(r.get("verdict", {}).get("status") in (SC, NOT) for r in first)
    not_hit, not_total = coverage(plan, first, ("not",), NOT)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes, imports included"),
        "decisions_per_s": (len(times) / sum(times), "1/s", f"{len(times)} decisions, one at a time"),
        "decide_ms_p50": (1000 * percentile(latencies, 50), "ms", f"{len(latencies)} verdicts"),
        "decide_ms_tail": (1000 * percentile(latencies, tail_p), "ms", f"p{tail_p}, {len(latencies)} verdicts"),
        "decided_share": (decided / len(first), "share", f"{decided}/{len(first)} SELF_CONCORDANT or NOT"),
        "coverage_not": (share(not_hit, not_total), "share", f"{not_hit}/{not_total} refuted with omega >= k"),
        "peak_rss_mb": (statistics.median(p.done["maxrss_kb"] / 1024 for p in untraced), "MB",
                        f"median of {len(untraced)} passes"),
    }
    for name, (value, unit, detail) in metrics.items():
        report(name, value, unit, detail)
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def per_layer(plan, passes: list[Pass], report) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0].results
    metrics: dict[str, tuple[float, str]] = {}
    details: dict[str, str] = {}

    def med(f):
        return statistics.median(f(p) for p in traced)

    def span(name, key):
        return med(lambda p: p.done["trace"]["spans"].get(name, {}).get(key, 0))

    def counter(key):
        return med(lambda p: p.done["trace"]["counters"].get(key, 0))

    for name, keys in (
        ("graphs.max_clique", ("calls", "self_s")),
        ("reduction.build_instance", ("calls", "self_s")),
        ("reduction.rational_witness", ("self_s",)),
        ("tensors.eval_form", ("calls", "self_s")),
        ("tensors.grad_form", ("calls", "self_s")),
        ("tensors.eval_form_batch", ("self_s",)),
        ("tensors.eval_form_exact", ("calls", "self_s")),
        ("tensors.spectral_upper_bound", ("calls", "self_s")),
        ("optimize.max_form_sphere", ("calls", "self_s")),
        ("optimize.grid_lower_and_upper", ("calls", "self_s")),
        ("concordance.check", ("calls", "self_s")),
        ("concordance.rationalize_vector", ("calls", "self_s")),
        ("concordance.violates", ("calls", "self_s")),
        ("bench.decision", ("self_s",)),
    ):
        for key in keys:
            metrics[f"{name}.{key}"] = (span(name, key), "s" if key == "self_s" else "count")

    for name in ("graphs.max_clique.cache_hit_ratio", "optimize.sphere_net.cache_hit_ratio"):
        metrics[name] = (med(lambda p: p.done["caches"][name]), "ratio")
    for key, unit in (
        ("tensors.eval_form_batch.points", "count"),
        ("tensors.eval_form_batch.ops_computed", "count"),
        ("tensors.spectral_upper_bound.dense_bytes_computed", "B"),
        ("optimize.grid_lower_and_upper.points", "count"),
        ("optimize.max_form_sphere.evaluations", "count"),
    ):
        metrics[key] = (counter(key), unit)
    metrics["tensors.spectral_upper_bound.failed"] = (counter("tensors.spectral_upper_bound.failed"), "count")
    metrics["optimize.grid_lower_and_upper.skipped"] = (counter("optimize.grid_lower_and_upper.failed"), "count")
    metrics["optimize.max_form_sphere.evals_per_start"] = (
        share(counter("optimize.max_form_sphere.evaluations"), counter("optimize.max_form_sphere.starts")), "count")

    metrics["concordance.witness_accept_ratio"] = (
        share(counter("concordance.witness_candidates_accepted"), span("concordance.rationalize_vector", "calls")),
        "ratio")
    rungs_run = span("optimize.grid_lower_and_upper", "calls") - counter("optimize.grid_lower_and_upper.failed")
    grid_certified = sum(
        d[2] == "grid" and r.get("verdict", {}).get("status") == SC for d, r in zip(plan.decisions, first))
    metrics["concordance.grid_certify_ratio"] = (share(grid_certified, rungs_run), "ratio")
    undecided = sum(r.get("verdict", {}).get("status") == UNDECIDED for r in first)
    metrics["concordance.undecided_share"] = (share(undecided, len(first)), "share")
    for mode in ("relax", "grid", "oracle"):
        for kind in ("cubic", "quartic"):
            hit, total = coverage(plan, first, ("sc", "boundary"), SC, mode, kind)
            metrics[f"concordance.coverage_sc.{mode}.{kind}"] = (share(hit, total), "share")
            details[f"concordance.coverage_sc.{mode}.{kind}"] = f"{hit}/{total} certified with omega <= k-1"

    wall = med(lambda p: p.done["loop_s"])
    accounted = med(lambda p: sum(s["self_s"] for s in p.done["trace"]["spans"].values()) / p.done["loop_s"])
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - statistics.median(p.done["loop_s"] for p in untraced), "s")
    metrics["trace.accounted_share"] = (accounted, "share")
    details["trace.overhead_s"] = "traced minus untraced pass wall time"
    details["trace.accounted_share"] = ("span self times (bench.decision is the benchmark's own) over traced "
                                        "wall time; the rest is result output between decisions")
    for name, (value, unit) in metrics.items():
        report(name, value, unit, details.get(name, ""))
    return metrics


def decision_breakdown(plan, results: list) -> dict[str, tuple[float, str, str]]:
    """Zero-capable decision shares: coverage_sc, coverage_boundary, failed_share."""
    sc_hit, sc_total = coverage(plan, results, ("sc",), SC)
    b_hit, b_total = coverage(plan, results, ("boundary",), SC)
    failed = sum("error" in r for r in results)
    return {
        "coverage_sc": (share(sc_hit, sc_total), "share", f"{sc_hit}/{sc_total} certified with omega <= k-2"),
        "coverage_boundary": (share(b_hit, b_total), "share", f"{b_hit}/{b_total} certified with omega = k-1"),
        "failed_share": (share(failed, len(results)), "share", f"{failed}/{len(results)} decisions raised"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("relax-ladder", "small-sweep", "oracle-ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "selfconcord" / "__init__.py").is_file():
        print(f"perfbench: no selfconcord source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, tail_percentile  # imports selfconcord from SRC
    from worker import build_instance

    clock = time.monotonic()
    plan = WORKLOADS[args.workload](args.seed)
    plan_s = time.monotonic() - clock
    tail_p = tail_percentile(len(plan.decisions))
    job = {
        "graphs": [(G.n, G.edge_order) for G in plan.graphs],
        "decisions": plan.decisions,
        "seed": args.seed,
        "spans_path": None,
    }

    def job_text(**fields) -> str:
        return json.dumps({**job, **fields})

    setups = [] if args.trace else [
        run_worker(job_text(setup_only=True, trace=False), False).setup_s for _ in range(SETUP_SAMPLES)]
    kinds = (False, True) if args.trace else (False,)
    untraced_text = job_text(setup_only=False, trace=False)
    passes: list[Pass] = []
    started = time.monotonic()
    while True:
        for traced in kinds:
            if traced:
                OUT.mkdir(exist_ok=True)
                spans_path = OUT / f"spans-{args.workload}-{args.seed}-{len(passes)}.npz"
                text = job_text(setup_only=False, trace=True, spans_path=str(spans_path))
            else:
                text = untraced_text
            passes.append(run_worker(text, traced))
        elapsed = time.monotonic() - started
        rounds = len(passes) // len(kinds)
        # Start another round only if the run then ends nearer the deadline.
        if elapsed + elapsed / rounds / 2 >= args.seconds:
            break

    lines: list[str] = []

    def report(name, value, unit, detail=""):
        lines.append(f"{name:<44} {value:>14.6g} {unit:<6} {detail}")

    first = passes[0]
    digests = {p.digest() for p in passes}
    clock = time.monotonic()
    wrong = verify(plan, first.results, build_instance)
    verify_s = time.monotonic() - clock
    if len(digests) != 1:
        wrong.append(f"passes disagree: {len(digests)} distinct verdict digests")
    attempted = sum(len(p.results) for p in passes)
    failed = sum("error" in r for p in passes for r in p.results)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes x {len(plan.decisions)} decisions, "
          f"blas_threads {BLAS_THREADS} (nproc {os.cpu_count()}), tail percentile p{tail_p}; "
          f"untimed: plan and ground truth {plan_s:.1f} s, verdict checks {verify_s:.1f} s")
    print(f"verdict_digest {args.workload} {args.seed} sha256:{first.digest()}")
    if args.trace:
        metrics = per_layer(plan, passes, report)
    else:
        metrics = end_to_end(plan, passes, setups, tail_p, report)
    breakdown = decision_breakdown(plan, first.results)
    for name, (value, unit, detail) in breakdown.items():
        report(name, value, unit, detail)
        if args.trace:
            metrics[name] = (value, unit)
    failures = Counter(tuple(r["error"]) for r in first.results if "error" in r)
    for (cls, message, where), count in failures.items():
        lines.append(f"failure x{count} per pass: {cls} in {where}: {message}")
    print("\n".join(lines))
    for problem in wrong[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
