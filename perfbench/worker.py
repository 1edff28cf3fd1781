"""One pass of a workload in a fresh process.

Reads a job (graphs, decisions, seed, trace flag) as one JSON object on
stdin, builds the graphs, prints {"ready": <monotonic time>}, then decides
every decision in order through the public entry points and prints one
JSON line per decision: its wall time and either the verdict object or the
exception it raised.  A final line carries the loop time, peak RSS, cache
ratios and, when traced, the span summary.

Because the process is new, the clique cache, the sphere-net cache and each
tensor's packed arrays start cold, as they do for every CLI call.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from fractions import Fraction

import tracing
from selfconcord import (
    OptConfig,
    build_cubic_instance,
    build_quartic_instance,
    check_sc,
    check_sc2,
    graph_from_edges,
    verdict_to_json_obj,
)

# The curvature parameter does not change q; these are the values the
# acceptance criteria use.
SIGMA = Fraction(1, 2)
TAU = Fraction(1)


def build_instance(G, kind: str, k: int):
    if kind == "cubic":
        return build_cubic_instance(G, k, SIGMA)
    return build_quartic_instance(G, k, TAU)


def check(inst, cfg: OptConfig, mode: str):
    return (check_sc if inst.kind == "cubic" else check_sc2)(inst, cfg, mode=mode)


def _emit(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")


def main() -> int:
    job = json.load(sys.stdin)
    graphs = [graph_from_edges(n, map(tuple, edges)) for n, edges in job["graphs"]]
    _emit({"ready": time.monotonic()})
    if job["setup_only"]:
        return 0

    cfg = OptConfig(seed=job["seed"])
    build, decide_check = build_instance, check
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        build = tracer.wrap("reduction.build_instance", build_instance)
        decide_check = tracer.wrap("concordance.check", check)

    def decide(G, kind, mode, k):
        return decide_check(build(G, kind, k), cfg, mode)

    if tracer is not None:
        decide = tracer.wrap("bench.decision", decide)

    loop_start = time.perf_counter()
    for g, kind, mode, k in job["decisions"]:
        if tracer is not None:
            tracer.mode = mode
        t0 = time.perf_counter()
        try:
            verdict = decide(graphs[g], kind, mode, k)
        except Exception as exc:  # one failing decision must not end the pass
            elapsed = time.perf_counter() - t0
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{frame.filename.rsplit('/', 1)[-1]}:{frame.name}"
            _emit({"s": elapsed, "error": [type(exc).__name__, str(exc), where]})
            continue
        elapsed = time.perf_counter() - t0
        _emit({"s": elapsed, "verdict": verdict_to_json_obj(verdict, seed=cfg.seed)})
    loop_s = time.perf_counter() - loop_start

    done = {
        "loop_s": loop_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": tracing.cache_ratios(),
    }
    if tracer is not None:
        done["trace"] = tracer.summary()
        if job["spans_path"]:
            tracer.save(job["spans_path"])
    _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
