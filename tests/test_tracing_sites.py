"""The benchmark's traced runs wrap library names by module and attribute
(`perfbench/tracing.py`); a renamed or dropped import must fail here, not
only in a traced benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter, so that no wrapper installed on a library
# module reaches another test.
SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from fractions import Fraction
import tracing
from selfconcord import OptConfig, build_cubic_instance, check_sc, graph_from_edges

missing = [f"{{module.__name__}}.{{attribute}}" for _, sites, _ in tracing.SITES
           for module, attribute in sites if not callable(getattr(module, attribute, None))]
tracer = tracing.Tracer()
tracing.install(tracer)
inst = build_cubic_instance(graph_from_edges(3, [(1, 2), (2, 3), (1, 3)]), 3, Fraction(1, 2))
statuses, calls = [], {{}}
for mode in ("oracle", "relax"):
    statuses.append(check_sc(inst, OptConfig(starts=2, max_iters=50), mode=mode).status.value)
    calls[mode] = {{name: span["calls"] for name, span in tracer.summary()["spans"].items()}}
relax = {{name: count - calls["oracle"].get(name, 0) for name, count in calls["relax"].items()}}
print(json.dumps({{"missing": missing, "statuses": statuses, "calls": calls["relax"], "relax_calls": relax}}))
"""


def test_every_trace_site_resolves_and_records():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["missing"] == []
    assert report["statuses"] == ["NOT_SELF_CONCORDANT", "NOT_SELF_CONCORDANT"]
    for name in ("concordance.violates", "graphs.max_clique", "reduction.rational_witness"):
        assert report["calls"].get(name, 0) >= 1, (name, report["calls"])
    # The relax decision's exact re-check goes through the first two spans
    # and its search through grad_form, wrapped at optimize's global.  A check
    # computed inline, or a kernel reached by another name, would leave a
    # span idle without failing anything else.
    for name in ("tensors.eval_form_exact", "concordance.rationalize_vector", "tensors.grad_form"):
        assert report["relax_calls"].get(name, 0) >= 1, (name, report["relax_calls"])
