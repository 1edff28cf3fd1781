"""In-memory spans around the calls into each layer, recorded from outside.

The library binds its collaborators by name at import time (`optimize`
imports `grad_form`, `eval_form` and `eval_form_batch`; `concordance`
imports `max_form_sphere`, `max_clique`, `violates_*` and others), so a
function is wrapped where it is looked up, not where it is defined.
Patching `selfconcord.tensors.grad_form` alone would record nothing.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run lasts; a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from selfconcord import concordance, graphs, optimize, reduction


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.mode = ""  # mode of the decision in flight

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str:
        """Name of the innermost open span ("" outside every span)."""
        sid = self._stack[-1]
        return self.names[self.name_id[sid]] if sid >= 0 else ""

    def wrap(self, name: str, fn, extra=None):
        """`fn` recorded as span `name`; `extra(tracer, args, result)` adds counts.

        An exception is counted as `<name>.failed` and re-raised.
        """
        nid = self._id(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(sid)
                self.counters[name + ".failed"] += 1
                raise
            self._close(sid)
            if extra is not None:
                extra(self, args, result)
            return result

        return traced

    def save(self, path: str):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - children
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        out = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        return {"spans": out, "counters": dict(self.counters), "roots_s": float(duration[~nested].sum())}


# ---------------------------------------------------------------------------
# Counts taken at the layer boundaries ("computed": derived from the inputs,
# not timed).


def _batch_counts(tracer: Tracer, args, result):
    A, points = args[0], args[1]
    n = int(np.shape(points)[0])
    tracer.counters["tensors.eval_form_batch.points"] += n
    tracer.counters["tensors.eval_form_batch.ops_computed"] += n * len(A.entries) * A.order
    if tracer.current() == "optimize.grid_lower_and_upper":
        tracer.counters["optimize.grid_lower_and_upper.points"] += n


def _dense_counts(tracer: Tracer, args, result):
    A = args[0]
    if A.entries:
        tracer.counters["tensors.spectral_upper_bound.dense_bytes_computed"] += 8 * A.dim ** A.order


def _search_counts(tracer: Tracer, args, report):
    tracer.counters["optimize.max_form_sphere.evaluations"] += report.evaluations
    tracer.counters["optimize.max_form_sphere.starts"] += len(report.per_start_values)


def _violation_counts(tracer: Tracer, args, result):
    # In relax and grid mode every exact check follows a rationalized
    # search candidate; in oracle mode it checks the clique witness.
    if tracer.mode != "oracle":
        tracer.counters["concordance.witness_candidates_accepted"] += bool(result[0])


# (span name, [(module, attribute), ...], extra counts)
SITES = (
    ("graphs.max_clique", [(concordance, "max_clique"), (reduction, "max_clique"), (optimize, "max_clique")], None),
    ("reduction.rational_witness",
     [(concordance, "rational_cubic_witness"), (concordance, "rational_quartic_witness")], None),
    ("tensors.eval_form", [(optimize, "eval_form")], None),
    ("tensors.grad_form", [(optimize, "grad_form")], None),
    ("tensors.eval_form_batch", [(optimize, "eval_form_batch")], _batch_counts),
    ("tensors.eval_form_exact", [(concordance, "eval_form_exact")], None),
    ("tensors.spectral_upper_bound", [(concordance, "spectral_upper_bound")], _dense_counts),
    ("optimize.max_form_sphere", [(concordance, "max_form_sphere")], _search_counts),
    ("optimize.grid_lower_and_upper", [(concordance, "grid_lower_and_upper")], None),
    ("concordance.rationalize_vector", [(concordance, "rationalize_vector")], None),
    ("concordance.violates", [(concordance, "violates_cubic"), (concordance, "violates_quartic")], _violation_counts),
)


def install(tracer: Tracer):
    """Replace every import site in SITES with a traced wrapper."""
    for name, sites, extra in SITES:
        for module, attribute in sites:
            setattr(module, attribute, tracer.wrap(name, getattr(module, attribute), extra))


def cache_ratios() -> dict:
    """Hit ratios of the library's own caches, read from cache_info()."""
    out = {}
    for name, cached in (("graphs.max_clique", graphs.max_clique), ("optimize.sphere_net", optimize._sphere_net)):
        info = cached.cache_info()
        lookups = info.hits + info.misses
        out[name + ".cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
    return out
