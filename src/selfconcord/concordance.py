"""Three-valued decision of the form inequalities, with sound certificates.

A complete polynomial-time decision for these inequalities cannot exist
(deciding them answers clique queries), so the checker is honest about what
it knows, and `recheck` re-checks each exact certificate from A, q and its
JSON alone:

* NOT_SELF_CONCORDANT is only ever reported with an exact rational witness
  h that violates the inequality under exact rational arithmetic.  Floating
  candidates from the numeric search are rounded to rationals on one shared
  denominator (2^64) and re-verified exactly;
  if re-verification fails the status stays UNDECIDED.  The exact check is
  scale invariant, so witnesses need no normalization.
* SELF_CONCORDANT is reported in relax and grid mode from the support graph
  H whenever the tensor has gadget shape (see `recheck`): by
  Motzkin-Straus, max A^p <= c(1 - 1/omega(H)) <= c(1 - 1/r) for a proper
  coloring of H with r colors, each compared with q in rationals, boundary
  included.  A coloring with r <= k - 1 colors is the certificate.  When H
  needs more colors, the comparison of c(1 - 1/omega(H)), omega(H) from
  `max_clique`, with q is the certificate, named "exact_clique_oracle" as
  in oracle mode (the inequality is non-strict, so equality is a YES).
  Otherwise it needs a float upper bound on the form maximum that clears
  the threshold outside a relative band of 1e-9 (exact equality is a legal
  boundary and floats cannot resolve it).
* UNDECIDED carries the exhausted budget and the best bound seen.

Modes: "relax" and "grid" run the search, then the coloring rung, then the
clique-number rung, then a float bound.  A cubic tensor of gadget shape of
dim 16 or more (`_LIFT_MIN_DIM`) is searched through its quartic tensor on
the support graph H (dim n, not n + m; `reduction.cubic_lift`), and the
witness is lifted back to A (`reduction.lift_point`), where it is
rationalized and verified exactly as any other.  The float bound of
"relax" is `tensors.spectral_upper_bound`, that of "grid" the certified
bound of `optimize.grid_lower_and_upper` on a resolution ladder.  Above dim 5 the
ladder runs no rung, so a grid decision on a tensor without gadget shape
ends UNDECIDED and names the dim limit.  "oracle" requires a tensor that is
the gadget of its support graph, and is complete on it: the clique-number
rung, else the witness of a maximum clique.  Each exact rung returns its
certificate or None, `recheck` rebuilds a certificate with the rung that
made it, and a verdict's status follows from its certificate's kind.
The parameter convention follows the defining inequality as written here:
larger sigma (larger q) is a weaker requirement.

Exact arithmetic runs on Python ints; `Fraction` is kept for the values a
verdict returns or prints.  A witness is rounded as x * 2.0**64, exact in
floats, and `violates` evaluates the form and h.h on its integer
numerators over the one denominator (`tensors.eval_form_exact`).  Each
rung compares its bound with q by integer cross-multiplication, the bounds
c(1 - 1/r) are memoized in `reduction.Gadget.bound`, and q's float is its
numerator over its denominator, so a decision that a rung settles from the
caches builds no `Fraction`.

Of a numeric decision, only the comparisons against q depend on k.  A
decision reads the tensor alone, and what it computes from the tensor alone
is kept on the tensor object (`SymTensor._analyses`), read in place and
dropped with the tensor: the `reduction.Support` record (`_support`),
which every rung reads; the coloring; and the multistart search of each
`OptConfig`.  `reduction` memoizes the last graph's gadget tensor of each
kind and `Gadget.bound` the thresholds, so the decisions of a k-sweep and a
relax-then-grid pair share one tensor object, which is read, searched and
colored once; an equal tensor built anew is analysed anew.
`graphs` memoizes `proper_coloring` and `max_clique` by graph, so the cubic
and quartic gadgets of one graph share one coloring and one clique.  The
float bounds run on each decision that reaches them, which the exact rungs
leave to tensors without gadget shape and to gadgets whose clique-number
bound exceeds q.  Comparisons, rationalization and exact re-verification
run on every decision, so a verdict, `evaluations` included, is the same
whether the analysis was reused or not.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import max_clique, proper_coloring
from .optimize import OptConfig, OptReport, grid_lower_and_upper, max_form_sphere
from .reduction import (
    GADGETS,
    ConcordanceInstance,
    Support,
    cubic_lift,
    lift_point,
    lift_value,
    rational_cubic_witness,
    rational_quartic_witness,
    read_support,
    search_starts,
    true_max,
)
from .tensors import SymTensor, _as_fraction, eval_form, eval_form_exact, exact_numerators, spectral_upper_bound

__all__ = [
    "Status",
    "Verdict",
    "SigmaBounds",
    "MODES",
    "violates",
    "violates_cubic",
    "violates_quartic",
    "rationalize_vector",
    "recheck",
    "check_sc",
    "check_sc2",
    "sigma_opt_bounds",
    "verdict_to_json_obj",
]

MODES = ("relax", "grid", "oracle")

# Numeric modes leave a relative band around q undecided; exact equality at
# the boundary is decidable only by the oracle.
_EQ_BAND = 1e-9

# The shared denominator of rationalized search witnesses, and its float.
_DENOMINATOR = 2**64
_SCALE = float(_DENOMINATOR)

# A cubic tensor of gadget shape is searched through its quartic tensor (`_search`)
# from this dim on.  Below it the fewer coordinates do not pay for the lift: the
# order-4 search's slowest start runs more rounds, and each round's products cost
# more.  Averaged per dim over every labeled graph with n <= 4 and random graphs
# with n = 4..10, at the default `OptConfig` (minimum of 10-15 runs, one BLAS
# thread, 2-core Xeon VM), the lifted search cost 4-47% more than the direct one
# at each dim from 3 to 15 and 1-17% less at each dim from 16 to 24; on graphs
# with n = 8..10 (dims 24-55) it cost 16-51% less.
_LIFT_MIN_DIM = 16

# Coarse-to-fine certified-grid ladder; it ends at the first rung that
# `grid_lower_and_upper` refuses, since finer rungs only cost more.  At the
# default point budget the first rung fits every dim up to 5 (2,264,031
# points at dim 5).
_GRID_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


class Status(enum.Enum):
    SELF_CONCORDANT = "SELF_CONCORDANT"
    NOT_SELF_CONCORDANT = "NOT_SELF_CONCORDANT"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class Verdict:
    status: Status
    mode: str
    certificate: dict
    evaluations: int


@dataclass(frozen=True)
class SigmaBounds:
    """Bracket for the optimal parameter (squared form maximum over 4)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"need 0 <= lower <= upper, got {self.lower}, {self.upper}")


# ---------------------------------------------------------------------------
# Exact building blocks


def rationalize_vector(h) -> tuple[Fraction, ...]:
    """h rounded to the nearest multiples of 1/2^64, coordinate by coordinate.

    All coordinates share the one denominator, so the exact checks' h.h and
    its powers stay about as long as a single coordinate; with its own
    denominator per coordinate, the cubic check's (h.h)^3 ran to thousands
    of digits on large gadgets.  2^64 keeps every bit of a unit vector's
    binary coordinates down to 2^-64.  The numerator is round(x * 2.0**64)
    on the float itself: scaling by a power of two is exact (for |x| below
    2^960, so for every search witness, which is a unit vector), and
    `round` of a float rounds half to even, as `round` of the exact
    rational does.
    """
    return tuple(Fraction(round(x * _SCALE), _DENOMINATOR) for x in np.asarray(h, dtype=float).tolist())


def violates(A: SymTensor, h, q: Fraction) -> tuple[bool, Fraction, Fraction]:
    """Exact test of A(h,..,h)^p > q*(h.h)^(p*order/2); returns (violated, lhs, rhs).

    p is the exponent of the gadget of A's order: [A(h,h,h)]^2 > q*(h.h)^3
    for order 3, A(h,h,h,h) > q*(h.h)^2 for order 4.  The arithmetic runs
    on integers: h is put on one common denominator once, h = x / D
    (`tensors.exact_numerators`), the form value is `eval_form_exact` at the
    integer numerators x over D^order, and h.h is (sum of x_i^2) / D^2; lhs
    and rhs are returned as Fractions.
    """
    gadget = next((g for g in GADGETS.values() if g.order == A.order), None)
    if gadget is None:
        raise ValueError(f"violation tests need an order-3 or order-4 tensor, got order {A.order}")
    p = gadget.p
    x, D = exact_numerators(h)
    lhs = (eval_form_exact(A, x) / D**A.order) ** p
    rhs = _as_fraction(q) * Fraction(sum(v * v for v in x), D * D) ** (p * A.order // 2)
    return lhs > rhs, lhs, rhs


# The per-kind names of `violates`; `_witness` reads them on each call.
violates_cubic = violates_quartic = violates


def _support(A: SymTensor) -> Support | None:
    """`reduction.read_support` of A, read once per tensor object."""
    analyses = A._analyses
    if "support" not in analyses:
        analyses["support"] = read_support(A)
    return analyses["support"]


def recheck(A: SymTensor, q, certificate) -> bool | None:
    """Exact re-check of a certificate from A, q and its JSON alone.

    True when it re-verifies, False when it is refuted or malformed (it never
    raises), None for a "budget" or a float "bound", which claim no exact
    proof.  Every other certificate must equal the one its rung rebuilds
    from A, q and the certificate's claim.  A "witness" lists A.dim rational
    strings h that `violates` A at q (`_witness`), its "lhs" and "rhs" as
    recomputed.  The other kinds need A of gadget shape
    (`reduction.read_support`) with support graph H.  A "coloring"
    (`_colored`) lists the vertex coordinates in increasing order as
    "vertices" (cubic only) and gives each an integer in "colors", no
    entry's pair (i, j) inside one color, with "bound" c(1 - 1/r), r the
    number of colors; an "exact_clique_oracle" bound (`_clique_bound`)
    reads c(1 - 1/omega(H)).  Either bound must be <= q.  Both are
    Motzkin-Straus: the edge quadratic of H has simplex maximum
    (1/2)(1 - 1/omega(H)) <= (1/2)(1 - 1/r), as no edge joins two vertices
    of one color.  Entries of at most 1/6 bound |A(h)| by the gadget form
    at |h|, and the chain of `reduction` (for order 3: Cauchy-Schwarz in w,
    then the 2/3 : 1/3 split) carries that to
    max A^p <= c(1 - 1/omega(H)) <= c(1 - 1/r).
    """
    if not isinstance(certificate, dict):
        return False
    q = _as_fraction(q)
    kind, named = certificate.get("kind"), certificate.get("bound")
    if kind == "budget" or kind == "bound" and isinstance(named, dict) and named.get("name") != "exact_clique_oracle":
        return None
    if kind == "witness":
        try:
            return _witness(A, certificate.get("witness"), q) == certificate
        except (TypeError, ValueError, ArithmeticError):  # no list of A.dim rationals
            return False
    support = _support(A)
    if support is None:
        return False
    if kind == "bound":  # named "exact_clique_oracle", or malformed
        return _clique_bound(support, q) == certificate
    if kind != "coloring":
        return False
    colors = certificate.get("colors")
    if not (isinstance(colors, list) and len(colors) == len(support.vertices) and all(type(c) is int for c in colors)):
        return False
    if any(colors[i - 1] == colors[j - 1] for i, j in support.graph.edges):
        return False
    return _colored(support, colors, GADGETS[support.kind].bound(len(set(colors))), q) == certificate


def _at_most(a: Fraction, b: Fraction) -> bool:
    """a <= b by integer cross-multiplication (a Fraction's denominator is positive)."""
    return a.numerator * b.denominator <= b.numerator * a.denominator


def _pow(x: float, p: int) -> float:
    """x**p as a product of p factors; `**` calls libm pow, which can round differently."""
    return math.prod([x] * p)


# ---------------------------------------------------------------------------
# Rungs: each returns its certificate, or None when it does not decide

# The status that each certificate kind proves.
_STATUS = {
    "witness": Status.NOT_SELF_CONCORDANT,
    "coloring": Status.SELF_CONCORDANT,
    "bound": Status.SELF_CONCORDANT,
    "budget": Status.UNDECIDED,
}


def _verdict(mode: str, certificate: dict, evaluations: int) -> Verdict:
    return Verdict(_STATUS[certificate["kind"]], mode, certificate, evaluations)


def _witness(A: SymTensor, h, q: Fraction) -> dict | None:
    """The witness certificate of h when h violates A at q exactly."""
    # Looked up by name on each call, so that a wrapper installed on the module global sees it.
    verify = violates_cubic if A.order == 3 else violates_quartic
    violated, lhs, rhs = verify(A, h, q)
    if not violated:
        return None
    return {"kind": "witness", "witness": [str(x) for x in h], "lhs": str(lhs), "rhs": str(rhs)}


def _colored(support: Support, colors, bound: Fraction, q: Fraction) -> dict | None:
    """The coloring certificate of a proper coloring of H whose bound c(1 - 1/r) is at
    most q; only the cubic layout has edge coordinates, so only it lists the vertices."""
    if not _at_most(bound, q):
        return None
    listed = {"vertices": list(support.vertices)} if support.kind == "cubic" else {}
    return {"kind": "coloring", **listed, "colors": list(colors), "bound": str(bound)}


def _clique_bound(support: Support, q: Fraction) -> dict | None:
    """The "exact_clique_oracle" certificate when c(1 - 1/omega(H)) is at most q."""
    bound = true_max(support.kind, support.graph)
    if not _at_most(bound, q):
        return None
    return {"kind": "bound", "bound": {"name": "exact_clique_oracle", "value": str(bound)}}


def _search(A: SymTensor, cfg: OptConfig) -> OptReport:
    """Multistart sphere search on A from `reduction.search_starts`, once per tensor object and `OptConfig`.

    A cubic A of gadget shape and dim at least `_LIFT_MIN_DIM` is searched through its quartic
    tensor Q on H instead, by `_search` on Q with the support read that `reduction.cubic_lift`
    hands over with it.  The witness is lifted back by `lift_point` and `best_value` is A
    evaluated there, while each start's value is `lift_value` of Q's, so their maximum can
    differ from `best_value` in the last bit (K3's gadget, lifted: 0.2222222222222223 against
    0.22222222222222227).  `evaluations` is Q's count.
    """
    analyses = A._analyses
    report = analyses.get(cfg)
    if report is None:
        support = _support(A)
        if support is not None and support.kind == "cubic" and A.dim >= _LIFT_MIN_DIM:
            Q, Q_support = cubic_lift(A, support)
            Q._analyses["support"] = Q_support
            found = _search(Q, cfg)
            witness = lift_point(A, support, found.witness)
            witness.setflags(write=False)
            report = OptReport(eval_form(A, witness), witness, tuple(map(lift_value, found.per_start_values)),
                               found.converged, found.evaluations)
        else:
            starts = search_starts(A, support)
            report = max_form_sphere(A, cfg, extra_starts=starts, nonnegative_starts=bool(starts))
        analyses[cfg] = report
    return report


def _coloring(A: SymTensor) -> tuple[Support, tuple[int, ...], Fraction] | None:
    """(support read, colors of its vertex coordinates, c(1 - 1/r)) of a tensor
    of gadget shape, else None; colored once per tensor object."""
    analyses = A._analyses
    if "coloring" not in analyses:
        support = _support(A)
        if support is None:
            analyses["coloring"] = None
        else:
            colors = proper_coloring(support.graph)
            analyses["coloring"] = support, colors, GADGETS[support.kind].bound(len(set(colors)))
    return analyses["coloring"]


def _grid_bound(A: SymTensor, clears=None) -> tuple[float, int, str]:
    """Best certified grid bound on the resolution ladder: (bound, rungs, label).

    Runs coarse to fine (every rung is sound; finer is tighter) and stops
    early once `clears(bound)` is true, or once `clears(net_max)` is
    false: the net maximum is a lower bound on the true maximum, so if it
    already fails the certification target no finer rung can ever certify.
    It also stops at the first rung that `grid_lower_and_upper` refuses
    (above dim 5, the first).  The label names the finest rung run; if none
    ran, the bound is infinite and the label names the limit.
    """
    best = math.inf
    used = 0
    label = ""
    for resolution in _GRID_LADDER:
        try:
            lower, bound = grid_lower_and_upper(A, resolution)
        except ValueError as limit:  # dim above 5 or a net over the point budget
            return best, used, label or str(limit)
        best = min(best, bound)
        label = f"resolution={resolution}"
        used += 1
        if clears is not None and (clears(best) or not clears(lower)):
            break
    return best, used, label


def _check(inst: ConcordanceInstance, cfg: OptConfig | None, mode: str, kind: str) -> Verdict:
    if inst.kind != kind:
        raise ValueError(f"expected a {kind} instance, got {inst.kind}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    A, q = inst.A, inst.q

    if mode == "oracle":
        support = _support(A)
        if support is None or not support.exact:
            raise ValueError(f"oracle mode needs a tensor that is the {kind} gadget of its support graph")
        # The exact witness from a maximum clique verifies whenever omega >= k.
        build = rational_cubic_witness if kind == "cubic" else rational_quartic_witness
        certificate = _clique_bound(support, q) or _witness(A, build(support.graph, max_clique(support.graph)), q)
        if certificate is None:
            raise AssertionError("oracle witness failed exact verification despite omega >= k")
        return _verdict(mode, certificate, 1)

    cfg = cfg or OptConfig()
    p = GADGETS[kind].p
    qf = q.numerator / q.denominator  # float(q), as Fraction computes it
    report = _search(A, cfg)
    evaluations = report.evaluations
    best = report.best_value
    certificate = None
    if _pow(best, p) > qf * (1.0 + _EQ_BAND):
        certificate = _witness(A, rationalize_vector(report.witness), q)
    coloring = _coloring(A) if certificate is None else None
    if coloring is not None:
        support, colors, bound = coloring
        # When H needs more colors than k - 1, its clique number may still clear
        # q (chi(H) > omega(H), the boundary that no float bound can resolve).
        certificate = _colored(support, colors, bound, q) or _clique_bound(support, q)
    if certificate is not None:
        return _verdict(mode, certificate, evaluations)

    def clears(bound: float) -> bool:
        return _pow(bound, p) <= qf * (1.0 - _EQ_BAND)

    if mode == "relax":
        bound = spectral_upper_bound(A)
        bound_name = "spectral_upper_bound"
        evaluations += 1
    else:
        bound, used, label = _grid_bound(A, clears)
        bound_name = f"grid_lower_and_upper({label})"
        evaluations += used
    if clears(bound):
        certificate = {"kind": "bound", "bound": {"name": bound_name, "value": format(bound, ".17g")}}
        return _verdict(mode, certificate, evaluations)
    certificate = {
        "kind": "budget",
        "description": "no exact violation found and no sound bound cleared the threshold",
        "best_numeric": format(best, ".17g"),
        "bound_name": bound_name,
        "bound_value": format(bound, ".17g"),
        "threshold": str(q),
        "starts": cfg.starts,
        "max_iters": cfg.max_iters,
    }
    return _verdict(mode, certificate, evaluations)


def check_sc(inst: ConcordanceInstance, cfg: OptConfig | None = None, mode: str = "relax") -> Verdict:
    """Decide [A(h,h,h)]^2 <= q*(h.h)^3 for all h, soundly, three-valued."""
    return _check(inst, cfg, mode, "cubic")


def check_sc2(inst: ConcordanceInstance, cfg: OptConfig | None = None, mode: str = "relax") -> Verdict:
    """Decide A(h,h,h,h) <= q*(h.h)^2 for all h, soundly, three-valued."""
    return _check(inst, cfg, mode, "quartic")


# ---------------------------------------------------------------------------
# Optimal-parameter bracket and JSON


def sigma_opt_bounds(A: SymTensor, cfg: OptConfig | None = None) -> SigmaBounds:
    """Bracket sigma_opt = (spectral norm of A)^2 / 4 for an order-3 tensor.

    Lower bound from the best multistart witness h: A(h,h,h)^2 / (4 (h.h)^3),
    read exactly off `violates(A, h, 4)` as lhs / rhs at its rationalization
    and rounded down, so it never exceeds sigma_opt (a float evaluation at a
    maximizer can round above it).  Upper bound from the spectral
    relaxation, tightened by the certified grid when the dimension admits
    one.
    """
    if A.order != 3:
        raise ValueError(f"sigma_opt_bounds needs an order-3 tensor, got order {A.order}")
    cfg = cfg or OptConfig()
    _, lhs, rhs = violates(A, rationalize_vector(_search(A, cfg).witness), 4)
    exact_lower = lhs / rhs
    lower = float(exact_lower)
    if Fraction(lower) > exact_lower:
        lower = math.nextafter(lower, -math.inf)
    norm_upper = min(spectral_upper_bound(A), _grid_bound(A)[0])
    upper = norm_upper * norm_upper / 4.0
    return SigmaBounds(min(lower, upper), upper)


def verdict_to_json_obj(verdict: Verdict, seed: int | None = None) -> dict:
    obj = {
        "status": verdict.status.value,
        "mode": verdict.mode,
        "certificate": verdict.certificate,
        "evaluations": verdict.evaluations,
    }
    if seed is not None:
        obj["seed"] = seed
    return obj
