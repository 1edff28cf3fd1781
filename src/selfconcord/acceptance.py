"""Identity- and oracle-based acceptance suite at desk scale.

Each criterion exercises one contract of the package end to end, against
exact combinatorial ground truth (exhaustive clique oracles on all labeled
graphs up to n vertices) or against closed-form constants, at a pinned
tolerance.  A criterion's body returns (passed, details); the `_criterion`
wrapper times it, fails it past its time limit and builds its
`CriterionResult`.  `run_all` returns one result per criterion; the CLI
renders them as a pass/fail table and pytest asserts them individually.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from .concordance import (
    Status,
    check_sc,
    check_sc2,
    recheck,
    sigma_opt_bounds,
)
from .graphs import Graph, clique_number, complement, enumerate_graphs, max_clique, stability_number
from .optimize import (
    DEFAULT_SEED,
    OptConfig,
    OptReport,
    grid_lower_and_upper,
    max_form_sphere,
)
from .reduction import (
    GADGETS,
    build_cubic_tensor,
    build_instance,
    build_quartic_tensor,
    rational_quartic_witness,
    read_support,
    search_starts,
    threshold,
    unit_witness,
)
from .tensors import eval_form, eval_form_exact, grad_form, sym_from_entries

__all__ = [
    "CriterionResult",
    "IdentitySide",
    "run_all",
    "format_table",
    "CRITERIA",
    "FOOTNOTE_GRAPH",
    "gadget_side",
    "footnote_sides",
]

# Per gadget kind: the curvature parameter (sigma, tau) of the criteria's
# instances and the three-valued decision.
_KINDS = {
    "cubic": (Fraction(1, 2), check_sc),
    "quartic": (Fraction(1), check_sc2),
}

# Three vertices, one edge: the counterexample to the mis-stated stability constant.
FOOTNOTE_GRAPH = Graph(3, frozenset({(1, 2)}))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float


def _reduction_graphs(max_n: int) -> Iterator[Graph]:
    for n in range(2, max_n + 1):
        yield from enumerate_graphs(n)


def _random_tensor(rng: np.random.Generator, order: int, dim: int):
    raw = []
    for key in combinations_with_replacement(range(1, dim + 1), order):
        if rng.random() < 0.7:
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num:
                raw.append((key, Fraction(num, den)))
    return sym_from_entries(order, dim, raw)


@dataclass(frozen=True)
class IdentitySide:
    """One side of an identity: `scaled`, from the searched `max_value`, against its closed form `target`."""

    max_value: float
    scaled: float
    target: float
    report: OptReport | None

    @property
    def gap(self) -> float:
        return abs(self.scaled - self.target)


def gadget_side(kind: str, G: Graph, cfg: OptConfig) -> IdentitySide:
    """max^p / c against 1 - 1/omega(G), max being the sphere maximum of G's
    `kind` gadget (0 when G has no edge), searched on the form as stated, from
    `reduction.search_starts`.  The quartic form is the simplex quadratic sum
    x_i x_j over the edges at x = h^2, so its side is twice the simplex
    maximum; the cubic side is 27/2 * max^2."""
    gadget = GADGETS[kind]
    rep = None
    if G.m:
        A = gadget.tensor(G)
        starts = search_starts(A, read_support(A))
        rep = max_form_sphere(A, cfg, extra_starts=starts, nonnegative_starts=bool(starts))
    best = rep.best_value if rep is not None else 0.0
    return IdentitySide(best, float(1 / gadget.c) * best**gadget.p, 1.0 - 1.0 / clique_number(G), rep)


def footnote_sides(cfg: OptConfig) -> tuple[int, float, float, IdentitySide]:
    """alpha of `FOOTNOTE_GRAPH`, the erroneous sides sqrt(1 - 1/alpha) and
    3*sqrt(3) * max, and the corrected side: the cubic side of the complement."""
    alpha = stability_number(FOOTNOTE_GRAPH)
    corrected = gadget_side("cubic", complement(FOOTNOTE_GRAPH), cfg)
    return alpha, math.sqrt(1.0 - 1.0 / alpha), 3.0 * math.sqrt(3.0) * corrected.max_value, corrected


# ---------------------------------------------------------------------------
# Criteria, all called as fn(max_n, seed, tol); a criterion ignores the
# arguments it does not use.


def _criterion(number: int, name: str, limit: float = math.inf):
    """Make a body returning (passed, details) a criterion: the call is timed,
    and a body that runs past `limit` seconds fails with its details kept."""

    def wrap(body):
        @wraps(body)
        def criterion(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body(*args, **kwargs)
            seconds = time.perf_counter() - t0
            return CriterionResult(number, name, passed and seconds <= limit, details, seconds)

        return criterion

    return wrap


@_criterion(1, "simplex clique/stability identities", limit=120.0)
def criterion_motzkin_straus(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """Simplex quadratic maxima hit 1 - 1/omega and 1 - 1/alpha within 1e-6.

    Each graph is searched once, through its quartic side.  That covers
    1 - 1/alpha too: alpha(G) is omega of the complement, and the sweep holds
    every graph on 2..max_n vertices with an edge, so a complement with an
    edge is swept as a graph of its own, and an edgeless one has side
    0 = 1 - 1/1 exactly.
    """
    cfg = OptConfig(starts=3, max_iters=400, seed=seed)
    worst = 0.0
    count = 0
    for G in _reduction_graphs(max_n):
        count += 1
        worst = max(worst, gadget_side("quartic", G, cfg).gap)
    return worst <= tol, f"{count} graphs, worst gap {worst:.3e}, tol {tol:g}"


@_criterion(2, "sphere cubic-form identities")
def criterion_sphere_constants(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """27/2 times the squared sphere maximum hits 1 - 1/omega within 1e-6.

    Also checks that the search's clique start, the exact rational witness
    scaled to the unit sphere, evaluates to the exact constant within 1e-12.
    """
    cfg = OptConfig(starts=3, max_iters=300, seed=seed)
    worst_opt = 0.0
    worst_witness = 0.0
    count = 0
    for G in _reduction_graphs(max_n):
        count += 1
        side = gadget_side("cubic", G, cfg)
        w = unit_witness("cubic", G, max_clique(G))
        worst_witness = max(worst_witness, abs(eval_form(build_cubic_tensor(G), w) ** 2 - (2.0 / 27.0) * side.target))
        worst_opt = max(worst_opt, side.gap)
    return (
        worst_opt <= tol and worst_witness <= 1e-12,
        f"{count} graphs, worst optimization gap {worst_opt:.3e} (tol {tol:g}), "
        f"worst witness gap {worst_witness:.3e} (tol 1e-12)",
    )


@_criterion(3, "stability-constant counterexample")
def criterion_footnote(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """The mis-stated stability identity fails by >= 0.29 on the 3-vertex/1-edge graph.

    The circulating version reads sqrt(1 - 1/alpha) = 3*sqrt(3) * max; on
    this graph the sides are 1/sqrt(2) and 1.  The corrected version,
    27/2 * max^2 = 1 - 1/alpha, balances to 1e-9.
    """
    _, erroneous_lhs, erroneous_rhs, corrected = footnote_sides(OptConfig(starts=3, max_iters=300, seed=seed))
    mismatch = abs(erroneous_rhs - erroneous_lhs)
    corrected_gap = corrected.gap
    passed = (
        abs(erroneous_lhs - 1.0 / math.sqrt(2.0)) <= 1e-12
        and abs(erroneous_rhs - 1.0) <= 1e-6
        and mismatch >= 0.29
        and corrected_gap <= 1e-9
    )
    return (
        passed,
        f"erroneous sides {erroneous_lhs:.5f} vs {erroneous_rhs:.5f} "
        f"(mismatch {mismatch:.4f} >= 0.29), corrected gap {corrected_gap:.3e} (tol 1e-9)",
    )


def _oracle_equivalence(kind: str, max_n: int, seed: int) -> tuple[bool, str]:
    """Oracle-mode `kind` verdicts are NOT exactly when a k-clique exists, over
    n <= max_n and k = 3..6: exact comparisons, zero tolerance (the criteria
    that call it add the one-minute limit)."""
    cfg = OptConfig(seed=seed)
    param, check = _KINDS[kind]
    checked = 0
    disagreements = 0
    undecided = 0
    for G in _reduction_graphs(max_n):
        omega = clique_number(G)
        for k in range(3, 7):
            verdict = check(build_instance(G, kind, k, param), cfg, mode="oracle")
            checked += 1
            if verdict.status is Status.UNDECIDED:
                undecided += 1
            if (verdict.status is Status.NOT_SELF_CONCORDANT) != (omega >= k):
                disagreements += 1
    return (
        disagreements == 0 and undecided == 0,
        f"{checked} instances, {disagreements} disagreements, {undecided} undecided, time limit 60s",
    )


@_criterion(4, "clique/verdict equivalence (cubic oracle)", limit=60.0)
def criterion_decision_equivalence(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """Oracle-mode cubic verdict is NOT exactly when a k-clique exists; zero tolerance."""
    return _oracle_equivalence("cubic", max_n, seed)


@_criterion(5, "boundary instances exactly at threshold")
def criterion_boundary_exactness(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """At omega = k-1 the exact maximum equals the threshold and the verdict is YES.

    The maximum is evaluated, not looked up: the quartic gadget at the
    indicator h of a maximum clique gives the simplex maximum
    A(h,h,h,h) / (h.h)^2 = (1/2)(1 - 1/omega), in rationals, and 4/27 (the
    constant of criterion 8) times it is the cubic maximum, which must equal
    the cubic threshold exactly.
    """
    cfg = OptConfig(seed=seed)
    sigma, check = _KINDS["cubic"]
    checked = 0
    failures = 0
    for G in _reduction_graphs(max_n):
        k = clique_number(G) + 1
        if not 3 <= k <= 6:
            continue
        checked += 1
        h = rational_quartic_witness(G, max_clique(G))
        simplex_max = eval_form_exact(build_quartic_tensor(G), h) / sum(x * x for x in h) ** 2
        if Fraction(4, 27) * simplex_max != threshold("cubic", k):
            failures += 1
            continue
        verdict = check(build_instance(G, "cubic", k, sigma), cfg, mode="oracle")
        if verdict.status is not Status.SELF_CONCORDANT:
            failures += 1
    return (
        failures == 0 and checked > 0,
        f"{checked} boundary instances, {failures} failures (exact rational equality)",
    )


@_criterion(6, "clique/verdict equivalence (quartic oracle)", limit=60.0)
def criterion_second_order(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """Quartic oracle verdicts agree with the clique oracle, zero tolerance."""
    return _oracle_equivalence("quartic", max_n, seed)


@_criterion(7, "optimal-parameter brackets")
def criterion_sigma_opt(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """Parameter bracket: triangle gadget around 1/81; zero and diagonal exact."""
    cfg = OptConfig(starts=8, max_iters=400, seed=seed)
    K3 = Graph(3, frozenset({(1, 2), (1, 3), (2, 3)}))
    b = sigma_opt_bounds(build_cubic_tensor(K3), cfg)
    ok_k3 = b.lower <= 1.0 / 81.0 <= b.upper and b.lower >= 1.0 / 81.0 - 1e-8
    z = sigma_opt_bounds(sym_from_entries(3, 3, []), cfg)
    ok_zero = z.lower == 0.0 and z.upper == 0.0
    d = sigma_opt_bounds(sym_from_entries(3, 1, [((1, 1, 1), 1)]), cfg)
    ok_diag = d.lower == 0.25 and d.upper == 0.25
    return (
        ok_k3 and ok_zero and ok_diag,
        f"triangle bracket [{b.lower:.10f}, {b.upper:.10f}] around 1/81, "
        f"zero ({z.lower}, {z.upper}), diagonal ({d.lower}, {d.upper})",
    )


@_criterion(8, "sphere-splitting constant")
def criterion_beta_split(max_n: int = 5, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """4/27 - beta^2 (1 - beta) = (beta - 2/3)^2 (beta + 1/3), coefficient by
    coefficient in rationals: the right side is >= 0 on [0, 1] and 0 only at
    beta = 2/3, so beta * sqrt(1 - beta) has maximum sqrt(4/27) = 2/(3*sqrt(3)) there."""
    third = Fraction(1, 3)
    lhs = [1, -1, 0, Fraction(4, 27)]  # highest power first
    rhs = np.polymul(np.polymul([1, -2 * third], [1, -2 * third]), [1, third]).tolist()
    return lhs == rhs, (f"coefficients of 4/27 - beta^2 (1 - beta) [{', '.join(map(str, lhs))}] and of "
                        f"(beta - 2/3)^2 (beta + 1/3) [{', '.join(map(str, rhs))}]: maximum 2/(3*sqrt(3)) at beta = 2/3")


@_criterion(9, "property suite")
def criterion_property_suite(max_n: int = 4, seed: int = DEFAULT_SEED, tol: float = 1e-6):
    """Cross-cutting properties: calculus identities, symmetric-maximizer
    agreement, exact re-verification of every NOT certificate and of every
    coloring and clique-number certificate, and no contradiction across
    certification modes on the graphs with n <= min(max_n, 4)."""
    rng = np.random.default_rng(seed)
    problems: list[str] = []

    # Euler identity and gradient vs central finite differences, 1e-6 relative.
    for _ in range(100):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 5))
        A = _random_tensor(rng, order, dim)
        h = rng.standard_normal(dim)
        h /= np.linalg.norm(h)
        g = grad_form(A, h)
        euler = abs(float(g @ h) - order * eval_form(A, h))
        if euler > 1e-6 * max(1.0, abs(order * eval_form(A, h))):
            problems.append(f"euler gap {euler:.2e}")
        step = 1e-5
        fd = np.zeros(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = step
            fd[i] = (eval_form(A, h + e) - eval_form(A, h - e)) / (2 * step)
        if np.linalg.norm(fd - g) > 1e-6 * max(1.0, np.linalg.norm(g)):
            problems.append("finite-difference gap")

    # Symmetric-maximizer agreement on 50 random order-3 tensors, dim <= 4.
    # At the search witness h, ||A(h,h,.)|| = ||grad||/3 equals the best
    # value (the symmetric and multilinear maxima agree there, to 1e-4
    # relative), and no point of a 0.1 net exceeds it (a global cross-check).
    banach_worst = 0.0
    net_excess = 0.0
    for i in range(50):
        A = _random_tensor(rng, 3, int(rng.integers(2, 5)))
        rep = max_form_sphere(A, OptConfig(starts=12, max_iters=400, seed=seed + i))
        contraction = float(np.linalg.norm(grad_form(A, rep.witness))) / 3.0
        banach_worst = max(banach_worst, abs(contraction - rep.best_value) / max(1.0, rep.best_value))
        net_excess = max(net_excess, grid_lower_and_upper(A, 0.1)[0] - rep.best_value)
    if banach_worst > 1e-4:
        problems.append(f"symmetric-maximizer disagreement {banach_worst:.2e}")
    if net_excess > 1e-12:
        problems.append(f"net maximum exceeds the search by {net_excess:.2e}")

    # Mode sweep: every certificate, a NOT witness, a coloring or an
    # exact_clique_oracle comparison (oracle verdicts included), re-verifies
    # exactly: on gadgets no verdict needs a float bound.  No instance is both
    # certified YES and exactly refuted across relax/grid/oracle.
    cfg = OptConfig(starts=4, max_iters=150, seed=seed)
    certificates = Counter()
    contradictions = 0
    for G in _reduction_graphs(min(max_n, 4)):
        for k in (3, 4, 5, 6):
            for kind, (param, check) in _KINDS.items():
                inst = build_instance(G, kind, k, param)
                statuses = set()
                for mode in ("relax", "grid", "oracle"):
                    verdict = check(inst, cfg, mode=mode)
                    statuses.add(verdict.status)
                    if verdict.status is not Status.UNDECIDED:
                        certificates[verdict.certificate["kind"]] += 1
                        if recheck(inst.A, inst.q, verdict.certificate) is not True:
                            problems.append(f"{verdict.certificate['kind']} certificate failed exact "
                                            f"re-verification ({kind}, {mode}, k={k})")
                if {Status.SELF_CONCORDANT, Status.NOT_SELF_CONCORDANT} <= statuses:
                    contradictions += 1
    if contradictions:
        problems.append(f"{contradictions} cross-mode contradictions")

    return (
        not problems,
        (f"100 calculus checks, symmetric-maximizer worst {banach_worst:.2e} (tol 1e-4), "
         f"net excess {net_excess:.2e} (tol 1e-12), "
         f"{certificates['witness']} NOT, {certificates['coloring']} coloring and "
         f"{certificates['bound']} exact_clique_oracle certificates re-verified exactly, "
         "0 contradictions"
         if not problems else "; ".join(problems[:5])),
    )


CRITERIA = (
    criterion_motzkin_straus,
    criterion_sphere_constants,
    criterion_footnote,
    criterion_decision_equivalence,
    criterion_boundary_exactness,
    criterion_second_order,
    criterion_sigma_opt,
    criterion_beta_split,
    criterion_property_suite,
)


def run_all(max_n: int = 5, seed: int = DEFAULT_SEED, identity_tol: float = 1e-6) -> list[CriterionResult]:
    """All criteria; `identity_tol` overrides the 1e-6 identity tolerance
    (useful to demonstrate failure reporting by tightening it)."""
    return [fn(max_n=max_n, seed=seed, tol=identity_tol) for fn in CRITERIA]


def format_table(results: list[CriterionResult]) -> str:
    lines = []
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{r.number}] {flag}  {r.name}  ({r.details}; {r.seconds:.1f}s)")
    total = sum(r.seconds for r in results)
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} criteria passed in {total:.1f}s")
    return "\n".join(lines)
