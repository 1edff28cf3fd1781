"""The clique gadget, its two parameter sets, and exact rational thresholds.

One construction turns a graph G (n vertices, m >= 1 edges) into a
symmetric tensor A whose form, raised to a power p, has sphere maximum
c * (1 - 1/omega(G)).  It comes with two parameter sets, one record each in
`GADGETS`:

* cubic (order 3, c = 2/27, p = 2): a tensor on R^(n+m) whose coordinates
  split into one u per vertex and one w per edge.  Each edge {i, j} with
  edge index k contributes the index orbit of (i, j, n+k) with orbit value
  1/6 so that the induced form is exactly  sum over edges of
  u_i * u_j * w_ij.  The squared maximum is the simplex quadratic maximum
  (1/2)(1 - 1/omega) from the clique identity, carried to the sphere by the
  square substitution x_i = u_i^2, the Cauchy-Schwarz coupling
  w_ij proportional to u_i * u_j (its equality case) and the split of the
  unit mass 2/3 onto u and 1/3 onto w (2/3 maximizes beta * sqrt(1-beta),
  at 2/(3*sqrt(3)) = 0.3849), whence the constant
  (2/(3*sqrt(3)))^2 * 1/2 = 2/27.  At a clique C of size c, u = 1 on C and
  w = 1/sqrt(c-1) on the edges inside C meet every step with equality:
  they put mass c on u and c/2 on w, the 2/3 split.

* quartic (order 4, c = 1/2, p = 1): a tensor on R^n where each edge
  contributes the orbit of (i, i, j, j) with value 1/6, so the form is
  sum over edges of h_i^2 * h_j^2.

An instance pairs the tensor with a threshold q.  For a target clique size
k and a curvature parameter (sigma for cubic, tau for quartic), the model
function  f(x) = (gamma/2) x.x + A(x,..,x)/order!  has Hessian gamma*I and
order-th derivative A at the origin, and the defining inequality at the
origin collapses to  A(h,..,h)^p <= q (h.h)^(p*order/2)  with

    cubic:    q = 4*sigma*gamma^3 = (2/27)(1 - 1/(k-1))
    quartic:  q = 6*tau*gamma^2   = (1/2)(1 - 1/(k-1))

gamma itself is irrational in general; only gamma^3 (resp. gamma^2) is
derived, exactly, from q and the parameter, so every threshold comparison
stays in rational arithmetic.  The inequality holds for all h exactly when
omega(G) <= k-1, with equality of maximum and threshold at omega = k-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .graphs import Graph, max_clique
from .tensors import MAX_ENTRIES, SymTensor, check_entry_count

__all__ = [
    "Gadget",
    "GADGETS",
    "ConcordanceInstance",
    "build_cubic_tensor",
    "build_quartic_tensor",
    "Support",
    "read_support",
    "threshold",
    "true_max",
    "build_instance",
    "build_cubic_instance",
    "build_quartic_instance",
    "rational_cubic_witness",
    "rational_quartic_witness",
    "unit_witness",
]


# Largest numerator or denominator of a threshold q in lowest terms: float(q),
# which the checker compares against, is then finite and nonzero, and a witness
# certificate's q * (h.h)^j, whose factor adds up to ~140 digits, stays far
# below the 4,300 digits that `str()` prints.
_Q_LIMIT = 10**308


def _rational(value, name: str) -> Fraction:
    if type(value) is Fraction:  # memoized thresholds and parameters pass through unchanged
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:  # ArithmeticError: a zero denominator, an infinite float
        raise ValueError(f"{name} must be rational, got {value!r}") from exc


def _require_reducible(G: Graph):
    """Refuse a graph the gadgets cannot encode, before any entry is built: one
    with no edge, or one whose m edges, one entry each, pass `MAX_ENTRIES`."""
    if G.n < 2 or G.m < 1:
        raise ValueError(f"reduction needs n >= 2 and m >= 1, got n={G.n}, m={G.m}")
    check_entry_count(G.m, f"the gadget of a graph with {G.m} edges")


@dataclass(frozen=True)
class ConcordanceInstance:
    """A point-model of a function at the origin, reduced to form data.

    `kind` names the gadget record whose inequality shape applies: "cubic"
    compares the squared 3-form against q*(h.h)^3, "quartic" compares the
    4-form against q*(h.h)^2.  `sigma_or_tau` is set when the instance came
    from a (graph, k, parameter) construction; instances built directly from
    a tensor and a threshold leave it unset.  The graph itself is not kept:
    the checker reads it back from the tensor.
    """

    kind: str
    A: SymTensor
    q: Fraction
    sigma_or_tau: Fraction | None = None

    def __post_init__(self):
        if self.kind not in GADGETS:
            raise ValueError(f"kind must be one of {tuple(GADGETS)}, got {self.kind!r}")
        expected = GADGETS[self.kind].order
        if self.A.order != expected:
            raise ValueError(f"{self.kind} instance needs an order-{expected} tensor, got order {self.A.order}")
        # Signs are read off the numerators (a Fraction's denominator is positive).
        object.__setattr__(self, "q", _rational(self.q, "q"))
        if max(abs(self.q.numerator), self.q.denominator) > _Q_LIMIT:
            raise ValueError("threshold q must have a numerator and a denominator of at most 10^308 in lowest terms")
        if self.q.numerator <= 0:
            raise ValueError(f"threshold q must be positive, got {self.q}")
        if self.sigma_or_tau is not None:
            name = GADGETS[self.kind].param
            object.__setattr__(self, "sigma_or_tau", _rational(self.sigma_or_tau, name))
            if self.sigma_or_tau.numerator <= 0:
                raise ValueError(f"{name} must be positive, got {self.sigma_or_tau}")

    @property
    def gamma_power(self) -> Fraction | None:
        """gamma^3 (cubic) or gamma^2 (quartic): q / (multiplier * parameter)."""
        if self.sigma_or_tau is None:
            return None
        return self.q / (GADGETS[self.kind].multiplier * self.sigma_or_tau)


# ---------------------------------------------------------------------------
# Gadget tensors and clique witnesses

# Gadget tensors of each kind kept per process: the last graph's.  A tensor
# depends on its graph alone, so every decision of a k-sweep gets the same
# object, whose hash and packed arrays are computed once and which the
# checker's caches then find by identity.  Sweeps are graph-major (all k and
# modes of one graph in a row), so a deeper memo would add no hit, only keep
# the gadgets of graphs already done alive.
_KEPT_GADGETS = 1

_SIXTH = Fraction(1, 6)  # every gadget entry's value: its orbit has 6 positions, so its monomial enters the form once


@lru_cache(maxsize=_KEPT_GADGETS)
def build_cubic_tensor(G: Graph) -> SymTensor:
    """Edge-coupled cubic tensor on R^(n+m), memoized by graph.

    Coordinates: h = (u_1, ..., u_n, w_e1, ..., w_em) with edges in
    G.edge_order.  One canonical entry (i, j, n+k) per edge e_k = {i, j},
    value 1/6, so the form contribution is exactly u_i * u_j * w_ij.
    """
    _require_reducible(G)
    return SymTensor(3, G.n + G.m, {(i, j, G.n + k): _SIXTH for k, (i, j) in enumerate(G.edge_order, start=1)})


@lru_cache(maxsize=_KEPT_GADGETS)
def build_quartic_tensor(G: Graph) -> SymTensor:
    """Square-pair quartic tensor on R^n, memoized by graph: form is sum over edges of h_i^2 h_j^2."""
    _require_reducible(G)
    return SymTensor(4, G.n, {(i, i, j, j): _SIXTH for i, j in G.edge_order})


def _check_clique(G: Graph, C: Iterable[int]) -> list[int]:
    members = sorted(set(C))
    if len(members) < 2:
        raise ValueError(f"clique must have at least 2 vertices, got {len(members)}")
    for v in members:
        if not 1 <= v <= G.n:
            raise ValueError(f"vertex {v} out of range 1..{G.n}")
    for a in members:
        for b in members:
            if a < b and (a, b) not in G.edges:
                raise ValueError(f"{{{a},{b}}} is not an edge: set is not a clique")
    return members


def rational_quartic_witness(G: Graph, C: Iterable[int]) -> tuple[Fraction, ...]:
    """Indicator vector of the clique: its quartic ratio is exactly (1/2)(1 - 1/c)."""
    _require_reducible(G)
    members = set(_check_clique(G, C))
    return tuple(Fraction(1) if v in members else Fraction(0) for v in range(1, G.n + 1))


def rational_cubic_witness(G: Graph, C: Iterable[int]) -> tuple[Fraction, ...]:
    """Rational near-maximizer of the cubic form ratio, for exact certificates.

    The violation check is scale invariant, so normalization is dropped:
    u = 1 on the clique (the quartic witness) and w = t on its internal
    edges, t the fraction with denominator at most 10^12 nearest the float
    1/sqrt(c-1), the optimal coupling scale.  The achieved ratio
    [A(h)]^2 / (h.h)^3 falls short of the maximum (2/27)(1 - 1/c) only to
    second order in the error of t (about 1e-16, from the float square
    root); when c >= k the maximum exceeds the threshold by at least
    (2/27)/(c(c-1)), so the witness verifies.
    """
    u = rational_quartic_witness(G, C)
    t = Fraction(1.0 / math.sqrt(u.count(1) - 1)).limit_denominator(10**12)
    return u + tuple(t if u[i - 1] and u[j - 1] else Fraction(0) for i, j in G.edge_order)


# ---------------------------------------------------------------------------
# The gadget table


@dataclass(frozen=True)
class Gadget:
    """One parameter set of the clique gadget.

    The sphere maximum of A(h,..,h)^p is c * (1 - 1/omega(G)) for the tensor
    A = `tensor`(G) of order `order`, attained (up to scale) at the exact
    rational `witness`(G, C) for a maximum clique C.  The threshold for
    clique size k is q = c * (1 - 1/(k-1)) = `multiplier` * parameter *
    gamma-power; instance JSON names the parameter `param` and the
    gamma-power `gamma`.
    """

    order: int
    c: Fraction
    p: int
    multiplier: int
    param: str
    gamma: str
    tensor: Callable[[Graph], SymTensor]
    witness: Callable[[Graph, Iterable[int]], tuple[Fraction, ...]]
    # bound(r) by (type, r): one entry per clique or color count seen.  Typed,
    # so that a float r still fails in `Fraction` instead of reading the
    # entry of the equal int.
    _bounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def bound(self, r: int) -> Fraction:
        """c * (1 - 1/r): the maximum of A^p when omega = r, and its bound from an r-coloring; memoized."""
        key = (type(r), r)
        value = self._bounds.get(key)
        if value is None:
            value = self._bounds[key] = Fraction(self.c.numerator * (r - 1), self.c.denominator * r)
        return value


GADGETS = {
    "cubic": Gadget(3, Fraction(2, 27), 2, 4, "sigma", "gamma_cubed", build_cubic_tensor, rational_cubic_witness),
    "quartic": Gadget(4, Fraction(1, 2), 1, 6, "tau", "gamma_squared", build_quartic_tensor, rational_quartic_witness),
}

# A tensor's gadget kind, told apart by its order.
_KIND_OF_ORDER = {gadget.order: kind for kind, gadget in GADGETS.items()}


class Support(NamedTuple):
    """What `read_support` reads off a tensor of gadget shape."""

    kind: str  # the gadget kind of the tensor's order
    vertices: tuple[int, ...]  # the vertex coordinates, in increasing order
    graph: Graph  # the support graph H, vertices[v - 1] as its vertex v
    exact: bool  # whether the tensor is `GADGETS[kind].tensor(graph)`


def read_support(A: SymTensor) -> Support | None:
    """The support graph of A and its layout when A has gadget shape, else None.

    Gadget shape: at least one entry (the float bounds are exactly 0 on the
    zero tensor) and at most `MAX_ENTRIES`, as a gadget built from a graph
    has, so that the clique witness of H and its exact maximum never refuse
    H; every |value| <= 1/6; and every entry on a gadget orbit, (i, i, j, j)
    with i < j for order 4 or (i, j, w) with i < j < w for order 3, where
    each edge coordinate w is in one entry only and is no entry's i or j,
    and no pair (i, j) repeats.  The vertex coordinates are all coordinates
    but the edge coordinates.  One pass over the entries, in integers:
    |value| <= 1/6 is 6 |numerator| <= denominator.  H joins i and j for
    each entry, its vertex coordinates renumbered 1..n in order.  A is the
    gadget of H, read in the same pass, when every value is 1/6 and, for
    order 3, the m edge coordinates are n+1..n+m in H's edge order.
    """
    kind = _KIND_OF_ORDER.get(A.order)
    if kind is None or not 0 < len(A.entries) <= MAX_ENTRIES:
        return None
    pairs = []
    ends = set()  # every entry's i and j
    edge_coordinates = set()
    n = A.dim - len(A.entries)  # the vertex count of an exact cubic gadget
    listed = [None] * len(A.entries) if A.order == 3 else []  # its pairs at w = n+1, n+2, ...
    exact = True
    for key, value in A.entries.items():
        if 6 * abs(value.numerator) > value.denominator:
            return None
        exact = exact and value.numerator == 1 and value.denominator == 6
        if A.order == 4:
            i, i2, j, j2 = key
            if not i == i2 < j == j2:  # distinct keys, so no pair repeats
                return None
        else:
            i, j, w = key
            if not i < j < w or w in ends or not edge_coordinates.isdisjoint((i, j, w)):
                return None
            edge_coordinates.add(w)
            ends.update((i, j))
            exact = exact and w > n
            if exact:
                listed[w - n - 1] = (i, j)
        pairs.append((i, j))
    if A.order == 3 and len(set(pairs)) < len(pairs):
        return None
    exact = exact and all(a < b for a, b in zip(listed, listed[1:]))
    vertices = tuple(v for v in range(1, A.dim + 1) if v not in edge_coordinates)
    position = {v: i for i, v in enumerate(vertices, start=1)}
    H = Graph(len(vertices), frozenset((position[i], position[j]) for i, j in pairs))
    return Support(kind, vertices, H, exact)


def unit_witness(kind: str, G: Graph, C: Iterable[int]) -> np.ndarray:
    """The `kind` gadget's clique witness h scaled to the unit sphere, h / |h|.

    For a maximum clique C this is the sphere maximizer that a search starts
    from; A(h,..,h)^p there is c * (1 - 1/|C|) up to rounding.
    """
    h = np.array(GADGETS[kind].witness(G, C), dtype=float)
    return h / np.linalg.norm(h)


def threshold(kind: str, k: int) -> Fraction:
    """q = c * (1 - 1/(k-1)), the decision threshold of the `kind` gadget for clique size k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return GADGETS[kind].bound(k - 1)


def true_max(kind: str, G: Graph) -> Fraction:
    """Exact sphere maximum of A^p for the `kind` gadget of G: c * (1 - 1/omega)."""
    _require_reducible(G)
    return GADGETS[kind].bound(len(max_clique(G)))


def build_instance(G: Graph, kind: str, k: int, param) -> ConcordanceInstance:
    """Decision instance for (G, k, parameter); q is exactly the `kind` threshold.

    k < 3 is rejected: k = 2 gives q = 0, i.e. gamma = 0, a degenerate
    (flat) curvature the construction cannot use.
    """
    if k < 3:
        raise ValueError(f"{kind} instances need k >= 3, got {k}")
    return ConcordanceInstance(kind, GADGETS[kind].tensor(G), threshold(kind, k), param)


def build_cubic_instance(G: Graph, k: int, sigma) -> ConcordanceInstance:
    """Cubic decision instance for (G, k, sigma)."""
    return build_instance(G, "cubic", k, sigma)


def build_quartic_instance(G: Graph, k: int, tau) -> ConcordanceInstance:
    """Quartic decision instance for (G, k, tau)."""
    return build_instance(G, "quartic", k, tau)
