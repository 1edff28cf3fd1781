"""Budgeted maximization of forms over spheres.

One local ascent method that respects the feasible geometry directly:
regularized Riemannian Newton ascent (Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008, ch. 6) with a
normalize-after-step retraction.  A candidate is accepted only if it raises
the form, and a rejection raises the regularization, so the ascent is
monotone by construction.  All starts advance in lockstep as rows of one
array, each with its own regularization, plateau count and budget, so a
round costs one batched gradient, Hessian and solve (or truncated CG run,
Steihaug 1983, for large sparse tensors) and one batched form evaluation
however many starts are still running.  Quadratics over the simplex need no
method of their own: the square substitution x = h^2 carries them to quartic
forms on the sphere (`reduction.build_quartic_tensor`).

The search is multistart with deterministic per-start random substreams,
so a fixed seed reproduces results bit for bit.  Reported values are always
lower bounds on the true maximum (every iterate is feasible); certified
upper bounds come from `grid_lower_and_upper` here and
`tensors.spectral_upper_bound`.  The grid bound evaluates the form on a net
of gridded hyperspherical angles without building the net's points: each
monomial factors into one term per angle, so the form over the whole net is
one matrix product of per-angle tables.

`beta_split_max` grids beta * sqrt(1 - beta) over (0, 1), whose maximum
2/(3*sqrt(3)) at beta = 2/3 is the sphere-splitting constant of the cubic
clique gadget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graphs import max_clique  # noqa: F401 -- uncalled; perfbench/tracing.py wraps it here by name
from .tensors import (
    SymTensor,
    eval_form,
    eval_form_batch,
    frobenius,
    grad_form,
    hess_form,
    hess_product,
)

__all__ = [
    "DEFAULT_SEED",
    "OptConfig",
    "OptReport",
    "report_to_json_obj",
    "max_form_sphere",
    "grid_lower_and_upper",
    "beta_split_max",
]

DEFAULT_SEED = 1729

# Consecutive near-flat steps before a trajectory counts as converged.
_PLATEAU = 3

# A rejected Newton step shorter than this ends a sphere ascent, converged.
_STEP_TOL = 1e-12

# A step that changes the value by at most this, relative to max(1, |value|),
# counts as near-flat.
_VALUE_TOL = 1e-13

# Regularization of the Newton steps, in units of order * (order - 1) *
# frobenius(A), which bounds the norm of the Euclidean Hessian on the unit
# sphere: every start begins at mu = 1 unit.  The floor keeps the systems
# nonsingular where the maxima are not isolated and the Hessian has a null
# space there.
_MU_FLOOR = 1e-10

# Largest dim whose Newton steps come from dense batched solves; above it,
# truncated CG with Hessian-vector products is cheaper.  Measured per search
# of the default budget (9 starts, one BLAS thread): on cubic gadgets the two
# break even between dim 52 and 67, and CG is 1.5x faster at dim 94 and 2.7x
# at dim 115; on quartic gadgets they stay within 10% of each other up to
# dim 160.
_DENSE_LIMIT = 60

# Truncated CG stops once its residual is this fraction of the gradient.
_CG_TOL = 1e-2

# Point budget for spherical nets, read on each call.  The net is never
# built, so this is a time guard: the matrix product behind one rung costs
# points x entries.
_NET_BUDGET = 2_500_000

# Spacing of the beta grid of `beta_split_max`.
_BETA_STEP = 1e-6


@dataclass(frozen=True)
class OptConfig:
    """Budget for a multistart search; deterministic given `seed`."""

    starts: int = 8
    max_iters: int = 400
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        for name, least in (("starts", 1), ("max_iters", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")

    @cached_property
    def _hash(self) -> int:
        return hash((self.starts, self.max_iters, self.seed))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class OptReport:
    """Outcome of a budgeted maximization.

    `best_value` is the objective at `witness`, re-evaluated on the stored
    point; `converged` refers to the start that produced the best value.
    Ties across starts break toward the lowest start index.
    """

    best_value: float
    witness: np.ndarray
    per_start_values: tuple[float, ...]
    converged: bool
    evaluations: int


def report_to_json_obj(report: OptReport) -> dict:
    """JSON form of a report; floats become 17-significant-digit strings."""
    return {
        "best_value": format(report.best_value, ".17g"),
        "witness": [format(x, ".17g") for x in report.witness],
        "per_start_values": [format(v, ".17g") for v in report.per_start_values],
        "converged": report.converged,
        "evaluations": report.evaluations,
    }


# ---------------------------------------------------------------------------
# Homogeneous form over the sphere


def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1), bit for bit, without its per-call dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _bordered_steps(E: np.ndarray, H: np.ndarray, shift: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Steps v solving (shift I - E) v + nu h = grad, h^T v = 0, row by row.

    The bordered system keeps v in the tangent space without projecting E.
    A row whose system is exactly singular gets a NaN step, which the
    ascent rejects.
    """
    count, dim = H.shape
    M = np.zeros((count, dim + 1, dim + 1))
    M[:, :dim, :dim] = -E
    M[:, range(dim), range(dim)] += shift[:, None]
    M[:, :dim, dim] = M[:, dim, :dim] = H
    rhs = np.zeros((count, dim + 1, 1))
    rhs[:, :dim, 0] = grad
    try:
        return np.linalg.solve(M, rhs)[:, :dim, 0]
    except np.linalg.LinAlgError:
        v = np.full_like(grad, np.nan)
        for i in range(count):
            try:
                v[i] = np.linalg.solve(M[i], rhs[i])[:dim, 0]
            except np.linalg.LinAlgError:
                pass
        return v


def _truncated_cg(product, H: np.ndarray, shift: np.ndarray, grad: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Steps v solving (shift I - P E P) v = grad on the tangent spaces, row by row.

    `product` maps V to E V (the Euclidean Hessians times V) and P projects
    onto the tangent space at h.  Each row runs conjugate gradients from 0
    until its residual falls below `_CG_TOL` times the gradient norm, or
    until it meets nonpositive curvature (Steihaug): it then keeps the step
    reached so far, or grad / mu if that step is still zero.
    """
    v = np.zeros_like(grad)
    r = grad.copy()
    p = grad.copy()
    rr = np.add.reduce(r * r, axis=1)
    stop = rr * _CG_TOL**2
    live = rr > 0.0
    for _ in range(H.shape[1]):
        Ep = product(p)
        Bp = shift[:, None] * p - (Ep - H * np.add.reduce(H * Ep, axis=1)[:, None])
        curv = np.add.reduce(p * Bp, axis=1)
        bent = live & (curv <= 0.0)
        if np.count_nonzero(bent):
            stuck = bent & ~np.any(v, axis=1)
            v[stuck] = grad[stuck] / mu[stuck, None]
            live &= ~bent
        alpha = np.where(live, rr, 0.0) / np.where(live, curv, 1.0)
        v += alpha[:, None] * p
        r -= alpha[:, None] * Bp
        rr_next = np.add.reduce(r * r, axis=1)
        live &= rr_next > stop
        if not np.count_nonzero(live):
            break
        p = r + (rr_next / np.where(live, rr, 1.0))[:, None] * p
        rr = rr_next
    return v


def _ascend_sphere(A: SymTensor, starts: np.ndarray, cfg: OptConfig) -> list[tuple[float, np.ndarray, int, bool]]:
    """Ascend from every row of `starts` (S x dim) in lockstep.

    Each start takes regularized Riemannian Newton steps: with g and E the
    Euclidean gradient and Hessian at h, lam = <g, h>, grad = g - lam h and
    Hess = P E P - lam I on the tangent space, the step v solves
    (mu I - Hess) v = grad with v orthogonal to h, and the candidate
    normalize(h + v) is accepted only if the form value increases.  An
    accepted step halves mu (down to a floor), a rejected one multiplies it
    by ten, so a rejected start moves on to ever shorter gradient-like
    steps and every iterate stays feasible.  Up to `_DENSE_LIMIT` the
    steps come from one batched solve of the bordered systems
    [[(lam + mu) I - E, h], [h^T, 0]]; above it, from truncated CG with
    Hessian-vector products.

    A start stops, converged, after `_PLATEAU` consecutive steps whose
    candidate value is within `_VALUE_TOL` of the current one, accepted or
    not, or on a rejected step shorter than `_STEP_TOL`, and stops
    unconverged after `max_iters` steps.  Every step costs one evaluation.
    Each round makes one `grad_form` call and one Hessian kernel call on
    the starts that just accepted a step (or just started) and one
    `eval_form_batch` call on one candidate per running start; stopped
    starts are dropped from the arrays.
    """
    norms = _row_norms(starts)
    if np.any(norms == 0.0):
        raise ValueError("start point must be nonzero")
    H = starts / norms[:, None]
    count, dim = H.shape
    dense = dim <= _DENSE_LIMIT
    scale = A.order * (A.order - 1) * frobenius(A)
    floor = _MU_FLOOR * scale
    values = eval_form_batch(A, H)
    results: list = [None] * count
    ids = np.arange(count)
    evals = np.ones(count, dtype=np.int64)
    mu = np.full(count, scale)
    plateau = np.zeros(count, dtype=np.int64)
    lam = np.empty(count)
    grad = np.empty_like(H)
    E = np.empty((count, dim, dim) if dense else (count, 0, 0))
    fresh = np.ones(count, dtype=bool)

    for step in range(1, cfg.max_iters + 1):
        if np.count_nonzero(fresh):
            h = H[fresh]
            g = grad_form(A, h)
            lam[fresh] = np.add.reduce(g * h, axis=1)
            grad[fresh] = g - lam[fresh, None] * h
            if dense:
                E[fresh] = hess_form(A, h)
        if dense:
            v = _bordered_steps(E, H, lam + mu, grad)
        else:
            v = _truncated_cg(hess_product(A, H), H, lam + mu, grad, mu)
        cand = H + v
        cand /= _row_norms(cand)[:, None]
        cand_values = eval_form_batch(A, cand)
        evals += 1
        up = cand_values > values
        gain = cand_values - values
        np.copyto(H, cand, where=up[:, None])
        np.copyto(values, cand_values, where=up)
        mu = np.where(up, np.maximum(0.5 * mu, floor), 10.0 * mu)
        near_flat = np.abs(gain) <= _VALUE_TOL * np.maximum(1.0, np.abs(values))
        plateau = np.where(near_flat, plateau + 1, 0)
        converged = (plateau >= _PLATEAU) | (~up & (np.add.reduce(v * v, axis=1) < _STEP_TOL**2))
        halt = converged | (step == cfg.max_iters)
        fresh = up & ~halt
        if np.count_nonzero(halt):
            for i in np.flatnonzero(halt):
                results[ids[i]] = (float(values[i]), H[i], int(evals[i]), bool(converged[i]))
            keep = ~halt
            ids, H, values, evals, mu, plateau, lam, grad, E, fresh = (
                x[keep] for x in (ids, H, values, evals, mu, plateau, lam, grad, E, fresh)
            )
            if ids.size == 0:
                break
    return results


def max_form_sphere(
    A: SymTensor,
    cfg: OptConfig | None = None,
    extra_starts: tuple = (),
    nonnegative_starts: bool = False,
) -> OptReport:
    """Multistart ascent of A(h, ..., h) over the unit sphere.

    `extra_starts` are tried first (callers with a known analytic witness,
    e.g. a clique-derived maximizer, pass it here so the reported value is
    guaranteed to reach it).  `nonnegative_starts` draws the random starts
    from the nonnegative orthant, where edge-derived forms attain their
    maxima.
    """
    cfg = cfg or OptConfig()
    if not A.entries:
        witness = np.zeros(A.dim)
        witness[0] = 1.0
        witness.setflags(write=False)
        return OptReport(0.0, witness, (0.0,), True, 1)

    starts: list[np.ndarray] = [np.asarray(s, dtype=float) for s in extra_starts]
    for stream in np.random.SeedSequence(cfg.seed).spawn(cfg.starts):
        draw = np.random.Generator(np.random.PCG64(stream)).standard_normal(A.dim)
        starts.append(np.abs(draw) if nonnegative_starts else draw)

    results = _ascend_sphere(A, np.array(starts), cfg)
    values = [r[0] for r in results]
    best = int(np.argmax(values))  # argmax returns the first maximum: lowest start index wins ties
    value, witness, _, converged = results[best]
    witness = np.array(witness)
    witness.setflags(write=False)
    return OptReport(value, witness, tuple(values), converged, sum(r[2] for r in results))


# ---------------------------------------------------------------------------
# Certified sphere grid bound


@lru_cache(maxsize=25)
def _sphere_net(dim: int, n_half: int, n_full: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(cos, sin) tables, one pair per gridded angle of a net on S^(dim-1).

    Angles 1..dim-2 run over [0, pi] with n_half points inclusive; the last
    angle runs over [0, 2*pi) with n_full points.  The net (never built) is
    every combination of angles t, the point with coordinates
    h_k = sin t_1 ... sin t_(k-1) cos t_k, whose last coordinate h_dim is
    sin t_1 ... sin t_(dim-1).  The unit-speed bound on each angle gives
    covering radius <= sum of half-spacings.
    """
    half = np.linspace(0.0, math.pi, n_half)
    full = np.linspace(0.0, 2.0 * math.pi, n_full, endpoint=False)
    tables = (np.cos(half), np.sin(half), np.cos(full), np.sin(full))
    for table in tables:
        table.setflags(write=False)
    return (tables[:2],) * (dim - 2) + (tables[2:],)


def grid_lower_and_upper(A: SymTensor, resolution: float) -> tuple[float, float]:
    """(net maximum, certified bound) for |A| on the unit sphere.

    The net maximum is a lower bound on max |A| (net points are feasible);
    adding the Lipschitz slack L * resolution with L = order * frobenius(A)
    (the gradient norm of the form is at most L on the unit ball) makes the
    second component a sound upper bound.  Finer resolutions tighten both.

    The form is evaluated on the net of `_sphere_net` without building its
    points.  An entry with coordinate powers e_1..e_dim is, at a net point,
    a product over angles of cos(t_j)^e_j * sin(t_j)^(e_(j+1) + ... + e_dim).
    So the weighted outer products of the half-angle factors (one row per
    combination of half angles, one column per entry) times the transposed
    last-angle factors give the form at every net point in one matrix product.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    if A.dim > 5:
        raise ValueError(f"grid certification supports dim <= 5, got {A.dim}")
    if A.dim == 1:
        exact = abs(eval_form(A, np.array([1.0])))
        return exact, exact
    spacing = 2.0 * resolution / (A.dim - 1)
    n_half = int(math.ceil(math.pi / spacing)) + 1
    n_full = int(math.ceil(2.0 * math.pi / spacing))
    n_points = n_half ** (A.dim - 2) * n_full
    if n_points > _NET_BUDGET:
        raise ValueError(
            f"net of {n_points} points for dim {A.dim} at resolution {resolution} "
            f"exceeds budget {_NET_BUDGET}"
        )
    tables = _sphere_net(A.dim, n_half, n_full)
    net_max = 0.0
    if A.entries:
        idx, weights = A._packed.idx, A._packed.weights
        powers = (idx[:, :, None] == np.arange(A.dim)).sum(axis=1)  # entries x dim
        tails = np.cumsum(powers[:, ::-1], axis=1)[:, ::-1]  # tails[:, j] = powers[:, j:].sum(1)
        factors = [
            cos[:, None] ** powers[:, j] * sin[:, None] ** tails[:, j + 1]
            for j, (cos, sin) in enumerate(tables)
        ]
        rows = weights[None, :]
        for factor in factors[:-1]:
            rows = (rows[:, None, :] * factor[None, :, :]).reshape(-1, weights.size)
        net_max = float(np.max(np.abs(rows @ factors[-1].T)))
    lipschitz = A.order * frobenius(A)
    return net_max, net_max + lipschitz * resolution


def beta_split_max() -> tuple[float, float]:
    """Grid maximum of beta * sqrt(1 - beta) over (0, 1) at spacing `_BETA_STEP`: (argmax, value)."""
    betas = np.arange(_BETA_STEP, 1.0, _BETA_STEP)
    values = betas * np.sqrt(1.0 - betas)
    best = int(np.argmax(values))
    return float(betas[best]), float(values[best])
