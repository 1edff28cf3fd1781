"""Sphere maximizer, the simplex identity through it, certified grid bound, sphere-splitting constant."""

import math
from itertools import combinations

import numpy as np
import pytest

from selfconcord import (
    GADGETS,
    OptConfig,
    grad_form,
    hess_form,
    beta_split_max,
    build_cubic_tensor,
    build_quartic_tensor,
    clique_number,
    complement,
    enumerate_graphs,
    eval_form,
    eval_form_batch,
    graph_from_edges,
    grid_lower_and_upper,
    max_clique,
    max_form_sphere,
    spectral_upper_bound,
    stability_number,
    sym_from_entries,
    frobenius,
    true_max,
    unit_witness,
)
from selfconcord import optimize
from selfconcord.acceptance import gadget_side

from conftest import random_sym_tensor, random_unit_vector

CFG = OptConfig(starts=6, max_iters=300, seed=101)


def simplex_quadratic(G, x):
    return sum(x[i - 1] * x[j - 1] for i, j in G.edge_order)


# ---------------------------------------------------------------------------
# Quadratic over the simplex: the quartic side, x = h^2


def test_simplex_k3(k3):
    side = gadget_side("quartic", k3, CFG)
    assert abs(side.max_value - 1.0 / 3.0) <= 1e-9
    assert np.allclose(side.report.witness**2, [1 / 3] * 3, atol=1e-6)
    assert abs(side.scaled - (1.0 - 1.0 / 3.0)) <= 1e-9


def test_simplex_single_edge(single_edge):
    # one-dimensional calculus: max of t(1-t) is 1/4 at t = 1/2
    side = gadget_side("quartic", single_edge, CFG)
    assert abs(side.max_value - 0.25) <= 1e-12
    assert np.allclose(side.report.witness**2, [0.5, 0.5], atol=1e-9)
    assert abs(side.scaled - 0.5) <= 1e-12


def test_simplex_footnote_stability_variant(footnote_graph):
    side = gadget_side("quartic", complement(footnote_graph), CFG)
    assert abs(side.max_value - 0.25) <= 1e-9
    assert abs(side.scaled - (1.0 - 1.0 / stability_number(footnote_graph))) <= 1e-9
    assert side.gap <= 1e-9


def test_simplex_empty_summand(k3):
    # complete graph: the stability variant has no non-edges to sum, and no search runs
    side = gadget_side("quartic", complement(k3), CFG)
    assert (side.max_value, side.scaled, side.target, side.gap) == (0.0, 0.0, 0.0, 0.0)
    assert side.report is None


def test_simplex_witness_feasible_and_consistent():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        pairs = [(i, j) for i, j in combinations(range(1, n + 1), 2) if rng.random() < 0.6]
        if not pairs:
            continue
        G = graph_from_edges(n, pairs)
        rep = gadget_side("quartic", G, CFG).report
        x = rep.witness**2
        assert abs(x.sum() - 1.0) <= 1e-12
        assert abs(rep.best_value - simplex_quadratic(G, x)) <= 1e-12


def test_simplex_clique_identity_exhaustive_n4():
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            side = gadget_side("quartic", G, CFG)
            assert side.scaled >= side.target - 1e-9
            assert side.scaled <= side.target + 1e-6
            assert side.target == 1.0 - 1.0 / clique_number(G)


def test_simplex_deterministic(k3):
    a = gadget_side("quartic", k3, CFG).report
    build_quartic_tensor.cache_clear()  # a new tensor, so the search runs again instead of reading its cache
    b = gadget_side("quartic", k3, CFG).report
    assert a is not b
    assert a.best_value == b.best_value
    assert np.array_equal(a.witness, b.witness)
    assert a.per_start_values == b.per_start_values
    assert a.evaluations == b.evaluations


# ---------------------------------------------------------------------------
# Homogeneous form over the sphere


def test_sphere_k3_cubic(k3):
    rep = max_form_sphere(build_cubic_tensor(k3), CFG)
    assert abs(rep.best_value - 2.0 / 9.0) <= 1e-8
    assert abs(rep.best_value**2 - (2.0 / 27.0) * (1.0 - 1.0 / 3.0)) <= 1e-8


def test_sphere_diagonal_cubic():
    A = sym_from_entries(3, 2, [((1, 1, 1), 1)])
    rep = max_form_sphere(A, CFG)
    assert abs(rep.best_value - 1.0) <= 1e-10
    assert abs(abs(rep.witness[0]) - 1.0) <= 1e-8


def test_sphere_k3_quartic(k3):
    rep = max_form_sphere(build_quartic_tensor(k3), CFG)
    assert abs(rep.best_value - (0.5 * (1.0 - 1.0 / 3.0))) <= 1e-8


def test_sphere_zero_tensor():
    rep = max_form_sphere(sym_from_entries(3, 4, []), CFG)
    assert rep.best_value == 0.0
    assert rep.converged
    assert abs(np.linalg.norm(rep.witness) - 1.0) <= 1e-12


def test_sphere_witness_feasible_and_consistent():
    rng = np.random.default_rng(59)
    for _ in range(15):
        A = random_sym_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        rep = max_form_sphere(A, CFG)
        assert abs(np.linalg.norm(rep.witness) - 1.0) <= 1e-12
        assert abs(rep.best_value - eval_form(A, rep.witness)) <= 1e-12


def test_sphere_lower_bound_below_certified_upper_bounds():
    rng = np.random.default_rng(61)
    for _ in range(10):
        A = random_sym_tensor(rng, 3, int(rng.integers(2, 5)))
        rep = max_form_sphere(A, CFG)
        assert rep.best_value <= spectral_upper_bound(A) + 1e-10
        assert rep.best_value <= grid_lower_and_upper(A, 0.05)[1] + 1e-10


def test_sphere_objective_scale_invariance_power_of_two():
    rng = np.random.default_rng(67)
    A = random_sym_tensor(rng, 3, 4)
    h = rng.standard_normal(4)
    base = eval_form(A, h / np.linalg.norm(h))
    for t in (2.0, 4.0, 0.5):
        # scaling by a power of two is exact in binary floats
        scaled = t * h
        assert eval_form(A, scaled / np.linalg.norm(scaled)) == base


def test_sphere_deterministic(k3):
    A = build_cubic_tensor(k3)
    a = max_form_sphere(A, CFG)
    b = max_form_sphere(A, CFG)
    assert a.best_value == b.best_value
    assert np.array_equal(a.witness, b.witness)
    assert a.per_start_values == b.per_start_values
    assert a.evaluations == b.evaluations


def test_sphere_extra_start_guarantees_value(k3):
    A = build_cubic_tensor(k3)
    lean = OptConfig(starts=1, max_iters=5, seed=7)
    rep = max_form_sphere(A, lean, extra_starts=(unit_witness("cubic", k3, {1, 2, 3}),))
    assert rep.best_value >= 2.0 / 9.0 - 1e-12


def reference_newton(A, h0, cfg):
    """One start alone, dense steps: the scalar loop the lockstep search must reproduce."""
    if not A.entries:
        return 0.0, True  # answered before any search
    h = h0 / np.linalg.norm(h0)
    value, plateau = eval_form(A, h), 0
    scale = A.order * (A.order - 1) * frobenius(A)
    mu = scale
    for _ in range(cfg.max_iters):
        g = grad_form(A, h)
        lam = float(g @ h)
        bordered = np.zeros((A.dim + 1, A.dim + 1))
        bordered[:-1, :-1] = (lam + mu) * np.eye(A.dim) - hess_form(A, h)
        bordered[:-1, -1] = bordered[-1, :-1] = h
        v = np.linalg.solve(bordered, np.append(g - lam * h, 0.0))[:-1]
        assert abs(v @ h) <= 1e-9 * max(1.0, np.linalg.norm(v))  # a tangent step
        cand = (h + v) / np.linalg.norm(h + v)
        cand_value = eval_form(A, cand)
        gain = cand_value - value
        if cand_value > value:
            h, value = cand, cand_value
            mu = max(mu / 2.0, 1e-10 * scale)
        elif np.linalg.norm(v) < optimize._STEP_TOL:
            return value, True
        else:
            mu *= 10.0
        plateau = plateau + 1 if abs(gain) <= optimize._VALUE_TOL * max(1.0, abs(value)) else 0
        if plateau >= 3:
            return value, True
    return value, False


def test_sphere_lockstep_matches_reference_newton():
    rng = np.random.default_rng(103)
    for max_iters in (2, 400):
        cfg = OptConfig(starts=5, max_iters=max_iters, seed=11)
        for _ in range(8):
            A = random_sym_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            extra = (np.abs(rng.standard_normal(A.dim)),)
            rep = max_form_sphere(A, cfg, extra_starts=extra)
            draws = [np.asarray(extra[0])]
            for gen in np.random.SeedSequence(cfg.seed).spawn(cfg.starts):
                draws.append(np.random.Generator(np.random.PCG64(gen)).standard_normal(A.dim))
            expected = [reference_newton(A, h0, cfg) for h0 in draws]
            for got, (want, _) in zip(rep.per_start_values, expected):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert rep.converged == expected[int(np.argmax(rep.per_start_values))][1]


def test_sphere_lockstep_starts_independent():
    rng = np.random.default_rng(97)
    for _ in range(10):
        A = random_sym_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        extra = tuple(rng.standard_normal((3, A.dim)))
        alone = max_form_sphere(A, CFG)
        joint = max_form_sphere(A, CFG, extra_starts=extra)
        assert len(joint.per_start_values) == len(extra) + CFG.starts
        for a, b in zip(alone.per_start_values, joint.per_start_values[len(extra):]):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
        assert abs(joint.best_value - eval_form(A, joint.witness)) <= 1e-12
        assert joint.best_value == max(joint.per_start_values)


def test_sphere_evaluation_budget():
    # Per start: one initial value and one candidate per Newton step.
    rng = np.random.default_rng(101)
    for max_iters in (1, 3, 20):
        cfg = OptConfig(starts=5, max_iters=max_iters, seed=3)
        for _ in range(5):
            A = random_sym_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            rep = max_form_sphere(A, cfg)
            assert rep.evaluations <= cfg.starts * (1 + max_iters)


def test_sphere_values_never_fall_below_start():
    rng = np.random.default_rng(107)
    cfg = OptConfig(starts=6, max_iters=50, seed=5)
    for _ in range(15):
        A = random_sym_tensor(rng, int(rng.integers(2, 5)), int(rng.integers(1, 6)))
        draws = [np.random.Generator(np.random.PCG64(gen)).standard_normal(A.dim)
                 for gen in np.random.SeedSequence(cfg.seed).spawn(cfg.starts)]
        start_values = eval_form_batch(A, np.array([d / np.linalg.norm(d) for d in draws]))
        rep = max_form_sphere(A, cfg)
        assert all(got >= start for got, start in zip(rep.per_start_values, start_values))


def record_starts(monkeypatch):
    """Patch the lockstep ascent to keep every start's (value, point, evaluations, converged)."""
    runs = []
    ascend = optimize._ascend_sphere

    def recording(A, starts, cfg):
        runs.append(ascend(A, starts, cfg))
        return runs[-1]

    monkeypatch.setattr(optimize, "_ascend_sphere", recording)
    return runs


def test_sphere_every_start_converges_on_small_gadgets(monkeypatch):
    runs = record_starts(monkeypatch)
    cfg = OptConfig()
    for n in (2, 3, 4):
        for G in enumerate_graphs(n):
            if not G.edges:
                continue
            for kind in GADGETS:
                gadget = GADGETS[kind]
                A = gadget.tensor(G)
                rep = max_form_sphere(A, cfg, (unit_witness(kind, G, max_clique(G)),), nonnegative_starts=True)
                target = float(true_max(kind, G)) ** (1.0 / gadget.p)
                assert abs(rep.best_value - target) <= 1e-12
                assert all(converged for _, _, _, converged in runs[-1]), (kind, G.edge_order)


def test_sphere_singular_newton_system_is_rejected():
    # h2^2 at e1: no gradient, and the first regularized system, 2 - 2 on the
    # tangent e2, is exactly singular.  The step is rejected, not raised.
    A = sym_from_entries(2, 2, [((2, 2), 1)])
    rep = max_form_sphere(A, OptConfig(starts=2, seed=3), extra_starts=([1.0, 0.0],))
    assert rep.per_start_values[0] == 0.0
    assert rep.best_value == 1.0


def test_sphere_cg_and_dense_steps_agree(monkeypatch):
    # A cubic gadget above the dense limit: truncated CG steps by default,
    # dense bordered solves when the limit is raised.
    G = graph_from_edges(16, [(i, j) for i, j in combinations(range(1, 17), 2) if (i + j) % 4])
    A = build_cubic_tensor(G)
    assert A.dim > optimize._DENSE_LIMIT
    cfg = OptConfig(starts=4, seed=17)
    runs = record_starts(monkeypatch)
    cg = max_form_sphere(A, cfg, nonnegative_starts=True)
    monkeypatch.setattr(optimize, "_DENSE_LIMIT", A.dim)
    dense = max_form_sphere(A, cfg, nonnegative_starts=True)
    target = math.sqrt(float(true_max("cubic", G)))
    for rep, run in zip((cg, dense), runs):
        assert all(converged for _, _, _, converged in run)
        assert rep.best_value <= target + 1e-12
        assert abs(rep.best_value - target) <= 1e-9
        assert abs(rep.best_value - eval_form(A, rep.witness)) <= 1e-12


def test_banach_single_vs_multilinear_agree():
    """At the sphere maximizer h, ||A(h,h,.)|| = ||grad||/3 is the maximum,
    so the multilinear maximum is attained at (h, h, h); and no point of a
    0.1 net beats the search, a global cross-check."""
    rng = np.random.default_rng(71)
    for _ in range(10):
        A = random_sym_tensor(rng, 3, int(rng.integers(2, 5)))
        rep = max_form_sphere(A, CFG)
        contraction = np.linalg.norm(grad_form(A, rep.witness)) / 3.0
        assert abs(contraction - rep.best_value) <= 1e-4 * max(1.0, rep.best_value)
        assert grid_lower_and_upper(A, 0.1)[0] <= rep.best_value + 1e-12


# ---------------------------------------------------------------------------
# Certified grid bound


def test_grid_zero_tensor():
    assert grid_lower_and_upper(sym_from_entries(3, 3, []), 0.01)[1] == 0.0


def test_grid_diagonal_dim2():
    A = sym_from_entries(3, 2, [((1, 1, 1), 1)])
    bound = grid_lower_and_upper(A, 1e-3)[1]
    assert 1.0 <= bound <= 1.0 + 3.0 * 1.0 * 1e-3


def test_grid_k3_quartic(k3):
    A = build_quartic_tensor(k3)
    L = 4 * frobenius(A)
    bound = grid_lower_and_upper(A, 1e-2)[1]
    assert 1.0 / 3.0 - 1e-12 <= bound <= 1.0 / 3.0 + L * 1e-2 + 1e-12


def test_grid_sound_on_random():
    rng = np.random.default_rng(73)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        A = random_sym_tensor(rng, int(rng.integers(2, 5)), dim)
        bound = grid_lower_and_upper(A, 0.02)[1]
        for _ in range(200):
            h = random_unit_vector(rng, dim)
            assert abs(eval_form(A, h)) <= bound + 1e-10


def reference_net(dim, resolution):
    """The net's points, built coordinate by coordinate from the gridded angles."""
    spacing = 2.0 * resolution / (dim - 1)
    half = [np.linspace(0.0, math.pi, int(math.ceil(math.pi / spacing)) + 1) for _ in range(dim - 2)]
    full = [np.linspace(0.0, 2.0 * math.pi, int(math.ceil(2.0 * math.pi / spacing)), endpoint=False)]
    grids = np.meshgrid(*(half + full), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    pts = np.empty((thetas.shape[0], dim))
    sin_running = np.ones(thetas.shape[0])
    for k in range(dim - 1):
        pts[:, k] = sin_running * np.cos(thetas[:, k])
        sin_running = sin_running * np.sin(thetas[:, k])
    pts[:, dim - 1] = sin_running
    return pts


def test_grid_net_max_matches_reference_net(monkeypatch):
    rng = np.random.default_rng(29)
    for dim, resolution in ((2, 0.01), (3, 0.05), (4, 0.2), (5, 0.4)):
        pts = reference_net(dim, resolution)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
        for order in (2, 3, 4):
            A = random_sym_tensor(rng, order, dim, density=0.9)
            assert A.entries
            net_max, bound = grid_lower_and_upper(A, resolution)
            expected = float(np.max(np.abs(eval_form_batch(A, pts))))
            assert net_max == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert bound == net_max + order * frobenius(A) * resolution
            assert grid_lower_and_upper(sym_from_entries(order, dim, []), resolution)[0] == 0.0
        # The budget counts the points of the net even though they are never built.
        monkeypatch.setattr(optimize, "_NET_BUDGET", pts.shape[0] - 1)
        with pytest.raises(ValueError, match="exceeds budget"):
            grid_lower_and_upper(A, resolution)
        monkeypatch.setattr(optimize, "_NET_BUDGET", pts.shape[0])
        assert grid_lower_and_upper(A, resolution)[0] == net_max
        monkeypatch.undo()


def test_grid_dim_guard():
    A = sym_from_entries(3, 6, [((1, 2, 3), 1)])
    with pytest.raises(ValueError):
        grid_lower_and_upper(A, 0.01)


def test_grid_budget_guard():
    A = sym_from_entries(3, 5, [((1, 2, 3), 1)])
    with pytest.raises(ValueError):
        grid_lower_and_upper(A, 1e-3)


def test_split_scales_edge_form_by_split_constant(footnote_graph):
    """Mass 2/3 on unit u and 1/3 on unit w scales the coupled edge sum by 2/(3*sqrt(3))."""
    rng = np.random.default_rng(89)
    A = build_cubic_tensor(footnote_graph)
    for _ in range(10):
        u = random_unit_vector(rng, 3)
        w = random_unit_vector(rng, 1)
        coupled = sum(u[i - 1] * u[j - 1] * w[e] for e, (i, j) in enumerate(footnote_graph.edge_order))
        h = np.concatenate([math.sqrt(2.0 / 3.0) * u, math.sqrt(1.0 / 3.0) * w])
        assert abs(eval_form(A, h) - (2.0 / (3.0 * math.sqrt(3.0))) * coupled) <= 1e-12


def test_beta_split_max():
    beta, value = beta_split_max()
    assert abs(value - 2.0 / (3.0 * math.sqrt(3.0))) <= 1e-9
    assert abs(beta - 2.0 / 3.0) <= 2e-6


def test_optconfig_validation():
    with pytest.raises(ValueError):
        OptConfig(starts=0)


def test_optconfig_refuses_a_negative_seed_naming_it():
    """A negative seed is refused here, not later by numpy's SeedSequence naming nothing."""
    assert OptConfig(seed=0).seed == 0
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        OptConfig(seed=-1)


def test_report_json_serialization(k3):
    from selfconcord import report_to_json_obj

    rep = max_form_sphere(build_quartic_tensor(k3), CFG)
    obj = report_to_json_obj(rep)
    assert obj["best_value"] == format(rep.best_value, ".17g")
    assert [float(x) for x in obj["witness"]] == list(rep.witness)
    assert len(obj["per_start_values"]) == len(rep.per_start_values)
    assert obj["converged"] is True
    assert obj["evaluations"] == rep.evaluations
