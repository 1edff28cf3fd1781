"""Gadget tensors, exact thresholds, clique witnesses, optimum values."""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from selfconcord import (
    GADGETS,
    ConcordanceInstance,
    Graph,
    Support,
    SymTensor,
    build_cubic_instance,
    build_cubic_tensor,
    build_instance,
    build_quartic_instance,
    build_quartic_tensor,
    clique_number,
    enumerate_graphs,
    eval_form,
    eval_form_exact,
    graph_from_edges,
    rational_cubic_witness,
    rational_quartic_witness,
    read_support,
    sym_from_entries,
    threshold,
    true_max,
    unit_witness,
)
from selfconcord import reduction


def brute_force_eval(A, h) -> float:
    total = 0.0
    for idx in product(range(1, A.dim + 1), repeat=A.order):
        value = A.entries.get(tuple(sorted(idx)))
        if value is not None:
            term = float(value)
            for i in idx:
                term *= h[i - 1]
            total += term
    return total


# ---------------------------------------------------------------------------
# Gadget tensors


def test_cubic_tensor_k3_layout(k3):
    A = build_cubic_tensor(k3)
    assert A.order == 3 and A.dim == 6
    assert A.entries == {
        (1, 2, 4): Fraction(1, 6),
        (1, 3, 5): Fraction(1, 6),
        (2, 3, 6): Fraction(1, 6),
    }


def test_cubic_tensor_single_edge(single_edge):
    A = build_cubic_tensor(single_edge)
    assert A.dim == 3
    assert A.entries == {(1, 2, 3): Fraction(1, 6)}


def test_cubic_tensor_footnote(footnote_graph):
    A = build_cubic_tensor(footnote_graph)
    assert A.dim == 4
    assert len(A.entries) == 1


def test_cubic_tensor_form_is_edge_sum():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.6]
        if not pairs:
            continue
        G = graph_from_edges(n, pairs)
        A = build_cubic_tensor(G)
        h = rng.standard_normal(n + G.m)
        direct = sum(h[i - 1] * h[j - 1] * h[n + e] for e, (i, j) in enumerate(G.edge_order))
        assert abs(eval_form(A, h) - direct) <= 1e-12 * max(1.0, abs(direct))
        assert abs(brute_force_eval(A, h) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_cubic_tensor_requires_edges():
    with pytest.raises(ValueError):
        build_cubic_tensor(graph_from_edges(3, []))


def test_gadgets_refuse_more_edges_than_entries_allowed():
    """One entry per edge: K708 has 250,278 edges, past `MAX_ENTRIES`, so both
    gadgets, and the instances and the exact maximum built on them, are
    refused naming the edge count before any entry is built."""
    G = Graph(708, frozenset(combinations(range(1, 709), 2)))
    message = "the gadget of a graph with 250278 edges holds 250278 entries, above the limit of 250000"
    for build in (build_cubic_tensor, build_quartic_tensor, lambda G: build_instance(G, "cubic", 3, 1),
                  lambda G: true_max("quartic", G)):
        with pytest.raises(ValueError, match=message):
            build(G)


def test_quartic_tensor_k3(k3):
    A = build_quartic_tensor(k3)
    assert A.order == 4 and A.dim == 3
    assert len(A.entries) == 3
    h = np.full(3, 1.0 / math.sqrt(3.0))
    assert abs(eval_form(A, h) - 1.0 / 3.0) <= 1e-12


def test_quartic_tensor_single_edge(single_edge):
    A = build_quartic_tensor(single_edge)
    h = np.full(2, 1.0 / math.sqrt(2.0))
    assert abs(eval_form(A, h) - 0.25) <= 1e-12


def test_quartic_tensor_vanishes_off_edges(k3, footnote_graph):
    for G in (k3, footnote_graph):
        A = build_quartic_tensor(G)
        e1 = np.zeros(G.n)
        e1[0] = 1.0
        assert eval_form(A, e1) == 0.0


def test_quartic_tensor_form_is_square_pair_sum():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.6]
        if not pairs:
            continue
        G = graph_from_edges(n, pairs)
        A = build_quartic_tensor(G)
        h = rng.standard_normal(n)
        direct = sum(h[i - 1] ** 2 * h[j - 1] ** 2 for i, j in G.edge_order)
        assert abs(eval_form(A, h) - direct) <= 1e-12 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# Thresholds


def test_cubic_threshold_values():
    assert threshold("cubic", 3) == Fraction(1, 27)
    assert threshold("cubic", 2) == 0
    assert threshold("cubic", 4) == Fraction(4, 81)
    with pytest.raises(ValueError):
        threshold("cubic", 1)
    # The memo keeps a float k failing after the equal int was memoized.
    with pytest.raises(TypeError):
        threshold("cubic", 3.0)


def test_quartic_threshold_values():
    assert threshold("quartic", 3) == Fraction(1, 4)
    assert threshold("quartic", 4) == Fraction(1, 3)


def test_gadget_table():
    cubic, quartic = GADGETS["cubic"], GADGETS["quartic"]
    assert (cubic.order, cubic.c, cubic.p, cubic.multiplier) == (3, Fraction(2, 27), 2, 4)
    assert (quartic.order, quartic.c, quartic.p, quartic.multiplier) == (4, Fraction(1, 2), 1, 6)
    for gadget in (cubic, quartic):
        for r in range(1, 8):
            assert gadget.bound(r) == gadget.c * (1 - Fraction(1, r))  # the one c(1 - 1/r) of the package
    assert (cubic.param, cubic.gamma, quartic.param, quartic.gamma) == ("sigma", "gamma_cubed", "tau", "gamma_squared")
    assert cubic.tensor is build_cubic_tensor and quartic.tensor is build_quartic_tensor
    assert cubic.witness is rational_cubic_witness and quartic.witness is rational_quartic_witness


def test_gamma_cubed_examples(k3):
    assert build_cubic_instance(k3, 3, Fraction(1, 2)).gamma_power == Fraction(1, 54)
    assert 4 * Fraction(1, 2) * Fraction(1, 54) == Fraction(1, 27)
    assert build_cubic_instance(k3, 4, 2).gamma_power == Fraction(1, 162)
    assert 4 * 2 * Fraction(1, 162) == Fraction(4, 81)
    # instances built from a tensor and a threshold have no parameter, so no gamma
    assert ConcordanceInstance("cubic", build_cubic_tensor(k3), Fraction(1, 27)).gamma_power is None


def test_gamma_cubed_degenerate_and_invalid(k3):
    with pytest.raises(ValueError):
        build_cubic_instance(k3, 2, Fraction(1, 2))  # k = 2 gives gamma = 0
    with pytest.raises(ValueError):
        build_cubic_instance(k3, 3, 0)
    with pytest.raises(ValueError):
        build_cubic_instance(k3, 3, -1)
    with pytest.raises(ValueError):
        build_quartic_instance(k3, 3, "x")
    with pytest.raises(ValueError):
        ConcordanceInstance("cubic", build_quartic_tensor(k3), Fraction(1, 4))
    with pytest.raises(ValueError):
        ConcordanceInstance("quintic", sym_from_entries(5, 2, []), Fraction(1, 4))


def test_threshold_identities_random(k3):
    """gamma^3 = (1/27)(1/(2 sigma))(1 - 1/(k-1)) and gamma^2 = (1 - 1/(k-1))/(12 tau)."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        sigma = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        tau = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
        k = int(rng.integers(3, 12))
        cubic = build_instance(k3, "cubic", k, sigma)
        quartic = build_instance(k3, "quartic", k, tau)
        assert cubic.gamma_power == Fraction(1, 27) / (2 * sigma) * (1 - Fraction(1, k - 1))
        assert quartic.gamma_power == (1 - Fraction(1, k - 1)) / (12 * tau)
        assert cubic.q == 4 * sigma * cubic.gamma_power == threshold("cubic", k)
        assert quartic.q == 6 * tau * quartic.gamma_power == threshold("quartic", k)


# ---------------------------------------------------------------------------
# Instances


def test_build_cubic_instance_k3(k3):
    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    assert inst.q == Fraction(1, 27)
    assert inst.A.dim == 6
    assert inst.kind == "cubic"
    assert inst.A is build_cubic_tensor(k3)


def test_build_cubic_instance_footnote(footnote_graph):
    inst = build_cubic_instance(footnote_graph, 3, Fraction(1, 2))
    assert inst.q == Fraction(1, 27)
    assert inst.A.dim == 4


def test_build_cubic_instance_rejects_bad_params(k3):
    with pytest.raises(ValueError):
        build_cubic_instance(k3, 3, 0)
    with pytest.raises(ValueError):
        build_cubic_instance(k3, 2, Fraction(1, 2))


def test_build_quartic_instance_values(k3):
    assert build_quartic_instance(k3, 3, 1).q == Fraction(1, 4)
    assert build_quartic_instance(k3, 4, 1).q == Fraction(1, 3)
    with pytest.raises(ValueError):
        build_quartic_instance(k3, 2, 1)


# ---------------------------------------------------------------------------
# Witnesses


def test_witness_k3_coordinates(k3):
    h = unit_witness("cubic", k3, {1, 2, 3})
    assert np.allclose(h[:3], math.sqrt(2.0) / 3.0, atol=1e-15)
    assert np.allclose(h[3:], 1.0 / 3.0, atol=1e-15)
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
    assert abs(brute_force_eval(build_cubic_tensor(k3), h) - 2.0 / 9.0) <= 1e-12


def test_witness_single_edge(single_edge):
    h = unit_witness("cubic", single_edge, {1, 2})
    value = eval_form(build_cubic_tensor(single_edge), h)
    assert abs(value**2 - 1.0 / 27.0) <= 1e-12


def test_witness_rejects_non_clique(footnote_graph):
    for kind in GADGETS:
        with pytest.raises(ValueError, match="not a clique"):
            unit_witness(kind, footnote_graph, {1, 2, 3})
        with pytest.raises(ValueError, match="at least 2 vertices"):
            unit_witness(kind, footnote_graph, {1})
        with pytest.raises(ValueError, match="out of range"):
            unit_witness(kind, footnote_graph, {1, 4})


def cliques(G):
    """Every vertex set of G with at least two vertices that is a clique."""
    for mask in range(1, 2**G.n):
        C = {v for v in range(1, G.n + 1) if mask >> (v - 1) & 1}
        if len(C) >= 2 and all((i, j) in G.edges for i in C for j in C if i < j):
            yield C


def test_witness_achieves_claimed_value_all_cliques():
    for n in range(2, 6):
        for G in enumerate_graphs(n):
            if not G.edges:
                continue
            tensors = {kind: gadget.tensor(G) for kind, gadget in GADGETS.items()}
            for C in cliques(G):
                c = len(C)
                for kind, gadget in GADGETS.items():
                    h = unit_witness(kind, G, C)
                    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
                    target = float(gadget.c * (1 - Fraction(1, c)))
                    assert abs(eval_form(tensors[kind], h) ** gadget.p - target) <= 1e-12
                # closed form: u = sqrt(2/(3c)) on C, w = sqrt(2/(3c(c-1))) on the edges inside C
                h = unit_witness("cubic", G, C)
                inside = [i in C and j in C for i, j in G.edge_order]
                u = [math.sqrt(2 / (3 * c)) if v in C else 0.0 for v in range(1, G.n + 1)]
                assert np.allclose(h[: G.n], u, rtol=1e-15, atol=0)
                assert np.allclose(h[G.n:], np.where(inside, math.sqrt(2 / (3 * c * (c - 1))), 0.0), rtol=1e-15, atol=0)


def test_quartic_witness(k3):
    h = unit_witness("quartic", k3, {1, 2, 3})
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-15
    assert abs(eval_form(build_quartic_tensor(k3), h) - 1.0 / 3.0) <= 1e-12


def test_rational_cubic_witness_ratio_near_optimum(k3):
    h = rational_cubic_witness(k3, {1, 2, 3})
    A = build_cubic_tensor(k3)
    value = eval_form_exact(A, h)
    dot = sum(x * x for x in h)
    ratio = value * value / dot**3
    assert abs(float(ratio) - 4.0 / 81.0) <= 1e-9
    assert ratio > threshold("cubic", 3)


def test_rational_quartic_witness_ratio_exact(k3):
    h = rational_quartic_witness(k3, {1, 2, 3})
    A = build_quartic_tensor(k3)
    dot = sum(x * x for x in h)
    assert eval_form_exact(A, h) / dot**2 == Fraction(1, 3)


# ---------------------------------------------------------------------------
# Exact optimum values


def test_true_max_square_examples(k3, footnote_graph, single_edge):
    assert true_max("cubic", k3) == Fraction(4, 81)
    assert true_max("cubic", footnote_graph) == Fraction(1, 27)
    assert true_max("cubic", single_edge) == Fraction(1, 27)
    # stability variant through the complement: alpha(footnote) = 2
    from selfconcord import complement

    assert true_max("cubic", complement(footnote_graph)) == Fraction(1, 27)


def test_true_max_quartic_examples(k3, single_edge):
    assert true_max("quartic", k3) == Fraction(1, 3)
    assert true_max("quartic", single_edge) == Fraction(1, 4)
    with pytest.raises(ValueError):
        true_max("quartic", graph_from_edges(3, []))


def test_decision_threshold_equivalence_exhaustive_n4():
    """omega >= k exactly when the true squared maximum exceeds the threshold."""
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            w = clique_number(G)
            for k in range(3, 7):
                assert (w >= k) == (true_max("cubic", G) > threshold("cubic", k))
                assert (w >= k) == (true_max("quartic", G) > threshold("quartic", k))


def test_boundary_equality():
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            k = clique_number(G) + 1
            if k >= 3:
                assert true_max("cubic", G) == threshold("cubic", k)
                assert true_max("quartic", G) == threshold("quartic", k)


# ---------------------------------------------------------------------------
# The support read


def test_read_support_inverts_both_builders():
    """Every graph with n <= 4 reads back from its gadget of either kind, with
    its vertices as vertex coordinates 1..n, and the gadget is exact."""
    count = 0
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            for kind, gadget in GADGETS.items():
                assert read_support(gadget.tensor(G)) == Support(kind, tuple(range(1, n + 1)), G, True), (kind, G)
                count += 1
    assert count == 142


def test_read_support_of_other_layouts(monkeypatch):
    """A relabeled cubic layout (vertex coordinates 1, 2, 4 and edge coordinates
    3, 5) has gadget shape but is no gadget of its path; no entry, order 2, a
    value of 1/5 and more entries than a gadget may hold give no gadget shape
    at all."""
    path = graph_from_edges(3, [(1, 2), (2, 3)])
    relabeled = sym_from_entries(3, 5, [((1, 2, 3), Fraction(1, 6)), ((2, 4, 5), Fraction(1, 6))])
    assert read_support(relabeled) == Support("cubic", (1, 2, 4), path, False)
    assert read_support(sym_from_entries(3, 4, [])) is None
    assert read_support(sym_from_entries(2, 2, [((1, 2), Fraction(1, 6))])) is None
    assert read_support(sym_from_entries(4, 2, [((1, 1, 2, 2), Fraction(1, 5))])) is None
    triangle = sym_from_entries(4, 3, [((i, i, j, j), Fraction(1, 6)) for i, j in ((1, 2), (1, 3), (2, 3))])
    assert read_support(triangle) == Support("quartic", (1, 2, 3), graph_from_edges(3, [(1, 2), (1, 3), (2, 3)]), True)
    monkeypatch.setattr(reduction, "MAX_ENTRIES", 2)
    assert read_support(triangle) is None


def _support_variants(A):
    """A, then copies of A with its vertex coordinates reversed, with its coordinates
    under a random permutation, with its edge coordinates (order 3) reversed, with one
    value 1/7 or -1/6, and with one more entry on the last missing pair (a new edge coordinate
    for order 3) or on its first pair."""
    n = A.dim - len(A.entries) if A.order == 3 else A.dim
    shuffled = [0, *(int(v) + 1 for v in np.random.default_rng(len(A.entries)).permutation(A.dim))]
    relabelings = (
        lambda v: n + 1 - v if v <= n else v,
        lambda v: shuffled[v],
        lambda v: v if v <= n else A.dim + n + 1 - v,
    )
    variants = [A]
    for relabel in relabelings:
        variants.append(SymTensor(A.order, A.dim, {tuple(sorted(map(relabel, key))): value
                                                   for key, value in A.entries.items()}))
    for value in (Fraction(1, 7), Fraction(-1, 6)):
        variants.append(SymTensor(A.order, A.dim, {**A.entries, next(iter(A.entries)): value}))
    pairs = sorted((key[0], key[-2]) if A.order == 3 else (key[0], key[-1]) for key in A.entries)
    missing = [pair for pair in combinations(range(1, n + 1), 2) if pair not in pairs]
    for i, j in missing[-1:] + pairs[:1]:
        extra = (i, j, A.dim + 1) if A.order == 3 else (i, i, j, j)
        variants.append(SymTensor(A.order, A.dim + (A.order == 3), {**A.entries, extra: Fraction(1, 6)}))
    return variants


def test_read_support_decides_exactness_without_building_the_gadget():
    """`exact` is the old definition, the tensor equals the gadget of its support
    graph (rebuilt here as the reference), on every gadget of the graphs with
    n <= 5, both kinds, and on its relabeled, 1/7- or -1/6-valued and
    extra-entry variants; a support read leaves the builders' memos untouched."""
    memos = (build_cubic_tensor, build_quartic_tensor)
    seen = {True: 0, False: 0, None: 0}
    for n in range(2, 6):
        for G in enumerate_graphs(n):
            for kind, gadget in GADGETS.items():
                for A in _support_variants(gadget.tensor(G)):
                    before = [memo.cache_info() for memo in memos]
                    support = read_support(A)
                    assert [memo.cache_info() for memo in memos] == before
                    if support is None:
                        seen[None] += 1
                        continue
                    assert support.exact == (gadget.tensor(support.graph) == A), (kind, G, A)
                    seen[support.exact] += 1
    assert min(seen.values()) > 1000, seen
