"""Three-valued checker: verdict soundness, exact certificates, brackets.

Independent re-verification of NOT certificates is done here with a
test-local full-hypermatrix rational evaluation, not the library's path.
"""

import copy
import gc
import json
import math
import pickle
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from selfconcord import (
    GADGETS,
    ConcordanceInstance,
    OptConfig,
    Status,
    SymTensor,
    build_cubic_instance,
    build_cubic_tensor,
    build_instance,
    build_quartic_instance,
    build_quartic_tensor,
    check_sc,
    check_sc2,
    clique_number,
    enumerate_graphs,
    eval_form,
    graph_from_edges,
    has_clique,
    rationalize_vector,
    recheck,
    sigma_opt_bounds,
    sym_from_entries,
    verdict_to_json_obj,
)
from selfconcord import concordance, graphs, optimize, reduction

from conftest import adjacency, gnm, off_orbit

CFG = OptConfig(starts=4, max_iters=200, seed=211)


def exact_form_value(A, h):
    total = Fraction(0)
    for idx in product(range(1, A.dim + 1), repeat=A.order):
        value = A.entries.get(tuple(sorted(idx)))
        if value is not None:
            term = value
            for i in idx:
                term *= h[i - 1]
            total += term
    return total


def recheck_not_certificate(inst, verdict):
    """Re-verify a NOT certificate from its serialized strings, independently,
    and check that `recheck` accepts it."""
    assert recheck(inst.A, inst.q, verdict.certificate) is True
    h = tuple(Fraction(s) for s in verdict.certificate["witness"])
    value = exact_form_value(inst.A, h)
    dot = sum(x * x for x in h)
    if inst.kind == "cubic":
        assert value * value > inst.q * dot**3
        assert Fraction(verdict.certificate["lhs"]) == value * value
    else:
        assert value > inst.q * dot**2
        assert Fraction(verdict.certificate["lhs"]) == value


# ---------------------------------------------------------------------------
# Cubic checker


def test_check_sc_oracle_k3_not(k3):
    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="oracle")
    assert verdict.status is Status.NOT_SELF_CONCORDANT
    recheck_not_certificate(inst, verdict)


def test_check_sc_oracle_single_edge_sc(single_edge):
    inst = build_cubic_instance(single_edge, 4, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="oracle")
    assert verdict.status is Status.SELF_CONCORDANT
    assert Fraction(verdict.certificate["bound"]["value"]) == Fraction(1, 27)
    assert Fraction(1, 27) <= inst.q == Fraction(4, 81)


def test_check_sc_relax_zero_tensor():
    from selfconcord import ConcordanceInstance

    inst = ConcordanceInstance(kind="cubic", A=sym_from_entries(3, 4, []), q=Fraction(1, 100))
    verdict = check_sc(inst, CFG, mode="relax")
    assert verdict.status is Status.SELF_CONCORDANT
    assert float(verdict.certificate["bound"]["value"]) == 0.0


def test_check_sc_relax_finds_witness(k3):
    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="relax")
    assert verdict.status is Status.NOT_SELF_CONCORDANT
    recheck_not_certificate(inst, verdict)


def test_check_sc_grid_modes(single_edge, k3):
    # single-edge with k=4: decisively satisfiable, small dim, grid certifies
    inst = build_cubic_instance(single_edge, 4, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="grid")
    assert verdict.status in (Status.SELF_CONCORDANT, Status.UNDECIDED)
    # K3 with k=3: violated, witness path fires regardless of mode
    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="grid")
    assert verdict.status is Status.NOT_SELF_CONCORDANT


def test_check_sc_grid_rejects_large_dim(c5):
    """Above dim 5 the grid ladder runs no rung: a decision on a tensor without
    gadget shape that the search does not refute ends UNDECIDED, names the dim
    limit and counts the search only."""
    inst = off_orbit(build_cubic_instance(c5, 4, Fraction(1, 2)))  # dim 10; no support graph
    verdict = check_sc(inst, CFG, mode="grid")
    assert verdict.status is Status.UNDECIDED
    assert verdict.certificate["bound_name"] == "grid_lower_and_upper(grid certification supports dim <= 5, got 10)"
    assert verdict.certificate["bound_value"] == "inf"
    assert verdict.evaluations == concordance._search(inst.A, CFG).evaluations


def test_check_sc_oracle_requires_a_gadget():
    """Oracle mode reads the graph from the tensor, so it refuses a tensor
    that is not the gadget of its support graph (test_cli.py refuses two of
    gadget shape)."""
    inst = ConcordanceInstance(kind="cubic", A=sym_from_entries(3, 2, [((1, 1, 1), 1)]), q=Fraction(1, 2))
    with pytest.raises(ValueError, match="oracle mode needs a tensor that is the cubic gadget of its support graph"):
        check_sc(inst, CFG, mode="oracle")


def test_check_sc_rejects_wrong_kind(k3):
    inst = build_quartic_instance(k3, 3, 1)
    with pytest.raises(ValueError):
        check_sc(inst, CFG, mode="oracle")
    with pytest.raises(ValueError):
        check_sc2(build_cubic_instance(k3, 3, Fraction(1, 2)), CFG, mode="oracle")


def test_check_sc_boundary_is_self_concordant(footnote_graph):
    # omega = 2 = k - 1: maximum equals threshold exactly, non-strict inequality holds
    inst = build_cubic_instance(footnote_graph, 3, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="oracle")
    assert verdict.status is Status.SELF_CONCORDANT
    assert Fraction(verdict.certificate["bound"]["value"]) == inst.q


# ---------------------------------------------------------------------------
# Quartic checker


def test_check_sc2_oracle_k3_not(k3):
    inst = build_quartic_instance(k3, 3, 1)
    verdict = check_sc2(inst, CFG, mode="oracle")
    assert verdict.status is Status.NOT_SELF_CONCORDANT
    recheck_not_certificate(inst, verdict)


def test_check_sc2_oracle_single_edge_sc(single_edge):
    inst = build_quartic_instance(single_edge, 4, 1)
    verdict = check_sc2(inst, CFG, mode="oracle")
    assert verdict.status is Status.SELF_CONCORDANT
    assert Fraction(verdict.certificate["bound"]["value"]) == Fraction(1, 4) <= inst.q


def test_check_sc2_zero_tensor():
    from selfconcord import ConcordanceInstance

    inst = ConcordanceInstance(kind="quartic", A=sym_from_entries(4, 3, []), q=Fraction(1, 10))
    assert check_sc2(inst, CFG, mode="relax").status is Status.SELF_CONCORDANT


def test_check_sc2_grid_certifies_single_edge(single_edge):
    inst = off_orbit(build_quartic_instance(single_edge, 4, 1))
    verdict = check_sc2(inst, CFG, mode="grid")
    assert verdict.status is Status.SELF_CONCORDANT
    # the certificate names the function that made the bound
    assert verdict.certificate["bound"]["name"].startswith("grid_lower_and_upper(resolution=")


# ---------------------------------------------------------------------------
# Certificate properties


def test_witness_scale_invariance(k3):
    from selfconcord import violates_cubic

    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="oracle")
    h = tuple(Fraction(s) for s in verdict.certificate["witness"])
    base = violates_cubic(inst.A, h, inst.q)[0]
    for t in (Fraction(3, 7), Fraction(10), Fraction(1, 97)):
        scaled = tuple(t * x for x in h)
        assert violates_cubic(inst.A, scaled, inst.q)[0] == base


def test_violation_test_reads_its_exponent_from_the_order(k3):
    from selfconcord import violates, violates_cubic, violates_quartic

    assert violates_cubic is violates_quartic is violates
    h = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    cubic = build_cubic_tensor(k3)
    value = exact_form_value(cubic, h)
    dot = sum(x * x for x in h)
    assert violates(cubic, h, Fraction(1, 27)) == (value**2 > dot**3 / 27, value**2, dot**3 / 27)
    quartic = build_quartic_tensor(k3)
    value = exact_form_value(quartic, h[:3])
    dot = sum(x * x for x in h[:3])
    assert violates(quartic, h[:3], Fraction(1, 4)) == (value > dot**2 / 4, value, dot**2 / 4)
    with pytest.raises(ValueError, match="order-3 or order-4"):
        violates(sym_from_entries(2, 2, [((1, 2), 1)]), (1, 1), Fraction(1))


def test_monotone_in_threshold_oracle():
    """Raising k (hence q) never flips SELF_CONCORDANT back to NOT."""
    for G in enumerate_graphs(3):
        seen_sc = False
        for k in range(3, 7):
            verdict = check_sc(build_cubic_instance(G, k, Fraction(1, 2)), CFG, mode="oracle")
            if verdict.status is Status.SELF_CONCORDANT:
                seen_sc = True
            elif seen_sc:
                pytest.fail(f"verdict flipped back to NOT at k={k} for {G}")


def test_oracle_never_undecided_small():
    for G in enumerate_graphs(3):
        for k in (3, 4):
            v1 = check_sc(build_cubic_instance(G, k, Fraction(1, 2)), CFG, mode="oracle")
            v2 = check_sc2(build_quartic_instance(G, k, 1), CFG, mode="oracle")
            assert v1.status is not Status.UNDECIDED
            assert v2.status is not Status.UNDECIDED


def test_no_mode_contradiction_small():
    for G in enumerate_graphs(3):
        for k in (3, 4):
            inst = build_cubic_instance(G, k, Fraction(1, 2))
            statuses = {check_sc(inst, CFG, mode="oracle").status}
            statuses.add(check_sc(inst, CFG, mode="relax").status)
            statuses.add(check_sc(inst, CFG, mode="grid").status)
            assert not {Status.SELF_CONCORDANT, Status.NOT_SELF_CONCORDANT} <= statuses


def test_rationalize_vector_reconstructs_simple_floats():
    h = rationalize_vector(np.array([0.5, -0.25, 1.0 / 3.0]))
    assert h[0] == Fraction(1, 2)
    assert h[1] == Fraction(-1, 4)
    assert abs(h[2] - Fraction(1, 3)) < Fraction(1, 10**15)


# ---------------------------------------------------------------------------
# Coloring certificates


def test_certifies_every_coloring_certificate_on_small_graphs():
    """Relax verdicts on every graph with n <= 5 and every k = 3..6 with omega < k:
    each exact certificate re-checks, the coloring settles every one but the
    labeled 5-cycles (omega 2, three colors) at k = 3, and the clique number
    settles those."""
    cfg = OptConfig(starts=1, max_iters=5, seed=211)  # with omega < k no search can refute; keep it short
    for kind, check in (("cubic", check_sc), ("quartic", check_sc2)):
        certified, total, by_clique = Counter(), Counter(), []
        for n in range(2, 6):
            for G in enumerate_graphs(n):
                omega = clique_number(G)
                for k in range(max(3, omega + 1), 7):
                    inst = build_instance(G, kind, k, 1)
                    verdict = check(inst, cfg, mode="relax")
                    truth = "boundary" if omega == k - 1 else "interior"
                    total[truth] += 1
                    assert verdict.status is Status.SELF_CONCORDANT
                    assert recheck(inst.A, inst.q, verdict.certificate) is True
                    if verdict.certificate["kind"] == "coloring":
                        certified[truth] += 1
                    else:
                        assert verdict.certificate["bound"]["name"] == "exact_clique_oracle"
                        by_clique.append((G, k))
        assert (certified["interior"], total["interior"]) == (2554, 2554)
        assert (certified["boundary"], total["boundary"]) == (1082, 1094)
        assert len(by_clique) == 12
        assert all(k == 3 and G.n == 5 and all(len(a) == 2 for a in adjacency(G).values()) for G, k in by_clique)


def test_clique_number_settles_the_five_cycle(c5):
    """chi > omega at the boundary: relax and grid certify the 5-cycle gadgets at
    k = 3 from omega = 2, and `recheck` refuses every tampered copy."""
    for inst, check, value in ((build_cubic_instance(c5, 3, Fraction(1, 2)), check_sc, "1/27"),
                               (build_quartic_instance(c5, 3, 1), check_sc2, "1/4")):
        assert inst.q == Fraction(value)
        for mode in ("relax", "grid"):
            verdict = check(inst, CFG, mode=mode)
            assert verdict.status is Status.SELF_CONCORDANT
            assert verdict.certificate == {"kind": "bound", "bound": {"name": "exact_clique_oracle", "value": value}}
            assert verdict.evaluations == concordance._search(inst.A, CFG).evaluations
            assert recheck(inst.A, inst.q, verdict.certificate) is True
        certificate = verdict.certificate
        assert recheck(inst.A, inst.q, check(inst, CFG, mode="oracle").certificate) is True
        assert recheck(inst.A, inst.q, {"kind": "bound", "bound": {"name": "exact_clique_oracle", "value": "1/3"}}) is False
        assert recheck(inst.A, inst.q - Fraction(1, 10**9), certificate) is False  # q < c(1 - 1/omega)
        assert recheck(off_orbit(inst).A, inst.q, certificate) is False  # no support graph
        assert recheck(inst.A, inst.q, {"kind": "bound", "bound": {"name": "spectral_upper_bound", "value": value}}) is None
        assert recheck(inst.A, inst.q, {"kind": "bound", "bound": "exact_clique_oracle"}) is False


def test_recheck_rejects_tampered_certificates(footnote_graph, k3):
    """Every tampered copy of a coloring or a witness gives False, float bounds
    and budgets give None, and no certificate makes `recheck` raise."""
    cubic = build_cubic_instance(footnote_graph, 3, Fraction(1, 2))  # form u1 u2 w4, q = 1/27
    certificate = check_sc(cubic, CFG, mode="relax").certificate
    assert certificate == {"kind": "coloring", "vertices": [1, 2, 3], "colors": [0, 1, 0], "bound": "1/27"}
    assert recheck(cubic.A, cubic.q, certificate) is True
    assert recheck(cubic.A, cubic.q, {**certificate, "colors": [0, 0, 1]}) is False  # improper
    assert recheck(cubic.A, cubic.q, {**certificate, "vertices": [1, 2, 4]}) is False  # names the edge coordinate
    assert recheck(cubic.A, cubic.q, {**certificate, "bound": "1/54"}) is False
    assert recheck(cubic.A, cubic.q - Fraction(1, 10**9), certificate) is False  # q < c(1 - 1/r)
    assert recheck(cubic.A, cubic.q, {**certificate, "kind": "bound"}) is False
    assert recheck(cubic.A, cubic.q, {**certificate, "kind": "witness"}) is False

    triangle = build_cubic_instance(k3, 3, Fraction(1, 2))
    for mode in ("relax", "oracle"):
        witness = check_sc(triangle, CFG, mode=mode).certificate
        h = witness["witness"]
        assert witness["kind"] == "witness" and len(h) == triangle.A.dim == 6
        assert recheck(triangle.A, triangle.q, witness) is True
        for tampered in (
            {"witness": [str(Fraction(h[0]) * 2), *h[1:]]},  # one coordinate
            {"witness": ["0", *h[1:]]},
            {"lhs": str(Fraction(witness["lhs"]) + 1)},
            {"rhs": witness["lhs"]},
            {"witness": h[:-1]},  # one coordinate short
            {"witness": [*h, "0"]},  # one coordinate long, on which the form does not depend
            {"witness": ["x", *h[1:]]},
            {"witness": ["1/0", *h[1:]]},
            {"witness": [None, *h[1:]]},
            {"witness": [float("inf"), *h[1:]]},
            {"witness": [float("nan"), *h[1:]]},
            {"witness": ",".join(h)},  # not a list
            {"witness": None},
            {"kind": "coloring"},
        ):
            assert recheck(triangle.A, triangle.q, {**witness, **tampered}) is False, tampered
        assert recheck(triangle.A, triangle.q + 1, witness) is False  # q above the form maximum

    undecided = {"kind": "budget", "description": "no exact violation found", "bound_name": "spectral_upper_bound"}
    float_bounds = ({"kind": "bound", "bound": {"name": "spectral_upper_bound", "value": "0.2"}},
                    {"kind": "bound", "bound": {"name": "grid_lower_and_upper(resolution=0.2)", "value": "1"}})
    for float_bound in (*float_bounds, undecided):
        assert recheck(cubic.A, cubic.q, float_bound) is None
    odd = (None, True, 1.5, float("nan"), "x", "1/0", [], ["1/0"], [[1]], {}, {"name": "exact_clique_oracle"})
    for base in (certificate, witness):
        for field in base:
            for value in odd:
                assert recheck(triangle.A, triangle.q, {**base, field: value}) is not True
                assert recheck(cubic.A, cubic.q, {**base, field: value}) is not True
    for malformed in (None, [], "witness", {}, {"kind": ["witness"]}, {"kind": "bound"}, {"kind": "coloring"}):
        assert recheck(cubic.A, cubic.q, malformed) is False

    # Each kind without one of its fields, or one field of its bound, is no proof, and raises nothing.
    oracle = check_sc(cubic, CFG, mode="oracle").certificate
    assert oracle == {"kind": "bound", "bound": {"name": "exact_clique_oracle", "value": "1/27"}}
    assert recheck(cubic.A, cubic.q, oracle) is True
    for base in (certificate, witness, oracle, *float_bounds, undecided):
        shortened = [{key: value for key, value in base.items() if key != field} for field in base]
        if isinstance(base.get("bound"), dict):
            shortened += [{**base, "bound": {key: value for key, value in base["bound"].items() if key != field}}
                          for field in base["bound"]]
        for tampered in shortened:
            for A, q in ((triangle.A, triangle.q), (cubic.A, cubic.q)):
                assert recheck(A, q, tampered) is not True, tampered

    # Each tensor below has the footnote certificate's support shape but a
    # squared maximum above q = 1/27: an entry above 1/6, an edge coordinate
    # shared by two entries (2/27), and a vertex pair in two entries (2/27).
    heavy = SymTensor(3, 4, {(1, 2, 4): Fraction(1, 6) + Fraction(1, 10**6)})
    shared = SymTensor(3, 4, {(1, 2, 4): Fraction(1, 6), (1, 3, 4): Fraction(1, 6)})
    repeated = SymTensor(3, 4, {(1, 2, 3): Fraction(1, 6), (1, 2, 4): Fraction(1, 6)})
    for A, fields in (
        (heavy, {}),
        (shared, {"colors": [0, 1, 1]}),
        (repeated, {"vertices": [1, 2], "colors": [0, 1]}),
    ):
        assert recheck(A, cubic.q, {**certificate, **fields}) is False
        inst = ConcordanceInstance(kind="cubic", A=A, q=cubic.q)
        verdict = check_sc(inst, CFG, mode="relax")
        assert verdict.status is Status.NOT_SELF_CONCORDANT
        recheck_not_certificate(inst, verdict)

    quartic = build_quartic_instance(footnote_graph, 3, 1)  # form h1^2 h2^2, q = 1/4
    certificate = check_sc2(quartic, CFG, mode="grid").certificate
    assert certificate == {"kind": "coloring", "colors": [0, 1, 0], "bound": "1/4"}
    assert recheck(quartic.A, quartic.q, certificate) is True
    assert recheck(quartic.A, quartic.q, {**certificate, "colors": [1, 1, 0]}) is False
    assert recheck(quartic.A, quartic.q, {**certificate, "colors": [0, 1]}) is False
    assert recheck(quartic.A, quartic.q - Fraction(1, 10**9), certificate) is False


def test_coloring_of_a_relabeled_cubic_layout():
    """Vertex coordinates 1, 2, 4 and edge coordinates 3, 5 (a path): the
    support graph renumbers the vertex coordinates 1..3, and the certificate
    names them as they are."""
    A = sym_from_entries(3, 5, [((1, 2, 3), Fraction(1, 6)), ((2, 4, 5), Fraction(1, 6))])
    inst = ConcordanceInstance(kind="cubic", A=A, q=Fraction(1, 27))
    verdict = check_sc(inst, CFG, mode="relax")
    certificate = {"kind": "coloring", "vertices": [1, 2, 4], "colors": [1, 0, 1], "bound": "1/27"}
    assert verdict.status is Status.SELF_CONCORDANT and verdict.certificate == certificate
    assert recheck(A, inst.q, certificate) is True
    for colors in ([1, 1, 0], [0, 1, 1]):  # coordinates 1, 2 or 2, 4 share a color
        assert recheck(A, inst.q, {**certificate, "colors": colors}) is False
    assert recheck(A, inst.q, {**certificate, "vertices": [1, 2, 3]}) is False


def test_gadget_shape_reads_one_sixth_exactly(footnote_graph):
    """|value| <= 1/6 is read in integers, boundary included: entries 1/6,
    -1/6 and 1/6 - 10^-30 keep the footnote gadget's coloring certificate,
    while 1/6 + 10^-30 and its negative have no gadget shape, so neither
    `recheck` nor the coloring rung accepts them."""
    sixth, tiny = Fraction(1, 6), Fraction(1, 10**30)
    for base, check, key in (
        (build_cubic_instance(footnote_graph, 3, Fraction(1, 2)), check_sc, (1, 2, 4)),
        (build_quartic_instance(footnote_graph, 3, 1), check_sc2, (1, 1, 2, 2)),
    ):
        certificate = check(base, CFG, mode="relax").certificate
        assert certificate["kind"] == "coloring"
        for value, accepted in ((sixth, True), (-sixth, True), (sixth - tiny, True),
                                (sixth + tiny, False), (-(sixth + tiny), False)):
            A = SymTensor(base.A.order, base.A.dim, {key: value})
            assert recheck(A, base.q, certificate) is accepted
            inst = ConcordanceInstance(kind=base.kind, A=A, q=base.q)
            verdict = check(inst, CFG, mode="relax")
            if accepted:
                assert verdict.status is Status.SELF_CONCORDANT and verdict.certificate == certificate
            else:  # the maximum is within the float band around q, so no other rung decides
                assert verdict.status is Status.UNDECIDED


# ---------------------------------------------------------------------------
# Optimal-parameter bracket


def test_sigma_opt_zero_tensor():
    bounds = sigma_opt_bounds(sym_from_entries(3, 3, []), CFG)
    assert bounds.lower == 0.0 and bounds.upper == 0.0


def test_sigma_opt_diagonal_dim1():
    bounds = sigma_opt_bounds(sym_from_entries(3, 1, [((1, 1, 1), 1)]), CFG)
    assert bounds.lower == 0.25 and bounds.upper == 0.25


def test_sigma_opt_k3_brackets(k3):
    bounds = sigma_opt_bounds(build_cubic_tensor(k3), OptConfig(starts=8, max_iters=400, seed=211))
    assert bounds.lower <= 1.0 / 81.0 <= bounds.upper
    assert bounds.lower >= 1.0 / 81.0 - 1e-8


def test_sigma_opt_requires_order3(k3):
    with pytest.raises(ValueError):
        sigma_opt_bounds(build_quartic_tensor(k3), CFG)


# ---------------------------------------------------------------------------
# End-to-end decision


def _oracle_status(G, k):
    return check_sc(build_cubic_instance(G, k, Fraction(1, 2)), mode="oracle").status


def test_decide_clique_examples(k3, footnote_graph, c5):
    assert has_clique(k3, 3) and _oracle_status(k3, 3) is Status.NOT_SELF_CONCORDANT
    assert not has_clique(footnote_graph, 3) and _oracle_status(footnote_graph, 3) is Status.SELF_CONCORDANT
    assert not has_clique(c5, 3) and _oracle_status(c5, 3) is Status.SELF_CONCORDANT


def test_decide_clique_matches_oracle_exhaustive_n4():
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            for k in (3, 4):
                assert has_clique(G, k) == (_oracle_status(G, k) is Status.NOT_SELF_CONCORDANT)


def test_verdict_json_shape(k3):
    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    verdict = check_sc(inst, CFG, mode="oracle")
    obj = verdict_to_json_obj(verdict, seed=CFG.seed)
    assert obj["status"] == "NOT_SELF_CONCORDANT"
    assert obj["mode"] == "oracle"
    assert obj["certificate"]["kind"] == "witness"
    assert obj["seed"] == CFG.seed


# ---------------------------------------------------------------------------
# Reuse of the k-independent analysis


GADGET_MEMOS = (reduction.build_cubic_tensor, reduction.build_quartic_tensor)


def clear_analyses(*tensors):
    """Empty the gadget and coloring memos, and drop the analyses kept on `tensors`."""
    for cached in GADGET_MEMOS:
        cached.cache_clear()
    graphs.proper_coloring.cache_clear()
    for A in tensors:
        vars(A).pop("_analyses", None)


@pytest.fixture
def counted(monkeypatch):
    """Clear the analysis caches and count the real computations behind them."""
    clear_analyses()
    calls = Counter()
    for name in ("max_form_sphere", "proper_coloring", "spectral_upper_bound", "grid_lower_and_upper"):
        real = getattr(concordance, name)

        def wrapper(*args, _name=name, _real=real, **kwargs):
            result = _real(*args, **kwargs)  # a rung over the point budget raises and counts nothing
            calls[_name] += 1
            return result

        monkeypatch.setattr(concordance, name, wrapper)
    yield calls
    clear_analyses()


def _small_sweep():
    """(instance, mode, checker): k = 3..6, both kinds, relax and grid, all graphs
    with n <= 4, each gadget instance followed by its `off_orbit` twin."""
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            for k in (3, 4, 5, 6):
                for inst, check in (
                    (build_cubic_instance(G, k, Fraction(1, 2)), check_sc),
                    (build_quartic_instance(G, k, 1), check_sc2),
                ):
                    for variant in (inst, off_orbit(inst)):
                        for mode in ("relax", "grid") if inst.A.dim <= 5 else ("relax",):
                            yield variant, mode, check


def test_sweep_verdicts_do_not_depend_on_reuse():
    graph_count = sum(1 for n in range(2, 5) for _ in enumerate_graphs(n))
    cold = []
    for inst, mode, check in _small_sweep():
        clear_analyses(inst.A)
        cold.append(verdict_to_json_obj(check(inst, CFG, mode=mode), seed=CFG.seed))
    warm = [verdict_to_json_obj(check(inst, CFG, mode=mode), seed=CFG.seed) for inst, mode, check in _small_sweep()]
    assert json.dumps(warm) == json.dumps(cold)
    # The warm sweep is graph-major, so it built each gadget once per graph
    # and found it in the memo for the other three k.  The support read
    # decides exactness without building the gadget, so it adds no lookup.
    for cached in GADGET_MEMOS:
        info = cached.cache_info()
        assert info.currsize == info.maxsize == reduction._KEPT_GADGETS
        assert (info.misses, info.hits) == (graph_count, 3 * graph_count)
    # A verdict's status follows from its certificate's kind, in all three modes.
    oracle = [verdict_to_json_obj(check(inst, CFG, mode="oracle")) for inst, mode, check in _small_sweep()
              if mode == "relax" and (1,) * inst.A.order not in inst.A.entries]  # the gadgets, not their twins
    assert len(oracle) == 2 * 4 * graph_count
    for verdict in cold + oracle:
        assert verdict["status"] == concordance._STATUS[verdict["certificate"]["kind"]].value


def _decide_and_drop(graph_list):
    """Weak references to the gadget tensors of relax decisions on each graph, both
    kinds; a function, so that no local of the caller holds the last one."""
    refs = []
    for G in graph_list:
        for inst, check in ((build_cubic_instance(G, 3, Fraction(1, 2)), check_sc), (build_quartic_instance(G, 3, 1), check_sc2)):
            check(inst, CFG, mode="relax")
            refs.append(weakref.ref(inst.A))
    return refs


def test_decided_tensors_are_not_kept_alive():
    """Analyses live on their tensor, so the checker keeps no tensor alive
    that its caller dropped: after relax decisions on 70 distinct gadgets of
    each kind, at most one per kind is left, the last graph's in the gadget memo."""
    graph_list = list({gnm(7, 10, seed): None for seed in range(80)})[:70]
    assert len(graph_list) == 70
    refs = _decide_and_drop(graph_list)
    gc.collect()
    left = Counter(A.order for A in (ref() for ref in refs) if A is not None)
    assert max(left.values(), default=0) <= 1, left


def test_a_k_sweep_shares_one_gadget_tensor(c5):
    """Each decision of a k-sweep over one graph and kind gets the same
    tensor object, also from an equal graph built anew, so the analysis
    caches find it by identity; an `off_orbit` copy is a new object each time.
    The shared tensor's entries are read-only."""
    clear_analyses()
    for kind in GADGETS:
        sweep = [build_instance(c5, kind, k, 1) for k in (3, 4, 5, 6)]
        sweep.append(build_instance(graph_from_edges(5, sorted(c5.edges)), kind, 3, 1))
        assert all(inst.A is GADGETS[kind].tensor(c5) for inst in sweep)
        with pytest.raises(TypeError):
            sweep[0].A.entries[(1,) * sweep[0].A.order] = Fraction(1)
        perturbed = [off_orbit(inst) for inst in sweep]
        assert len({id(inst.A) for inst in perturbed}) == len(perturbed)
        assert all(inst.A == perturbed[0].A != sweep[0].A for inst in perturbed)
    assert [cached.cache_info().misses for cached in GADGET_MEMOS] == [1, 1]


@pytest.mark.parametrize("kind", sorted(GADGETS))
def test_a_shared_gadget_tensor_pickles_and_copies(c5, kind):
    """A memoized, decided tensor survives `pickle` and `copy.deepcopy` as an
    equal, separate tensor whose entries still refuse an edit, which carries
    none of the original's analyses and decides as it does."""
    inst = build_instance(c5, kind, 3, 1)
    A = inst.A
    assert A is GADGETS[kind].tensor(c5)
    check = check_sc if kind == "cubic" else check_sc2
    decided = verdict_to_json_obj(check(inst, CFG, mode="relax"))
    assert len(A._packed.idx) == len(A.entries)  # a cached float view must not stop the copy
    assert CFG in A._analyses  # nor a kept search
    for clone in (pickle.loads(pickle.dumps(A)), copy.deepcopy(A)):
        assert clone == A and clone is not A and hash(clone) == hash(A)
        assert "_analyses" not in vars(clone)
        with pytest.raises(TypeError):
            clone.entries[(1,) * A.order] = Fraction(1)
        assert verdict_to_json_obj(check(replace(inst, A=clone), CFG, mode="relax")) == decided


def test_one_tensor_object_hits_the_memo_and_equal_copies_and_other_keys_miss(counted, footnote_graph):
    """A search is kept on its tensor object: every k and mode of one object
    share it, an equal tensor built anew is searched anew, and so is each
    other `OptConfig`."""
    first = off_orbit(build_cubic_instance(footnote_graph, 3, Fraction(1, 2)))
    later = replace(build_cubic_instance(footnote_graph, 5, Fraction(1, 2)), A=first.A)
    check_sc(first, CFG, mode="relax")
    check_sc(later, CFG, mode="relax")
    check_sc(later, CFG, mode="grid")
    assert counted["max_form_sphere"] == 1
    # The float bounds are not kept: each decision that reaches one runs it
    # (`first` is refuted by the search and reaches none).
    assert counted["spectral_upper_bound"] == 1
    rungs = counted["grid_lower_and_upper"]
    assert rungs >= 1
    twin = off_orbit(build_cubic_instance(footnote_graph, 5, Fraction(1, 2)))
    assert twin.A is not first.A and twin.A == first.A
    check_sc(twin, CFG, mode="grid")
    assert counted["grid_lower_and_upper"] == 2 * rungs
    assert counted["max_form_sphere"] == 2

    others = [OptConfig(starts=CFG.starts, max_iters=CFG.max_iters, seed=CFG.seed + 1),
              OptConfig(starts=CFG.starts + 1, max_iters=CFG.max_iters, seed=CFG.seed),
              OptConfig(starts=CFG.starts, max_iters=CFG.max_iters + 1, seed=CFG.seed)]
    for searches, cfg in enumerate(others, start=3):
        check_sc(later, cfg, mode="relax")
        assert counted["max_form_sphere"] == searches
        assert counted["spectral_upper_bound"] == searches - 1
    # An instance built from the tensor object alone has the same search.
    check_sc(ConcordanceInstance(kind="cubic", A=later.A, q=later.q), CFG, mode="relax")
    assert counted["max_form_sphere"] == 5
    assert counted["spectral_upper_bound"] == 5


def test_equal_gadget_tensors_color_once(counted, footnote_graph):
    verdicts = [
        check_sc(build_cubic_instance(footnote_graph, k, Fraction(1, 2)), CFG, mode=mode)
        for k in (3, 4, 5, 6) for mode in ("relax", "grid")
    ]
    assert (counted["max_form_sphere"], counted["proper_coloring"]) == (1, 1)
    assert counted["spectral_upper_bound"] == counted["grid_lower_and_upper"] == 0
    assert all(v.certificate == verdicts[0].certificate for v in verdicts)
    verdicts[0].certificate["colors"].append(2)  # a caller's edit reaches no later verdict
    again = check_sc(build_cubic_instance(footnote_graph, 3, Fraction(1, 2)), CFG, mode="relax")
    assert again.certificate == verdicts[1].certificate != verdicts[0].certificate


def test_both_gadgets_of_a_graph_color_once(counted, c5):
    """The cubic and quartic gadgets of one graph have one support graph, so
    they cost one `proper_coloring` miss; the float bounds never run."""
    for k in (3, 4):
        assert check_sc(build_cubic_instance(c5, k, Fraction(1, 2)), CFG, mode="relax").status is Status.SELF_CONCORDANT
        assert check_sc2(build_quartic_instance(c5, k, 1), CFG, mode="grid").status is Status.SELF_CONCORDANT
    assert counted["proper_coloring"] == 2  # one per gadget tensor, from `_coloring`
    info = graphs.proper_coloring.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert counted["spectral_upper_bound"] == counted["grid_lower_and_upper"] == 0


def test_over_budget_rungs_raise_and_are_not_kept(counted, monkeypatch, footnote_graph):
    """With no rung within the point budget, `grid_lower_and_upper` raises, and
    a grid decision runs no rung and ends UNDECIDED naming the budget."""
    inst = off_orbit(build_cubic_instance(footnote_graph, 5, Fraction(1, 2)))
    monkeypatch.setattr(optimize, "_NET_BUDGET", 0)
    with pytest.raises(ValueError, match="exceeds budget"):
        optimize.grid_lower_and_upper(inst.A, 0.2)
    verdict = check_sc(inst, CFG, mode="grid")
    assert verdict.status is Status.UNDECIDED
    assert "exceeds budget 0" in verdict.certificate["bound_name"]
    assert verdict.certificate["bound_value"] == "inf"
    assert counted["grid_lower_and_upper"] == 0
    assert verdict.evaluations == concordance._search(inst.A, CFG).evaluations


def test_one_search_decides_not_at_omega_and_not_above(counted):
    G = graph_from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])  # omega = 3
    for build, check in (
        (lambda k: build_cubic_instance(G, k, Fraction(1, 2)), check_sc),
        (lambda k: build_quartic_instance(G, k, 1), check_sc2),
    ):
        inst = build(3)
        verdict = check(inst, CFG, mode="relax")
        assert verdict.status is Status.NOT_SELF_CONCORDANT
        recheck_not_certificate(inst, verdict)
        assert check(build(4), CFG, mode="relax").status is not Status.NOT_SELF_CONCORDANT
    assert counted["max_form_sphere"] == 2


def test_cached_witness_is_read_only(counted, k3):
    inst = build_cubic_instance(k3, 3, Fraction(1, 2))
    report = concordance._search(inst.A, CFG)
    assert concordance._search(inst.A, CFG) is report
    assert counted["max_form_sphere"] == 1
    with pytest.raises(ValueError):
        report.witness[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        report.best_value = 0.0


# ---------------------------------------------------------------------------
# Cubic tensors of gadget shape are searched through their quartic tensor


def _direct_search(A, cfg):
    """The search on the cubic form as stated: a clique start and nonnegative
    starts when A is the gadget of its support graph, else plain random starts."""
    support = reduction.read_support(A)
    exact = support is not None and support.exact
    extra = (reduction.unit_witness(support.kind, support.graph, graphs.max_clique(support.graph)),) if exact else ()
    return optimize.max_form_sphere(A, cfg, extra_starts=extra, nonnegative_starts=exact)


def _parent_lift(A, support, u):
    """The lift before `reduction.lift_point`, as its test-local reference: (h, A(h))
    with v = 6a u_i u_j per entry in sorted key order, and A(h) summed in that order."""
    index = np.array(sorted(A.entries), dtype=np.intp) - 1
    weights = 6.0 * np.array([float(A.entries[key]) for key in sorted(A.entries)])
    vertices = np.array(support.vertices) - 1
    position = np.zeros(A.dim, dtype=np.intp)
    position[vertices] = np.arange(vertices.size)
    v = weights * u[position[index[:, 0]]] * u[position[index[:, 1]]]
    norm = math.sqrt(v @ v)
    h = np.zeros(A.dim)
    h[vertices] = math.sqrt(2 / 3) * u
    if norm > 0.0:
        h[index[:, 2]] = (math.sqrt(1 / 3) / norm) * v
    else:
        h[index[0, 2]] = math.sqrt(1 / 3)
    return h, float(((h[None, index[:, 0]] * h[None, index[:, 1]] * h[None, index[:, 2]]) @ weights)[0])


def _parent_search(A, cfg):
    """`concordance._search` before `reduction.search_starts` and `lift_point`, on an exact
    gadget: the direct search (`_direct_search`) or, for a cubic gadget from dim
    `_LIFT_MIN_DIM` on, the search of its quartic tensor from a maximum clique of H and
    nonnegative starts, lifted back to A by `_parent_lift`."""
    support = reduction.read_support(A)
    if support.kind == "quartic" or A.dim < concordance._LIFT_MIN_DIM:
        return _direct_search(A, cfg)
    Q, _ = reduction.cubic_lift(A, support)
    start = reduction.unit_witness("quartic", support.graph, graphs.max_clique(support.graph))
    found = optimize.max_form_sphere(Q, cfg, extra_starts=(start,), nonnegative_starts=True)
    witness, value = _parent_lift(A, support, found.witness)
    return optimize.OptReport(value, witness, tuple(2 / (3 * math.sqrt(3)) * math.sqrt(x) for x in found.per_start_values),
                              found.converged, found.evaluations)


@pytest.fixture
def built(monkeypatch):
    """The (Q, support read) pairs that `concordance._search` gets from `cubic_lift`, in order."""
    pairs = []
    monkeypatch.setattr(concordance, "cubic_lift", lambda *args: pairs.append(reduction.cubic_lift(*args)) or pairs[-1])
    return pairs


def _same_report(a, b) -> bool:
    return (a.best_value == b.best_value and np.array_equal(a.witness, b.witness)
            and a.per_start_values == b.per_start_values and a.converged == b.converged
            and a.evaluations == b.evaluations)


def _layout(G, rng):
    """Coordinates for the cubic layout of G that keep gadget shape: vertices and edges
    drawn in a random order, each edge coordinate after both of its ends."""
    key = {("v", v): rng.random() for v in range(1, G.n + 1)}
    for e, (i, j) in enumerate(G.edge_order):
        low = max(key["v", i], key["v", j])
        key["e", e] = low + rng.random() * (1.0 - low)
    rank = {c: r for r, c in enumerate(sorted(key, key=key.get), start=1)}
    return [rank["v", v] for v in range(1, G.n + 1)], [rank["e", e] for e in range(G.m)]


def _lift_graphs():
    """Every labeled graph with n <= 4 and an edge, then one graph per isomorphism
    class with n = 5 and an edge (the relabeled copies of `_lift_corpus` vary the labels)."""
    graph_list = [G for n in range(2, 5) for G in enumerate_graphs(n) if G.m]
    classes = {}
    for G in (G for G in enumerate_graphs(5) if G.m):
        form = min(tuple(sorted(tuple(sorted((p[i - 1], p[j - 1]))) for i, j in G.edges))
                   for p in permutations(range(1, 6)))
        classes.setdefault(form, G)
    return graph_list + list(classes.values())


def _lift_corpus():
    """(graph, tensor): per graph of `_lift_graphs`, its cubic gadget (a fresh object),
    then its copies with every value 1/7, with mixed values +-k/36, with its
    coordinates relabeled (`_layout`), and with one more coordinate, isolated."""
    rng = np.random.default_rng(29)
    for G in _lift_graphs():
        A = build_cubic_tensor(G)
        dim = A.dim
        keys = [(i, j, G.n + e) for e, (i, j) in enumerate(G.edge_order, start=1)]
        vertices, edges = _layout(G, rng)
        signed = [Fraction((-1) ** e * (1 + e % 6), 36) for e in range(G.m)]
        yield G, SymTensor(3, dim, dict(A.entries))
        yield G, SymTensor(3, dim, {key: Fraction(1, 7) for key in keys})
        yield G, SymTensor(3, dim, dict(zip(keys, signed)))
        yield G, SymTensor(3, dim, {tuple(sorted((vertices[i - 1], vertices[j - 1], edges[e]))): Fraction(1, 6)
                                    for e, (i, j, _) in enumerate(keys)})
        yield G, SymTensor(3, dim + 1, dict(A.entries))


def test_cubic_search_runs_on_the_quartic_tensor_and_lifts_its_witness(monkeypatch):
    """On the cubic gadgets of the graphs with n <= 5 (`_lift_graphs`) and their
    1/7-valued, mixed-sign, relabeled and padded copies, the lifted search reaches
    the direct search's value (to 1e-12), its witness is a read-only unit vector at
    which A equals its best value, and relax and grid statuses at k = omega .. omega + 2
    equal the direct path's.  The lift is forced at every dim."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", 1)
    cfg = OptConfig(starts=4, max_iters=200, seed=5)
    count = decided = 0
    worst = -np.inf
    for G, A in _lift_corpus():
        support = reduction.read_support(A)
        assert support is not None and support.kind == "cubic" and support.graph.m == G.m, A
        report = concordance._search(A, cfg)
        direct = _direct_search(A, cfg)
        worst = max(worst, direct.best_value - report.best_value)
        assert report.best_value >= direct.best_value - 1e-12, (A, report.best_value, direct.best_value)
        assert not report.witness.flags.writeable
        assert abs(float(np.linalg.norm(report.witness)) - 1.0) <= 1e-12
        assert eval_form(A, report.witness) == report.best_value
        count += 1
        omega = clique_number(G)
        instances = [ConcordanceInstance("cubic", A, reduction.threshold("cubic", k))
                     for k in range(max(omega, 3), omega + 3)]
        modes = ("relax", "grid") if A.dim <= 5 else ("relax",)
        lifted = [check_sc(inst, cfg, mode=mode).status for inst in instances for mode in modes]
        twin = SymTensor(3, A.dim, dict(A.entries))
        with monkeypatch.context() as patch:
            patch.setattr(concordance, "_search", _direct_search)
            plain = [check_sc(replace(inst, A=twin), cfg, mode=mode).status for inst in instances for mode in modes]
        assert lifted == plain, (A, lifted, plain)
        decided += len(lifted)
    assert count == 5 * (71 + 33)
    assert worst <= 1e-12 and decided > 1000, (worst, decided)


def test_the_quartic_tensor_is_built_once_per_cubic_tensor_object(counted, monkeypatch, built, c5):
    """A k-sweep in relax and grid mode on one cubic gadget object builds its
    quartic tensor once and searches it once; that tensor is the memoized
    quartic gadget of the graph, it keeps the support read handed over with it,
    and the report's `evaluations` is its search's count (the lift forced on
    C5's dim 10)."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", 1)
    for k in (3, 4, 5, 6):
        for mode in ("relax", "grid"):
            check_sc(build_cubic_instance(c5, k, Fraction(1, 2)), CFG, mode=mode)
    A = build_cubic_tensor(c5)
    assert len(built) == 1
    assert counted["max_form_sphere"] == 1
    Q, support = built[0]
    assert Q._analyses["support"] is support
    assert Q == build_quartic_tensor(c5) and Q is build_quartic_tensor(c5)
    start = reduction.unit_witness("quartic", c5, graphs.max_clique(c5))
    found = optimize.max_form_sphere(Q, CFG, extra_starts=(start,), nonnegative_starts=True)
    assert concordance._search(A, CFG).evaluations == found.evaluations
    # An equal tensor object is lifted anew.
    concordance._search(SymTensor(3, A.dim, dict(A.entries)), CFG)
    assert len(built) == 2


def _kind_sweep(G, kinds, fresh=False):
    """{kind: verdict JSON of each k = omega .. omega + 2, relax then grid}, the kinds
    decided in the order given; with `fresh`, each decision on an equal new tensor
    object after `clear_analyses`, so that it reuses nothing."""
    omega = clique_number(G)
    sweeps = {}
    for kind in kinds:
        check = check_sc if kind == "cubic" else check_sc2
        sweeps[kind] = verdicts = []
        for k in range(omega, omega + 3):
            for mode in ("relax", "grid"):
                inst = build_instance(G, kind, k, 1)
                if fresh:
                    clear_analyses()
                    inst = replace(inst, A=SymTensor(inst.A.order, inst.A.dim, dict(inst.A.entries)))
                verdicts.append(verdict_to_json_obj(check(inst, CFG, mode=mode)))
    return sweeps


@pytest.fixture
def half_edge_graph():
    """G(8, 14): its cubic gadget has dim 22, so the cubic search runs on the quartic tensor."""
    G = gnm(8, 14, 8)
    assert build_cubic_tensor(G).dim == 22 >= concordance._LIFT_MIN_DIM
    return G


def test_a_graphs_cubic_and_quartic_decisions_share_one_search(counted, half_edge_graph):
    """The cubic decisions of a graph whose cubic gadget is lifted search the memoized
    quartic gadget, so its quartic decisions after them search nothing, and every
    verdict, `evaluations` included, is the one an equal new tensor gets with nothing reused."""
    shared = _kind_sweep(half_edge_graph, ("cubic", "quartic"))
    assert counted["max_form_sphere"] == 1
    assert len(shared["cubic"]) == len(shared["quartic"]) == 6
    assert any(v["status"] == "NOT_SELF_CONCORDANT" for v in shared["cubic"] + shared["quartic"])
    assert _kind_sweep(half_edge_graph, ("cubic", "quartic"), fresh=True) == shared
    assert counted["max_form_sphere"] == 1 + 2 * 6


def test_quartic_decisions_first_leave_the_cubic_ones_their_search(counted, half_edge_graph):
    """Decided quartic first, the graph's cubic decisions find the quartic gadget's
    search and leave it its own support read, and both kinds' verdicts equal those
    of the cubic-first order."""
    quartic_first = _kind_sweep(half_edge_graph, ("quartic",))
    read = build_quartic_tensor(half_edge_graph)._analyses["support"]
    quartic_first |= _kind_sweep(half_edge_graph, ("cubic",))
    assert counted["max_form_sphere"] == 1
    assert build_quartic_tensor(half_edge_graph)._analyses["support"] is read  # kept, not replaced
    clear_analyses()
    assert _kind_sweep(half_edge_graph, ("cubic", "quartic")) == quartic_first
    assert counted["max_form_sphere"] == 2


def test_only_a_gadget_is_lifted_to_the_memoized_quartic_gadget(monkeypatch, built):
    """On the lift corpus (the lift forced at every dim), the gadget and its relabeled
    and padded copies are searched on `build_quartic_tensor`(H) itself, while the
    1/7-valued and mixed-sign copies get a Q of their own and leave the analyses of
    H's quartic gadget empty."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", 1)
    cfg = OptConfig(starts=2, max_iters=100, seed=3)
    shared = own = 0
    for index, (_, A) in enumerate(_lift_corpus()):
        clear_analyses()
        gadget = build_quartic_tensor(reduction.read_support(A).graph)
        concordance._search(A, cfg)
        Q = built[-1][0]
        if index % 5 in (1, 2):
            assert Q is not gadget and Q != gadget and gadget._analyses == {}, A
            own += 1
        else:
            assert Q is gadget and cfg in gadget._analyses, A
            shared += 1
    assert (shared, own) == (3 * (71 + 33), 2 * (71 + 33))


def test_values_below_the_float_range_lift_to_a_unit_witness(monkeypatch):
    """Cubic values that round to 0.0 make Q zero in floats, so v = 0 at every point;
    the lift (forced on dim 5) still gives a unit witness, with its edge mass on the
    first entry's edge coordinate, and the decision ends as at the direct search."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", 1)
    A = SymTensor(3, 5, {(1, 2, 4): Fraction(-1, 10**400), (2, 3, 5): Fraction(1, 10**400)})
    report = concordance._search(A, CFG)
    assert report.best_value == 0.0 and report.witness[3] == np.sqrt(1 / 3)
    assert abs(float(np.linalg.norm(report.witness)) - 1.0) <= 1e-12
    inst = ConcordanceInstance("cubic", A, Fraction(1, 27))
    assert check_sc(inst, CFG, mode="relax").status is Status.SELF_CONCORDANT


def test_cubic_gadget_searches_take_dense_steps_up_to_n_32(monkeypatch):
    """The quartic tensor of a cubic gadget has dim n, so up to n = 32 (cubic dim 280
    on half-edge graphs) its search never reaches truncated CG; the cubic form
    itself, searched as stated, does."""
    cg = []
    real = optimize._truncated_cg
    monkeypatch.setattr(optimize, "_truncated_cg", lambda *args: cg.append(args[1].shape) or real(*args))
    cfg = OptConfig(starts=2, max_iters=100, seed=3)
    for n in (12, 16, 24, 32):
        G = gnm(n, n * (n - 1) // 4, n)
        report = concordance._search(SymTensor(3, G.n + G.m, dict(build_cubic_tensor(G).entries)), cfg)
        assert report.witness.shape == (G.n + G.m,)
    assert cg == []
    _direct_search(build_cubic_tensor(G), cfg)
    assert cg and cg[0][1] == G.n + G.m


def test_cubic_tensors_below_the_lift_dim_are_searched_as_stated(built):
    """K5's cubic gadget (dim 15) is searched directly, with the report the direct
    search gives and no lift built; the same entries on dim 16 (one isolated
    coordinate more, which the support read counts as a vertex) are searched through
    the quartic tensor on its 6 vertices."""
    K5 = graph_from_edges(5, [(i, j) for i in range(1, 6) for j in range(i + 1, 6)])
    entries = dict(build_cubic_tensor(K5).entries)
    A = SymTensor(3, 15, entries)
    assert A.dim == concordance._LIFT_MIN_DIM - 1
    report, direct = concordance._search(A, CFG), _direct_search(SymTensor(3, 15, entries), CFG)
    assert built == []
    assert report.best_value == direct.best_value and report.evaluations == direct.evaluations
    assert np.array_equal(report.witness, direct.witness)
    padded = SymTensor(3, 16, entries)
    report = concordance._search(padded, CFG)
    assert len(built) == 1 and built[0][0].dim == 6 and report.witness.shape == (16,)
    assert abs(report.best_value - direct.best_value) <= 1e-12


@pytest.mark.parametrize("lift_min_dim", [1, concordance._LIFT_MIN_DIM])
def test_gadget_searches_keep_their_starts(monkeypatch, lift_min_dim):
    """The exact gadgets of all graphs with n <= 5, both kinds, get `_search` reports
    bit-identical to the rule before `reduction.search_starts` (`_parent_search`),
    with the lift forced at every dim and at `_LIFT_MIN_DIM`."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", lift_min_dim)
    cfg = OptConfig(starts=2, max_iters=40, seed=7)
    count = 0
    for n in range(2, 6):
        for G in enumerate_graphs(n):
            for gadget in reduction.GADGETS.values():
                built = gadget.tensor(G)
                A = SymTensor(built.order, built.dim, dict(built.entries))  # searched afresh under each limit
                assert _same_report(concordance._search(A, cfg), _parent_search(A, cfg)), (G, A.order)
                count += 1
    assert count == 2 * 1094


def test_a_quartic_tensor_is_searched_as_the_equal_lifted_one(monkeypatch, built):
    """A quartic tensor decided directly gets the report, bit for bit, that the equal
    Q built by `cubic_lift` gets: on the lift corpus (the lift forced at every dim), Q
    is a gadget-shaped non-gadget for the 1/7-valued and mixed-sign copies, with a
    clique start and a heaviest-edge start, and the gadget of H otherwise."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", 1)
    cfg = OptConfig(starts=2, max_iters=100, seed=3)
    edge_starts = 0
    for _, A in _lift_corpus():
        lifted = concordance._search(A, cfg)
        Q = built[-1][0]
        twin = SymTensor(4, Q.dim, dict(Q.entries))
        direct = concordance._search(twin, cfg)
        assert _same_report(direct, Q._analyses[cfg]), A
        assert lifted.evaluations == direct.evaluations and lifted.witness.shape == (A.dim,)
        starts = reduction.search_starts(twin, reduction.read_support(twin))
        assert len(starts) == 1 + (not reduction.read_support(twin).exact)
        edge_starts += len(starts) - 1
    assert edge_starts == 2 * (71 + 33)


def test_the_lift_hands_over_the_support_read_of_its_quartic_tensor():
    """On the lift corpus, the `Support` record that `cubic_lift` returns with Q is
    `read_support(Q)`: vertices 1..n, A's support graph, and exact when every
    |value| of A is 1/6."""
    exact = 0
    for _, A in _lift_corpus():
        Q, support = reduction.cubic_lift(A, reduction.read_support(A))
        assert support == reduction.read_support(Q), A
        exact += support.exact
    assert exact == 3 * (71 + 33)


def test_a_lifted_search_reads_the_support_of_the_cubic_tensor_only(monkeypatch):
    """A lifted `_search` reads the support of each fresh cubic tensor once and that of
    its quartic tensor never (the lift forced at every dim)."""
    monkeypatch.setattr(concordance, "_LIFT_MIN_DIM", 1)
    read = []
    monkeypatch.setattr(concordance, "read_support", lambda A: read.append(A) or reduction.read_support(A))
    corpus = [A for _, A in _lift_corpus()]
    for A in corpus:
        concordance._search(A, CFG)
        concordance._search(A, OptConfig(starts=2, max_iters=50, seed=1))
    assert len(read) == len(corpus) and all(a is b for a, b in zip(read, corpus))
