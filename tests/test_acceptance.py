"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion with details, or `selfconcord verify-all` for the same checks as
a table.  Tolerances are pinned inside each criterion; see the criterion
docstrings in `selfconcord.acceptance`.
"""

from itertools import count
from types import SimpleNamespace

import pytest

from selfconcord import acceptance, complement
from selfconcord.acceptance import (
    criterion_beta_split,
    criterion_boundary_exactness,
    criterion_decision_equivalence,
    criterion_footnote,
    criterion_motzkin_straus,
    criterion_property_suite,
    criterion_second_order,
    criterion_sigma_opt,
    criterion_sphere_constants,
)


def _assert_criterion(result):
    print(f"\n[criterion {result.number}] {'PASS' if result.passed else 'FAIL'}: "
          f"{result.name} ({result.details}; {result.seconds:.1f}s)")
    assert result.passed, f"criterion {result.number} failed: {result.details}"


def test_criterion_1_simplex_identities():
    """All 1094 labeled graphs (2 <= n <= 5, m >= 1): simplex maxima match
    1 - 1/omega and 1 - 1/alpha to 1e-6, within the 2-minute budget."""
    _assert_criterion(criterion_motzkin_straus(max_n=5))


def test_criterion_1_sweep_is_closed_under_complement():
    """Criterion 1 checks 1 - 1/alpha(G) as the clique side of G's complement,
    so every complement with an edge must be a graph of the sweep itself."""
    graphs = set(acceptance._reduction_graphs(5))
    complements = {complement(G) for G in graphs}
    assert len(graphs) == 1094
    assert {H for H in complements if H.m} <= graphs
    assert sum(1 for H in complements if not H.m) == 4  # the complete graphs on 2..5 vertices


def test_criterion_2_sphere_identities():
    """Same graphs: 27/2 * max^2 matches 1 - 1/omega to 1e-6, and the unit
    clique witness evaluates to (2/27)(1 - 1/omega) to 1e-12."""
    _assert_criterion(criterion_sphere_constants(max_n=5))


def test_criterion_3_footnote_counterexample():
    """3-vertex/1-edge graph: mis-stated identity sides 1/sqrt(2) vs 1
    (mismatch >= 0.29); corrected identity balances to 1e-9."""
    _assert_criterion(criterion_footnote())


def test_criterion_4_decision_equivalence():
    """Exhaustive n <= 5, k in 3..6, sigma = 1/2: oracle cubic verdict is
    NOT exactly when a k-clique exists; exact rational, zero tolerance,
    under one minute."""
    _assert_criterion(criterion_decision_equivalence(max_n=5))


def test_oracle_criterion_details_do_not_depend_on_time(monkeypatch):
    """The 60 s gate is in `passed` and the time in `seconds`; the details are the same however long a run takes."""
    runs = []
    for step in (0.5, 7.0):
        ticks = count(0.0, step)
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        runs.append(criterion_decision_equivalence(max_n=3))
    assert [r.seconds for r in runs] == [0.5, 7.0]
    assert all(r.passed for r in runs)
    assert runs[0].details == runs[1].details


@pytest.mark.parametrize("criterion, limit", [
    (criterion_motzkin_straus, 120.0),
    (criterion_decision_equivalence, 60.0),
    (criterion_second_order, 60.0),
])
def test_criterion_past_its_time_limit_fails_with_details_intact(monkeypatch, criterion, limit):
    """A body that runs past its limit is reported failed, and only `passed` changes."""
    on_time = criterion(max_n=3)
    ticks = count(0.0, limit + 1.0)
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    late = criterion(max_n=3)
    assert on_time.passed and not late.passed
    assert late.seconds == limit + 1.0
    assert (late.number, late.name, late.details) == (on_time.number, on_time.name, on_time.details)


def test_criterion_5_boundary_exactness():
    """omega = k-1 instances: maximum equals threshold as exact rationals
    and the verdict is SELF_CONCORDANT."""
    _assert_criterion(criterion_boundary_exactness(max_n=5))


def test_criterion_6_second_order_equivalence():
    """Exhaustive n <= 5, k in 3..6, tau = 1: oracle quartic verdict agrees
    with the clique oracle, exact comparisons."""
    _assert_criterion(criterion_second_order(max_n=5))


def test_criterion_7_sigma_opt_brackets():
    """Triangle gadget bracket contains 1/81 with lower >= 1/81 - 1e-8;
    zero and single-diagonal tensors give exactly (0, 0) and (1/4, 1/4)."""
    _assert_criterion(criterion_sigma_opt())


def test_criterion_8_beta_split_constant():
    """1e-6 grid over beta*sqrt(1-beta) attains 2/(3*sqrt(3)) at 2/3."""
    _assert_criterion(criterion_beta_split())


def test_criterion_9_property_suite():
    """Calculus identities at 1e-6 on 100 random instances; on 50 random
    order-3 tensors, ||grad||/3 at the search witness equals the best value
    to 1e-4 relative and no point of a 0.1 net exceeds it by more than
    1e-12; every NOT certificate and every SELF_CONCORDANT one (coloring or
    exact_clique_oracle) re-verifies exactly; no cross-mode contradictions on
    the exhaustive n <= 4 sweep."""
    _assert_criterion(criterion_property_suite(max_n=4))
