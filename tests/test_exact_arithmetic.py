"""Exact arithmetic on integers.

`eval_form_exact`, `violates` and `rationalize_vector` compute on integer
numerators; they are compared here with the plain `Fraction` formulas they
replaced, kept below as the reference.  A warm SELF_CONCORDANT decision
builds no `Fraction` at all, and the validation of instances still refuses
what it refused before, with the same messages.
"""

import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from selfconcord import (
    ConcordanceInstance,
    OptConfig,
    build_instance,
    check_sc,
    check_sc2,
    cli,
    eval_form_exact,
    graph_from_edges,
    rationalize_vector,
    sym_from_entries,
    tensor_to_json_obj,
    violates,
)

# ---------------------------------------------------------------------------
# Reference: the Fraction formulas


def reference_eval(A, h) -> Fraction:
    hq = [Fraction(x) for x in h]
    total = Fraction(0)
    for key, value in A.entries.items():
        orbit = math.factorial(len(key))
        for i in set(key):
            orbit //= math.factorial(key.count(i))
        term = value * orbit
        for i in key:
            term *= hq[i - 1]
        total += term
    return total


def reference_violates(A, h, q):
    p = 2 if A.order == 3 else 1
    hq = tuple(Fraction(x) for x in h)
    lhs = reference_eval(A, hq) ** p
    rhs = Fraction(q) * sum(x * x for x in hq) ** (p * A.order // 2)
    return lhs > rhs, lhs, rhs


def reference_rationalize(h) -> tuple[Fraction, ...]:
    return tuple(Fraction(round(Fraction(float(x)) * 2**64), 2**64) for x in np.asarray(h, dtype=float))


def random_tensor(rng, order: int, dim: int):
    """Mixed-sign entries with denominators up to 10^6, on about half of the orbits."""
    raw = [
        (key, Fraction(int(rng.integers(-10**6, 10**6)) or 1, int(rng.integers(1, 10**6 + 1))))
        for key in combinations_with_replacement(range(1, dim + 1), order)
        if rng.random() < 0.5
    ]
    return sym_from_entries(order, dim, raw)


def random_rational_vector(rng, dim: int) -> list:
    """Mixed denominators, zeros and negative coordinates; some as ints and strings."""
    h = []
    for _ in range(dim):
        choice = rng.integers(5)
        if choice == 0:
            h.append(0)
        elif choice == 1:
            h.append(int(rng.integers(-5, 6)))
        elif choice == 2:
            h.append(f"{int(rng.integers(-10**6, 10**6))}/{int(rng.integers(1, 10**6 + 1))}")
        else:
            h.append(Fraction(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**9 + 1))))
    return h


# ---------------------------------------------------------------------------
# Integer evaluation against the reference


def test_eval_form_exact_matches_the_fraction_formula():
    rng = np.random.default_rng(15)
    for order in (2, 3, 4):
        for _ in range(40):
            A = random_tensor(rng, order, int(rng.integers(1, 6)))
            h = random_rational_vector(rng, A.dim)
            value = eval_form_exact(A, h)
            assert type(value) is Fraction
            assert value == reference_eval(A, h)
            assert str(value) == str(reference_eval(A, h))


def test_violates_matches_the_fraction_formula():
    rng = np.random.default_rng(16)
    outcomes = set()
    for order in (3, 4):
        for _ in range(40):
            A = random_tensor(rng, order, int(rng.integers(1, 6)))
            h = random_rational_vector(rng, A.dim)
            ratio_q = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**6)))
            _, lhs, rhs = reference_violates(A, h, 1)
            # q at, below and above the ratio lhs / rhs of h, when h.h > 0
            candidates = [ratio_q] + ([lhs / rhs, lhs / rhs / 2, 2 * lhs / rhs] if lhs and rhs else [])
            for q in candidates:
                got, want = violates(A, h, q), reference_violates(A, h, q)
                assert got == want
                assert [str(x) for x in got[1:]] == [str(x) for x in want[1:]]
                outcomes.add(got[0])
    assert outcomes == {True, False}


def test_a_wrong_length_h_still_raises():
    rng = np.random.default_rng(17)
    for order in (3, 4):
        A = random_tensor(rng, order, 4)
        for length in (3, 5):
            h = [Fraction(1, 3)] * length
            with pytest.raises(ValueError, match="does not match tensor dim"):
                eval_form_exact(A, h)
            with pytest.raises(ValueError, match="does not match tensor dim"):
                violates(A, h, Fraction(1, 2))


def test_rationalize_vector_matches_the_fraction_formula():
    special = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0**-65, -(2.0**-65), 3 * 2.0**-65, -3 * 2.0**-65]
    assert rationalize_vector(special) == reference_rationalize(special)
    # The ties round half to even: 2^-65 -> 0, 3 * 2^-65 -> 2/2^64.
    assert rationalize_vector([2.0**-65, 3 * 2.0**-65]) == (0, Fraction(2, 2**64))
    rng = np.random.default_rng(18)
    for _ in range(10_000):
        v = rng.standard_normal(int(rng.integers(1, 9)))
        v /= np.linalg.norm(v)
        got = rationalize_vector(v)
        assert got == reference_rationalize(v)
        assert all(type(x) is Fraction for x in got)


# ---------------------------------------------------------------------------
# A warm SELF_CONCORDANT decision builds no Fraction


C4 = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
PARAMS = {"cubic": Fraction(1, 2), "quartic": Fraction(1)}
CHECKS = {"cubic": check_sc, "quartic": check_sc2}

# (graph, k, mode, certificate kind, bound name): C4 is 2-colorable, so its
# k = 3 decisions end at the coloring rung; C5 needs 3 colors, so at k = 3
# its decisions end at the clique-number rung, and oracle mode reads omega.
WARM_CASES = [
    pytest.param(C4, 3, "relax", "coloring", None, id="C4-k3-relax"),
    pytest.param(C4, 3, "grid", "coloring", None, id="C4-k3-grid"),
    pytest.param(C5, 3, "relax", "bound", "exact_clique_oracle", id="C5-k3-relax"),
    pytest.param(C5, 3, "oracle", "bound", "exact_clique_oracle", id="C5-k3-oracle"),
    pytest.param(C4, 4, "oracle", "bound", "exact_clique_oracle", id="C4-k4-oracle"),
]


def fractions_built(fn):
    """(fn(), the arguments of every Fraction constructed while it ran)."""
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        result = fn()
    return result, built


@pytest.mark.parametrize("kind", ["cubic", "quartic"])
@pytest.mark.parametrize("G, k, mode, certificate_kind, bound_name", WARM_CASES)
def test_a_warm_self_concordant_decision_builds_no_fraction(kind, G, k, mode, certificate_kind, bound_name):
    cfg = OptConfig(seed=3, starts=2, max_iters=50)

    def decide():
        return CHECKS[kind](build_instance(G, kind, k, PARAMS[kind]), cfg, mode=mode)

    cold = decide()
    warm, built = fractions_built(decide)
    assert warm == cold
    assert warm.certificate["kind"] == certificate_kind
    if bound_name is not None:
        assert warm.certificate["bound"]["name"] == bound_name
    assert built == []


def test_the_count_sees_a_fraction_built():
    _, built = fractions_built(lambda: build_instance(C4, "cubic", 3, "1/2"))
    assert ("1/2",) in built


# ---------------------------------------------------------------------------
# Validation refuses what it refused before, with the same messages; a zero
# denominator or an infinite float, once a bare ZeroDivisionError or
# OverflowError, is a ValueError that names the parameter


@pytest.mark.parametrize("param, error, message", [
    (0, ValueError, "{name} must be positive, got 0"),
    (-1, ValueError, "{name} must be positive, got -1"),
    ("0", ValueError, "{name} must be positive, got 0"),
    ("-1/2", ValueError, "{name} must be positive, got -1/2"),
    (Fraction(0), ValueError, "{name} must be positive, got 0"),
    (Fraction(-1, 3), ValueError, "{name} must be positive, got -1/3"),
    (0.0, ValueError, "{name} must be positive, got 0"),
    (-0.5, ValueError, "{name} must be positive, got -1/2"),
    ("x", ValueError, "{name} must be rational, got 'x'"),
    ("nan", ValueError, "{name} must be rational, got 'nan'"),
    (float("nan"), ValueError, "{name} must be rational, got nan"),
    ([1], ValueError, "{name} must be rational, got [1]"),
    ("1/0", ValueError, "{name} must be rational, got '1/0'"),
    (float("inf"), ValueError, "{name} must be rational, got inf"),
])
@pytest.mark.parametrize("kind, name", [("cubic", "sigma"), ("quartic", "tau")])
def test_build_instance_refuses_as_before(kind, name, param, error, message):
    with pytest.raises(error) as info:
        build_instance(C4, kind, 3, param)
    assert str(info.value) == message.format(name=name)


# A q whose float would overflow or vanish, or whose digits str() cannot print, is refused
# before the checker converts it.
_Q_TOO_LONG = "threshold q must have a numerator and a denominator of at most 10^308 in lowest terms"


@pytest.mark.parametrize("q, error, message", [
    (0, ValueError, "threshold q must be positive, got 0"),
    ("-1/27", ValueError, "threshold q must be positive, got -1/27"),
    (Fraction(0), ValueError, "threshold q must be positive, got 0"),
    (0.0, ValueError, "threshold q must be positive, got 0"),
    ("x", ValueError, "q must be rational, got 'x'"),
    (None, ValueError, "q must be rational, got None"),
    ("1/0", ValueError, "q must be rational, got '1/0'"),
    (10**309, ValueError, _Q_TOO_LONG),
    (Fraction(1, 10**309), ValueError, _Q_TOO_LONG),
    ("-1e4300", ValueError, _Q_TOO_LONG),
])
def test_instances_refuse_q_as_before(q, error, message):
    A = build_instance(C4, "cubic", 3, 1).A
    with pytest.raises(error) as info:
        ConcordanceInstance("cubic", A, q)
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("q", "0", "ValueError: threshold q must be positive, got 0"),
    ("q", "-1/27", "ValueError: threshold q must be positive, got -1/27"),
    ("q", 0, "ValueError: threshold q must be positive, got 0"),
    ("q", -1, "ValueError: threshold q must be positive, got -1"),
    ("q", "x", "ValueError: field 'q' must be a rational p/q with q nonzero, got 'x'"),
    ("q", "1/0", "ValueError: field 'q' must be a rational p/q with q nonzero, got '1/0'"),
    ("sigma", "0", "ValueError: sigma must be positive, got 0"),
    ("sigma", "-1/2", "ValueError: sigma must be positive, got -1/2"),
    ("sigma", -1.5, "ValueError: field 'sigma' must be an integer or a p/q string, got -1.5"),
    ("sigma", "x", "ValueError: field 'sigma' must be a rational p/q with q nonzero, got 'x'"),
])
def test_instance_json_refuses_as_before(tmp_path, capsys, field, value, message):
    instance = {"kind": "cubic", "q": "1/27", "tensor": tensor_to_json_obj(build_instance(C4, "cubic", 3, 1).A)}
    instance[field] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert cli.main(["check-sc", str(path), "--mode", "oracle"]) == 3
    assert capsys.readouterr().err.strip() == f"selfconcord: error: {message}"
