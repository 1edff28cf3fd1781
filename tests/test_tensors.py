"""Symmetric tensor storage, evaluation, gradients, bounds, serialization.

The reference oracle here is the explicit full-hypermatrix summation over
all dim**order index tuples, written independently of the library's
orbit-weighted evaluation path.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from selfconcord import (
    ConcordanceInstance,
    Status,
    SymTensor,
    build_cubic_instance,
    build_cubic_tensor,
    check_sc,
    clique_number,
    eval_form,
    eval_form_batch,
    eval_form_exact,
    frobenius,
    graph_from_edges,
    grad_form,
    hess_form,
    hess_product,
    spectral_upper_bound,
    sym_from_entries,
    tensor_from_json_obj,
    tensor_from_text,
    tensor_to_json_obj,
    tensor_to_text,
    unit_witness,
)
from selfconcord import tensors
from selfconcord.tensors import MAX_DIGITS, load_json, read_integer, read_rational

from conftest import off_orbit, random_sym_tensor, random_unit_vector


def brute_force_eval(A: SymTensor, h) -> float:
    """Full dim**order summation using only the symmetry of storage."""
    total = 0.0
    for idx in product(range(1, A.dim + 1), repeat=A.order):
        value = A.entries.get(tuple(sorted(idx)))
        if value is not None:
            term = float(value)
            for i in idx:
                term *= h[i - 1]
            total += term
    return total


def brute_force_eval_exact(A: SymTensor, h) -> Fraction:
    total = Fraction(0)
    for idx in product(range(1, A.dim + 1), repeat=A.order):
        value = A.entries.get(tuple(sorted(idx)))
        if value is not None:
            term = value
            for i in idx:
                term *= h[i - 1]
            total += term
    return total


def brute_force_grad(A: SymTensor, h) -> np.ndarray:
    """order * A(., h, ..., h) by full dim**order summation."""
    g = np.zeros(A.dim)
    for idx in product(range(1, A.dim + 1), repeat=A.order):
        value = A.entries.get(tuple(sorted(idx)))
        if value is not None:
            term = A.order * float(value)
            for i in idx[1:]:
                term *= h[i - 1]
            g[idx[0] - 1] += term
    return g


def brute_force_hess(A: SymTensor, h) -> np.ndarray:
    """order * (order - 1) * A(., ., h, ..., h) by full dim**order summation."""
    H = np.zeros((A.dim, A.dim))
    for idx in product(range(1, A.dim + 1), repeat=A.order):
        value = A.entries.get(tuple(sorted(idx)))
        if value is not None:
            term = A.order * (A.order - 1) * float(value)
            for i in idx[2:]:
                term *= h[i - 1]
            H[idx[0] - 1, idx[1] - 1] += term
    return H


def dense_spectral_reference(A: SymTensor) -> float:
    """min(Frobenius, largest singular value over every full mode unfolding)."""
    full = np.zeros((A.dim,) * A.order)
    for idx in product(range(A.dim), repeat=A.order):
        value = A.entries.get(tuple(sorted(i + 1 for i in idx)))
        if value is not None:
            full[idx] = float(value)
    bound = float(np.sqrt(np.sum(full * full)))
    for mode in range(A.order):
        M = np.moveaxis(full, mode, 0).reshape(A.dim, -1)
        bound = min(bound, float(np.linalg.svd(M, compute_uv=False)[0]))
    return bound


def reference_packed(A: SymTensor):
    """The index tables the float kernels read before the packed view derived the cells
    from `idx`: (idx, weights, leave-one-out table and targets, leave-two-out table, heads, tails)."""
    keys = sorted(A.entries)
    idx = np.array(keys, dtype=np.intp).reshape(len(keys), A.order) - 1
    weights = np.array([tensors._orbit_size(key) * float(A.entries[key]) for key in keys], dtype=float)
    slots = range(A.order)
    pairs = [(s, t) for s in slots for t in slots if s < t]
    loo = np.concatenate([np.delete(idx, t, axis=1) for t in slots])
    loo_target = np.concatenate([idx[:, t] for t in slots])
    lto = np.concatenate([np.delete(idx, (s, t), axis=1) for s, t in pairs])
    head = np.concatenate([idx[:, s] for s, _ in pairs])
    tail = np.concatenate([idx[:, t] for _, t in pairs])
    return idx, weights, loo, loo_target, lto, head, tail


def reference_kernels(A: SymTensor, H: np.ndarray, V: np.ndarray) -> list[np.ndarray]:
    """eval_form at row 0, then eval_form_batch, grad_form, hess_form and the Hessian
    products with V at the rows of H, as `np.prod` / `np.multiply.reduce` computed them."""
    idx, weights, loo, loo_target, lto, head, tail = reference_packed(A)
    S, n = H.shape
    offsets = np.arange(S)[:, None]
    form = np.array(float(weights @ np.prod(H[0][idx], axis=1)))
    batch = np.prod(H[:, idx], axis=2) @ weights
    terms = np.multiply.reduce(H[:, loo], axis=2).reshape(S, A.order, weights.size) * weights
    grad = np.bincount((loo_target + n * offsets).ravel(), weights=terms.ravel(), minlength=S * n)
    pairs = A.order * (A.order - 1) // 2
    pair_terms = np.multiply.reduce(H[:, lto], axis=2).reshape(S, pairs, weights.size) * weights
    pair_terms = pair_terms.reshape(S, -1)
    T = np.bincount((head * n + tail + n * n * offsets).ravel(), weights=pair_terms.ravel(), minlength=S * n * n)
    T = T.astype(float).reshape(S, n, n)
    cols = np.concatenate([tail, head])
    rows = (np.concatenate([head, tail]) + n * offsets).ravel()
    product = np.bincount(rows, weights=(np.tile(pair_terms, 2) * V[:, cols]).ravel(), minlength=S * n)
    return [form, batch, grad.astype(float).reshape(S, n), T + T.transpose(0, 2, 1),
            product.astype(float).reshape(S, n)]


def reference_spectral_upper_bound(A: SymTensor) -> float:
    """`spectral_upper_bound` as a Python loop over every entry's distinct permutations built it."""
    bound = frobenius(A)
    if not A.entries:
        return bound
    heads, tails, values = [], [], []
    for key, value in A.entries.items():
        for perm in set(permutations(key)):
            heads.append(perm[0] - 1)
            tails.append(perm[1:])
            values.append(float(value))
    _, column = np.unique(np.array(tails), axis=0, return_inverse=True)
    column = column.ravel()
    width = int(column.max()) + 1
    if A.dim * width > tensors._SVD_LIMIT:
        return bound
    M = np.zeros((A.dim, width))
    M[heads, column] = values
    return min(bound, float(np.linalg.svd(M, compute_uv=False)[0]))


def identity_tensor(n: int) -> SymTensor:
    return sym_from_entries(2, n, [((i, i), 1) for i in range(1, n + 1)])


# ---------------------------------------------------------------------------
# Construction


def test_sym_from_entries_identity():
    A = sym_from_entries(2, 2, [((1, 1), 1), ((2, 2), 1)])
    assert A.entries == {(1, 1): Fraction(1), (2, 2): Fraction(1)}


def test_sym_from_entries_single_orbit():
    A = sym_from_entries(3, 2, [((1, 2, 2), Fraction(1, 6))])
    assert A.entries == {(1, 2, 2): Fraction(1, 6)}


def test_sym_from_entries_duplicates_summed():
    A = sym_from_entries(3, 2, [((2, 1, 2), Fraction(1, 6)), ((1, 2, 2), Fraction(1, 6))])
    assert A.entries == {(1, 2, 2): Fraction(1, 3)}


def test_sym_from_entries_drops_zero_totals():
    A = sym_from_entries(2, 2, [((1, 2), 1), ((2, 1), -1)])
    assert A.entries == {}


def test_sym_from_entries_index_out_of_range():
    with pytest.raises(ValueError):
        sym_from_entries(2, 2, [((1, 3), 1)])


def test_sym_from_entries_length_mismatch():
    with pytest.raises(ValueError):
        sym_from_entries(3, 2, [((1, 2), 1)])


def test_sym_from_entries_errors_name_the_index():
    """`SymTensor` checks the summed records, so each message names the bad index,
    also for records that cancel to zero."""
    with pytest.raises(ValueError, match=r"index \(1, 3\) out of range 1\.\.2"):
        sym_from_entries(2, 2, [((3, 1), 1)])
    with pytest.raises(ValueError, match=r"index \(1, 2\) has length 2, expected 3"):
        sym_from_entries(3, 2, [((1, 2), 1)])
    with pytest.raises(ValueError, match=r"index \(0, 3\) out of range"):
        sym_from_entries(2, 2, [((3, 0), 1), ((0, 3), -1)])


def test_symtensor_refuses_values_past_the_bound_naming_the_index():
    """A value past `MAX_VALUE` would overflow the float kernels' squares, so the
    tensor refuses it by its index; a value exactly at the bound builds and decides."""
    bound = tensors.MAX_VALUE
    for value in (bound + 1, -bound - 1, Fraction(10**200), Fraction(10**400), Fraction(2 * bound + 1, 2)):
        with pytest.raises(ValueError, match=r"^entry \(1, 2, 3\) has \|value\| above 10\^100$"):
            SymTensor(3, 3, {(1, 2, 3): value})
    for value in (bound, -bound):
        A = SymTensor(3, 1, {(1, 1, 1): value})
        assert frobenius(A) == spectral_upper_bound(A) == 1e100
        for q, status in ((Fraction(10**201), Status.SELF_CONCORDANT), (Fraction(10**199), Status.NOT_SELF_CONCORDANT)):
            assert check_sc(ConcordanceInstance("cubic", A, q), mode="relax").status is status


def test_symtensor_rejects_noncanonical_key():
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(2, 1): Fraction(1)})


def test_symtensor_rejects_bad_order():
    with pytest.raises(ValueError):
        SymTensor(5, 2, {})


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_identity_tensor_basis_vector():
    assert eval_form(identity_tensor(2), [1.0, 0.0]) == 1.0


def test_eval_zero_tensor():
    A = sym_from_entries(3, 3, [])
    assert eval_form(A, [1.0, 2.0, 3.0]) == 0.0


def test_eval_k3_cubic_at_clique_witness(k3):
    A = build_cubic_tensor(k3)
    h = unit_witness("cubic", k3, {1, 2, 3})
    value = eval_form(A, h)
    assert abs(value - 2.0 / 9.0) <= 1e-12
    assert abs(value - brute_force_eval(A, h)) <= 1e-12


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_form(identity_tensor(2), [1.0, 2.0, 3.0])


def test_eval_brute_force_equivalence_random():
    rng = np.random.default_rng(7)
    for _ in range(60):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        A = random_sym_tensor(rng, order, dim)
        h = rng.standard_normal(dim)
        assert abs(eval_form(A, h) - brute_force_eval(A, h)) <= 1e-12 * max(1.0, abs(eval_form(A, h)))


def test_eval_exact_matches_brute_force_exact():
    rng = np.random.default_rng(11)
    for _ in range(30):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        A = random_sym_tensor(rng, order, dim)
        h = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 7))) for _ in range(dim)]
        assert eval_form_exact(A, h) == brute_force_eval_exact(A, h)


def test_eval_form_batch_matches_pointwise():
    rng = np.random.default_rng(13)
    A = random_sym_tensor(rng, 3, 3)
    pts = rng.standard_normal((40, 3))
    batch = eval_form_batch(A, pts)
    for row, expected in zip(pts, batch):
        assert abs(eval_form(A, row) - expected) <= 1e-12
    empty = eval_form_batch(A, np.empty((0, 3)))
    assert empty.shape == (0,)


def test_permutation_invariance_of_raw_entries():
    rng = np.random.default_rng(17)
    for _ in range(20):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 4))
        A = random_sym_tensor(rng, order, dim)
        shuffled = []
        for key, value in A.entries.items():
            perm = tuple(rng.permutation(key))
            shuffled.append((perm, value))
        B = sym_from_entries(order, dim, shuffled)
        assert A == B


def test_odd_symmetry_order3_exact():
    rng = np.random.default_rng(19)
    for _ in range(20):
        A = random_sym_tensor(rng, 3, 3)
        h = rng.standard_normal(3)
        assert eval_form(A, -h) == -eval_form(A, h)


# ---------------------------------------------------------------------------
# Gradient


def test_grad_identity_tensor():
    g = grad_form(identity_tensor(2), [3.0, 4.0])
    assert np.allclose(g, [6.0, 8.0], atol=0)


def test_grad_zero_tensor():
    A = sym_from_entries(4, 2, [])
    assert np.all(grad_form(A, [1.0, -2.0]) == 0.0)


def test_grad_euler_identity_k3_witness(k3):
    A = build_cubic_tensor(k3)
    h = unit_witness("cubic", k3, {1, 2, 3})
    g = grad_form(A, h)
    assert abs(float(g @ h) - 3.0 * (2.0 / 9.0)) <= 1e-12


def test_grad_euler_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 5))
        A = random_sym_tensor(rng, order, dim)
        h = rng.standard_normal(dim)
        lhs = float(grad_form(A, h) @ h)
        rhs = order * eval_form(A, h)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_grad_batch_matches_rows_and_reference():
    rng = np.random.default_rng(24)
    for _ in range(40):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 6))
        A = random_sym_tensor(rng, order, dim)
        H = rng.standard_normal((6, dim))
        H[rng.random((6, dim)) < 0.4] = 0.0  # clique-derived points carry exact zeros
        H[0] = 0.0
        G = grad_form(A, H)
        assert G.shape == H.shape
        for h, g in zip(H, G):
            assert np.array_equal(g, grad_form(A, h))
            ref = brute_force_grad(A, h)
            assert np.linalg.norm(g - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
            rhs = order * eval_form(A, h)
            assert abs(float(g @ h) - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_grad_vs_central_finite_differences():
    rng = np.random.default_rng(29)
    step = 1e-5
    for _ in range(40):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(2, 5))
        A = random_sym_tensor(rng, order, dim)
        h = random_unit_vector(rng, dim)
        g = grad_form(A, h)
        fd = np.zeros(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = step
            fd[i] = (brute_force_eval(A, h + e) - brute_force_eval(A, h - e)) / (2 * step)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_hess_batch_matches_rows_and_reference():
    rng = np.random.default_rng(31)
    for order in (2, 3, 4):
        for dim in range(1, 7):
            A = random_sym_tensor(rng, order, dim)
            H = rng.standard_normal((5, dim))
            H[rng.random((5, dim)) < 0.4] = 0.0  # clique-derived points carry exact zeros
            hessians = hess_form(A, H)
            assert hessians.shape == (5, dim, dim)
            grads = grad_form(A, H)
            V = rng.standard_normal((5, dim))
            products = hess_product(A, H)(V)
            for h, E, g, v, Ev in zip(H, hessians, grads, V, products):
                assert np.array_equal(E, hess_form(A, h))
                assert np.array_equal(E, E.T)
                ref = brute_force_hess(A, h)
                assert np.linalg.norm(E - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
                assert np.linalg.norm(E @ h - (order - 1) * g) <= 1e-12 * max(1.0, np.linalg.norm(g))
                assert np.linalg.norm(Ev - E @ v) <= 1e-12 * max(1.0, np.linalg.norm(E @ v))


def kernel_cases():
    """Random tensors of orders 2-4 at dims 1-30 (order 2 has an empty leave-two-out
    product), the zero tensor, and one order-4 tensor of more than 1,000 entries."""
    rng = np.random.default_rng(2025)
    cases = [sym_from_entries(2, 3, []), sym_from_entries(4, 2, [])]
    for order in (2, 3, 4):
        for dim in (1, 2, 5, 13, 30):
            cases.append(random_sym_tensor(rng, order, dim, density=min(0.8, 60.0 / dim ** (order - 1))))
    cases.append(random_sym_tensor(rng, 4, 12, density=0.9))
    assert len(cases[-1].entries) >= 1000
    return rng, cases


def test_float_kernels_equal_the_reduce_products_bit_for_bit():
    """One column-by-column product routine serves every float kernel, and the cells that
    the products feed come from the packed index: the bits equal those of `np.prod`,
    `np.multiply.reduce` and the index tables they read."""
    rng, cases = kernel_cases()
    for A in cases:
        for count in (1, 4):
            H = rng.standard_normal((count, A.dim))
            H[:, rng.integers(A.dim)] = 0.0
            V = rng.standard_normal((count, A.dim))
            got = [np.array(eval_form(A, H[0])), eval_form_batch(A, H), grad_form(A, H), hess_form(A, H),
                   hess_product(A, H)(V)]
            for name, value, want in zip(("form", "batch", "grad", "hess", "product"), got, reference_kernels(A, H, V)):
                assert value.dtype == want.dtype and value.tobytes() == want.tobytes(), (name, A.order, A.dim, count)


def test_spectral_unfolding_equals_the_permutation_loop_bit_for_bit():
    _, cases = kernel_cases()
    for A in cases:
        assert spectral_upper_bound(A) == reference_spectral_upper_bound(A), (A.order, A.dim)


def test_spectral_width_rule_settles_the_unfolding_from_counts(monkeypatch):
    """Under limits on either side of each tensor's unfolding the bound equals the
    permutation loop's, bit for bit.  When counts settle the width the full tail
    table is built once (it fits) or never (it cannot); otherwise the tails are
    counted a chunk at a time, and one too wide is refused without the full table."""
    calls = []
    tail_codes = tensors._tail_codes
    monkeypatch.setattr(tensors, "_tail_codes", lambda idx, *args: calls.append(len(idx)) or tail_codes(idx, *args))
    _, cases = kernel_cases()
    branches = set()
    for A in (A for A in cases if A.entries):
        positions = int(A._packed.orbits.sum())
        width = int(np.unique(tail_codes(A._packed.idx, np.array(list(permutations(range(A.order)))), A.dim)).size)
        for limit in {positions - 1, A.dim * width - 1, A.dim * width, A.dim ** A.order, 10_000_000}:
            monkeypatch.setattr(tensors, "_SVD_LIMIT", limit)
            calls.clear()
            assert spectral_upper_bound(A) == reference_spectral_upper_bound(A), (A.order, A.dim, limit)
            columns = limit // A.dim
            if positions > A.dim * columns:
                branches.add("too many positions")
                assert calls == [], (A.order, A.dim, limit)
            elif min(positions, A.dim ** (A.order - 1)) <= columns:
                branches.add("few enough tails")
                assert calls == [len(A.entries)], (A.order, A.dim, limit)
            elif width > columns:
                branches.add("counted too wide")
                assert sum(calls) <= len(A.entries) and max(calls) < len(A.entries), (A.order, A.dim, limit)
            else:
                branches.add("counted to fit")
                assert sum(calls) == 2 * len(A.entries), (A.order, A.dim, limit)
    assert len(branches) == 4


def test_text_lines_split_as_splitlines_at_any_block(monkeypatch):
    """Whatever the block size, the file readers see the lines `str.splitlines`
    gives, every line break it knows included ("\\r\\n" across a block end too)."""
    text = "p edge 3 2\r\ne 1 2\r\n\n\re 2 3\x0bc x\x0c\x1c\u2028last"
    for block in (1, 2, 3, 7, 1 << 16):
        monkeypatch.setattr(tensors, "_LINE_BLOCK", block)
        for cut in (text, text + "\n", text + "\r\n", "", "\n", "\n\n"):
            assert list(tensors.text_lines(cut)) == cut.splitlines(), (block, cut)


def test_tensor_text_counts_the_records_past_the_limit_without_keeping_them(monkeypatch):
    """A tensor text refused for its entry count names every record, while only
    `MAX_ENTRIES` + 1 of them are kept: 50,000 records past a limit of 10 peak
    under 100 bytes each in tracemalloc, where keeping each one's fields took ~300."""
    monkeypatch.setattr(tensors, "MAX_ENTRIES", 10)
    count = 50_000
    text = "3 5\n" + "1 2 3 1/6\n" * count
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^tensor text holds {count} entries, above the limit of 10$"):
            tensor_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * count, peak / count


def test_hess_zero_tensor():
    A = sym_from_entries(3, 2, [])
    h = np.array([[1.0, -2.0]])
    for result in (grad_form(A, h), hess_form(A, h), hess_product(A, h)(h)):
        assert result.dtype == float
        assert np.all(result == 0.0)


# ---------------------------------------------------------------------------
# Norm bounds


def test_frobenius_zero():
    assert frobenius(sym_from_entries(3, 2, [])) == 0.0


def test_frobenius_identity():
    for n in (1, 2, 5):
        assert abs(frobenius(identity_tensor(n)) - math.sqrt(n)) <= 1e-14


def test_frobenius_k3_cubic(k3):
    # 3 edges, orbit size 6, entries 1/6: sqrt(18/36) = sqrt(1/2)
    assert abs(frobenius(build_cubic_tensor(k3)) - math.sqrt(0.5)) <= 1e-14


def test_spectral_upper_bound_zero():
    assert spectral_upper_bound(sym_from_entries(3, 2, [])) == 0.0


def test_spectral_upper_bound_diagonal_tight():
    A = sym_from_entries(3, 2, [((1, 1, 1), 1)])
    assert abs(spectral_upper_bound(A) - 1.0) <= 1e-12


def test_spectral_upper_bound_k3_cubic(k3):
    bound = spectral_upper_bound(build_cubic_tensor(k3))
    assert 2.0 / 9.0 - 1e-12 <= bound <= math.sqrt(0.5) + 1e-12


def test_spectral_upper_bound_sound_on_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        A = random_sym_tensor(rng, order, dim)
        bound = spectral_upper_bound(A)
        assert bound <= frobenius(A) + 1e-12
        # sampled values never exceed the bound
        for _ in range(50):
            h = random_unit_vector(rng, dim)
            assert abs(brute_force_eval(A, h)) <= bound + 1e-10


def test_spectral_upper_bound_matches_dense_reference():
    rng = np.random.default_rng(32)
    for order in (3, 4):
        for _ in range(15):
            A = random_sym_tensor(rng, order, int(rng.integers(1, 6)))
            ref = dense_spectral_reference(A)
            assert abs(spectral_upper_bound(A) - ref) <= 1e-12 * max(1.0, ref)


def test_spectral_upper_bound_large_cubic_gadget_undecided():
    # dim 32 + 248 = 280: the full hypermatrix would hold 22M floats.  The
    # off-orbit entry keeps the coloring rung out, so the spectral bound decides.
    rng = np.random.default_rng(280)
    pairs = [(i, j) for i in range(1, 33) for j in range(i + 1, 33)]
    chosen = rng.choice(len(pairs), 248, replace=False)
    G = graph_from_edges(32, [pairs[c] for c in chosen])
    inst = off_orbit(build_cubic_instance(G, clique_number(G) + 2, Fraction(1, 2)))
    assert inst.A.dim == 280
    assert math.isfinite(spectral_upper_bound(inst.A))
    assert check_sc(inst, mode="relax").status is Status.UNDECIDED


def test_spectral_upper_bound_falls_back_to_frobenius_above_the_svd_limit(monkeypatch, k3):
    from selfconcord import tensors

    A = build_cubic_tensor(k3)  # 6 x 18 unfolding
    svd = spectral_upper_bound(A)
    assert svd < frobenius(A)
    monkeypatch.setattr(tensors, "_SVD_LIMIT", 6 * 18)
    assert spectral_upper_bound(A) == svd
    monkeypatch.setattr(tensors, "_SVD_LIMIT", 6 * 18 - 1)
    assert spectral_upper_bound(A) == frobenius(A)


# ---------------------------------------------------------------------------
# Serialization


def test_text_round_trip_bit_exact(k3):
    A = build_cubic_tensor(k3)
    assert tensor_from_text(tensor_to_text(A)) == A


def test_text_round_trip_random():
    rng = np.random.default_rng(37)
    for _ in range(20):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 5))
        A = random_sym_tensor(rng, order, dim)
        assert tensor_from_text(tensor_to_text(A)) == A


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(41)
    for _ in range(20):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 5))
        A = random_sym_tensor(rng, order, dim)
        assert tensor_from_json_obj(tensor_to_json_obj(A)) == A


def test_text_parse_errors():
    with pytest.raises(ValueError):
        tensor_from_text("")
    with pytest.raises(ValueError):
        tensor_from_text("3\n")
    with pytest.raises(ValueError):
        tensor_from_text("2 2\n1 2\n")


def test_readers_refuse_past_the_digit_limit_by_count():
    """int() and Fraction() read MAX_DIGITS digits; one more is refused by its count, naming the field."""
    at, past = "9" * MAX_DIGITS, "9" * (MAX_DIGITS + 1)
    assert read_rational(f"-{at}/7", "v") == Fraction(-int(at), 7)
    assert load_json(f"[-{at}]") == [-int(at)]
    token = load_json(f"[-{past}]")[0]
    side = f"^v must be a rational p/q of at most {MAX_DIGITS} digits a side, got a {MAX_DIGITS + 1}-digit side$"
    for value in (past, f"1/{past}", f" -{past}/3", token):
        with pytest.raises(ValueError, match=side):
            read_rational(value, "v")
    with pytest.raises(ValueError, match=f"^i must be an integer of at most {MAX_DIGITS} digits, "
                                         f"got a {MAX_DIGITS + 1}-digit integer$"):
        read_integer(token, "i", 1, 6)


def test_reader_refuses_an_exponent_past_the_digit_limit_by_its_size():
    """Fraction() builds 10**exponent, so an exponent above MAX_DIGITS in magnitude is refused
    before it is read; decimal and exponent literals at or below the limit read as Fraction() does."""
    for value in ("1e3", "0.5", "-2.5E+3", "1_0e1_0", f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}", "3/4"):
        assert read_rational(value, "v") == Fraction(value)
    assert read_rational("1e3", "v") == 1000 and read_rational("0.5", "v") == Fraction(1, 2)
    message = f"^v must be a rational with an exponent of at most {MAX_DIGITS} in magnitude, got "
    for value, shown in ((f"1e{MAX_DIGITS + 1}", f"exponent {MAX_DIGITS + 1}"),
                         (f"2E-{MAX_DIGITS + 1}", f"exponent {MAX_DIGITS + 1}"),
                         ("1e3000000", "a 7-digit exponent"), ("1e3_000_000", "a 7-digit exponent")):
        with pytest.raises(ValueError, match=message + shown + "$"):
            read_rational(value, "v")


def test_text_reads_leading_zeros_past_the_digit_limit():
    """A token is measured with its leading zeros stripped, so 5,000 zeros before 1 read as 1."""
    zeros = "0" * 5000
    A = tensor_from_text(f"{zeros}3 {zeros}6\n1 2 {zeros}3 1/6\n")
    assert A == sym_from_entries(3, 6, [((1, 2, 3), Fraction(1, 6))])
