"""Symmetric hypermatrices with exact rational coefficients.

Storage is orbit-canonical and sparse: a tensor of order d and dimension n
keeps one entry per index orbit, keyed by the nondecreasing multi-index,
holding the coefficient shared by every permutation of that index.  The
induced homogeneous form

    A(h, ..., h) = sum over all n^d tuples of a_{i1...id} * h_{i1} * ... * h_{id}

is evaluated over canonical entries alone, each weighted by the size of its
orbit (a multinomial count).

Coefficients are `fractions.Fraction` values.  Evaluation comes in two
flavours: floating point (`eval_form`, `grad_form`, `hess_form`) for
optimization loops, and exact rational (`eval_form_exact`) for certificate
checks that must not incur rounding.  The exact evaluation runs on Python
ints: the coefficients over one common denominator (kept per tensor) and h
over another (`exact_numerators`), so a value costs integer products and
one `Fraction` at the end.

Every integer and rational of a tensor, graph or instance file is read by
`read_integer` or `read_rational`, which name the field they refuse; JSON
text goes through `load_json`, which leaves an over-long integer to them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, permutations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "SymTensor",
    "sym_from_entries",
    "eval_form",
    "eval_form_batch",
    "eval_form_exact",
    "exact_numerators",
    "grad_form",
    "hess_form",
    "hess_product",
    "frobenius",
    "spectral_upper_bound",
    "tensor_to_text",
    "tensor_from_text",
    "tensor_to_json_obj",
    "tensor_from_json_obj",
    "load_json",
]

# Largest dim a tensor file or JSON object may declare, checked before any
# entry is parsed.  Above `optimize._DENSE_LIMIT` a default search (8 random
# starts and a clique start) keeps about fifteen (starts x dim) float arrays
# live in its truncated-CG steps: a relax decision with 8 starts peaked at
# ~1.07 KB per coordinate at dim 10^5, at order 3 and at order 4 (5,000
# random entries; tracemalloc), so ~1.1 GB at this cap.  The cubic gadget of
# a 250-vertex half-edge graph has dim 15,812.
MAX_DIM = 1_000_000

# Most starts a search may run (`OptConfig.starts`, the CLI's --starts),
# checked before any start is drawn.  A search keeps per start one seed
# sequence, its (dim,) rows and, on the dense path, a (dim + 1)^2 bordered
# system and its copies: a cubic gadget at dim `optimize._DENSE_LIMIT` = 60
# peaked at ~92 KB per start (tracemalloc, 64 to 512 starts), so ~0.9 GB at
# this cap.  The CLI's default is 8 random starts and a clique start.
MAX_STARTS = 10_000

# Largest starts x entries product of a search, checked before any start is
# drawn: a search keeps ~200-250 bytes per start per entry (tracemalloc, 8 to
# 64 starts on 5,000 order-4 entries at dim 80 and 2,000 order-3 entries at
# dim 400), so ~1 GB at this cap, which 9 starts on `MAX_ENTRIES` fit.
MAX_START_ENTRIES = 4_000_000

# Largest number of entry records a tensor file or JSON object may hold,
# checked before any record is converted.  A relax decision with the default
# 8 starts peaked at ~3.7 KB per entry on a random order-4 tensor with 50,000
# entries at dim 80 (~2.3 KB at dim 40; ~1.9 KB at order 3, dim 80;
# tracemalloc, parsing excluded), so ~0.9 GB at this cap.  The cubic gadget
# of a 250-vertex half-edge graph has 15,562.
MAX_ENTRIES = 250_000

# Largest |value| of a tensor entry, checked as the tensor is built: the float
# kernels square values (`frobenius`, the squared bounds compared with q), which
# overflows past ~10^154; at 10^100 the squares stay below ~10^207 at the caps.
MAX_VALUE = 10**100

# Most digits an integer, or a side of a rational, may hold: Python's int()
# and Fraction() refuse longer decimal strings by default, naming no field.
MAX_DIGITS = 4300

# Largest unfolding, in floats (80 MB), that `spectral_upper_bound` builds and
# decomposes.  The cubic gadget of a 32-vertex graph with 248 edges unfolds
# to 280 x 1,488; that of a 250-vertex graph with 15,562 edges would unfold
# to 15,812 x 93,372 (11.8 GB).
_SVD_LIMIT = 10_000_000


class _Packed(NamedTuple):
    """Float view of a tensor's entries; see `SymTensor._packed`."""

    idx: np.ndarray
    values: np.ndarray
    orbits: np.ndarray
    weights: np.ndarray
    loo: np.ndarray
    lto: np.ndarray


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction or isinstance(value, Fraction):  # the first test skips the ABC check
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _orbit_size(key: tuple[int, ...]) -> int:
    """Number of distinct permutations of a sorted multi-index."""
    count = math.factorial(len(key))
    for i in set(key):
        count //= math.factorial(key.count(i))
    return count


@dataclass(frozen=True)
class SymTensor:
    """Symmetric hypermatrix of order 2, 3 or 4 over R^dim.

    `entries` maps each canonical (sorted, 1-based) multi-index to the
    coefficient shared by all of its permutations.  Instances are immutable
    after construction and safe to share across workers.
    """

    order: int
    dim: int
    entries: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        if self.order not in (2, 3, 4):
            raise ValueError(f"order must be 2, 3 or 4, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for key, value in self.entries.items():
            key = tuple(key)
            if len(key) != self.order:
                raise ValueError(f"index {key} has length {len(key)}, expected {self.order}")
            if any(i < 1 or i > self.dim for i in key):
                raise ValueError(f"index {key} out of range 1..{self.dim}")
            if tuple(sorted(key)) != key:
                raise ValueError(f"index {key} is not canonical (nondecreasing)")
            value = _as_fraction(value)
            if abs(value) > MAX_VALUE:
                raise ValueError(f"entry {key} has |value| above 10^100")
            if value != 0:
                clean[key] = value
        # Read-only: `reduction` hands one memoized gadget tensor to every caller.
        object.__setattr__(self, "entries", MappingProxyType(clean))

    @cached_property
    def _packed(self) -> _Packed:
        """The one float view of the canonical entries that every float kernel reads, built once per tensor.

        `idx` (K x order, 0-based) holds the sorted keys, `values` their
        coefficients, `orbits` their orbit sizes and `weights` orbit size
        times value.  `loo` holds, for every slot t and entry k (row t*K + k),
        the entry's indices with slot t left out, and `lto` the same for
        every pair of slots s < t.
        """
        keys = sorted(self.entries)
        idx = np.array(keys, dtype=np.intp).reshape(len(keys), self.order) - 1
        values = np.array([float(self.entries[key]) for key in keys], dtype=float)
        orbits = np.array([_orbit_size(key) for key in keys], dtype=np.int64)
        slots = range(self.order)
        loo = np.concatenate([np.delete(idx, t, axis=1) for t in slots])
        lto = np.concatenate([np.delete(idx, pair, axis=1) for pair in combinations(slots, 2)])
        return _Packed(idx, values, orbits, orbits * values, loo, lto)

    @cached_property
    def _exact(self) -> tuple[int, tuple[int, ...]]:
        """(E, weights): the orbit-weighted coefficients as integers over one
        common denominator E, built once per tensor, in the order of `entries`:
        E * orbit size * value for each entry."""
        E = math.lcm(*(value.denominator for value in self.entries.values()))
        return E, tuple(_orbit_size(key) * value.numerator * (E // value.denominator)
                        for key, value in self.entries.items())

    @cached_property
    def _frobenius(self) -> float:
        """See `frobenius`; the sum of orbit size * value^2 runs in integers over E^2,
        with one correctly rounded division at the end.  E is computed here, not
        read from `_exact`, so a search does not build the weight table."""
        E = math.lcm(*(value.denominator for value in self.entries.values()))
        total = sum(_orbit_size(key) * (value.numerator * (E // value.denominator)) ** 2
                    for key, value in self.entries.items())
        return math.sqrt(total / (E * E))

    @cached_property
    def _analyses(self) -> dict:
        """What `concordance` computes once per tensor object, read in place; it dies with the tensor."""
        return {}

    @cached_property
    def _scatter(self) -> dict:
        """Row-offset scatter indices of the batched kernels, one array per kernel; they die with the tensor."""
        return {}

    def __reduce__(self):
        # The read-only view does not pickle; rebuild from a plain dict (no cached view or analysis).
        return (SymTensor, (self.order, self.dim, dict(self.entries)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (self.order, self.dim, self.entries) == (other.order, other.dim, other.entries)

    @cached_property
    def _hash(self) -> int:
        return hash((self.order, self.dim, tuple(sorted(self.entries.items()))))

    def __hash__(self):
        return self._hash


def sym_from_entries(order: int, dim: int, raw_entries: Iterable[tuple[Sequence[int], object]]) -> SymTensor:
    """Build a symmetric tensor from raw (index, coefficient) records.

    Indices may arrive in any permutation; records whose sorted indices
    coincide are summed.  Zero totals are dropped, so the result is always
    in canonical form.  `SymTensor` rejects indices of the wrong length or
    out of range.
    """
    acc: dict[tuple[int, ...], Fraction] = {}
    for key, value in raw_entries:
        canon = tuple(sorted(key))
        value = _as_fraction(value)
        acc[canon] = acc[canon] + value if canon in acc else value
    return SymTensor(order, dim, acc)


def _check_dim(A: SymTensor, length: int):
    if length != A.dim:
        raise ValueError(f"vector of dim {length} does not match tensor dim {A.dim}")


def _products(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(S x R) products: per row of `rows`, its coordinates at each row of the index `table`
    (R x w) multiplied column by column, left to right, which gives `np.prod`'s bits
    faster than a reduce over a 2- or 3-long axis; a table with no columns gives ones."""
    if table.shape[1] == 0:
        return np.ones((rows.shape[0], table.shape[0]))
    out = rows[:, table[:, 0]]
    for column in range(1, table.shape[1]):
        out *= rows[:, table[:, column]]
    return out


def eval_form(A: SymTensor, h) -> float:
    """Floating-point value of the homogeneous form A(h, ..., h): one row of `eval_form_batch`."""
    return float(eval_form_batch(A, np.reshape(h, (1, -1)))[0])


def eval_form_batch(A: SymTensor, points: np.ndarray) -> np.ndarray:
    """Form values at many points at once; `points` has shape (N, dim)."""
    points = np.asarray(points, dtype=float)
    _check_dim(A, points.shape[1])
    return _products(points, A._packed.idx) @ A._packed.weights


def exact_numerators(h: Sequence) -> tuple[list[int], int]:
    """(x, D): rational h on one common denominator, h_i = x_i / D with x_i and D integers.

    D is the least common multiple of the denominators; a rationalized
    search witness already shares one (2^64 or a divisor of it).
    """
    hq = [_as_fraction(v) for v in h]
    D = math.lcm(*(v.denominator for v in hq))
    return [v.numerator * (D // v.denominator) for v in hq], D


def eval_form_exact(A: SymTensor, h: Sequence) -> Fraction:
    """Exact rational value of A(h, ..., h) for rational h, computed in integers.

    With h = x / D (`exact_numerators`) and the orbit-weighted coefficients
    w / E (one common denominator per tensor), A(h, ..., h) is
    sum over entries of w * x_i1 * ... * x_id, over E * D^order: integer
    products and sums, and one `Fraction`, normalized once, at the end.
    """
    _check_dim(A, len(h))
    x, D = exact_numerators(h)
    x.insert(0, 0)  # 1-based, as the keys
    E, weights = A._exact
    total = 0
    for w, key in zip(weights, A.entries):
        for i in key:
            w *= x[i]
        total += w
    return Fraction(total, E * D ** A.order)


def _row_offsets(A: SymTensor, kernel: str, count: int, stride: int, first) -> np.ndarray:
    """(first() + stride * arange(count)[:, None]).ravel(): a kernel's scatter indices for
    `count` rows, where `first()` gives those of row 0.

    One array per kernel is kept on the tensor, built for the largest row
    count seen so far; fewer rows read its prefix.
    """
    width, offsets = A._scatter.get(kernel, (0, None))
    if offsets is None or offsets.size < count * width:
        base = first()
        width, offsets = A._scatter[kernel] = base.size, (base + stride * np.arange(count)[:, None]).ravel()
    return offsets[: count * width]


def _pair_slots(A: SymTensor) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `lto`, the entry's indices at the slots s < t it leaves out: the row and
    column of the Hessian entry its product feeds (and, mirrored, the column and row)."""
    s, t = np.triu_indices(A.order, 1)  # the pairs of `lto`, in its order
    return A._packed.idx[:, s].T.ravel(), A._packed.idx[:, t].T.ravel()


def grad_form(A: SymTensor, h) -> np.ndarray:
    """Gradient of h -> A(h, ..., h), i.e. order * A(h, ..., h, .).

    `h` is one point of shape (dim,) or a batch of shape (S, dim); the
    result has the same shape.  Each row satisfies the Euler identity
    <grad, h> = order * A(h, ..., h).  Products are taken over the other
    slots directly (no division), so exact zeros in `h` are safe.
    """
    h = np.asarray(h, dtype=float)
    _check_dim(A, h.shape[-1])
    packed = A._packed
    rows = h.reshape(-1, A.dim)
    count = rows.shape[0]
    terms = _products(rows, packed.loo).reshape(count, A.order, packed.weights.size)
    terms *= packed.weights
    targets = _row_offsets(A, "grad", count, A.dim, lambda: packed.idx.T.ravel())
    g = np.bincount(targets, weights=terms.ravel(), minlength=count * A.dim)
    return g.astype(float, copy=False).reshape(h.shape)  # bincount gives ints when there are no entries


def _hess_terms(A: SymTensor, rows: np.ndarray) -> np.ndarray:
    """Weighted leave-two-out products, one row per point (S x pairs*K)."""
    packed = A._packed
    pairs = A.order * (A.order - 1) // 2
    terms = _products(rows, packed.lto).reshape(rows.shape[0], pairs, packed.weights.size)
    terms *= packed.weights
    return terms.reshape(rows.shape[0], -1)


def hess_form(A: SymTensor, h) -> np.ndarray:
    """Hessian of h -> A(h, ..., h), i.e. order * (order - 1) * A(h, ..., h, ., .).

    `h` is one point of shape (dim,) or a batch of shape (S, dim); the
    result has shape (dim, dim) or (S, dim, dim).  Each Hessian is
    symmetric and satisfies H h = (order - 1) * grad_form(A, h).  As in
    `grad_form`, products are taken over the other slots directly, so
    exact zeros in `h` are safe.  The pairs s < t of slots fill a matrix T,
    and H = T + T^T, which is symmetric bit for bit.
    """
    h = np.asarray(h, dtype=float)
    _check_dim(A, h.shape[-1])
    rows = h.reshape(-1, A.dim)
    count = rows.shape[0]
    cells = _row_offsets(A, "hess", count, A.dim * A.dim, lambda: np.ravel_multi_index(_pair_slots(A), (A.dim, A.dim)))
    T = np.bincount(cells, weights=_hess_terms(A, rows).ravel(), minlength=count * A.dim * A.dim)
    T = T.astype(float, copy=False).reshape(count, A.dim, A.dim)
    return (T + T.transpose(0, 2, 1)).reshape(h.shape + (A.dim,))


def hess_product(A: SymTensor, h):
    """The map V -> (Hessian at h) V, row by row, without forming the Hessians.

    `h` has shape (S, dim); the returned function takes an (S, dim) array V
    and gives the S products, equal to `hess_form(A, h) @ v` for each row.
    The leave-two-out products are computed once, so a product costs one
    gather and one scatter over the entries.
    """
    h = np.asarray(h, dtype=float)
    _check_dim(A, h.shape[-1])
    count = h.shape[0]
    terms = np.tile(_hess_terms(A, h), 2)
    rows = _row_offsets(A, "product", count, A.dim, lambda: np.concatenate(_pair_slots(A)))
    cols = np.concatenate(_pair_slots(A)[::-1])  # tails, then heads

    def product(V: np.ndarray) -> np.ndarray:
        out = np.bincount(rows, weights=(terms * V[:, cols]).ravel(), minlength=count * A.dim)
        return out.astype(float, copy=False).reshape(count, A.dim)

    return product


def frobenius(A: SymTensor) -> float:
    """Frobenius norm over the full hypermatrix (orbit value^2 times orbit size), computed once per tensor."""
    return A._frobenius


def _tail_codes(idx: np.ndarray, slots: np.ndarray, dim: int) -> np.ndarray:
    """Entry x permutation: the tail (i2, ..., id) of each row of `idx` under each
    permutation of the slots, as one integer in base dim (so in lexicographic order)."""
    tails = np.zeros((idx.shape[0], slots.shape[0]), dtype=np.int64)  # < MAX_DIM^3 = 10^18
    for slot in slots.T[1:]:
        tails *= dim
        tails += idx[:, slot]
    return tails


def _unfolding_fits(A: SymTensor, slots: np.ndarray) -> bool:
    """Whether dim times the unfolding's nonzero columns stays within `_SVD_LIMIT`.

    Counts settle it where they can: M holds one nonzero per position of the
    hypermatrix (the sum of the orbit sizes), at most dim per column, and has
    at most dim^(order-1) columns.  Otherwise the distinct tails are counted
    a chunk of entries at a time, until they pass the limit or run out.
    """
    columns = _SVD_LIMIT // A.dim  # the most columns M may have
    positions = int(A._packed.orbits.sum())
    if positions > A.dim * columns:
        return False
    if min(positions, A.dim ** (A.order - 1)) <= columns:
        return True
    idx = A._packed.idx
    step = max(1, columns // slots.shape[0])
    seen = np.empty(0, dtype=np.int64)  # the distinct tails so far, sorted (a sort outruns `np.unique` here)
    for start in range(0, idx.shape[0], step):
        seen = np.concatenate((seen, _tail_codes(idx[start:start + step], slots, A.dim).ravel()))
        seen.sort()
        seen = seen[np.diff(seen, prepend=-1) != 0]
        if seen.size > columns:
            return False
    return True


def spectral_upper_bound(A: SymTensor) -> float:
    """Sound upper bound on max over unit h of |A(h, ..., h)|.

    Minimum of the Frobenius norm and the largest singular value of the
    mode-0 unfolding M, with A(h1, ..., hd) = h1^T M (h2 x ... x hd).  The
    Kronecker factor is a unit vector, so sigma_max(M) bounds the
    multilinear maximum, which the single-argument maximum cannot exceed.
    Every mode unfolding of a symmetric tensor is M with its columns
    permuted, so one SVD serves all modes.  Only the nonzero columns of M
    are built: one per distinct tail (i2, ..., id) of a permuted entry,
    which leaves the singular values unchanged and never materializes
    dim ** order floats: each tail of each entry under each permutation of
    the slots is one integer (`_tail_codes`), and `np.unique` numbers them.
    When M would exceed `_SVD_LIMIT` floats (`_unfolding_fits`, decided
    before the full tail table is built), the bound is the Frobenius norm
    alone, which is still sound.
    """
    bound = frobenius(A)
    if not A.entries:
        return bound
    slots = np.array(list(permutations(range(A.order))))  # order! x order
    if not _unfolding_fits(A, slots):
        return bound
    idx = A._packed.idx
    codes, column = np.unique(_tail_codes(idx, slots, A.dim), return_inverse=True)
    M = np.zeros((A.dim, codes.size))
    M[idx[:, slots[:, 0]].ravel(), column.ravel()] = np.repeat(A._packed.values, slots.shape[0])
    sigma = float(np.linalg.svd(M, compute_uv=False)[0])
    return min(bound, sigma)


# ---------------------------------------------------------------------------
# Serialization: line-oriented text and JSON, bit-exact round trip.
# Text: header "order dim", then one record per canonical entry of the form
# "i1 ... id p/q" with 1-based indices.


def tensor_to_text(A: SymTensor) -> str:
    lines = [f"{A.order} {A.dim}"]
    for key in sorted(A.entries):
        lines.append(" ".join(str(i) for i in key) + " " + str(A.entries[key]))
    return "\n".join(lines) + "\n"


class _LongInteger(str):
    """A JSON integer of more than MAX_DIGITS digits, kept as its token for the
    reader of its field to refuse; it is echoed by its count, not its digits."""

    def __repr__(self):
        return f"a {len(self.lstrip('-'))}-digit integer"


def load_json(text: str):
    """json.loads, except that an integer of more than MAX_DIGITS digits stays a
    token, which `read_integer` and `read_rational` refuse by count naming its field."""
    return json.loads(text, parse_int=lambda t: _LongInteger(t) if len(t.lstrip("-")) > MAX_DIGITS else int(t))


def read_integer(value, name: str, low=-math.inf, high=math.inf, text: bool = False) -> int:
    """The integer of field `name` in low..high: a JSON int or, with `text`, a decimal token.

    A bool, a float, a JSON string, a token that is no decimal and an integer
    out of range are refused naming the field.  A token with more digits than
    the finite `high`, leading zeros aside, and a JSON integer of more than
    MAX_DIGITS digits are refused by their count before `int()` reads them.
    """
    if type(value) is _LongInteger:
        raise ValueError(f"{name} must be an integer of at most {MAX_DIGITS} digits, got {value!r}")
    if text and type(value) is str and value.isdecimal():
        digits = value.lstrip("0")
        if len(digits) > len(str(high)):
            raise ValueError(f"{name} must be an integer in {low}..{high}, got a {len(digits)}-digit integer")
        number = int(digits or "0")
    elif type(value) is int:  # a bool would otherwise pass as 0 or 1, and int() would truncate a float
        number = value
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= number <= high:
        raise ValueError(f"{name} must be an integer in {low}..{high}, got {value!r}")
    return number


def read_rational(value, name: str) -> Fraction:
    """The rational of field `name`: an integer, or a "p/q" string of JSON or text;
    a bool, a float, an invalid literal or a zero denominator is refused, naming the
    field.  A side of more than MAX_DIGITS digits, and a decimal exponent above
    MAX_DIGITS in magnitude (`Fraction()` would build 10**exponent), are refused
    by their count before `Fraction()` reads them."""
    if isinstance(value, str):  # a string, a text token or a `_LongInteger`
        longest = max(len(side.strip().lstrip("+-")) for side in value.split("/"))
        if longest > MAX_DIGITS:
            raise ValueError(f"{name} must be a rational p/q of at most {MAX_DIGITS} digits a side, "
                             f"got a {longest}-digit side")
        _, mark, exponent = value.upper().rpartition("E")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if mark and digits.isdecimal() and (len(digits) > len(str(MAX_DIGITS)) or int(digits) > MAX_DIGITS):
            shown = f"a {len(digits)}-digit exponent" if len(digits) > len(str(MAX_DIGITS)) else f"exponent {digits}"
            raise ValueError(f"{name} must be a rational with an exponent of at most {MAX_DIGITS} in magnitude, "
                             f"got {shown}")
    if type(value) not in (int, str):
        raise ValueError(f"{name} must be an integer or a p/q string, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a rational p/q with q nonzero, got {value!r}") from None


def json_field(obj: dict, key: str, prefix: str = ""):
    """obj[key]; a missing key is refused naming the field `prefix + key`."""
    if key not in obj:
        raise ValueError(f"field '{prefix}{key}' is missing")
    return obj[key]


# Characters per block that `text_lines` splits at a time.
_LINE_BLOCK = 1 << 16


def text_lines(text: str) -> Iterator[str]:
    """The lines of `text` as `str.splitlines` gives them, split a block at a time, so that
    no list of every line is built.  A block ends just after a newline, where every line
    break of splitlines' ends too ("\\r\\n" included)."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_BLOCK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def split_text(text: str, kind: str, header: str, comment: str = "#") -> tuple[list[str], Iterator[tuple[int, list]]]:
    """(header fields, iterator of (line number, fields)) of a `kind` file, blank and `comment`
    lines skipped, each line split only when the iterator reaches it; an empty file and a
    header of another field count than `header` are refused at once."""
    records = ((no, fields) for no, fields in enumerate(map(str.split, text_lines(text)), 1)
               if fields and not fields[0].startswith(comment))
    _, head = next(records, (0, None))
    if head is None:
        raise ValueError(f"empty {kind} input")
    if len(head) != len(header.split()):
        raise ValueError(f"malformed {kind} header {' '.join(head)!r}, expected {header!r}")
    return head, records


def check_entry_count(count: int, source: str, unit: str = "entries"):
    """Refuse a tensor file or entry list, a gadget or a complement of more than `MAX_ENTRIES` `unit`s."""
    if count > MAX_ENTRIES:
        raise ValueError(f"{source} holds {count} {unit}, above the limit of {MAX_ENTRIES}")


def tensor_from_text(text: str) -> SymTensor:
    """The tensor of a text file; a record of another shape, an index that is not `order`
    integers in 1..dim and a value that is not a rational are refused naming the line."""
    head, lines = split_text(text, "tensor", "order dim")
    order = read_integer(head[0], "header order", 2, 4, text=True)
    dim = read_integer(head[1], "header dim", 1, MAX_DIM, text=True)
    records = list(islice(lines, MAX_ENTRIES + 1))  # the records past the limit are counted, not kept
    check_entry_count(len(records) + sum(1 for _ in lines), "tensor text")
    raw = []
    for no, fields in records:
        *index, value = fields
        if len(index) != order:
            raise ValueError(f"line {no}: malformed tensor record {' '.join(fields)!r}")
        key = tuple(read_integer(i, f"line {no}: index", 1, dim, text=True) for i in index)
        raw.append((key, read_rational(value, f"line {no}: value")))
    return sym_from_entries(order, dim, raw)


def tensor_to_json_obj(A: SymTensor) -> dict:
    return {
        "order": A.order,
        "dim": A.dim,
        "entries": [[list(key), str(A.entries[key])] for key in sorted(A.entries)],
    }


def tensor_from_json_obj(obj: dict, field: str = "") -> SymTensor:
    """The tensor of a JSON object; `field` ("tensor." in instance JSON) prefixes the
    field names in the refusal of a missing field, of a bool or a float where an
    integer or a rational belongs, of an entry list or entry of another shape, of an
    index of the wrong length or out of 1..dim, and of an oversized dim or entry list."""
    order = read_integer(json_field(obj, "order", field), f"field '{field}order'", 2, 4)
    dim = read_integer(json_field(obj, "dim", field), f"field '{field}dim'", 1, MAX_DIM)
    entries = json_field(obj, "entries", field)
    if type(entries) is not list:
        raise ValueError(f"field '{field}entries' must be a list, got {type(entries).__name__}")
    check_entry_count(len(entries), f"field '{field}entries'")
    raw = []
    for n, entry in enumerate(entries):
        name = f"field '{field}entries[{n}]'"
        if not (type(entry) is list and len(entry) == 2 and type(entry[0]) is list):
            raise ValueError(f"{name} must be a pair [index list, value]")
        if len(entry[0]) != order:
            raise ValueError(f"{name} index must hold {order} integers, got {entry[0]}")
        key = tuple(read_integer(i, f"{name} index", 1, dim) for i in entry[0])
        raw.append((key, read_rational(entry[1], f"{name} value")))
    return sym_from_entries(order, dim, raw)
