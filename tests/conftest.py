"""Shared fixtures: canonical small graphs and random tensor generation."""

import dataclasses
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from selfconcord import Graph, SymTensor, graph_from_edges, sym_from_entries


@pytest.fixture
def k3() -> Graph:
    return graph_from_edges(3, [(1, 2), (2, 3), (1, 3)])


@pytest.fixture
def footnote_graph() -> Graph:
    """Three vertices, one edge: the counterexample graph for the demo."""
    return graph_from_edges(3, [(1, 2)])


@pytest.fixture
def single_edge() -> Graph:
    return graph_from_edges(2, [(1, 2)])


@pytest.fixture
def c5() -> Graph:
    return graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def random_sym_tensor(rng: np.random.Generator, order: int, dim: int, density: float = 0.7):
    """Random symmetric tensor with small exact-rational coefficients."""
    raw = []
    for key in combinations_with_replacement(range(1, dim + 1), order):
        if rng.random() < density:
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num:
                raw.append((key, Fraction(num, den)))
    return sym_from_entries(order, dim, raw)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    while np.linalg.norm(v) == 0.0:
        v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def off_orbit(inst):
    """`inst` with one more tensor entry, (1, ..., 1) = 1/1000, which lies on no gadget orbit.

    No support graph can be read off the result, so relax and grid decisions
    on it go past the coloring rung to the float bounds.  The provenance
    stays, so the search keeps its clique start.
    """
    A = inst.A
    return dataclasses.replace(inst, A=SymTensor(A.order, A.dim, {**A.entries, (1,) * A.order: Fraction(1, 1000)}))
