"""Shared fixtures: canonical small graphs, random tensor generation and reference clique and coloring searches."""

import dataclasses
import importlib.util
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from selfconcord import Graph, SymTensor, graph_from_edges, sym_from_entries
from selfconcord.graphs import _EXACT_COLORING_LIMIT


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
    on it go past the coloring rung to the float bounds, the search runs
    without a clique start, and oracle mode refuses it.
    """
    A = inst.A
    return dataclasses.replace(inst, A=SymTensor(A.order, A.dim, {**A.entries, (1,) * A.order: Fraction(1, 1000)}))


def adjacency(G: Graph) -> dict[int, frozenset]:
    """The neighbours of each vertex 1..n."""
    adj = {v: set() for v in range(1, G.n + 1)}
    for i, j in G.edges:
        adj[i].add(j)
        adj[j].add(i)
    return {v: frozenset(s) for v, s in adj.items()}


def reference_max_clique(G: Graph) -> frozenset:
    """The set-based branch and bound that `graphs.max_clique` replaced, kept as its reference.

    First-fit greedy coloring over the sorted candidates, then expansion
    from the last (color, vertex) down, so it returns the same clique.
    """
    adj = adjacency(G)
    best: list[int] = []

    def expand(clique: list[int], candidates: set[int]):
        nonlocal best
        if not candidates:
            if len(clique) > len(best):
                best = list(clique)
            return
        color_of: dict[int, int] = {}
        classes: list[set[int]] = []
        for v in sorted(candidates):
            for ci, cls in enumerate(classes):
                if not (adj[v] & cls):
                    cls.add(v)
                    color_of[v] = ci + 1
                    break
            else:
                classes.append({v})
                color_of[v] = len(classes)
        ordered = sorted(candidates, key=lambda v: (color_of[v], v))
        remaining = set(candidates)
        for v in reversed(ordered):
            if len(clique) + color_of[v] <= len(best):
                return
            clique.append(v)
            expand(clique, remaining & adj[v])
            clique.pop()
            remaining.discard(v)

    expand([], set(range(1, G.n + 1)))
    return frozenset(best)


def reference_coloring(G: Graph) -> tuple[int, ...]:
    """The set-based DSATUR and exact phase that `graphs.proper_coloring` replaced, kept as its reference.

    Saturation is recounted from every neighbour's color at every step, and
    the exact phase stops at a greedily found clique instead of at omega.
    The selection order and the lowest-free-color rule are those of
    `proper_coloring`, so both return the same colors.
    """
    adj = adjacency(G)
    color = [-1] * (G.n + 1)
    uncolored = set(adj)

    def most_saturated() -> int:
        return max(uncolored, key=lambda v: (len({color[u] for u in adj[v]} - {-1}), len(adj[v]), -v))

    while uncolored:
        v = most_saturated()
        taken = {color[u] for u in adj[v]}
        color[v] = next(c for c in range(G.n) if c not in taken)
        uncolored.remove(v)
    best = color[1:]
    if G.n > _EXACT_COLORING_LIMIT:
        return tuple(best)

    clique: list[int] = []
    for v in sorted(adj, key=lambda v: (-len(adj[v]), v)):
        if adj[v].issuperset(clique):
            clique.append(v)
    best_r = max(best, default=-1) + 1
    color = [-1] * (G.n + 1)
    uncolored = set(adj)

    def extend(used: int) -> bool:
        nonlocal best, best_r
        if used >= best_r:
            return False
        if not uncolored:
            best, best_r = color[1:], used
            return used <= len(clique)
        v = most_saturated()
        taken = {color[u] for u in adj[v]}
        uncolored.remove(v)
        for c in range(min(used + 1, best_r - 1)):
            if c not in taken:
                color[v] = c
                if extend(max(used, c + 1)):
                    return True
        color[v] = -1
        uncolored.add(v)
        return False

    if best_r > len(clique):
        extend(0)
    return tuple(best)


def gnm(n: int, m: int, seed: int) -> Graph:
    """A seeded G(n, M) graph: m distinct edges drawn uniformly from the n(n-1)/2 pairs."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = np.random.default_rng(seed).choice(len(pairs), size=m, replace=False)
    return graph_from_edges(n, [pairs[c] for c in chosen])


def mycielskian(G: Graph) -> Graph:
    """Mycielski's graph of G: one more color, no larger clique (omega stays 2 from C5 on).

    Vertices 1..n are G's, n + i shadows vertex i (joined to i's neighbours),
    and 2n + 1 is joined to every shadow.  From C5 it gives the Grötzsch
    graph (11 vertices, chromatic number 4), then 23 vertices with 5.
    """
    n = G.n
    edges = list(G.edges)
    for i, j in G.edges:
        edges += [(i, n + j), (j, n + i)]
    edges += [(n + i, 2 * n + 1) for i in range(1, n + 1)]
    return graph_from_edges(2 * n + 1, edges)


def relax_ladder_graphs(seed: int) -> list[Graph]:
    """The graphs of the benchmark's relax-ladder workload at `seed` (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(workloads)
    return workloads.relax_ladder(seed).graphs
