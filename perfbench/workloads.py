"""Seeded decision plans for the three benchmark workloads.

A plan is a list of graphs and a list of decisions (graph index, gadget
kind, mode, k) in a fixed order; a worker process rebuilds the graphs from
their edge lists.  The order is the same for every seed, so the library's
caches fill the same way on every run.  The clique number of every graph is
ground truth; it is computed here, in the parent process, so the worker's
clique cache starts cold.

Random graphs are drawn as G(n, M) with M = floor(n(n-1)/4), i.e. half of
all pairs chosen uniformly.  This is G(n, 1/2) conditioned on its expected
edge count, so every seed gives the same cubic gadget dimension n + M for a
rung.  That keeps time and memory comparable across seeds, and it keeps the
known n = 32 failure (cubic dimension 280 exceeds the dense limit of the
spectral bound) present on every seed.

relax-ladder draws its graphs once, from a fixed corpus seed, and the run
seed applies a random vertex relabeling to each (and seeds the search).  A
relax decision's time follows the graph's structure: with ten fresh n = 8
graphs per seed, the mean search evaluations per decision spread 0.19
(IQR over median, eight seeds); relabeled copies of one corpus spread 0.04.
Relabeling still changes the labeled input (vertex order, the gadget's edge
coordinates, the search starts), but not its cost from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

from selfconcord import clique_number, enumerate_graphs, graph_from_edges

KINDS = ("cubic", "quartic")

# (n, graphs per rung).  A graph's three decisions per kind take about the
# same time, so decision times come in clusters, and a median that falls in
# a thinly populated stretch between clusters jumps from run to run.  The
# n = 8 rung, the cheapest, gets twenty graphs: the median then lies inside
# its 120 decisions.  The n = 24 and n = 32 rungs take about two thirds of a
# pass with one graph each.
RELAX_LADDER = ((8, 20), (12, 1), (16, 1), (24, 1), (32, 1))
RELAX_CORPUS_SEED = "relax-ladder/corpus"
# n = 300 is left out: its clique search alone takes 3.5 to 5.5 s depending
# on the graph, twice per run (ground truth and the decision), which would
# dominate both the run time and the run-to-run spread.
ORACLE_LADDER_N = (50, 100, 150, 200, 250)
SWEEP_K = (3, 4, 5, 6)


@dataclass
class Plan:
    graphs: list = field(default_factory=list)
    omegas: list = field(default_factory=list)
    decisions: list = field(default_factory=list)  # (graph index, kind, mode, k)

    def add_graph(self, G) -> int:
        self.graphs.append(G)
        self.omegas.append(clique_number(G))
        return len(self.graphs) - 1


def _half_edge_graph(n: int, rng: random.Random):
    pairs = list(combinations(range(1, n + 1), 2))
    return graph_from_edges(n, rng.sample(pairs, len(pairs) // 2))


def _relabel(G, rng: random.Random):
    perm = list(range(1, G.n + 1))
    rng.shuffle(perm)
    return graph_from_edges(G.n, ((perm[i - 1], perm[j - 1]) for i, j in G.edge_order))


def relax_ladder(seed: int) -> Plan:
    """Relax mode, both kinds, k = omega .. omega + 2, on the RELAX_LADDER
    rungs: a fixed G(n, M) corpus, each graph relabeled at random by `seed`."""
    corpus_rng = random.Random(RELAX_CORPUS_SEED)
    rng = random.Random(f"relax-ladder/{seed}")
    plan = Plan()
    for n, count in RELAX_LADDER:
        for _ in range(count):
            G = _half_edge_graph(n, corpus_rng)
            while clique_number(G) < 3:  # k = omega must be a valid target (k >= 3)
                G = _half_edge_graph(n, corpus_rng)
            g = plan.add_graph(_relabel(G, rng))
            omega = plan.omegas[g]
            for kind in KINDS:
                for k in (omega, omega + 1, omega + 2):
                    plan.decisions.append((g, kind, "relax", k))
    return plan


def small_sweep(seed: int) -> Plan:
    """Every labeled graph with 2 <= n <= 4, k = 3..6, both kinds, relax and grid.

    Grid runs only where the gadget dimension is at most 5 (the grid mode's
    own limit).  The graph set is exhaustive; the seed reaches the program
    only through OptConfig.seed.
    """
    del seed
    plan = Plan()
    for n in (2, 3, 4):
        for G in enumerate_graphs(n):
            g = plan.add_graph(G)
            for k in SWEEP_K:
                for kind in KINDS:
                    dim = G.n + G.m if kind == "cubic" else G.n
                    for mode in ("relax", "grid"):
                        if mode == "grid" and dim > 5:
                            continue
                        plan.decisions.append((g, kind, mode, k))
    return plan


def oracle_ladder(seed: int) -> Plan:
    """Oracle mode, both kinds: G(n, M) for large n at k = omega-1 .. omega+2,
    then every labeled graph with n <= 5 at k = 3..6."""
    rng = random.Random(f"oracle-ladder/{seed}")
    plan = Plan()
    for n in ORACLE_LADDER_N:
        g = plan.add_graph(_half_edge_graph(n, rng))
        omega = plan.omegas[g]
        for k in range(omega - 1, omega + 3):
            for kind in KINDS:
                plan.decisions.append((g, kind, "oracle", k))
    for n in (2, 3, 4, 5):
        for G in enumerate_graphs(n):
            g = plan.add_graph(G)
            for k in SWEEP_K:
                for kind in KINDS:
                    plan.decisions.append((g, kind, "oracle", k))
    return plan


WORKLOADS = {
    "relax-ladder": relax_ladder,
    "small-sweep": small_sweep,
    "oracle-ladder": oracle_ladder,
}


def tail_percentile(decisions_per_pass: int) -> float:
    """Highest percentile (0.1 steps) with at least ten decisions beyond it."""
    return math.floor(1000 * (1 - 10 / decisions_per_pass)) / 10
