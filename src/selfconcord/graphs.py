"""Undirected simple graphs with exact clique and stability oracles.

Vertices are 1..n.  Edges are unordered pairs stored as (i, j) with i < j;
`edge_order` is the fixed lexicographic edge list that downstream
constructions use to lay out per-edge coordinates deterministically.

The clique oracle, `max_clique`, is a branch and bound with a
greedy-coloring bound on int bitmasks.  It is exponential in the worst case
and has no budget, so it is meant for desk-scale graphs (G(110, 0.9)
already takes seconds); it is the ground truth the reduction suites compare
against.
`proper_coloring` gives the upper side: a coloring with r colors shows
omega <= r, and the checkers turn it into an exact certificate.  It runs
DSATUR on int bitmasks of neighbour colors and, up to 32 vertices, an exact
phase that stops as soon as it reaches omega.

The file readers split lines with `tensors.split_text` and read every count
and vertex with `tensors.read_integer`, the one integer reader; each edge
record goes into the edge set as it is split, so no list of the records is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

from .tensors import read_integer, split_text, text_lines

__all__ = [
    "Graph",
    "graph_from_edges",
    "parse_dimacs",
    "parse_edge_list",
    "parse_graph_text",
    "complement",
    "max_clique",
    "proper_coloring",
    "clique_number",
    "max_stable_set",
    "stability_number",
    "has_clique",
    "enumerate_graphs",
]

# Largest vertex count a graph file may declare.  The count is checked
# before anything is built per vertex, so an oversized count fails at once.
# An edge count may reach MAX_VERTICES ** 2: DIMACS files may count each edge twice.
MAX_VERTICES = 10_000

# Largest vertex count that `proper_coloring` colors with the fewest colors;
# above it, the DSATUR coloring stands.
_EXACT_COLORING_LIMIT = 32

# Graphs whose clique and coloring stay memoized.  Every sweep is
# graph-major, so the graph at hand is always near the front; a deeper memo
# would only keep the graphs of finished decisions alive as its keys.
_KEPT_GRAPHS = 64


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValueError(f"edge {e!r} is not a pair")
            i, j = e
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.edges))

    def __hash__(self):
        return self._hash

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_order(self) -> tuple[tuple[int, int], ...]:
        """Lexicographic edge list e_1, ..., e_m; fixes per-edge coordinates."""
        return tuple(sorted(self.edges))


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Canonicalize orientation and drop duplicates; `Graph` rejects self-loops and out-of-range edges."""
    return Graph(n, frozenset((min(i, j), max(i, j)) for i, j in pairs))


def _read_graph(text: str, kind: str, comment: str, head_tag: str, edge_tag: str, counted: bool) -> Graph:
    """The graph of a file headed `head_tag n m` with records `edge_tag i j`, each record
    read into the edge set as it is split; a header or record of another shape, a count or
    vertex out of range and, when `counted`, m other than the number of records are refused
    (a record naming its line) before `Graph` refuses a self-loop."""
    header = f"{head_tag} n m".split()
    head, records = split_text(text, kind, " ".join(header), comment)
    if head[:-2] != header[:-2]:
        raise ValueError(f"malformed {kind} header {' '.join(head)!r}, expected {' '.join(header)!r}")
    n = read_integer(head[-2], "header vertex count", 0, MAX_VERTICES, text=True)
    m = read_integer(head[-1], "header edge count", 0, MAX_VERTICES ** 2, text=True)
    tag = edge_tag.split()

    def pairs() -> Iterator[tuple[int, ...]]:
        count = 0
        for count, (no, fields) in enumerate(records, 1):
            if fields[:-2] != tag or len(fields) != len(tag) + 2:
                raise ValueError(f"line {no}: malformed edge record {' '.join(fields)!r}")
            yield tuple(read_integer(v, f"line {no}: edge vertex", 1, n, text=True) for v in fields[-2:])
        if counted and count != m:
            raise ValueError(f"header declares {m} edges, found {count}")

    return graph_from_edges(n, pairs())


def parse_dimacs(text: str) -> Graph:
    """DIMACS subset: 'p edge n m' header, 'e i j' lines, 'c' comments.  m is
    read but not compared with the records: files count each edge once or twice."""
    return _read_graph(text, "DIMACS", "c", "p edge", "e", counted=False)


def parse_edge_list(text: str) -> Graph:
    """Plain edge list: first line 'n m', then m lines 'i j'; '#' comments."""
    return _read_graph(text, "edge-list", "#", "", "", counted=True)


def parse_graph_text(text: str) -> Graph:
    """Auto-detect DIMACS (has a 'p' header) versus plain edge list."""
    first = next((line.split() for line in text_lines(text) if line.strip() and line.lstrip()[0] not in "c#"), None)
    if first is None:
        raise ValueError("empty graph input")
    return parse_dimacs(text) if first[0] == "p" else parse_edge_list(text)


def complement(G: Graph) -> Graph:
    edges = frozenset(
        (i, j) for i, j in combinations(range(1, G.n + 1), 2) if (i, j) not in G.edges
    )
    return Graph(G.n, edges)


@lru_cache(maxsize=_KEPT_GRAPHS)
def max_clique(G: Graph) -> frozenset:
    """A maximum clique, found by branch and bound with a greedy-coloring bound.

    MCQ (Tomita and Seki, 2003) on int bitmasks, bit v for vertex v, as in
    BBMC (San Segundo et al., 2011).  Each node splits its candidates into
    color classes, built one at a time from the uncolored candidates in
    increasing order, so the color of a candidate bounds the clique it forms
    with candidates of lower colors.  Candidates are expanded from the last
    (color, vertex) down, so ties resolve the same way on every run.  The
    search keeps its path on an explicit stack, so a clique of any size stays
    clear of Python's recursion limit.
    """
    nbrs = [0] * (G.n + 1)
    for i, j in G.edges:
        nbrs[i] |= 1 << j
        nbrs[j] |= 1 << i

    def classes(candidates: int) -> list[tuple[int, int]]:
        """(vertex, color) of every candidate, by color, then vertex."""
        ordered = []
        uncolored, color = candidates, 0
        while uncolored:
            color += 1
            free = uncolored
            while free:
                low = free & -free
                v = low.bit_length() - 1
                ordered.append((v, color))
                uncolored ^= low
                free &= ~(low | nbrs[v])
        return ordered

    # One frame per node on the path: its (vertex, color) pairs not yet
    # expanded, and its candidates less the vertices already expanded.  The
    # clique holds one vertex per frame below the root.
    everyone = (1 << (G.n + 1)) - 2  # bits 1..n
    best: list[int] = []
    clique: list[int] = []
    stack = [[classes(everyone), everyone]]
    while stack:
        frame = stack[-1]
        ordered, candidates = frame
        if not ordered or len(clique) + ordered[-1][1] <= len(best):
            stack.pop()
            if stack:
                clique.pop()
            continue
        v, _ = ordered.pop()
        frame[1] = candidates ^ (1 << v)
        below = candidates & nbrs[v]
        if below:
            clique.append(v)
            stack.append([classes(below), below])
        elif len(clique) >= len(best):
            best = clique + [v]
    return frozenset(best)


@lru_cache(maxsize=_KEPT_GRAPHS)
def proper_coloring(G: Graph) -> tuple[int, ...]:
    """Colors 0..r-1 of the vertices 1..n (vertex v gets entry v-1), no edge inside a color.

    DSATUR (Brelaz, CACM 1979) colors the vertex whose neighbours already use
    the most distinct colors next (then the highest degree, then the lowest
    index), with the lowest color they leave free.  Each vertex keeps the
    colors of its colored neighbours in an int bitmask, and that order in
    one int score, both updated as each neighbour is colored, so the next
    vertex is the top score and its color the lowest clear bit.  Up to
    `_EXACT_COLORING_LIMIT` vertices, a backtracking search in the same order
    then lowers r to the chromatic number: it tries only colorings with fewer
    colors than the best so far, and stops once r reaches the clique number
    omega(G) <= chi(G) (`max_clique`, memoized, so a gadget's support graph
    finds the clique its search already started from).  Like `max_clique`,
    it is exponential in the worst case, and memoized by graph.
    """
    n = G.n
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in G.edges:
        adj[i].append(j)
        adj[j].append(i)
    # Saturation, then degree, then the lower index, in one int: a vertex's
    # rank is below `unit`, so one more neighbour color outweighs any rank.
    rank = {v: len(nbrs) * (n + 1) + n - v for v, nbrs in adj.items()}
    unit = (n + 1) ** 2
    color = [-1] * (n + 1)
    near = [0] * (n + 1)  # bit c of near[v]: a colored neighbour of v has color c
    score = dict(rank)  # of each uncolored vertex: its saturation * unit + its rank

    def paint(v: int, c: int) -> list[int]:
        """Color v with c; the neighbours that had no neighbour of color c yet."""
        color[v] = c
        bit = 1 << c
        fresh = [u for u in adj[v] if not near[u] & bit]
        for u in fresh:
            near[u] |= bit
            if u in score:
                score[u] += unit
        return fresh

    while score:
        v = max(score, key=score.__getitem__)
        del score[v]
        taken = near[v]
        paint(v, ((taken + 1) & ~taken).bit_length() - 1)  # the lowest bit clear in `taken`
    best = color[1:]
    if n > _EXACT_COLORING_LIMIT:
        return tuple(best)

    omega = len(max_clique(G))
    best_r = max(best, default=-1) + 1
    color = [-1] * (n + 1)
    near = [0] * (n + 1)
    score = dict(rank)

    def extend(used: int) -> bool:
        """Color the rest with fewer than best_r colors; True once best_r meets omega."""
        nonlocal best, best_r
        if used >= best_r:  # a better coloring turned up after this branch began
            return False
        if not score:
            best, best_r = color[1:], used
            return used <= omega
        v = max(score, key=score.__getitem__)
        own = score.pop(v)
        taken = near[v]
        for c in range(min(used + 1, best_r - 1)):
            if not taken >> c & 1:
                fresh = paint(v, c)
                if extend(max(used, c + 1)):
                    return True
                bit = 1 << c
                for u in fresh:
                    near[u] ^= bit
                    if u in score:
                        score[u] -= unit
        color[v] = -1
        score[v] = own
        return False

    if best_r > omega:
        extend(0)
    return tuple(best)


def clique_number(G: Graph) -> int:
    return len(max_clique(G))


def max_stable_set(G: Graph) -> frozenset:
    return max_clique(complement(G))


def stability_number(G: Graph) -> int:
    return len(max_stable_set(G))


def has_clique(G: Graph, k: int) -> bool:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return clique_number(G) >= k


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices with at least one edge.

    Exhaustive over edge subsets (2^(n choose 2) - 1 graphs), so capped at
    n <= 6.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 for a graph with an edge, got {n}")
    if n > 6:
        raise ValueError(f"exhaustive enumeration capped at n <= 6, got {n}")
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1, 1 << len(pairs)):
        edges = frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)
        yield Graph(n, edges)
