"""Graph parsing, complement, exact clique oracles, enumeration.

The reference oracle is brute-force subset enumeration, independent of the
branch-and-bound path in the library; the set-based search in conftest is
the reference for which maximum clique `max_clique` returns.
"""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from selfconcord import (
    Graph,
    clique_number,
    complement,
    enumerate_graphs,
    graph_from_edges,
    has_clique,
    max_clique,
    parse_dimacs,
    parse_edge_list,
    parse_graph_text,
    proper_coloring,
    stability_number,
)
from selfconcord import graphs
from selfconcord.graphs import MAX_VERTICES, _EXACT_COLORING_LIMIT

from conftest import gnm, mycielskian, reference_coloring, reference_max_clique, relax_ladder_graphs


def brute_force_clique_number(G: Graph) -> int:
    best = 1 if G.n >= 1 else 0
    for size in range(2, G.n + 1):
        for subset in combinations(range(1, G.n + 1), size):
            if all((a, b) in G.edges for a, b in combinations(subset, 2)):
                best = max(best, size)
    return best


def brute_force_chromatic_number(G: Graph) -> int:
    for r in range(1, G.n + 1):
        if any(all(c[i - 1] != c[j - 1] for i, j in G.edges) for c in product(range(r), repeat=G.n)):
            return r
    return 0


def assert_proper(G: Graph, colors) -> int:
    """The number of colors of a proper coloring that uses exactly the colors 0..r-1."""
    assert len(colors) == G.n
    assert all(colors[i - 1] != colors[j - 1] for i, j in G.edges)
    assert sorted(set(colors)) == list(range(len(set(colors))))
    return len(set(colors))


# ---------------------------------------------------------------------------
# Parsing


def test_parse_dimacs_triangle(k3):
    G = parse_dimacs("p edge 3 3\ne 1 2\ne 2 3\ne 1 3")
    assert G == k3


def test_parse_dimacs_footnote(footnote_graph):
    G = parse_dimacs("p edge 3 1\ne 1 2")
    assert G == footnote_graph


def test_parse_dimacs_orientation_canonicalized():
    G = parse_dimacs("p edge 2 1\ne 2 1")
    assert G.edges == frozenset({(1, 2)})


def test_parse_dimacs_comments_and_duplicates():
    G = parse_dimacs("c demo\np edge 3 3\ne 1 2\ne 2 1\nc mid\ne 1 3")
    assert G.edges == frozenset({(1, 2), (1, 3)})


def test_parse_dimacs_malformed_header():
    with pytest.raises(ValueError):
        parse_dimacs("p vertex 3 1\ne 1 2")
    with pytest.raises(ValueError):
        parse_dimacs("e 1 2")


def test_parse_dimacs_vertex_out_of_range():
    with pytest.raises(ValueError):
        parse_dimacs("p edge 2 1\ne 1 3")


def test_parse_dimacs_self_loop():
    with pytest.raises(ValueError):
        parse_dimacs("p edge 3 1\ne 2 2")


def test_graph_from_edges_errors_name_the_edge():
    with pytest.raises(ValueError, match=r"edge \(1, 3\) out of range for n=2"):
        graph_from_edges(2, [(3, 1)])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        graph_from_edges(3, [(2, 2)])


def test_parse_edge_list(single_edge):
    assert parse_edge_list("2 1\n1 2") == single_edge
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n1 2")


def test_parsers_refuse_vertex_counts_above_the_limit():
    assert parse_dimacs(f"p edge {MAX_VERTICES} 0").n == MAX_VERTICES
    assert parse_edge_list(f"{MAX_VERTICES} 0").n == MAX_VERTICES
    for text in (f"p edge {MAX_VERTICES + 1} 0", f"{MAX_VERTICES + 1} 0"):
        with pytest.raises(ValueError) as info:
            parse_graph_text(text)
        assert str(info.value) == f"header vertex count must be an integer in 0..{MAX_VERTICES}, got '10001'"


def test_parse_graph_text_autodetect(k3, single_edge):
    assert parse_graph_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3") == k3
    assert parse_graph_text("2 1\n2 1") == single_edge


def test_graph_files_stream_into_the_edge_set():
    """Each record goes into the edge set as it is split: K300 (44,850 edges,
    each written j i) parses as DIMACS and as an edge list to K300 with a
    tracemalloc peak under 250 bytes per edge, where a list of every record's
    fields took ~430.  A bad record still names its line, and an edge list's
    count is checked after its last record, before its edges."""
    n = 300
    pairs = list(combinations(range(1, n + 1), 2))
    body = "".join(f"{j} {i}\n" for i, j in pairs)
    cases = ((parse_dimacs, f"p edge {n} {len(pairs)}\ne " + body.replace("\n", "\ne ")[:-2]),
             (parse_edge_list, f"{n} {len(pairs)}\n{body}"))
    for parse, text in cases:
        tracemalloc.start()
        try:
            G = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G == Graph(n, frozenset(pairs))
        assert peak < 250 * len(pairs), (parse.__name__, peak / len(pairs))
    with pytest.raises(ValueError, match="^line 3: malformed edge record '1 2 3'$"):
        parse_edge_list("3 2\n1 2\n1 2 3\n")
    with pytest.raises(ValueError, match="^header declares 1 edges, found 2$"):
        parse_edge_list("3 1\n1 1\n2 3\n")


# ---------------------------------------------------------------------------
# Complement


def test_complement_k3_is_empty(k3):
    assert complement(k3).edges == frozenset()


def test_complement_footnote(footnote_graph):
    assert complement(footnote_graph).edges == frozenset({(1, 3), (2, 3)})


def test_complement_involution():
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            assert complement(complement(G)) == G


# ---------------------------------------------------------------------------
# Clique oracles


def test_clique_number_complete(k3):
    assert clique_number(k3) == 3


def test_clique_number_footnote_vs_brute_force(footnote_graph):
    assert clique_number(footnote_graph) == brute_force_clique_number(footnote_graph) == 2


def test_clique_number_c5_vs_brute_force(c5):
    assert clique_number(c5) == brute_force_clique_number(c5) == 2


def test_clique_number_exhaustive_vs_brute_force():
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            assert clique_number(G) == brute_force_clique_number(G)


def test_max_clique_is_a_clique():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
        G = graph_from_edges(n, pairs)
        C = max_clique(G)
        assert all((a, b) in G.edges for a, b in combinations(sorted(C), 2))
        assert len(C) == brute_force_clique_number(G)


def test_max_clique_returns_the_reference_clique():
    """The bitmask search walks the reference's tree, so it returns the very same
    clique (not only one of the same size) on every graph with n <= 6, on
    G(n, n(n-1)/4) up to n = 150 and on a dense G(80, 0.9)."""
    for n in range(2, 7):
        for G in enumerate_graphs(n):
            assert max_clique(G) == reference_max_clique(G), G
    rng = np.random.default_rng(80)
    dense = graph_from_edges(80, [(i, j) for i, j in combinations(range(1, 81), 2) if rng.random() < 0.9])
    for G in [gnm(n, n * (n - 1) // 4, seed=n) for n in range(10, 151)] + [dense]:
        assert max_clique(G) == reference_max_clique(G), (G.n, G.m)


def test_max_clique_of_a_complete_graph_past_the_recursion_limit():
    """The search path is one frame per clique vertex; on K1100 it is deeper
    than Python's default recursion limit of 1,000."""
    G = Graph(1100, frozenset(combinations(range(1, 1101), 2)))
    assert max_clique(G) == frozenset(range(1, 1101))


def test_stability_examples(k3, footnote_graph, c5):
    assert stability_number(k3) == 1
    assert stability_number(footnote_graph) == 2
    assert stability_number(c5) == 2


def test_stability_equals_complement_clique_exhaustive_n6():
    count = 0
    for G in enumerate_graphs(6):
        assert stability_number(G) == clique_number(complement(G))
        count += 1
    assert count == 2**15 - 1


@pytest.fixture
def fresh_colorings():
    """An empty `proper_coloring` memo, emptied again on teardown, so that no
    coloring made under a patched limit reaches a later test."""
    proper_coloring.cache_clear()
    yield
    proper_coloring.cache_clear()


def test_proper_coloring_is_minimal_up_to_the_limit(monkeypatch, fresh_colorings, c5):
    for n in range(2, 6):
        for G in enumerate_graphs(n):
            assert assert_proper(G, proper_coloring(G)) == brute_force_chromatic_number(G)
    assert proper_coloring(c5) == (0, 1, 0, 1, 2)
    grotzsch = graph_from_edges(11, [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5), (1, 7), (1, 10), (2, 6), (2, 8),
                                     (3, 7), (3, 9), (4, 8), (4, 10), (5, 6), (5, 9), (6, 11), (7, 11), (8, 11),
                                     (9, 11), (10, 11)])
    assert clique_number(grotzsch) == 2 and assert_proper(grotzsch, proper_coloring(grotzsch)) == 4
    # Above the limit the DSATUR coloring stands: still proper, not always minimal.
    monkeypatch.setattr(graphs, "_EXACT_COLORING_LIMIT", 0)
    proper_coloring.cache_clear()  # else the exact colorings above would be returned again
    for G in enumerate_graphs(5):
        assert assert_proper(G, proper_coloring(G)) >= brute_force_chromatic_number(G)
    assert assert_proper(Graph(0, frozenset()), proper_coloring(Graph(0, frozenset()))) == 0


def test_proper_coloring_matches_the_set_based_reference(fresh_colorings, c5):
    """The bitmask DSATUR and the exact phase that stops at omega return the
    reference's colors, on graphs that DSATUR colors optimally, that the exact
    phase lowers, with chi > omega (5-cycle and Mycielskians), and above
    the exact limit (DSATUR only)."""
    corpus = [Graph(n, frozenset()) for n in range(6)]
    for n in range(2, 6):
        corpus += enumerate_graphs(n)
    corpus += relax_ladder_graphs(1) + relax_ladder_graphs(5)
    grotzsch = mycielskian(c5)
    corpus += [c5, grotzsch, mycielskian(grotzsch)]
    assert _EXACT_COLORING_LIMIT == 32  # n = 6..32 run the exact phase, n = 33 and up DSATUR only
    corpus += [gnm(n, n * (n - 1) // 4, seed=n) for n in list(range(6, 41)) + [60, 100, 250]]
    for G in corpus:
        assert proper_coloring(G) == reference_coloring(G), G
    assert clique_number(mycielskian(grotzsch)) == 2 and len(set(proper_coloring(mycielskian(grotzsch)))) == 5


def test_proper_coloring_stops_at_omega(monkeypatch, fresh_colorings):
    """Graphs where DSATUR needs omega + 1 colors and chi = omega: the exact
    phase lowers the count to omega.  A stop any later would keep DSATUR's
    coloring."""
    corpus = [gnm(n, n * (n - 1) // 4, seed=n) for n in range(6, _EXACT_COLORING_LIMIT + 1)]
    exact = [proper_coloring(G) for G in corpus]
    monkeypatch.setattr(graphs, "_EXACT_COLORING_LIMIT", 0)
    proper_coloring.cache_clear()
    lowered = [
        G.n for G, colors in zip(corpus, exact)
        if assert_proper(G, proper_coloring(G)) == clique_number(G) + 1 == assert_proper(G, colors) + 1
    ]
    assert lowered == [18, 23, 24, 26, 32]


def test_has_clique_examples(k3, footnote_graph):
    assert has_clique(k3, 3)
    assert not has_clique(footnote_graph, 3)
    assert has_clique(footnote_graph, 1)
    with pytest.raises(ValueError):
        has_clique(k3, 0)


def test_has_clique_matches_clique_number():
    for n in range(2, 5):
        for G in enumerate_graphs(n):
            w = clique_number(G)
            for k in range(1, n + 1):
                assert has_clique(G, k) == (w >= k)


def test_clique_number_monotone_under_edge_addition():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.4]
        G = graph_from_edges(n, pairs)
        missing = sorted(complement(G).edges)
        if not missing:
            continue
        extra = missing[int(rng.integers(0, len(missing)))]
        G2 = Graph(n, G.edges | {extra})
        assert clique_number(G2) >= clique_number(G)


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 1
    assert sum(1 for _ in enumerate_graphs(3)) == 7
    assert sum(1 for _ in enumerate_graphs(4)) == 63


def test_enumerate_unique_and_nonempty():
    seen = set()
    for G in enumerate_graphs(3):
        assert G.m >= 1
        assert G.edges not in seen
        seen.add(G.edges)


def test_enumerate_rejects_large_n():
    with pytest.raises(ValueError):
        next(enumerate_graphs(7))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(2, frozenset({(2, 3)}))
    with pytest.raises(ValueError):
        graph_from_edges(2, [(1, 1)])
