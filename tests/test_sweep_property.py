"""Property tests: the sweep engine against the from-scratch oracle.

On generated graphs, directed and undirected, every ``run_sweep`` row
equals ``metrics_at_k`` at the same k, and the rows of the sparse grids
equal the full-grid rows they select.  Where networkx is installed, it
is an outside check of the ranking and of every count column, on the
same random graphs and on the benchmark workloads' seed-1 graphs.

hypothesis is a test-only dependency; without it the module is skipped.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from richclub import (  # noqa: E402
    Graph, GeneratorConfig, KGrid, degree_order, generate, metrics_at_k,
    run_sweep, underlying_undirected)


@st.composite
def edge_lists(draw):
    """Random edges (self-loops included) among the first 1-30 ids,
    followed by up to 5 isolated highest ids: ``(n, pairs, directed)``."""
    used = draw(st.integers(1, 30))
    isolated = draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, used - 1),
                                    st.integers(0, used - 1)),
                          max_size=3 * used))
    return used + isolated, pairs, draw(st.booleans())


def from_pairs(n, pairs, directed):
    return Graph.from_edges(n, [a for a, _ in pairs], [b for _, b in pairs],
                            directed=directed)


graphs = edge_lists().map(lambda args: from_pairs(*args))


@settings(max_examples=200, deadline=None, database=None)
@given(graphs)
@example(Graph.from_edges(1, [], []))                        # n = 1
@example(Graph.from_edges(1, [], [], directed=True))
@example(Graph.from_edges(6, [], []))                        # no edges
@example(Graph.from_edges(4, [0, 1, 3], [0, 1, 3]))          # loops only
@example(Graph.from_edges(4, [2, 2], [2, 2], directed=True))
@example(Graph.from_edges(5, [2, 2, 2, 1], [0, 1, 3, 3]))    # isolated 4
@example(Graph.from_edges(6, [0, 1, 1], [1, 0, 2], directed=True))
def test_run_sweep_equals_oracle(g):
    order = degree_order(g)
    full = run_sweep(g, KGrid(kind="full"))
    assert [r.k for r in full] == list(range(1, g.n + 1))
    for row in full:
        assert row == metrics_at_k(g, order, row.k), row.k
    for grid in (KGrid(kind="root", points=7),
                 KGrid(kind="linear", points=5)):
        for row in run_sweep(g, grid):
            assert row == full[row.k - 1], (grid, row.k)


def assert_matches_networkx(G, g, table, ks):
    """Check ``g``'s ranking and the rows of ``table`` at club sizes
    ``ks`` against networkx counts on ``G``, the same graph."""
    nx = pytest.importorskip("networkx")
    n = g.n
    U = G.to_undirected(as_view=True) if g.directed else G
    order = degree_order(g)
    degree = dict(G.degree)  # in + out when directed
    assert order.node_at_rank.tolist() == sorted(
        range(n), key=lambda v: (-degree[v], v))
    at = {k: i for i, k in enumerate(table.k.tolist())}
    for k in ks:
        club = order.node_at_rank[:k].tolist()
        row = table[at[k]]
        sub = U.subgraph(club)
        sizes = [len(c) for c in nx.connected_components(sub)]
        boundary = len(nx.node_boundary(U, club))
        assert (row.k, row.degree_at_k, row.internal_edges, row.sum_do,
                row.components, row.lcc_size) == (
            k, degree[club[-1]], sub.number_of_edges(),
            nx.cut_size(U, club), len(sizes), max(sizes)), k
        assert row.coverage == (boundary / (n - k) if k < n else None), k
        if g.directed:
            arcs = G.subgraph(club)
            recip = sum(arcs.has_edge(v, u) for u, v in arcs.edges)
            assert (row.internal_arcs, row.reciprocal_arcs) == (
                arcs.number_of_edges(), recip), k
            assert row.sym_ratio == (nx.reciprocity(arcs) if arcs.edges
                                     else None), k


@settings(max_examples=150, deadline=None, database=None)
@given(edge_lists())
@example((1, [], False))
@example((6, [(0, 1), (1, 0), (2, 2), (1, 2)], True))
def test_run_sweep_matches_networkx(edges):
    nx = pytest.importorskip("networkx")
    n, pairs, directed = edges
    g = from_pairs(n, pairs, directed)
    G = (nx.DiGraph if directed else nx.Graph)()
    G.add_nodes_from(range(n))
    G.add_edges_from(pairs)
    G.remove_edges_from(list(nx.selfloop_edges(G)))
    assert_matches_networkx(G, g, run_sweep(g, KGrid(kind="full")),
                            range(1, n + 1))


@pytest.mark.parametrize("cfg, grid", [
    (GeneratorConfig.ba(100_000, 10, 1), "root"),
    (GeneratorConfig.er(100_000, 1e-4, 1, directed=True), "root"),
    (GeneratorConfig.affiliation(20_000, 1), "full"),
], ids=["ba-root", "er-directed", "affiliation-full"])
def test_run_sweep_matches_networkx_at_scale(cfg, grid):
    """The benchmark workloads' seed-1 graphs, at k = 1, floor(sqrt(n)),
    floor(sqrt(m)) and the median grid point."""
    nx = pytest.importorskip("networkx")
    g = generate(cfg)
    if cfg.model == "affiliation":
        g = g[1]
    G = (nx.DiGraph if g.directed else nx.Graph)()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(zip(*(a.tolist() for a in g.edge_arrays())))
    table = run_sweep(g, KGrid(kind=grid))
    m = underlying_undirected(g).m
    ks = [1, math.isqrt(g.n), math.isqrt(m), int(table.k[len(table) // 2])]
    assert_matches_networkx(G, g, table, ks)
