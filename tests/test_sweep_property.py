"""Property tests: the sweep engine against the from-scratch oracle.

On generated graphs, directed and undirected, every ``run_sweep`` row
equals ``metrics_at_k`` at the same k, and the rows of the sparse grids
equal the full-grid rows they select.  Where networkx is installed, it
is an outside check of the ranking and of every count column.

hypothesis is a test-only dependency; without it the module is skipped.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from richclub import (  # noqa: E402
    Graph, KGrid, degree_order, metrics_at_k, run_sweep)


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
    U = G.to_undirected(as_view=True) if directed else G

    order = degree_order(g)
    degree = dict(G.degree)  # in + out when directed
    assert order.node_at_rank.tolist() == sorted(
        range(n), key=lambda v: (-degree[v], v))
    table = run_sweep(g, KGrid(kind="full"))
    for k in range(1, n + 1):
        club = order.node_at_rank[:k].tolist()
        row = table[k - 1]
        sub = U.subgraph(club)
        sizes = [len(c) for c in nx.connected_components(sub)]
        boundary = len(nx.node_boundary(U, club))
        assert (row.k, row.degree_at_k, row.internal_edges, row.sum_do,
                row.components, row.lcc_size) == (
            k, degree[club[-1]], sub.number_of_edges(),
            nx.cut_size(U, club), len(sizes), max(sizes)), k
        assert row.coverage == (boundary / (n - k) if k < n else None), k
        if directed:
            arcs = G.subgraph(club)
            recip = sum(arcs.has_edge(v, u) for u, v in arcs.edges)
            assert (row.internal_arcs, row.reciprocal_arcs) == (
                arcs.number_of_edges(), recip), k
            assert row.sym_ratio == (nx.reciprocity(arcs) if arcs.edges
                                     else None), k
