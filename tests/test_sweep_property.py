"""Property tests: the sweep engine against the from-scratch oracle.

On generated graphs, directed and undirected, every ``run_sweep`` row
equals ``metrics_at_k`` at the same k, and the rows of the sparse grids
equal the full-grid rows they select.

hypothesis is a test-only dependency; without it the module is skipped.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from richclub import (  # noqa: E402
    Graph, KGrid, degree_order, metrics_at_k, run_sweep)


@st.composite
def graphs(draw):
    """Random edges (self-loops included) among the first 1-30 ids,
    followed by up to 5 isolated highest ids."""
    used = draw(st.integers(1, 30))
    isolated = draw(st.integers(0, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, used - 1),
                                    st.integers(0, used - 1)),
                          max_size=3 * used))
    src = [a for a, _ in pairs]
    dst = [b for _, b in pairs]
    return Graph.from_edges(used + isolated, src, dst,
                            directed=draw(st.booleans()))


@settings(max_examples=200, deadline=None, database=None)
@given(graphs())
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
