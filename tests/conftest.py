"""Shared reference builders and graph factories for the test suite.

The reference builders here are deliberately naive (hash sets, double
loops, full scans) so they stay independent of the package's sorting
and vectorized code paths.
"""

import numpy as np
import pytest

from richclub import Graph, GeneratorConfig, generate_ba, generate_er


class NaiveGraph:
    """Hash-set-of-pairs reference for edge-list normalization."""

    def __init__(self, lines, directed=False):
        self.ids = {}
        self.edges = set()
        for raw in lines:
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            a, b = (int(t) for t in s.split())
            u = self.ids.setdefault(a, len(self.ids))
            v = self.ids.setdefault(b, len(self.ids))
            if u == v:
                continue
            self.edges.add((u, v) if directed else (min(u, v), max(u, v)))
        self.n = len(self.ids)
        self.m = len(self.edges)


def edge_set(g: Graph) -> set:
    src, dst = g.edge_arrays()
    return set(zip(src.tolist(), dst.tolist()))


def random_lines(rng, n_lines, max_id, newline_comments=True):
    lines = []
    if newline_comments:
        lines.append("# generated test edge list")
    for _ in range(n_lines):
        a = int(rng.integers(0, max_id))
        b = int(rng.integers(0, max_id))
        lines.append(f"{a} {b}")
    return lines


def random_graph(rng, n_max=200, directed=None, kind=None) -> Graph:
    """A small random graph: ER or BA, optionally randomly oriented."""
    if kind is None:
        kind = ["er", "ba"][int(rng.integers(0, 2))]
    if directed is None:
        directed = bool(rng.integers(0, 2))
    n = int(rng.integers(5, n_max + 1))
    seed = int(rng.integers(0, 2 ** 32))
    if kind == "er":
        p = float(rng.uniform(0.01, 0.2))
        return generate_er(GeneratorConfig.er(n, p, seed,
                                              directed=directed))
    mprime = int(rng.integers(1, min(6, n)))
    g = generate_ba(GeneratorConfig.ba(n, mprime, seed))
    if not directed:
        return g
    # orient each BA edge in one or both directions for a digraph
    src, dst = g.edge_arrays()
    arcs_src, arcs_dst = [], []
    for u, v in zip(src.tolist(), dst.tolist()):
        mode = int(rng.integers(0, 3))
        if mode != 1:
            arcs_src.append(u)
            arcs_dst.append(v)
        if mode != 0:
            arcs_src.append(v)
            arcs_dst.append(u)
    return Graph.from_edges(g.n, arcs_src, arcs_dst, directed=True)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
