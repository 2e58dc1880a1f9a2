"""Degree-ordered rich-club sweeps.

The k-rich-club is the subgraph induced by the k highest-degree nodes.
This module ranks nodes, then computes the full metric vector (boundary
and internal edge counts, the influence/stability/density constants c1,
c2, c3, connectivity, coverage and directed reciprocity) for every club
size on a grid.

Three routes produce the same numbers and are tested against each
other: :func:`metrics_at_k` recomputes one club from scratch and is the
reference semantics; :class:`SweepState` grows the club one rank at a
time with a union-find; :func:`run_sweep` is the production engine,
which batches ranks between grid points with vectorized counting and
contracted component merging so that million-node graphs sweep in
seconds.

Directed graphs are ranked by total degree (in + out); c1/c2/c3,
connectivity and coverage are computed on the undirected projection,
while the arc columns (internal_arcs, reciprocal_arcs, sym_ratio) read
the arcs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .graph import Graph, underlying_undirected

__all__ = [
    "DegreeOrder",
    "SweepRow",
    "SweepState",
    "KGrid",
    "SociabilityProfile",
    "degree_order",
    "sweep_step",
    "metrics_at_k",
    "run_sweep",
    "sociability_profile",
    "reciprocity_at_k",
    "internal_edges_by_k",
    "write_rows_csv",
    "read_rows_csv",
    "CSV_COLUMNS",
]

CSV_COLUMNS = [
    "k", "degree_at_k", "sum_di", "sum_do", "internal_edges",
    "c1", "c2", "c3", "sociability_raw", "components", "lcc_size",
    "coverage", "internal_arcs", "reciprocal_arcs", "sym_ratio",
]

_INT_COLUMNS = {"k", "degree_at_k", "sum_di", "sum_do", "internal_edges",
                "components", "lcc_size", "internal_arcs",
                "reciprocal_arcs"}


@dataclass(frozen=True)
class DegreeOrder:
    """Ranking of all nodes by descending degree, ties by ascending id."""

    node_at_rank: np.ndarray
    rank_of_node: np.ndarray
    degree_at_rank: np.ndarray

    def __post_init__(self):
        for arr in (self.node_at_rank, self.rank_of_node,
                    self.degree_at_rank):
            arr.flags.writeable = False


def degree_order(g: Graph) -> DegreeOrder:
    """Deterministic degree ranking (total degree when directed)."""
    deg = g.degrees.astype(np.int64)
    node_at_rank = np.lexsort((np.arange(g.n), -deg)).astype(np.int64)
    rank_of_node = np.empty(g.n, dtype=np.int64)
    rank_of_node[node_at_rank] = np.arange(g.n)
    return DegreeOrder(node_at_rank, rank_of_node, deg[node_at_rank])


@dataclass
class SweepRow:
    """All club metrics at one size k.

    ``c2`` is None at k=1 and when the club has no boundary edges,
    ``coverage`` is None at k = n, and the arc fields are None for
    undirected input (``sym_ratio`` also when the club has no internal
    arcs).
    """

    k: int
    degree_at_k: int
    sum_di: int
    sum_do: int
    internal_edges: int
    c1: float
    c2: float | None
    c3: float
    sociability_raw: float
    components: int
    lcc_size: int
    coverage: float | None
    internal_arcs: int | None = None
    reciprocal_arcs: int | None = None
    sym_ratio: float | None = None


def _assemble_row(k, n, m, degree_at_k, internal, cut, components, lcc,
                  covered_outside, directed, arcs=None, recip=None):
    sum_di = 2 * internal
    c1 = cut / m if m else 0.0
    # the stability ratio is vacuous at k=1 (no internal edge possible)
    # and undefined without boundary edges
    c2 = sum_di / cut if (cut and k >= 2) else None
    c3 = sum_di / (k * (k - 1) / 2) if k >= 2 else 0.0
    coverage = covered_outside / (n - k) if k < n else None
    sym = None
    if directed and arcs:
        sym = recip / arcs
    return SweepRow(
        k=k, degree_at_k=degree_at_k, sum_di=sum_di, sum_do=cut,
        internal_edges=internal, c1=c1, c2=c2, c3=c3,
        sociability_raw=internal / k, components=components, lcc_size=lcc,
        coverage=coverage,
        internal_arcs=arcs if directed else None,
        reciprocal_arcs=recip if directed else None,
        sym_ratio=sym)


class SweepState:
    """Incremental club state, advanced one rank at a time.

    Keeps the running edge accumulators, a union-find over included
    nodes for component statistics, covered-outside bookkeeping and the
    directed arc counters.  ``advance`` must be called with ranks
    0, 1, 2, ... in order.
    """

    def __init__(self, g: Graph, order: DegreeOrder):
        self.graph = g
        self.order = order
        self._und = underlying_undirected(g)
        self.n = g.n
        self.m = self._und.m
        self.k = 0
        self.sum_di = 0
        self.sum_do = 0
        self.internal_edges = 0
        self.components = 0
        self.lcc_size = 0
        self._parent = list(range(g.n))
        self._size = [1] * g.n
        self._included = bytearray(g.n)
        self._covered = bytearray(g.n)
        self._covered_outside = 0
        self.internal_arcs = 0 if g.directed else None
        self.reciprocal_arcs = 0 if g.directed else None

    def _find(self, x):
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self.components -= 1
        if self._size[ra] > self.lcc_size:
            self.lcc_size = self._size[ra]

    def advance(self, rank: int) -> "SweepState":
        """Include the node at ``rank``; ranks must arrive in order."""
        if rank != self.k:
            raise ValueError(
                f"sweep rank out of order: expected {self.k}, got {rank}")
        if rank >= self.n:
            raise ValueError("rank beyond last node")
        v = int(self.order.node_at_rank[rank])
        included = self._included
        covered = self._covered
        g = self.graph
        self.components += 1
        if self.lcc_size == 0:
            self.lcc_size = 1
        for u in self._und.neighbors(v).tolist():
            if included[u]:
                self.sum_di += 2
                self.sum_do -= 1
                self.internal_edges += 1
                self._union(v, u)
                if g.directed:
                    out_arc = g.has_edge(v, u)
                    in_arc = g.has_edge(u, v)
                    if out_arc and in_arc:
                        self.internal_arcs += 2
                        self.reciprocal_arcs += 2
                    else:
                        self.internal_arcs += 1
            else:
                self.sum_do += 1
                if not covered[u]:
                    covered[u] = 1
                    self._covered_outside += 1
        if covered[v]:
            self._covered_outside -= 1
        included[v] = 1
        self.k += 1
        return self

    def row(self) -> SweepRow:
        """Snapshot of the metrics at the current club size."""
        if self.k < 1:
            raise ValueError("no ranks processed yet")
        return _assemble_row(
            self.k, self.n, self.m,
            int(self.order.degree_at_rank[self.k - 1]),
            self.internal_edges, self.sum_do, self.components,
            self.lcc_size, self._covered_outside, self.graph.directed,
            self.internal_arcs, self.reciprocal_arcs)


def sweep_step(state: SweepState, g: Graph, order: DegreeOrder,
               rank: int) -> SweepState:
    """Advance ``state`` by one rank; raises if ranks arrive out of order."""
    if state.graph is not g or state.order is not order:
        raise ValueError("state was built for a different graph or order")
    return state.advance(rank)


def metrics_at_k(g: Graph, order: DegreeOrder, k: int) -> SweepRow:
    """Recompute every metric for the k-club from scratch.

    Induces the club, counts edges by scanning neighbor lists, finds
    components by traversal and coverage by marking club neighborhoods.
    This is the reference semantics (and testing oracle) for
    :class:`SweepState` and :func:`run_sweep`.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range [1, {g.n}]")
    und = underlying_undirected(g)
    club = order.node_at_rank[:k]
    included = np.zeros(g.n, dtype=bool)
    included[club] = True

    internal = 0
    cut = 0
    for v in club.tolist():
        for u in und.neighbors(v).tolist():
            if included[u]:
                if u > v:
                    internal += 1
            else:
                cut += 1

    components = 0
    lcc = 0
    seen = np.zeros(g.n, dtype=bool)
    for start in club.tolist():
        if seen[start]:
            continue
        components += 1
        size = 0
        stack = [start]
        seen[start] = True
        while stack:
            x = stack.pop()
            size += 1
            for u in und.neighbors(x).tolist():
                if included[u] and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        lcc = max(lcc, size)

    covered_outside = 0
    if k < g.n:
        covered = np.zeros(g.n, dtype=bool)
        for v in club.tolist():
            covered[und.neighbors(v)] = True
        covered_outside = int(np.count_nonzero(covered & ~included))

    arcs = recip = None
    if g.directed:
        arcs = recip = 0
        for v in club.tolist():
            for u in g.neighbors(v).tolist():
                if included[u]:
                    arcs += 1
                    if g.has_edge(u, v):
                        recip += 1

    return _assemble_row(k, g.n, und.m,
                         int(order.degree_at_rank[k - 1]),
                         internal, cut, components, lcc, covered_outside,
                         g.directed, arcs, recip)


@dataclass(frozen=True)
class KGrid:
    """Club sizes to report: ``root`` (k = round(n^(i/points))),
    ``linear`` (evenly spaced) or ``full`` (every k).  floor(sqrt(m))
    and floor(sqrt(n)) are always injected."""

    kind: str = "root"
    points: int = 200

    def k_values(self, n: int, m: int) -> np.ndarray:
        if self.kind == "full":
            ks = np.arange(1, n + 1, dtype=np.int64)
        elif self.kind == "root":
            if self.points < 1:
                raise ValueError("root grid needs at least 1 point")
            x = np.arange(self.points + 1) / self.points
            ks = np.rint(float(n) ** x).astype(np.int64)
        elif self.kind == "linear":
            if self.points < 1:
                raise ValueError("linear grid needs at least 1 point")
            ks = np.rint(np.linspace(1.0, float(n),
                                     self.points)).astype(np.int64)
        else:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        extra = [math.isqrt(n)]
        if m >= 1:
            extra.append(math.isqrt(m))
        ks = np.concatenate([ks, np.array(extra, dtype=np.int64)])
        ks = np.unique(np.clip(ks, 1, n))
        if not len(ks):
            raise ValueError("empty grid")
        return ks


def _edge_rank_pairs(und: Graph, order: DegreeOrder):
    """Per-edge endpoint ranks ``(lo, hi)`` with lo < hi, one per edge."""
    indptr, indices = und.csr()
    rows = np.repeat(np.arange(und.n, dtype=np.int64), np.diff(indptr))
    ru = order.rank_of_node[rows]
    rv = order.rank_of_node[indices]
    keep = ru < rv
    return ru[keep], rv[keep]


def internal_edges_by_k(g: Graph, order: DegreeOrder) -> np.ndarray:
    """Cumulative internal edge counts: ``arr[k]`` = projection edges
    with both endpoints in the top-k, for k = 0..n."""
    und = underlying_undirected(g)
    _, ev = _edge_rank_pairs(und, order)
    counts = np.bincount(ev, minlength=und.n)
    return np.concatenate([[0], np.cumsum(counts)])


def _min_neighbor_rank(und: Graph, order: DegreeOrder) -> np.ndarray:
    """Smallest neighbor rank per rank position (n for isolated nodes)."""
    n = und.n
    indptr, indices = und.csr()
    deg = np.diff(indptr)
    minr = np.full(n, n, dtype=np.int64)
    if len(indices):
        nbr_rank = order.rank_of_node[indices]
        starts = np.minimum(indptr[:-1], len(indices) - 1)
        reduced = np.minimum.reduceat(nbr_rank, starts)
        minr = np.where(deg > 0, reduced, n)
    return minr[order.node_at_rank]


def run_sweep(g: Graph, grid: KGrid | None = None) -> list[SweepRow]:
    """Sweep the club size over ``grid``, one row per grid point.

    A single pass in rank order: between consecutive grid points the
    new internal edges are counted vectorized, and component statistics
    are carried forward by contracting previous components to
    supernodes, so total work stays near-linear in edges for root and
    linear grids.
    """
    if grid is None:
        grid = KGrid()
    order = degree_order(g)
    und = underlying_undirected(g)
    n, m = g.n, und.m
    ks = grid.k_values(n, m)
    if g.directed and g.m >= 1:
        # make the arc-count sqrt(m) club reportable as well
        ks = np.unique(np.append(ks, min(math.isqrt(g.m), n)))

    eu, ev = _edge_rank_pairs(und, order)
    internal_cum = np.concatenate(
        [[0], np.cumsum(np.bincount(ev, minlength=n))])
    esort = np.argsort(ev, kind="stable")
    eu_s, ev_s = eu[esort], ev[esort]

    deg_rank_und = und.degrees[order.node_at_rank].astype(np.int64)
    prefix_deg = np.concatenate([[0], np.cumsum(deg_rank_und)])
    min_by_rank = _min_neighbor_rank(und, order)

    arcs_cum = recip_cum = None
    if g.directed:
        indptr, indices = g.csr()
        asrc = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        adst = indices.astype(np.int64)
        athr = np.maximum(order.rank_of_node[asrc],
                          order.rank_of_node[adst])
        arcs_cum = np.concatenate(
            [[0], np.cumsum(np.bincount(athr, minlength=n))])
        keys = np.sort(asrc * n + adst)
        rev = adst * n + asrc
        pos = np.searchsorted(keys, rev)
        pos = np.minimum(pos, len(keys) - 1) if len(keys) else pos
        has_rev = keys[pos] == rev if len(keys) else np.zeros(0, bool)
        recip_cum = np.concatenate(
            [[0], np.cumsum(np.bincount(athr[has_rev], minlength=n))])

    rows_out: list[SweepRow] = []
    labels = np.empty(n, dtype=np.int64)
    comp_sizes = np.empty(0, dtype=np.int64)
    comp_count = 0
    prev_k = 0
    eptr = 0
    for k in ks.tolist():
        e_end = int(internal_cum[k])
        new_nodes = k - prev_k
        total = comp_count + new_nodes
        if e_end > eptr:
            uu, vv = eu_s[eptr:e_end], ev_s[eptr:e_end]
            su = np.empty(len(uu), dtype=np.int64)
            sv = np.empty(len(vv), dtype=np.int64)
            for ranks, out in ((uu, su), (vv, sv)):
                old = ranks < prev_k
                out[old] = labels[ranks[old]]
                out[~old] = comp_count + (ranks[~old] - prev_k)
            adj = coo_matrix((np.ones(len(su), dtype=np.int8), (su, sv)),
                             shape=(total, total))
            ncc, sub = connected_components(adj, directed=False)
            sub = sub.astype(np.int64)
        else:
            ncc, sub = total, np.arange(total, dtype=np.int64)
        weights = np.concatenate(
            [comp_sizes, np.ones(new_nodes, dtype=np.int64)])
        comp_sizes = np.bincount(sub, weights=weights,
                                 minlength=ncc).astype(np.int64)
        if prev_k:
            labels[:prev_k] = sub[labels[:prev_k]]
        labels[prev_k:k] = sub[comp_count:comp_count + new_nodes]
        comp_count = int(ncc)

        covered_outside = 0
        if k < n:
            covered_outside = int(np.count_nonzero(min_by_rank[k:] < k))
        arcs = int(arcs_cum[k]) if g.directed else None
        recip = int(recip_cum[k]) if g.directed else None
        rows_out.append(_assemble_row(
            k, n, m, int(order.degree_at_rank[k - 1]), e_end,
            int(prefix_deg[k]) - 2 * e_end, comp_count,
            int(comp_sizes.max()), covered_outside, g.directed,
            arcs, recip))
        prev_k, eptr = k, e_end
    return rows_out


class SociabilityProfile(NamedTuple):
    points: list[tuple[int, float]]
    argmax_k: int
    max_raw: float


def sociability_profile(rows: Sequence[SweepRow]) -> SociabilityProfile:
    """Normalize internal-edges-per-member by its maximum over the grid.

    Returns the normalized profile plus the (first) club size where the
    raw value peaks.  Raises on an all-zero profile, which happens only
    for graphs whose clubs never contain an edge.
    """
    if not rows:
        raise ValueError("no sweep rows")
    max_raw = max(r.sociability_raw for r in rows)
    if max_raw <= 0:
        raise ValueError(
            "degenerate sociability profile: no club has internal edges")
    argmax_k = next(r.k for r in rows if r.sociability_raw == max_raw)
    points = [(r.k, r.sociability_raw / max_raw) for r in rows]
    return SociabilityProfile(points, argmax_k, max_raw)


def reciprocity_at_k(g: Graph, order: DegreeOrder, k: int):
    """Internal arc count, reciprocated arc count and their ratio.

    An internal arc has both endpoints in the top-k club; it is
    reciprocated when the reverse arc also exists.  The ratio is None
    for clubs without internal arcs.
    """
    if not g.directed:
        raise ValueError("reciprocity requires a directed graph")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range [1, {g.n}]")
    included = np.zeros(g.n, dtype=bool)
    included[order.node_at_rank[:k]] = True
    arcs = recip = 0
    for v in order.node_at_rank[:k].tolist():
        for u in g.neighbors(v).tolist():
            if included[u]:
                arcs += 1
                if g.has_edge(u, v):
                    recip += 1
    ratio = recip / arcs if arcs else None
    return arcs, recip, ratio


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_rows_csv(rows: Sequence[SweepRow], out: IO[str] | str) -> None:
    """Write sweep rows as CSV; empty fields stand for null values."""
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "wt", encoding="utf-8") as fh:
            write_rows_csv(rows, fh)
            return
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in rows:
        out.write(",".join(_format_value(getattr(r, c))
                           for c in CSV_COLUMNS) + "\n")


def read_rows_csv(src) -> list[SweepRow]:
    """Read rows written by :func:`write_rows_csv`.

    ``src`` is a path, or an open file / iterable of lines.
    """
    if isinstance(src, (str, bytes)) or hasattr(src, "__fspath__"):
        with open(src, "rt", encoding="utf-8") as fh:
            return read_rows_csv(fh)
    lines = iter(src)
    header = next(lines, "").strip()
    if header.split(",") != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header!r}")
    rows = []
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"line {lineno}: expected {len(CSV_COLUMNS)} "
                             f"fields, got {len(fields)}")
        values = {}
        try:
            for name, field in zip(CSV_COLUMNS, fields):
                if field == "":
                    values[name] = None
                elif name in _INT_COLUMNS:
                    values[name] = int(field)
                else:
                    values[name] = float(field)
        except ValueError:
            raise ValueError(f"line {lineno}: bad {name} value "
                             f"{field!r}") from None
        rows.append(SweepRow(**values))
    return rows
