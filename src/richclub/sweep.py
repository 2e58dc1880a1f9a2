"""Degree-ordered rich-club sweeps.

The k-rich-club is the subgraph induced by the k highest-degree nodes.
This module ranks nodes, then computes the full metric vector (boundary
and internal edge counts, the influence/stability/density constants c1,
c2, c3, connectivity, coverage and directed reciprocity) for every club
size on a grid.

:func:`run_sweep` is the one production engine: it computes each column
once for every club size k = 0..n as a prefix array (cumulative counts
keyed by rank, plus a spanning forest grown in rank order for the
component columns), so a grid of any density costs one fancy index.
:func:`metrics_at_k` recomputes a single club from scratch by plain
traversal; it is the reference semantics, kept deliberately naive as
the testing oracle.

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

from .graph import Graph, underlying_undirected

__all__ = [
    "DegreeOrder",
    "SweepRow",
    "KGrid",
    "SociabilityProfile",
    "degree_order",
    "metrics_at_k",
    "run_sweep",
    "sociability_profile",
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


def metrics_at_k(g: Graph, order: DegreeOrder, k: int) -> SweepRow:
    """Recompute every metric for the k-club from scratch.

    Induces the club, counts edges by scanning neighbor lists, finds
    components by traversal, coverage by marking club neighborhoods and
    (for directed input) internal and reciprocated arcs by arc lookup.
    This is the reference semantics and the testing oracle for
    :func:`run_sweep`; it shares no counting code with it.
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


def _count_below(keys: np.ndarray, n: int) -> np.ndarray:
    """``arr[k]`` = number of ``keys`` below k, for k = 0..n.

    ``keys`` are integers in ``[0, n]``; a key of n is never counted.
    """
    arr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n + 1)[:n], out=arr[1:])
    return arr


def internal_edges_by_k(g: Graph, order: DegreeOrder) -> np.ndarray:
    """Cumulative internal edge counts: ``arr[k]`` = projection edges
    with both endpoints in the top-k, for k = 0..n."""
    und = underlying_undirected(g)
    _, ev = _edge_rank_pairs(und, order)
    return _count_below(ev, und.n)


def _min_neighbor_rank(und: Graph, order: DegreeOrder) -> np.ndarray:
    """Smallest neighbor rank per rank position (n for isolated nodes)."""
    n = und.n
    indptr, indices = und.csr()
    minr = np.full(n, n, dtype=np.int64)
    nz = np.flatnonzero(np.diff(indptr))
    if len(nz):
        minr[nz] = np.minimum.reduceat(order.rank_of_node[indices],
                                       indptr[nz])
    return minr[order.node_at_rank]


def _component_columns(eu: np.ndarray, ev: np.ndarray, n: int):
    """Component count and largest component size for k = 0..n.

    The top-k club holds exactly the edges whose higher rank is below
    k.  Keyed by ``ev * m + edge index``, which orders the edges
    strictly by that rank, the graph has one minimum spanning forest;
    its edges below rank k span the club's components, so
    components(k) = k - (forest edges below k).

    Boruvka rounds grow the forest: every component hooks, along its
    lightest incident edge, to the component at the other end (of two
    components that pick the same edge, the smaller id stays root);
    pointer jumping relabels both endpoints, and edges that became
    internal are dropped.  Each round at least halves the components
    with an edge, so at most log2(n) rounds run.  A union-find over the
    at most n - 1 forest edges, taken in key order, then gives the
    largest component after each merge.
    """
    m = len(eu)
    key = ev * m + np.arange(m)
    cu, cv = eu, ev
    parent = np.arange(n)
    forest = [key[:0]]  # typed, for graphs without edges
    for _ in range(n.bit_length()):
        if not len(key):
            break
        best = np.full(n, m * n)  # above every key
        np.minimum.at(best, cu, key)
        np.minimum.at(best, cv, key)
        u_picks = best[cu] == key
        v_picks = best[cv] == key
        forest.append(key[u_picks | v_picks])
        # on a mutual pick only the larger id hooks
        u_hooks = u_picks & ~(v_picks & (cu < cv))
        v_hooks = v_picks & ~(u_picks & (cv < cu))
        parent[cu[u_hooks]] = cv[u_hooks]
        parent[cv[v_hooks]] = cu[v_hooks]
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        cu, cv = parent[cu], parent[cv]
        keep = cu != cv
        key, cu, cv = key[keep], cu[keep], cv[keep]
    hi, idx = np.divmod(np.sort(np.concatenate(forest)), max(m, 1))
    forest_below = _count_below(hi, n)

    parent = list(range(n))
    size = [1] * n
    merged = []
    for a, b in zip(eu[idx].tolist(), ev[idx].tolist()):
        while parent[a] != a:  # find with path halving, inlined
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        merged.append(size[a])
    lcc_after = np.maximum.accumulate(np.array([1] + merged, np.int64))
    components = np.arange(n + 1, dtype=np.int64) - forest_below
    return components, lcc_after[forest_below]


def run_sweep(g: Graph, grid: KGrid | None = None) -> list[SweepRow]:
    """Sweep the club size over ``grid``, one row per grid point.

    Every column is computed once for all k = 0..n as a prefix array,
    in time near-linear in the edges; the grid then only selects rows,
    so ``KGrid("full")`` costs about as much as a root grid.
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
    internal = _count_below(ev, n)
    prefix_deg = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(und.degrees[order.node_at_rank], out=prefix_deg[1:])
    cut = prefix_deg - 2 * internal
    components, lcc = _component_columns(eu, ev, n)

    # outside nodes with a club neighbor: those whose smallest neighbor
    # rank is below k, minus the ones that are themselves in the club
    minr = _min_neighbor_rank(und, order)
    covered = (_count_below(minr, n)
               - _count_below(np.maximum(np.arange(n), minr), n))

    if g.directed:
        src, dst = g.edge_arrays()
        arcs = _count_below(np.maximum(order.rank_of_node[src],
                                       order.rank_of_node[dst]), n)
        # a club pair holds one arc, or two reciprocated ones
        recip = 2 * (arcs - internal)
    else:
        arcs = recip = np.zeros(n + 1, dtype=np.int64)  # not reported

    columns = (order.degree_at_rank[ks - 1], internal[ks], cut[ks],
               components[ks], lcc[ks], covered[ks], arcs[ks], recip[ks])
    return [_assemble_row(k, n, m, deg, e, c, comp, big, cov, g.directed,
                          a, r)
            for k, deg, e, c, comp, big, cov, a, r
            in zip(ks.tolist(), *(col.tolist() for col in columns))]


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
