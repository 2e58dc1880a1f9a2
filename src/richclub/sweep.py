"""Degree-ordered rich-club sweeps.

The k-rich-club is the subgraph induced by the k highest-degree nodes.
This module ranks nodes, then computes the full metric vector (boundary
and internal edge counts, the influence/stability/density constants c1,
c2, c3, connectivity, coverage and directed reciprocity) for every club
size on a grid.

:func:`run_sweep` is the one production engine: from the edges' rank
pairs alone it computes each column once for every club size k = 0..n
as a prefix array (counts keyed by rank, plus a spanning forest grown in
rank order for the component columns), so any grid costs one index.
It returns a :class:`SweepTable`, one array per CSV column, which the
CSV writer and reader, the sociability profile and the axiom checks
all consume column by column.
:func:`metrics_at_k` recomputes a single club from scratch with masks
over the edge list and a plain traversal; it is the reference
semantics, kept deliberately naive as the testing oracle.

Directed graphs are ranked by total degree (in + out); c1/c2/c3,
connectivity and coverage are computed on the undirected projection,
while the arc columns (internal_arcs, reciprocal_arcs, sym_ratio) read
the arcs directly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from itertools import chain
from typing import IO, NamedTuple, Sequence

import numpy as np

from .graph import Graph, underlying_undirected

__all__ = [
    "DegreeOrder",
    "SweepRow",
    "SweepTable",
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

_INT_COLUMNS = {"k", "degree_at_k", "sum_di", "sum_do", "internal_edges",
                "components", "lcc_size", "internal_arcs",
                "reciprocal_arcs"}
_ARC_COLUMNS = ("internal_arcs", "reciprocal_arcs", "sym_ratio")
_NULLABLE = {"c2", "coverage", "sym_ratio"}  # empty in some rows
_CSV_CHUNK = 1 << 14  # rows formatted or parsed at once


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
    node_at_rank = np.argsort(-deg, kind="stable").astype(np.int64)
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


CSV_COLUMNS = [f.name for f in fields(SweepRow)]
_ARC_AT = CSV_COLUMNS.index("internal_arcs")


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep rows as columns, one entry per club size, ascending in k.

    One array per :data:`CSV_COLUMNS` name, with the same meaning as the
    :class:`SweepRow` field: int64 for counts, float64 for ratios, NaN
    where a row holds None.  The arc columns are None for undirected
    input.  ``len(table)`` counts the rows, ``table[i]`` is row i as a
    :class:`SweepRow` (None in place of NaN), and iterating gives the
    rows in order.
    """

    k: np.ndarray
    degree_at_k: np.ndarray
    sum_di: np.ndarray
    sum_do: np.ndarray
    internal_edges: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    sociability_raw: np.ndarray
    components: np.ndarray
    lcc_size: np.ndarray
    coverage: np.ndarray
    internal_arcs: np.ndarray | None = None
    reciprocal_arcs: np.ndarray | None = None
    sym_ratio: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.k)

    def __getitem__(self, i: int) -> SweepRow:
        values = [None if col is None else col[i].item()
                  for col in map(self.__getattribute__, CSV_COLUMNS)]
        return SweepRow(*(None if v != v else v for v in values))  # NaN: null

    @classmethod
    def from_rows(cls, rows: Sequence[SweepRow]) -> SweepTable:
        """The table of ``rows``, such as rows of :func:`metrics_at_k`."""
        directed = bool(rows) and rows[0].internal_arcs is not None
        return cls(**{
            name: np.array([getattr(r, name) for r in rows],
                           dtype=_dtype(name))  # None becomes NaN
            for name in CSV_COLUMNS
            if directed or name not in _ARC_COLUMNS})


def _dtype(name: str):
    return np.int64 if name in _INT_COLUMNS else np.float64


def _table(n, m, k, degree_at_k, internal, cut, components, lcc,
           covered_outside, arcs=None, recip=None) -> SweepTable:
    """The rows at club sizes ``k`` from their counts, all int64 arrays
    aligned with ``k``; ``arcs`` and ``recip`` are None for undirected
    input.  ``m`` is the projection's edge count."""
    sum_di = 2 * internal
    with np.errstate(divide="ignore", invalid="ignore"):
        # the stability ratio is vacuous at k=1 (no internal edge
        # possible) and undefined without boundary edges
        c2 = np.where((cut > 0) & (k >= 2), sum_di / cut, np.nan)
        c3 = np.where(k >= 2, sum_di / (k * (k - 1) / 2), 0.0)
        coverage = np.where(k < n, covered_outside / (n - k), np.nan)
        sym = None if arcs is None else np.where(arcs > 0, recip / arcs,
                                                 np.nan)
    return SweepTable(
        k=k, degree_at_k=degree_at_k, sum_di=sum_di, sum_do=cut,
        internal_edges=internal, c1=cut / max(m, 1), c2=c2, c3=c3,
        sociability_raw=internal / k, components=components, lcc_size=lcc,
        coverage=coverage, internal_arcs=arcs, reciprocal_arcs=recip,
        sym_ratio=sym)


def metrics_at_k(g: Graph, order: DegreeOrder, k: int) -> SweepRow:
    """Recompute every metric for the k-club from scratch.

    Marks the club's nodes and classifies each projection edge by its
    marked endpoints: two make it internal, one a boundary edge whose
    other endpoint is covered.  Components come from a traversal of the
    club's internal edges, and (for directed input) internal and
    reciprocated arcs from the set of the club's arcs.  This is the
    reference semantics and the testing oracle for :func:`run_sweep`;
    it shares no counting code with it.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range [1, {g.n}]")
    und = underlying_undirected(g)
    club = order.node_at_rank[:k].tolist()
    included = np.zeros(g.n, dtype=bool)
    included[club] = True

    src, dst = und.edge_arrays()
    src_in, dst_in = included[src], included[dst]
    both = src_in & dst_in
    boundary = src_in != dst_in
    internal = int(np.count_nonzero(both))
    cut = int(np.count_nonzero(boundary))
    covered_outside = len(set(np.where(src_in, dst, src)[boundary].tolist()))

    adjacent = {v: [] for v in club}
    for u, v in zip(src[both].tolist(), dst[both].tolist()):
        adjacent[u].append(v)
        adjacent[v].append(u)
    components = 0
    lcc = 0
    seen = set()
    for start in club:
        if start in seen:
            continue
        components += 1
        size = 0
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            size += 1
            for u in adjacent[x]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        lcc = max(lcc, size)

    counts = [k, order.degree_at_rank[k - 1], internal, cut, components,
              lcc, covered_outside]
    if g.directed:
        tail, head = g.edge_arrays()
        inside = included[tail] & included[head]
        arcs = set(zip(tail[inside].tolist(), head[inside].tolist()))
        counts += [len(arcs), sum((v, u) in arcs for u, v in arcs)]
    return _table(g.n, und.m, *(np.array([c], np.int64) for c in counts))[0]


@dataclass(frozen=True)
class KGrid:
    """Club sizes to report: ``root`` (k = round(n^(i/points))),
    ``linear`` (evenly spaced) or ``full`` (every k).  floor(sqrt(m))
    and floor(sqrt(n)) are always injected."""

    kind: str = "root"
    points: int = 200

    def __post_init__(self):
        try:
            operator.index(self.points)
        except TypeError:
            raise ValueError("grid points must be an integer") from None
        if self.points < 1:
            raise ValueError("a grid needs at least 1 point")
        if self.kind not in ("root", "linear", "full"):
            raise ValueError(f"unknown grid kind {self.kind!r}")

    def k_values(self, n: int, m: int) -> np.ndarray:
        # a grid of more points than it can place at distinct club sizes
        # is every k (root: consecutive samples differ by below 1 there)
        if self.kind == "root" and self.points <= math.ceil(
                (n + 1) * math.log(max(n, 1))):
            x = np.arange(self.points + 1) / self.points
            ks = np.rint(float(n) ** x).astype(np.int64)
        elif self.kind == "linear" and self.points < n:
            ks = np.rint(np.linspace(1.0, float(n),
                                     self.points)).astype(np.int64)
        else:
            ks = np.arange(1, n + 1, dtype=np.int64)
        extra = [math.isqrt(n)]
        if m >= 1:
            extra.append(math.isqrt(m))
        ks = np.concatenate([ks, np.array(extra, dtype=np.int64)])
        return _sorted_unique(np.clip(ks, 1, n))


def _sorted_unique(ks: np.ndarray) -> np.ndarray:
    """``np.unique(ks)`` for a non-empty ``ks``, by sort and adjacent
    difference; numpy 2's ``np.unique`` hashes, about 50x slower on 10^6
    sorted values (2-vCPU Xeon VM)."""
    ks = np.sort(ks)
    return ks[np.append(True, ks[1:] != ks[:-1])]


def _edge_rank_pairs(g: Graph, order: DegreeOrder):
    """Endpoint ranks ``(lo, hi)`` with lo < hi, one per edge (or arc)."""
    src, dst = g.edge_arrays()
    ru = order.rank_of_node[src]
    rv = order.rank_of_node[dst]
    return np.minimum(ru, rv), np.maximum(ru, rv)


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


def run_sweep(g: Graph, grid: KGrid | None = None) -> SweepTable:
    """Sweep the club size over ``grid``, one table row per grid point.

    Every column is computed once for all k = 0..n as a prefix array
    over the edges' endpoint ranks, in time near-linear in the edges:
    cut from two prefix counts, coverage from each node's lowest
    lower-neighbour rank.  The grid then only selects rows, so
    ``KGrid("full")`` costs about as much as a root grid.
    """
    if grid is None:
        grid = KGrid()
    order = degree_order(g)
    und = underlying_undirected(g)
    n, m = g.n, und.m
    ks = grid.k_values(n, m)
    if g.directed and g.m >= 1:
        # make the arc-count sqrt(m) club reportable as well
        ks = _sorted_unique(np.append(ks, min(math.isqrt(g.m), n)))

    eu, ev = _edge_rank_pairs(und, order)
    internal = _count_below(ev, n)
    # the boundary edges of the top-k have lo < k <= hi
    cut = _count_below(eu, n) - internal
    components, lcc = _component_columns(eu, ev, n)

    # an outside node's club neighbors rank lower, so it is covered when
    # its lowest lower neighbor is below k; the club's own nodes are not
    lowest = np.full(n, n, dtype=np.int64)
    np.minimum.at(lowest, ev, eu)
    covered = (_count_below(lowest, n)
               - _count_below(np.where(lowest < n, np.arange(n), n), n))

    counts = [internal, cut, components, lcc, covered]
    if g.directed:
        arcs = _count_below(_edge_rank_pairs(g, order)[1], n)
        # a club pair holds one arc, or two reciprocated ones
        counts += [arcs, 2 * (arcs - internal)]
    return _table(n, m, ks, order.degree_at_rank[ks - 1],
                  *(col[ks] for col in counts))


class SociabilityProfile(NamedTuple):
    argmax_k: int
    max_raw: float


def sociability_profile(rows: SweepTable) -> SociabilityProfile:
    """The (first) club size where internal-edges-per-member peaks, and
    the peak, which normalizes the profile.  Raises on an all-zero
    profile, which happens only for graphs whose clubs never contain
    an edge."""
    if not len(rows):
        raise ValueError("no sweep rows")
    at = int(np.argmax(rows.sociability_raw))
    max_raw = float(rows.sociability_raw[at])
    if max_raw <= 0:
        raise ValueError(
            "degenerate sociability profile: no club has internal edges")
    return SociabilityProfile(int(rows.k[at]), max_raw)


def write_rows_csv(rows: SweepTable | Sequence[SweepRow],
                   out: IO[str] | str) -> None:
    """Write a sweep table, or a list of rows, as CSV; empty fields
    stand for null values and floats keep six significant digits."""
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "wt", encoding="utf-8") as fh:
            write_rows_csv(rows, fh)
            return
    if not isinstance(rows, SweepTable):
        rows = SweepTable.from_rows(rows)
    cols = list(map(rows.__getattribute__, CSV_COLUMNS))
    row = ",".join("" if col is None else "%.6g" if col.dtype.kind == "f"
                   else "%d" for col in cols) + "\n"
    out.write(",".join(CSV_COLUMNS) + "\n")
    _write_rows(out, row, [col for col in cols if col is not None])


def _write_rows(out: IO[str], row: str, cols: Sequence[np.ndarray]) -> None:
    """Write ``row % values`` per row of the aligned columns ``cols``,
    ``_CSV_CHUNK`` rows at a time.  A null ratio (NaN) prints as "nan",
    letters no other field holds, and is emptied."""
    for lo in range(0, len(cols[0]), _CSV_CHUNK):
        parts = [col[lo:lo + _CSV_CHUNK].tolist() for col in cols]
        values = tuple(chain.from_iterable(zip(*parts)))
        out.write((row * len(parts[0]) % values).replace("nan", ""))


def _parse_int(text: str) -> int | None:
    try:
        value = int(text)
    except ValueError:
        return None
    return value if -2 ** 63 <= value < 2 ** 63 else None


def _parse_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return None if value != value else value  # NaN would read as null


def _read_column(name: str, texts: list[str], directed: bool):
    """One CSV column as an array (None for the arc columns of
    undirected input), plus the index of its first bad field, or
    ``len(texts)`` when every field is good."""
    if name in _ARC_COLUMNS and not directed:
        if texts.count("") == len(texts):
            return None, len(texts)
        return None, next(i for i, t in enumerate(texts) if t)
    # builtin parsers first; a column they reject (an empty or bad
    # field, beyond int64, NaN) is parsed again field by field below
    try:
        values = np.array(list(map(int if name in _INT_COLUMNS else float,
                                   texts)), dtype=_dtype(name))
    except (ValueError, OverflowError):
        pass
    else:
        if values.dtype.kind != "f" or not np.isnan(values).any():
            return values, len(texts)
    values = list(map(_parse_int if name in _INT_COLUMNS else _parse_float,
                      texts))
    if None in values:  # an empty field, or a bad one
        nullable = name in _NULLABLE
        bad = next((i for i, v in enumerate(values)
                    if v is None and (texts[i] or not nullable)), len(texts))
        if bad < len(texts):
            return None, bad
    return np.array(values, dtype=_dtype(name)), len(texts)


def read_rows_csv(src) -> SweepTable:
    """Read a table written by :func:`write_rows_csv`.

    ``src`` is a path, or an open file / iterable of lines.  Blank lines
    are skipped.  Only ``c2``, ``coverage`` and the arc columns may hold
    empty fields, and the first row decides whether the arc counts are
    present in every row or empty in every row.  Raises ValueError
    naming the first bad line: a wrong field count, or a field that is
    not a number of its column's type (NaN and integers beyond int64
    included).
    """
    if isinstance(src, (str, bytes)) or hasattr(src, "__fspath__"):
        with open(src, "rt", encoding="utf-8") as fh:
            return read_rows_csv(fh)
    lines = iter(src)
    header = next(lines, "").strip()
    if header.split(",") != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header: {header!r}")
    lines = [line.strip() for line in lines]
    rows = [line for line in lines if line]
    lineno = np.flatnonzero(list(map(bool, lines))) + 2  # of each row
    width = len(CSV_COLUMNS)
    # rows before the first one with a wrong field count are parsed,
    # a chunk at a time: column j is every width-th field from j
    good = next((i for i, row in enumerate(rows)
                 if row.count(",") != width - 1), len(rows))
    directed = good > 0 and rows[0].split(",")[_ARC_AT] != ""
    chunks = []
    for lo in range(0, good, _CSV_CHUNK):
        cells = ",".join(rows[lo:min(lo + _CSV_CHUNK, good)]).split(",")
        chunk = [_read_column(name, cells[j::width], directed)
                 for j, name in enumerate(CSV_COLUMNS)]
        bad, j = min((b, j) for j, (_, b) in enumerate(chunk))
        if bad < len(cells) // width:
            raise ValueError(f"line {lineno[lo + bad]}: bad {CSV_COLUMNS[j]} "
                             f"value {cells[bad * width + j]!r}")
        chunks.append([values for values, _ in chunk])
    if good < len(rows):
        raise ValueError(f"line {lineno[good]}: expected {width} fields, "
                         f"got {rows[good].count(',') + 1}")
    return SweepTable(**{
        name: np.concatenate([np.empty(0, _dtype(name)),
                              *(chunk[j] for chunk in chunks)])
        for j, name in enumerate(CSV_COLUMNS)
        if directed or name not in _ARC_COLUMNS})
