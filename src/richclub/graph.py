"""Compact immutable graphs with SNAP-style edge-list I/O.

A :class:`Graph` is a simple graph (no self-loops, no parallel edges)
over dense node ids ``0..n-1``, stored as its edge list sorted by
``(src, dst)``: one int32 pair per arc, or per undirected edge with
``src < dst``, plus each node's degree.  Graphs are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import io
import math
from typing import IO

import numpy as np

__all__ = [
    "Graph",
    "EdgeListError",
    "parse_edge_list",
    "write_edge_list",
    "underlying_undirected",
    "floor_sqrt_edges",
]

_INT64_MAX = 2 ** 63 - 1
NODE_LIMIT = 2 ** 31  # node counts must stay below this (int32 ids)
_SCAN_CHUNK = 1 << 20  # bytes
_COMMENT = "#"  # opens a comment line
_WRITE_CHUNK = 1 << 15  # lines
_POW10 = np.array([10 ** j for j in range(1, 20)], dtype=np.uint64)


class EdgeListError(ValueError):
    """Malformed or empty edge-list input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Simple graph over dense ids, stored as its sorted edge list.

    Build instances with :meth:`from_edges` (or :func:`parse_edge_list`),
    which normalizes the input: self-loops and duplicate edges are
    dropped (and counted), and in undirected mode ``(u, v)`` / ``(v, u)``
    collapse to a single edge stored once with ``u < v``.
    """

    def __init__(self, n, src, dst, directed, original_ids=None,
                 loops_dropped=0, duplicates_dropped=0):
        self.n = int(n)
        self.m = len(src)
        self.directed = bool(directed)
        self._src = src
        self._dst = dst
        self.degrees = (np.bincount(src, minlength=self.n)
                        + np.bincount(dst, minlength=self.n))
        self.original_ids = original_ids
        self.loops_dropped = int(loops_dropped)
        self.duplicates_dropped = int(duplicates_dropped)
        for arr in (self._src, self._dst, self.degrees):
            arr.flags.writeable = False
        self._projection = None

    @classmethod
    def from_edges(cls, n, src, dst, directed=False, original_ids=None):
        """Build a normalized graph from parallel endpoint arrays.

        ``src``/``dst`` hold dense ids in ``[0, n)``; order and
        duplication are arbitrary; a non-empty array must have an integer
        dtype.  ``original_ids`` (node labels in ``[0, 2**63)``) is kept
        as a read-only int64 copy.  Returns the deduplicated loop-free
        graph with drop counts recorded on the instance.
        """
        n = int(n)
        if n <= 0:
            raise ValueError("graph needs at least one node")
        if n >= NODE_LIMIT:
            raise ValueError("node count exceeds supported range")
        if original_ids is not None:
            ids = np.asarray(original_ids)
            if (ids.shape != (n,) or ids.dtype.kind not in "iu"
                    or ids.min() < 0 or int(ids.max()) > _INT64_MAX):
                raise ValueError(
                    f"original_ids must be {n} integer ids in [0, 2**63)")
            original_ids = ids.astype(np.int64)  # a copy
            original_ids.flags.writeable = False
        src, dst = np.asarray(src), np.asarray(dst)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if len(src) and not {src.dtype.kind, dst.dtype.kind} <= set("iu"):
            raise ValueError("endpoint ids must be integers")
        src = src.astype(np.int64, copy=False)
        dst = dst.astype(np.int64, copy=False)
        if len(src) and (src.min() < 0 or dst.min() < 0
                         or src.max() >= n or dst.max() >= n):
            raise ValueError("endpoint id out of range")

        loops = src == dst
        loops_dropped = int(np.count_nonzero(loops))
        if directed:
            keys = src * n
            keys += dst
        else:
            keys = np.minimum(src, dst)
            keys *= n
            keys += np.maximum(src, dst)
        del src, dst
        if loops_dropped:
            keys = keys[~loops]
        del loops
        keys.sort()
        keep = np.empty(len(keys), dtype=bool)
        keep[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        duplicates_dropped = len(keep) - len(keys)
        del keep
        # row-major sorted keys: the edges come out sorted by (src, dst)
        dst = (keys % n).astype(np.int32)
        keys //= n
        return cls(n, keys.astype(np.int32), dst, directed,
                   original_ids=original_ids,
                   loops_dropped=loops_dropped,
                   duplicates_dropped=duplicates_dropped)

    def edge_arrays(self):
        """Endpoint arrays, one entry per edge (per arc when directed),
        sorted by ``(src, dst)``; undirected edges have ``src < dst``."""
        return self._src, self._dst

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def parse_edge_list(source, directed=False) -> Graph:
    """Parse a SNAP-style edge list into a normalized :class:`Graph`.

    ``source`` is a path, an open text file, or an iterable of lines.
    Every non-comment line must hold exactly two integer ids in
    ``[0, 2**63)``.  A line whose first non-blank character is ``#``
    is a comment; a ``#`` anywhere else is an error.
    Ids are compacted to ``0..n-1`` in order of first appearance (nodes
    mentioned only on dropped self-loop or duplicate lines still
    count); the original ids are kept on ``graph.original_ids``.

    With N ids in the input, they count as dense when the largest is
    below 2N, as in every file :func:`write_edge_list` writes: each
    id's first position is then found by indexing an array over the id
    values, and only the n distinct ids are sorted; sparse ids are first
    numbered by ``np.unique`` and then take the same path.  A path is
    read whole and tokenized into one preallocated buffer of two ids
    per line, and its bytes are released before the compaction.  Peak
    memory is then about 2.5 int64 arrays of length N with dense ids
    (3.3 times the size of a BA(2*10^5, 10) edge list this package
    wrote), and about 6.2 with sparse ones (3.8 times the file with ids
    up to 10^12).

    Raises :class:`EdgeListError` with the offending line number for
    malformed lines, and for entirely empty input.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            data = fh.read()
        ids = _scan_ids(data)
        if ids is None:
            ids = _read_ids(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        del data
    else:
        ids = _read_ids(source)
    original, codes = _first_appearance(ids)
    del ids
    return Graph.from_edges(len(original), codes[0::2], codes[1::2],
                            directed=directed, original_ids=original)


def _scan_ids(data: bytes):
    """Vectorized tokenizer for clean edge lists.

    Returns the ids in file order, two per edge line, when every line
    is blank, a comment, or two ASCII-digit ids below ``2**63``
    separated by spaces or tabs, with ``\\n`` or ``\\r\\n`` line ends,
    and the whole input decodes as UTF-8.  Returns None for any other
    input, which the line loop then accepts or rejects, so this path
    never changes what is accepted.
    """
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # an accepted line holds two ids, and lines end at a newline or at
    # the end of the data (a lone \r is rejected)
    out = np.empty(2 * (data.count(b"\n") + 1), dtype=np.uint64)
    count = lo = 0
    while lo < len(data):
        # chunks of whole lines keep the temporaries small
        hi = data.rfind(b"\n", lo, lo + _SCAN_CHUNK) + 1
        if lo + _SCAN_CHUNK >= len(data):
            hi = len(data)
        elif hi <= lo:  # one line longer than a chunk
            hi = data.find(b"\n", lo + _SCAN_CHUNK) + 1 or len(data)
        ids = _scan_chunk(buf[lo:hi])
        if ids is None:
            return None
        out[count:count + len(ids)] = ids
        count += len(ids)
        lo = hi
    ids = out[:count]
    if not count or ids.max() > np.uint64(_INT64_MAX):
        return None
    return ids.view(np.int64)


def _scan_chunk(buf: np.ndarray):
    """:func:`_scan_ids` on whole lines: uint64 ids, or None."""
    # a lone \r ends a line in universal-newline mode
    cr = np.flatnonzero(buf[:-1] == 13)
    if len(cr) and np.any(buf[cr + 1] != 10):
        return None
    blank = (buf == 32) | (buf == 9) | (buf == 10) | (buf == 13)
    padded = np.ones(len(buf) + 2, dtype=bool)
    padded[1:-1] = blank
    bounds = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    if not len(starts):
        return np.zeros(0, dtype=np.uint64)

    # a token opens its line when a newline lies in the gap before it
    opens = np.empty(len(starts), dtype=bool)
    opens[0] = True
    gap_start, gap_end = ends[:-1], starts[1:]
    opens[1:] = buf[gap_end - 1] == 10
    wide = np.flatnonzero(~opens[1:] & (gap_end - gap_start > 1))
    if len(wide):
        nl = np.flatnonzero(buf == 10)
        opens[1 + wide] = (np.searchsorted(nl, gap_end[wide])
                           > np.searchsorted(nl, gap_start[wide]))

    # bytes other than digits and blanks may only sit in comment lines
    other = np.flatnonzero(~blank & (np.subtract(buf, 48, dtype=np.uint8)
                                     > 9))
    if len(other):
        is_comment = buf[starts[opens]] == ord(_COMMENT)
        in_comment = is_comment[np.cumsum(opens) - 1]
        token = np.searchsorted(starts, other, side="right") - 1
        if not in_comment[token].all():
            return None
        keep = ~in_comment
        starts, ends, opens = starts[keep], ends[keep], opens[keep]
    if len(starts) % 2 or not opens[0::2].all() or opens[1::2].any():
        return None

    width = ends - starts
    ids = np.zeros(len(starts), dtype=np.uint64)
    if not len(ids):
        return ids
    shortest, longest = int(width.min()), int(width.max())
    if longest > 19:
        return None
    for j in range(longest):  # digit j from the right of every id
        digit = buf.take(ends - 1 - j, mode="clip") - np.uint8(48)
        if j >= shortest:
            digit[width <= j] = 0
        ids += np.multiply(digit, np.uint64(10 ** j), dtype=np.uint64)
    return ids


def _read_ids(lines) -> np.ndarray:
    """Line-by-line parse: the ids in file order, two per edge line.

    Raises :class:`EdgeListError` at the first malformed line.
    """
    ids: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(_COMMENT):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise EdgeListError(
                f"expected two ids, got {len(parts)} tokens", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(
                f"non-integer id in {stripped!r}", line=lineno) from None
        if a < 0 or b < 0:
            raise EdgeListError("negative id", line=lineno)
        if a > _INT64_MAX or b > _INT64_MAX:
            raise EdgeListError("id does not fit in int64", line=lineno)
        ids += (a, b)
    if not ids:
        raise EdgeListError("empty edge list: no edges or nodes found")
    return np.array(ids, dtype=np.int64)


def _first_appearance(ids: np.ndarray):
    """``(original, codes)``: the distinct ``ids`` in order of first
    appearance, and each id's index in that list."""
    top = int(ids.max())
    if top >= 2 * len(ids):  # sparse: number the values first
        values, ids = np.unique(ids, return_inverse=True)
        original, codes = _first_appearance(ids)
        return values[original], codes
    # dense: index by value
    first = np.full(top + 1, len(ids), dtype=np.int64)
    # exact in any write order, unlike a repeated-index assignment
    np.minimum.at(first, ids, np.arange(len(ids)))
    present = np.flatnonzero(first < len(ids))
    original = present[np.argsort(first[present])].astype(np.int64)
    first[original] = np.arange(len(original))  # now value -> code
    return original, first[ids]


def write_edge_list(g: Graph, out: IO[str] | str) -> None:
    """Write ``g`` in the edge-list format :func:`parse_edge_list` reads.

    Emits a ``# n=<n> m=<m> directed=<0|1>`` header, then one ``v v``
    line per node in id order, then one line per edge.  The node
    manifest lines parse as (dropped) self-loops, which pins the node
    set and its first-appearance order so that a write/parse round trip
    reproduces ``(n, m, edge set)`` exactly, isolated nodes included.
    """
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "wt", encoding="utf-8") as fh:
            write_edge_list(g, fh)
            return
    label = np.arange(g.n) if g.original_ids is None else g.original_ids
    out.write(f"# n={g.n} m={g.m} directed={int(g.directed)}\n")
    for lo in range(0, g.n, _WRITE_CHUNK):
        out.write(_format_lines(label[lo:lo + _WRITE_CHUNK]))
    src, dst = g.edge_arrays()
    for lo in range(0, len(src), _WRITE_CHUNK):
        out.write(_format_lines(label[src[lo:lo + _WRITE_CHUNK]],
                                label[dst[lo:lo + _WRITE_CHUNK]]))


def _format_lines(a: np.ndarray, b: np.ndarray | None = None,
                  sep: str = " ") -> str:
    """``f"{a[i]}{sep}{b[i]}\\n"`` for every i, built as one ASCII buffer
    (``b`` defaults to ``a``); the ids are in ``[0, 2**63)``."""
    vals = np.empty(2 * len(a), dtype=np.int64)
    vals[0::2] = a
    vals[1::2] = a if b is None else b
    mag = vals.view(np.uint64)
    width = 1 + int(np.count_nonzero(_POW10 <= mag.max()))
    digits = np.ones(len(mag), dtype=np.int8)
    for power in _POW10[:width - 1]:
        digits += mag >= power
    # one row per value: the digits right-aligned with leading zeros,
    # then the separator; a mask drops the padding
    rows = np.empty((len(mag), width + 1), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        quotient = mag // np.uint64(10)
        rows[:, j] = mag - quotient * np.uint64(10)
        mag = quotient
    rows[:, :-1] += ord("0")
    rows[0::2, -1] = ord(sep)
    rows[1::2, -1] = ord("\n")
    keep = np.arange(width + 1, dtype=np.int8) >= (width - digits)[:, None]
    return rows[keep].tobytes().decode("ascii")


def underlying_undirected(g: Graph) -> Graph:
    """Undirected projection: ``{u, v}`` exists iff ``u->v`` or ``v->u``.

    Undirected input is returned unchanged.  The projection is cached
    on the graph, so repeated calls are free.
    """
    if not g.directed:
        return g
    if g._projection is None:
        src, dst = g.edge_arrays()
        g._projection = Graph.from_edges(
            g.n, src, dst, directed=False, original_ids=g.original_ids)
    return g._projection


def floor_sqrt_edges(g: Graph) -> int:
    """``floor(sqrt(m))``, the canonical club size for a sweep."""
    if g.m < 1:
        raise ValueError("graph has no edges")
    return math.isqrt(g.m)
