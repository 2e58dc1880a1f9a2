"""Differential tests on generated input.

* The vectorized edge-list tokenizer against the line loop: on every
  input both give the same graph, or the same error line.
* The id compaction against a dict, on both sides of its dense rule.
* ``Graph.from_edges`` against the hash-set reference ``NaiveGraph``.

hypothesis is a test-only dependency; without it the module is skipped.
"""

import io
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from richclub import EdgeListError, Graph, parse_edge_list  # noqa: E402
from richclub import graph  # noqa: E402
from richclub.graph import _first_appearance, _read_ids, \
    _scan_ids  # noqa: E402

from conftest import NaiveGraph  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, database=None)

# small ids repeat often; the others reach every digit position
ID = st.one_of(
    st.integers(0, 12),
    st.sampled_from([99, 100, 300, 900, 65535, 65536, 10 ** 7]),
    st.integers(0, 10 ** 7),
    st.integers(0, 2 ** 63 - 1),
).map(str)
ODD_TOKEN = st.sampled_from([
    str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64), "1" + "0" * 20,
    "0" * 22 + "5", "-1", "-0", "+3", "1_0", "007", "3.0", "x", "#", "1#",
    "٣",
])
CLEAN_SEP = st.sampled_from([" ", "\t", "  ", " \t"])
CLEAN_PAD = st.sampled_from(["", " ", "\t"])
CLEAN_OTHER = st.sampled_from([
    "", "   ", "\t", "# comment", "  # indented comment", "#",
    "# n=3 m=2 directed=0", "# café",
])
ODD_OTHER = st.sampled_from([
    "0 1 # inline", "0 1#", "\x0b", "\x0c0 1", "0 1\x0c", "1\r2", "4\n5",
    "# \r 1 2", "\x0b# comment",
])


@st.composite
def edge_line(draw, token=ID, pad=CLEAN_PAD, count=st.just(2)):
    tokens = [draw(token) for _ in range(draw(count))]
    return draw(pad) + draw(CLEAN_SEP).join(tokens) + draw(pad)


@st.composite
def edge_file(draw, odd_lines=st.nothing(), max_odd=0,
              ending=st.sampled_from(["\n", "\r\n"])):
    """Clean lines with up to ``max_odd`` lines of ``odd_lines`` put in."""
    lines = draw(st.lists(st.one_of(edge_line(), edge_line(), CLEAN_OTHER),
                          max_size=25))
    for _ in range(draw(st.integers(0, max_odd))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_lines))
    ends = [draw(ending) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no newline at the end of the file
    return "".join(a + b for a, b in zip(lines, ends)).encode()


CLEAN_FILE = edge_file()
ODD_LINE = st.one_of(
    edge_line(st.one_of(ID, ODD_TOKEN)),
    edge_line(count=st.sampled_from([1, 3])),
    edge_line(pad=st.sampled_from(["\x0b", "\x0c", "\xa0"])),
    ODD_OTHER)
ANY_FILE = st.one_of(
    CLEAN_FILE,
    edge_file(ODD_LINE, max_odd=2),
    edge_file(ending=st.sampled_from(["\n", "\r\n", "\r", "\r\r\n"])),
    st.builds(lambda a, b: a + b"# \xff\n" + b, CLEAN_FILE, CLEAN_FILE),
)

# tokenizer chunk sizes: the default, and ones that split every file
CHUNK = st.sampled_from([graph._SCAN_CHUNK, 1, 2, 7, 30])


def dict_compaction(ids):
    """``(original, codes)`` of ``ids`` in first-appearance order."""
    code = {}
    for v in ids.tolist():
        code.setdefault(v, len(code))
    return (np.array(list(code), dtype=np.int64),
            np.array([code[v] for v in ids.tolist()], dtype=np.int64))


def loop_graph(data, directed):
    """The line loop's reading of ``data``, compacted through a dict."""
    try:
        ids = _read_ids(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except EdgeListError as exc:
        return ("error", exc.line)
    except UnicodeDecodeError:
        return ("decode error",)
    original, codes = dict_compaction(ids)
    return Graph.from_edges(len(original), codes[0::2], codes[1::2],
                            directed=directed, original_ids=original)


def parsed(path, directed):
    try:
        return parse_edge_list(path, directed=directed)
    except EdgeListError as exc:
        return ("error", exc.line)
    except UnicodeDecodeError:
        return ("decode error",)


def assert_same(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert (got.n, got.m, got.directed) == (want.n, want.m, want.directed)
    assert got.original_ids.dtype == want.original_ids.dtype
    assert got.original_ids.tolist() == want.original_ids.tolist()
    # the stored edge list, in the order write_edge_list writes it
    src, dst = got.edge_arrays()
    assert src.dtype == dst.dtype == np.int32
    pairs = sorted(zip(*(a.tolist() for a in want.edge_arrays())))
    assert list(zip(src.tolist(), dst.tolist())) == pairs
    assert np.array_equal(got.degrees, want.degrees)
    assert got.loops_dropped == want.loops_dropped
    assert got.duplicates_dropped == want.duplicates_dropped


@pytest.fixture(scope="module")
def edges_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "edges.txt"


@SETTINGS
@given(data=ANY_FILE, directed=st.booleans(),
       chunk=CHUNK)
@example(data=b"0 0\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"3 3\r\n3 3\r\n", directed=True, chunk=3)
@example(data=b"9223372036854775808 1\n", directed=False, chunk=1)
@example(data=b"\r\n \t\n# only comments\n", directed=False, chunk=4)
@example(data=b"0 1\n4\n5\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"0 1\n1\r2\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"0 1 # inline\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"900 1\n65536 300\n1 900\n", directed=False, chunk=7)
# ids around the dense rule (largest id below twice the id count)
@example(data=b"7 0\n1 1\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"8 0\n1 1\n", directed=True, chunk=graph._SCAN_CHUNK)
@example(data=b"5 4\n3 2\n1 0\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"0 1\n9223372036854775807 2\n1 2\n", directed=False,
         chunk=graph._SCAN_CHUNK)
@example(data=b"6 6\n6 6\n", directed=False, chunk=graph._SCAN_CHUNK)
@example(data=b"4 4\n", directed=True, chunk=graph._SCAN_CHUNK)
def test_parse_matches_line_loop(edges_path, data, directed, chunk):
    want = loop_graph(data, directed)
    with mock.patch.object(graph, "_SCAN_CHUNK", chunk):
        fast = _scan_ids(data)
    if fast is not None:
        assert not isinstance(want, tuple)
        ids = _read_ids(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert np.array_equal(fast, ids)
    edges_path.write_bytes(data)
    assert_same(parsed(edges_path, directed), want)


@SETTINGS
@given(data=CLEAN_FILE, chunk=CHUNK)
def test_clean_input_takes_fast_path(data, chunk):
    if isinstance(loop_graph(data, False), tuple):
        return  # no edge line: the empty-input error
    with mock.patch.object(graph, "_SCAN_CHUNK", chunk):
        assert _scan_ids(data) is not None


@st.composite
def id_arrays(draw):
    """N ids whose largest is 2N - 1 (dense), 2N (sparse) or huge,
    drawn in any order, in descending order, or all equal."""
    n = draw(st.integers(1, 30))
    top = draw(st.sampled_from([2 * n - 1, 2 * n, 10 ** 12, 2 ** 63 - 1]))
    ids = draw(st.lists(st.integers(0, min(top, 2 * n)),
                        min_size=n, max_size=n))
    ids[draw(st.integers(0, n - 1))] = top
    order = draw(st.sampled_from(["drawn", "descending", "equal"]))
    if order == "descending":
        ids.sort(reverse=True)
    elif order == "equal":
        ids = [top] * n
    return np.array(ids, dtype=np.int64)


@SETTINGS
@given(ids=id_arrays())
@example(ids=np.array([3, 0, 1, 1], dtype=np.int64))
@example(ids=np.array([4, 0, 1, 1], dtype=np.int64))
def test_first_appearance_matches_dict(ids):
    original, codes = _first_appearance(ids)
    want_original, want_codes = dict_compaction(ids)
    assert original.dtype == codes.dtype == np.int64
    assert original.tolist() == want_original.tolist()
    assert codes.tolist() == want_codes.tolist()


@st.composite
def edge_arrays(draw):
    n = draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=40))
    # duplicates in both orientations, shuffled in
    pairs += draw(st.permutations(pairs + [(v, u) for u, v in pairs]))
    return n, pairs


@SETTINGS
@given(case=edge_arrays(), directed=st.booleans())
@example(case=(1, [(0, 0)]), directed=False)
@example(case=(3, [(1, 1), (2, 2), (1, 1)]), directed=True)
def test_from_edges_matches_naive(case, directed):
    n, pairs = case
    g = Graph.from_edges(n, [u for u, _ in pairs], [v for _, v in pairs],
                         directed=directed)
    # manifest lines first, so NaiveGraph's ids are the dense ids
    ref = NaiveGraph([f"{v} {v}" for v in range(n)]
                     + [f"{u} {v}" for u, v in pairs], directed=directed)
    loops = sum(u == v for u, v in pairs)
    assert (g.n, g.m) == (n, ref.m)
    assert g.loops_dropped == loops
    assert g.duplicates_dropped == len(pairs) - loops - ref.m
    src, dst = g.edge_arrays()
    assert src.dtype == dst.dtype == np.int32
    assert list(zip(src.tolist(), dst.tolist())) == sorted(ref.edges)
    degree = [0] * n
    for u, v in ref.edges:
        degree[u] += 1
        degree[v] += 1
    assert g.degrees.tolist() == degree
