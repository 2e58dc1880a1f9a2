import io
import math
import tracemalloc

import numpy as np
import pytest

from richclub import (
    EdgeListError,
    GeneratorConfig,
    Graph,
    floor_sqrt_edges,
    generate_ba,
    parse_edge_list,
    underlying_undirected,
    write_edge_list,
)
from richclub.graph import _read_ids, _scan_ids

from conftest import NaiveGraph, edge_set, random_lines


def test_parse_undirected_collapses_dup_and_drops_loop():
    g = parse_edge_list(["0 1", "1 0", "2 2"])
    assert g.n == 3  # node 2 appears even though its loop is dropped
    assert g.m == 1
    assert g.loops_dropped == 1
    assert g.duplicates_dropped == 1


def test_parse_directed_keeps_reciprocal_arcs():
    g = parse_edge_list(["0 1", "1 0"], directed=True)
    assert g.n == 2 and g.m == 2
    assert edge_set(g) == {(0, 1), (1, 0)}


def test_parse_compacts_noncontiguous_ids_in_appearance_order():
    g = parse_edge_list(["100 7", "7 42"])
    assert g.n == 3
    assert g.original_ids.tolist() == [100, 7, 42]
    assert edge_set(g) == {(0, 1), (1, 2)}


def test_parse_matches_naive_builder_on_random_files(rng):
    for directed in (False, True):
        for trial in range(10):
            lines = random_lines(rng, int(rng.integers(1, 40)), 25)
            ref = NaiveGraph(lines, directed=directed)
            g = parse_edge_list(lines, directed=directed)
            assert g.n == ref.n
            assert g.m == ref.m
            assert edge_set(g) == ref.edges


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list(["0 1", "2 x"])
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list(["0 1", "1 2", "3 4 5"])
    with pytest.raises(EdgeListError, match="line 1"):
        parse_edge_list(["-1 2"])


def test_parse_int64_bounds_on_fast_path(tmp_path):
    top = 2 ** 63 - 1
    path = tmp_path / "edges.txt"
    path.write_text(f"0 1\n{top} 1\n900 65536\n")
    ids = [0, 1, top, 1, 900, 65536]
    assert _scan_ids(path.read_bytes()).tolist() == ids
    assert parse_edge_list(path).original_ids.tolist() == [0, 1, top, 900,
                                                           65536]
    for big in (2 ** 63, 10 ** 20):
        # the fast path declines, and the line loop reports the line
        path.write_text(f"0 1\n{big} 2\n")
        assert _scan_ids(path.read_bytes()) is None
        with pytest.raises(EdgeListError, match="line 2: .*int64"):
            parse_edge_list(path)


def test_parse_int64_bounds_in_line_loop():
    with pytest.raises(EdgeListError, match="line 3: .*int64"):
        _read_ids(["# c", "0 1", "2 100000000000000000000"])
    with pytest.raises(EdgeListError, match="line 1: .*int64"):
        _read_ids([f"{2 ** 63} 0"])
    # zero-padded ids longer than 19 digits are valid, via the loop
    g = parse_edge_list(["0000000000000000000000007 1"])
    assert g.original_ids.tolist() == [7, 1]


def test_parse_accepts_tabs_and_file_objects():
    g = parse_edge_list(io.StringIO("# c\n0\t1\n1\t2\n"))
    assert (g.n, g.m) == (3, 2)


def test_parse_empty_input_is_an_error():
    with pytest.raises(EdgeListError, match="empty"):
        parse_edge_list([])
    with pytest.raises(EdgeListError, match="empty"):
        parse_edge_list(["# only a comment"])


def test_parse_peak_memory_is_bounded_by_file_size(tmp_path):
    # numpy reports its buffers to tracemalloc, so the traced peak
    # covers the file bytes, the id buffer and the compaction arrays
    ba = generate_ba(GeneratorConfig.ba(200_000, 10, 3))
    # the same graph with distinct ids below 10^12 takes the sparse path
    labels = np.random.default_rng(3).choice(10 ** 12, ba.n, replace=False)
    sparse = Graph.from_edges(ba.n, *ba.edge_arrays(), original_ids=labels)
    for name, graph in [("dense", ba), ("sparse", sparse)]:
        path = tmp_path / f"{name}.txt"
        write_edge_list(graph, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            g = parse_edge_list(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (200_000, 200_000 * 10 - 55)
        assert peak <= 6 * size, f"{name}: peak {peak / size:.2f} x the file"


def test_degree_sums(rng):
    for directed in (False, True):
        lines = random_lines(rng, 60, 30)
        g = parse_edge_list(lines, directed=directed)
        assert int(g.degrees.sum()) == 2 * g.m
        want = [0] * g.n
        for u, v in edge_set(g):
            want[u] += 1
            want[v] += 1
        assert g.degrees.tolist() == want


def test_neighbor_lists_sorted_and_membership(rng):
    # the stored edge list: the input's edges, sorted, each once with
    # src < dst
    lines = random_lines(rng, 80, 40)
    g = parse_edge_list(lines)
    src, dst = g.edge_arrays()
    pairs = list(zip(src.tolist(), dst.tolist()))
    assert pairs == sorted(set(pairs))
    assert all(u < v for u, v in pairs)
    assert set(pairs) == NaiveGraph(lines).edges


def test_write_parse_round_trip_preserves_labels(rng):
    for directed in (False, True):
        lines = random_lines(rng, 50, 20) + ["19 19"]  # isolated via loop
        g = parse_edge_list(lines, directed=directed)
        buf = io.StringIO()
        write_edge_list(g, buf)
        g2 = parse_edge_list(buf.getvalue().splitlines(),
                             directed=directed)
        assert (g2.n, g2.m) == (g.n, g.m)
        assert edge_set(g2) == edge_set(g)
        # original labels survive the trip as well
        assert g2.original_ids.tolist() == g.original_ids.tolist()


def fstring_edge_list(g) -> str:
    """Reference writer: the per-line f-strings that the bulk formatter
    of ``write_edge_list`` replaced."""
    label = g.original_ids
    if label is None:
        label = np.arange(g.n, dtype=np.int64)
    src, dst = g.edge_arrays()
    return (f"# n={g.n} m={g.m} directed={int(g.directed)}\n"
            + "".join(f"{v} {v}\n" for v in label.tolist())
            + "".join(f"{u} {v}\n" for u, v in zip(label[src].tolist(),
                                                   label[dst].tolist())))


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("ids", ["dense", "digits", "int64"])
def test_write_edge_list_matches_fstring_writer(rng, tmp_path, directed,
                                                ids):
    # 40_000 edges span more than one formatting chunk; ids 200..299
    # never appear in an edge, so those nodes are isolated
    n = 300
    src = rng.integers(0, 200, 40_000)
    dst = rng.integers(0, 200, 40_000)
    original = {
        "dense": None,
        "digits": np.array(
            sorted({0, 2 ** 63 - 1} | {10 ** j + d for j in range(1, 19)
                                       for d in (-1, 0, 1)})
            + list(range(5 * 10 ** 17, 5 * 10 ** 17 + n - 56))),
        "int64": rng.integers(0, 2 ** 63 - 1, n, endpoint=True),
    }[ids]
    g = Graph.from_edges(n, src, dst, directed=directed,
                         original_ids=original)
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == fstring_edge_list(g)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert path.read_text() == buf.getvalue()
    g2 = parse_edge_list(path, directed=directed)
    assert (g2.n, g2.m) == (g.n, g.m)
    assert edge_set(g2) == edge_set(g)
    assert g2.original_ids.tolist() == (
        list(range(n)) if original is None else original.tolist())


@pytest.mark.parametrize("ids", [
    [5],                                    # one label for three nodes
    [[1, 2, 3]],                            # not 1-D
    [1.0, 2.0, 3.0],                        # not integers
    [1, -3, 4],                             # the format has no sign
    np.array([1, 2, 2 ** 63], np.uint64),   # does not fit in int64
])
def test_from_edges_rejects_bad_original_ids(ids):
    # caught when the graph is built, not when it is written
    with pytest.raises(ValueError, match="original_ids"):
        Graph.from_edges(3, [0, 1], [1, 2], original_ids=ids)
    labels = np.array([7, 2 ** 63 - 1, 0], np.uint64)
    g = Graph.from_edges(3, [0, 1], [1, 2], original_ids=labels)
    labels[0] = 8  # the graph keeps its own copy
    assert g.original_ids.dtype == np.int64
    assert g.original_ids.tolist() == [7, 2 ** 63 - 1, 0]
    with pytest.raises(ValueError):
        g.original_ids[0] = 1


def test_write_edge_list_single_node_without_edges():
    # a largest id that is a power of ten needs its full digit count
    for ids in (None, np.array([2 ** 63 - 1]), np.array([10]),
                np.array([10 ** 18])):
        g = Graph.from_edges(1, [], [], original_ids=ids)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == fstring_edge_list(g)
        assert parse_edge_list(buf.getvalue().splitlines()).n == 1


def test_write_header_records_counts():
    g = parse_edge_list(["5 6", "6 7"])
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue().splitlines()[0] == "# n=3 m=2 directed=0"


def test_write_and_parse_accept_paths(tmp_path):
    g = parse_edge_list(["5 6", "6 7"])
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    g2 = parse_edge_list(str(path))
    assert (g2.n, g2.m) == (3, 2)
    assert edge_set(g2) == edge_set(g)


def test_underlying_undirected_symmetrizes():
    g = parse_edge_list(["0 1", "1 0"], directed=True)
    und = underlying_undirected(g)
    assert not und.directed and und.m == 1

    g = parse_edge_list(["0 1", "0 2"], directed=True)
    und = underlying_undirected(g)
    assert und.m == 2 and edge_set(und) == {(0, 1), (0, 2)}


def test_underlying_undirected_identity_on_undirected():
    g = parse_edge_list(["0 1"])
    assert underlying_undirected(g) is g


def test_underlying_undirected_matches_pair_set_union(rng):
    for _ in range(5):
        src = rng.integers(0, 40, size=50)
        dst = rng.integers(0, 40, size=50)
        g = Graph.from_edges(40, src, dst, directed=True)
        ref = set()
        for u, v in zip(src.tolist(), dst.tolist()):
            if u != v:
                ref.add((min(u, v), max(u, v)))
        assert edge_set(underlying_undirected(g)) == ref


def test_floor_sqrt_edges_values():
    # published network sizes with known floor(sqrt(m))
    assert math.isqrt(817031) == 903
    assert math.isqrt(2989945) == 1729
    g = Graph.from_edges(2, [0], [1])
    assert floor_sqrt_edges(g) == 1


def test_floor_sqrt_edges_brackets_m(rng):
    for _ in range(10):
        g = Graph.from_edges(
            60, rng.integers(0, 60, 200), rng.integers(0, 60, 200))
        if g.m == 0:
            continue
        r = floor_sqrt_edges(g)
        assert r * r <= g.m < (r + 1) * (r + 1)


def test_floor_sqrt_edges_rejects_empty():
    g = parse_edge_list(["0 0"])  # single node, loop dropped
    assert g.m == 0
    with pytest.raises(ValueError):
        floor_sqrt_edges(g)


def test_from_edges_rejects_non_integer_endpoints():
    # a cast to int would truncate 0.9 -> 0 and read True as 1
    for src, dst in [([0.9, 1.7], [1.2, 2.5]), ([True], [False]),
                     (np.array([0, 1]), np.array([1.0, 2.0]))]:
        with pytest.raises(ValueError, match="integers"):
            Graph.from_edges(3, src, dst)
    # an empty list is float64 but holds no endpoint
    assert Graph.from_edges(3, [], []).m == 0
    assert edge_set(Graph.from_edges(3, np.array([0], np.uint8), [2])) == {
        (0, 2)}


def test_graph_is_immutable():
    g = parse_edge_list(["0 1", "1 2"])
    for arr in g.edge_arrays():
        with pytest.raises(ValueError):
            arr[0] = 2
    with pytest.raises(ValueError):
        g.degrees[0] = 99
