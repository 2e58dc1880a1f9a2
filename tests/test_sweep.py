import io
import math

import numpy as np
import pytest

from richclub import (
    CSV_COLUMNS,
    Graph,
    GeneratorConfig,
    KGrid,
    SweepTable,
    degree_order,
    generate_ba,
    metrics_at_k,
    read_rows_csv,
    run_sweep,
    sociability_profile,
    underlying_undirected,
    write_rows_csv,
)

from conftest import edge_set, random_graph


def complete_graph(n):
    src, dst = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
    return Graph.from_edges(n, src, dst)


def star(leaves):
    return Graph.from_edges(leaves + 1, [0] * leaves,
                            list(range(1, leaves + 1)))


# ------------------------------------------------------ degree order


def test_degree_order_star_center_first():
    g = star(5)
    order = degree_order(g)
    assert order.node_at_rank.tolist() == [0, 1, 2, 3, 4, 5]
    assert order.degree_at_rank.tolist() == [5, 1, 1, 1, 1, 1]


def test_degree_order_ties_broken_by_id():
    g = complete_graph(4)
    order = degree_order(g)
    assert order.node_at_rank.tolist() == [0, 1, 2, 3]


def test_degree_order_stable_under_edge_permutation(rng):
    src = rng.integers(0, 50, 150)
    dst = rng.integers(0, 50, 150)
    g1 = Graph.from_edges(50, src, dst)
    perm = rng.permutation(len(src))
    g2 = Graph.from_edges(50, src[perm], dst[perm])
    o1, o2 = degree_order(g1), degree_order(g2)
    assert o1.node_at_rank.tolist() == o2.node_at_rank.tolist()
    # matches a plain sort of (degree, id) pairs
    ref = sorted(range(50), key=lambda v: (-g1.degrees[v], v))
    assert o1.node_at_rank.tolist() == ref


def test_degree_order_directed_uses_total_degree():
    # arcs: 0->1, 0->2, 3->0: node 0 has total degree 3
    g = Graph.from_edges(4, [0, 0, 3], [1, 2, 0], directed=True)
    order = degree_order(g)
    assert order.node_at_rank[0] == 0
    assert order.degree_at_rank[0] == 3


# --------------------------------------------------- hand-checked ks


def test_star_first_step():
    g = star(5)
    r = run_sweep(g, KGrid(kind="full"))[0]
    assert r.k == 1
    assert r.sum_di == 0 and r.sum_do == 5
    assert r.coverage == 1.0 and r.c1 == 1.0 and r.c2 is None
    assert r.components == 1 and r.lcc_size == 1


def test_triangle_k2():
    g = complete_graph(3)
    r = metrics_at_k(g, degree_order(g), 2)
    assert r.sum_di == 2 and r.sum_do == 2
    assert r.c1 == pytest.approx(2 / 3)
    assert r.c2 == 1.0 and r.c3 == 2.0


def test_k4_k3():
    g = complete_graph(4)
    r = metrics_at_k(g, degree_order(g), 3)
    assert (r.sum_di, r.sum_do) == (6, 3)
    assert (r.c1, r.c2, r.c3) == (0.5, 2.0, 2.0)
    assert r.components == 1 and r.lcc_size == 3


def test_k_equals_n_row():
    g = random_graph(np.random.default_rng(5), n_max=40, directed=False)
    r = metrics_at_k(g, degree_order(g), g.n)
    assert r.c1 == 0.0 and r.sum_do == 0
    assert r.c2 is None and r.coverage is None


def test_metrics_at_k_range_check():
    g = complete_graph(3)
    order = degree_order(g)
    with pytest.raises(ValueError):
        metrics_at_k(g, order, 0)
    with pytest.raises(ValueError):
        metrics_at_k(g, order, 4)


# ------------------------------------------- oracle equivalence core


def outside_edges(g, order, k):
    """Brute count of projection edges with both endpoints outside."""
    und = underlying_undirected(g)
    rank = order.rank_of_node
    src, dst = und.edge_arrays()
    return sum(1 for u, v in zip(src.tolist(), dst.tolist())
               if rank[u] >= k and rank[v] >= k)


def path(nodes):
    return Graph.from_edges(len(nodes), nodes[:-1], nodes[1:])


def forest_cases():
    """Graphs that stress the spanning forest behind the component
    columns (ranks follow ids among nodes of equal degree)."""
    # ranks alternate low/high along the path: one long hook chain
    yield path([v for i in range(32) for v in (i, 63 - i)])
    # bit-reversed ranks along the path: a new Boruvka round per doubling
    yield path([int(format(v, "06b")[::-1], 2) for v in range(64)])
    # every edge shares the centre's rank
    yield star(40)
    # two 9-cliques, each with a pendant; the edge between the pendants
    # has the last rank, so the halves join only at k = n
    src, dst = zip(*[(h + i, h + j) for h in (0, 10)
                     for i in range(9) for j in range(i + 1, 9)])
    yield Graph.from_edges(20, src + (8, 18, 9), dst + (9, 19, 19))


def test_engines_agree_everywhere(rng):
    graphs = [random_graph(rng, n_max=80) for _ in range(12)]
    for g in graphs + list(forest_cases()):
        order = degree_order(g)
        fast = run_sweep(g, KGrid(kind="full"))
        for k in range(1, g.n + 1):
            assert fast[k - 1] == metrics_at_k(g, order, k)


def test_coverage_with_isolated_highest_ids():
    # node 4 is isolated, so node 3 is the highest id with an edge;
    # the club {2} covers nodes 0, 1 and 3, three of its four outsiders
    g = Graph.from_edges(5, [2, 2, 2, 1], [0, 1, 3, 3])
    order = degree_order(g)
    rows = run_sweep(g, KGrid(kind="full"))
    assert rows[0].coverage == 0.75
    for k in range(1, g.n + 1):
        assert rows[k - 1] == metrics_at_k(g, order, k)


def test_conservation(rng):
    for trial in range(6):
        g = random_graph(rng, n_max=60)
        order = degree_order(g)
        m = underlying_undirected(g).m
        for k in range(1, g.n + 1, 3):
            row = metrics_at_k(g, order, k)
            assert (row.sum_di // 2 + row.sum_do
                    + outside_edges(g, order, k)) == m


def test_monotone_accumulators(rng):
    g = random_graph(rng, n_max=100, directed=False)
    rows = list(run_sweep(g, KGrid(kind="full")))
    for a, b in zip(rows, rows[1:]):
        assert b.sum_di >= a.sum_di
        assert b.internal_edges >= a.internal_edges
        assert b.lcc_size >= a.lcc_size
    assert rows[-1].sum_do == 0 and rows[-1].c1 == 0.0


def test_coverage_bound(rng):
    g = random_graph(rng, n_max=100, directed=False)
    rows = list(run_sweep(g, KGrid(kind="full")))
    for r in rows[:-1]:
        assert r.coverage <= min(1.0, r.sum_do / (g.n - r.k)) + 1e-12


def test_relabeling_changes_nothing_at_strict_degree_drops(rng):
    for _ in range(4):
        g = random_graph(rng, n_max=60, directed=False)
        perm = rng.permutation(g.n)
        src, dst = g.edge_arrays()
        g2 = Graph.from_edges(g.n, perm[src], perm[dst])
        o1, o2 = degree_order(g), degree_order(g2)
        rows1 = run_sweep(g, KGrid(kind="full"))
        rows2 = run_sweep(g2, KGrid(kind="full"))
        deg = o1.degree_at_rank
        for k in range(1, g.n):
            if deg[k - 1] > deg[k]:  # club membership is unambiguous
                assert rows1[k - 1] == rows2[k - 1], k


# ----------------------------------------------------------- KGrid


def test_grid_injects_sqrt_values(rng):
    g = generate_ba(GeneratorConfig.ba(500, 4, seed=1))
    ks = KGrid(kind="root", points=40).k_values(g.n, g.m)
    assert math.isqrt(g.m) in ks
    assert math.isqrt(g.n) in ks
    assert ks[0] == 1 and ks[-1] == g.n
    assert np.all(np.diff(ks) > 0)


def test_grid_kinds():
    assert KGrid(kind="full").k_values(10, 20).tolist() == list(range(1, 11))
    lin = KGrid(kind="linear", points=5).k_values(100, 50)
    assert lin[0] == 1 and lin[-1] == 100
    with pytest.raises(ValueError, match="at least 1 point"):
        KGrid(kind="root", points=0)
    with pytest.raises(ValueError, match="unknown grid kind 'banana'"):
        KGrid(kind="banana")
    with pytest.raises(ValueError, match="grid points must be an integer"):
        KGrid(kind="linear", points=2.5)
    assert KGrid(kind="linear", points=np.int64(5)).k_values(
        100, 50).tolist() == lin.tolist()


def test_sweep_table_columns_round_trip_through_rows(rng):
    for directed in (False, True):
        g = random_graph(rng, n_max=60, directed=directed)
        table = run_sweep(g, KGrid(kind="full"))
        rows = list(table)
        assert rows[0].c2 is None and np.isnan(table.c2[0])  # k = 1
        assert (table.internal_arcs is None) == (not directed)
        again = SweepTable.from_rows(rows)
        for name in CSV_COLUMNS:
            np.testing.assert_array_equal(getattr(again, name),
                                          getattr(table, name))


def test_run_sweep_full_grid_counts_rows(rng):
    g = random_graph(rng, n_max=100, directed=False)
    rows = run_sweep(g, KGrid(kind="full"))
    assert len(rows) == g.n
    assert [r.k for r in rows] == list(range(1, g.n + 1))


# ----------------------------------------------------- sociability


def test_sociability_complete_graph_increases():
    g = complete_graph(30)
    rows = run_sweep(g, KGrid(kind="full"))
    raw = [r.sociability_raw for r in rows]
    assert raw == sorted(raw)
    for r in rows:
        assert r.sociability_raw == pytest.approx((r.k - 1) / 2)
    profile = sociability_profile(rows)
    assert profile.argmax_k == 30
    assert max(rows.sociability_raw / profile.max_raw) == 1.0


def test_sociability_normalized_max_at_argmax(rng):
    g = random_graph(rng, n_max=120, directed=False)
    rows = run_sweep(g, KGrid(kind="full"))
    profile = sociability_profile(rows)
    at = int(np.searchsorted(rows.k, profile.argmax_k))
    assert rows.k[at] == profile.argmax_k
    assert rows.sociability_raw[at] / profile.max_raw == 1.0


def test_sociability_degenerate_profile_errors():
    g = Graph.from_edges(3, [0], [0])  # loop dropped: no edges at all
    rows = run_sweep(g, KGrid(kind="full"))
    with pytest.raises(ValueError, match="degenerate"):
        sociability_profile(rows)


def test_ba_sociability_flat_after_5_percent():
    g = generate_ba(GeneratorConfig.ba(5000, 10, seed=77))
    rows = run_sweep(g, KGrid(kind="full"))
    tail = [r.sociability_raw for r in rows if r.k >= 0.05 * g.n]
    mid = np.median(tail)
    assert max(tail) <= 1.1 * mid
    assert min(tail) >= 0.9 * mid


def test_single_node_graph_sweeps():
    g = Graph.from_edges(1, [0], [0])  # loop dropped
    rows = run_sweep(g, KGrid(kind="full"))
    assert len(rows) == 1
    r = rows[0]
    assert r.c1 == 0.0 and r.c2 is None and r.coverage is None
    assert r.components == 1 and r.lcc_size == 1


def test_arcless_directed_graph_sweeps():
    g = Graph.from_edges(3, [], [], directed=True)
    rows = run_sweep(g, KGrid(kind="full"))
    assert rows[-1].internal_arcs == 0
    assert rows[-1].sym_ratio is None
    assert rows[-1].components == 3


def test_c3_matches_networkx_rich_club_coefficient():
    # c3 is twice the unnormalized rich-club coefficient of Colizza et
    # al. (Nature Physics 2006) at the club of all nodes above degree d
    nx = pytest.importorskip("networkx")
    g = generate_ba(GeneratorConfig.ba(3000, 3, seed=1))
    src, dst = g.edge_arrays()
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(zip(src.tolist(), dst.tolist()))
    phi = nx.rich_club_coefficient(G, normalized=False)
    rows = run_sweep(g, KGrid(kind="full"))
    checked = 0
    for d, coeff in phi.items():
        k = int(np.count_nonzero(g.degrees > d))
        if k >= 2:
            assert rows[k - 1].c3 == pytest.approx(2 * coeff,
                                                   rel=1e-12), d
            checked += 1
    assert checked > 100


def test_directed_sweep_reports_both_sqrt_conventions():
    from richclub import GeneratorConfig, generate_er
    g = generate_er(GeneratorConfig.er(500, 0.05, seed=2, directed=True))
    ks = {r.k for r in run_sweep(g)}
    assert math.isqrt(g.m) in ks                          # arc count
    assert math.isqrt(underlying_undirected(g).m) in ks   # projection


# ----------------------------------------------------- reciprocity


def brute_reciprocity(g, order, k):
    club = set(order.node_at_rank[:k].tolist())
    edges = edge_set(g)
    arcs = recip = 0
    for u in club:
        for v in club:
            if u != v and (u, v) in edges:
                arcs += 1
                if (v, u) in edges:
                    recip += 1
    return arcs, recip


def arc_fields(row):
    return row.internal_arcs, row.reciprocal_arcs, row.sym_ratio


def test_reciprocity_hand_cases():
    # a<->b plus a->c
    g = Graph.from_edges(3, [0, 1, 0], [1, 0, 2], directed=True)
    assert arc_fields(metrics_at_k(g, degree_order(g), 2)) == (2, 2, 1.0)

    g = Graph.from_edges(2, [0], [1], directed=True)
    assert arc_fields(metrics_at_k(g, degree_order(g), 2)) == (1, 0, 0.0)


def test_metrics_at_k_leaves_arc_fields_empty_on_undirected_input():
    g = complete_graph(3)
    for k in (1, 2, 3):
        assert arc_fields(metrics_at_k(g, degree_order(g), k)) == (
            None, None, None)


def test_reciprocity_matches_pair_scan(rng):
    g = random_graph(rng, n_max=100, directed=True)
    order = degree_order(g)
    rows = run_sweep(g, KGrid(kind="full"))
    for k in range(1, g.n + 1, 7):
        arcs, recip, ratio = arc_fields(metrics_at_k(g, order, k))
        assert (arcs, recip) == brute_reciprocity(g, order, k)
        assert ratio == (recip / arcs if arcs else None)
        assert arc_fields(rows[k - 1]) == (arcs, recip, ratio)


def test_undirected_rows_leave_arc_fields_empty(rng):
    g = random_graph(rng, n_max=40, directed=False)
    for r in run_sweep(g, KGrid(kind="full")):
        assert r.internal_arcs is None
        assert r.reciprocal_arcs is None
        assert r.sym_ratio is None


# ------------------------------------------------------------- CSV


def test_csv_round_trip(rng):
    for directed in (False, True):
        g = random_graph(rng, n_max=60, directed=directed)
        rows = run_sweep(g, KGrid(kind="root", points=25))
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        text = buf.getvalue()
        header = text.splitlines()[0]
        assert header == ("k,degree_at_k,sum_di,sum_do,internal_edges,"
                          "c1,c2,c3,sociability_raw,components,lcc_size,"
                          "coverage,internal_arcs,reciprocal_arcs,"
                          "sym_ratio")
        back = read_rows_csv(iter(text.splitlines()))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.k == b.k and a.sum_di == b.sum_di
            assert (a.c2 is None) == (b.c2 is None)
            if a.c2 is not None:
                assert b.c2 == pytest.approx(a.c2, rel=1e-5)


def test_csv_nulls_are_empty_fields():
    g = star(3)
    rows = run_sweep(g, KGrid(kind="full"))
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    first = lines[1].split(",")
    assert first[6] == ""          # c2 null at k=1
    last = lines[-1].split(",")
    assert last[11] == ""          # coverage null at k=n
    assert last[12] == last[13] == last[14] == ""  # arc fields


def test_csv_floats_use_6_significant_digits():
    g = complete_graph(7)
    rows = run_sweep(g, KGrid(kind="full"))
    buf = io.StringIO()
    write_rows_csv(rows, buf)
    c1_field = buf.getvalue().splitlines()[3].split(",")[5]
    row = rows[2]
    assert c1_field == f"{row.c1:.6g}"
