import json
import math

import numpy as np
import pytest

from richclub import (
    AxiomThresholds,
    GeneratorConfig,
    Graph,
    KGrid,
    VerificationError,
    degree_order,
    evaluate_axioms,
    generate_ba,
    generate_er,
    internal_edges_by_k,
    metrics_at_k,
    minimal_elite,
    run_sweep,
    underlying_undirected,
)

from conftest import random_graph
from model_checks import estimate_er_density, verify_ba_bound


def complete_graph(n):
    src, dst = zip(*[(i, j) for i in range(n) for j in range(i + 1, n)])
    return Graph.from_edges(n, src, dst)


def test_thresholds_validation():
    with pytest.raises(ValueError):
        AxiomThresholds(c1_min=0.0)
    with pytest.raises(ValueError):
        AxiomThresholds(c2_min=1.0)
    with pytest.raises(ValueError):
        AxiomThresholds(c3_min=2.0)
    AxiomThresholds(c3_min=1.5)  # density ratio may exceed 1


def test_k4_passes_moderate_thresholds():
    g = complete_graph(4)
    rows = run_sweep(g, KGrid(kind="full"))
    rep = evaluate_axioms(rows, 3, AxiomThresholds(0.4, 0.5, 0.5), m=g.m)
    assert rep.passes == {"a1": True, "a2": True, "a4": True}
    assert rep.constants["c1"] == 0.5
    assert rep.constants["c2"] == 2.0
    assert rep.constants["c3"] == 2.0


def test_k_equals_n_fails_influence():
    g = random_graph(np.random.default_rng(1), n_max=50, directed=False)
    rows = run_sweep(g, KGrid(kind="full"))
    rep = evaluate_axioms(rows, g.n, AxiomThresholds(c1_min=0.01), m=g.m)
    assert not rep.passes["a1"]
    assert not rep.passes["a2"]  # c2 undefined without boundary edges


def test_missing_k_is_an_error():
    g = complete_graph(4)
    rows = run_sweep(g, KGrid(kind="full"))
    with pytest.raises(ValueError, match="no sweep row"):
        evaluate_axioms(rows, 99, m=g.m)


def test_report_json_schema():
    g = complete_graph(6)
    rows = run_sweep(g, KGrid(kind="full"))
    rep = minimal_elite(rows, AxiomThresholds(0.2, 0.2, 0.2), m=g.m)
    payload = json.loads(rep.to_json())
    assert set(payload) == {"k", "sqrt_m", "constants", "thresholds",
                            "passes", "minimal_k",
                            "minimal_k_over_sqrt_m", "theorem_checks"}
    assert set(payload["constants"]) == {"c1", "c2", "c3"}
    assert set(payload["passes"]) == {"a1", "a2", "a4"}
    assert set(payload["thresholds"]) == {"c1_min", "c2_min", "c3_min"}


def test_claim1_arithmetic_on_every_passing_report(rng):
    # whenever influence and stability pass, k^2 > c1*c2*m must hold
    for _ in range(8):
        g = random_graph(rng, n_max=80, directed=False)
        if g.m == 0:
            continue
        rows = run_sweep(g, KGrid(kind="full"))
        thr = AxiomThresholds(0.02, 0.02, 0.001)
        for row in rows:
            rep = evaluate_axioms(rows, row.k, thr, m=g.m)
            if rep.passes["a1"] and rep.passes["a2"]:
                check = next(c for c in rep.theorem_checks
                             if c["name"] == "size_lower_bound")
                assert check["passed"]
                assert (row.k ** 2
                        > rep.constants["c1"] * rep.constants["c2"] * g.m)


def test_complete_graph_minimal_elite_respects_claim1():
    for n in (20, 50, 90):
        g = complete_graph(n)
        rows = run_sweep(g, KGrid(kind="full"))
        thr = AxiomThresholds(0.01, 0.01, 0.01)
        rep = minimal_elite(rows, thr, m=g.m)
        assert rep.minimal_k is not None
        row = next(r for r in rows if r.k == rep.minimal_k)
        assert rep.minimal_k ** 2 > row.c1 * (row.c2 or 0.0) * g.m


def test_minimal_elite_monotone_in_thresholds():
    g = generate_ba(GeneratorConfig.ba(300, 4, seed=2))
    rows = run_sweep(g, KGrid(kind="full"))
    loose = minimal_elite(rows, AxiomThresholds(0.01, 0.01, 0.005), m=g.m)
    tight = minimal_elite(rows, AxiomThresholds(0.05, 0.05, 0.01), m=g.m)
    assert loose.minimal_k is not None
    if tight.minimal_k is not None:
        assert loose.minimal_k <= tight.minimal_k


def test_minimal_elite_none_for_edgeless_graph():
    g = Graph.from_edges(5, [0], [0])  # loops dropped, no edges
    rows = run_sweep(g, KGrid(kind="full"))
    rep = minimal_elite(rows, AxiomThresholds(), m=g.m)
    assert rep.minimal_k is None
    assert rep.minimal_k_over_sqrt_m is None
    assert rep.verdict.startswith("none")


def _passes_oracle(row, thr):
    return (row.c1 >= thr.c1_min and row.c2 is not None
            and row.c2 >= thr.c2_min
            and (not thr.check_density or row.c3 >= thr.c3_min))


@pytest.mark.parametrize("thr", [
    AxiomThresholds(),
    AxiomThresholds(check_density=False),
    AxiomThresholds(0.5, 0.5, 0.3),  # larger clubs, and one with none
])
def test_minimal_elite_exact_over_full_grid(rng, thr):
    # the first k at which the oracle passes is minimal_elite over the
    # full grid, and no coarser grid finds a smaller passing club
    for _ in range(12):
        g = random_graph(rng)
        order = degree_order(g)
        exact = next((k for k in range(1, g.n + 1)
                      if _passes_oracle(metrics_at_k(g, order, k), thr)),
                     None)
        m = underlying_undirected(g).m
        rep = minimal_elite(run_sweep(g, KGrid("full")), thr, m=m)
        assert rep.minimal_k == exact
        for kind in ("root", "linear"):
            grid = KGrid(kind, int(rng.integers(1, 40)))
            k = minimal_elite(run_sweep(g, grid), thr, m=m).minimal_k
            assert k is None or (exact is not None and k >= exact)


def test_minimal_elite_reports_ratio_to_sqrt_m():
    g = generate_ba(GeneratorConfig.ba(400, 5, seed=3))
    rows = run_sweep(g, KGrid(kind="full"))
    rep = minimal_elite(rows, AxiomThresholds(0.05, 0.03, 0.01), m=g.m)
    assert rep.minimal_k is not None
    assert rep.minimal_k_over_sqrt_m == pytest.approx(
        rep.minimal_k / math.isqrt(g.m))


# ------------------------------------------------- model verifiers


def test_ba_bound_holds_on_generated_graphs():
    for seed in range(5):
        for mp in (3, 10):
            g = generate_ba(GeneratorConfig.ba(2000, mp, seed=seed))
            rep = verify_ba_bound(g, degree_order(g), mp)
            assert rep.max_ratio <= mp + mp * (mp - 1) / 2


def test_ba_bound_seed_clique_exact():
    mp = 6
    g = generate_ba(GeneratorConfig.ba(300, mp, seed=8))
    order = degree_order(g)
    cum = internal_edges_by_k(g, order)
    # at k=m0 the bound allows the full seed clique
    assert cum[mp] <= mp * mp + mp * (mp - 1) // 2


def test_ba_bound_violation_raises():
    # a complete graph is far denser than any attachment process
    g = complete_graph(30)
    with pytest.raises(VerificationError, match="bound violated"):
        verify_ba_bound(g, degree_order(g), mprime=1)


def test_er_density_moment_arithmetic():
    # complete graph, p=0.5: internal at k=5 is 10, mean 5, sigma sqrt(2.5)
    g = complete_graph(5)
    rep = estimate_er_density(g, degree_order(g), 0.5, [5])
    row = rep.rows[0]
    assert row["internal_edges"] == 10
    assert row["mean"] == pytest.approx(5.0)
    assert row["sigma"] == pytest.approx(math.sqrt(2.5))
    assert row["z"] == pytest.approx(5 / math.sqrt(2.5))
    assert row["passed"]  # below the gated club size


def test_er_density_small_k_not_gated():
    g = generate_er(GeneratorConfig.er(5000, 2e-3, seed=4))
    rep = estimate_er_density(g, degree_order(g), 2e-3, [50, 200])
    assert rep.passed  # informational rows only below min_k


def test_er_density_degenerate_p1():
    g = generate_er(GeneratorConfig.er(40, 1.0, seed=1))
    rep = estimate_er_density(g, degree_order(g), 1.0, [10, 40])
    assert rep.passed
    assert all(r["z"] == 0.0 for r in rep.rows)


def test_er_density_flags_structured_graph():
    # a BA graph is nothing like Binomial(C(k,2), p) at the top
    g = generate_ba(GeneratorConfig.ba(20_000, 10, seed=1))
    p = 2 * g.m / (g.n * (g.n - 1))
    rep = estimate_er_density(g, degree_order(g), p, [1000, 3000])
    assert not rep.passed
