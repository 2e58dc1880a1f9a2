import collections
import itertools
import math

import numpy as np
import pytest

from richclub import (
    BipartiteAffiliation,
    GeneratorConfig,
    generate,
    generate_affiliation,
    generate_ba,
    generate_er,
    write_bipartite,
)

from conftest import edge_set
from model_checks import reference_affiliation


# ---------------------------------------------------------------- ER


def naive_er_edges(n, p, seed):
    """Walk every pair explicitly, consuming the same geometric gap
    stream as the generator; validates index -> pair inversion."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    next_hit = -1 + int(rng.geometric(p))
    edges = set()
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if idx == next_hit:
                edges.add((u, v))
                next_hit += int(rng.geometric(p))
            idx += 1
    return edges


def naive_er_arcs(n, p, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    next_hit = -1 + int(rng.geometric(p))
    arcs = set()
    idx = 0
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if idx == next_hit:
                arcs.add((u, v))
                next_hit += int(rng.geometric(p))
            idx += 1
    return arcs


def test_er_p1_is_complete():
    g = generate_er(GeneratorConfig.er(4, 1.0, seed=0))
    assert g.m == 6
    g = generate_er(GeneratorConfig.er(30, 1.0, seed=0))
    assert g.m == 30 * 29 // 2


def test_er_edge_count_within_5_sigma():
    # a tiny p draws gaps near 2^63, whose sum once wrapped (1e-19) or
    # never passed the last pair (1e-300); 5 sigma there allows m = 0 only
    for n, p, directed in [(1000, 0.01, False), (100, 1e-19, False),
                           (100, 1e-19, True), (3_000_000, 1e-300, False)]:
        pairs = n * (n - 1) // (1 if directed else 2)
        mean = pairs * p
        sigma = math.sqrt(mean * (1 - p))
        for seed in (1, 2, 3):
            g = generate_er(GeneratorConfig.er(n, p, seed,
                                               directed=directed))
            assert abs(g.m - mean) <= 5 * sigma, (n, p, directed, seed)


def test_er_matches_naive_pair_walk():
    g = generate_er(GeneratorConfig.er(100, 0.1, seed=1234))
    assert edge_set(g) == naive_er_edges(100, 0.1, 1234)
    g = generate_er(GeneratorConfig.er(57, 0.03, seed=99))
    assert edge_set(g) == naive_er_edges(57, 0.03, 99)


def test_directed_er_matches_naive_walk():
    g = generate_er(GeneratorConfig.er(60, 0.08, seed=7, directed=True))
    assert g.directed
    assert edge_set(g) == naive_er_arcs(60, 0.08, 7)


def test_er_determinism():
    a = generate_er(GeneratorConfig.er(400, 0.02, seed=5))
    b = generate_er(GeneratorConfig.er(400, 0.02, seed=5))
    assert edge_set(a) == edge_set(b)
    c = generate_er(GeneratorConfig.er(400, 0.02, seed=6))
    assert edge_set(a) != edge_set(c)


def test_er_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig.er(10, 0.0, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig.er(10, 1.5, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig.er(0, 0.5, seed=1)
    with pytest.raises(ValueError, match="er: n must be an integer"):
        GeneratorConfig.er(10.5, 0.3, seed=1)
    with pytest.raises(ValueError, match="er: p must be in"):
        GeneratorConfig(model="er", seed=1, n=10)  # p left at its default
    with pytest.raises(ValueError, match="er: mprime does not apply"):
        GeneratorConfig(model="er", seed=1, n=10, p=0.5, mprime=3)
    with pytest.raises(ValueError, match="er: beta does not apply"):
        GeneratorConfig(model="er", seed=1, n=10, p=0.5, beta=0.7)
    # directed is filled from its default; the fields er does not read
    # stay unset
    cfg = GeneratorConfig.er(10, 0.5, 1)
    assert cfg.directed is False
    assert GeneratorConfig(model="er", seed=1, n=10, p=0.5) == cfg
    assert (cfg.mprime, cfg.cq, cfg.cu, cfg.s, cfg.beta) == (None,) * 5


# ---------------------------------------------------------------- BA


def loop_ba_edges(n, mp, seed):
    """Reference BA generator: the per-node rejection-sampling loop over
    the endpoint pool that the vectorized ``generate_ba`` replaced, with
    its random-number use (small n only)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    edges = [(i, j) for i in range(mp) for j in range(i + 1, mp)]
    ends = np.empty(max(2 * (len(edges) + (n - mp) * mp), 1), dtype=np.int32)
    pos = 2 * len(edges)
    ends[:pos] = np.array(edges, dtype=np.int32).reshape(-1)
    for v in range(mp, n):
        chosen = set()
        if pos == 0:
            chosen.add(int(rng.integers(0, v)))
        while len(chosen) < mp:
            need = mp - len(chosen)
            for t in ends[rng.integers(0, pos, size=need + 2)].tolist():
                if t not in chosen:
                    chosen.add(t)
                    if len(chosen) == mp:
                        break
        for t in sorted(chosen):
            edges.append((t, v))
            ends[pos:pos + 2] = v, t
            pos += 2
    return edges


def replay_ba_edges(n, mp, seed):
    """Sequential replay of ``generate_ba``'s random numbers: node by
    node, targets are read from the pool slots of the node's first draws
    (one substream, drawn at once as ``generate_ba`` does), and each
    repeat is replaced in turn by redraws (a second substream) until a
    new node comes up.  No pointer chasing and no fix-up order: the
    vectorized generator must give exactly this graph."""
    first_seed, redraw_seed = np.random.SeedSequence(seed).spawn(2)
    clique = mp * (mp - 1) // 2
    pool = [a for i in range(mp) for j in range(i + 1, mp) for a in (i, j)]
    start = mp
    if mp == 1 and n > 1:
        pool += [1, 0]  # node 1 faces an empty pool
        start = 2
    high = [2 * (clique + (v - mp) * mp) for v in range(start, n)
            for _ in range(mp)]
    draws = np.random.default_rng(first_seed).integers(
        0, np.array(high, dtype=np.int64), dtype=np.int32).tolist()
    redraw = np.random.default_rng(redraw_seed)
    for i, v in enumerate(range(start, n)):
        targets = [pool[d] for d in draws[i * mp:(i + 1) * mp]]
        seen = set(targets)
        for j in range(mp):
            if targets[j] in targets[:j]:
                t = targets[j]
                while t in seen:
                    t = pool[int(redraw.integers(0, len(pool)))]
                seen.add(t)
                targets[j] = t
        for t in targets:
            pool += [v, t]
    return {(min(a, b), max(a, b)) for a, b in zip(pool[0::2], pool[1::2])}


@pytest.mark.parametrize("n, mp, seed", [
    (2, 1, 1), (300, 1, 2), (5, 2, 3), (6, 3, 4), (400, 2, 5),
    (2000, 4, 6), (3000, 10, 7), (200, 30, 8),
    (100_000, 10, 1)])  # the ba-root benchmark graph
def test_ba_equals_sequential_replay(n, mp, seed):
    g = generate_ba(GeneratorConfig.ba(n, mp, seed))
    assert edge_set(g) == replay_ba_edges(n, mp, seed)


def assert_arrivals_exact(g, mp):
    """Clique nodes link to every smaller id; each later node to exactly
    ``mp`` distinct smaller ids (the graph would drop a repeat)."""
    src, dst = g.edge_arrays()
    earlier = np.bincount(dst, minlength=g.n)
    want = np.minimum(np.arange(g.n), mp)
    assert earlier.tolist() == want.tolist()
    assert g.m == mp * (mp - 1) // 2 + (g.n - mp) * mp


def test_ba_clique_seed_only():
    g = generate_ba(GeneratorConfig.ba(5, 5, seed=1))
    assert g.n == 5 and g.m == 10
    assert g.degrees.tolist() == [4] * 5


@pytest.mark.parametrize("n, mp", [
    (1, 1),        # one node, no edges
    (2, 1),        # node 1 faces an empty pool
    (60, 1),       # a tree
    (6, 6),        # n == mprime: the clique alone
    (7, 6),        # mprime == n - 1: the last node links to all
    (40, 39),
])
def test_ba_edge_cases(n, mp):
    for seed in (1, 2, 3):
        g = generate_ba(GeneratorConfig.ba(n, mp, seed))
        assert g.n == n
        assert_arrivals_exact(g, mp)


def test_ba_edge_count_is_exact():
    # every arrival adds exactly mprime distinct edges to smaller ids;
    # the larger graphs have many redraws and pushed-down fixes
    for n, mp, seed in ((50, 10, 1), (200, 3, 2), (400, 1, 3),
                        (20_000, 10, 4), (5000, 2, 5)):
        assert_arrivals_exact(generate_ba(GeneratorConfig.ba(n, mp, seed)),
                              mp)


def test_ba_degrees_match_reference_loop():
    """Two-sample KS test on the pooled degree sequences of 8 seeds."""
    stats = pytest.importorskip("scipy.stats")
    n, mp = 20_000, 3
    fast, loop = [], []
    for seed in range(8):
        fast.append(generate_ba(GeneratorConfig.ba(n, mp, seed)).degrees)
        edges = np.array(loop_ba_edges(n, mp, seed))
        loop.append(np.bincount(edges.ravel(), minlength=n))
    result = stats.ks_2samp(np.concatenate(fast), np.concatenate(loop))
    assert result.pvalue > 0.01, result


def exact_ba_law(n, mp):
    """Probability of every BA(n, mp) edge set: each arrival takes an
    ordered degree-proportional sample without replacement."""
    law = {frozenset(itertools.combinations(range(mp), 2)): 1.0}
    for v in range(mp, n):
        grown = collections.defaultdict(float)
        for edges, p in law.items():
            ends = np.array(sorted(edges), dtype=np.int64).ravel()
            deg = np.bincount(ends, minlength=v)
            if not deg.any():
                grown[edges | {(0, v)}] += p
                continue
            for targets in itertools.combinations(np.flatnonzero(deg), mp):
                q = 0.0
                for order in itertools.permutations(targets):
                    left = deg.sum()
                    r = 1.0
                    for u in order:
                        r *= deg[u] / left
                        left -= deg[u]
                    q += r
                grown[edges | {(int(u), v) for u in targets}] += p * q
        law = grown
    return law


@pytest.mark.parametrize("n, mp", [(6, 1), (6, 2), (6, 3)])
def test_ba_graph_frequencies_match_exact_law(n, mp):
    """Chi-square of 3000 seeded graphs against the exact law: early
    arrivals on a tiny pool redraw often, so this exercises the
    duplicate fix-up and its push-down to copied slots."""
    law = exact_ba_law(n, mp)
    reps = 3000
    counts = collections.Counter(
        frozenset(edge_set(generate_ba(GeneratorConfig.ba(n, mp, seed))))
        for seed in range(reps))
    assert set(counts) <= set(law)
    chi2 = sum((counts[g] - reps * p) ** 2 / (reps * p)
               for g, p in law.items())
    df = len(law) - 1
    assert (chi2 - df) / math.sqrt(2 * df) < 4, (chi2, df)


def test_ba_determinism():
    a = generate_ba(GeneratorConfig.ba(300, 4, seed=11))
    b = generate_ba(GeneratorConfig.ba(300, 4, seed=11))
    assert edge_set(a) == edge_set(b)


def test_ba_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig.ba(5, 6, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig.ba(5, 0, seed=1)
    with pytest.raises(ValueError, match="ba: seed must be an integer"):
        GeneratorConfig.ba(10, 2, seed=1.5)
    with pytest.raises(ValueError, match="ba: mprime must be an integer"):
        GeneratorConfig.ba(10, 2.0, seed=1)
    with pytest.raises(ValueError, match="ba: mprime must be >= 1"):
        GeneratorConfig(model="ba", seed=1, n=10)  # mprime left at 0
    with pytest.raises(ValueError, match="ba: directed does not apply"):
        GeneratorConfig(model="ba", seed=1, n=10, mprime=2, directed=True)
    with pytest.raises(ValueError, match="ba: cq does not apply"):
        GeneratorConfig(model="ba", seed=1, n=10, mprime=2, cq=3)
    # a field the model does not read is refused whatever its value,
    # another model's default included
    with pytest.raises(ValueError, match="ba: p does not apply"):
        GeneratorConfig(model="ba", seed=1, n=10, mprime=2, p=0.0)
    # the fields ba does not read stay unset
    cfg = GeneratorConfig.ba(10, 2, seed=1)
    assert (cfg.p, cfg.cq, cfg.cu, cfg.s, cfg.beta, cfg.directed) == (
        None,) * 6
    # numpy integers are integers
    g = generate_ba(GeneratorConfig.ba(np.int64(10), np.int32(2),
                                       seed=np.uint8(1)))
    assert edge_set(g) == edge_set(generate_ba(GeneratorConfig.ba(10, 2, 1)))


def reconstruct_ba_steps(g, mprime):
    """Arrival-order target sets recovered from the final edge set:
    node v's chosen targets are exactly its neighbors with id < v."""
    targets = {v: set() for v in range(mprime, g.n)}
    for u, v in edge_set(g):  # u < v
        if v >= mprime:
            targets[v].add(u)
    return list(targets.items())


def exact_inclusion_probability(p, tracked):
    """P(tracked node lands in a 3-element degree-proportional sample
    without replacement), via the pairwise-collapsed complement sum."""
    q = p.copy()
    q[tracked] = 0.0
    pj = q[:, None]
    pk = q[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        term = (pj * pk * (1.0 - p[tracked] - pj - pk)
                / ((1.0 - pj) * (1.0 - pj - pk)))
    np.fill_diagonal(term, 0.0)
    return 1.0 - float(np.nansum(term))


def brute_inclusion_probability(p, tracked):
    """Direct enumeration over ordered distinct triples (small n only)."""
    n = len(p)
    total = 0.0
    for j in range(n):
        if j == tracked or p[j] == 0:
            continue
        for k in range(n):
            if k in (tracked, j) or p[k] == 0:
                continue
            for l in range(n):
                if l in (tracked, j, k) or p[l] == 0:
                    continue
                total += (p[j] * (p[k] / (1 - p[j]))
                          * (p[l] / (1 - p[j] - p[k])))
    return 1.0 - total


def test_inclusion_probability_formula_against_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(5):
        deg = rng.integers(1, 10, size=7).astype(float)
        p = deg / deg.sum()
        assert exact_inclusion_probability(p, 0) == pytest.approx(
            brute_inclusion_probability(p, 0), abs=1e-12)


def test_ba_attachment_frequencies_match_degree_proportional_law():
    """Tracked-node attachment count over 30 seeds vs the exact
    per-step inclusion probabilities of degree-proportional sampling."""
    n, mp, tracked = 200, 3, 0
    hits = 0
    mean = 0.0
    var = 0.0
    for seed in range(30):
        g = generate_ba(GeneratorConfig.ba(n, mp, seed=1000 + seed))
        deg = np.zeros(n)
        deg[:mp] = mp - 1  # seed clique degrees
        for v, targets in reconstruct_ba_steps(g, mp):
            p = deg[:v] / deg[:v].sum()
            q = exact_inclusion_probability(p, tracked)
            mean += q
            var += q * (1.0 - q)
            if tracked in targets:
                hits += 1
            for t in targets:
                deg[t] += 1
            deg[v] = len(targets)
    sigma = math.sqrt(var)
    assert abs(hits - mean) <= 3 * sigma, (hits, mean, sigma)


# ------------------------------------------------------- Affiliation


def brute_fold(b: BipartiteAffiliation) -> set:
    """O(|Q|^2 * |U|) pairwise shared-society test."""
    socs = [set() for _ in range(b.actor_count)]
    for a, u in b.edges.tolist():
        socs[a].add(u)
    edges = set()
    for a in range(b.actor_count):
        for c in range(a + 1, b.actor_count):
            if socs[a] & socs[c]:
                edges.add((a, c))
    return edges


def test_affiliation_seed_folds_to_single_edge():
    bip, g = generate_affiliation(GeneratorConfig.affiliation(2, seed=1))
    assert g.n == 2 and g.m == 1
    assert bip.actor_count == 2 and bip.society_count == 2


def test_affiliation_fold_equals_definition():
    for seed in (1, 2):
        cfg = GeneratorConfig.affiliation(150, seed=seed)
        bip, g = generate_affiliation(cfg)
        assert edge_set(g) == brute_fold(bip)


def test_affiliation_determinism():
    a = generate_affiliation(GeneratorConfig.affiliation(120, seed=9))
    b = generate_affiliation(GeneratorConfig.affiliation(120, seed=9))
    assert np.array_equal(a[0].edges, b[0].edges)
    assert edge_set(a[1]) == edge_set(b[1])


def assert_matches_reference(cfg):
    bip, g = generate_affiliation(cfg)
    ref_bip, ref_g = reference_affiliation(cfg)
    assert bip.actor_count == ref_bip.actor_count == cfg.n
    assert bip.society_count == ref_bip.society_count
    assert np.array_equal(bip.edges, ref_bip.edges)
    for a, b in zip(g.edge_arrays(), ref_g.edge_arrays()):
        assert np.array_equal(a, b)
    assert g.duplicates_dropped == 0 and g.loops_dropped == 0


@pytest.mark.parametrize("cq,cu,s,beta", [
    (2, 2, 2, 0.5),
    (0, 2, 2, 0.5),
    (2, 0, 2, 0.5),
    (2, 2, 0, 0.5),
    (0, 0, 3, 0.5),
    (1, 1, 1, 0.3),
    (4, 3, 2, 0.7),
    # the first 40 actors cannot find 40 targets, so their attempt
    # cap of 50 * (s + 1) draws binds
    (2, 2, 40, 0.5),
])
def test_affiliation_matches_per_pair_reference(cq, cu, s, beta):
    """Same random numbers, same outputs as the per-pair oracle."""
    for seed in (1, 2, 3):
        assert_matches_reference(GeneratorConfig.affiliation(
            400, seed, cq=cq, cu=cu, s=s, beta=beta))


@pytest.mark.parametrize("seed", [1, 2])
def test_affiliation_matches_per_pair_reference_at_benchmark_size(seed):
    """The ``affiliation-full`` benchmark graph, draw for draw."""
    assert_matches_reference(GeneratorConfig.affiliation(20_000, seed))


@pytest.mark.parametrize("actors", [2, 300])
def test_write_bipartite_format(tmp_path, actors):
    bip, _ = generate_affiliation(GeneratorConfig.affiliation(actors, 3))
    memberships = sorted(map(tuple, bip.edges.tolist()))
    expected = (f"# bipartite actors={bip.actor_count} "
                f"societies={bip.society_count}\n"
                + "".join(f"{a}\t{u}\n" for a, u in memberships))
    if actors == 2:
        assert memberships == [(0, 0), (0, 1), (1, 0), (1, 1)]
    path = tmp_path / "b.bipartite"
    write_bipartite(bip, path)
    assert path.read_bytes() == expected.encode("ascii")


def test_affiliation_densifies_beyond_er_and_ba():
    n = 10_000
    _, g_affil = generate_affiliation(
        GeneratorConfig.affiliation(n, seed=42))
    g_ba = generate_ba(GeneratorConfig.ba(n, 10, seed=42))
    g_er = generate_er(GeneratorConfig.er(n, 2e-5, seed=42))
    assert g_affil.m / g_affil.n > g_ba.m / g_ba.n > g_er.m / g_er.n


def test_affiliation_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig.affiliation(1, seed=1)
    with pytest.raises(ValueError):
        GeneratorConfig.affiliation(10, seed=1, beta=1.0)
    with pytest.raises(ValueError, match="affiliation: cq must be an integer"):
        GeneratorConfig.affiliation(50, seed=1, cq=1.5)
    with pytest.raises(ValueError, match="affiliation: n must be an integer"):
        GeneratorConfig.affiliation(50.5, seed=1)
    # a field that another model reads must keep its default
    with pytest.raises(ValueError, match="affiliation: p does not apply"):
        GeneratorConfig.affiliation(50, seed=1, p=0.2)
    with pytest.raises(ValueError,
                       match="affiliation: directed does not apply"):
        GeneratorConfig.affiliation(50, seed=1, directed=True)
    # about n(1-beta)/beta societies grow, each with an int32 id
    with pytest.raises(ValueError, match="affiliation: beta too small"):
        GeneratorConfig.affiliation(10, seed=1, beta=1e-300)
    with pytest.raises(ValueError, match="affiliation: beta too small"):
        GeneratorConfig.affiliation(715_827_883, seed=1, beta=0.25)
    assert GeneratorConfig.affiliation(715_827_882, 1, beta=0.25).n
    assert GeneratorConfig.affiliation(2000, 1, beta=0.02).beta == 0.02
    # the defaults fill what is not given
    cfg = GeneratorConfig.affiliation(50, 1)
    assert (cfg.cq, cfg.cu, cfg.s, cfg.beta) == (2, 2, 2, 0.5)
    assert (cfg.p, cfg.mprime, cfg.directed) == (None,) * 3
    assert GeneratorConfig.affiliation(50, 1, cq=3).cu == 2


def test_generate_dispatch():
    g = generate(GeneratorConfig.er(10, 0.5, seed=1))
    assert g.n == 10
    g = generate(GeneratorConfig.ba(10, 2, seed=1))
    assert g.n == 10
    bip, g = generate(GeneratorConfig.affiliation(10, seed=1))
    assert g.n == 10
    with pytest.raises(ValueError):
        generate(GeneratorConfig(model="nope", seed=1))
