"""Model-level verifiers the acceptance and axiom tests run on generated
graphs: the Barabasi-Albert internal-edge bound and the Erdos-Renyi
club density z-scores, which read only ``internal_edges_by_k``; and a
naive per-pair affiliation generator, the oracle of the production one.
"""

import array
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from richclub import BipartiteAffiliation, DegreeOrder, GeneratorConfig, \
    Graph, VerificationError, internal_edges_by_k


@dataclass
class BABoundReport:
    mprime: int
    m0: int
    max_ratio: float
    max_ratio_k: int
    checked_k: int
    passed: bool = True


def verify_ba_bound(g: Graph, order: DegreeOrder, mprime: int,
                    m0: int | None = None) -> BABoundReport:
    """Check internal_edges(k) <= mprime*k + C(m0, 2) for every k.

    Every node beyond the seed clique initiates exactly ``mprime``
    edges, so club-internal edge counts grow at most linearly no matter
    which nodes rank on top.  A violation means the graph was not built
    by that attachment process and raises :class:`VerificationError`.
    Reports the largest internal_edges(k) / k ratio observed.
    """
    if m0 is None:
        m0 = mprime
    cum = internal_edges_by_k(g, order)
    ks = np.arange(1, g.n + 1, dtype=np.int64)
    bound = mprime * ks + m0 * (m0 - 1) // 2
    internal = cum[1:]
    bad = np.flatnonzero(internal > bound)
    if len(bad):
        k = int(bad[0] + 1)
        raise VerificationError(
            f"internal edge bound violated at k={k}: "
            f"{int(internal[bad[0]])} > {int(bound[bad[0]])}")
    ratios = internal / ks
    am = int(np.argmax(ratios))
    return BABoundReport(mprime=mprime, m0=m0,
                         max_ratio=float(ratios[am]),
                         max_ratio_k=int(am + 1), checked_k=g.n)


@dataclass
class ERDensityReport:
    rows: list
    passed: bool


def estimate_er_density(g: Graph, order: DegreeOrder, p: float,
                        k_values: Sequence[int],
                        min_k: int = 1000) -> ERDensityReport:
    """z-scores of club-internal edge counts against Binomial(C(k,2), p).

    Compares observed top-k internal counts with the unconditional law
    for a fixed k-node subset.  The degree-ranked club is not a fixed
    subset: an edge feeds both endpoint degrees, so clubs of an exactly
    correct sampler still sit above the unconditional mean, and the
    enrichment grows as k/n shrinks.  Treat this as a coarse density
    gate for structured graphs rather than an exact calibration: a row
    fails when ``|z| > 5``, and rows below ``min_k`` are reported but
    never gated.
    """
    cum = internal_edges_by_k(g, order)
    rows = []
    passed = True
    for k in k_values:
        if not 1 <= k <= g.n:
            raise ValueError(f"k={k} out of range")
        pairs = k * (k - 1) / 2
        internal = int(cum[k])
        mean = pairs * p
        sigma = math.sqrt(pairs * p * (1.0 - p))
        if sigma > 0:
            z = (internal - mean) / sigma
        else:
            z = 0.0 if internal == round(mean) else math.inf
        ok = abs(z) <= 5.0 or k < min_k
        passed = passed and ok
        rows.append({"k": k, "internal_edges": internal, "mean": mean,
                     "sigma": sigma, "z": z, "passed": ok})
    return ERDensityReport(rows=rows, passed=passed)


class _FoldedAccumulator:
    """Incrementally folded actor graph plus its degree-draw pool.

    Endpoints live in compact typed arrays; only the dedupe key set
    pays per-entry object overhead.
    """

    def __init__(self):
        self.seen: set[int] = set()       # canonical pair keys
        self.src = array.array("i")
        self.dst = array.array("i")
        self.pool = array.array("i")      # both endpoints of every edge

    def add(self, a, b):
        if a == b:
            return False
        lo, hi = (a, b) if a < b else (b, a)
        key = lo * 2_000_000_000 + hi
        if key in self.seen:
            return False
        self.seen.add(key)
        self.src.append(lo)
        self.dst.append(hi)
        self.pool.append(a)
        self.pool.append(b)
        return True

    def has(self, a, b):
        lo, hi = (a, b) if a < b else (b, a)
        return lo * 2_000_000_000 + hi in self.seen


def reference_affiliation(cfg: GeneratorConfig):
    """``generate_affiliation`` as a per-pair loop: ``(bipartite, graph)``.

    Every join adds its folded pairs one at a time to a deduplicating
    accumulator that keeps the endpoint pool as a flat array, and every
    draw is a scalar call.  The production generator must consume the
    same random numbers and return identical outputs.
    """
    ss = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_evo = np.random.default_rng(ss[0])
    rng_copy = np.random.default_rng(ss[1])
    rng_pa = np.random.default_rng(ss[2])

    # copyable (non-helper) memberships per actor; helper memberships
    # are recorded separately and only surface in the bipartite output
    actor_societies: list[list[int]] = [[0, 1], [0, 1]]
    helper_memberships: list[tuple[int, int]] = []
    society_members: list[list[int]] = [[0, 1], [0, 1]]
    edge_actor = array.array("i", [0, 0, 1, 1])    # real edges, flat
    edge_society = array.array("i", [0, 1, 0, 1])
    folded = _FoldedAccumulator()
    folded.add(0, 1)

    def join(actor, society, helper=False):
        for other in society_members[society]:
            folded.add(actor, other)
        society_members[society].append(actor)
        if helper:
            helper_memberships.append((actor, society))
        else:
            actor_societies[actor].append(society)
            edge_actor.append(actor)
            edge_society.append(society)

    while len(actor_societies) < cfg.actors:
        if rng_evo.random() < cfg.beta:
            q = len(actor_societies)
            actor_societies.append([])
            mine = actor_societies[q]
            for _ in range(cfg.cq):
                u = edge_society[int(rng_copy.integers(0, len(edge_society)))]
                if u not in mine:
                    join(q, u)
            targets: set[int] = set()
            attempts = 0
            while len(targets) < cfg.s and attempts < 50 * (cfg.s + 1):
                attempts += 1
                t = folded.pool[int(rng_pa.integers(0, len(folded.pool)))]
                if t != q and t not in targets and not folded.has(q, t):
                    targets.add(t)
            for t in sorted(targets):
                society_members.append([])
                sid = len(society_members) - 1
                join(t, sid, helper=True)
                join(q, sid, helper=True)
        else:
            society_members.append([])
            sid = len(society_members) - 1
            mine = society_members[sid]
            for _ in range(cfg.cu):
                a = edge_actor[int(rng_copy.integers(0, len(edge_actor)))]
                if a not in mine:
                    join(a, sid)

    n_actors = len(actor_societies)
    edges = [(a, u) for a in range(n_actors) for u in actor_societies[a]]
    edges += helper_memberships
    edges.sort()
    bip = BipartiteAffiliation(n_actors, len(society_members),
                               np.array(edges).reshape(-1, 2))
    g = Graph.from_edges(n_actors, np.array(folded.src, dtype=np.int64),
                         np.array(folded.dst, dtype=np.int64),
                         directed=False)
    return bip, g
