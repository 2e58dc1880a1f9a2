"""Seeded random graph generators: Erdos-Renyi, Barabasi-Albert, Affiliation.

All generators are deterministic for a given config + seed: the root
seed is split into independent per-phase substreams, so the emitted
edge set is bit-identical across runs.
"""

from __future__ import annotations

import array
import operator
from dataclasses import dataclass
from typing import IO

import numpy as np

from .graph import _WRITE_CHUNK, NODE_LIMIT, Graph, _format_lines

__all__ = [
    "GeneratorConfig",
    "BipartiteAffiliation",
    "generate",
    "generate_er",
    "generate_ba",
    "generate_affiliation",
    "write_bipartite",
]

_ER_CHUNK = 1 << 16
_UNIFORM_BLOCK = 1 << 12


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one generator run.

    ``model`` selects which fields apply: ``er`` uses ``n, p`` (and
    ``directed``), ``ba`` uses ``n, mprime`` (edges per arriving node,
    also the seed clique size), ``affiliation`` uses ``actors`` (target
    actor count), ``cq``/``cu`` (edges copied per new actor/society),
    ``s`` (preferential-attachment edges per new actor) and ``beta``
    (probability an evolution step grows the actor side).
    """

    model: str
    seed: int
    n: int = 0
    p: float = 0.0
    mprime: int = 0
    actors: int = 0
    cq: int = 2
    cu: int = 2
    s: int = 2
    beta: float = 0.5
    directed: bool = False

    @classmethod
    def er(cls, n, p, seed, directed=False):
        return cls(model="er", seed=seed, n=n, p=p, directed=directed)

    @classmethod
    def ba(cls, n, mprime, seed):
        return cls(model="ba", seed=seed, n=n, mprime=mprime)

    @classmethod
    def affiliation(cls, actors, seed, cq=2, cu=2, s=2, beta=0.5):
        return cls(model="affiliation", seed=seed, actors=actors,
                   cq=cq, cu=cu, s=s, beta=beta)

    def __post_init__(self):
        for name in ("n", "mprime", "actors", "cq", "cu", "s", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(
                    f"{self.model}: {name} must be an integer") from None
        size = self.actors if self.model == "affiliation" else self.n
        if size >= NODE_LIMIT:
            raise ValueError(f"{self.model}: n must be below {NODE_LIMIT}")
        if self.seed < 0:
            raise ValueError(f"{self.model}: seed must be >= 0")
        if self.model == "er":
            if self.n < 1:
                raise ValueError("er: n must be >= 1")
            # p = 1.0 is allowed for degenerate complete graphs
            if not 0.0 < self.p <= 1.0:
                raise ValueError("er: p must be in (0, 1]")
        elif self.model == "ba":
            if self.mprime < 1:
                raise ValueError("ba: mprime must be >= 1")
            if self.n < self.mprime:
                raise ValueError("ba: n must be >= mprime")
            if self.directed:
                raise ValueError("ba: directed mode not supported")
        elif self.model == "affiliation":
            if self.actors < 2:
                raise ValueError("affiliation: need at least 2 actors")
            if min(self.cq, self.cu, self.s) < 0:
                raise ValueError("affiliation: cq, cu, s must be >= 0")
            if not 0.0 < self.beta < 1.0:
                raise ValueError("affiliation: beta must be in (0, 1)")
            if self.directed:
                raise ValueError("affiliation: directed mode not supported")
        else:
            raise ValueError(f"unknown model {self.model!r}")


@dataclass
class BipartiteAffiliation:
    """Actor-society bipartite graph: ``edges`` is an ``(m, 2)`` array of
    (actor, society) rows, sorted."""

    actor_count: int
    society_count: int
    edges: np.ndarray


def generate(cfg: GeneratorConfig):
    """Dispatch on ``cfg.model``; affiliation returns (bipartite, graph)."""
    if cfg.model == "er":
        return generate_er(cfg)
    if cfg.model == "ba":
        return generate_ba(cfg)
    return generate_affiliation(cfg)


def _skip_positions(rng, total, p):
    """Indices of successes among ``total`` Bernoulli(p) trials.

    Samples geometric gaps in chunks instead of testing every trial,
    so the cost is proportional to the number of successes.  The gap
    stream is identical to drawing ``rng.geometric(p)`` one at a time.
    Gaps are clipped at ``total + 1`` (< 2^62), so even for a tiny ``p``
    no position up to the first one past the trials wraps.
    """
    out = [np.empty(0, dtype=np.int64)]
    pos = -1
    while pos < total - 1:
        gaps = np.minimum(rng.geometric(p, size=_ER_CHUNK), total + 1)
        chunk = pos + np.cumsum(gaps)
        past = chunk >= total
        if past.any():
            out.append(chunk[:past.argmax()])
            break
        out.append(chunk)
        pos = int(chunk[-1])
    return np.concatenate(out)


def generate_er(cfg: GeneratorConfig) -> Graph:
    """G(n, p): every node pair is an edge independently with prob ``p``.

    With ``directed=True`` every ordered pair becomes an arc
    independently, which is the natural directed analogue.
    """
    n, p = cfg.n, cfg.p
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    if cfg.directed:
        idx = _skip_positions(rng, n * (n - 1), p)
        src = idx // (n - 1) if n > 1 else idx
        rem = idx - src * (n - 1)
        dst = np.where(rem < src, rem, rem + 1)
    else:
        us = np.arange(n, dtype=np.int64)
        offsets = us * (n - 1) - us * (us - 1) // 2  # pairs before row u
        idx = _skip_positions(rng, n * (n - 1) // 2, p)
        src = np.searchsorted(offsets, idx, side="right") - 1
        dst = idx - offsets[src] + src + 1
    return Graph.from_edges(n, src, dst, directed=cfg.directed)


def generate_ba(cfg: GeneratorConfig) -> Graph:
    """Barabasi-Albert preferential attachment.

    Starts from a clique on ``mprime`` nodes; each arriving node links
    to ``mprime`` distinct existing nodes drawn with probability
    proportional to degree (resampling duplicate targets).  Sampling
    uses the endpoint-pool trick: every edge contributes both endpoints
    to a pool, and a uniform pool slot is an exact degree-proportional
    draw.

    The pool layout is fixed in advance (slot ``2e`` holds the source of
    edge ``e``, slot ``2e + 1`` its target), so every arrival draws its
    slots at once and a drawn target slot points strictly backwards;
    :func:`_ba_pool` resolves them by pointer chasing and then redraws
    duplicate targets in node order, which keeps the sequential
    rejection sampler's law exactly.
    """
    n, mp = cfg.n, cfg.mprime
    # the draws and the children index are freed before the graph build
    pool = _ba_pool(n, mp, np.random.SeedSequence(cfg.seed).spawn(2))
    return Graph.from_edges(n, pool[0::2], pool[1::2], directed=False)


def _ba_pool(n, mp, seeds):
    """The endpoint pool of BA(n, mp): ``[src0, dst0, src1, dst1, ...]``.

    Edges are numbered in arrival order: the clique's ``mp(mp-1)/2``
    edges first, then ``mp`` edges per arriving node ``v``, whose pool
    before it is ``[0, 2 * edges_before(v))``.  ``seeds`` are the
    substreams of the first draws and of the duplicate redraws.
    """
    clique = mp * (mp - 1) // 2
    m = clique + (n - mp) * mp
    pool = np.empty(2 * m, dtype=np.int32)  # node ids are below 2**31
    src, dst = pool[0::2], pool[1::2]
    src[:clique], dst[:clique] = np.triu_indices(mp, 1)
    src[clique:] = np.repeat(np.arange(mp, n, dtype=np.int32), mp)
    first = clique  # first edge whose target is drawn
    if mp == 1 and n > 1:
        dst[0] = 0  # node 1 faces an empty pool: it must attach to node 0
        first = 1
    if first == m:
        return pool

    # every arrival's first mp draws, all at once: edge e's draw is a
    # slot in [0, 2 * edges_before(src[e]))
    slot_type = np.int32 if 2 * m < 2 ** 31 else np.int64
    high = src[first:].astype(slot_type)
    high -= mp
    high *= 2 * mp
    high += 2 * clique
    draws = np.random.default_rng(seeds[0]).integers(
        0, high, dtype=slot_type)
    del high

    # a drawn slot that holds another drawn target copies that edge's
    # draw; each step goes strictly backwards, so the chase ends
    drawn = dst[first:]
    todo = np.arange(len(draws), dtype=slot_type)
    slot = draws
    while len(todo):
        chase = (slot & 1).astype(bool)
        chase &= slot > 2 * first
        done = np.flatnonzero(~chase)
        drawn[todo[done]] = pool[slot[done]]
        keep = np.flatnonzero(chase)
        todo = todo[keep]
        slot = slot[keep]
        slot >>= 1
        slot -= first
        slot = draws[slot]
    if mp > 1:
        _fix_duplicates(pool, draws, n, mp, np.random.default_rng(seeds[1]))
    return pool


def _fix_duplicates(pool, draws, n, mp, rng):
    """Redraw repeated targets in node order, as rejection sampling does.

    One scan in node order over a flag per node, set when the node's
    first draws repeat a target or copy one that changed.  A flagged
    node's targets are re-derived from its first draws; each repeat is
    replaced by further draws from ``rng`` until a new node comes up.  A
    drawn slot points strictly backwards, so a node that copies an
    edge's target comes after that edge's node and is flagged before
    the scan reaches it.
    """
    clique = mp * (mp - 1) // 2
    dst = pool[1::2]
    rows = np.sort(dst[clique:].reshape(n - mp, mp), axis=1)
    dirty = bytearray(mp) + bytearray(
        (rows[:, 1:] == rows[:, :-1]).any(axis=1).tobytes())
    del rows

    # children index: the nodes whose first draws copied a drawn target,
    # keyed by that target's edge
    child = np.flatnonzero((draws & 1).astype(bool) & (draws > 2 * clique))
    parent = draws[child] >> 1
    order = np.argsort(parent)
    parent = parent[order]
    child = mp + child[order] // mp

    v = dirty.find(1)
    while v >= 0:
        lo = clique + (v - mp) * mp  # v's first edge
        targets = pool[draws[lo - clique:lo - clique + mp]].tolist()
        seen: set[int] = set()
        repeats = []
        for j, t in enumerate(targets):
            if t in seen:
                repeats.append(j)
            seen.add(t)
        for j in repeats:
            t = targets[j]
            while t in seen:
                t = int(pool[rng.integers(0, 2 * lo)])
            seen.add(t)
            targets[j] = t
        old = dst[lo:lo + mp].tolist()
        changed = [lo + j for j in range(mp) if old[j] != targets[j]]
        if changed:
            dst[lo:lo + mp] = targets
            # keys of parent's dtype, so that parent is not cast
            changed = np.array(changed, dtype=parent.dtype)
            a = np.searchsorted(parent, changed)
            b = np.searchsorted(parent, changed, side="right")
            for i, k in zip(a.tolist(), b.tolist()):
                for w in child[i:k].tolist():
                    dirty[w] = 1
        v = dirty.find(1, v + 1)


def _uniforms(rng):
    """``rng.random()`` one at a time, drawn in blocks (the same doubles)."""
    while True:
        yield from rng.random(_UNIFORM_BLOCK).tolist()


def _words(rng, block=1 << 12):
    """The 32-bit words that ``rng``'s bounded draws consume, in order.

    PCG64 serves ``next_uint32`` as the low half of a 64-bit output, then
    its high half; the outputs are read ``block`` at a time.  Once wrapped,
    ``rng`` must not draw through numpy again.
    """
    raw = rng.bit_generator.random_raw
    while True:
        out = raw(block)
        words = np.empty(2 * block, dtype=np.uint64)
        words[0::2] = out & 0xFFFFFFFF
        words[1::2] = out >> 32
        yield from words.tolist()


def _below(words, high):
    """``rng.integers(0, high)`` from ``_words(rng)``: Lemire's multiply
    and shift, with numpy's rejection threshold.  Above 2**32 numpy
    draws 64-bit words instead, so such a bound is refused."""
    if not 1 <= high <= 1 << 32:
        raise ValueError(f"bound {high} outside [1, 2**32]")
    if high == 1:
        return 0  # numpy draws no word
    m = next(words) * high
    if m & 0xFFFFFFFF < high:
        threshold = ((1 << 32) - high) % high
        while m & 0xFFFFFFFF < threshold:
            m = next(words) * high
    return m >> 32


def generate_affiliation(cfg: GeneratorConfig):
    """Grow a bipartite actor-society graph and fold it to an actor graph.

    Starting from a complete 2x2 bipartite seed, each evolution step
    adds an actor (probability ``beta``) or a society.  A new actor
    copies ``cq`` membership edges drawn uniformly from all existing
    non-helper edges and joins their societies (the prototype of each
    copy is therefore degree-proportional); a new society copies ``cu``
    edges the same way and recruits their actors.  Half of the
    membership mass thus lands on fresh societies, which keeps society
    sizes power-law with a sqrt(n)-scale maximum.  Each new actor
    additionally attaches to ``s`` distinct actors drawn proportionally
    to folded-graph degree; those links are realized as fresh
    two-member helper societies, so the returned social graph is
    exactly the folding of the returned bipartite graph.  Helper
    societies are invisible to copying.

    The degree-proportional draws pick a uniform slot of the folded
    graph's endpoint pool: pair ``i``, in order of first appearance,
    fills slot ``2i`` with the actor whose join created it
    (``joiners[i]``) and slot ``2i + 1`` with the other member
    (``others[i]``).  These two flat arrays are the fold's edge list.  A
    join's repeated pairs are found without a set of pair keys: a new
    actor keeps the set of its neighbours, and two recruits of a new
    society are already linked iff they share a society.  Copy and
    attachment draws come one at a time from :func:`_below` over
    :func:`_words` streams, which give the numbers, in the order, of a
    per-pair loop calling ``rng.integers``.

    Returns ``(bipartite, folded_graph)``.
    """
    ss = np.random.SeedSequence(cfg.seed).spawn(3)
    coins = _uniforms(np.random.default_rng(ss[0]))
    rng_copy = _words(np.random.default_rng(ss[1]))
    rng_pa = _words(np.random.default_rng(ss[2]))
    cap = 50 * (cfg.s + 1)  # attachment draws per new actor

    # every society of each actor, helper societies included
    societies: list[set[int]] = [{0, 1}, {0, 1}]
    society_members: list[list[int]] = [[0, 1], [0, 1]]
    edge_actor = array.array("i", [0, 0, 1, 1])    # copyable memberships
    edge_society = array.array("i", [0, 1, 0, 1])
    helper_actor = array.array("i")
    helper_society = array.array("i")
    # pair i of the fold is (joiners[i], others[i]); the seed's is (0, 1)
    joiners = array.array("i", [0])
    others = array.array("i", [1])

    while len(societies) < cfg.actors:
        if next(coins) < cfg.beta:
            q = len(societies)
            mine: set[int] = set()
            societies.append(mine)
            nbrs: set[int] = set()
            for _ in range(cfg.cq):
                u = edge_society[_below(rng_copy, len(edge_society))]
                if u in mine:
                    continue
                members = society_members[u]
                new = members
                if not nbrs.isdisjoint(members):
                    new = [b for b in members if b not in nbrs]
                joiners.extend([q] * len(new))
                others.extend(new)
                nbrs.update(members)
                members.append(q)
                mine.add(u)
                edge_actor.append(q)
                edge_society.append(u)
            targets: set[int] = set()
            attempts = 0
            while len(targets) < cfg.s and attempts < cap:
                attempts += 1
                slot = _below(rng_pa, 2 * len(joiners))
                t = (others if slot & 1 else joiners)[slot >> 1]
                if t != q and t not in targets and t not in nbrs:
                    targets.add(t)
            for t in sorted(targets):
                sid = len(society_members)
                society_members.append([t, q])
                societies[t].add(sid)
                mine.add(sid)
                helper_actor.extend((t, q))
                helper_society.extend((sid, sid))
                joiners.append(q)
                others.append(t)
        else:
            sid = len(society_members)
            recruits: list[int] = []
            society_members.append(recruits)
            for _ in range(cfg.cu):
                a = edge_actor[_below(rng_copy, len(edge_actor))]
                if a in recruits:
                    continue
                known = societies[a]
                new = [b for b in recruits if known.isdisjoint(societies[b])]
                joiners.extend([a] * len(new))
                others.extend(new)
                recruits.append(a)
                known.add(sid)
                edge_actor.append(a)
                edge_society.append(sid)

    n_actors = len(societies)
    actor = np.concatenate([edge_actor, helper_actor])
    society = np.concatenate([edge_society, helper_society])
    order = np.lexsort((society, actor))
    edges = np.stack([actor[order], society[order]], axis=1)
    bip = BipartiteAffiliation(n_actors, len(society_members), edges)
    g = Graph.from_edges(n_actors, np.frombuffer(joiners, np.int32),
                         np.frombuffer(others, np.int32), directed=False)
    return bip, g


def write_bipartite(b: BipartiteAffiliation, out: IO[str] | str) -> None:
    """Write actor<TAB>society lines under a ``# bipartite`` header."""
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        with open(out, "wt", encoding="utf-8") as fh:
            write_bipartite(b, fh)
            return
    out.write(f"# bipartite actors={b.actor_count} "
              f"societies={b.society_count}\n")
    for lo in range(0, len(b.edges), _WRITE_CHUNK):
        chunk = b.edges[lo:lo + _WRITE_CHUNK]
        out.write(_format_lines(chunk[:, 0], chunk[:, 1], sep="\t"))
