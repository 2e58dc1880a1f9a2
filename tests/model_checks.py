"""Model-level verifiers the acceptance and axiom tests run on generated
graphs: the Barabasi-Albert internal-edge bound and the Erdos-Renyi
club density z-scores.  They read only ``internal_edges_by_k``.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from richclub import DegreeOrder, Graph, VerificationError, \
    internal_edges_by_k


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
