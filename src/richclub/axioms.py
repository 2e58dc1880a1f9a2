"""Club-quality checks: threshold tests, minimal passing clubs, and
model-level verifiers.

Three conditions are evaluated against a sweep row:

* influence  (a1): c1 = cut / m          >= c1_min
* stability  (a2): c2 = sum_di / cut     >= c2_min
* density    (a4): c3 = sum_di / C(k,2)  >= c3_min

Minimality is a selection principle rather than a predicate, so it is
reported as the smallest grid k passing all active conditions.  When
influence and stability both hold at k with measured constants, simple
arithmetic forces k^2 > c1*c2*m; any report claiming such a pass
asserts that inequality, and the derived density / compactness bounds
are attached as executable check entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import Graph
from .sweep import DegreeOrder, SweepRow, internal_edges_by_k

__all__ = [
    "AxiomThresholds",
    "AxiomReport",
    "VerificationError",
    "DEFAULT_THRESHOLDS",
    "evaluate_axioms",
    "minimal_elite",
    "verify_ba_bound",
    "estimate_er_density",
    "BABoundReport",
    "ERDensityReport",
]


class VerificationError(AssertionError):
    """A model-level check that must hold by construction failed."""


@dataclass(frozen=True)
class AxiomThresholds:
    """Minimum constants a club must reach, plus which checks are active."""

    c1_min: float = 0.05
    c2_min: float = 0.05
    c3_min: float = 0.01
    check_influence: bool = True
    check_stability: bool = True
    check_density: bool = True

    def __post_init__(self):
        if not (0.0 < self.c1_min < 1.0 and 0.0 < self.c2_min < 1.0):
            raise ValueError("c1_min and c2_min must be in (0, 1)")
        if not 0.0 < self.c3_min < 2.0:
            raise ValueError("c3_min must be in (0, 2)")
        if not (self.check_influence or self.check_stability
                or self.check_density):
            raise ValueError("at least one check must be active")

    def to_dict(self):
        return {"c1_min": self.c1_min, "c2_min": self.c2_min,
                "c3_min": self.c3_min}


# an order of magnitude below typical large-network constants, so real
# data passes comfortably while a sparse random graph fails influence
DEFAULT_THRESHOLDS = AxiomThresholds()


@dataclass
class AxiomReport:
    """Pass/fail verdicts at one club size, plus the minimal-k search."""

    k: int
    sqrt_m: int
    constants: dict
    thresholds: AxiomThresholds
    passes: dict
    minimal_k: int | None = None
    minimal_k_over_sqrt_m: float | None = None
    theorem_checks: list = field(default_factory=list)
    verdict: str = ""

    def to_dict(self):
        return {
            "k": self.k,
            "sqrt_m": self.sqrt_m,
            "constants": self.constants,
            "thresholds": self.thresholds.to_dict(),
            "passes": self.passes,
            "minimal_k": self.minimal_k,
            "minimal_k_over_sqrt_m": self.minimal_k_over_sqrt_m,
            "theorem_checks": self.theorem_checks,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def _passes(row: SweepRow, thr: AxiomThresholds) -> dict:
    # a2 fails when c2 is undefined (no boundary edges): stability
    # cannot be established without outside pressure to compare against
    return {
        "a1": row.c1 >= thr.c1_min,
        "a2": row.c2 is not None and row.c2 >= thr.c2_min,
        "a4": row.c3 >= thr.c3_min,
    }


def _active_pass(passes: dict, thr: AxiomThresholds) -> bool:
    if thr.check_influence and not passes["a1"]:
        return False
    if thr.check_stability and not passes["a2"]:
        return False
    if thr.check_density and not passes["a4"]:
        return False
    return True


def _theorem_checks(row: SweepRow, passes: dict, thr: AxiomThresholds,
                    m: int) -> list:
    checks = []
    if passes["a1"] and passes["a2"]:
        k = row.k
        lower = row.c1 * row.c2 * m
        ok = k * k > lower
        if not ok:
            raise VerificationError(
                f"size lower bound violated at k={k}: "
                f"k^2={k * k} <= c1*c2*m={lower}")
        checks.append({
            "name": "size_lower_bound",
            "passed": True,
            "detail": f"k^2={k * k} > c1*c2*m={lower:.6g}",
        })
        if k >= 2:
            implied = thr.c1_min * thr.c2_min * m / (k * (k - 1) / 2)
            checks.append({
                "name": "implied_density_bound",
                "passed": bool(row.c3 >= implied),
                "detail": (f"c3={row.c3:.6g} vs implied lower bound "
                           f"{implied:.6g}"),
            })
    if passes["a1"] and passes["a2"] and passes["a4"]:
        # density caps the club size: c3_min*k*(k-1)/2 <= sum_di <= 2m
        k = row.k
        cap_ok = k * (k - 1) <= 4 * m / thr.c3_min
        checks.append({
            "name": "compactness_upper_bound",
            "passed": bool(cap_ok),
            "detail": (f"k(k-1)={k * (k - 1)} vs "
                       f"4m/c3_min={4 * m / thr.c3_min:.6g}"),
        })
    return checks


def _constants(row: SweepRow) -> dict:
    return {"c1": row.c1, "c2": row.c2, "c3": row.c3}


def evaluate_axioms(rows: Sequence[SweepRow], k: int,
                    thresholds: AxiomThresholds = DEFAULT_THRESHOLDS,
                    m: int | None = None) -> AxiomReport:
    """Evaluate the threshold checks at club size ``k``.

    ``rows`` must contain a row for ``k``.  ``m`` (the edge count the
    c1 denominator used) is only needed for the sqrt(m) figure in the
    report; it is recovered from the row when omitted.
    """
    row = next((r for r in rows if r.k == k), None)
    if row is None:
        raise ValueError(f"no sweep row at k={k}")
    if m is None:
        m = _infer_m(rows)
    passes = _passes(row, thresholds)
    checks = _theorem_checks(row, passes, thresholds, m)
    active_ok = _active_pass(passes, thresholds)
    verdict = ("club passes all active checks" if active_ok
               else "club fails " + ", ".join(
                   name for name, ok in passes.items() if not ok))
    return AxiomReport(
        k=k, sqrt_m=math.isqrt(m) if m else 0,
        constants=_constants(row), thresholds=thresholds, passes=passes,
        theorem_checks=checks, verdict=verdict)


def minimal_elite(rows: Sequence[SweepRow],
                  thresholds: AxiomThresholds = DEFAULT_THRESHOLDS,
                  m: int | None = None) -> AxiomReport:
    """Smallest grid k passing all active checks; absence is a result.

    The report evaluates at the minimal passing k (or the last grid k
    when nothing passes) and records the ratio minimal_k / sqrt(m).
    """
    if not rows:
        raise ValueError("no sweep rows")
    if m is None:
        m = _infer_m(rows)
    ordered = sorted(rows, key=lambda r: r.k)
    best = next((r for r in ordered
                 if _active_pass(_passes(r, thresholds), thresholds)), None)
    at = best if best is not None else ordered[-1]
    report = evaluate_axioms(ordered, at.k, thresholds, m=m)
    if best is not None:
        report.minimal_k = best.k
        sqrt_m = math.isqrt(m) if m else 0
        report.minimal_k_over_sqrt_m = (best.k / sqrt_m if sqrt_m else None)
        report.verdict = (f"minimal passing club size {best.k} "
                          f"({report.minimal_k_over_sqrt_m:.3g} x sqrt(m))"
                          if sqrt_m else
                          f"minimal passing club size {best.k}")
    else:
        report.minimal_k = None
        report.minimal_k_over_sqrt_m = None
        report.verdict = "none: no grid club passes the active checks"
    return report


def _infer_m(rows: Sequence[SweepRow]) -> int:
    """Recover the c1 denominator from any row with a nonzero c1."""
    for r in rows:
        if r.c1:
            return round(r.sum_do / r.c1)
    return 0


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
