"""Club-quality checks: threshold tests and minimal passing clubs.

Three conditions are evaluated against a sweep row:

* influence  (a1): c1 = cut / m          >= c1_min
* stability  (a2): c2 = sum_di / cut     >= c2_min
* density    (a4): c3 = sum_di / C(k,2)  >= c3_min

Minimality is a selection principle rather than a predicate, so it is
reported as the smallest k among the rows passing all active conditions,
exact over a full-grid table.  Every check reads the columns of a
:class:`~richclub.sweep.SweepTable`.  When influence and stability both
hold at k with measured constants, simple arithmetic forces
k^2 > c1*c2*m; any report claiming such a pass asserts that inequality,
and the derived density / compactness bounds are attached as executable
check entries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .sweep import SweepRow, SweepTable

__all__ = [
    "AxiomThresholds",
    "AxiomReport",
    "VerificationError",
    "evaluate_axioms",
    "minimal_elite",
]


class VerificationError(AssertionError):
    """A model-level check that must hold by construction failed."""


@dataclass(frozen=True)
class AxiomThresholds:
    """Minimum constants a club must reach.

    Influence and stability are always checked; ``check_density=False``
    asks for the minimal influential and stable club, dense or not.
    The defaults are an order of magnitude below typical large-network
    constants, so real data passes comfortably while a sparse random
    graph fails influence.
    """

    c1_min: float = 0.05
    c2_min: float = 0.05
    c3_min: float = 0.01
    check_density: bool = True

    def __post_init__(self):
        if not (0.0 < self.c1_min < 1.0 and 0.0 < self.c2_min < 1.0):
            raise ValueError("c1_min and c2_min must be in (0, 1)")
        if not 0.0 < self.c3_min < 2.0:
            raise ValueError("c3_min must be in (0, 2)")

    def to_dict(self):
        return {"c1_min": self.c1_min, "c2_min": self.c2_min,
                "c3_min": self.c3_min}


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


def _passes(rows: SweepTable, thr: AxiomThresholds) -> dict:
    """Per-row pass masks of the three checks."""
    # a2 fails where c2 is undefined (NaN: no boundary edges): stability
    # cannot be established without outside pressure to compare against
    return {"a1": rows.c1 >= thr.c1_min, "a2": rows.c2 >= thr.c2_min,
            "a4": rows.c3 >= thr.c3_min}


def _active_pass(passes: dict, thr: AxiomThresholds):
    """Where every active check passes (a mask, or one bool)."""
    ok = passes["a1"] & passes["a2"]
    return ok & passes["a4"] if thr.check_density else ok


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


def _report(rows: SweepTable, i: int, thr: AxiomThresholds,
            m: int) -> AxiomReport:
    """The report at row ``i``, without the minimal-k search."""
    row = rows[i]
    passes = {name: bool(ok[i]) for name, ok in _passes(rows, thr).items()}
    checks = _theorem_checks(row, passes, thr, m)
    verdict = ("club passes all active checks"
               if _active_pass(passes, thr)
               else "club fails " + ", ".join(
                   name for name, ok in passes.items() if not ok))
    return AxiomReport(
        k=row.k, sqrt_m=math.isqrt(m) if m else 0,
        constants={"c1": row.c1, "c2": row.c2, "c3": row.c3},
        thresholds=thr, passes=passes, theorem_checks=checks,
        verdict=verdict)


def evaluate_axioms(rows: SweepTable, k: int,
                    thresholds: AxiomThresholds = AxiomThresholds(), *,
                    m: int) -> AxiomReport:
    """Evaluate the threshold checks at club size ``k``.

    ``rows`` is a table ascending in k, as :func:`run_sweep` returns
    it, with a row for ``k``; ``m`` is the edge count the c1
    denominator used.
    """
    i = int(np.searchsorted(rows.k, k))
    if i == len(rows) or rows.k[i] != k:
        raise ValueError(f"no sweep row at k={k}")
    return _report(rows, i, thresholds, m)


def minimal_elite(rows: SweepTable,
                  thresholds: AxiomThresholds = AxiomThresholds(), *,
                  m: int) -> AxiomReport:
    """Smallest k among the rows passing all active checks; absence is
    a result.  Exact over a ``KGrid("full")`` table, which has every k.

    ``rows`` is a table ascending in k.  The report evaluates at the
    minimal passing k (or the last row's k when nothing passes) and
    records the ratio minimal_k / sqrt(m).
    """
    if not len(rows):
        raise ValueError("no sweep rows")
    hits = np.flatnonzero(_active_pass(_passes(rows, thresholds),
                                       thresholds))
    report = _report(rows, int(hits[0]) if len(hits) else len(rows) - 1,
                     thresholds, m)
    if not len(hits):
        report.verdict = "none: no club passes the active checks"
        return report
    report.minimal_k = report.k
    report.verdict = f"minimal passing club size {report.k}"
    if report.sqrt_m:
        report.minimal_k_over_sqrt_m = report.k / report.sqrt_m
        report.verdict += f" ({report.minimal_k_over_sqrt_m:.3g} x sqrt(m))"
    return report
