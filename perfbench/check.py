"""Output checks for one benchmark run, made outside the timed region.

Every operation (one CLI command plus its output check) gets a cheap
check after each pipeline: exit status, outputs present, CSV header,
and output digests equal to those of the run's first pipeline (the
same seed must give the same bytes).  Because the digests pin every
pipeline to the same outputs, the expensive content check runs once per
run, on the last pipeline when its cheap checks passed: it parses the
edge list and compares the CSV, the axioms JSON and ``generate``'s
stdout with the parsed graph and with ``metrics_at_k``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import re

from workloads import GRAPH, PLOT_FILES, POINTS, REPORT, ROWS

_GENERATE_LINE = re.compile(r"model=\S+ n=(\d+) m=(\d+) seed=(-?\d+) ")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class OutputCheck:
    """Checks the outputs of every pipeline of one run.

    Each ``check_*`` method returns a list of problems; an empty list
    means the operation succeeded.
    """

    def __init__(self, rc, workload, seed: int):
        self.rc = rc
        self.workload = workload
        self.seed = seed
        self.digests: dict[str, str] = {}

    def _pin(self, ws: str, name: str) -> list[str]:
        path = os.path.join(ws, name)
        if not os.path.isfile(path):
            return [f"{name} missing"]
        digest = sha256(path)
        pinned = self.digests.setdefault(name, digest)
        if digest != pinned:
            return [f"{name} digest {digest[:12]} differs from the first "
                    f"pipeline's {pinned[:12]} for the same seed"]
        return []

    def check(self, command: str, ws, stdout: str) -> list[str]:
        """Cheap checks of one command's outputs in workspace ``ws``."""
        if command == "generate":
            return self.check_generate(ws, stdout)
        if command == "sweep":
            return self.check_sweep(ws)
        if command == "axioms":
            return self._pin(ws, REPORT)
        return self.check_report(ws)

    def check_generate(self, ws: str, stdout: str) -> list[str]:
        problems = self._pin(ws, GRAPH)
        if self.workload.model == "affiliation":
            problems += self._pin(ws, GRAPH + ".bipartite")
        match = _GENERATE_LINE.search(stdout)
        if match is None:
            problems.append(f"unexpected generate output {stdout!r}")
        elif int(match.group(3)) != self.seed:
            problems.append(f"generate echoed seed {match.group(3)}")
        return problems

    def check_sweep(self, ws: str) -> list[str]:
        problems = self._pin(ws, ROWS)
        if not problems:
            with open(os.path.join(ws, ROWS), encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
            if header != list(self.rc.CSV_COLUMNS):
                problems.append(f"CSV header {header} != CSV_COLUMNS")
        return problems

    @staticmethod
    def check_report(ws: str) -> list[str]:
        problems = []
        for name in PLOT_FILES:
            path = os.path.join(ws, name)
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                problems.append(f"{name} missing or empty")
        return problems

    def check_content(self, ws: str, generate_stdout: str) -> dict:
        """Deep check of one pipeline's outputs against the parsed graph.

        Returns problems keyed by the command whose output is wrong.
        """
        rc = self.rc
        wl = self.workload
        found = {"generate": [], "sweep": [], "axioms": []}
        g = rc.parse_edge_list(os.path.join(ws, GRAPH), directed=wl.directed)
        und = rc.underlying_undirected(g)
        match = _GENERATE_LINE.search(generate_stdout or "")
        if match is None or (int(match.group(1)), int(match.group(2))) \
                != (g.n, g.m):
            found["generate"].append(
                f"generate printed {generate_stdout!r}, parsed graph has "
                f"n={g.n} m={g.m}")

        with open(os.path.join(ws, ROWS), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        csv_rows = {int(line.split(",", 1)[0]): line for line in lines[1:]}
        ks = rc.KGrid(kind=wl.sweep_grid, points=POINTS).k_values(
            g.n, und.m)
        if g.directed and g.m >= 1:
            ks = sorted(set(ks.tolist()) | {min(math.isqrt(g.m), g.n)})
        ks = [int(k) for k in ks]
        got = [int(line.split(",", 1)[0]) for line in lines[1:]]
        if got != ks:
            found["sweep"].append(
                f"CSV has {len(got)} rows, grid expects {len(ks)}")

        order = rc.degree_order(g)
        sqrt_m = math.isqrt(und.m)
        probe = {1, 2, math.isqrt(g.n), sqrt_m}
        if g.directed:
            probe.add(min(math.isqrt(g.m), g.n))
        # plus a few seed-chosen grid rows small enough for the oracle
        small = [k for k in ks if k <= sqrt_m]
        probe.update(random.Random(self.seed).sample(small,
                                                     min(3, len(small))))
        for k in sorted(probe & set(ks)):
            buf = io.StringIO()
            rc.write_rows_csv([rc.metrics_at_k(g, order, k)], buf)
            expected = buf.getvalue().splitlines()[1]
            if csv_rows.get(k) != expected:
                found["sweep"].append(
                    f"row k={k}: CSV {csv_rows.get(k)!r} != metrics_at_k "
                    f"{expected!r}")

        with open(os.path.join(ws, REPORT), encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("k") != sqrt_m:
            found["axioms"].append(
                f"axioms k={report.get('k')} != isqrt(m)={sqrt_m}")
        elif sqrt_m in csv_rows:
            fields = dict(zip(rc.CSV_COLUMNS, csv_rows[sqrt_m].split(",")))
            for name, value in report["constants"].items():
                shown = "" if value is None else f"{value:.6g}"
                if shown != fields[name]:
                    found["axioms"].append(
                        f"axioms {name}={shown} != CSV {fields[name]!r} "
                        f"at k={sqrt_m}")
        return found
