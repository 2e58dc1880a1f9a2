"""Workload definitions shared by run.py and check.py.

A workload fixes the generator parameters, whether ``sweep``/``axioms``
read the edge list as directed arcs, and the grid ``sweep`` writes.
``axioms`` always uses the root grid.  Grids are passed explicitly, so
the output check builds the same ``KGrid`` as the CLI.  The ``smoke``
scale runs the same commands on tiny graphs for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    generator: dict[str, dict]   # scale -> generator parameters
    directed: bool = False
    sweep_grid: str = "root"

    @property
    def model(self) -> str:
        return self.generator["full"]["model"]

    def params(self, scale: str) -> dict:
        return self.generator[scale]

    def generate_args(self, scale: str, seed: int, output: str) -> list:
        """``richclub generate`` arguments for this workload."""
        p = self.params(scale)
        args = ["generate", "--model", p["model"], "--n", str(p["n"])]
        if "p" in p:
            args += ["--p", repr(p["p"])]
        if "mprime" in p:
            args += ["--mprime", str(p["mprime"])]
        if self.directed:
            args.append("--directed")
        return args + ["--seed", str(seed), "-o", output]

    def commands(self, scale: str, seed: int) -> list[tuple[str, list]]:
        """The four CLI commands of one pipeline, run in the workspace."""
        d = ["--directed"] if self.directed else []
        return [
            ("generate", self.generate_args(scale, seed, GRAPH)),
            ("sweep", ["sweep", "-i", GRAPH, "-o", ROWS,
                       "--grid", self.sweep_grid, "--points", str(POINTS),
                       *d]),
            ("axioms", ["axioms", "-i", GRAPH, "-o", REPORT,
                        "--grid", AXIOMS_GRID, "--points", str(POINTS),
                        *d]),
            ("report", ["report", "-i", ROWS, "-o", PLOT]),
        ]


POINTS = 200
AXIOMS_GRID = "root"
GRAPH = "graph.txt"
ROWS = "rows.csv"
REPORT = "report.json"
PLOT = "plot"
PLOT_FILES = [f"{PLOT}_{s}.dat" for s in ("c1", "c2", "c3", "sociability")]
COMMANDS = ("generate", "sweep", "axioms", "report")

WORKLOADS = {w.name: w for w in [
    Workload(
        "ba-root",
        {"full": {"model": "ba", "n": 100000, "mprime": 10},
         "smoke": {"model": "ba", "n": 2000, "mprime": 3}}),
    Workload(
        "er-directed",
        {"full": {"model": "er", "n": 100000, "p": 0.0001},
         "smoke": {"model": "er", "n": 2000, "p": 0.002}},
        directed=True),
    Workload(
        "affiliation-full",
        {"full": {"model": "affiliation", "n": 20000},
         "smoke": {"model": "affiliation", "n": 400}},
        sweep_grid="full"),
]}
