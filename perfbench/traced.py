"""Traced run of one ``richclub`` CLI command.

    python3 perfbench/traced.py SPEC.json

``SPEC.json`` (written by ``run.py``) holds the command's arguments,
the workload, the run label and the source directory; the process runs
in the workspace.  It wraps the public functions that ``richclub.cli``
imports, plus ``underlying_undirected`` as ``richclub.sweep`` sees it,
with span-recording versions, and then runs the real command,
``richclub.cli.main(args)``, under a root span ``cli.<command>``.  So
the traced process does exactly what the CLI does; time outside the
wrapped calls (start-up, argument parsing, staged writes and renames,
inline loops) is the command's unattributed time.  Spans are kept in
memory and written to ``spec["out"]`` when the command ends.

The projection of a directed graph is cached on the graph, so
``run_sweep`` pays for it in its own nested ``underlying_undirected``
span, and later calls are cache hits.  After the command, the process
also times ``Graph.from_edges``, ``degree_order`` and
``internal_edges_by_k`` on the parsed graph under a ``probe`` span,
outside the command's spans.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: name, start, end, parent, workload, run."""

    def __init__(self, workload: str, run: str):
        self.workload = workload
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "workload": self.workload, "run": self.run,
               "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss_hwm_mib"] = maxrss_mib()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


# module attribute -> span name; the modules are richclub.cli and
# richclub.sweep, wrapped where the CLI's calls look the names up
CLI_CALLS = {
    "generate": "generators.generate",
    "write_bipartite": "generators.write_bipartite",
    "parse_edge_list": "graph.parse_edge_list",
    "write_edge_list": "graph.write_edge_list",
    "underlying_undirected": "graph.underlying_undirected",
    "floor_sqrt_edges": "graph.floor_sqrt_edges",
    "run_sweep": "sweep.run_sweep",
    "write_rows_csv": "sweep.write_rows_csv",
    "read_rows_csv": "sweep.read_rows_csv",
    "sociability_profile": "sweep.sociability_profile",
    "evaluate_axioms": "axioms.evaluate_axioms",
    "minimal_elite": "axioms.minimal_elite",
}
SWEEP_CALLS = {"underlying_undirected": "graph.underlying_undirected"}


def _counters(name: str, result, counters: dict) -> None:
    """Exact counts taken from the results of the wrapped calls."""
    if name == "graph.parse_edge_list":
        counters.update(graph=result, n=result.n, m=result.m,
                        loops_dropped=result.loops_dropped,
                        duplicates_dropped=result.duplicates_dropped)
    elif name == "graph.underlying_undirected":
        counters["projection_m"] = result.m
    elif name == "sweep.run_sweep":
        counters["grid_points"] = len(result)


def wrap(module, calls: dict, t: Tracer, counters: dict) -> None:
    for attr, name in calls.items():
        def traced(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            result = t.call(_name, _fn, *args, **kwargs)
            _counters(_name, result, counters)
            return result
        setattr(module, attr, functools.wraps(getattr(module, attr))(traced))


def _probe(rc, t: Tracer, g) -> None:
    src, dst = g.edge_arrays()
    with t.span("probe"):
        t.call("graph.from_edges", rc.Graph.from_edges, g.n, src, dst,
               directed=g.directed)
        order = t.call("sweep.degree_order", rc.degree_order, g)
        t.call("sweep.internal_edges_by_k", rc.internal_edges_by_k,
               g, order)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import richclub.cli  # the import every CLI start pays
    import richclub as rc
    ready = time.perf_counter()
    t = Tracer(spec["workload"], spec["run"])
    counters: dict = {}
    wrap(richclub.cli, CLI_CALLS, t, counters)
    wrap(richclub.sweep, SWEEP_CALLS, t, counters)
    with t.span(f"cli.{spec['command']}"):
        status = richclub.cli.main(spec["args"])
    if status != 0:
        return status
    rss_mib = maxrss_mib()
    g = counters.pop("graph", None)
    if g is not None:
        _probe(rc, t, g)
    end = time.perf_counter()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "end": end, "rss_mib": rss_mib,
                   "counters": counters, "spans": t.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
