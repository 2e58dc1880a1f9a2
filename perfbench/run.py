#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``richclub`` CLI pipeline.

Run from the root of a source checkout (no install needed; the CLI is
run as ``python -m richclub`` with the checkout's ``src`` on
``PYTHONPATH``)::

    python3 perfbench/run.py --workload ba-root --seed 1 --seconds 60 --trace 0

One pipeline is the four CLI commands ``generate -> sweep -> axioms ->
report``, each a subprocess, one at a time, from this single process
(no threads).  A run repeats set-up (a fresh workspace plus one warm-up
import) and one pipeline with the workload's ``--seed`` until the next
pair would overrun ``--seconds``, checks every output outside the
timed region (see ``check.py``), and prints one JSON object as the last
line of stdout: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (medians over the run's
pipelines and set-ups).  ``--trace 1`` also runs one traced pipeline,
where ``traced.py`` runs each real command in its own process with
spans around the library calls, and reports the per-layer metrics
instead.  Every run also writes a results file with
provenance, every sample, the output digests and (traced) the spans to
``.perfbench/results/`` in the checkout.  ``--scale smoke`` runs tiny
graphs for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import OutputCheck  # noqa: E402
from workloads import COMMANDS, GRAPH, SCALES, WORKLOADS  # noqa: E402

DEADLINE_S = 165.0     # the whole run, so the process ends within 180 s
CHECK_RESERVE_S = 25.0  # left after the timed loop for checks and tracing
TRACE_FACTOR = 1.3     # a traced pipeline's cost relative to an untraced one
MIB = 1024.0           # ru_maxrss is in KiB on Linux


@dataclass
class Operation:
    """One CLI command plus its output check; failed if any problem."""

    command: str
    label: str             # pipeline: p0, p1, ... or "traced"
    problems: list[str]


class Timeout(Exception):
    """A child outlived the run's deadline."""


def _on_alarm(signum, frame):
    raise Timeout()


@dataclass
class Child:
    """One finished subprocess: wall time from spawn, peak RSS, status."""

    start: float
    seconds: float
    rss_mib: float
    status: int | None     # exit code; None when killed at the deadline
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.status == 0


def run_child(argv, cwd: Path, env: dict, deadline: float,
              label: str) -> Child:
    """Run ``argv`` to completion, reading its rusage with ``os.wait4``."""
    out_path = cwd / f".{label}.stdout"
    err_path = cwd / f".{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        signal.alarm(max(1, math.ceil(deadline - start)))
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            signal.alarm(0)
        except BaseException as exc:
            signal.alarm(0)
            proc.kill()
            _, wstatus, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wstatus)
            if not isinstance(exc, Timeout):
                raise
            return Child(start, time.perf_counter() - start,
                         usage.ru_maxrss / MIB, None, "",
                         "killed at the run deadline")
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return Child(start, seconds, usage.ru_maxrss / MIB, proc.returncode,
                 out_path.read_text(errors="replace"),
                 err_path.read_text(errors="replace"))


def _report_problems(command: str, label: str, problems: list[str]) -> None:
    for problem in problems:
        print(f"perfbench: {label} {command}: {problem}", file=sys.stderr)


class Run:
    """One benchmark run: set-up, pipelines, checks and metrics."""

    def __init__(self, rc, args, base: Path):
        self.wl = WORKLOADS[args.workload]
        self.scale = args.scale
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.base = base
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.check = OutputCheck(rc, self.wl, self.seed)
        self.ops: list[Operation] = []
        self.setup_s: list[float] = []
        self.pipelines: list[list[Child]] = []
        self.traced: list[tuple[Child, dict | None]] = []

    # -- set-up -------------------------------------------------------

    def setup(self) -> Path:
        """Create a fresh workspace and warm the import; one sample.

        Called before every pipeline, so the samples spread over the
        run like the pipelines do.  The previous workspace is removed
        first, outside the sample.
        """
        i = len(self.setup_s)
        shutil.rmtree(self.base / f"ws{i - 1}", ignore_errors=True)
        start = time.perf_counter()
        ws = self.base / f"ws{i}"
        ws.mkdir(parents=True)
        child = run_child([sys.executable, "-c", "import richclub.cli"],
                          ws, self.env, self.deadline, "setup")
        self.setup_s.append(time.perf_counter() - start)
        if not child.ok:
            raise RuntimeError(f"warm-up import failed: {child.stderr}")
        return ws

    # -- pipelines ----------------------------------------------------

    def _record(self, command: str, label: str, child: Child,
                problems: list[str]) -> None:
        if not child.ok:
            problems = [f"exit status {child.status}: "
                        f"{child.stderr.strip()[-300:]}"] + problems
        _report_problems(command, label, problems)
        self.ops.append(Operation(command, label, problems))

    def run_pipeline(self, ws: Path) -> None:
        label = f"p{len(self.pipelines)}"
        children = []
        for command, args in self.wl.commands(self.scale, self.seed):
            children.append(run_child(
                [sys.executable, "-m", "richclub", *args], ws, self.env,
                self.deadline, command))
        for command, child in zip(COMMANDS, children):
            self._record(command, label, child,
                         self.check.check(command, ws, child.stdout))
        self.pipelines.append(children)

    def run_traced(self, ws: Path) -> None:
        ws.mkdir()
        for command, args in self.wl.commands(self.scale, self.seed):
            spec = {
                "command": command, "args": args,
                "workload": self.wl.name,
                "run": f"seed{self.seed}-pid{os.getpid()}",
                "src": str(SRC), "out": f"trace-{command}.json",
            }
            spec_path = ws / f"spec-{command}.json"
            spec_path.write_text(json.dumps(spec))
            child = run_child(
                [sys.executable, str(HERE / "traced.py"), spec_path.name],
                ws, self.env, self.deadline, f"traced-{command}")
            problems = self.check.check(command, ws, child.stdout)
            trace = None
            if child.ok:
                trace = json.loads((ws / spec["out"]).read_text())
            self._record(command, "traced", child, problems)
            self.traced.append((child, trace))

    def timed_loop(self) -> Path:
        """Set up and run pipelines; returns the last workspace."""
        start = time.perf_counter()
        while True:
            ws = self.setup()
            self.run_pipeline(ws)
            per = statistics.median(self.setup_s) + statistics.median(
                sum(c.seconds for c in p) for p in self.pipelines)
            reserve = TRACE_FACTOR * per if self.trace else 0.0
            now = time.perf_counter()
            if (now - start + per + reserve > self.seconds
                    or now + per + reserve > self.deadline - CHECK_RESERVE_S):
                break
        if self.trace:
            self.run_traced(self.base / "traced")
        return ws

    def content_check(self, ws: Path) -> None:
        """Deep-check the last pipeline; a problem fails its operation.

        Skipped when a cheap check of that pipeline already failed.
        """
        label = f"p{len(self.pipelines) - 1}"
        if any(op.problems for op in self.ops if op.label == label):
            return
        found = self.check.check_content(ws, self.pipelines[-1][0].stdout)
        for op in self.ops:
            if op.label == label and found.get(op.command):
                _report_problems(op.command, label, found[op.command])
                op.problems += found[op.command]

    # -- metrics ------------------------------------------------------

    def command_medians(self) -> dict[str, float]:
        return {cmd: statistics.median(p[i].seconds for p in self.pipelines)
                for i, cmd in enumerate(COMMANDS)}

    def end_to_end(self) -> dict:
        return {
            "total_s": (statistics.median(
                sum(c.seconds for c in p) for p in self.pipelines), "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }

    def peak_rss_mib(self) -> float:
        return statistics.median(max(c.rss_mib for c in p)
                                 for p in self.pipelines)

    def per_layer(self) -> dict:
        if any(trace is None for _, trace in self.traced):
            raise RuntimeError("a traced command failed; no per-layer "
                               "metrics")
        out, spans = layer_metrics(
            self.traced, self.command_medians(),
            (self.base / "traced" / GRAPH).stat().st_size)
        out["cli.peak_rss_mib"] = (self.peak_rss_mib(), "MiB")
        return out, spans


def layer_metrics(traced, command_medians: dict, edge_list_bytes: int):
    """Per-layer metrics of one traced pipeline (see README.md).

    A function's time is its self time (span minus nested spans),
    summed over its calls in the pipeline.
    """
    spans, counters = [], {}
    out = {f"cli.{cmd}_s": (sec, "s") for cmd, sec in command_medians.items()}
    out["cli.startup_s"] = (0.0, "s")
    for command, (child, trace) in zip(COMMANDS, traced):
        procs = {s["id"]: s for s in trace["spans"]}
        for s in trace["spans"]:
            s["seconds"] = s["end"] - s["start"]
            s["command"] = command
            parent = procs.get(s["parent"])
            s["in_probe"] = parent is not None and parent["name"] == "probe"
            if parent is not None:
                parent.setdefault("child_seconds", 0.0)
                parent["child_seconds"] += s["seconds"]
        spans += trace["spans"]
        counters[command] = trace["counters"]
        root = trace["spans"][0]
        out["cli.startup_s"] = (out["cli.startup_s"][0]
                                + trace["ready"] - child.start, "s")
        # the traced child's own wall time, less the wrapped calls and
        # the probe and trace dump made after the command
        out[f"cli.{command}.unattributed_s"] = (
            child.seconds - root.get("child_seconds", 0.0)
            - (trace["end"] - root["end"]), "s")
        out[f"cli.{command}.rss_mib"] = (trace["rss_mib"], "MiB")

    def calls(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["seconds"] - s.get("child_seconds", 0.0)
                   for s in calls(name))

    for name in ("generators.generate", "graph.parse_edge_list",
                 "graph.write_edge_list", "graph.underlying_undirected",
                 "graph.from_edges", "sweep.degree_order",
                 "sweep.internal_edges_by_k", "sweep.run_sweep",
                 "sweep.write_rows_csv", "sweep.read_rows_csv",
                 "sweep.sociability_profile", "axioms.evaluate_axioms",
                 "axioms.minimal_elite"):
        out[f"{name}_s"] = (total(name), "s")
    for layer in ("generators", "graph", "sweep", "axioms"):
        mine = [s for s in spans
                if s["name"].startswith(layer + ".") and not s["in_probe"]]
        out[f"{layer}.busy_s"] = (sum(
            s["seconds"] - s.get("child_seconds", 0.0) for s in mine), "s")
        out[f"{layer}.rss_hwm_mib"] = (
            max(s["rss_hwm_mib"] for s in mine), "MiB")

    mb = edge_list_bytes / 1e6
    sw = counters["sweep"]
    out["graph.edge_list_bytes"] = (edge_list_bytes, "bytes")
    out["graph.parse_mb_per_s"] = (
        len(calls("graph.parse_edge_list")) * mb
        / total("graph.parse_edge_list"), "MB/s")
    out["graph.write_mb_per_s"] = (mb / total("graph.write_edge_list"),
                                   "MB/s")
    for name in ("n", "m", "loops_dropped", "duplicates_dropped"):
        out[f"graph.{name}"] = (sw[name], "count")
    out["sweep.grid_points"] = (sw["grid_points"], "count")
    out["sweep.edges_per_s"] = (
        len(calls("sweep.run_sweep")) * sw["projection_m"]
        / total("sweep.run_sweep"), "edges/s")
    return out, spans


def provenance(seed: int, wl, scale: str) -> dict:
    import numpy
    import scipy

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/loadavg", encoding="utf-8") as fh:
        loadavg = fh.read().strip()
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "richclub").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": loadavg,
        "seed": seed,
        "workload": wl.name,
        "scale": scale,
        "generator": wl.params(scale),
        "commands": [["richclub", *args]
                     for _, args in wl.commands(scale, seed)],
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "richclub" / "cli.py").is_file():
        print(f"perfbench: no richclub sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import richclub as rc

    prov = provenance(args.seed, WORKLOADS[args.workload], args.scale)
    signal.signal(signal.SIGALRM, _on_alarm)
    # end like an interrupt, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    run = Run(rc, args, base)
    try:
        ws = run.timed_loop()
        run.content_check(ws)
        e2e = run.end_to_end()
        layers, spans = run.per_layer() if run.trace else ({}, [])
    finally:
        shutil.rmtree(base, ignore_errors=True)

    failed = sum(1 for op in run.ops if op.problems)
    shown = layers if run.trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": prov,
        "result": result,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "command_medians_s": run.command_medians(),
        "peak_rss_mib": run.peak_rss_mib(),
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "setup_s": run.setup_s,
        "pipelines": [{cmd: {"seconds": c.seconds, "rss_mib": c.rss_mib,
                             "status": c.status}
                       for cmd, c in zip(COMMANDS, p)}
                      for p in run.pipelines],
        "digests": run.check.digests,
        "operations": [vars(op) for op in run.ops],
        "spans": spans,
    }
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{stamp}-{os.getpid()}.json")
    (results_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
