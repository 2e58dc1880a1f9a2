"""Command-line front end: generate graphs, sweep clubs, evaluate, report.

Subcommands::

    richclub generate --model {er,ba,affiliation} ... -o graph.txt
    richclub sweep    -i graph.txt [-o rows.csv] [--grid root|linear|full]
    richclub axioms   -i graph.txt [-o report.json] [--c1min ...]
    richclub report   -i rows.csv [rows2.csv ...] -o prefix

Outputs are written atomically (temp file + rename), so a failing run
leaves no partial files behind.  All randomness flows from ``--seed``;
when the flag is absent a fresh seed is drawn and printed so the run
can be reproduced.
"""

from __future__ import annotations

import argparse
import math
import os
import secrets
import sys
import tempfile
from contextlib import contextmanager

import numpy as np

from .axioms import AxiomThresholds, evaluate_axioms, minimal_elite
from .generators import GeneratorConfig, generate, write_bipartite
from .graph import floor_sqrt_edges, parse_edge_list, \
    underlying_undirected, write_edge_list
from .sweep import CSV_COLUMNS, KGrid, SweepTable, _write_rows, \
    read_rows_csv, run_sweep, sociability_profile, write_rows_csv

__all__ = ["main"]


class UsageError(Exception):
    """Bad command-line parameters; maps to exit code 2."""


@contextmanager
def _staged_outputs(*paths):
    """Write all ``paths`` through temp files, renamed in only when
    every write succeeded; a failure leaves no partial outputs."""
    tmps = []
    handles = []
    try:
        for path in paths:
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".richclub-")
            tmps.append(tmp)
            handles.append(os.fdopen(fd, "wt", encoding="utf-8"))
        yield handles if len(handles) > 1 else handles[0]
        for fh in handles:
            fh.close()
        umask = os.umask(0)
        os.umask(umask)
        for tmp, path in zip(tmps, paths):
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp defaults to 0600
            os.replace(tmp, path)
    except BaseException:
        for fh in handles:
            if not fh.closed:
                fh.close()
        for tmp in tmps:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="richclub",
        description="Rich-club sweeps and reports for large graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic graph")
    gen.add_argument("--model", required=True,
                     choices=["er", "ba", "affiliation"])
    gen.add_argument("--n", type=int, required=True,
                     help="node count (target actor count for affiliation)")
    gen.add_argument("--p", type=float, help="er edge probability")
    gen.add_argument("--mprime", type=int,
                     help="ba edges per arriving node")
    gen.add_argument("--cq", type=int, default=2,
                     help="affiliation edges copied per new actor")
    gen.add_argument("--cu", type=int, default=2,
                     help="affiliation edges copied per new society")
    gen.add_argument("--s", type=int, default=2,
                     help="affiliation preferential-attachment edges")
    gen.add_argument("--beta", type=float, default=0.5,
                     help="affiliation actor-side growth probability")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--directed", action="store_true",
                     help="er only: sample ordered pairs")
    gen.add_argument("-o", "--output", required=True)

    sw = sub.add_parser("sweep", help="sweep club sizes, write CSV")
    sw.add_argument("-i", "--input", required=True)
    sw.add_argument("-o", "--output")
    sw.add_argument("--directed", action="store_true",
                    help="read the edge list as directed arcs")
    sw.add_argument("--grid", choices=["root", "linear", "full"],
                    default="root")
    sw.add_argument("--points", type=int, default=200)

    ax = sub.add_parser("axioms", help="evaluate club checks, write JSON")
    ax.add_argument("-i", "--input", required=True)
    ax.add_argument("-o", "--output")
    ax.add_argument("--directed", action="store_true")
    ax.add_argument("--grid", help="ignored: axioms reads every club size")
    ax.add_argument("--points", help="ignored: axioms reads every club size")
    ax.add_argument("--c1min", type=float, default=0.05)
    ax.add_argument("--c2min", type=float, default=0.05)
    ax.add_argument("--c3min", type=float, default=0.01)

    rp = sub.add_parser("report", help="emit plot-data files from CSVs")
    rp.add_argument("-i", "--input", required=True, nargs="+")
    rp.add_argument("-o", "--output", required=True,
                    help="output path prefix")
    return parser


def _cmd_generate(args) -> int:
    seed = args.seed
    if seed is None:
        seed = secrets.randbits(63)
    try:
        if args.directed and args.model != "er":
            raise ValueError("--directed only applies to --model er")
        if args.model == "er":
            if args.p is None:
                raise ValueError("--p is required for --model er")
            cfg = GeneratorConfig.er(args.n, args.p, seed,
                                     directed=args.directed)
        elif args.model == "ba":
            if args.mprime is None:
                raise ValueError("--mprime is required for --model ba")
            cfg = GeneratorConfig.ba(args.n, args.mprime, seed)
        else:
            cfg = GeneratorConfig.affiliation(args.n, seed, cq=args.cq,
                                              cu=args.cu, s=args.s,
                                              beta=args.beta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = generate(cfg)
    if args.model == "affiliation":
        bip, g = result
        with _staged_outputs(args.output,
                             args.output + ".bipartite") as (gfh, bfh):
            write_edge_list(g, gfh)
            write_bipartite(bip, bfh)
    else:
        g = result
        with _staged_outputs(args.output) as fh:
            write_edge_list(g, fh)
    print(f"model={cfg.model} n={g.n} m={g.m} seed={seed} "
          f"-> {args.output}")
    return 0


def _echo_sqrt_m_row(rows, m, file):
    if not m:
        return
    # every grid holds floor(sqrt(m))
    row = rows[int(np.searchsorted(rows.k, math.isqrt(m)))]
    c2 = f"{row.c2:.4g}" if row.c2 is not None else "null"
    extra = ""
    if row.internal_arcs is not None:
        sym = f"{row.sym_ratio:.4g}" if row.sym_ratio is not None else "null"
        extra = (f" internal_arcs={row.internal_arcs} sym_ratio={sym}")
    print(f"sqrt(m)-club: k={row.k} c1={row.c1:.4g} c2={c2} "
          f"c3={row.c3:.4g} internal_edges={row.internal_edges} "
          f"components={row.components} lcc={row.lcc_size}{extra}",
          file=file)


def _cmd_sweep(args) -> int:
    try:
        grid = KGrid(kind=args.grid, points=args.points)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    g = parse_edge_list(args.input, directed=args.directed)
    rows = run_sweep(g, grid)
    m = underlying_undirected(g).m
    _echo_sqrt_m_row(rows, m, sys.stdout if args.output else sys.stderr)
    if args.output:
        with _staged_outputs(args.output) as fh:
            write_rows_csv(rows, fh)
    else:
        write_rows_csv(rows, sys.stdout)
    return 0


def _cmd_axioms(args) -> int:
    try:
        thresholds = AxiomThresholds(c1_min=args.c1min, c2_min=args.c2min,
                                     c3_min=args.c3min)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    g = parse_edge_list(args.input, directed=args.directed)
    # every k, so that the minimal passing club is exact
    rows = run_sweep(g, KGrid("full"))
    m = underlying_undirected(g).m
    k = floor_sqrt_edges(underlying_undirected(g)) if m else int(rows.k[-1])
    report = evaluate_axioms(rows, k, thresholds, m=m)
    minimal = minimal_elite(rows, thresholds, m=m)
    report.minimal_k = minimal.minimal_k
    report.minimal_k_over_sqrt_m = minimal.minimal_k_over_sqrt_m
    echo = sys.stdout if args.output else sys.stderr
    print(f"at k={report.k}: " + " ".join(
        f"{name}={'pass' if ok else 'FAIL'}"
        for name, ok in report.passes.items()), file=echo)
    print(minimal.verdict, file=echo)
    payload = report.to_json()
    if args.output:
        with _staged_outputs(args.output) as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_report(args) -> int:
    tables = []
    for path in args.input:
        try:
            table = read_rows_csv(path)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not len(table):
            raise ValueError(f"{path}: no data rows")
        if table.k.min() < 1:
            raise ValueError(f"{path}: club size k={table.k.min()} below 1")
        for name in ("c1", "c2", "c3", "sociability_raw"):
            inf = np.isinf(getattr(table, name))
            if inf.any():
                raise ValueError(f"{path}: non-finite {name} "
                                 f"at k={table.k[inf.argmax()]}")
        n = int(table.k.max())
        if tables and n != expected_n:
            raise ValueError(
                f"{path}: sweep of a different graph "
                f"(n={n}, expected {expected_n})")
        expected_n = n
        tables.append(table)
    # one row per club size, from the first file that has it
    _, first = np.unique(np.concatenate([t.k for t in tables]),
                         return_index=True)
    rows = SweepTable(**{
        name: np.concatenate([getattr(t, name) for t in tables])[first]
        for name in CSV_COLUMNS
        if all(getattr(t, name) is not None for t in tables)})
    # math.log, not np.log, which differs in the last bit for some k
    xs = (np.fromiter(map(math.log, rows.k.tolist()), float, len(rows))
          / math.log(n) if n > 1 else np.zeros(len(rows)))

    profile = sociability_profile(rows)  # may raise: before any write
    with _staged_outputs(*(f"{args.output}_{name}.dat" for name in
                           ("c1", "c2", "c3", "sociability"))) as fhs:
        for metric, fh in zip(("c1", "c2", "c3"), fhs):
            ys = getattr(rows, metric)
            kept = ~np.isnan(ys)  # NaN is a null value
            fh.write(f"# x=log_n(k)  y={metric}\n")
            _write_rows(fh, "%.6g %.6g\n", [xs[kept], ys[kept]])
        fhs[3].write(f"# x=log_n(k)  y=normalized internal edges per member\n"
                     f"# argmax_k={profile.argmax_k} "
                     f"max_raw={profile.max_raw:.6g}\n")
        _write_rows(fhs[3], "%.6g %.6g\n",
                    [xs, rows.sociability_raw / profile.max_raw])
    print(f"wrote {args.output}_{{c1,c2,c3,sociability}}.dat "
          f"(argmax_k={profile.argmax_k})")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
    "axioms": _cmd_axioms,
    "report": _cmd_report,
}


# exception -> (exit code, label before its message); the first matching
# row wins, and EdgeListError is a ValueError
_EXIT_CODES = (
    (UsageError, 2, ""),
    (MemoryError, 1, "out of memory"),
    (OSError, 1, ""),
    (ValueError, 1, ""),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(row[0] for row in _EXIT_CODES) as exc:
        code, label = next((code, label) for kind, code, label
                           in _EXIT_CODES if isinstance(exc, kind))
        print(": ".join(filter(None, ("richclub", label, str(exc)))),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
