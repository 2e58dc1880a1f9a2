import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from richclub import (AxiomThresholds, GeneratorConfig, generate,
                      parse_edge_list, read_rows_csv, run_sweep,
                      write_bipartite, write_edge_list, write_rows_csv)
from richclub.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    """Invoke the CLI in-process, capturing exit code."""
    return main(list(args))


def run_python(*args, cwd=None, **environ):
    """Run a fresh interpreter with the package's ``src`` importable and
    ``environ`` added to the environment."""
    env = dict(os.environ, **environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def run_cli_subprocess(*args, cwd=None, **environ):
    return run_python("-m", "richclub", *args, cwd=cwd, **environ)


# -------------------------------------------------------- generate


def test_generate_ba_respects_edge_bound(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = run_cli("generate", "--model", "ba", "--n", "1000",
                   "--mprime", "10", "--seed", "7", "-o", str(out))
    assert code == 0
    g = parse_edge_list(str(out))
    assert g.n == 1000
    assert g.m == 45 + 9900
    assert "seed=7" in capsys.readouterr().out


def test_generate_er_p1_complete(tmp_path):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "er", "--n", "1000",
                   "--p", "1.0", "--seed", "1", "-o", str(out)) == 0
    assert parse_edge_list(str(out)).m == 499500


def test_generate_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run_cli("generate", "--model", "ba", "--n", "300",
                       "--mprime", "3", "--seed", "42",
                       "-o", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_prints_fresh_seed_when_unset(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "er", "--n", "50",
                   "--p", "0.1", "-o", str(out)) == 0
    assert "seed=" in capsys.readouterr().out


def test_generate_affiliation_emits_bipartite_file(tmp_path):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "affiliation", "--n", "200",
                   "--seed", "3", "-o", str(out)) == 0
    side = tmp_path / "g.txt.bipartite"
    assert side.exists()
    first = side.read_text().splitlines()[0]
    assert first.startswith("# bipartite")
    assert "\t" in side.read_text().splitlines()[1]


def test_generate_invalid_params_exit_2(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "er", "--n", "10",
                   "--p", "2.0", "--seed", "1", "-o", str(out)) == 2
    assert run_cli("generate", "--model", "er", "--n", "10",
                   "-o", str(out)) == 2   # missing --p
    assert run_cli("generate", "--model", "ba", "--n", "5",
                   "--mprime", "9", "--seed", "1", "-o", str(out)) == 2
    assert run_cli("generate", "--model", "ba", "--n", "10",
                   "--mprime", "2", "--seed", "-1", "-o", str(out)) == 2
    assert run_cli("generate", "--model", "ba", "--n", "10",
                   "--mprime", "2", "--directed", "-o", str(out)) == 2
    assert run_cli("generate", "--model", "affiliation", "--n", "10",
                   "--directed", "-o", str(out)) == 2
    capsys.readouterr()
    # a flag the model does not read is refused, not ignored, whatever
    # its value: another model's default included
    for model, flag, value in (("ba", "p", "0.5"), ("er", "mprime", "3"),
                               ("er", "cq", "3"), ("affiliation", "p", "0.2"),
                               ("er", "cq", "2"), ("ba", "beta", "0.5"),
                               ("affiliation", "p", "0.0")):
        given = {"er": ["--p", "0.5"], "ba": ["--mprime", "2"],
                 "affiliation": []}[model]
        assert run_cli("generate", "--model", model, "--n", "10", *given,
                       f"--{flag}", value, "-o", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"richclub: {model}: {flag} does not apply"]
    assert not list(tmp_path.iterdir())


def test_generate_node_limit_exit_2_before_any_work(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "er", "--n", "3000000000",
                   "--p", "1e-19", "--seed", "1", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n must be below 2147483648" in err
    assert not out.exists()


def test_generate_out_of_memory_exit_1_one_line(tmp_path, capsys,
                                               monkeypatch):
    def refuse(cfg):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr("richclub.cli.generate", refuse)
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "ba", "--n", "2000000000",
                   "--mprime", "1000", "--seed", "1", "-o", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "richclub: out of memory: Unable to allocate 14.6 TiB for an array"]
    assert not out.exists()


@pytest.mark.parametrize("model, outputs", [
    # --s 40 makes the attachment draw cap bind
    (["affiliation", "--n", "2000", "--seed", "5", "--s", "40"],
     ["g.txt", "g.txt.bipartite"]),
    (["ba", "--n", "2000", "--mprime", "3", "--seed", "5"], ["g.txt"]),
    # 995 of this graph's nodes change only because a target they copied
    # was redrawn
    (["ba", "--n", "3000", "--mprime", "10", "--seed", "7"], ["g.txt"]),
    (["er", "--n", "2000", "--p", "0.005", "--directed", "--seed", "5"],
     ["g.txt"]),
], ids=["affiliation", "ba", "ba-redraws", "er-directed"])
def test_generate_independent_of_string_hashing(model, outputs, tmp_path):
    # two processes with different string hashing give the same files
    for hash_seed in ("1", "2"):
        (tmp_path / hash_seed).mkdir()
        proc = run_cli_subprocess("generate", "--model", *model, "-o",
                                  "g.txt", cwd=tmp_path / hash_seed,
                                  PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())


def test_cli_defaults_are_the_library_defaults(tmp_path, capsys):
    g_path = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "affiliation", "--n", "500",
                   "--seed", "3", "-o", str(g_path)) == 0
    bip, g = generate(GeneratorConfig.affiliation(500, 3))
    for path, write, obj in ((g_path, write_edge_list, g),
                             (tmp_path / "g.txt.bipartite", write_bipartite,
                              bip)):
        expected = io.StringIO()
        write(obj, expected)
        assert path.read_text() == expected.getvalue()
    rows = tmp_path / "rows.csv"
    assert run_cli("sweep", "-i", str(g_path), "-o", str(rows)) == 0
    expected = io.StringIO()
    write_rows_csv(run_sweep(parse_edge_list(str(g_path))), expected)
    assert rows.read_text() == expected.getvalue()
    capsys.readouterr()
    assert run_cli("axioms", "-i", str(g_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["thresholds"] == AxiomThresholds().to_dict()


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the outputs were checked")


@pytest.mark.parametrize("args, code, named", [
    (["generate", "--model", "ba", "--n", "10", "--mprime", "2",
      "-o", "nodir/g.txt"], 1, "nodir/g.txt"),
    (["sweep", "-i", "g.txt", "-o", "nodir/rows.csv"], 1, "nodir/rows.csv"),
    (["axioms", "-i", "g.txt", "-o", "nodir/a.json"], 1, "nodir/a.json"),
    (["axioms", "-i", "g.txt", "-o", "sub"], 1, "sub"),
    (["report", "-i", "rows.csv", "-o", "nodir/plot"], 1,
     "nodir/plot_c1.dat"),
    (["sweep", "-i", "g.txt", "-o", "g.txt"], 2, "g.txt"),
    (["axioms", "-i", "g.txt", "-o", "./g.txt"], 2, "./g.txt"),
    (["report", "-i", "rows.csv", "plot_c3.dat", "-o", "plot"], 2,
     "plot_c3.dat"),
])
def test_outputs_checked_before_any_work(args, code, named, tmp_path,
                                         monkeypatch, capsys):
    # a missing output directory or an output that is a directory exits
    # 1, and an output that is an input exits 2, all before the input is
    # read or a graph generated
    monkeypatch.chdir(tmp_path)
    files = {"g.txt": "0 1\n1 2\n", "rows.csv": "k\n",
             "plot_c3.dat": "# x y\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "sub").mkdir()
    for name in ("generate", "parse_edge_list", "read_rows_csv"):
        monkeypatch.setattr(f"richclub.cli.{name}", _refuse)
    assert run_cli(*args) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"richclub: {named}: ")
    # inputs untouched, and no temp file left behind
    assert {p.name: p.is_file() and p.read_text()
            for p in tmp_path.iterdir()} == {**files, "sub": False}


def test_generate_bipartite_output_checked_before_any_work(
        tmp_path, monkeypatch, capsys):
    # affiliation also writes <output>.bipartite: a directory there exits
    # 1 naming that path, before the graph is generated
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt.bipartite").mkdir()
    monkeypatch.setattr("richclub.cli.generate", _refuse)
    assert run_cli("generate", "--model", "affiliation", "--n", "300",
                   "--seed", "1", "-o", "g.txt") == 1
    assert capsys.readouterr().err.splitlines() == [
        "richclub: g.txt.bipartite: is a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt.bipartite"]


def test_temp_file_failure_names_the_output(tmp_path, monkeypatch, capsys):
    def refuse(**kwargs):
        raise PermissionError(13, "Permission denied")

    g = tmp_path / "g.txt"
    g.write_text("0 1\n1 2\n")
    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "-i", str(g), "-o", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"richclub: {out}: Permission denied"]
    assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]


def test_benchmark_traced_pipeline(tmp_path, monkeypatch):
    # perfbench/traced.py wraps names that richclub.cli imports and runs
    # the real commands; its per-layer metrics need a span of every
    # layer outside the probe, and the sweep's counters
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    wl = workloads.Workload("traced", {"full": {"model": "affiliation",
                                                "n": 300}},
                            sweep_grid="full")
    spans, counters = [], {}
    for command, args in wl.commands("full", 1):
        spec = tmp_path / f"spec-{command}.json"
        spec.write_text(json.dumps({
            "command": command, "args": args, "workload": wl.name,
            "run": "test", "src": str(ROOT / "src"),
            "out": f"trace-{command}.json"}))
        proc = run_python(str(ROOT / "perfbench" / "traced.py"), spec.name,
                          cwd=tmp_path)
        assert proc.returncode == 0, (command, proc.stderr)
        trace = json.loads((tmp_path / f"trace-{command}.json").read_text())
        probes = {s["id"] for s in trace["spans"] if s["name"] == "probe"}
        spans += [s["name"] for s in trace["spans"]
                  if s["parent"] not in probes]
        counters[command] = trace["counters"]
    for layer in ("generators.", "graph.", "sweep.", "axioms."):
        assert any(name.startswith(layer) for name in spans), layer
    assert {"n", "m", "loops_dropped", "duplicates_dropped", "projection_m",
            "grid_points"} <= set(counters["sweep"])


PIPELINE = (
    ["generate", "--model", "ba", "--n", "200", "--mprime", "3",
     "--seed", "1", "-o", "g.txt"],
    ["sweep", "-i", "g.txt", "-o", "rows.csv"],
    ["axioms", "-i", "g.txt", "-o", "axioms.json"],
    ["report", "-i", "rows.csv", "-o", "plot"],
)


def test_every_command_runs_without_scipy(tmp_path, monkeypatch, capsys):
    # numpy is the only runtime dependency: with scipy made unimportable,
    # every command still succeeds and writes the same files
    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    blocked.mkdir()
    plain.mkdir()
    script = ("import sys\n"
              "sys.modules['scipy'] = None\n"
              "import richclub.cli\n"
              f"for args in {PIPELINE!r}:\n"
              "    assert richclub.cli.main(args) == 0, args[0]\n")
    proc = run_python("-c", script, cwd=blocked)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(plain)
    for args in PIPELINE:
        assert run_cli(*args) == 0
    capsys.readouterr()
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes()


GRAPHS = {
    "ba": ["--model", "ba", "--n", "200", "--mprime", "3", "--seed", "1"],
    "er": ["--model", "er", "--n", "300", "--p", "0.02", "--directed",
           "--seed", "1"],
}


@pytest.mark.parametrize("directed", [[], ["--directed"]])
def test_data_on_stdout_is_the_output_file(directed, tmp_path, capsys):
    # without -o, stdout holds the data alone and the summary lines go
    # to stderr; with -o, they go to stdout
    g = tmp_path / "g.txt"
    model = GRAPHS["er"] if directed else GRAPHS["ba"]
    assert run_cli("generate", *model, "-o", str(g)) == 0
    capsys.readouterr()
    for command, parse in (("sweep", lambda t: read_rows_csv(io.StringIO(t))),
                           ("axioms", json.loads)):
        out = tmp_path / command
        assert run_cli(command, "-i", str(g), "-o", str(out),
                       *directed) == 0
        summary = capsys.readouterr().out
        assert summary
        assert run_cli(command, "-i", str(g), *directed) == 0
        captured = capsys.readouterr()
        assert captured.out == out.read_text()
        assert captured.err == summary
        parse(captured.out)


def test_usage_error_exit_2_subprocess():
    proc = run_cli_subprocess("generate", "--model", "zzz", "--n", "5",
                              "-o", "/tmp/never.txt")
    assert proc.returncode == 2


# ----------------------------------------------------------- sweep


@pytest.fixture
def small_graph_file(tmp_path):
    out = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "ba", "--n", "100",
                   "--mprime", "3", "--seed", "5", "-o", str(out)) == 0
    return out


def test_sweep_full_grid_row_count(small_graph_file, tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    assert run_cli("sweep", "-i", str(small_graph_file),
                   "--grid", "full", "-o", str(csv)) == 0
    rows = read_rows_csv(str(csv))
    assert len(rows) == 100
    assert "sqrt(m)-club" in capsys.readouterr().out


def test_sweep_root_grid_contains_sqrt_m(small_graph_file, tmp_path):
    csv = tmp_path / "rows.csv"
    assert run_cli("sweep", "-i", str(small_graph_file),
                   "--grid", "root", "--points", "30",
                   "-o", str(csv)) == 0
    g = parse_edge_list(str(small_graph_file))
    ks = {r.k for r in read_rows_csv(str(csv))}
    assert math.isqrt(g.m) in ks
    assert math.isqrt(g.n) in ks


def test_sweep_missing_input_exit_1(tmp_path, capsys):
    assert run_cli("sweep", "-i", str(tmp_path / "nope.txt"),
                   "-o", str(tmp_path / "o.csv")) == 1
    assert not (tmp_path / "o.csv").exists()
    capsys.readouterr()


def test_sweep_malformed_line_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 banana\n")
    out = tmp_path / "o.csv"
    assert run_cli("sweep", "-i", str(bad), "-o", str(out)) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert not out.exists()  # partial outputs removed


def test_sweep_id_beyond_int64_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "huge.txt"
    bad.write_text("0 1\n100000000000000000000 2\n")
    out = tmp_path / "o.csv"
    assert run_cli("sweep", "-i", str(bad), "-o", str(out)) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["richclub: line 2: id does not fit in int64"]
    assert not out.exists()


@pytest.mark.parametrize("grid", ["full", "linear", "root"])
def test_sweep_bad_points_exit_2_before_reading_input(grid, tmp_path, capsys):
    assert run_cli("sweep", "-i", str(tmp_path / "nope.txt"),
                   "--grid", grid, "--points", "0") == 2
    err = capsys.readouterr().err
    assert "point" in err and "nope.txt" not in err


def test_sweep_directed_emits_arc_columns(tmp_path):
    arcs = tmp_path / "d.txt"
    arcs.write_text("0 1\n1 0\n0 2\n")
    csv = tmp_path / "rows.csv"
    assert run_cli("sweep", "-i", str(arcs), "--directed",
                   "--grid", "full", "-o", str(csv)) == 0
    rows = read_rows_csv(str(csv))
    assert rows[-1].internal_arcs == 3
    assert rows[-1].reciprocal_arcs == 2


# ---------------------------------------------------------- axioms


def test_axioms_k4_all_pass(tmp_path, capsys):
    g = tmp_path / "k4.txt"
    g.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    rep = tmp_path / "rep.json"
    assert run_cli("axioms", "-i", str(g), "--grid", "full",
                   "-o", str(rep)) == 0
    payload = json.loads(rep.read_text())
    assert set(payload) == {"k", "sqrt_m", "constants", "thresholds",
                            "passes", "minimal_k",
                            "minimal_k_over_sqrt_m", "theorem_checks"}
    assert payload["passes"] == {"a1": True, "a2": True, "a4": True}
    assert payload["minimal_k"] <= 3
    assert payload["sqrt_m"] == 2
    capsys.readouterr()


def test_axioms_custom_thresholds(tmp_path, capsys):
    g = tmp_path / "k4.txt"
    g.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    rep = tmp_path / "rep.json"
    assert run_cli("axioms", "-i", str(g), "--grid", "full",
                   "--c1min", "0.9", "--c2min", "0.9", "--c3min", "1.9",
                   "-o", str(rep)) == 0
    payload = json.loads(rep.read_text())
    assert payload["thresholds"] == {"c1_min": 0.9, "c2_min": 0.9,
                                     "c3_min": 1.9}
    capsys.readouterr()


def test_axioms_bad_threshold_exit_2_before_reading_input(tmp_path, capsys):
    assert run_cli("axioms", "-i", str(tmp_path / "nope.txt"),
                   "--c1min", "2") == 2
    err = capsys.readouterr().err
    assert "c1_min" in err and "nope.txt" not in err


def test_axioms_reads_every_club_size_whatever_the_grid(tmp_path, capsys):
    # the minimal passing club has k=13; the first passing row of a
    # three-point linear grid is k=44, so axioms must not use that grid
    g = tmp_path / "g.txt"
    assert run_cli("generate", "--model", "ba", "--n", "2000",
                   "--mprime", "3", "--seed", "1", "-o", str(g)) == 0
    default, linear = tmp_path / "default.json", tmp_path / "linear.json"
    assert run_cli("axioms", "-i", str(g), "-o", str(default)) == 0
    assert run_cli("axioms", "-i", str(g), "--grid", "linear",
                   "--points", "3", "-o", str(linear)) == 0
    assert json.loads(default.read_text())["minimal_k"] == 13
    assert linear.read_bytes() == default.read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------- report


def make_sweep_csv(tmp_path, name="rows.csv", n="80"):
    g = tmp_path / f"src-{name}.txt"
    assert run_cli("generate", "--model", "ba", "--n", n,
                   "--mprime", "3", "--seed", "11", "-o", str(g)) == 0
    csv = tmp_path / name
    assert run_cli("sweep", "-i", str(g), "--grid", "full",
                   "-o", str(csv)) == 0
    return csv


def test_report_outputs_plot_files(tmp_path, capsys):
    csv = make_sweep_csv(tmp_path)
    prefix = tmp_path / "plots"
    assert run_cli("report", "-i", str(csv), "-o", str(prefix)) == 0
    for metric in ("c1", "c2", "c3", "sociability"):
        assert (tmp_path / f"plots_{metric}.dat").exists()
    lines = [ln for ln in
             (tmp_path / "plots_sociability.dat").read_text().splitlines()
             if not ln.startswith("#")]
    xs = [float(ln.split()[0]) for ln in lines]
    ys = [float(ln.split()[1]) for ln in lines]
    assert min(xs) == 0.0 and max(xs) == pytest.approx(1.0)
    assert max(ys) == 1.0
    header = (tmp_path / "plots_sociability.dat").read_text()
    assert "argmax_k=" in header
    capsys.readouterr()


def test_report_idempotent_across_duplicate_csvs(tmp_path, capsys):
    csv = make_sweep_csv(tmp_path)
    p1, p2 = tmp_path / "one", tmp_path / "two"
    assert run_cli("report", "-i", str(csv), "-o", str(p1)) == 0
    assert run_cli("report", "-i", str(csv), str(csv), "-o", str(p2)) == 0
    for metric in ("c1", "c2", "c3", "sociability"):
        assert ((tmp_path / f"one_{metric}.dat").read_text()
                == (tmp_path / f"two_{metric}.dat").read_text())
    capsys.readouterr()


def test_report_rejects_mismatched_graphs(tmp_path, capsys):
    a = make_sweep_csv(tmp_path, "a.csv", n="80")
    b = make_sweep_csv(tmp_path, "b.csv", n="90")
    assert run_cli("report", "-i", str(a), str(b),
                   "-o", str(tmp_path / "plots")) == 1
    err = capsys.readouterr().err
    assert "b.csv" in err
    assert not (tmp_path / "plots_c1.dat").exists()


@pytest.mark.parametrize("k", ["0", "-4"])
def test_report_rejects_club_size_below_1(tmp_path, capsys, k):
    # log(k) is undefined there: the file is named before any output
    csv = make_sweep_csv(tmp_path)
    lines = csv.read_text().splitlines()
    lines[1] = ",".join([k] + lines[1].split(",")[1:])
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("report", "-i", str(csv),
                   "-o", str(tmp_path / "plots")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"richclub: {csv}: club size k={k} below 1"]
    assert not list(tmp_path.glob("plots_*.dat"))


@pytest.mark.parametrize("column, value", [("sociability_raw", "inf"),
                                           ("c1", "-inf")])
def test_report_rejects_infinite_values(tmp_path, capsys, column, value):
    # an infinite value would reach the plot files as an empty field
    csv = make_sweep_csv(tmp_path)
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[2].split(",")
    fields[header.index(column)] = value
    lines[2] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("report", "-i", str(csv),
                   "-o", str(tmp_path / "plots")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"richclub: {csv}: non-finite {column} at k={fields[0]}"]
    assert not list(tmp_path.glob("plots_*.dat"))


def test_report_failure_leaves_no_plot_file(tmp_path, capsys):
    # an edgeless graph has no sociability profile: report exits 1
    # before any of its four files is renamed in
    g = tmp_path / "g.txt"
    g.write_text("0 0\n")
    csv = tmp_path / "rows.csv"
    assert run_cli("sweep", "-i", str(g), "-o", str(csv)) == 0
    assert run_cli("report", "-i", str(csv),
                   "-o", str(tmp_path / "plots")) == 1
    assert "degenerate sociability profile" in capsys.readouterr().err
    assert not list(tmp_path.glob("plots_*.dat"))


@pytest.mark.parametrize("edit, message", [
    (lambda f: f[:4], "expected 15 fields, got 4"),
    (lambda f: f + ["1"], "expected 15 fields, got 16"),
    (lambda f: f[:1] + ["x"] + f[2:], "bad degree_at_k value 'x'"),
    # only c2, coverage and the arc columns may be empty
    (lambda f: [""] + f[1:], "bad k value ''"),
    (lambda f: f[:5] + [""] + f[6:], "bad c1 value ''"),
    (lambda f: f[:8] + [""] + f[9:], "bad sociability_raw value ''"),
])
def test_report_rejects_malformed_row(tmp_path, capsys, edit, message):
    csv = make_sweep_csv(tmp_path)
    lines = csv.read_text().splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("report", "-i", str(csv),
                   "-o", str(tmp_path / "plots")) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"richclub: {csv}: line 4: {message}"]
    assert not (tmp_path / "plots_c1.dat").exists()


def test_console_entry_point_help():
    proc = run_cli_subprocess("--help")
    assert proc.returncode == 0
    for sub in ("generate", "sweep", "axioms", "report"):
        assert sub in proc.stdout
