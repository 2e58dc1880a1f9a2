"""Smoke checks of the command line, each run as ``python -m richclub``
in a fresh process under a temporary directory.

Checks that another test already makes are not repeated here:

- the ``generate | sweep | axioms | report`` pipeline on BA(200, 3)
  seed 1: ``test_cli.py::test_every_command_runs_without_scipy``;
- ``sweep`` and ``axioms`` without ``-o`` write the ``-o`` file to
  stdout, on that graph and on the directed ER(300, 0.02) seed 1, whose
  ``sweep --directed`` and ``axioms --directed`` runs are made there too:
  ``test_cli.py::test_data_on_stdout_is_the_output_file``;
- affiliation(300) seed 1, its ``.bipartite`` file, ``sweep --grid
  full`` and ``report``: ``test_cli.py::test_benchmark_traced_pipeline``;
- ``axioms`` gives the same bytes whatever ``--grid``/``--points``:
  ``test_cli.py::test_axioms_reads_every_club_size_whatever_the_grid``;
- ER(3 * 10**6, 1e-300) neither wraps nor loops:
  ``test_generators.py::test_er_edge_count_within_5_sigma``;
- ``generate --model ba --directed`` exits 2 and writes nothing:
  ``test_cli.py::test_generate_invalid_params_exit_2``;
- ``report`` of a CSV with k = 0 exits 1 and writes no plot file:
  ``test_cli.py::test_report_rejects_club_size_below_1``.
"""

import pytest

from test_cli import run_cli_subprocess


def richclub(cwd, *args, code=0):
    proc = run_cli_subprocess(*args, cwd=cwd)
    assert proc.returncode == code, (args, proc.stderr)


@pytest.fixture(scope="module")
def ba(tmp_path_factory):
    """A directory holding BA(200, 3) seed 1 and its root-grid sweep."""
    cwd = tmp_path_factory.mktemp("ba")
    richclub(cwd, "generate", "--model", "ba", "--n", "200", "--mprime", "3",
             "--seed", "1", "-o", "g.txt")
    richclub(cwd, "sweep", "-i", "g.txt", "-o", "rows.csv")
    return cwd


def test_linear_grid_and_a_report_merging_two_sweeps(ba):
    richclub(ba, "sweep", "-i", "g.txt", "-o", "lin_rows.csv",
             "--grid", "linear", "--points", "7")
    richclub(ba, "report", "-i", "rows.csv", "lin_rows.csv", "-o", "two_plot")
    assert (ba / "two_plot_sociability.dat").exists()


def test_directed_full_grid_has_empty_sym_ratio_fields(tmp_path):
    richclub(tmp_path, "generate", "--model", "er", "--n", "300", "--p",
             "0.02", "--directed", "--seed", "1", "-o", "d.txt")
    richclub(tmp_path, "sweep", "-i", "d.txt", "-o", "d_full.csv",
             "--directed", "--grid", "full")
    lines = (tmp_path / "d_full.csv").read_text().splitlines()
    assert lines[0].endswith(",internal_arcs,reciprocal_arcs,sym_ratio")
    assert len(lines) == 301 and any(ln.endswith(",") for ln in lines[1:])


def test_sparse_ids(tmp_path):
    (tmp_path / "sparse.txt").write_text(
        "1000000000000 7\n7 42\n42 1000000000000\n")
    richclub(tmp_path, "sweep", "-i", "sparse.txt", "-o", "sparse_rows.csv")


def test_full_grid_longer_than_one_csv_chunk(tmp_path):
    # the row writer, and the reader across chunk boundaries
    richclub(tmp_path, "generate", "--model", "ba", "--n", "20000",
             "--mprime", "2", "--seed", "1", "-o", "big.txt")
    richclub(tmp_path, "sweep", "-i", "big.txt", "-o", "big_rows.csv",
             "--grid", "full")
    richclub(tmp_path, "report", "-i", "big_rows.csv", "-o", "big_plot")
    assert len((tmp_path / "big_plot_sociability.dat").read_text()
               .splitlines()) == 2 + 20000


def test_zero_grid_points_exit_2(ba):
    richclub(ba, "sweep", "-i", "g.txt", "-o", "bad.csv", "--points", "0",
             code=2)
    assert not (ba / "bad.csv").exists()


def test_report_of_an_infinite_field_exit_1(ba):
    lines = (ba / "rows.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[8] = "inf"  # sociability_raw
    lines[1] = ",".join(fields)
    (ba / "inf.csv").write_text("\n".join(lines) + "\n")
    richclub(ba, "report", "-i", "inf.csv", "-o", "inf_plot", code=1)
    assert not list(ba.glob("inf_plot_*"))
