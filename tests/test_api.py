"""The package's public records, each declared in one place: the
exports are the modules' ``__all__``s, the sweep-CSV columns are the
``SweepRow`` fields, and the axiom-report JSON keys are the
``AxiomReport`` fields the README lists."""

import dataclasses
import json
import re
from pathlib import Path

import richclub
from richclub import (CSV_COLUMNS, AxiomThresholds, KGrid, SweepTable,
                      axioms, generators, graph, minimal_elite,
                      parse_edge_list, run_sweep, sweep)

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_every_module_all():
    names = richclub.__all__
    assert len(names) == len(set(names))
    modules = (axioms, generators, graph, sweep)
    assert set(names) == set().union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(richclub, name) is getattr(module, name)
    # the type that an exported function returns is exported with it
    assert "SociabilityProfile" in names and "DegreeOrder" in names


def test_sweep_table_columns_are_the_csv_columns():
    # the one copy of the column list still written out by hand
    assert [f.name for f in dataclasses.fields(SweepTable)] == CSV_COLUMNS


def test_report_json_keys_are_the_readme_list():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = readme.split("*Axiom reports* are JSON:")[1].split("`")[1]
    # the top-level keys, without the nested ones
    top = re.sub(r"\{[^{}]*\}|\[[^\]]*\]", "", listed.strip()[1:-1])
    g = parse_edge_list(["0 1", "1 2", "2 0", "2 3"])
    rows = run_sweep(g, KGrid("full"))
    report = minimal_elite(rows, AxiomThresholds(), m=g.m)
    assert list(json.loads(report.to_json())) == [
        key.strip() for key in top.split(",")]
