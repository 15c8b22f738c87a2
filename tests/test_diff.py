"""``opbellman diff``: the cells in which two reports differ."""

import json

import pytest

from opbellman import cli
from opbellman.campaign import CampaignConfig, report_to_json, run_campaign

_CFG = CampaignConfig(
    trials=2, dims=(2,), n_values=(2,), checks=("jensen_map", "bellman_mean", "scalar_aczel"), seed=5
)


@pytest.fixture(scope="module")
def report():
    return json.loads(report_to_json(run_campaign(_CFG)))


def _diff(tmp_path, capsys, a, b, *flags):
    """(exit code, printed lines, error text) of ``opbellman diff`` on the reports a and b."""
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = cli.main(["diff", *map(str, paths), *flags])
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


def _summary(compared, changed=0, only_a=0, only_b=0) -> str:
    return f"{compared} cells compared, {changed} changed, {only_a} only in A, {only_b} only in B;"


def test_identical_reports_differ_in_no_cell(tmp_path, capsys, report):
    code, lines, _ = _diff(tmp_path, capsys, report, report)
    cells = len(report["cells"])
    assert cells >= 10 and code == 0
    assert lines == [
        f"{_summary(cells)} largest change: min_slack 0, median_normalized_slack 0; 0 argmin flips"
    ]


def test_a_changed_count_names_its_cell(tmp_path, capsys, report):
    other = json.loads(json.dumps(report))
    row = other["cells"][3]
    row["holds"] -= 1
    row["violations"] += 1
    row["na_guards"] = {"spectrum_window_below_m": 1}
    code, lines, _ = _diff(tmp_path, capsys, report, other)
    assert code == 2 and len(lines) == 2
    assert lines[0].startswith(f"changed {row['check']} {json.dumps(row['cell'], sort_keys=True)}: ")
    for change in (
        f"holds {row['holds'] + 1} -> {row['holds']}",
        f"violations {row['violations'] - 1} -> {row['violations']}",
        "na_guards {} -> {'spectrum_window_below_m': 1}",
    ):
        assert change in lines[0]
    assert lines[1].startswith(_summary(len(report["cells"]), changed=1))


def test_a_slack_change_within_the_tolerance_is_no_change(tmp_path, capsys, report):
    other = json.loads(json.dumps(report))
    row = next(r for r in other["cells"] if r["min_slack"])
    row["min_slack"] += 1e-15 * max(1.0, abs(row["min_slack"]))
    row["argmin"] = {"trial": 1 - row["argmin"]["trial"]}
    code, lines, _ = _diff(tmp_path, capsys, report, other, "--slack-tol", "1e-12")
    assert code == 0 and len(lines) == 1
    assert lines[0].startswith(_summary(len(report["cells"]))) and lines[0].endswith("; 1 argmin flips")
    code, lines, _ = _diff(tmp_path, capsys, report, other)
    assert code == 2 and len(lines) == 2
    assert lines[0].startswith(f"changed {row['check']} ") and "min_slack" in lines[0]
    assert "median_normalized_slack" not in lines[0]


def test_a_cell_in_one_report_only_differs(tmp_path, capsys, report):
    other = json.loads(json.dumps(report))
    gone = other["cells"].pop(0)
    cells = len(report["cells"])
    code, lines, _ = _diff(tmp_path, capsys, report, other)
    assert code == 2
    assert lines[0] == f"only in A {gone['check']} {json.dumps(gone['cell'], sort_keys=True)}"
    assert lines[1].startswith(_summary(cells - 1, only_a=1))
    code, lines, _ = _diff(tmp_path, capsys, other, report)
    assert code == 2 and lines[0].startswith("only in B ")


@pytest.mark.parametrize(
    "doc",
    [
        "{not json",
        json.dumps({"schema": "opbellman-witness/2"}),
        json.dumps({"schema": "opbellman-report/2", "cells": []}),
        json.dumps({"schema": "opbellman-report/1", "cells": [{"check": "jensen_map", "cell": {}}]}),
    ],
    ids=["invalid-json", "a-witness", "another-schema", "a-cell-without-counts"],
)
def test_a_file_that_is_not_a_report_is_an_error(tmp_path, capsys, report, doc):
    code, lines, err = _diff(tmp_path, capsys, report, doc)
    assert code == 1 and lines == []
    assert err.startswith("error: ") and "b.json" in err


def test_an_unreadable_file_is_an_error(tmp_path, capsys):
    code = cli.main(["diff", str(tmp_path / "missing.json"), str(tmp_path / "missing.json")])
    assert code == 1
    assert "cannot read report" in capsys.readouterr().err
