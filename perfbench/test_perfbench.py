"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(trace, kind):
    proc = _run(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] == 8 and result["failed"] == 0
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in BENCH[kind]
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_tracer_counts_one_loewner_leq():
    import numpy as np
    from opbellman import spectral

    x = np.diag([1.0, 2.0]).astype(complex)
    with Tracer() as tracer:
        spectral.loewner_leq(x, 2 * x)
    assert dict(tracer.linalg_counts) == {"eigvalsh": 1, "svd": 2}
    assert np.linalg.eigvalsh.__module__ == "numpy.linalg"


def _smoke_report_sha256() -> str:
    from opbellman import campaign

    cfg = campaign.config_from_json(dict(worker.load_workloads()["smoke"]["config"], seed=5))
    text = campaign.report_to_json(campaign.run_campaign(cfg))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_traced_and_untraced_report_digests_match():
    from opbellman import campaign

    plain = _smoke_report_sha256()
    with Tracer() as tracer:
        traced = _smoke_report_sha256()
    assert traced == plain
    assert tracer.builds == 4 and tracer.checks == 4
    assert campaign.run_check_trial.__module__ == "opbellman.campaign"


def test_trace_counts_repeat_for_one_seed():
    runs = [
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", "smoke", "--seed", "9", "--traced"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr
    first, second = (json.loads(r.stdout.strip().splitlines()[-1]) for r in runs)
    assert first["trace_counts"] == second["trace_counts"]
    assert first["trace_counts"]["spans.constants.oracle"] >= 1


def test_workload_expectations_match_the_configs():
    from opbellman import campaign

    for name, spec in worker.load_workloads().items():
        cfg = campaign.config_from_json(dict(spec["config"], seed=1))
        cells = sum(len(campaign.expand_cells(c, cfg)) for c in cfg.checks)
        assert {"cells": cells, "trials": cells * cfg.trials} == spec["expect"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_time_is_left_out_of_spans():
    tracer = Tracer()
    tracer.wrap("outer", tracer.wrap("inner", lambda: tracer.pause(0.5)))()
    (*_, inner_busy, inner_self, _), (*_, outer_busy, outer_self, _) = tracer.spans
    assert max(inner_busy, inner_self, outer_busy, outer_self) < 0.1
