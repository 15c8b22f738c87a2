import contextlib
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from test_acceptance import ACCEPT_CFG

from opbellman import campaign, checks, cli, instances
from opbellman.campaign import (
    CampaignConfig,
    config_from_json,
    config_to_json,
    make_witness,
    replay_witness,
    run_campaign,
    run_check_trial,
)
from opbellman.checks import CheckOutcome, check
from opbellman.errors import HypothesisError, ParameterError, UnboundedRatioError, WitnessFormatError
from opbellman.instances import InstanceFamily, Streams, stream_states
from opbellman.means import POSITIVE_HALFLINE, function_from_id, mean
from opbellman.positive_maps import Compression, PerTrialMap, UnitaryMixture
from opbellman.spectral import Tolerance, adjoint, apply_function, hermitize


def _tiny_cfg(**kw):
    base = dict(
        trials=1,
        dims=(1, 2),
        n_values=(1, 2),
        p_grid=(0.5,),
        lambda_grid=(0.5,),
        means=("geom:0.5",),
        maps=("id",),
        seed=99,
    )
    base.update(kw)
    return CampaignConfig(**base)


def test_config_round_trip():
    cfg = _tiny_cfg(checks=("bellman_map", "scalar_aczel"))
    back = config_from_json(config_to_json(cfg))
    assert back == cfg


def test_config_validation_messages():
    with pytest.raises(ParameterError, match="p_grid\\[0\\]"):
        _tiny_cfg(p_grid=(1.5,)).validate()
    with pytest.raises(ParameterError, match="unknown inequality id"):
        _tiny_cfg(checks=("nope",)).validate()
    with pytest.raises(ParameterError, match="intervals\\[0\\]"):
        _tiny_cfg(intervals=((2.0, 1.0),)).validate()
    with pytest.raises(ParameterError, match="unknown config keys"):
        config_from_json({"surprise": 1})


def test_config_validation_rejects_unbuildable_map_ids(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran before validation")

    monkeypatch.setattr(campaign, "run_check_trial", no_trial)
    for map_id in ("block-avg:2", "nonsense:3"):
        with pytest.raises(ParameterError, match="maps\\[0\\]"):
            config_from_json({"maps": [map_id], "checks": ["jensen_map"]})
        with pytest.raises(ParameterError, match="maps\\[0\\]"):
            run_campaign(_tiny_cfg(maps=(map_id,), checks=("jensen_map",)))


def test_default_config_cell_counts():
    cfg = CampaignConfig()
    counts = {cid: len(campaign.expand_cells(cid, cfg)) for cid in cfg.checks}
    assert counts == {
        "bellman_map": 36,
        "bellman_mean": 24,
        "jensen_map": 108,
        "mean_superadditive": 24,
        "mean_remainder": 24,
        "mean_power_compose": 12,
        "jensen_ratio_reverse": 72,
        "mean_map_ratio_reverse": 36,
        "mean_sum_ratio_reverse": 24,
        "bellman_ratio_reverse": 24,
        "compression_ratio_reverse": 24,
        "mean_power_ratio_reverse": 12,
        "bellman_arith_reverse": 12,
        "jensen_diff_reverse": 108,
        "mean_map_diff_reverse": 36,
        "mean_sum_diff_reverse": 24,
        "bellman_diff_reverse": 24,
        "aczel_reverse": 12,
        "jensen_family_diff_reverse": 216,
        "bellman_family_reverse": 36,
        "log_family_reverse": 72,
        "bellman_chain_split": 24,
        "bellman_chain_interp": 12,
        "scalar_bellman": 2,
        "scalar_aczel": 2,
        "scalar_popoviciu": 2,
        "scalar_bellman_weighted": 2,
        "scalar_bellman_columns": 2,
        "scalar_bellman_reverse": 2,
    }
    assert sum(counts.values()) == 1008


#: Params a builder draws itself; every other param is a cell key.
DRAWN_PARAMS = {
    "bellman_chain_interp": {"t"},
    "aczel_reverse": {"lam"},
    "scalar_bellman": {"p"},
    "scalar_aczel": {"p"},
    "scalar_popoviciu": {"p"},
}


def test_trial_params_are_the_cell_plus_declared_draws():
    cfg = CampaignConfig()
    for check_id in cfg.checks:
        drawn = DRAWN_PARAMS.get(check_id, set())
        for cell in campaign.expand_cells(check_id, cfg):
            _, inst, params, _ = run_check_trial(check_id, cell, cfg, 0)
            assert inst is not None
            from_cell = {k: v for k, v in cell.items() if k not in ("dim", "n", "map")}
            assert set(params) == set(from_cell) | drawn, (check_id, cell)
            assert {k: params[k] for k in from_cell} == from_cell, (check_id, cell)
            if check_id == "aczel_reverse":
                assert params["lam"] == cell["p"]


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("")
    args = cli.build_parser().parse_args(["run", "--config", str(path)])
    cfg = cli._load_config(args)
    assert cfg.trials == CampaignConfig().trials
    assert cfg.checks == CampaignConfig().checks


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 5, "seed": 3}))
    args = cli.build_parser().parse_args(
        ["run", "--config", str(path), "--trials", "2", "--checks", "scalar_aczel"]
    )
    cfg = cli._load_config(args)
    assert cfg.trials == 2
    assert cfg.seed == 3
    assert cfg.checks == ("scalar_aczel",)


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("BELLMAN_SEED", "4242")
    args = cli.build_parser().parse_args(["run"])
    cfg = cli._load_config(args)
    assert cfg.seed == 4242
    args = cli.build_parser().parse_args(["run", "--seed", "7"])
    assert cli._load_config(args).seed == 7


def test_single_trial_single_check():
    cfg = _tiny_cfg(checks=("bellman_map",), dims=(1,), n_values=(1,))
    report = run_campaign(cfg)
    assert report["summary"]["violations"] == 0
    assert report["summary"]["holds"] >= 1
    assert all(row["check"] == "bellman_map" for row in report["cells"])


def test_report_determinism_same_seed():
    cfg = _tiny_cfg(checks=("bellman_mean", "mean_sum_diff_reverse", "scalar_bellman_reverse"))
    r1 = campaign.report_to_json(run_campaign(cfg))
    r2 = campaign.report_to_json(run_campaign(cfg))
    assert r1 == r2
    r3 = campaign.report_to_json(run_campaign(dataclasses.replace(cfg, seed=100)))
    assert r1 != r3


def test_report_aggregation_invariant():
    cfg = _tiny_cfg(checks=("jensen_map", "scalar_aczel"), trials=3)
    report = run_campaign(cfg)
    for row in report["cells"]:
        assert row["holds"] + row["violations"] + row["not_applicable"] == row["trials"]


def test_csv_projection_has_row_per_cell():
    cfg = _tiny_cfg(checks=("bellman_map",))
    report = run_campaign(cfg)
    csv_text = campaign.report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 1 + len(report["cells"])
    assert lines[0].startswith("check,dim,n,m,M,p,lam,f,map,k")


def test_text_report_mentions_checks():
    cfg = _tiny_cfg(checks=("scalar_aczel",))
    text = campaign.report_to_text(run_campaign(cfg))
    assert "scalar_aczel" in text


def test_na_warning_over_half(monkeypatch):
    entry = checks.REGISTRY["jensen_map"]

    def always_na(stack, params, tol=None):
        forced = CheckOutcome("jensen_map", "not_applicable", math.nan, math.nan, {"guard": "forced"})
        return [forced] * len(params)

    monkeypatch.setitem(checks.REGISTRY, "jensen_map", dataclasses.replace(entry, runner=always_na))
    report = run_campaign(_tiny_cfg(checks=("jensen_map",)))
    assert any("jensen_map" in w for w in report["warnings"])


# -- witnesses -----------------------------------------------------------------


def _violation_witness():
    inst = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=[np.array([[0.5]], dtype=complex)],
        B=[np.array([[0.25]], dtype=complex)],
    )
    params = {"lam": 0.5, "m": 0.5, "M": 2.0, "p": 0.1}
    outcome = check("aczel_reverse", inst, params, Tolerance())
    assert outcome.status == "violated"
    return make_witness("aczel_reverse", params, inst, outcome, {"seed": 0, "trial": 0})


def test_witness_replay_of_recorded_hold():
    cfg = _tiny_cfg(checks=("bellman_family_reverse",), dims=(2,), n_values=(2,))
    cell = campaign.expand_cells("bellman_family_reverse", cfg)[0]
    out, inst, params, prov = run_check_trial("bellman_family_reverse", cell, cfg, 0)
    wit = make_witness("bellman_family_reverse", params, inst, out, prov)
    fresh, recorded, match = replay_witness(wit)
    assert match
    assert fresh.slack == pytest.approx(recorded["slack"], abs=1e-15)


def test_witness_replay_reproduces_injected_violation():
    wit = _violation_witness()
    fresh, recorded, match = replay_witness(wit)
    assert match
    assert fresh.status == "violated"
    assert fresh.slack < 0


def test_witness_replay_detects_tampering():
    wit = _violation_witness()
    wit["outcome"]["slack"] = 123.0
    _, _, match = replay_witness(wit)
    assert not match


def test_witness_schema_errors():
    with pytest.raises(WitnessFormatError):
        replay_witness({"schema": "something-else"})
    wit = _violation_witness()
    del wit["instance"]
    with pytest.raises(WitnessFormatError):
        replay_witness(wit)


def test_scalar_witness_round_trip():
    cfg = _tiny_cfg(checks=("scalar_bellman_weighted",), n_values=(3,))
    cell = campaign.expand_cells("scalar_bellman_weighted", cfg)[0]
    out, inst, params, prov = run_check_trial("scalar_bellman_weighted", cell, cfg, 0)
    wit = make_witness("scalar_bellman_weighted", params, inst, out, prov)
    family = wit["instance"]["family"]
    assert family["hypothesis_tag"] == "scalar_mp3" and family["A"] == []
    assert family["aux"]["p"] == {"shape": [], "re": [0.5]}
    fresh, _, match = replay_witness(wit)
    assert match and fresh.status == "holds"


#: A grid on which the first cells of each check take every map kind.
WITNESS_CFG = dict(dims=(3,), n_values=(3,), maps=("id", "compress:2", "unitary-mix:2", "pinch:2"), trials=1)


def test_every_check_witness_round_trips_through_json():
    # one trial of each of the first eight cells of every check: operands,
    # weights, every map's arrays, aux matrices (C, A_total, B_total), a
    # scalar trial's cut arrays and its 0-d p, each stored as
    # {shape, re[, im]} and read back to the bit
    cfg = CampaignConfig(**WITNESS_CFG)
    replayed = 0
    for check_id in checks.REGISTRY:
        for cell in campaign.expand_cells(check_id, cfg)[:8]:
            out, inst, params, prov = run_check_trial(check_id, cell, cfg, 0)
            assert inst is not None, (check_id, cell)
            wit = json.loads(json.dumps(make_witness(check_id, params, inst, out, prov)))
            fresh, recorded, match = replay_witness(wit)
            assert match, (check_id, cell, fresh, recorded)
            replayed += 1
    assert replayed == 100


def _replayable_witness():
    cfg = CampaignConfig(**WITNESS_CFG)
    cell = campaign.expand_cells("bellman_map", cfg)[0]
    out, inst, params, prov = run_check_trial("bellman_map", cell, cfg, 0)
    return make_witness("bellman_map", params, inst, out, prov)


@pytest.mark.parametrize(
    "path,value,message",
    [
        # each printed a traceback: a KeyError 'p' in the checker, a
        # TypeError, an AttributeError reading the recorded slack, an
        # IndexError on the first operand, a TypeError hashing the check
        (("params",), {}, "witness params lack 'p'"),
        (("params",), [], "witness field 'params' is not an object"),
        (("outcome",), [], "witness field 'outcome' is not an object"),
        (("instance", "family", "A"), [], "witness family of operator check 'bellman_map' has no operands"),
        (("check",), [], "witness names unknown check []"),
        (("schema",), "opbellman-witness/1", "not an opbellman-witness/2 document"),
    ],
)
def test_cli_replay_malformed_witness_is_a_schema_error(tmp_path, capsys, path, value, message):
    wit = _replayable_witness()
    target = wit
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "witness.json"
    file.write_text(json.dumps(wit))
    assert cli.main(["replay", str(file)]) == 1
    assert capsys.readouterr().err == f"witness schema error: {message}\n"


def test_cli_replay_witness_with_unequal_operand_stacks_is_a_schema_error(tmp_path, capsys):
    # a family's A and B members form one stack each, so a B with a member
    # fewer than A is a malformed document, not a traceback
    cfg = CampaignConfig(**WITNESS_CFG)
    cell = campaign.expand_cells("mean_sum_ratio_reverse", cfg)[0]
    out, inst, params, prov = run_check_trial("mean_sum_ratio_reverse", cell, cfg, 0)
    wit = make_witness("mean_sum_ratio_reverse", params, inst, out, prov)
    wit["instance"]["family"]["B"] = wit["instance"]["family"]["B"][:2]
    file = tmp_path / "witness.json"
    file.write_text(json.dumps(wit))
    assert cli.main(["replay", str(file)]) == 1
    assert capsys.readouterr().err == (
        "witness schema error: witness family operands differ in shape: A (3, 3, 3), B (2, 3, 3)\n"
    )


#: An array each scalar check's expression reads from its trial's ``aux``.
_READ_ARRAYS = {
    "scalar_bellman": "b_j",
    "scalar_aczel": "a_j",
    "scalar_popoviciu": "b",
    "scalar_bellman_weighted": "weights",
    "scalar_bellman_columns": "caps",
    "scalar_bellman_reverse": "weights",
}


@pytest.mark.parametrize("check_id", checks.SCALAR_IDS)
def test_cli_replay_scalar_witness_without_an_array_is_a_schema_error(tmp_path, capsys, check_id):
    # a one-trial aux became a plain dict before the checker read it, so a
    # missing array printed a KeyError traceback
    cfg = CampaignConfig(**WITNESS_CFG)
    cell = campaign.expand_cells(check_id, cfg)[0]
    out, inst, params, prov = run_check_trial(check_id, cell, cfg, 0)
    wit = make_witness(check_id, params, inst, out, prov)
    del wit["instance"]["family"]["aux"][_READ_ARRAYS[check_id]]
    file = tmp_path / "witness.json"
    file.write_text(json.dumps(wit))
    assert cli.main(["replay", str(file)]) == 1
    assert capsys.readouterr().err == f"witness schema error: witness family aux lacks {_READ_ARRAYS[check_id]!r}\n"


# -- command line ---------------------------------------------------------------


def test_cli_run_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        ["run", "--checks", "scalar_aczel,jensen_map", "--trials", "1", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["violations"] == 0


def test_cli_run_bad_config_exit_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p_grid": [1.5]}))
    code = cli.main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "p_grid[0]" in captured.err


def test_cli_run_takes_the_largest_seed(tmp_path):
    out = tmp_path / "report.json"
    seed = (1 << 64) - 1
    code = cli.main(["run", "--checks", "bellman_map", "--trials", "1", "--seed", str(seed), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == seed and report["summary"]["trials"] > 0


@pytest.mark.parametrize(
    "config,env_seed,flags,message",
    [
        ({"trials": "x"}, None, [], "trials: "),
        ({"intervals": [[1]]}, None, [], "intervals: "),
        ({"tolerance": {"atol": -1, "rtol": 0}}, None, [], "tolerance: "),
        ({}, "abc", [], "BELLMAN_SEED: "),
        (5, None, [], "config must be a JSON object"),
        ({}, None, ["--tol-abs", "-1"], "tolerance: "),
        ({"trials": 2.7}, None, [], "trials: "),
        ({"trials": True}, None, [], "trials: "),
        ({"seed": 3.9}, None, [], "seed: "),
        ({"dims": [1.9]}, None, [], "dims: "),
        ({"n_values": [False]}, None, [], "n_values: "),
        # passed validate() once, then aborted the campaign
        ({"p_grid": [1e-6]}, None, [], "p_grid[0]"),
        ({"p_grid": [0.5, 0.9995]}, None, [], "p_grid[1]"),
        ({"means": ["log"]}, None, [], "means[0]"),
        ({"means": ["nonsense"]}, None, [], "means[0]"),
        ({"intervals": [[0.5, math.inf]]}, None, [], "intervals[0]"),
        ({"intervals": [[0.5, 2.0], [-math.inf, 0.8]]}, None, [], "intervals[1]"),
        # t^2 is not operator monotone: ran, to false violations
        ({"means": ["power:2"]}, None, [], "means[0]"),
        ({"means": ["geom:0.5", "powered:geom:0.5:2"]}, None, [], "means[1]"),
        # narrower than MIN_INTERVAL: passed validate(), then aborted the campaign
        ({"intervals": [[0.5, 0.5000000000000001]]}, None, [], "intervals[0]"),
        ({"intervals": [[0.5, 2.0], [1e-300, 1e-299]]}, None, [], "intervals[1]"),
        # ran as compress:2, or clamped to an argument of 1, under the id as given
        ({"maps": ["compress:2:junk"]}, None, [], "maps[0]"),
        ({"maps": ["compress:0"]}, None, [], "maps[0]"),
        ({"maps": ["unitary-mix:-4"]}, None, [], "maps[0]"),
        # ran as geom:0.5 under the id as given
        ({"means": ["geom:0.5:junk"]}, None, [], "means[0]"),
        # the streams took the seed modulo 2^64: 2^64 reported the cells of
        # seed 0, and -1 those of 2^64 - 1, each under its own seed
        ({}, None, ["--seed", str(1 << 64)], "seed="),
        ({}, None, ["--seed", "-1"], "seed="),
        ({}, str(1 << 64), [], "seed="),
        ({}, "-1", [], "seed="),
        ({"seed": 1 << 64}, None, [], "seed="),
        # a bare string was split into its characters: checks[4]='a' repeated
        # checks[2], and "geom:0.5" read as the mean id 'g'
        ({"checks": "scalar_aczel"}, None, [], "checks: malformed value 'scalar_aczel' (expected a list)"),
        ({"means": "geom:0.5"}, None, [], "means: malformed value 'geom:0.5' (expected a list)"),
        ({"maps": "id"}, None, [], "maps: malformed value 'id' (expected a list)"),
        ({"dims": "3"}, None, [], "dims: malformed value '3' (expected a list)"),
        ({"n_values": 3}, None, [], "n_values: malformed value 3 (expected a list)"),
        ({"intervals": {"m": 0.5}}, None, [], "intervals: malformed value {'m': 0.5} (expected a list)"),
        ({"p_grid": 0.5}, None, [], "p_grid: malformed value 0.5 (expected a list)"),
        ({"lambda_grid": "0.5"}, None, [], "lambda_grid: malformed value '0.5' (expected a list)"),
    ],
)
def test_cli_run_malformed_config_value_exit_one(tmp_path, capsys, monkeypatch, config, env_seed, flags, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    monkeypatch.delenv("BELLMAN_SEED", raising=False)
    if env_seed is not None:
        monkeypatch.setenv("BELLMAN_SEED", env_seed)
    code = cli.main(["run", "--config", str(path), "--checks", "scalar_aczel", "--trials", "1", *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


#: A repeated value of each grid, last in its list.
REPEATED_GRIDS = {
    "dims": [2, 3, 2],
    "n_values": [1, 1],
    "intervals": [[0.5, 2.0], [0.2, 0.8], [0.5, 2.0]],
    "p_grid": [0.5, 0.5],
    "lambda_grid": [0.3, 0.7, 0.3],
    "means": ["geom:0.5", "geom:0.5"],
    "maps": ["id", "id"],
    "checks": ["scalar_aczel", "scalar_aczel"],
}


@pytest.mark.parametrize("grid", list(REPEATED_GRIDS))
def test_repeated_grid_value_is_refused(tmp_path, capsys, grid):
    # equal values make equal cells with equal streams, which the summary
    # counted twice: checks [scalar_aczel, scalar_aczel] reported 8 trials
    # of 4, dims [2, 2] 36 cells of 18
    values = REPEATED_GRIDS[grid]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({grid: values}))
    assert cli.main(["run", "--config", str(path), "--trials", "1"]) == 1
    index = len(values) - 1
    assert capsys.readouterr().err.startswith(f"error: {grid}[{index}]=")
    with pytest.raises(ParameterError, match=f"repeats {grid}\\[{values.index(values[index])}\\]"):
        config_from_json({grid: values})


def test_cli_refuses_a_repeated_check(capsys):
    assert cli.main(["run", "--checks", "scalar_aczel,scalar_aczel", "--trials", "2", "--seed", "3"]) == 1
    assert capsys.readouterr().err.startswith("error: checks[1]='scalar_aczel': repeats checks[0]")


@pytest.mark.parametrize("interval", [(0.0, 2.0), (-0.5, 2.0)])
def test_sandwich_checks_fall_back_from_nonpositive_windows(interval):
    # 0 < m A <= B needs m > 0; such a grid used to abort in the sandwich generator
    sandwich = tuple(cid for cid, e in checks.REGISTRY.items() if e.interval_kind == "sandwich")
    cfg = _tiny_cfg(intervals=(interval,), checks=sandwich)
    for cid in sandwich:
        assert {(c["m"], c["M"]) for c in campaign.expand_cells(cid, cfg)} == {(0.5, 2.0)}
    report = run_campaign(cfg)
    assert report["summary"]["violations"] == 0
    assert report["summary"]["trials"] == sum(len(campaign.expand_cells(c, cfg)) for c in sandwich)


@pytest.mark.parametrize("interval", [[1100000000.1, 73000000000.3], [1e149, 1e150]])
def test_far_intervals_run_to_a_report(interval):
    # the oracle's chord width M - m was a double whose rounding grows with
    # the endpoints; both configs aborted with UnimodalityError on the affine mean
    cfg = config_from_json({"intervals": [interval]})
    report = run_campaign(cfg)
    assert report["summary"]["trials"] > 0 and report["summary"]["violations"] == 0
    assert any(c["cell"].get("m") == interval[0] for c in report["cells"])


def test_config_file_is_read_once(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    monkeypatch.setenv("BELLMAN_SEED", "4242")
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    args = cli.build_parser().parse_args(["run", "--config", str(path)])
    assert cli._load_config(args).seed == 3  # the file's seed beats BELLMAN_SEED
    assert opened == [str(path)]
    path.write_text(json.dumps({"trials": 1}))
    assert cli._load_config(args).seed == 4242


def test_cli_run_violation_exit_two(tmp_path, monkeypatch):
    entry = checks.REGISTRY["scalar_aczel"]

    def always_violated(insts, params, tol=None):
        return [CheckOutcome("scalar_aczel", "violated", -1.0, 1.0) for _ in params]

    monkeypatch.setitem(checks.REGISTRY, "scalar_aczel", dataclasses.replace(entry, runner=always_violated))
    out = tmp_path / "report.json"
    code = cli.main(["run", "--checks", "scalar_aczel", "--trials", "1", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["summary"]["violations"] > 0
    assert report["cells"][0]["violation_witnesses"]


def test_cli_replay_round_trip(tmp_path, capsys):
    wit = _violation_witness()
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(wit))
    code = cli.main(["replay", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["match"] is True
    assert payload["slack"] < 0


def test_cli_replay_corrupted_file(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text("{not json")
    assert cli.main(["replay", str(path)]) == 1
    path.write_text(json.dumps({"schema": "opbellman-witness/1"}))
    assert cli.main(["replay", str(path)]) == 1


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["id"] for r in rows} == set(checks.REGISTRY)


def test_cli_constants_cell(capsys):
    assert cli.main(["constants", "--m", "0.3", "--M", "0.8", "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "delta_bellman" in out and "gamma_h" in out


def test_cli_constants_json(capsys):
    assert cli.main(["constants", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {r["constant"] for r in rows}
    assert {"gamma_f", "beta_f", "gamma_h", "zeta_aczel", "beta_log"} <= names


@pytest.mark.parametrize("fmt,first_line", [("csv", "check,dim,n,"), ("text", "checks: 1  trials: ")])
def test_cli_run_writes_format(tmp_path, fmt, first_line):
    out = tmp_path / f"report.{fmt}"
    code = cli.main(["run", "--checks", "scalar_aczel", "--trials", "1", "--format", fmt, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith(first_line)
    assert lines[1].startswith("scalar_aczel")


@pytest.mark.parametrize("key", ["out_path", "format"])
def test_config_file_io_keys_are_unknown(tmp_path, capsys, key):
    # output routing is a flag, never part of the config the report echoes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: "json"}))
    assert cli.main(["run", "--config", str(path), "--checks", "scalar_aczel", "--trials", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown config keys")


def test_tolerance_flag_overrides_one_field(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerance": {"atol": 1e-8, "rtol": 1e-6}}))
    args = cli.build_parser().parse_args(["run", "--config", str(path), "--tol-abs", "1e-9"])
    assert cli._load_config(args).tolerance == Tolerance(atol=1e-9, rtol=1e-6)
    args = cli.build_parser().parse_args(["run", "--config", str(path), "--tol-rel", "1e-7"])
    assert cli._load_config(args).tolerance == Tolerance(atol=1e-8, rtol=1e-7)


@pytest.mark.parametrize("config,flags", [({"checks": []}, []), ({}, ["--checks", ","])])
def test_cli_run_empty_check_list_exit_one(tmp_path, capsys, config, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: checks: ")


#: The checks whose instances are complement-sandwich families.
COMPLEMENT_IDS = ("bellman_ratio_reverse", "bellman_arith_reverse", "bellman_diff_reverse", "aczel_reverse")


@pytest.mark.parametrize("M", [1e20, 1e150])
def test_huge_interval_end_runs_to_a_report(tmp_path, M):
    # the oracle's golden-section loop never ended for M >= 1e20
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"intervals": [[0.5, M]], "dims": [2]}))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["trials"] > 100


@pytest.mark.parametrize(
    "interval,dim", [([0.5, 1e20], 2), ([0.999999, 1.000001], 3), ([1e-9, 1e9], 2)], ids=["wide", "narrow", "far"]
)
def test_edge_window_complement_families_draw_each_member_once(monkeypatch, interval, dim):
    # no family scale reaches MIN_SCALE on these windows: on [0.5, 1e20] every
    # draw has sum B_j >= 1e18 I, and on [0.999999, 1.000001] the room
    # 1 - m - DEFAULT_MARGIN is below 1e-16; each trial is rejected after one
    # draw of each family member, so the effort does not depend on the window
    calls = []
    draw = instances.random_sandwich_family
    monkeypatch.setattr(instances, "random_sandwich_family", lambda *args: calls.append(args[1]) or draw(*args))
    cfg = config_from_json({"intervals": [interval], "dims": [dim], "trials": 1, "checks": list(COMPLEMENT_IDS)})
    report = run_campaign(cfg)
    assert report["summary"]["not_applicable"] == report["summary"]["trials"] == 12
    assert {g for row in report["cells"] for g in row["na_guards"]} == {"generator_rejected"}
    members = 0
    for check_id in COMPLEMENT_IDS:
        cells = campaign.expand_cells(check_id, cfg)
        members += sum(cells[group[0]]["n"] for group in campaign._stack_groups(cells))
    assert sum(calls) == members


@pytest.mark.parametrize("interval", [[0.5, 1e200], [-1e300, 0.5]])
def test_interval_end_beyond_max_endpoint_exit_one(tmp_path, capsys, interval):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"intervals": [[0.5, 2.0], interval], "dims": [2]}))
    assert cli.main(["run", "--config", str(path), "--trials", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: intervals[1]")


def test_cli_replay_missing_file(tmp_path, capsys):
    assert cli.main(["replay", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read witness")


def test_cli_constants_cell_outside_hypotheses_exit_zero(capsys):
    # m = 0 is in delta_bellman's domain; delta_affine_power's own check
    # refuses it, which used to abort the whole table
    assert cli.main(["constants", "--m", "0", "--M", "0.5", "--format", "json"]) == 0
    rows = {r["constant"]: r for r in json.loads(capsys.readouterr().out)}
    for name in ("delta_bellman", "t_star"):
        assert rows[name]["closed_form"] is not None and rows[name]["oracle"] is not None
    assert rows["delta_affine_power"]["note"].startswith("need 0 < m < M")


def test_cli_constants_exponent_outside_range_gives_notes(capsys):
    assert cli.main(["constants", "--p", "0.0005", "--format", "json"]) == 0
    rows = {r["constant"]: r for r in json.loads(capsys.readouterr().out)}
    for name in ("gamma_h", "delta_affine_power", "zeta_aczel"):
        assert rows[name]["closed_form"] is None and "exponent p" in rows[name]["note"]
    assert rows["beta_log"]["closed_form"] is not None


def test_builder_hypothesis_error_is_a_rejected_trial(tmp_path):
    # at p = P_MIN, a^(1/p) underflows in the mp1 builder, whose
    # HypothesisError used to abort the campaign with exit 1
    cfg = CampaignConfig(p_grid=(0.001,), trials=1)
    for cell in campaign.expand_cells("scalar_bellman_columns", cfg):
        outcome, inst, params, _ = run_check_trial("scalar_bellman_columns", cell, cfg, 0)
        assert (outcome.status, outcome.witness) == ("not_applicable", {"guard": "generator_rejected"})
        assert inst is None and params is None
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p_grid": [0.001], "trials": 1}))
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["trials"] == len(report["cells"]) == 1008
    assert {g for row in report["cells"] for g in row["na_guards"]} == {"generator_rejected"}


#: The scalar_suite benchmark grid: n = 1 cells tie, p = 1 Bellman trials have slack 0.
SCALAR_SUITE = dict(n_values=(1, 2, 3), p_grid=(0.25, 0.5, 0.75), checks=tuple(checks.SCALAR_IDS), seed=301)


def _summary_loop(check_id, cell, cfg, trials):
    """The record of one cell from each trial's (outcome, inst, params,
    provenance), by the loop the cell summary ran trial by trial: a trial
    read at its outcome's slack, and at slack/scale where the scale is
    positive."""
    holds = violated = na = 0
    slacks, normalized, na_guards, witnesses = [], [], {}, []
    argmin_ref, min_slack = None, math.inf
    for trial, (outcome, inst, params, provenance) in enumerate(trials):
        if outcome.status == "not_applicable":
            na += 1
            guard = (outcome.witness or {}).get("guard", "unspecified")
            na_guards[guard] = na_guards.get(guard, 0) + 1
            continue
        slacks.append(outcome.slack)
        if outcome.scale > 0:
            normalized.append(outcome.slack / outcome.scale)
        if outcome.slack < min_slack:
            min_slack, argmin_ref = outcome.slack, {"trial": trial}
        if outcome.status == "violated":
            violated += 1
            witnesses.append(make_witness(check_id, params, inst, outcome, provenance))
        else:
            holds += 1
    return {
        "check": check_id, "cell": cell, "trials": cfg.trials, "holds": holds,
        "violations": violated, "not_applicable": na, "na_guards": dict(sorted(na_guards.items())),
        "min_slack": min(slacks) if slacks else None,
        "median_normalized_slack": statistics.median(normalized) if normalized else None,
        "argmin": argmin_ref, "violation_witnesses": witnesses,
    }


def _per_trial_summary(cfg):
    """(cells, summary) of a report, every trial evaluated through run_check_trial."""
    cells = []
    total = {"trials": 0, "holds": 0, "violations": 0, "not_applicable": 0}
    for check_id in cfg.checks:
        for cell in campaign.expand_cells(check_id, cfg):
            trials = [run_check_trial(check_id, cell, cfg, trial) for trial in range(cfg.trials)]
            cells.append(_summary_loop(check_id, cell, cfg, trials))
            for key in total:
                total[key] += cells[-1][key]
    return cells, total


#: The checks that declare a tie.
TIE_IDS = [cid for cid, entry in checks.REGISTRY.items() if entry.tie is not None]


@pytest.mark.parametrize("cfg", [
    *(pytest.param(CampaignConfig(trials=trials, **SCALAR_SUITE), id=str(trials)) for trials in (1, 2, 3, 200)),
    pytest.param(
        CampaignConfig(trials=300, n_values=(1,), p_grid=(0.001, 0.999), checks=tuple(TIE_IDS), seed=7),
        id="edge-exponent-ties",
    ),
])
def test_filtered_scalar_campaign_matches_per_trial_summary(cfg):
    # odd and even medians, the n = 1 cells where every slack ties, and the
    # tied cells at the edge exponents: p = 0.001 rejects 74 to 138 of the
    # 300 builds of each, trial 0 of the scalar_bellman_columns cell among
    # them, so the tie's slack and the argmin are the first applicable trial's
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


@pytest.mark.parametrize("check_id", TIE_IDS)
def test_declared_tie_gives_every_trial_one_slack(check_id):
    # every trial of each tied cell, checked at 30 digits (_checked_trials
    # checks them all), has one slack to the last bit: 0 for the forward
    # checks, the reverse's constant (1-p) p^{p/(1-p)} for the reverse.  A
    # tie declared on a check whose slacks differ fails here.
    pinned = {0.001: 0.9921160721936046, 0.5: 0.25, 0.999: 0.0003680634882592236}
    entry = checks.REGISTRY[check_id]
    p_grid = (0.001, 0.25, 0.5, 0.75, 0.999)
    cfg = CampaignConfig(trials=300, n_values=(1, 2, 3), p_grid=p_grid, checks=(check_id,), seed=7)
    cells = [cell for cell in campaign.expand_cells(check_id, cfg) if entry.ties(cell)]
    assert cells
    for cell in cells:
        build = campaign._checked_trials(check_id, cell, cfg, range(cfg.trials))
        outcomes = [build.outcome(i) for i in range(len(build.pairs))]
        slacks = {o.slack for o in outcomes if o.status != "not_applicable"}
        assert len(slacks) == 1, (cell, sorted(slacks)[:3])
        if check_id != "scalar_bellman_reverse":
            assert slacks == {0.0}, cell
        elif cell["p"] in pinned:
            assert slacks == {pinned[cell["p"]]}, cell


def test_tied_cells_send_one_trial_to_the_exact_check(monkeypatch):
    # a counting proxy, independent of the machine: the trials each n = 1
    # cell of the three column checks sends to the 30-digit runner.  The
    # forward checks' point slacks of 0 settle the median too; the reverse's
    # normalized slacks still send one trial per middle rank.  Before ties,
    # all 20 trials of each of these nine cells went, 268 trials in all.
    sent = {}
    pending = campaign._check_pending

    def counted(build, idx):
        for i in idx:
            if build.outcome(i) is None:
                cell, trial = build.pairs[i]
                sent.setdefault((build.check_id, json.dumps(cell, sort_keys=True)), []).append(trial)
        return pending(build, idx)

    monkeypatch.setattr(campaign, "_check_pending", counted)
    cfg = _workload("scalar_suite", trials=20)
    run_campaign(cfg)
    tied = {
        (cid, json.dumps(cell, sort_keys=True)): cid
        for cid in cfg.checks
        for cell in campaign.expand_cells(cid, cfg)
        if checks.REGISTRY[cid].ties(cell)
    }
    assert len(tied) == 9
    for key, cid in tied.items():
        if cid == "scalar_bellman_reverse":
            assert 1 < len(sent[key]) <= 3, key
        else:
            assert len(sent[key]) == 1, key
    assert sum(map(len, sent.values())) < 120


def test_cell_records_read_scripted_outcomes_as_the_per_trial_loop(monkeypatch):
    # an operator check's outcomes scripted per cell (one cell per build):
    # every trial not applicable; two trials sharing the minimum, the first
    # winning; odd and even counts of normalized slacks, a zero scale giving
    # none; violated trials with NaN slacks, first and later; signed zeros;
    # slacks of inf, which no trial is below
    cid = "mean_superadditive"
    na, nan, inf = checks._na(cid, "member_not_psd"), math.nan, math.inf

    def held(slack, scale=1.0, status="holds"):
        return CheckOutcome(cid, status, slack, scale)

    def violated(slack, scale=1.0):
        return held(slack, scale, "violated")

    script = [
        [na, na, na, na],
        [held(0.5), held(0.1), held(0.1, 2.0), held(0.3)],
        [held(0.2), held(0.1, 2.0), held(0.3, 0.0), na],
        [held(0.2), held(0.1, 2.0), held(0.4, 4.0), held(0.3, 8.0)],
        [violated(nan), held(0.2), violated(-0.1), held(0.3, 0.0)],
        [held(0.3), violated(nan), held(0.1), violated(nan, nan)],
        [held(0.0), held(-0.0), held(0.0, 2.0), na],
        [held(-0.0), held(0.0), na, held(inf)],
        [held(inf), na, held(inf, 2.0), violated(nan)],
    ]
    cfg = CampaignConfig(
        trials=4, dims=(1,), n_values=tuple(range(1, len(script) + 1)), means=("geom:0.5",), checks=(cid,), seed=3
    )
    cells = campaign.expand_cells(cid, cfg)
    assert len(cells) == len(script)
    built = [[run_check_trial(cid, cell, cfg, t)[1:] for t in range(cfg.trials)] for cell in cells]
    calls = iter(script)

    def scripted(check_id, stack, params, tol):
        outcomes = next(calls)
        assert len(params) == len(outcomes)
        return outcomes

    monkeypatch.setattr(checks, "check_cell", scripted)
    report = run_campaign(cfg)
    want = [
        _summary_loop(cid, cell, cfg, [(o, *rest) for o, rest in zip(outcomes, trials)])
        for cell, outcomes, trials in zip(cells, script, built)
    ]
    assert json.dumps(report["cells"], sort_keys=True) == json.dumps(want, sort_keys=True)
    rows = report["cells"]
    assert (rows[0]["min_slack"], rows[0]["median_normalized_slack"], rows[0]["argmin"]) == (None, None, None)
    assert rows[1]["argmin"] == {"trial": 1} and rows[8]["argmin"] is None


def test_tied_scalar_cells_read_as_the_per_trial_loop():
    # the n = 1 cells of the checks that declare a tie: the filter encloses
    # most trials, the tie narrows them to the first applicable trial's
    # slack, and each record reads as the loop over every trial checked alone
    cfg = CampaignConfig(trials=30, n_values=(1,), p_grid=(0.25, 0.5), checks=tuple(TIE_IDS), seed=3)
    report = run_campaign(cfg)
    want = [
        _summary_loop(cid, cell, cfg, [run_check_trial(cid, cell, cfg, t) for t in range(cfg.trials)])
        for cid in cfg.checks
        for cell in campaign.expand_cells(cid, cfg)
    ]
    assert len(want) == 6
    assert json.dumps(report["cells"], sort_keys=True) == json.dumps(want, sort_keys=True)


def test_exact_checks_stay_within_their_counts_at_seed_301(monkeypatch):
    # counts independent of the machine: the scalar_suite sends exactly 227
    # trials to the 30-digit runner, in at most 96 check_cell calls, and the
    # default campaign makes at most 295 calls
    calls = []
    check_cell = checks.check_cell

    def counted(check_id, stack, params, tol):
        calls.append(len(params))
        return check_cell(check_id, stack, params, tol)

    monkeypatch.setattr(checks, "check_cell", counted)
    run_campaign(_workload("scalar_suite"))
    assert sum(calls) == 227 and len(calls) <= 96
    calls.clear()
    run_campaign(_workload("campaign_default"))
    assert len(calls) <= 295


def _workload(name: str, **overrides) -> CampaignConfig:
    """The config of benchmark workload ``name`` at seed 301, with ``overrides``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    config = json.loads(path.read_text(encoding="utf-8"))["workloads"][name]["config"]
    return config_from_json(dict(config, seed=301, **overrides))


#: The kernel steps (``Streams._draw`` calls) of one scalar builder call on
#: a stack whose trials all hold, whatever its size: the row count (which
#: Bellman's exponent shares, from the buffered high half of one output),
#: Popoviciu's exponent, then one array draw per draw step (a head kind's
#: two sides, a column kind's arrays, the weights).
_SCALAR_STEPS = {
    "scalar_bellman": 3,
    "scalar_aczel": 3,
    "scalar_popoviciu": 4,
    "scalar_bellman_weighted": 3,
    "scalar_bellman_columns": 2,
    "scalar_bellman_reverse": 3,
}


#: ``instances._head_side`` calls of the scalar_suite workload at seed 301:
#: one per side of each of the head kinds' nine builder calls, although
#: Popoviciu draws a distinct exponent for every trial.
_SUITE_HEAD_SIDES = 18


def test_scalar_trials_draw_on_arrays_with_no_generator(monkeypatch):
    # the machine-independent cost of seeding and drawing the scalar suite:
    # no Generator and no SeedSequence is made, and a builder call takes a
    # fixed number of kernel steps, for one trial as for forty
    made, seeded = [], []
    monkeypatch.setattr(np.random, "Generator", lambda *args: made.append(args))
    monkeypatch.setattr(np.random, "SeedSequence", lambda *args: seeded.append(args))
    report = run_campaign(_workload("scalar_suite", trials=20))
    assert report["summary"]["trials"] == 720 and not made and not seeded
    steps = []
    draw = Streams._draw
    monkeypatch.setattr(Streams, "_draw", lambda self, *args: steps.append(args) or draw(self, *args))
    for check_id, most in _SCALAR_STEPS.items():
        cell = campaign.expand_cells(check_id, _tiny_cfg(checks=(check_id,), n_values=(3,)))[0]
        counts = []
        for trials in (1, 40):
            steps.clear()
            campaign.BUILDERS[check_id](cell, Streams(stream_states(7, [("count", t) for t in range(trials)])))
            counts.append(len(steps))
        assert counts == [most, most], check_id


def test_head_kind_builds_run_each_side_once_whatever_the_exponents(monkeypatch):
    # the machine-independent cost of the head kinds' array steps: one
    # _head_side call per side of a builder call, on every live trial with
    # its exponent, not one per distinct exponent
    sides = []
    head_side = instances._head_side
    monkeypatch.setattr(instances, "_head_side", lambda kind, u, q: sides.append(q) or head_side(kind, u, q))
    cell = campaign.expand_cells("scalar_popoviciu", _tiny_cfg(checks=("scalar_popoviciu",), n_values=(3,)))[0]
    for trials in (1, 40):
        sides.clear()
        campaign.BUILDERS["scalar_popoviciu"](cell, Streams(stream_states(7, [("sides", t) for t in range(trials)])))
        assert 1 <= len(sides) <= 2 and len(set(sides[0].tolist())) == trials
    sides.clear()
    assert run_campaign(_workload("scalar_suite"))["summary"]["trials"] == 7200
    assert len(sides) == _SUITE_HEAD_SIDES


def test_stream_stack_draws_through_generators_or_arrays_not_both():
    # an operator builder iterates the stack for Generators, a scalar builder
    # draws on its arrays; a stack asked for both would draw its streams twice
    states = stream_states(7, [("both", t) for t in range(3)])
    drawn = Streams(states)
    drawn.random(2)
    with pytest.raises(RuntimeError):
        list(drawn)
    with pytest.raises(RuntimeError):
        drawn[0]
    iterated = Streams(states)
    assert [g.random() for g in iterated] == [g.random() for g in Streams(states)]
    with pytest.raises(RuntimeError):
        iterated.integers(1, 4)
    assert len(Streams(states)) == 3  # its length makes neither


def test_scalar_campaign_never_imports_numpy_random():
    # numpy.random loads on first use: a scalar-only campaign, whose streams
    # are drawn on arrays, never pays its import time and memory
    code = (
        "import sys; from opbellman.campaign import CampaignConfig, run_campaign; "
        "run_campaign(CampaignConfig(trials=2, checks=('scalar_bellman', 'scalar_bellman_weighted'))); "
        "print('numpy.random' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_scalar_suite_report_digest_is_pinned():
    # the scalar cells' filter and their stacked 30-digit evaluation must
    # leave every reported bit as the per-trial checkers gave it
    text = campaign.report_to_json(run_campaign(_workload("scalar_suite", trials=20)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "62825c3a9f83fc7e1a392e7cf6fd26e740f14f915d435e6d97a4c22b343534e3"
    )


def test_complement_report_digest_is_pinned():
    # the four complement-sandwich checks on the default grid; the stacked
    # and per-trial comparisons run one generator on both sides, so only a
    # pinned digest sees a change in the families it draws
    text = campaign.report_to_json(run_campaign(CampaignConfig(seed=11, checks=COMPLEMENT_IDS)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "b19372a920fd2abbb1ca6b1382d01c1e65c2017124ae86c3f8a7ae8b4e32e5f7"
    )


def test_default_report_digest_is_pinned():
    # every operator draw (Haar, window, sandwich, contraction, map) and the
    # seeding of its stream: the stacked-vs-alone comparisons run one
    # generator on both sides, so only a pinned digest sees a moved bit
    text = campaign.report_to_json(run_campaign(CampaignConfig(seed=11)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "f216d6e17a8f137af887466c1ce7efac9cd40c0134531c9e7651646116619980"
    )


@pytest.mark.parametrize("grid", ["acceptance", "operator_deep"])
def test_stacked_operator_campaign_matches_per_trial_summary(grid):
    # a campaign checks each operator cell as one stack of trials; the
    # acceptance grid is trimmed for time, keeping every map kind and
    # interval, and operator_deep to its dim-3 cells
    if grid == "acceptance":
        cfg = dataclasses.replace(
            ACCEPT_CFG,
            trials=3,
            dims=(2,),
            n_values=(1, 3),
            p_grid=(0.25, 0.75),
            means=("geom:0.5", "power:0.3"),
            checks=tuple(checks.OPERATOR_IDS),
        )
    else:
        cfg = _workload("operator_deep", dims=[3])
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


def _rejecting(builder):
    """``builder`` that also rejects about 40% of its trials, each by a draw
    from its own stream after its build."""

    def build(cell, rngs):
        fam, draws = builder(cell, rngs)
        rejected = np.array([rng.uniform() < 0.4 for rng in rngs])
        if rejected.any():
            raise HypothesisError("rejected for the test", where=rejected)
        return fam, draws

    return build


def test_stacked_cell_leaves_out_rejected_builds(monkeypatch):
    # the stack holds only the trials the builder did not reject, in trial
    # order; a rejection names its trials in ``where`` and the rest are rebuilt
    monkeypatch.setitem(campaign.BUILDERS, "mean_sum_ratio_reverse", _rejecting(campaign.BUILDERS["mean_sum_ratio_reverse"]))
    cfg = CampaignConfig(trials=8, dims=(2, 3), checks=("mean_sum_ratio_reverse",), seed=3)
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    assert 0 < summary["not_applicable"] < summary["trials"]
    assert all(0 < row["not_applicable"] < row["trials"] for row in cells)
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


#: Two or three windows of each interval kind; every window with m > 0 is
#: also a positive one.  [0.5, 1e20] admits no complement-sandwich family.
MIXED_INTERVALS = ((0.5, 2.0), (0.8, 1.25), (0.5, 1e20), (0.2, 0.8), (0.1, 0.7), (0.0, 0.6))


def test_interval_groups_match_per_trial_summary(monkeypatch):
    # the cells of a check that differ only in their interval build and check
    # as one stack; gamma_f is made undefined on [0.8, 1.25], so the guard
    # chord_not_positive fails one cell of each group of the gamma reverses,
    # and the complement-sandwich groups also hold [0.5, 1e20], whose trials
    # the generator rejects without a draw
    gamma = checks._gamma_cached

    def undefined_on_one_window(label, m, M):
        if (m, M) == (0.8, 1.25):
            raise UnboundedRatioError("undefined for the test")
        return gamma(label, m, M)

    monkeypatch.setattr(checks, "_gamma_cached", undefined_on_one_window)
    cfg = CampaignConfig(
        trials=3,
        dims=(2,),
        n_values=(1, 3),
        intervals=MIXED_INTERVALS,
        means=("geom:0.5", "power:0.3"),
        maps=("id", "compress:2"),
        checks=tuple(checks.OPERATOR_IDS),
        seed=8,
    )
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    mixed = [
        row for row in cells
        if row["check"] == "bellman_ratio_reverse" and row["cell"]["n"] == 3 and row["cell"]["f"] == "geom:0.5"
    ]
    assert [(row["holds"], row["na_guards"]) for row in mixed] == [
        (3, {}), (0, {"chord_not_positive": 3}), (0, {"generator_rejected": 3}),
    ]
    assert summary["holds"] > 0 and summary["violations"] == 0
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


def test_interval_group_leaves_out_rejected_builds(monkeypatch):
    # the rejecting builder of test_stacked_cell_leaves_out_rejected_builds
    # on groups of three sandwich and five positive windows
    for check_id in ("mean_sum_ratio_reverse", "jensen_family_diff_reverse"):
        monkeypatch.setitem(campaign.BUILDERS, check_id, _rejecting(campaign.BUILDERS[check_id]))
    cfg = CampaignConfig(
        trials=4,
        dims=(2,),
        n_values=(1, 3),
        intervals=MIXED_INTERVALS[:5],
        means=("geom:0.5",),
        maps=("id",),
        checks=("mean_sum_ratio_reverse", "jensen_family_diff_reverse"),
        seed=3,
    )
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    assert 0 < summary["not_applicable"] < summary["trials"]
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


#: Four means of the four kinds of function a stack evaluates per trial.
MIXED_MEANS = ("arith:0.3", "geom:0.7", "power:0.3", "powered:geom:0.5:0.5")


def test_mean_groups_match_per_trial_summary(monkeypatch):
    # the cells of a check that differ only in their interval and their mean
    # build and check as one stack; gamma_f is made undefined for power:0.3
    # alone, so the guard chord_not_positive fails just that mean's trials of
    # each group of the gamma reverses, and the complement-sandwich groups
    # also hold [0.5, 1e20], whose trials the generator rejects without a draw
    gamma = checks._gamma_cached

    def undefined_for_one_mean(label, m, M):
        if label == "power:0.3":
            raise UnboundedRatioError("undefined for the test")
        return gamma(label, m, M)

    monkeypatch.setattr(checks, "_gamma_cached", undefined_for_one_mean)
    cfg = CampaignConfig(
        trials=2,
        dims=(2,),
        n_values=(1, 3),
        intervals=((0.5, 2.0), (0.5, 1e20), (0.2, 0.8), (0.1, 0.7)),
        means=MIXED_MEANS,
        maps=("id",),
        checks=tuple(checks.OPERATOR_IDS),
        seed=15,
    )
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    mixed = [
        (row["cell"]["m"], row["cell"]["M"], row["cell"]["f"], row["holds"], row["na_guards"])
        for row in cells if row["check"] == "bellman_ratio_reverse" and row["cell"]["n"] == 3
    ]
    assert mixed == [
        (0.5, 2.0, "arith:0.3", 2, {}),
        (0.5, 2.0, "geom:0.7", 2, {}),
        (0.5, 2.0, "power:0.3", 0, {"chord_not_positive": 2}),
        (0.5, 2.0, "powered:geom:0.5:0.5", 2, {}),
    ] + [(0.5, 1e20, f, 0, {"generator_rejected": 2}) for f in MIXED_MEANS]
    assert summary["holds"] > 0 and summary["violations"] == 0
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


def _campaign_calls(monkeypatch, configs) -> list[tuple[dict, int]]:
    """(builder, check_cell and numpy.linalg call counts, cells) of a campaign
    on each config, whose trials must all be applicable."""
    counts = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return call

    for kind in ("eigvalsh", "eigh", "svd", "qr", "norm"):
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    for check_id, builder in list(campaign.BUILDERS.items()):
        monkeypatch.setitem(campaign.BUILDERS, check_id, counted("builder", builder))
    monkeypatch.setattr(checks, "check_cell", counted("check_cell", checks.check_cell))
    seen = []
    for cfg in configs:
        counts.clear()
        report = run_campaign(cfg)
        assert report["summary"]["not_applicable"] == 0
        seen.append((dict(counts), len(report["cells"])))
    return seen


def test_campaign_calls_do_not_grow_with_intervals(monkeypatch):
    # with trials fixed, a campaign on three positive windows makes the
    # builder, check_cell and numpy.linalg calls of one: the positive checks'
    # cells that differ only in their window build and check as one stack
    one, three = _campaign_calls(monkeypatch, [
        CampaignConfig(trials=2, dims=(1, 3), intervals=intervals, seed=5)
        for intervals in (((2.0, 3.0),), ((2.0, 3.0), (1.5, 4.0), (3.0, 5.0)))
    ])
    assert three[0] == one[0]
    assert three[1] > one[1]
    assert three[0]["builder"] < three[1] and one[0]["eigvalsh"] > 0


def test_campaign_calls_do_not_grow_with_means(monkeypatch):
    # with trials fixed, a campaign on three means makes the builder,
    # check_cell and numpy.linalg calls of one: the cells that differ only in
    # their mean build and check as one stack, each trial with its own function
    one, three = _campaign_calls(monkeypatch, [
        CampaignConfig(trials=2, dims=(1, 3), means=means, seed=5)
        for means in (("geom:0.5",), ("arith:0.5", "geom:0.5", "geom:0.3"))
    ])
    assert three[0] == one[0]
    assert three[1] > one[1]
    assert three[0]["builder"] < three[1] and one[0]["eigvalsh"] > 0


def test_campaign_calls_do_not_grow_with_n(monkeypatch):
    # a family's members sit on one axis from builder to checker, so a
    # campaign on n = 3 makes the builder, check_cell and numpy.linalg calls
    # of n = 2; bellman_chain_split has one cell per split index k in 1..n-1,
    # so its calls are compared per check_cell call
    def configs(check_ids):
        return [
            CampaignConfig(trials=2, dims=(1, 3), n_values=n_values, checks=check_ids, seed=5)
            for n_values in ((2,), (3,))
        ]

    others = tuple(c for c in checks.OPERATOR_IDS if c != "bellman_chain_split")
    two, three = _campaign_calls(monkeypatch, configs(others))
    assert three[0] == two[0]
    assert two[0]["eigvalsh"] > 0 and two[0]["qr"] > 0
    two, three = _campaign_calls(monkeypatch, configs(("bellman_chain_split",)))
    assert three[1] == 2 * two[1]
    assert {k: v / two[0]["check_cell"] for k, v in two[0].items()} == {
        k: v / three[0]["check_cell"] for k, v in three[0].items()
    }


def test_campaign_calls_do_not_grow_with_maps(monkeypatch):
    # with trials fixed, a campaign on three maps of one output shape makes
    # the builder and check_cell calls of one: the cells that differ only in
    # their map build and check as one stack, each trial with its own map
    one, three = _campaign_calls(monkeypatch, [
        CampaignConfig(trials=2, dims=(1, 3), maps=maps, seed=5)
        for maps in (("id",), ("id", "unitary-mix:2", "pinch:2"))
    ])
    assert {k: three[0][k] for k in ("builder", "check_cell")} == {k: one[0][k] for k in ("builder", "check_cell")}
    assert three[1] > one[1]
    assert three[0]["builder"] < three[1]


#: numpy.linalg calls of the default campaign at seed 301, by kind: the
#: machine-independent cost of the benchmark's campaign_default workload.
DEFAULT_LINALG_BUDGET = {"qr": 442, "eigvalsh": 1166, "eigh": 1244, "svd": 536, "norm": 1244}


def test_default_campaign_linalg_calls_stay_within_budget(monkeypatch):
    # pinned at today's counts, so that a change adding linear-algebra calls
    # to the default campaign shows here, by kind
    ((counts, cells),) = _campaign_calls(monkeypatch, [CampaignConfig(seed=301)])
    assert cells == 1008
    over = {k: (counts.get(k, 0), budget) for k, budget in DEFAULT_LINALG_BUDGET.items() if counts.get(k, 0) > budget}
    assert not over, f"numpy.linalg calls over budget (count, budget): {over}"
    assert sum(counts[k] for k in ("qr", "eigvalsh", "eigh", "svd")) <= 3388


def test_operator_cell_linalg_calls_do_not_grow_with_trials(monkeypatch):
    # with no guard failing and no family drawing twice, a cell of 30 trials
    # makes the numpy.linalg calls of one, in its check and in its build; the
    # 72 cells build and check as 48 groups of cells differing in their
    # interval or their mean (jensen_family_diff_reverse's geom:0.5 and log)
    kinds = ("eigvalsh", "eigh", "svd", "qr", "norm")
    phases = {"check": (checks, "check_cell"), "build": (campaign, "_build_trials")}
    state = {"phase": None}
    per_cell = {phase: [] for phase in phases}

    def counted(kind, fn):
        def call(*args, **kwargs):
            if state["phase"]:
                per_cell[state["phase"]][-1][kind] += 1
            return fn(*args, **kwargs)

        return call

    def counted_phase(phase, run):
        def call(*args, **kwargs):
            per_cell[phase].append(dict.fromkeys(kinds, 0))
            state["phase"] = phase
            try:
                return run(*args, **kwargs)
            finally:
                state["phase"] = None

        return call

    for kind in kinds:
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    for phase, (owner, name) in phases.items():
        monkeypatch.setattr(owner, name, counted_phase(phase, getattr(owner, name)))
    counts = {}
    for trials in (1, 30):
        for calls in per_cell.values():
            calls.clear()
        report = run_campaign(_workload("operator_deep", trials=trials))
        assert report["summary"]["not_applicable"] == 0
        counts[trials] = {phase: list(calls) for phase, calls in per_cell.items()}
    for phase in phases:
        assert len(counts[1][phase]) == 48 and len(report["cells"]) == 72
        assert counts[30][phase] == counts[1][phase], phase
    assert all(c["eigvalsh"] and c["svd"] for c in counts[1]["check"])
    assert all(c["qr"] for c in counts[1]["build"])


def test_campaign_forms_a_trial_family_only_for_a_witness(monkeypatch):
    # the builder's stack goes to the checker as it is: with no violation, no
    # trial of a cell is taken out on its own (take with an int index)
    take = instances.take
    ints = []

    def counted(stack, idx):
        ints.append(np.ndim(idx) == 0)
        return take(stack, idx)

    for module in [m for name, m in sys.modules.items() if name.startswith("opbellman")]:
        if getattr(module, "take", None) is take:
            monkeypatch.setattr(module, "take", counted)
    report = run_campaign(_workload("operator_deep", trials=30))
    assert report["summary"]["violations"] == 0 and report["summary"]["trials"] == 2160
    assert ints.count(True) == 0
    cell = campaign.expand_cells("bellman_map", _workload("operator_deep"))[0]
    run_check_trial("bellman_map", cell, _workload("operator_deep"), 0)
    assert ints.count(True) == 1


def test_small_exponent_rejections_report_digest_is_pinned():
    # p = 0.001 and 0.002 make the column kinds reject part of each stack,
    # which then carries its surviving trials, unpadded rows and all, to the
    # filter and the 30-digit check
    cfg = config_from_json({
        "p_grid": [0.001, 0.002, 0.5],
        "trials": 20,
        "n_values": [1, 2, 3],
        "checks": ["scalar_bellman_weighted", "scalar_bellman_columns", "scalar_bellman_reverse"],
        "seed": 5,
    })
    report = run_campaign(cfg)
    text = campaign.report_to_json(report)
    rejected = sum(row["na_guards"].get("generator_rejected", 0) for row in report["cells"])
    assert (rejected, report["summary"]["trials"]) == (114, 540)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "1157c943c0650bf227f0673fbacc19625037be129035e189e5f9934382f8fc26"
    )


@pytest.mark.parametrize("check_id", ["scalar_bellman_weighted", "scalar_bellman_columns", "scalar_bellman_reverse"])
def test_column_kind_build_runs_its_arithmetic_once(monkeypatch, check_id):
    # a column kind scales and re-verifies its whole stack in one pass, so the
    # np.sum calls of one builder call (the column sums, then the verified
    # sums) do not grow with its trials; the stream states checked by
    # test_stacked_build_equals_each_trial_built_alone keep each stream's draws
    calls = []
    plain_sum = np.sum
    monkeypatch.setattr(np, "sum", lambda *args, **kwargs: calls.append(args) or plain_sum(*args, **kwargs))
    cell = campaign.expand_cells(check_id, _tiny_cfg(checks=(check_id,), n_values=(3,)))[0]
    counts = []
    for trials in (1, 40):
        calls.clear()
        campaign.BUILDERS[check_id](cell, Streams(stream_states(7, [("count", t) for t in range(trials)])))
        counts.append(len(calls))
    assert counts == [2, 2]


def test_smallest_exponent_scalar_builders_run_without_warnings():
    # a^(1/p) underflows at p = 0.001; the rejected draws stay rejected and
    # the normalization no longer warns about the division
    cfg = config_from_json({
        "p_grid": [0.001],
        "trials": 20,
        "checks": ["scalar_bellman_weighted", "scalar_bellman_columns", "scalar_bellman_reverse"],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        text = campaign.report_to_json(run_campaign(cfg))
    report = json.loads(text)
    assert report["summary"]["not_applicable"] > 0 and report["summary"]["holds"] > 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "ee953d221d019108b7b5dc0bcad84e5bc1579934e43c07907826ab679677f2bc"
    )


# -- stacked builds -----------------------------------------------------------


def _assert_same_bits(x, y, where="instance"):
    """x and y hold the same values, arrays compared byte for byte (sign of
    zero and NaN payloads included); an instance's ``meta`` is left out."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray), where
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), where
    elif dataclasses.is_dataclass(x):
        assert type(x) is type(y), where
        for field in dataclasses.fields(x):
            if field.name != "meta":
                _assert_same_bits(getattr(x, field.name), getattr(y, field.name), f"{where}.{field.name}")
    elif isinstance(x, (list, tuple)):
        assert type(x) is type(y) and len(x) == len(y), where
        for k, (a, b) in enumerate(zip(x, y)):
            _assert_same_bits(a, b, f"{where}[{k}]")
    elif isinstance(x, dict):
        assert x.keys() == y.keys(), where
        for k in x:
            _assert_same_bits(x[k], y[k], f"{where}[{k!r}]")
    else:
        assert type(x) is type(y) and x == y, where


class _Built(NamedTuple):
    """One built trial: the stack of its build, its instance and its params."""

    stack: object
    inst: object
    params: dict


def _assert_stack_builds_each_trial_as_alone(check_id, cells, cfg):
    """The trials of cells (one cell, or a list of cells that differ only in
    their interval, their mean and their map) built as one stack equal, bit for bit, each trial built
    alone (a stack of one): instance, params (with the builder's draws) and
    rejection; the built trials are returned."""
    cells = [cells] if isinstance(cells, dict) else cells
    pairs = [(cell, t) for cell in cells for t in range(cfg.trials)]
    states = campaign._stream_states([(check_id, cell) for cell in cells], range(cfg.trials), cfg).reshape(-1, 4)
    stacked = campaign._build_trials(check_id, pairs, cfg, states)
    for i, (cell, trial) in enumerate(pairs):
        alone = campaign._build_trials(check_id, [(cell, trial)], cfg, states[i : i + 1])
        where = f"{check_id} {cell} trial {trial}"
        assert repr(stacked.outcome(i)) == repr(alone.outcome(0)), where
        _assert_same_bits(stacked.params(i), alone.params(0), f"{where} params")
        _assert_same_bits(stacked.inst(i), alone.inst(0), where)
    return [_Built(stacked.stack, stacked.inst(i), stacked.params(i)) for i in range(len(pairs)) if stacked.row[i] >= 0]


def _states(check_id, cell, cfg):
    key = json.dumps(cell, sort_keys=True)
    return stream_states(cfg.seed, [(check_id, key, trial) for trial in range(cfg.trials)])


def _streams(check_id, cell, cfg):
    return Streams(_states(check_id, cell, cfg))


def _stream_end(stack, i):
    """Where stream i of a drawn stack ends: its Generator's state, or the
    kernel's words of a stack drawn on arrays."""
    return stack[i].bit_generator.state if stack._pcg is None else stack._pcg[:, i].tolist()


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS + checks.SCALAR_IDS)
def test_stacked_build_equals_each_trial_built_alone(check_id):
    # every operator builder, on dims 1 and 3 and every map kind, and every
    # scalar builder at p = 0.001, where the mp1/mp3/eq3 builders reject: a
    # stack holds exactly the built trials; each stream also ends where it
    # ends alone, so it got exactly its own draws.  The cells that differ only
    # in their interval, their mean and their map are built as one stack, of
    # two windows of each kind, each mean and each map of one output shape
    p_grid = (0.001, 0.5) if check_id in checks.SCALAR_IDS else (0.5,)
    cfg = CampaignConfig(
        trials=5, dims=(1, 3), intervals=((0.5, 2.0), (0.8, 1.25), (0.2, 0.8), (0.1, 0.7)), p_grid=p_grid,
        maps=("id", "compress:2", "unitary-mix:2", "pinch:2"), seed=41,
    )
    cells = campaign.expand_cells(check_id, cfg)
    rejected = 0
    entry = checks.REGISTRY[check_id]
    means = len(cfg.means) if "f" in entry.axes else len(cfg.means) + 1 if "f+log" in entry.axes else 1
    for group in campaign._stack_groups(cells):
        group = [cells[i] for i in group]
        maps = len({c["map"] for c in group}) if "map" in entry.axes else 1
        assert len(group) == {"none": 1, "sandwich": 2, "unit": 2, "positive": 4}[entry.interval_kind] * means * maps
        built = _assert_stack_builds_each_trial_as_alone(check_id, group, cfg)
        if check_id in checks.OPERATOR_IDS:
            assert len(built) == len(group) * cfg.trials
        elif built:
            assert campaign._size(built[0].stack) == len(built)
        rejected += len(group) * cfg.trials - len(built)
        states = np.concatenate([_states(check_id, cell, cfg) for cell in group])
        rngs = Streams(states)
        with contextlib.suppress(HypothesisError):
            campaign.BUILDERS[check_id](checks._stack_params([c for c in group for _ in range(cfg.trials)]), rngs)
        for i, cell in enumerate(c for c in group for _ in range(cfg.trials)):
            alone = Streams(states[i : i + 1])
            with contextlib.suppress(HypothesisError):
                campaign.BUILDERS[check_id](cell, alone)
            assert _stream_end(rngs, i) == _stream_end(alone, 0)
    assert (rejected > 0) == (check_id in ("scalar_bellman_weighted", "scalar_bellman_columns", "scalar_bellman_reverse"))


# -- member stacks: a copy of the per-member loops ------------------------------------
#
# Each family was once built one member at a time: one generator call per
# member, which drew one matrix on every stream and formed it on its own.
# These loops keep that construction to compare the member-stacked builders
# with, bit for bit.


def _loop_haar(dim, rngs):
    g = np.stack([r.standard_normal((2, dim, dim)) for r in rngs])
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _loop_spectrum(dim, interval, rngs):
    a, b = (x.tolist() if isinstance(x, np.ndarray) else [x] * len(rngs) for x in interval)
    lam = np.sort(np.stack([r.uniform(lo, hi, size=dim) for r, lo, hi in zip(rngs, a, b)]), axis=-1)
    u = _loop_haar(dim, rngs)
    return hermitize((u * lam[..., None, :]) @ adjoint(u))


def _loop_weights(n, rngs):
    w = np.stack([r.uniform(0.2, 1.0, size=n) for r in rngs])
    return w / w.sum(axis=-1, keepdims=True)


def _loop_map(map_id, dim, rngs):
    kind, arg = campaign._parse_map_id(map_id)
    if kind == "compress":
        return Compression(_loop_haar(dim, rngs)[..., : min(arg, dim)])
    if kind == "unitary-mix":
        return UnitaryMixture(_loop_weights(arg, rngs), tuple(_loop_haar(dim, rngs) for _ in range(arg)))
    return campaign.build_map(map_id, dim, rngs)[0]  # id and pinch draw nothing


def _loop_sandwich_pair(a, m, M, rngs):
    delta = instances.EDGE_SHRINK * (M - m)
    root = apply_function(a, np.sqrt, POSITIVE_HALFLINE)
    t = _loop_spectrum(a.shape[-1], (m + delta, M - delta), rngs)
    b = hermitize(root @ t @ root)
    mf, Mf = instances._trial_factor(m), instances._trial_factor(M)
    low = np.linalg.eigvalsh(hermitize(np.stack([b - mf * a, Mf * a - b])))[..., 0]
    failed = (low < 0.0).any(axis=0)
    if failed.any():
        raise HypothesisError("sandwich construction failed verification", where=failed)
    return a, b


def _loop_subidentity(n, dim, rngs, cap):
    raw = [_loop_spectrum(dim, (0.2, 1.0), rngs) for _ in range(n)]
    scale = (cap / np.linalg.eigvalsh(sum(raw))[..., -1])[..., None, None]
    return [hermitize(scale * x) for x in raw]


def _loop_complement(dim, n, m, M, f_id, gamma, rngs):
    m, M, gamma = (np.broadcast_to(np.ravel(x), len(rngs)) for x in (m, M, gamma))
    pairs = [_loop_sandwich_pair(_loop_spectrum(dim, (0.5, 1.5), rngs), m, M, rngs) for _ in range(n)]
    a, b = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
    f = function_from_id(f_id)
    s_max = instances._scale_limit(gamma, sum(a), sum(b), sum(mean(a, b, f)), m, M, instances.DEFAULT_MARGIN)
    s = np.where(s_max >= 1.0, 1.0, s_max * (1.0 - 1e-6))
    family = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=[hermitize(s.reshape(-1, 1, 1) * x) for x in a],
        B=[hermitize(s.reshape(-1, 1, 1) * x) for x in b],
        meta={"scale": s, "gamma": np.array(gamma)},
    )
    verified = instances._verify_complement_family(family, gamma, m, M, instances.DEFAULT_MARGIN)
    failed = (s_max < instances.MIN_SCALE) | ~verified
    if failed.any():
        raise HypothesisError("no complement-sandwiched scale of the drawn family", where=failed)
    return family


#: The complement-sandwich checks: (mean id, or None for the cell's own; whether scaled by gamma_f).
_LOOP_COMPLEMENT = {
    "bellman_ratio_reverse": (None, True),
    "bellman_arith_reverse": ("arith:{lam!r}", False),
    "bellman_diff_reverse": (None, False),
    "aczel_reverse": ("geom:{p!r}", False),
}


def _loop_build(check_id, cell, rngs):
    """(family, draws) of one cell's streams as the per-member loops built them."""
    fam = _loop_family(check_id, cell, rngs)
    if check_id == "bellman_chain_interp":
        return fam, [{"t": [float(v) for v in r.uniform(0.0, 1.0, size=cell["n"])]} for r in rngs]
    return fam, [{"lam": cell["p"]} if check_id == "aczel_reverse" else {}] * len(rngs)


def _loop_family(check_id, cell, rngs):
    d, n = cell["dim"], cell.get("n", 1)
    if check_id in _LOOP_COMPLEMENT:
        mean_id, scaled = _LOOP_COMPLEMENT[check_id]
        f_id = cell["f"] if mean_id is None else mean_id.format(**cell)
        g = checks._per_trial(checks._gamma_cached, f_id, cell["m"], cell["M"]) if scaled else 1.0
        return _loop_complement(d, n, cell["m"], cell["M"], f_id, g, rngs)
    if check_id in ("bellman_map", "jensen_family_diff_reverse", "bellman_family_reverse", "log_family_reverse"):
        lo, hi = campaign._shrunk(cell["m"], cell["M"])
        per_member = check_id in ("jensen_family_diff_reverse", "bellman_family_reverse")
        return InstanceFamily(
            hypothesis_tag="spectrum_window_family",
            A=[_loop_spectrum(d, (lo, hi), rngs) for _ in range(n)],
            weights=_loop_weights(n, rngs),
            maps=[_loop_map(cell["map"], d, rngs) for _ in range(n if per_member else 1)],
        )
    if check_id in ("bellman_mean", "bellman_chain_split", "bellman_chain_interp"):
        cap_a = np.array([r.uniform(0.4, 0.85) for r in rngs])
        cap_b = np.array([r.uniform(0.4, 0.85) for r in rngs])
        return InstanceFamily(
            hypothesis_tag="subidentity_pair_family",
            A=_loop_subidentity(n, d, rngs, cap_a),
            B=_loop_subidentity(n, d, rngs, cap_b),
        )
    if check_id in ("jensen_map", "jensen_ratio_reverse", "jensen_diff_reverse"):
        x = _loop_spectrum(d, campaign._shrunk(cell["m"], cell["M"]), rngs)
        return InstanceFamily(hypothesis_tag="spectrum_window", A=[x], maps=[_loop_map(cell["map"], d, rngs)])
    if check_id == "mean_superadditive":
        a = [_loop_spectrum(d, (0.3, 1.5), rngs) for _ in range(n)]
        b = [_loop_spectrum(d, (0.3, 1.5), rngs) for _ in range(n)]
        return InstanceFamily(hypothesis_tag="pd_family", A=a, B=b)
    if check_id == "mean_remainder":
        a = [_loop_spectrum(d, (0.2, 1.0), rngs) for _ in range(n)]
        b = [_loop_spectrum(d, (0.2, 1.0), rngs) for _ in range(n)]
        aux = {"A_total": sum(a) + _loop_spectrum(d, (0.2, 1.0), rngs)}
        aux["B_total"] = sum(b) + _loop_spectrum(d, (0.2, 1.0), rngs)
        return InstanceFamily(hypothesis_tag="dominated_family", A=a, B=b, aux=aux)
    if check_id == "mean_power_compose":
        a = _loop_spectrum(d, (0.1, 0.95), rngs)
        return InstanceFamily(hypothesis_tag="pd_contraction_pair", A=[a], B=[_loop_spectrum(d, (0.3, 2.0), rngs)])
    if check_id in ("mean_map_ratio_reverse", "mean_map_diff_reverse"):
        x, y = _loop_sandwich_pair(_loop_spectrum(d, (0.5, 1.5), rngs), cell["m"], cell["M"], rngs)
        return InstanceFamily(hypothesis_tag="sandwich_pair", A=[x], B=[y], maps=[_loop_map(cell["map"], d, rngs)])
    if check_id in ("mean_sum_ratio_reverse", "mean_sum_diff_reverse"):
        pairs = [_loop_sandwich_pair(_loop_spectrum(d, (0.5, 1.5), rngs), cell["m"], cell["M"], rngs) for _ in range(n)]
        return InstanceFamily(hypothesis_tag="sandwich_family", A=[p[0] for p in pairs], B=[p[1] for p in pairs])
    if check_id == "compression_ratio_reverse":
        kinds = ["unitary" if r.uniform() < 0.5 else "ginibre" for r in rngs]
        x = _loop_spectrum(d, campaign._shrunk(cell["m"], cell["M"]), rngs)
        return InstanceFamily(
            hypothesis_tag="contraction_window", A=[x], aux={"C": instances.random_contraction(d, rngs, kinds)}
        )
    assert check_id == "mean_power_ratio_reverse", check_id
    a, b = _loop_sandwich_pair(_loop_spectrum(d, (0.15, 0.9), rngs), cell["m"], cell["M"], rngs)
    return InstanceFamily(hypothesis_tag="pd_contraction_sandwich", A=[a], B=[b])


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS)
def test_member_stacked_build_equals_the_per_member_loops(check_id):
    # each builder draws every member of a stream in the order the loops
    # drew them and forms each matrix kind in one call: the same family, bit
    # for bit (member maps, weights, aux and meta included), and each stream
    # ends where the loops leave it, on n 1-3, dims 1, 3 and 6, every map kind
    cfg = CampaignConfig(
        trials=3, dims=(1, 3, 6), n_values=(1, 2, 3), means=("geom:0.5",),
        maps=("id", "compress:2", "unitary-mix:2", "pinch:2"), seed=43,
    )
    seen = set()
    for cell in campaign.expand_cells(check_id, cfg):
        key = (cell["dim"], cell.get("n"), cell.get("map"))
        if key in seen:
            continue
        seen.add(key)
        built, loops = _streams(check_id, cell, cfg), _streams(check_id, cell, cfg)
        fam, draws = campaign.BUILDERS[check_id](cell, built)
        want, want_draws = _loop_build(check_id, cell, loops)
        _assert_same_bits(fam, want, f"{check_id} {cell}")
        _assert_same_bits(draws, want_draws, f"{check_id} {cell} draws")
        _assert_same_bits(fam.meta, want.meta, f"{check_id} {cell} meta")
        assert fam.A.shape == (cell.get("n", 1), cfg.trials, cell["dim"], cell["dim"])
        for r, loop in zip(built, loops):
            assert r.bit_generator.state == loop.bit_generator.state, (check_id, cell)
    ns = {"n": {1, 2, 3}, "n2": {2, 3}}
    want_n = next((v for axis, v in ns.items() if axis in checks.REGISTRY[check_id].axes), {None})
    assert {n for _, n, _ in seen} == want_n and {d for d, _, _ in seen} == {1, 3, 6}
    if "map" in checks.REGISTRY[check_id].axes:
        assert {m for _, _, m in seen} == set(cfg.maps)


@pytest.mark.parametrize("check_id", ["bellman_mean", "bellman_chain_split", "bellman_chain_interp"])
def test_subidentity_pair_build_makes_one_qr_and_one_eigvalsh(monkeypatch, check_id):
    # both sub-identity families are drawn as one family of 2n members: one
    # QR forms every member and one eigvalsh takes both families' lambda_max
    counts = {}

    def counted(kind, solver):
        def call(*args, **kwargs):
            counts[kind] = counts.get(kind, 0) + 1
            return solver(*args, **kwargs)

        return call

    for kind in ("qr", "eigvalsh"):
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    cfg = CampaignConfig(trials=4, dims=(3,), n_values=(3,), means=("geom:0.5",), seed=44)
    cell = campaign.expand_cells(check_id, cfg)[0]
    campaign.BUILDERS[check_id](cell, _streams(check_id, cell, cfg))
    assert counts == {"qr": 1, "eigvalsh": 1}


@pytest.mark.parametrize(
    "check_id", [cid for cid in checks.OPERATOR_IDS if checks.REGISTRY[cid].interval_kind != "none"]
)
def test_stacked_check_with_windows_per_trial_equals_each_trial_alone(check_id):
    # a stack of two windows' trials, checked with a window per trial; the
    # second window's trials claim a narrower window than they were built on,
    # so a guard fails on only part of the stack, and each trial still gets
    # the outcome it gets alone
    cfg = CampaignConfig(
        trials=3, dims=(2,), n_values=(2,), intervals=((0.5, 2.0), (0.8, 1.25), (0.2, 0.8), (0.1, 0.7)),
        means=("geom:0.5",), maps=("compress:2",), seed=12,
    )
    cells = campaign.expand_cells(check_id, cfg)
    group = [cells[i] for i in campaign._stack_groups(cells)[0]]
    group = [cell for cell in group if cell.get("f") == group[0].get("f")][:2]
    assert group[0]["m"] != group[1]["m"]
    states = campaign._stream_states([(check_id, cell) for cell in group], range(cfg.trials), cfg).reshape(-1, 4)
    build = campaign._build_trials(check_id, [(cell, t) for cell in group for t in range(cfg.trials)], cfg, states)
    params = [build.params(i) for i in range(cfg.trials)]
    for i in range(cfg.trials, len(build.pairs)):
        m, M = build.params(i)["m"], build.params(i)["M"]
        params.append(dict(build.params(i), m=m + 0.45 * (M - m), M=M - 0.45 * (M - m)))
    stacked = checks.check_cell(check_id, build.stack, params)
    alone = [checks.check(check_id, build.inst(i), p) for i, p in enumerate(params)]
    assert list(map(repr, stacked)) == list(map(repr, alone))
    assert {o.status for o in stacked[: cfg.trials]} == {"holds"}
    # bellman_map's window is [0, 1] whatever the cell's interval
    assert ("not_applicable" in {o.status for o in stacked[cfg.trials :]}) == (check_id != "bellman_map")


#: The checks that cross their cells with the maps grid.
MAP_IDS = [cid for cid in checks.OPERATOR_IDS if "map" in checks.REGISTRY[cid].axes]


@pytest.mark.parametrize("check_id", MAP_IDS)
def test_mixed_map_stack_gives_each_trial_what_it_gets_alone(monkeypatch, check_id):
    # the cells that differ only in their map, of one output shape, build and
    # check as one stack of per-trial maps: every map kind at dims 1 and 2,
    # and all but compress:2 at dim 3.  Each trial gets, bit for bit, the
    # build and the stream end state it gets alone; check_cell gives each
    # trial its own outcome where a narrowed window fails a guard on part of
    # the stack; and with the reverse constants pushed down, the campaign's
    # report equals the per-trial one and every violation witness replays
    cfg = CampaignConfig(
        trials=3, dims=(1, 2, 3), n_values=(2,), means=("geom:0.5",),
        maps=("id", "compress:2", "unitary-mix:2", "pinch:2"), seed=23,
    )
    cells = campaign.expand_cells(check_id, cfg)
    groups = [[cells[i] for i in group] for group in campaign._stack_groups(cells)]
    mixed = [group for group in groups if len({c["map"] for c in group}) > 1]
    assert {group[0]["dim"] for group in mixed} == {1, 2, 3}
    for group in mixed:
        pairs = [(c, t) for c in group for t in range(cfg.trials)]
        built = _assert_stack_builds_each_trial_as_alone(check_id, group, cfg)
        assert len(built) == len(pairs)
        assert all(isinstance(phi, PerTrialMap) for phi in built[0].stack.maps)
        rngs = [rng for cell in group for rng in _streams(check_id, cell, cfg)]
        campaign.BUILDERS[check_id](checks._stack_params([c for c, _ in pairs]), rngs)
        for (cell, trial), rng in zip(pairs, rngs):
            alone = _streams(check_id, cell, cfg)[trial]
            campaign.BUILDERS[check_id](cell, [alone])
            assert rng.bit_generator.state == alone.bit_generator.state
        # every other trial claims a narrower window than it was built on
        params = [dict(t.params) for t in built]
        for p in params[1::2]:
            m, M = p["m"], p["M"]
            p.update(m=m + 0.45 * (M - m), M=M - 0.45 * (M - m))
        stacked = checks.check_cell(check_id, built[0].stack, params)
        alone = [check(check_id, t.inst, p) for t, p in zip(built, params)]
        assert list(map(repr, stacked)) == list(map(repr, alone))
        statuses = {o.status for o in stacked}
        assert "holds" in statuses
        # bellman_map's window is [0, 1] whatever the cell's interval
        assert ("not_applicable" in statuses) == (check_id != "bellman_map")

    def lowered(owner, name, scale, shift):
        constant = getattr(owner, name)

        def pushed(*args):
            value = constant(*args)
            return scale * getattr(value, "value", value) - shift  # a ConstantResult gives its value

        monkeypatch.setattr(owner, name, pushed)

    lowered(checks, "_gamma_cached", 0.9, 0.0)
    for owner, name in ((checks, "_beta_cached"), (checks.constants, "delta_bellman"), (checks.constants, "beta_log")):
        lowered(owner, name, 1.0, 0.1)
    cfg = dataclasses.replace(cfg, trials=2, checks=(check_id,))
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    assert campaign.report_to_json(report) == campaign.report_to_json(dict(report, cells=cells, summary=summary))
    witnesses = [w for row in report["cells"] for w in row["violation_witnesses"]]
    assert bool(witnesses) == (checks.REGISTRY[check_id].group == "reverse")
    for w in witnesses:
        assert replay_witness(json.loads(json.dumps(w)))[2], w["provenance"]


def test_stacked_complement_build_rejects_per_trial(monkeypatch):
    # an oversized gamma leaves some trials' one draw without a family scale
    # above MIN_SCALE; those are rejected, and the others are built as alone
    monkeypatch.setattr(campaign, "_gamma_cached", lambda *args: 7e4)
    cfg = CampaignConfig(trials=12, dims=(2,), n_values=(2,), means=("geom:0.5",), seed=36)
    cell = campaign.expand_cells("bellman_ratio_reverse", cfg)[0]
    built = _assert_stack_builds_each_trial_as_alone("bellman_ratio_reverse", cell, cfg)
    assert 0 < len(built) < cfg.trials
    f = function_from_id(cell["f"])
    shape = (cell["dim"], cell["n"], (cell["m"], cell["M"]), f, 7e4)
    alone = []
    for rng in _streams("bellman_ratio_reverse", cell, cfg):
        try:
            alone.append(instances.take(instances.complement_sandwich_family(*shape, [rng]), 0))
        except HypothesisError:
            alone.append(None)
    with pytest.raises(HypothesisError) as exc:
        instances.complement_sandwich_family(*shape, _streams("bellman_ratio_reverse", cell, cfg))
    assert list(exc.value.where) == [fam is None for fam in alone]
    kept = [rng for rng, fam in zip(_streams("bellman_ratio_reverse", cell, cfg), alone) if fam is not None]
    stack = instances.complement_sandwich_family(*shape, kept)
    alone = [fam for fam in alone if fam is not None]
    assert len(alone) == len(built)
    for t, fam in enumerate(alone):
        _assert_same_bits(instances.take(stack, t), fam)
        assert stack.meta["scale"][t] == fam.meta["scale"]


@pytest.mark.parametrize(
    "check_id", ["mean_map_ratio_reverse", "mean_sum_ratio_reverse", "mean_power_ratio_reverse", "bellman_diff_reverse"]
)
def test_stacked_build_rejects_only_failed_sandwich_trials(monkeypatch, check_id):
    # a window wider than [m, M] makes the sandwich verification fail on some
    # trials; only those are rejected, the rest are built as alone
    monkeypatch.setattr(instances, "EDGE_SHRINK", -0.05)
    cfg = CampaignConfig(trials=10, dims=(2,), n_values=(2,), seed=5)
    cell = campaign.expand_cells(check_id, cfg)[0]
    built = _assert_stack_builds_each_trial_as_alone(check_id, cell, cfg)
    assert 0 < len(built) < cfg.trials


def test_stacked_contraction_window_mixes_both_kinds():
    cfg = CampaignConfig(trials=8, dims=(3,), seed=7)
    cell = campaign.expand_cells("compression_ratio_reverse", cfg)[0]
    kinds = {rng.uniform() < 0.5 for rng in _streams("compression_ratio_reverse", cell, cfg)}
    assert kinds == {True, False}
    _assert_stack_builds_each_trial_as_alone("compression_ratio_reverse", cell, cfg)
