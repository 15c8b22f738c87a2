import contextlib
import dataclasses
import hashlib
import json
import math
import statistics
import sys
import warnings
from pathlib import Path

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
from opbellman.instances import InstanceFamily, subrng
from opbellman.means import function_from_id
from opbellman.spectral import Tolerance


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
    fresh, _, match = replay_witness(wit)
    assert match and fresh.status == "holds"


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


@pytest.mark.parametrize("interval", [(0.0, 2.0), (-0.5, 2.0)])
def test_sandwich_checks_fall_back_from_nonpositive_windows(interval):
    # 0 < m A <= B needs m > 0; such a grid used to abort in random_sandwich_pair
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
    draw = instances.random_sandwich_pair
    monkeypatch.setattr(instances, "random_sandwich_pair", lambda *args: calls.append(1) or draw(*args))
    cfg = config_from_json({"intervals": [interval], "dims": [dim], "trials": 1, "checks": list(COMPLEMENT_IDS)})
    report = run_campaign(cfg)
    assert report["summary"]["not_applicable"] == report["summary"]["trials"] == 12
    assert {g for row in report["cells"] for g in row["na_guards"]} == {"generator_rejected"}
    members = 0
    for check_id in COMPLEMENT_IDS:
        cells = campaign.expand_cells(check_id, cfg)
        members += sum(cells[group[0]]["n"] for group in campaign._stack_groups(cells))
    assert len(calls) == members


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


def _per_trial_summary(cfg):
    """(cells, summary) of a report, every trial evaluated through run_check_trial."""
    cells = []
    total = {"trials": 0, "holds": 0, "violations": 0, "not_applicable": 0}
    for check_id in cfg.checks:
        for cell in campaign.expand_cells(check_id, cfg):
            holds = violated = na = 0
            slacks, normalized, na_guards, witnesses = [], [], {}, []
            argmin_ref, min_slack = None, math.inf
            for trial in range(cfg.trials):
                outcome, inst, params, provenance = run_check_trial(check_id, cell, cfg, trial)
                if outcome.status == "not_applicable":
                    na += 1
                    guard = outcome.witness["guard"]
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
            for key, value in (("trials", cfg.trials), ("holds", holds), ("violations", violated),
                               ("not_applicable", na)):
                total[key] += value
            cells.append({
                "check": check_id, "cell": cell, "trials": cfg.trials, "holds": holds,
                "violations": violated, "not_applicable": na, "na_guards": dict(sorted(na_guards.items())),
                "min_slack": min(slacks) if slacks else None,
                "median_normalized_slack": statistics.median(normalized) if normalized else None,
                "argmin": argmin_ref, "violation_witnesses": witnesses,
            })
    return cells, total


@pytest.mark.parametrize("trials", [1, 2, 3, 200])
def test_filtered_scalar_campaign_matches_per_trial_summary(trials):
    # odd and even medians, and the n = 1 cells where every slack ties
    cfg = CampaignConfig(trials=trials, **SCALAR_SUITE)
    report = run_campaign(cfg)
    cells, summary = _per_trial_summary(cfg)
    expected = campaign.report_to_json(dict(report, cells=cells, summary=summary))
    assert campaign.report_to_json(report) == expected


def _workload(name: str, **overrides) -> CampaignConfig:
    """The config of benchmark workload ``name`` at seed 301, with ``overrides``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
    config = json.loads(path.read_text(encoding="utf-8"))["workloads"][name]["config"]
    return config_from_json(dict(config, seed=301, **overrides))


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


def test_rejecting_scalar_builder_builds_each_trial_once(monkeypatch):
    # a scalar trial draws alone, so the trials a scalar builder did not
    # reject keep their first build: at p = 0.001 the mp1/mp3/eq3 builders
    # reject about half of their trials, and each trial is still drawn once
    streams = []
    ids = ("scalar_bellman_weighted", "scalar_bellman_columns", "scalar_bellman_reverse")
    for check_id in ids:
        builder = campaign.BUILDERS[check_id]
        monkeypatch.setitem(campaign.BUILDERS, check_id, lambda cell, rngs, b=builder: streams.extend(rngs) or b(cell, rngs))
    cfg = config_from_json({"p_grid": [0.001], "n_values": [1, 2, 3], "trials": 200, "checks": list(ids)})
    rejected = 0
    for check_id in ids:
        for cell in campaign.expand_cells(check_id, cfg):
            trials = campaign._build_trials(check_id, [(cell, t) for t in range(cfg.trials)], cfg)
            rejected += sum(t.outcome is not None for t in trials)
    assert len(streams) == 1800
    assert 0 < rejected < 1800


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


def _assert_stack_builds_each_trial_as_alone(check_id, cells, cfg):
    """The trials of cells (one cell, or a list of cells that differ only in
    their interval and their mean) built as one stack equal, bit for bit, each trial built
    alone (a stack of one): instance, params (with the builder's draws) and
    rejection; the built trials are returned."""
    cells = [cells] if isinstance(cells, dict) else cells
    pairs = [(cell, t) for cell in cells for t in range(cfg.trials)]
    stacked = campaign._build_trials(check_id, pairs, cfg)
    for (cell, trial), s in zip(pairs, stacked):
        (alone,) = campaign._build_trials(check_id, [(cell, trial)], cfg)
        where = f"{check_id} {cell} trial {trial}"
        assert repr(s.outcome) == repr(alone.outcome), where
        _assert_same_bits(s.params, alone.params, f"{where} params")
        _assert_same_bits(s.inst, alone.inst, where)
    return [t for t in stacked if t.outcome is None]


def _streams(check_id, cell, cfg):
    key = json.dumps(cell, sort_keys=True)
    return [subrng(cfg.seed, check_id, key, trial) for trial in range(cfg.trials)]


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS + checks.SCALAR_IDS)
def test_stacked_build_equals_each_trial_built_alone(check_id):
    # every operator builder, on dims 1 and 3 and every map kind, and every
    # scalar builder at p = 0.001, where the mp1/mp3/eq3 builders reject: a
    # stack holds exactly the built trials; each stream also ends where it
    # ends alone, so it got exactly its own draws.  The cells that differ only
    # in their interval and their mean are built as one stack, of two windows
    # of each kind and each mean
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
        assert len(group) == {"none": 1, "sandwich": 2, "unit": 2, "positive": 4}[entry.interval_kind] * means
        built = _assert_stack_builds_each_trial_as_alone(check_id, group, cfg)
        if check_id in checks.OPERATOR_IDS:
            assert len(built) == len(group) * cfg.trials
        elif built:
            assert len(built[0].stack) == len(built)
        rejected += len(group) * cfg.trials - len(built)
        rngs = [rng for cell in group for rng in _streams(check_id, cell, cfg)]
        with contextlib.suppress(HypothesisError):
            campaign.BUILDERS[check_id](checks._stack_params([c for c in group for _ in range(cfg.trials)]), rngs)
        for (cell, trial), rng in zip([(c, t) for c in group for t in range(cfg.trials)], rngs):
            alone = _streams(check_id, cell, cfg)[trial]
            with contextlib.suppress(HypothesisError):
                campaign.BUILDERS[check_id](cell, [alone])
            assert rng.bit_generator.state == alone.bit_generator.state
    assert (rejected > 0) == (check_id in ("scalar_bellman_weighted", "scalar_bellman_columns", "scalar_bellman_reverse"))


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
    trials = campaign._build_trials(check_id, [(cell, t) for cell in group for t in range(cfg.trials)], cfg)
    params = [t.params for t in trials[: cfg.trials]]
    for t in trials[cfg.trials :]:
        m, M = t.params["m"], t.params["M"]
        params.append(dict(t.params, m=m + 0.45 * (M - m), M=M - 0.45 * (M - m)))
    stacked = checks.check_cell(check_id, trials[0].stack, params)
    alone = [checks.check(check_id, t.inst, p) for t, p in zip(trials, params)]
    assert list(map(repr, stacked)) == list(map(repr, alone))
    assert {o.status for o in stacked[: cfg.trials]} == {"holds"}
    # bellman_map's window is [0, 1] whatever the cell's interval
    assert ("not_applicable" in {o.status for o in stacked[cfg.trials :]}) == (check_id != "bellman_map")


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
            alone.append(instances.complement_sandwich_family(*shape, rng))
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
