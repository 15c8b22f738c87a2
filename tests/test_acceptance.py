"""Acceptance gate.

Each criterion below runs at its stated tolerance and prints one pass/fail
line (visible with ``pytest -s tests/test_acceptance.py``).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from opbellman import campaign, checks, cli, constants
from opbellman.campaign import CampaignConfig, run_check_trial
from opbellman.checks import HOLDS, NOT_APPLICABLE, VIOLATED
from opbellman.instances import Streams, random_subidentity_family, stream_states
from opbellman.means import arithmetic_w
from opbellman.scalar_refs import reference_slack
from opbellman.spectral import Tolerance

TOL = Tolerance(atol=1e-10, rtol=1e-10)

ACCEPT_CFG = CampaignConfig(
    trials=1,
    dims=(1, 2, 3, 4, 5, 6),
    n_values=(1, 2, 3),
    intervals=((0.5, 2.0), (0.8, 1.25), (0.2, 0.8), (0.1, 0.7)),
    p_grid=(0.25, 0.5, 0.75),
    lambda_grid=(0.3, 0.7),
    means=("arith:0.5", "geom:0.5", "power:0.3"),
    maps=("id", "compress:2", "unitary-mix:2", "pinch:2"),
    seed=20260809,
    tolerance=TOL,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _run_many(check_id: str, count: int, max_attempts: int, cfg=ACCEPT_CFG):
    """Cycle the acceptance cells until ``count`` applicable outcomes, one
    ``run_check_trial`` per attempt: the reference for ``_attempts``."""
    cells = campaign.expand_cells(check_id, cfg)
    applicable = violations = na = 0
    worst = np.inf
    attempts = 0
    while applicable < count and attempts < max_attempts:
        cell = cells[attempts % len(cells)]
        trial = attempts // len(cells)
        outcome, *_ = run_check_trial(check_id, cell, cfg, trial)
        attempts += 1
        if outcome.status == NOT_APPLICABLE:
            na += 1
            continue
        applicable += 1
        worst = min(worst, outcome.slack)
        if outcome.status == VIOLATED:
            violations += 1
    return applicable, violations, na, worst


def _attempts(check_id: str, count: int, max_attempts: int, cfg=ACCEPT_CFG):
    """The checked trials of ``_run_many``'s attempts, in its order (attempt a
    is cell a mod C, trial a div C), up to where it stops, each as its
    build and its index in it.

    The trials are built and checked in rounds, one ``campaign._build_trials``
    and one ``campaign._check_pending`` call for the cell's whole
    ``campaign._stack_groups`` group, each trial on its own stream; a round
    holds the trials one cell is expected to need for the applicable
    outcomes still missing, for every cell of its group, which the group's
    first cell in the cycle starts, and trials built past the stopping
    point are dropped unread."""
    cells = campaign.expand_cells(check_id, cfg)
    group_of = {i: group for group in campaign._stack_groups(cells) for i in group}
    done = [[] for _ in cells]
    applicable = 0
    for attempt in range(max_attempts):
        if applicable >= count:
            return
        cell, trial = attempt % len(cells), attempt // len(cells)
        if trial == len(done[cell]):
            size = min(-(-(count - applicable) // len(cells)), -(-max_attempts // len(cells)) - trial)
            group, trials = group_of[cell], range(trial, trial + size)
            states = campaign._stream_states([(check_id, cells[j]) for j in group], trials, cfg)
            pairs = [(cells[j], t) for j in group for t in trials]
            (build,) = campaign._build_trials([(check_id, pairs)], cfg, states.reshape(len(pairs), 4))
            campaign._check_pending(build, np.flatnonzero(build.built))
            for k, j in enumerate(group):
                done[j] += [(build, k * size + i) for i in range(size)]
        build, i = done[cell][trial]
        applicable += build.outcome(i).status != NOT_APPLICABLE
        yield build, i


def _tally(trials):
    """(applicable, violations, not applicable, worst slack) of checked trials."""
    outcomes = [build.outcome(i) for build, i in trials]
    slacks = [o.slack for o in outcomes if o.status != NOT_APPLICABLE]
    na = len(outcomes) - len(slacks)
    violations = sum(o.status == VIOLATED for o in outcomes)
    return len(slacks), violations, na, min(slacks, default=np.inf)


def test_criterion_1_constant_reproduction():
    started = time.perf_counter()
    worst_gamma = 0.0
    triples = [
        (lam, m, M)
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9)
        for m, M in ((0.5, 2.0), (0.25, 0.75), (1.5, 3.0), (0.1, 0.9))
    ]
    assert len(triples) == 20
    for lam, m, M in triples:
        g = constants.gamma(arithmetic_w(lam), m, M).value
        worst_gamma = max(worst_gamma, abs(g - 1.0))
    worst_delta = 0.0
    for p in np.arange(0.1, 0.91, 0.1):
        p = float(p)
        d = constants.delta_bellman(0.0, 1.0, p).value
        worst_delta = max(worst_delta, abs(d - (1 - p) * p ** (p / (1 - p))))
    elapsed = time.perf_counter() - started
    ok = worst_gamma <= 1e-12 and worst_delta <= 1e-12 and elapsed < 1.0
    _report(
        "criterion 1 (constant reproduction)",
        ok,
        f"|gamma-1|<={worst_gamma:.2e}, |delta-limit|<={worst_delta:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_closed_form_vs_oracle():
    started = time.perf_counter()
    rows = cli.constants_sweep()
    elapsed = time.perf_counter() - started
    comparable = [r for r in rows if r["closed_form"] is not None and r["oracle"] is not None]
    worst = max(r["rel_disagreement"] for r in comparable)
    ok = len(comparable) >= 100 and worst <= 1e-9 and elapsed < 10.0
    _report(
        "criterion 2 (closed form vs oracle)",
        ok,
        f"{len(comparable)} cells, worst rel {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_forward_inequalities():
    started = time.perf_counter()
    summary = []
    total_viol = 0
    for cid in checks.FORWARD_IDS:
        applicable, violations, na, worst = _tally(_attempts(cid, 1000, 3000))
        total_viol += violations
        summary.append(f"{cid}:{applicable}ok/{na}na")
        assert applicable == 1000, f"{cid}: only {applicable} applicable instances"
    elapsed = time.perf_counter() - started
    ok = total_viol == 0 and elapsed < 60.0
    _report(
        "criterion 3 (forward inequalities)",
        ok,
        f"{total_viol} violations over {len(checks.FORWARD_IDS)}x1000, {elapsed:.1f}s; " + " ".join(summary),
    )


def test_criterion_4_reverse_inequalities():
    started = time.perf_counter()
    total_viol = 0
    na_report = []
    for cid in checks.REVERSE_IDS:
        applicable, violations, na, worst = _tally(_attempts(cid, 500, 2500))
        total_viol += violations
        na_report.append(f"{cid}:{na}na")
        assert applicable == 500, f"{cid}: only {applicable} applicable instances"
    elapsed = time.perf_counter() - started
    ok = total_viol == 0 and elapsed < 120.0
    _report(
        "criterion 4 (reverse inequalities)",
        ok,
        f"{total_viol} violations over {len(checks.REVERSE_IDS)}x500 applicable, "
        f"{elapsed:.1f}s; NA: " + " ".join(na_report),
    )


def test_criterion_5_refinement_chains():
    started = time.perf_counter()
    total_viol = 0
    worst_link = np.inf
    for cid in checks.CHAIN_IDS:
        applicable, violations, na, worst = _tally(_attempts(cid, 500, 2500))
        total_viol += violations
        worst_link = min(worst_link, worst)
        assert applicable == 500, f"{cid}: only {applicable} applicable instances"
    # degenerate interpolants must collapse one link to zero slack
    collapse_worst = 0.0
    for trial in range(20):
        rng = Streams(stream_states(77, [("collapse", trial)]))
        n, dim = 3, int(rng[0].integers(1, 5))
        inst_a = random_subidentity_family(n, dim, rng, 0.6)[:, 0]
        inst_b = random_subidentity_family(n, dim, rng, 0.6)[:, 0]
        from opbellman.instances import InstanceFamily

        inst = InstanceFamily(hypothesis_tag="subidentity_pair_family", A=inst_a, B=inst_b)
        ones = checks.check(
            "bellman_chain_interp", inst, {"f": "geom:0.5", "p": 0.5, "t": [1.0] * n}, TOL
        )
        zeros = checks.check(
            "bellman_chain_interp", inst, {"f": "geom:0.5", "p": 0.5, "t": [0.0] * n}, TOL
        )
        assert ones.status == HOLDS and zeros.status == HOLDS
        collapse_worst = max(collapse_worst, abs(ones.chain_slacks[0]), abs(zeros.chain_slacks[1]))
    elapsed = time.perf_counter() - started
    ok = total_viol == 0 and worst_link >= -TOL.margin(1.0) and collapse_worst <= TOL.margin(1.0)
    _report(
        "criterion 5 (refinement chains)",
        ok,
        f"{total_viol} violations, worst link slack {worst_link:.2e}, "
        f"collapse residual {collapse_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_scalar_suite():
    started = time.perf_counter()
    total_viol = 0
    for cid in checks.SCALAR_IDS:
        applicable, violations, na, worst = _tally(_attempts(cid, 10_000, 10_500))
        total_viol += violations
        assert applicable == 10_000, f"{cid}: only {applicable} applicable instances"
    elapsed = time.perf_counter() - started
    ok = total_viol == 0
    _report(
        "criterion 6 (scalar suite)",
        ok,
        f"{total_viol} violations over {len(checks.SCALAR_IDS)}x10^4, {elapsed:.1f}s",
    )


def _rejecting(builder):
    """``builder`` that also rejects about one trial in four, each trial's
    draw taken from its own stream."""

    def build(cell, rngs):
        fam, draws = builder(cell, rngs)
        # a scalar builder drew on the stack's arrays, an operator builder through its Generators
        u = rngs.random(1)[:, 0] if rngs._pcg is not None else np.array([rng.uniform() for rng in rngs])
        fam.meta["rejected"] = fam.meta.get("rejected", False) | (u < 0.25)
        return fam, draws

    return build


@pytest.mark.parametrize("count,max_attempts,reject", [
    (150, 160, False), (150, 100, False), (150, 260, True), (150, 170, True),
])
def test_stacked_scalar_loop_matches_the_per_trial_loop(monkeypatch, count, max_attempts, reject):
    # criterion 6's loop at a reduced count on the full acceptance grid,
    # stopping at the count and at the attempt cap; the acceptance grid
    # rejects no scalar build, so rejections are added to make cells need
    # further rounds
    for cid in checks.SCALAR_IDS:
        if reject:
            monkeypatch.setitem(campaign.BUILDERS, cid, _rejecting(campaign.BUILDERS[cid]))
        stacked = _tally(_attempts(cid, count, max_attempts))
        assert stacked == _run_many(cid, count, max_attempts), cid
        assert (stacked[2] > 0) == reject, cid


#: A trimmed acceptance grid: one to eight cells per check.
LOOP_CFG = dataclasses.replace(
    ACCEPT_CFG,
    dims=(1, 3),
    n_values=(2,),
    intervals=((0.5, 2.0), (0.2, 0.8)),
    p_grid=(0.5,),
    lambda_grid=(0.3,),
    means=("geom:0.5",),
    maps=("unitary-mix:2",),
)


@pytest.mark.parametrize("max_attempts", [80, 20])
def test_stacked_loop_matches_the_per_trial_loop(monkeypatch, max_attempts):
    # criteria 3-7's loop on every check at count 20, stopping at the count
    # (80 attempts), where the rejections make some group of every check
    # need a further round, and at the attempt cap (20); each round builds
    # every cell of one _stack_groups group over one range of trials
    count = 20
    rounds = []
    build_trials = campaign._build_trials
    monkeypatch.setattr(campaign, "_build_trials", lambda *args: rounds.append(args) or build_trials(*args))
    for cid in checks.REGISTRY:
        monkeypatch.setitem(campaign.BUILDERS, cid, _rejecting(campaign.BUILDERS[cid]))
        rounds.clear()
        stacked = _tally(_attempts(cid, count, max_attempts, LOOP_CFG))
        cells = campaign.expand_cells(cid, LOOP_CFG)
        groups = campaign._stack_groups(cells)
        for ((_, pairs),), _, _ in rounds:
            group, trials = sorted({cells.index(cell) for cell, _ in pairs}), sorted({t for _, t in pairs})
            assert group in groups and pairs == [(cells[j], t) for j in group for t in trials], cid
        built_rounds = len(rounds)
        assert stacked == _run_many(cid, count, max_attempts, LOOP_CFG), cid
        applicable, _, na, _ = stacked
        assert na > 0, cid
        if max_attempts > count:
            assert applicable == count and built_rounds > len(groups), cid
        else:
            assert applicable + na == max_attempts, cid


def test_criterion_7_dim1_oracle_equivalence():
    started = time.perf_counter()
    cfg = CampaignConfig(
        trials=1,
        dims=(1,),
        n_values=(1, 2, 3),
        intervals=ACCEPT_CFG.intervals,
        p_grid=ACCEPT_CFG.p_grid,
        lambda_grid=ACCEPT_CFG.lambda_grid,
        means=ACCEPT_CFG.means,
        maps=ACCEPT_CFG.maps,
        seed=424242,
        tolerance=TOL,
    )
    worst = 0.0
    for cid in checks.OPERATOR_IDS:
        compared = 0
        for build, i in _attempts(cid, 100, 400, cfg):
            outcome = build.outcome(i)
            if outcome.status == NOT_APPLICABLE:
                continue
            ref = reference_slack(cid, build.inst(i), build.params(i))
            worst = max(worst, abs(outcome.slack - ref["slack"]))
            if outcome.chain_slacks is not None:
                for got, want in zip(outcome.chain_slacks, ref["chain"]):
                    worst = max(worst, abs(got - want))
            compared += 1
        assert compared == 100, f"{cid}: only {compared} dim-1 instances compared"
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12
    _report(
        "criterion 7 (dim-1 oracle equivalence)",
        ok,
        f"worst |operator - scalar| = {worst:.2e} over {len(checks.OPERATOR_IDS)}x100, {elapsed:.1f}s",
    )


def test_criterion_8_campaign_determinism(tmp_path):
    started = time.perf_counter()
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1 = cli.main(["run", "--seed", "11", "--out", str(out1)])
    code2 = cli.main(["run", "--seed", "11", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    elapsed = time.perf_counter() - started
    ok = same and code1 == 0 and code2 == 0 and report["summary"]["violations"] == 0
    _report(
        "criterion 8 (determinism)",
        ok,
        f"byte-identical={same}, exit codes {code1}/{code2}, "
        f"{report['summary']['trials']} trials, {elapsed:.1f}s",
    )
