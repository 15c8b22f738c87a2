import dataclasses
import math

import mpmath
import numpy as np
import pytest

from opbellman import campaign, checks, constants, instances
from opbellman.campaign import CampaignConfig, run_check_trial
from opbellman.checks import HOLDS, NOT_APPLICABLE, VIOLATED, CheckOutcome, check
from opbellman.errors import ParameterError
from opbellman.instances import InstanceFamily, Streams, random_pd, random_sandwich_family, stream_states, take
from opbellman.means import function_from_id, geometric_w
from opbellman.positive_maps import Compression, IdentityMap, take_map
from opbellman.scalar_refs import reference_slack
from opbellman.spectral import Tolerance, from_spectrum, hermitize, identity

TOL = Tolerance()


def _cells(check_id, **cfg_kwargs):
    cfg = CampaignConfig(**cfg_kwargs)
    return cfg, campaign.expand_cells(check_id, cfg)


def _cell_states(check_id, cell, cfg):
    """The stream states of the trials of one cell, as a campaign seeds them."""
    return campaign._stream_states([(check_id, cell)], range(cfg.trials), cfg)[0]


def _mat(x):
    return np.atleast_2d(np.asarray(x, dtype=complex))


# -- hand-built trivial cases -------------------------------------------------


def test_bellman_map_zero_operand_gives_zero_slack():
    inst = InstanceFamily(
        hypothesis_tag="spectrum_window_family",
        A=[np.zeros((2, 2), dtype=complex)],
        weights=np.array([1.0]),
        maps=[IdentityMap(2)],
    )
    out = check("bellman_map", inst, {"p": 0.5}, TOL)
    assert out.status == HOLDS and out.slack == pytest.approx(0.0, abs=1e-14)


def test_bellman_map_scalar_concavity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.uniform(0.05, 0.95, size=3)
        inst = InstanceFamily(
            hypothesis_tag="spectrum_window_family",
            A=[_mat(v) for v in a],
            weights=np.array([0.2, 0.3, 0.5]),
            maps=[IdentityMap(1)],
        )
        out = check("bellman_map", inst, {"p": rng.uniform(0.1, 0.9)}, TOL)
        assert out.status == HOLDS and out.slack >= -1e-15


def test_bellman_family_identity_map_slack_is_delta():
    m, M, p = 0.2, 0.8, 0.5
    a = 0.55
    inst = InstanceFamily(
        hypothesis_tag="spectrum_window_family",
        A=[_mat(a)],
        weights=np.array([1.0]),
        maps=[IdentityMap(1)],
    )
    out = check("bellman_family_reverse", inst, {"m": m, "M": M, "p": p}, TOL)
    delta = constants.delta_bellman(m, M, p).value
    assert out.status == HOLDS
    assert out.slack == pytest.approx(delta, rel=1e-12)


def test_bellman_family_window_guard():
    inst = InstanceFamily(
        hypothesis_tag="spectrum_window_family",
        A=[_mat(0.5)],
        weights=np.array([1.0]),
        maps=[IdentityMap(1)],
    )
    out = check("bellman_family_reverse", inst, {"m": 0.2, "M": 1.2, "p": 0.5}, TOL)
    assert out.status == NOT_APPLICABLE
    assert out.witness["guard"] == "window_not_in_unit_interval"


def test_pair_mean_conditioning_is_not_applicable():
    # A_1 = 0 passes the PSD guards but A_1 sigma_f B_1 needs A_1 positive definite
    inst = InstanceFamily(
        hypothesis_tag="subidentity_pair_family",
        A=[np.zeros((2, 2), dtype=complex), 0.3 * identity(2)],
        B=[0.2 * identity(2), 0.3 * identity(2)],
    )
    out = check("bellman_mean", inst, {"f": "geom:0.5", "p": 0.5}, TOL)
    assert out.status == NOT_APPLICABLE
    assert out.witness["guard"] == "mean_conditioning"


def test_bellman_ratio_affine_collapses_to_equality():
    # with an affine representing function gamma = 1 and both sides coincide
    a, b, lam, p = 0.4, 0.5, 0.3, 0.6
    inst = InstanceFamily(
        hypothesis_tag="complement_sandwich_family", A=[_mat(a)], B=[_mat(b)]
    )
    out = check(
        "bellman_ratio_reverse",
        inst,
        {"f": f"arith:{lam}", "m": 0.5, "M": 2.0, "p": p},
        TOL,
    )
    assert out.status == HOLDS
    assert abs(out.slack) <= 1e-12


def test_bellman_ratio_single_pair_scalar_reduction():
    f = geometric_w(0.5)
    m, M, p = 0.5, 2.0, 0.5
    g = constants.gamma(f, m, M).value
    a = 0.3
    inst = InstanceFamily(
        hypothesis_tag="complement_sandwich_family", A=[_mat(a)], B=[_mat(a)]
    )
    out = check("bellman_ratio_reverse", inst, {"f": "geom:0.5", "m": m, "M": M, "p": p}, TOL)
    expected = g**p * (1 - a) ** p - (1 - g * a) ** p
    assert out.status == HOLDS
    assert out.slack == pytest.approx(expected, rel=1e-12)


def test_compression_identity_contraction():
    rng = np.random.default_rng(1)
    m, M = 0.5, 2.0
    f = geometric_w(0.5)
    g = constants.gamma(f, m, M).value
    x = random_pd(3, [rng], 0.6, 1.9)[0, 0]
    inst = InstanceFamily(hypothesis_tag="contraction_window", A=[x], aux={"C": identity(3)})
    out = check("compression_ratio_reverse", inst, {"f": "geom:0.5", "m": m, "M": M}, TOL)
    fx_min = np.linalg.eigvalsh(x).min() ** 0.5
    assert out.status == HOLDS
    assert out.slack == pytest.approx((g - 1.0) * fx_min, rel=1e-9)


def test_compression_zero_contraction_power_holds():
    x = np.diag([0.7, 1.5]).astype(complex)
    inst = InstanceFamily(
        hypothesis_tag="contraction_window", A=[x], aux={"C": np.zeros((2, 2), dtype=complex)}
    )
    out = check("compression_ratio_reverse", inst, {"f": "geom:0.5", "m": 0.5, "M": 2.0}, TOL)
    assert out.status == HOLDS  # gamma f(m) I >= 0


def test_compression_log_domain_guard():
    x = np.diag([1.5, 2.5]).astype(complex)
    c = np.diag([0.0, 0.5]).astype(complex)  # singular contraction
    inst = InstanceFamily(hypothesis_tag="contraction_window", A=[x], aux={"C": c})
    out = check("compression_ratio_reverse", inst, {"f": "log", "m": 1.2, "M": 3.0}, TOL)
    assert out.status == NOT_APPLICABLE
    assert out.witness["guard"] == "compressed_spectrum_outside_domain"


def test_mean_power_ratio_identity_contraction():
    rng = np.random.default_rng(2)
    a = identity(3)
    # with A = I the sandwich A^{1/2} T A^{1/2} is T, drawn from the shrunk window
    b = instances.random_spectrum_matrix(3, instances._sandwich_window(0.5, 2.0), [rng])[0, 0]
    inst = InstanceFamily(hypothesis_tag="pd_contraction_sandwich", A=[a], B=[b])
    out = check("mean_power_ratio_reverse", inst, {"f": "geom:0.5", "m": 0.5, "M": 2.0, "p": 0.5}, TOL)
    assert out.status == HOLDS and out.slack >= -1e-14


def test_mean_power_compose_identity_equality():
    rng = np.random.default_rng(3)
    b = random_pd(3, [rng], 0.4, 2.0)[0, 0]
    inst = InstanceFamily(hypothesis_tag="pd_contraction_pair", A=[identity(3)], B=[b])
    out = check("mean_power_compose", inst, {"f": "geom:0.5", "p": 0.4}, TOL)
    assert out.status == HOLDS
    assert abs(out.slack) <= 1e-12


def test_mean_power_compose_scalar_needs_contraction():
    inst = InstanceFamily(hypothesis_tag="pd_contraction_pair", A=[_mat(1.5)], B=[_mat(1.0)])
    out = check("mean_power_compose", inst, {"f": "geom:0.5", "p": 0.5}, TOL)
    assert out.status == NOT_APPLICABLE
    assert "contraction_window" in out.witness["guard"]


def test_superadditive_halves_equality():
    rng = np.random.default_rng(4)
    x, y = random_pd(3, [rng])[0, 0], random_pd(3, [rng])[0, 0]
    inst = InstanceFamily(hypothesis_tag="pd_family", A=[x / 2, x / 2], B=[y / 2, y / 2])
    out = check("mean_superadditive", inst, {"f": "geom:0.5"}, TOL)
    assert out.status == HOLDS
    assert abs(out.slack) <= 1e-12


def test_jensen_diff_affine_equality():
    rng = np.random.default_rng(5)
    x = random_pd(3, [rng], 0.6, 1.9)[0, 0]
    inst = InstanceFamily(hypothesis_tag="spectrum_window", A=[x], maps=[IdentityMap(3)])
    out = check("jensen_diff_reverse", inst, {"f": "arith:0.4", "m": 0.5, "M": 2.0}, TOL)
    assert out.status == HOLDS
    assert abs(out.slack) <= 1e-12


def test_jensen_ratio_affine_equality_under_linear_map():
    rng = np.random.default_rng(6)
    from opbellman.campaign import build_map

    x = random_pd(4, [rng], 0.6, 1.9)[0, 0]
    phi = take_map(build_map("unitary-mix:2", 4, [rng])[0], 0)
    inst = InstanceFamily(hypothesis_tag="spectrum_window", A=[x], maps=[phi])
    out = check("jensen_ratio_reverse", inst, {"f": "arith:0.3", "m": 0.5, "M": 2.0}, TOL)
    assert out.status == HOLDS
    assert abs(out.slack) <= 1e-12


def test_mean_map_diff_scalar_slack_is_beta_x():
    x, y = 1.2, 1.5
    m, M = 0.5, 2.0
    f = geometric_w(0.5)
    beta = constants.beta(f, m, M).value
    inst = InstanceFamily(
        hypothesis_tag="sandwich_pair", A=[_mat(x)], B=[_mat(y)], maps=[IdentityMap(1)]
    )
    out = check("mean_map_diff_reverse", inst, {"f": "geom:0.5", "m": m, "M": M}, TOL)
    assert out.status == HOLDS
    assert out.slack == pytest.approx(beta * x, rel=1e-12)


def test_aczel_degenerate_weight_holds():
    inst = InstanceFamily(
        hypothesis_tag="complement_sandwich_family", A=[_mat(0.4)], B=[_mat(0.5)]
    )
    out = check("aczel_reverse", inst, {"lam": 0.0, "m": 0.5, "M": 2.0, "p": 0.5}, TOL)
    assert out.status == HOLDS and out.slack >= -1e-14


def test_aczel_untied_weight_admits_violation():
    # zeta is the chord gap of t^p; pairing it with a geometric weight
    # lam != p can be beaten, which is why campaigns tie lam = p.
    inst = InstanceFamily(
        hypothesis_tag="complement_sandwich_family", A=[_mat(0.5)], B=[_mat(0.25)]
    )
    out = check("aczel_reverse", inst, {"lam": 0.5, "m": 0.5, "M": 2.0, "p": 0.1}, TOL)
    assert out.status == VIOLATED
    assert out.slack < -1e-4


def test_log_family_scalar_slack_is_constant():
    a, m, M = 1.1, 0.5, 2.0
    inst = InstanceFamily(
        hypothesis_tag="spectrum_window_family",
        A=[_mat(a)],
        weights=np.array([1.0]),
        maps=[IdentityMap(1)],
    )
    out = check("log_family_reverse", inst, {"m": m, "M": M}, TOL)
    assert out.status == HOLDS
    assert out.slack == pytest.approx(constants.beta_log(m, M).value, rel=1e-12)


def test_log_family_near_degenerate_window():
    rng = np.random.default_rng(7)
    m, M = 0.8, 0.8 + 1e-4
    from opbellman.instances import random_spectrum_matrix

    a = random_spectrum_matrix(3, (m + 1e-6, M - 1e-6), [rng])[0, 0]
    inst = InstanceFamily(
        hypothesis_tag="spectrum_window_family",
        A=[a],
        weights=np.array([1.0]),
        maps=[IdentityMap(3)],
    )
    out = check("log_family_reverse", inst, {"m": m, "M": M}, TOL)
    assert out.status == HOLDS
    assert 0.0 <= out.slack <= 1e-4


def test_chain_split_equal_families():
    rng = np.random.default_rng(8)
    from opbellman.instances import random_subidentity_family

    a = random_subidentity_family(2, 3, [rng], 0.6)[:, 0]
    inst = InstanceFamily(hypothesis_tag="subidentity_pair_family", A=a, B=[x.copy() for x in a])
    out = check("bellman_chain_split", inst, {"f": "geom:0.5", "p": 0.5, "k": 1}, TOL)
    assert out.status == HOLDS
    assert all(s >= -1e-13 for s in out.chain_slacks)


def test_chain_split_index_guard():
    rng = np.random.default_rng(9)
    from opbellman.instances import random_subidentity_family

    a = random_subidentity_family(2, 2, [rng], 0.6)[:, 0]
    b = random_subidentity_family(2, 2, [rng], 0.6)[:, 0]
    inst = InstanceFamily(hypothesis_tag="subidentity_pair_family", A=a, B=b)
    out = check("bellman_chain_split", inst, {"f": "geom:0.5", "p": 0.5, "k": 2}, TOL)
    assert out.status == NOT_APPLICABLE
    assert out.witness["guard"] == "split_index_out_of_range"


def test_chain_interp_collapses():
    rng = np.random.default_rng(10)
    from opbellman.instances import random_subidentity_family

    a = random_subidentity_family(3, 3, [rng], 0.6)[:, 0]
    b = random_subidentity_family(3, 3, [rng], 0.6)[:, 0]
    inst = InstanceFamily(hypothesis_tag="subidentity_pair_family", A=a, B=b)
    ones = check("bellman_chain_interp", inst, {"f": "geom:0.5", "p": 0.5, "t": [1.0, 1.0, 1.0]}, TOL)
    assert ones.status == HOLDS
    assert abs(ones.chain_slacks[0]) <= 1e-12  # middle collapses onto the first term
    zeros = check("bellman_chain_interp", inst, {"f": "geom:0.5", "p": 0.5, "t": [0.0, 0.0, 0.0]}, TOL)
    assert zeros.status == HOLDS
    assert abs(zeros.chain_slacks[1]) <= 1e-12  # middle collapses onto the last term


def test_chain_coherence_scalar_total_is_link_sum():
    rng = np.random.default_rng(11)
    from opbellman.instances import random_subidentity_family

    a = random_subidentity_family(2, 1, [rng], 0.6)[:, 0]
    b = random_subidentity_family(2, 1, [rng], 0.6)[:, 0]
    inst = InstanceFamily(hypothesis_tag="subidentity_pair_family", A=a, B=b)
    out = check("bellman_chain_split", inst, {"f": "geom:0.5", "p": 0.5, "k": 1}, TOL)
    ref = reference_slack("bellman_chain_split", inst, {"f": "geom:0.5", "p": 0.5, "k": 1})
    total = sum(ref["chain"])
    assert out.chain_slacks[0] + out.chain_slacks[1] == pytest.approx(total, abs=1e-12)


def test_dispatcher_unknown_id():
    with pytest.raises(ParameterError, match="unknown inequality id"):
        check("not_a_check", None, {}, TOL)


def test_registry_listing_complete():
    listing = checks.registry_listing()
    assert {row["id"] for row in listing} == set(checks.REGISTRY)
    assert len(checks.REVERSE_IDS) == 15
    assert len(checks.FORWARD_IDS) == 6
    assert len(checks.CHAIN_IDS) == 2
    assert len(checks.SCALAR_IDS) == 6
    for row in listing:
        assert row["statement"] and row["hypothesis"]


def test_registry_entries_are_complete():
    assert set(campaign.BUILDERS) == set(checks.REGISTRY)
    for cid, entry in checks.REGISTRY.items():
        assert entry.check_id == cid
        assert entry.axes, cid
        assert entry.interval_kind in ("sandwich", "unit", "positive", "none"), cid
        # expand_cells takes an interval exactly for the checks that have a kind
        assert ("interval" in entry.axes) == (entry.interval_kind != "none"), cid
        if entry.group == "scalar":
            assert entry.reference is None and callable(entry.bounds), cid
        else:
            assert callable(entry.reference) and entry.bounds is None, cid


def test_scalar_checks_hold_on_generated_instances():
    cfg = CampaignConfig(n_values=(1, 2, 4), trials=1)
    for cid in checks.SCALAR_IDS:
        for ci, cell in enumerate(campaign.expand_cells(cid, cfg)):
            for trial in range(3):
                out, *_ = run_check_trial(cid, cell, cfg, trial)
                assert out.status == HOLDS, (cid, cell, out)


def test_scalar_bellman_single_column():
    inst = _scalar_case({"p": 2.0, "a": 1.0, "a_j": np.array([0.6]), "b": 1.0, "b_j": np.array([0.6])})
    out = check("scalar_bellman", inst, {}, TOL)
    # equal proportional columns make the classical bound tight
    assert out.status == HOLDS
    assert abs(out.slack) <= 1e-14


def test_scalar_popoviciu_large_exponent_counterexample():
    # the same-exponent product form is provable only for p <= 2; this
    # p > 2 instance satisfies the stated hypotheses yet fails
    inst = _scalar_case({
        "p": 2.1218242917117216,
        "a": 1.5996604951402518,
        "a_j": np.array([0.7520282, 0.63385116]),
        "b": 1.200868356402317,
        "b_j": np.array([0.60137707, 0.68335775]),
    })
    out = check("scalar_popoviciu", inst, {}, TOL)
    assert out.status == VIOLATED


def test_scalar_reverse_constant_matches_unit_window_position():
    # the additive constant of the scalar reverse equals the [0, 1] limit of
    # the operator constant
    for p in (0.2, 0.5, 0.8):
        assert constants.delta_bellman(0.0, 1.0, p).value == pytest.approx(
            (1 - p) * p ** (p / (1 - p)), abs=1e-13
        )


# -- campaign-driven coverage --------------------------------------------------


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS)
def test_operator_checks_hold_on_generated_instances(check_id):
    cfg = CampaignConfig(dims=(1, 2, 4), n_values=(1, 2), trials=1)
    cells = campaign.expand_cells(check_id, cfg)
    for ci, cell in enumerate(cells[:: max(1, len(cells) // 8)]):
        out, *_ = run_check_trial(check_id, cell, cfg, 0)
        assert out.status in (HOLDS, NOT_APPLICABLE), (check_id, cell, out)
        if out.status == HOLDS:
            assert out.slack >= -TOL.margin(out.scale)


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS)
def test_dim1_consistency_with_scalar_reference(check_id):
    cfg = CampaignConfig(dims=(1,), n_values=(1, 3), trials=1)
    cells = campaign.expand_cells(check_id, cfg)
    compared = 0
    for ci, cell in enumerate(cells):
        out, inst, params, _ = run_check_trial(check_id, cell, cfg, ci)
        if out.status == NOT_APPLICABLE:
            continue
        ref = reference_slack(check_id, inst, params)
        assert out.slack == pytest.approx(ref["slack"], abs=1e-12), (check_id, cell)
        if out.chain_slacks is not None:
            for got, want in zip(out.chain_slacks, ref["chain"]):
                assert got == pytest.approx(want, abs=1e-12)
        compared += 1
    assert compared > 0


@pytest.mark.parametrize("check_id", ["jensen_ratio_reverse", "jensen_diff_reverse"])
def test_mean_constants_follow_the_id_not_its_label(check_id):
    # geom:0.1234567 prints its label as geom:0.123457, whose gamma_f and
    # beta_f on [0.5, 2] are about 5e-8 larger: looked up by label, every
    # slack would come out that much too large
    cfg = CampaignConfig(dims=(1,), intervals=((0.5, 2.0),), means=("geom:0.1234567",), maps=("id",), trials=4)
    compared = 0
    for cell in campaign.expand_cells(check_id, cfg):
        if cell["f"] != "geom:0.1234567":
            continue
        for trial in range(cfg.trials):
            out, inst, params, _ = run_check_trial(check_id, cell, cfg, trial)
            assert out.status == HOLDS
            assert out.slack == pytest.approx(reference_slack(check_id, inst, params)["slack"], abs=1e-12)
            compared += 1
    assert compared == cfg.trials


def test_outcome_replay_is_deterministic():
    cfg = CampaignConfig(dims=(3,), n_values=(2,), trials=1)
    cell = campaign.expand_cells("bellman_diff_reverse", cfg)[0]
    out1, inst1, params1, _ = run_check_trial("bellman_diff_reverse", cell, cfg, 0)
    out2 = check("bellman_diff_reverse", inst1, params1, TOL)
    assert out1.slack == out2.slack
    assert out1.status == out2.status


def test_affine_scaling_consistency_on_shared_instance():
    # with an affine weight the ratio constant is 1, so the reverse and the
    # forward mean-Bellman checks must agree on one and the same family
    from opbellman.instances import complement_sandwich_family
    from opbellman.means import arithmetic_w

    rngs = Streams(stream_states(5150, [("shared", 0)]))
    fam = take(complement_sandwich_family(3, 2, (0.5, 2.0), arithmetic_w(0.4), 1.0, rngs), 0)
    assert fam is not None
    reverse = check(
        "bellman_ratio_reverse", fam, {"f": "arith:0.4", "m": 0.5, "M": 2.0, "p": 0.5}, TOL
    )
    forward = check("bellman_mean", fam, {"f": "arith:0.4", "p": 0.5}, TOL)
    assert reverse.status == HOLDS and abs(reverse.slack) <= 1e-12
    assert forward.status == HOLDS and forward.slack >= -1e-13


# -- equality cases: the reverse constants are pinned from above ---------------


def _equality_instance(m, M, t_star):
    """A = diag(m, M) with Phi(X) = v* X v, v = (sqrt(theta), sqrt(1 - theta)),
    theta m + (1 - theta) M = t_star: Phi(g(A)) is the chord of g at t_star
    and g(Phi(A)) = g(t_star), so a sharp constant leaves zero slack."""
    theta = (M - t_star) / (M - m)
    v = np.array([[np.sqrt(theta)], [np.sqrt(1.0 - theta)]], dtype=complex)
    return InstanceFamily(
        hypothesis_tag="equality_case",
        A=[np.diag([m, M]).astype(complex)],
        weights=np.array([1.0]),
        maps=[Compression(v)],
    )


@pytest.mark.parametrize("m,M", [(0.0, 0.5), (0.1, 0.9), (0.2, 0.6), (0.5, 0.99)])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_bellman_family_reverse_is_sharp(m, M, p):
    inst = _equality_instance(m, M, constants.delta_bellman(m, M, p).argmax)
    out = check("bellman_family_reverse", inst, {"m": m, "M": M, "p": p}, TOL)
    assert out.status == HOLDS and -1e-12 <= out.slack <= 1e-12


@pytest.mark.parametrize("check_id,constant", [
    ("jensen_ratio_reverse", constants.gamma),
    ("jensen_diff_reverse", constants.beta),
    ("jensen_family_diff_reverse", constants.beta),
])
@pytest.mark.parametrize("fid", ["geom:0.3", "power:0.7", "log"])
@pytest.mark.parametrize("m,M", [(1.5, 4.0), (2.0, 9.0), (1.1, 30.0)])
def test_jensen_reverses_are_sharp(check_id, constant, fid, m, M):
    inst = _equality_instance(m, M, constant(function_from_id(fid), m, M).argmax)
    out = check(check_id, inst, {"f": fid, "m": m, "M": M}, TOL)
    assert out.status == HOLDS and -1e-12 <= out.slack <= 1e-12


@pytest.mark.parametrize("m,M", [(0.5, 2.0), (1.0, 4.0), (0.1, 30.0)])
def test_log_family_reverse_is_sharp(m, M):
    inst = _equality_instance(m, M, constants.beta_log(m, M).argmax)
    out = check("log_family_reverse", inst, {"m": m, "M": M}, TOL)
    assert out.status == HOLDS and -1e-12 <= out.slack <= 1e-12


def _mean_equality_instance(check_id, m, M, t_star):
    """A sigma_f B = f(B) when A = I.  The map reverses take A = I_2,
    B = diag(m, M) and the compression of ``_equality_instance``; the sum
    reverses take the dim-1 pairs (theta, theta m) and (1 - theta, (1 - theta) M).
    Either way the mean side is the chord of f at t_star and the other side
    is f(t_star), so a sharp constant leaves zero slack."""
    if check_id.startswith("mean_map"):
        probe = _equality_instance(m, M, t_star)
        return InstanceFamily(hypothesis_tag="equality_case", A=[identity(2)], B=probe.A, maps=probe.maps)
    theta = (M - t_star) / (M - m)
    return InstanceFamily(
        hypothesis_tag="equality_case",
        A=[_mat(theta), _mat(1.0 - theta)],
        B=[_mat(theta * m), _mat((1.0 - theta) * M)],
    )


@pytest.mark.parametrize("check_id,constant", [
    ("mean_map_ratio_reverse", constants.gamma),
    ("mean_map_diff_reverse", constants.beta),
    ("mean_sum_ratio_reverse", constants.gamma),
    ("mean_sum_diff_reverse", constants.beta),
])
@pytest.mark.parametrize("fid", ["geom:0.3", "geom:0.5", "power:0.7"])
@pytest.mark.parametrize("m,M", [(0.5, 2.0), (0.2, 5.0), (1.5, 4.0), (0.1, 30.0)])
def test_mean_reverses_are_sharp(check_id, constant, fid, m, M):
    inst = _mean_equality_instance(check_id, m, M, constant(function_from_id(fid), m, M).argmax)
    out = check(check_id, inst, {"f": fid, "m": m, "M": M}, TOL)
    assert out.status == HOLDS and -1e-12 <= out.slack <= 1e-12


# -- linear-algebra budget of the checks -----------------------------------------


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS)
def test_check_svd_budget_per_trial(check_id, monkeypatch):
    # the final comparison sizes its tolerance with two spectral norms, a
    # chain's with one call on its three terms; hypothesis guards that hold
    # take none
    budget = 1 if check_id in checks.CHAIN_IDS else 2
    svd, norm, run = np.linalg.svd, np.linalg.norm, checks.check
    state = {"in_check": False, "svds": 0}

    def counted_svd(*args, **kwargs):
        state["svds"] += state["in_check"]
        return svd(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        state["svds"] += state["in_check"] and ord == 2
        return norm(x, ord, *args, **kwargs)

    def counted_check(*args, **kwargs):
        state["in_check"] = True
        try:
            return run(*args, **kwargs)
        finally:
            state["in_check"] = False

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(checks, "check", counted_check)
    cfg = CampaignConfig(seed=11)
    counted = 0
    for cell in campaign.expand_cells(check_id, cfg):
        for trial in range(cfg.trials):
            state["svds"] = 0
            run_check_trial(check_id, cell, cfg, trial)
            assert state["svds"] <= budget, (cell, trial, state["svds"])
            counted += state["svds"]
    assert counted > 0


#: Largest eigvalsh and eigh counts of one check call on CampaignConfig(seed=11).
EIG_BUDGETS = {
    "bellman_map": (2, 2),
    "bellman_mean": (3, 5),
    "jensen_map": (2, 2),
    "mean_superadditive": (2, 4),
    "mean_remainder": (3, 6),
    "mean_power_compose": (4, 5),
    "jensen_ratio_reverse": (2, 2),
    "mean_map_ratio_reverse": (4, 4),
    "mean_sum_ratio_reverse": (2, 4),
    "bellman_ratio_reverse": (5, 6),
    "compression_ratio_reverse": (3, 2),
    "mean_power_ratio_reverse": (4, 5),
    "bellman_arith_reverse": (4, 3),
    "jensen_diff_reverse": (2, 2),
    "mean_map_diff_reverse": (4, 4),
    "mean_sum_diff_reverse": (2, 4),
    "bellman_diff_reverse": (4, 6),
    "aczel_reverse": (4, 6),
    "jensen_family_diff_reverse": (2, 2),
    "bellman_family_reverse": (2, 2),
    "log_family_reverse": (2, 2),
    "bellman_chain_split": (4, 8),
    "bellman_chain_interp": (4, 9),
}


def _raised(guard, *args):
    """(guard name, failing trials) of the first guard ``guard`` fails, or None."""
    try:
        guard(*args)
    except checks._GuardFail as g:
        return g.guard, np.asarray(g.where).tolist()
    return None


def _window_on_broadcast_operands(mats, m, M, tol, name="spectrum_window"):
    """The window guard as one Loewner comparison of m I, M I broadcast to the members."""
    low, high = (np.broadcast_to(instances._trial_factor(x) * identity(mats.shape[-1]), mats.shape) for x in (m, M))
    checks._require_each_member(np.stack([low, mats]), np.stack([mats, high]), tol, [f"{name}_below_m", f"{name}_above_M"])


def test_window_guard_equals_the_comparison_on_broadcast_operands():
    # the window guard forms the gaps A_j - m I and M I - A_j once and sizes
    # the tolerance only where a slack is negative: members just inside the
    # margin below m or above M hold, members past it fail, and each stack
    # and each trial alone get the verdicts of the broadcast comparison
    rng = np.random.default_rng(32)
    dim, n, trials = 3, 2, 12
    m, M = np.linspace(0.5, 0.8, trials), np.linspace(2.0, 2.6, trials)
    lam = m[:, None] + rng.uniform(0.3, 0.7, (n, trials, dim)) * (M - m)[:, None]
    edges = {1: m - 1e-12, 2: M + 1e-12, 5: m - 1e-6, 8: M + 1e-6}
    for t, value in edges.items():
        lam[t % n, t, t % dim] = value[t]
    mats = hermitize(from_spectrum(instances.haar_unitary(dim, [rng], n * trials).reshape(n, trials, dim, dim), lam))
    tol = Tolerance()
    got = _raised(checks._guard_window, mats, m, M, tol)
    assert got == _raised(_window_on_broadcast_operands, mats, m, M, tol)
    assert got[0] == "spectrum_window_below_m" and np.flatnonzero(got[1]).tolist() == [5]
    verdicts = [_raised(checks._guard_window, mats[:, t], m[t], M[t], tol) for t in range(trials)]
    assert verdicts == [_raised(_window_on_broadcast_operands, mats[:, t], m[t], M[t], tol) for t in range(trials)]
    assert [t for t, v in enumerate(verdicts) if v] == [5, 8]
    assert checks.loewner_leq(m[1] * identity(dim), mats[1, 1]).slack < 0.0


def test_eig_budgets_cover_every_operator_check():
    assert set(EIG_BUDGETS) == set(checks.OPERATOR_IDS)


@pytest.mark.parametrize("check_id", checks.OPERATOR_IDS)
def test_check_eig_budget_per_trial(check_id, monkeypatch):
    # pinned at today's maxima, so that a change adding eigensolver calls
    # to a check shows here; a family's member steps are one call each, so a
    # per-member loop that comes back shows too
    kinds = ("eigvalsh", "eigh")
    budget = dict(zip(kinds, EIG_BUDGETS[check_id]))
    run = checks.check
    state = {"in_check": False, **dict.fromkeys(kinds, 0)}

    def counted(kind, solver):
        def call(*args, **kwargs):
            state[kind] += state["in_check"]
            return solver(*args, **kwargs)

        return call

    def counted_check(*args, **kwargs):
        state["in_check"] = True
        try:
            return run(*args, **kwargs)
        finally:
            state["in_check"] = False

    for kind in kinds:
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    monkeypatch.setattr(checks, "check", counted_check)
    cfg = CampaignConfig(seed=11)
    total = dict.fromkeys(kinds, 0)
    for cell in campaign.expand_cells(check_id, cfg):
        for trial in range(cfg.trials):
            state.update(dict.fromkeys(kinds, 0))
            run_check_trial(check_id, cell, cfg, trial)
            for kind in kinds:
                assert state[kind] <= budget[kind], (kind, cell, trial, state[kind])
                total[kind] += state[kind]
    assert all(total.values()), total


# -- float64 bounds of the scalar suite -------------------------------------------


#: Hand-built scalar trials, with the guard that the float64 bound names, or
#: None where the trial sits on a guard's boundary.
GUARD_CASES = [
    ("scalar_bellman", {"p": 0.5, "a": 1.0, "a_j": [0.5], "b": 1.0, "b_j": [0.5]}, "exponent_below_one"),
    ("scalar_bellman", {"p": 2.0, "a": 1.0, "a_j": [1.5], "b": 1.0, "b_j": [0.5]}, "column_hypothesis_failed"),
    ("scalar_bellman", {"p": 1.0, "a": 1.0, "a_j": [1.0], "b": 1.0, "b_j": [0.5]}, None),
    ("scalar_aczel", {"p": 2.0, "a": 1.0, "a_j": [1.5], "b": 1.0, "b_j": [1.5]}, "hypothesis_failed"),
    ("scalar_popoviciu", {"p": 1.5, "a": 1.0, "a_j": [0.5], "b": 0.1, "b_j": [1.0]}, "cross_term_negative"),
    ("scalar_bellman_weighted", {"a": [[2.0]], "weights": [1.0], "p": 0.5}, "column_hypothesis_failed"),
    ("scalar_bellman_columns", {"a": [[0.5]], "caps": [0.25], "p": 0.5}, "column_hypothesis_failed"),
    ("scalar_bellman_reverse", {"a": [[1.0]], "weights": [1.0], "p": 0.5}, None),
    ("scalar_bellman_reverse", {"a": [[2.0]], "weights": [1.0], "p": 0.5}, "column_hypothesis_failed"),
]


def _scalar_case(inst):
    """A hand-built scalar trial as the one-trial instance a builder's stack gives."""
    aux = {k: v if np.isscalar(v) else np.asarray(v, dtype=float) for k, v in inst.items()}
    return InstanceFamily(hypothesis_tag="scalar", aux=aux)


def _scalar_stack(insts):
    """One-trial scalar instances as one stack, each matrix zero-padded to
    the largest row count, as ``instances.scalar_instance`` pads a stack."""
    aux = {}
    for key in insts[0].aux:
        values = [np.asarray(inst.aux[key], dtype=float) for inst in insts]
        if values[0].ndim < 2:
            aux[key] = np.stack(values)
            continue
        aux[key] = np.zeros((len(values), max(len(v) for v in values), values[0].shape[1]))
        for t, v in enumerate(values):
            aux[key][t, : len(v)] = v
    return InstanceFamily(hypothesis_tag="scalar", aux=aux)


# Reference: the per-trial 30-digit checkers of the scalar suite, one list of
# mpmath terms per sum, as they were before the checks took stacked cells.


class _RefGuard(Exception):
    pass


def _ref_require(cond, guard):
    if not cond:
        raise _RefGuard(guard)


def _reference_bellman(inst):
    p = inst["p"]
    _ref_require(p >= 1.0, "exponent_below_one")
    a, b = mpmath.mpf(inst["a"]), mpmath.mpf(inst["b"])
    aj = [mpmath.mpf(v) for v in inst["a_j"]]
    bj = [mpmath.mpf(v) for v in inst["b_j"]]
    ra = a**p - mpmath.fsum(v**p for v in aj)
    rb = b**p - mpmath.fsum(v**p for v in bj)
    _ref_require(ra >= 0 and rb >= 0, "column_hypothesis_failed")
    rc = (a + b) ** p - mpmath.fsum((x + y) ** p for x, y in zip(aj, bj))
    _ref_require(rc >= 0, "joint_base_negative")
    dominated = ra ** (1 / mpmath.mpf(p)) + rb ** (1 / mpmath.mpf(p))
    dominant = rc ** (1 / mpmath.mpf(p))
    return dominant, dominated


def _reference_aczel(inst):
    a, b = mpmath.mpf(inst["a"]), mpmath.mpf(inst["b"])
    aj = [mpmath.mpf(v) for v in inst["a_j"]]
    bj = [mpmath.mpf(v) for v in inst["b_j"]]
    ra = a**2 - mpmath.fsum(v**2 for v in aj)
    rb = b**2 - mpmath.fsum(v**2 for v in bj)
    _ref_require(ra > 0 or rb > 0, "hypothesis_failed")
    dominated = ra * rb
    dominant = (a * b - mpmath.fsum(x * y for x, y in zip(aj, bj))) ** 2
    return dominant, dominated


def _reference_popoviciu(inst):
    p = inst["p"]
    _ref_require(p >= 1.0, "exponent_below_one")
    a, b = mpmath.mpf(inst["a"]), mpmath.mpf(inst["b"])
    aj = [mpmath.mpf(v) for v in inst["a_j"]]
    bj = [mpmath.mpf(v) for v in inst["b_j"]]
    ra = a**p - mpmath.fsum(v**p for v in aj)
    rb = b**p - mpmath.fsum(v**p for v in bj)
    _ref_require(ra > 0 or rb > 0, "hypothesis_failed")
    cross = a * b - mpmath.fsum(x * y for x, y in zip(aj, bj))
    _ref_require(cross >= 0, "cross_term_negative")
    return cross**p, ra * rb


def _reference_bellman_weighted(inst):
    p = inst["p"]
    q = 1 / mpmath.mpf(p)
    a = [[mpmath.mpf(v) for v in row] for row in np.asarray(inst["a"])]
    w = [mpmath.mpf(v) for v in inst["weights"]]
    rows, cols = len(a), len(a[0])
    col_caps = [mpmath.fsum(a[i][j] ** q for i in range(rows)) for j in range(cols)]
    _ref_require(all(c <= 1 for c in col_caps), "column_hypothesis_failed")
    dominated = mpmath.fsum(w[j] * (1 - col_caps[j]) ** mpmath.mpf(p) for j in range(cols))
    mixed = [mpmath.fsum(w[j] * a[i][j] for j in range(cols)) for i in range(rows)]
    dominant = (1 - mpmath.fsum(u**q for u in mixed)) ** mpmath.mpf(p)
    return dominant, dominated


def _reference_bellman_columns(inst):
    p = inst["p"]
    q = 1 / mpmath.mpf(p)
    a = [[mpmath.mpf(v) for v in row] for row in np.asarray(inst["a"])]
    caps = [mpmath.mpf(v) for v in inst["caps"]]
    rows, cols = len(a), len(a[0])
    col_sums = [mpmath.fsum(a[i][j] ** q for i in range(rows)) for j in range(cols)]
    _ref_require(all(col_sums[j] <= caps[j] ** q for j in range(cols)), "column_hypothesis_failed")
    dominated = mpmath.fsum((caps[j] ** q - col_sums[j]) ** mpmath.mpf(p) for j in range(cols))
    row_sums = [mpmath.fsum(a[i][j] for j in range(cols)) for i in range(rows)]
    base = mpmath.fsum(caps) ** q - mpmath.fsum(u**q for u in row_sums)
    _ref_require(base >= 0, "joint_base_negative")
    dominant = base ** mpmath.mpf(p)
    return dominant, dominated


def _reference_bellman_reverse(inst):
    p = inst["p"]
    q = 1 / mpmath.mpf(p)
    pp = mpmath.mpf(p)
    a = [[mpmath.mpf(v) for v in row] for row in np.asarray(inst["a"])]
    w = [mpmath.mpf(v) for v in inst["weights"]]
    rows, cols = len(a), len(a[0])
    col_caps = [mpmath.fsum(a[i][j] ** q for i in range(rows)) for j in range(cols)]
    _ref_require(all(c <= 1 for c in col_caps), "column_hypothesis_failed")
    const = (1 - pp) * pp ** (pp / (1 - pp))
    dominant = const + mpmath.fsum(w[j] * (1 - col_caps[j]) ** pp for j in range(cols))
    dominated = (1 - mpmath.fsum(w[j] * col_caps[j] for j in range(cols))) ** pp
    return dominant, dominated


SCALAR_REFERENCES = {
    "scalar_bellman": _reference_bellman,
    "scalar_aczel": _reference_aczel,
    "scalar_popoviciu": _reference_popoviciu,
    "scalar_bellman_weighted": _reference_bellman_weighted,
    "scalar_bellman_columns": _reference_bellman_columns,
    "scalar_bellman_reverse": _reference_bellman_reverse,
}


def _reference_outcome(check_id, inst, tol):
    try:
        with mpmath.workdps(checks.SCALAR_DPS):
            dominant, dominated = SCALAR_REFERENCES[check_id](inst)
            slack = float(dominant - dominated)
            scale = max(abs(float(dominant)), abs(float(dominated)))
    except _RefGuard as g:
        return CheckOutcome(check_id, NOT_APPLICABLE, math.nan, math.nan, witness={"guard": str(g)})
    return CheckOutcome(check_id, HOLDS if slack >= -tol.margin(scale) else VIOLATED, slack, scale)


def _assert_runner_matches_reference(check_id, stack, insts, tol):
    """The runner on ``stack`` gives each of its trials ``insts`` (each one
    trial's instance) the outcome of the per-trial reference."""
    got = checks.REGISTRY[check_id].runner(stack, [{}] * len(insts), tol)
    want = [_reference_outcome(check_id, inst.aux, tol) for inst in insts]
    assert list(map(repr, got)) == list(map(repr, want))
    return got


@pytest.mark.parametrize("check_id", checks.SCALAR_IDS)
def test_scalar_runner_on_stacked_cells_matches_the_per_trial_reference(check_id):
    # the acceptance n grid plus n = 5, rows of 1-3 zero-padded in the stack,
    # and exponents across [P_MIN, 1 - P_MIN]
    cfg = CampaignConfig(
        trials=12,
        n_values=(1, 2, 3, 5),
        p_grid=(constants.P_MIN, 0.005, 0.25, 0.5, 0.75, 0.995),
        seed=20260809,
        tolerance=Tolerance(atol=1e-10, rtol=1e-10),
    )
    compared = 0
    for cell in campaign.expand_cells(check_id, cfg):
        build = campaign._build_trials(check_id, [(cell, t) for t in range(cfg.trials)], cfg, _cell_states(check_id, cell, cfg))
        built = [build.inst(i) for i in range(len(build.pairs)) if build.outcome(i) is None]
        if built:
            _assert_runner_matches_reference(check_id, build.stack, built, cfg.tolerance)
        compared += len(built)
    assert compared >= 4 * cfg.trials


@pytest.mark.parametrize("check_id", checks.SCALAR_IDS)
def test_scalar_runner_settles_guard_cases_next_to_passing_trials(check_id):
    # a guard-failing trial's sides turn complex at 30 digits; its neighbours
    # in the stack must still come out real and exact
    cfg = CampaignConfig(trials=4, n_values=(1,), seed=7)
    cell = campaign.expand_cells(check_id, cfg)[0]
    build = campaign._build_trials(check_id, [(cell, t) for t in range(cfg.trials)], cfg, _cell_states(check_id, cell, cfg))
    built = [build.inst(i) for i in range(len(build.pairs)) if build.outcome(i) is None]
    cases = [_scalar_case(inst) for cid, inst, _ in GUARD_CASES if cid == check_id]
    insts = built[:2] + cases + built[2:]
    outcomes = _assert_runner_matches_reference(check_id, _scalar_stack(insts), insts, TOL)
    assert [o.status for o in outcomes].count(HOLDS) >= len(built) == cfg.trials
    assert any(o.status == NOT_APPLICABLE for o in outcomes)



@pytest.mark.parametrize("check_id", checks.SCALAR_IDS)
def test_scalar_bounds_agree_with_the_mpmath_checker(check_id):
    # acceptance n and p grids, plus exponents near the ends of [P_MIN, 1 - P_MIN]
    cfg = CampaignConfig(
        trials=40,
        n_values=(1, 2, 3),
        p_grid=(0.25, 0.5, 0.75, 0.005, 0.995, constants.P_MIN),
        seed=20260809,
        tolerance=Tolerance(atol=1e-10, rtol=1e-10),
    )
    decided = 0
    for cell in campaign.expand_cells(check_id, cfg):
        build = campaign._build_trials(check_id, [(cell, t) for t in range(cfg.trials)], cfg, _cell_states(check_id, cell, cfg))
        campaign._filter_trials(build)
        for trial in range(cfg.trials):
            exact, *_ = run_check_trial(check_id, cell, cfg, trial)
            outcome, slack, normalized = build.outcome(trial), build.slack[trial], build.normalized[trial]
            if outcome is not None:
                assert (outcome.status, outcome.witness) == (exact.status, exact.witness), (cell, trial)
            elif not np.isnan(slack[0]):
                decided += 1
                assert exact.status == HOLDS, (cell, trial, exact)
                assert slack[0] <= exact.slack <= slack[1], (cell, trial, slack, exact)
                ratio = exact.slack / exact.scale
                assert normalized[0] <= ratio <= normalized[1], (cell, trial, normalized, ratio)
    assert decided >= cfg.trials


@pytest.mark.parametrize("check_id,inst,verdict", GUARD_CASES)
def test_scalar_bounds_decide_a_guard_only_away_from_its_boundary(check_id, inst, verdict):
    # a guard exactly on its boundary (a_j = a at p = 1, a column sum of 1)
    # is left to the mpmath checker
    inst = _scalar_case(inst)
    bounds = checks.REGISTRY[check_id].bounds(inst)
    # undecided, or failing a guard: no enclosure either way
    assert (bounds.guard.tolist(), np.isnan(bounds.slack).all()) == ([verdict], True)
    if verdict is not None:
        assert check(check_id, inst, {}, TOL).witness == {"guard": verdict}


def _per_trial_filter(check_id, stack, tol):
    """The float64 filter as it ran trial by trial before it took arrays:
    one (guard, slack, scale, normalized) per trial of a scalar stack, the
    enclosures NaN where the trial is not found to hold."""
    fn = checks.REGISTRY[check_id].runner.__wrapped__
    with np.errstate(all="ignore"):
        guards, dominant, dominated = fn(checks._scalar_arrays(stack), checks._Interval)
        slack = dominant - dominated
        slack_lo, slack_hi = slack.lo - checks.DECIDE_MARGIN, slack.hi + checks.DECIDE_MARGIN
        scale_lo = np.maximum(checks._abs_lo(dominant), checks._abs_lo(dominated))
        scale_hi = np.maximum(
            np.maximum(np.abs(dominant.lo), np.abs(dominant.hi)),
            np.maximum(np.abs(dominated.lo), np.abs(dominated.hi)),
        )
        verdicts = [None] * len(slack_lo)
        passed = np.ones(len(slack_lo), dtype=bool)
        for state, name in guards:
            for t in np.flatnonzero(passed & (state < 0)):
                verdicts[t] = name
            passed &= state > 0
        passed &= np.isfinite(slack_lo) & np.isfinite(slack_hi) & np.isfinite(scale_lo) & np.isfinite(scale_hi)
        for t in np.flatnonzero(passed):
            verdicts[t] = (float(slack_lo[t]), float(slack_hi[t]), float(scale_lo[t]), float(scale_hi[t]))
    none = (math.nan, math.nan)
    out = []
    for b in verdicts:
        if isinstance(b, str):
            out.append((b, none, none, none))
        elif b is not None and b[2] > 0 and b[0] >= -tol.margin(b[2]):
            ratios = [s / c for s in b[:2] for c in b[2:]]
            out.append((None, b[:2], b[2:], (min(ratios), max(ratios))))
        else:
            out.append((None, none, none, none))
    return out


def _assert_filter_matches_per_trial(check_id, build):
    """The array filter on a build gives each built trial the per-trial
    filter's guard and, to the last bit, its enclosures; returns how many
    it encloses."""
    want = _per_trial_filter(check_id, build.stack, build.cfg.tolerance)
    campaign._filter_trials(build)
    built = np.flatnonzero(build.row >= 0)
    assert build.guard[built].tolist() == [w[0] for w in want]
    got = np.stack([build.slack, build.scale, build.normalized], axis=1)[built]
    assert got.tobytes() == np.array([w[1:] for w in want], dtype=float).tobytes()
    return sum(not math.isnan(w[1][0]) for w in want)


@pytest.mark.parametrize("check_id", checks.SCALAR_IDS)
def test_array_filter_equals_the_per_trial_filter_to_the_last_bit(check_id):
    # the acceptance n and p grids and the edge exponents, then the guard
    # cases stacked among built trials; NaN equals NaN, and -0.0 is not 0.0
    cfg = CampaignConfig(
        trials=40,
        n_values=(1, 2, 3),
        p_grid=(0.25, 0.5, 0.75, constants.P_MIN, 0.005, 0.995, 1.0 - constants.P_MIN),
        seed=20260809,
        tolerance=TOL,
    )
    enclosed = 0
    for cell in campaign.expand_cells(check_id, cfg):
        build = campaign._build_trials(check_id, [(cell, t) for t in range(cfg.trials)], cfg, _cell_states(check_id, cell, cfg))
        if build.stack is not None:
            enclosed += _assert_filter_matches_per_trial(check_id, build)
    assert enclosed >= cfg.trials
    cell = campaign.expand_cells(check_id, dataclasses.replace(cfg, n_values=(1,)))[0]
    build = campaign._build_trials(check_id, [(cell, t) for t in range(4)], cfg, _cell_states(check_id, cell, cfg))
    insts = [build.inst(i) for i in range(4)]
    verdicts = [v for cid, _, v in GUARD_CASES if cid == check_id]
    insts[2:2] = [_scalar_case(inst) for cid, inst, _ in GUARD_CASES if cid == check_id]
    stacked = campaign._Build(check_id, cfg, [(cell, t) for t in range(len(insts))])
    stacked.stack, stacked.row = _scalar_stack(insts), np.arange(len(insts))
    _assert_filter_matches_per_trial(check_id, stacked)
    assert stacked.guard[2 : 2 + len(verdicts)].tolist() == verdicts


# -- stacked cells ------------------------------------------------------------------


def _family(tag, a, b=None, **kw):
    b = None if b is None else [_mat(x) for x in b]
    return InstanceFamily(hypothesis_tag=tag, A=[_mat(x) for x in a], B=b, **kw)


def _stacked(insts):
    """Hand-built trials as one family on a leading trial axis, as a builder
    returns a cell: a compression is built again from its stacked isometries,
    and a map without arrays is shared."""

    def members(values):
        return None if values[0] is None else [np.stack(ms) for ms in zip(*values)]

    def stacked_map(maps):
        return Compression(np.stack([m.v for m in maps])) if isinstance(maps[0], Compression) else maps[0]

    first = insts[0]
    return InstanceFamily(
        hypothesis_tag=first.hypothesis_tag,
        A=members([i.A for i in insts]),
        B=members([i.B for i in insts]),
        weights=None if first.weights is None else np.stack([i.weights for i in insts]),
        maps=None if first.maps is None else [stacked_map(ms) for ms in zip(*(i.maps for i in insts))],
        aux={k: np.stack([i.aux[k] for i in insts]) for k in first.aux},
    )


def _nan_pair():
    # NaN off the diagonal: eigvalsh gives NaN eigenvalues, and an SVD raises
    x = np.diag([1.0, 1.0]).astype(complex)
    x[0, 1] = x[1, 0] = np.nan
    return x


def _mixed_guard_cells():
    """(check, instances, params, guards): one cell per case, trials failing
    different guards at different points of the checker between trials that hold."""
    rng = np.random.default_rng(31)
    pd = lambda: random_pd(2, [rng], 0.5, 1.5)[0, 0]  # noqa: E731
    window = {"m": 0.5, "M": 2.0}
    x, y = (z[0, 0] for z in random_sandwich_family(2, 1, (0.5, 1.5), 0.5, 2.0, [rng]))
    yield (
        "jensen_map",  # window guard, below then above
        [
            _family("spectrum_window", [np.diag([v, 1.0])], maps=[IdentityMap(2)])
            for v in (1.2, 0.3, 1.5, 2.5)
        ],
        [dict(window, f="geom:0.5")] * 4,
        [None, "spectrum_window_below_m", None, "spectrum_window_above_M"],
    )
    yield (
        "mean_superadditive",  # a PSD guard, then mean_conditioning raised inside _mean_g
        [
            _family("pd_family", [pd(), pd()], [pd(), pd()]),
            _family("pd_family", [pd(), np.diag([1e-12, 1.0])], [pd(), pd()]),
            _family("pd_family", [pd(), np.diag([-0.5, 1.0])], [pd(), pd()]),
            _family("pd_family", [pd(), pd()], [pd(), pd()]),
        ],
        [{"f": "geom:0.5"}] * 4,
        [None, "mean_conditioning", "member_not_psd", None],
    )
    yield (
        "compression_ratio_reverse",  # the contraction guard, the window, then _fcalc_g's domain guard
        [
            _family("contraction_window", [np.diag([1.5, 2.5])], aux={"C": 0.5 * identity(2)}),
            _family("contraction_window", [np.diag([1.5, 2.5])], aux={"C": np.diag([0.0, 0.5])}),
            _family("contraction_window", [np.diag([1.5, 2.5])], aux={"C": 2.0 * identity(2)}),
            _family("contraction_window", [np.diag([1.0, 2.5])], aux={"C": 0.5 * identity(2)}),
        ],
        [{"f": "log", "m": 1.2, "M": 3.0}] * 4,
        [None, "compressed_spectrum_outside_domain", "not_a_contraction", "spectrum_window_below_m"],
    )
    yield (
        "bellman_map",  # _power_guarded's PSD guard on an unnormalized weight
        [
            _family("spectrum_window_family", [a * np.eye(2)], weights=np.array([w]), maps=[IdentityMap(2)])
            for a, w in ((0.8, 1.0), (0.8, 2.0), (0.8, 1.0), (1.5, 1.0))
        ],
        [{"p": 0.5}] * 4,
        [None, "map_base_not_psd", None, "contraction_window_above_M"],
    )
    yield (
        "mean_map_ratio_reverse",  # _guard_pd_floor, on a tiny eigenvalue and on NaN operands
        [
            _family("sandwich_pair", [x], [y], maps=[Compression(np.eye(2)[:, :1])]),
            _family("sandwich_pair", [np.diag([1e-9, 1.0])], [y], maps=[Compression(np.eye(2)[:, :1])]),
            _family("sandwich_pair", [_nan_pair()], [_nan_pair()], maps=[Compression(np.eye(2)[:, :1])]),
            _family("sandwich_pair", [x], [4.0 * x], maps=[Compression(np.eye(2)[:, :1])]),
        ],
        [dict(window, f="geom:0.5")] * 4,
        [None, "first_operand_not_pd", "first_operand_not_pd", "pair_sandwich_upper"],
    )
    a = [0.2 * identity(2), 0.3 * identity(2)]
    yield (
        "bellman_chain_interp",  # interpolants with NaN operands, then the subidentity guards
        [
            _family("subidentity_pair_family", a, a),
            _family("subidentity_pair_family", [_nan_pair(), _nan_pair()], a),
            _family("subidentity_pair_family", a, [0.6 * identity(2), 0.6 * identity(2)]),
            _family("subidentity_pair_family", a, a),
        ],
        [
            {"f": "geom:0.5", "p": 0.5, "t": [0.3, 0.6]},
            {"f": "geom:0.5", "p": 0.5, "t": [0.3, np.nan]},
            {"f": "geom:0.5", "p": 0.5, "t": [0.5, 0.5]},
            {"f": "geom:0.5", "p": 0.5, "t": [0.9, 0.1]},
        ],
        [None, "interpolants_outside_unit", "B_sum_exceeds_identity", None],
    )


@pytest.mark.parametrize("case", list(_mixed_guard_cells()), ids=lambda case: case[0])
def test_stacked_cell_settles_each_trial_as_alone(case):
    check_id, insts, params, guards = case
    stacked = checks.check_cell(check_id, _stacked(insts), params, TOL)
    alone = [check(check_id, inst, p, TOL) for inst, p in zip(insts, params)]
    assert [o.witness and o.witness["guard"] for o in alone] == guards
    # repr compares NaN slacks of not-applicable trials, and every float bit for bit
    assert [repr(o) for o in stacked] == [repr(o) for o in alone]


def _member_stack(a, b=None, **kw):
    """Two hand-built trials of three members, ``a[t][j]`` and ``b[t][j]``
    the diagonals of trial t's member j, on the member axis then the trial axis."""

    def members(values):
        return None if values is None else [np.stack([np.diag(trial[j]).astype(complex) for trial in values]) for j in range(3)]

    return InstanceFamily(hypothesis_tag="hand_built", A=members(a), B=members(b), **kw)


def _member_guard_cases():
    """(check, two-trial family of three members, params, each trial's guard):
    trial 0 fails member 1's second guard and member 2's first, trial 1 only
    member 3's first; a loop over the members stops at member 1 for trial 0."""
    ok = [1.0, 1.5]
    yield (
        "jensen_family_diff_reverse",
        _member_stack(
            [[[1.0, 2.5], [0.3, 1.0], ok], [ok, ok, [0.2, 1.0]]],
            weights=np.full((2, 3), 1.0 / 3.0),
            maps=[IdentityMap(2)] * 3,
        ),
        {"f": "geom:0.5", "m": 0.5, "M": 2.0},
        ["spectrum_window_above_M", "spectrum_window_below_m"],
    )
    yield (
        "mean_sum_ratio_reverse",
        _member_stack([[ok, ok, ok], [ok, ok, ok]], [[[3.0, 4.5], [0.2, 0.3], ok], [ok, ok, [0.1, 0.15]]]),
        {"f": "geom:0.5", "m": 0.5, "M": 2.0},
        ["pair_sandwich_upper", "pair_sandwich_lower"],
    )


@pytest.mark.parametrize("case", list(_member_guard_cases()), ids=lambda case: case[0])
def test_member_stack_settles_each_trial_at_its_first_failing_guard(case):
    # one comparison on the stack of every member decides a guard, and each
    # trial reports the first guard a loop over its members fails; one
    # trial's family of (n, d, d) operands, as a witness replays it, agrees
    check_id, stack, params, guards = case
    stacked = checks.check_cell(check_id, stack, [params] * 2, TOL)
    assert [o.witness["guard"] for o in stacked] == guards
    for t, outcome in enumerate(stacked):
        alone = take(stack, t)
        assert alone.A.shape == (3, 2, 2)
        assert repr(check(check_id, alone, params, TOL)) == repr(outcome)


def test_stack_of_nan_operands_raises_as_alone():
    # a trial whose NaN operands reach a spectral norm fails alone and in a stack
    insts = [_family("pd_family", [x], [x]) for x in (np.eye(2), _nan_pair())]
    with pytest.raises(np.linalg.LinAlgError):
        check("mean_superadditive", insts[1], {"f": "geom:0.5"}, TOL)
    with pytest.raises(np.linalg.LinAlgError):
        checks.check_cell("mean_superadditive", _stacked(insts), [{"f": "geom:0.5"}] * 2, TOL)
