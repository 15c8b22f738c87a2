import numpy as np
import pytest

from opbellman import constants, instances
from opbellman.errors import HypothesisError, ParameterError
from opbellman.instances import (
    BASE_CAP,
    DEFAULT_MARGIN,
    InstanceFamily,
    _scale_limit,
    _verify_complement_family,
    complement_sandwich_family,
    haar_unitary,
    random_contraction,
    random_pd,
    random_sandwich_pair,
    random_spectrum_matrix,
    random_subidentity_family,
    random_weights,
    scalar_instance,
    subrng,
)
from opbellman.means import arithmetic_w, geometric_w, mean
from opbellman.spectral import hermitize, identity, loewner_leq


def is_contraction(a) -> bool:
    """A*A <= I in the Loewner order, at the default tolerance."""
    return loewner_leq(hermitize(a.conj().T @ a), identity(a.shape[0])).holds


def test_haar_unitary_properties():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5):
        u = haar_unitary(dim, rng)
        assert np.linalg.norm(u.conj().T @ u - identity(dim), 2) <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12
    scalar = haar_unitary(1, rng)
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-14


def test_random_spectrum_matrix_bounds():
    rng = np.random.default_rng(1)
    h = random_spectrum_matrix(6, (0.2, 1.7), rng)
    lam = np.linalg.eigvalsh(h)
    assert lam.min() >= 0.2 - 1e-12 and lam.max() <= 1.7 + 1e-12


def test_random_spectrum_degenerate_interval_gives_scaled_identity():
    rng = np.random.default_rng(2)
    h = random_spectrum_matrix(3, (0.7, 0.7), rng)
    assert np.allclose(h, 0.7 * identity(3), atol=1e-12)


def test_random_contraction_kinds():
    rng = np.random.default_rng(3)
    for kind in ("ginibre", "unitary"):
        for _ in range(5):
            c = random_contraction(4, rng, kind)
            assert is_contraction(c)


def test_sandwich_pair_verified():
    rng = np.random.default_rng(4)
    for dim in (1, 4):
        a = random_pd(dim, rng)
        a, b = random_sandwich_pair(a, 0.5, 2.0, rng)
        assert loewner_leq(0.5 * a, b).slack >= 0
        assert loewner_leq(b, 2.0 * a).slack >= 0


def test_sandwich_pair_rejects_a_failed_construction(monkeypatch):
    # an inner spectrum outside [m, M] must not be released
    monkeypatch.setattr(instances, "random_spectrum_matrix", lambda dim, interval, rng: 2.5 * identity(dim))
    with pytest.raises(HypothesisError):
        random_sandwich_pair(identity(2), 0.5, 2.0, np.random.default_rng(0))


def test_sandwich_scalar_case():
    rng = np.random.default_rng(5)
    a = np.array([[1.7]], dtype=complex)
    _, b = random_sandwich_pair(a, 0.5, 2.0, rng)
    t = (b[0, 0] / a[0, 0]).real
    assert 0.5 <= t <= 2.0


def test_subidentity_family():
    rng = np.random.default_rng(6)
    fam = random_subidentity_family(1, 3, rng, 0.5)
    assert np.linalg.norm(fam[0], 2) <= 0.5 + 1e-12
    fam = random_subidentity_family(4, 3, rng, 0.8)
    total = sum(fam)
    assert np.linalg.eigvalsh(total).max() <= 0.8 + 1e-12
    for a in fam:
        assert np.linalg.eigvalsh(a).min() >= -1e-14


def test_random_weights():
    rng = np.random.default_rng(7)
    assert random_weights(1, rng)[0] == pytest.approx(1.0, abs=1e-14)
    w = random_weights(5, rng)
    assert abs(w.sum() - 1.0) <= 1e-14
    assert w.min() > 0


def test_complement_family_scalar_affine_accepted():
    rng = subrng(11, "gen", 0)
    fam = complement_sandwich_family(1, 1, (0.5, 2.0), arithmetic_w(0.5), 1.0, rng)
    assert 0.0 < fam.meta["scale"] <= 1.0


def test_complement_family_hypotheses_reverified():
    rng = subrng(12, "gen", 1)
    fam = complement_sandwich_family(3, 2, (0.5, 2.0), geometric_w(0.5), 1.1, rng)
    eye = identity(3)
    for a, b in zip(fam.A, fam.B):
        assert loewner_leq(0.5 * a, b).slack >= DEFAULT_MARGIN
        assert loewner_leq(b, 2.0 * a).slack >= DEFAULT_MARGIN
    comp_a = eye - 1.1 * sum(fam.A)
    comp_b = eye - 1.1 * sum(fam.B)
    assert loewner_leq(0.5 * comp_a, comp_b).slack >= DEFAULT_MARGIN
    assert loewner_leq(comp_b, 2.0 * comp_a).slack >= DEFAULT_MARGIN


def test_complement_family_requires_straddling_interval():
    with pytest.raises(ParameterError):
        complement_sandwich_family(2, 1, (0.2, 0.8), arithmetic_w(0.5), 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("dim,n,interval", [(0, 1, (0.5, 2.0)), (2, 0, (0.5, 2.0)), (2, 1, (2.0, 0.5))])
def test_complement_family_input_checks(dim, n, interval):
    with pytest.raises(ParameterError):
        complement_sandwich_family(dim, n, interval, arithmetic_w(0.5), 1.0, np.random.default_rng(0))


# -- complement-sandwich scale: closed form against the former bisection ----


def _feasible(s, g, sum_a, sum_b, sum_means, m, M, margin):
    """The five complement-sandwich constraints on the family scaled by s."""
    eye = identity(sum_a.shape[0])
    comp_a = eye - g * s * sum_a
    comp_b = eye - g * s * sum_b
    return [
        float(np.linalg.eigvalsh(hermitize(comp_a))[0]) >= margin,
        float(np.linalg.eigvalsh(hermitize(comp_b))[0]) >= margin,
        float(np.linalg.eigvalsh(hermitize(comp_b - m * comp_a))[0]) >= margin,
        float(np.linalg.eigvalsh(hermitize(M * comp_a - comp_b))[0]) >= margin,
        g * s * float(np.linalg.eigvalsh(sum_means)[-1]) <= BASE_CAP,
    ]


def _draw_sums(shape, f, rng):
    """The draws of one complement_sandwich_family call, in its order;
    ``shape`` is its (dim, n, interval)."""
    dim, n, (m, M) = shape
    pairs = [random_sandwich_pair(random_pd(dim, rng, 0.5, 1.5), m, M, rng) for _ in range(n)]
    return pairs, sum(p[0] for p in pairs), sum(p[1] for p in pairs), sum(mean(a, b, f) for a, b in pairs)


def _bisected_family_scale(shape, f, g, rng):
    """The scale the 60-step bisection the closed form replaced gives the
    family drawn from ``rng``, or None where it finds none."""
    m, M = shape[2]
    pairs, sum_a, sum_b, sum_means = _draw_sums(shape, f, rng)

    def feasible(s):
        return all(_feasible(s, g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN))

    if feasible(1.0):
        s = 1.0
    else:
        lo, hi = 1e-8, 1.0
        if not feasible(lo):
            return None
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
        s = lo * (1.0 - 1e-6)
    fam = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=[hermitize(s * p[0]) for p in pairs],
        B=[hermitize(s * p[1]) for p in pairs],
    )
    return s if _verify_complement_family(fam, g, m, M, DEFAULT_MARGIN) else None


def _scale_draws():
    f = geometric_w(0.5)
    gamma_f = constants.gamma(f, 0.5, 2.0).value
    assert gamma_f > 1.0
    for dim in range(1, 7):
        for n in (1, 2, 3):
            for g in (1.0, gamma_f):
                for k in range(6):
                    yield (dim, n, (0.5, 2.0)), f, g, (dim, n, k)


def test_closed_form_scale_matches_bisection():
    rescaled = 0
    for shape, f, g, key in _scale_draws():
        fam = complement_sandwich_family(*shape, f, g, subrng(31, "scale", *key))
        ref = _bisected_family_scale(shape, f, g, subrng(31, "scale", *key))
        assert ref is not None
        assert fam.meta["scale"] == pytest.approx(ref, rel=1e-12, abs=0.0)
        rescaled += fam.meta["scale"] < 1.0
    assert rescaled >= 100


def test_closed_form_scale_is_pinned_from_above():
    for shape, f, g, key in _scale_draws():
        m, M = shape[2]
        _, sum_a, sum_b, sum_means = _draw_sums(shape, f, subrng(32, "pin", *key))
        s_max = _scale_limit(g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN)
        assert all(_feasible(s_max * (1.0 - 1e-9), g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN))
        assert not all(_feasible(s_max * (1.0 + 1e-9), g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN))


def test_complement_family_scale_branches():
    shape = (1, 1, (0.5, 2.0))
    f = arithmetic_w(0.5)
    seen = set()
    for k in range(40):
        _, sum_a, sum_b, sum_means = _draw_sums(shape, f, subrng(33, "branch", k))
        s_max = _scale_limit(1.0, sum_a, sum_b, sum_means, 0.5, 2.0, DEFAULT_MARGIN)
        fam = complement_sandwich_family(*shape, f, 1.0, subrng(33, "branch", k))
        if s_max >= 1.0:
            assert fam.meta["scale"] == 1.0
        else:
            assert fam.meta["scale"] == s_max * (1.0 - 1e-6)
        seen.add(s_max >= 1.0)
    assert seen == {True, False}


def _counted_sandwich_pairs(monkeypatch) -> list:
    calls = []
    draw = instances.random_sandwich_pair
    monkeypatch.setattr(instances, "random_sandwich_pair", lambda *args: calls.append(1) or draw(*args))
    return calls


def _assert_drawn_once_and_rejected(calls, gamma):
    # each of the n = 2 members is drawn once, and the family is rejected
    calls.clear()
    with pytest.raises(HypothesisError) as exc:
        complement_sandwich_family(2, 2, (0.5, 2.0), geometric_w(0.5), gamma, subrng(34, "gen", 0))
    assert exc.value.where
    assert len(calls) == 2
    rngs = [subrng(34, "gen", t) for t in range(2)]
    with pytest.raises(HypothesisError) as exc:
        complement_sandwich_family(2, 2, (0.5, 2.0), geometric_w(0.5), gamma, rngs)
    assert list(exc.value.where) == [True, True]
    assert len(calls) == 2 + 2


def test_complement_family_gamma_under_the_bound_runs_out_of_rounds(monkeypatch):
    # at gamma = 5e8 the bound is 7.5e-9: above MIN_SCALE / 2, so the
    # generator draws, but below MIN_SCALE, so its single round fails
    _assert_drawn_once_and_rejected(_counted_sandwich_pairs(monkeypatch), 5e8)


def test_complement_family_oversized_gamma_is_rejected(monkeypatch):
    # every draw has s_max <= (1 - margin) / (gamma (m + delta) / 2), which
    # at gamma = 1e10 is far below MIN_SCALE: the family is still drawn once
    _assert_drawn_once_and_rejected(_counted_sandwich_pairs(monkeypatch), 1e10)


#: numpy.linalg calls of one complement_sandwich_family at dim 6, n 3.
FAMILY_CALL_BUDGET = {"eigvalsh": 21, "svd": 0, "eigh": 9, "norm": 9, "qr": 6}


def test_complement_family_linalg_call_budget(monkeypatch):
    counts = dict.fromkeys(FAMILY_CALL_BUDGET, 0)

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    for kind in counts:
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    fam = complement_sandwich_family(6, 3, (0.5, 2.0), geometric_w(0.5), 1.0, subrng(35, "budget", 0))
    monkeypatch.undo()
    assert fam.meta["scale"] > 0.0
    over = {k: (counts[k], FAMILY_CALL_BUDGET[k]) for k in counts if counts[k] > FAMILY_CALL_BUDGET[k]}
    assert not over, f"numpy.linalg calls over budget (count, budget): {over}"


def test_generator_determinism():
    a1 = random_spectrum_matrix(4, (0.5, 2.0), subrng(42, "x", 3))
    a2 = random_spectrum_matrix(4, (0.5, 2.0), subrng(42, "x", 3))
    a3 = random_spectrum_matrix(4, (0.5, 2.0), subrng(42, "x", 4))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_subrng_order_independence():
    # substreams are a pure function of (seed, key), not of draw order
    first = subrng(9, "a", 1).standard_normal(4)
    _ = subrng(9, "a", 0).standard_normal(17)
    again = subrng(9, "a", 1).standard_normal(4)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("kind,p", [("bellman", 2.0), ("aczel", 2.0), ("popoviciu", 1.7)])
def test_scalar_instance_head_hypotheses(kind, p):
    rng = np.random.default_rng(8)
    for _ in range(20):
        inst = scalar_instance(kind, (1, 3), p, rng)
        q = inst["p"]
        assert np.sum(inst["a_j"] ** q) <= inst["a"] ** q + 1e-12
        assert np.sum(inst["b_j"] ** q) <= inst["b"] ** q + 1e-12


@pytest.mark.parametrize("kind", ["mp3", "eq3"])
def test_scalar_instance_column_hypotheses(kind):
    rng = np.random.default_rng(9)
    for _ in range(20):
        inst = scalar_instance(kind, (3, 4), 0.4, rng)
        q = 1.0 / inst["p"]
        assert np.all(np.sum(inst["a"] ** q, axis=0) <= 1.0 + 1e-12)
        assert abs(inst["weights"].sum() - 1.0) <= 1e-14


def test_scalar_instance_capped_columns():
    rng = np.random.default_rng(10)
    inst = scalar_instance("mp1", (2, 3), 0.5, rng)
    q = 1.0 / inst["p"]
    assert np.all(np.sum(inst["a"] ** q, axis=0) <= inst["caps"] ** q + 1e-12)


def test_scalar_instance_parameter_validation():
    rng = np.random.default_rng(11)
    with pytest.raises(ParameterError):
        scalar_instance("bellman", (1, 2), 0.5, rng)
    with pytest.raises(ParameterError):
        scalar_instance("mp3", (1, 2), 1.5, rng)
    with pytest.raises(ParameterError):
        scalar_instance("unknown", (1, 2), 0.5, rng)
