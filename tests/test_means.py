import numpy as np
import pytest

from opbellman.errors import ConditioningError, ParameterError, ShapeError
from opbellman.instances import random_pd
from opbellman.means import (
    arithmetic_w,
    composed,
    function_from_id,
    geometric_w,
    log_fn,
    RepresentingFunction,
    mean,
    per_trial_function,
    power_fn,
    powered,
    weighted_arithmetic,
)
from opbellman.spectral import eig, hermitize, identity, loewner_leq, pd_root_pair

RNG = np.random.default_rng(100)


def weighted_geometric(a, b, lam):
    """A^{1/2} (A^{-1/2} B A^{-1/2})^lam A^{1/2} by congruence and a spectral
    power: a second route to mean(a, b, geometric_w(lam))."""
    root, inv_root = pd_root_pair(a)
    lam_w, u = eig(hermitize(inv_root @ b @ inv_root))
    w_lam = hermitize((u * np.clip(lam_w, 0.0, None) ** lam) @ u.conj().T)
    return hermitize(root @ w_lam @ root)

MEANS = [arithmetic_w(0.3), geometric_w(0.5), power_fn(0.7)]


@pytest.mark.parametrize("f", MEANS, ids=lambda f: f.label)
def test_mean_idempotent(f):
    a = random_pd(3, [RNG])[0, 0]
    assert np.allclose(mean(a, a, f), a, atol=1e-11)


@pytest.mark.parametrize("f", MEANS, ids=lambda f: f.label)
@pytest.mark.parametrize("t", [0.25, 1.0, 3.5])
def test_mean_identity_scaling(f, t):
    # I sigma_f (t I) = f(t) I
    eye = identity(3)
    out = mean(eye, t * eye, f)
    assert np.allclose(out, float(f(t)) * eye, atol=1e-12)


def test_mean_commuting_diagonal():
    out = mean(np.diag([1.0, 1.0]).astype(complex), np.diag([4.0, 9.0]).astype(complex), geometric_w(0.5))
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_weighted_arithmetic_endpoints():
    a, b = random_pd(3, [RNG])[0, 0], random_pd(3, [RNG])[0, 0]
    assert np.allclose(weighted_arithmetic(a, b, 0.0), a)
    assert np.allclose(weighted_arithmetic(a, b, 1.0), b)


def test_weighted_geometric_commuting():
    out = weighted_geometric(np.diag([1.0, 4.0]).astype(complex), np.diag([4.0, 1.0]).astype(complex), 0.5)
    assert np.allclose(out, np.diag([2.0, 2.0]), atol=1e-12)


def test_weighted_geometric_two_routes():
    for _ in range(10):
        lam = RNG.uniform(0.05, 0.95)
        a, b = random_pd(4, [RNG], 0.3, 2.0)[0, 0], random_pd(4, [RNG], 0.3, 2.0)[0, 0]
        direct = weighted_geometric(a, b, lam)
        via_mean = mean(a, b, geometric_w(lam))
        assert np.linalg.norm(direct - via_mean, 2) <= 1e-10


def test_scalar_consistency():
    for _ in range(10):
        a, b = RNG.uniform(0.2, 3.0), RNG.uniform(0.2, 3.0)
        for f in MEANS:
            out = mean(np.array([[a]], dtype=complex), np.array([[b]], dtype=complex), f)
            assert out[0, 0].real == pytest.approx(a * float(f(b / a)), rel=1e-13)


@pytest.mark.parametrize("f", MEANS, ids=lambda f: f.label)
def test_mean_monotone_in_both_arguments(f):
    for _ in range(10):
        a = random_pd(3, [RNG], 0.3, 1.5)[0, 0]
        b = random_pd(3, [RNG], 0.3, 1.5)[0, 0]
        c = a + random_pd(3, [RNG], 0.05, 0.8)[0, 0]
        d = b + random_pd(3, [RNG], 0.05, 0.8)[0, 0]
        assert loewner_leq(mean(a, b, f), mean(c, d, f)).holds


@pytest.mark.parametrize("f", MEANS, ids=lambda f: f.label)
def test_mean_transformer_equality_invertible(f):
    for _ in range(5):
        a = random_pd(3, [RNG], 0.3, 1.5)[0, 0]
        b = random_pd(3, [RNG], 0.3, 1.5)[0, 0]
        t = RNG.standard_normal((3, 3)) + 1j * RNG.standard_normal((3, 3)) + 3 * np.eye(3)
        lhs = t.conj().T @ mean(a, b, f) @ t
        rhs = mean(t.conj().T @ a @ t, t.conj().T @ b @ t, f)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * max(1.0, np.linalg.norm(rhs, 2))


@pytest.mark.parametrize("f", MEANS, ids=lambda f: f.label)
def test_mean_superadditive(f):
    for _ in range(10):
        a1, b1 = random_pd(3, [RNG], 0.2, 1.0)[0, 0], random_pd(3, [RNG], 0.2, 1.0)[0, 0]
        a2, b2 = random_pd(3, [RNG], 0.2, 1.0)[0, 0], random_pd(3, [RNG], 0.2, 1.0)[0, 0]
        assert loewner_leq(mean(a1, b1, f) + mean(a2, b2, f), mean(a1 + a2, b1 + b2, f)).holds


def test_log_is_not_a_mean():
    a = random_pd(2, [RNG])[0, 0]
    with pytest.raises(ParameterError, match="not normalized"):
        mean(a, a, log_fn)


def test_mean_rejects_near_singular_first_argument():
    a = np.diag([1e-14, 1.0]).astype(complex)
    b = identity(2)
    with pytest.raises(ConditioningError):
        mean(a, b, geometric_w(0.5))


def test_function_id_round_trip():
    for fid in ["arith:0.3", "geom:0.5", "power:0.7", "log", "powered:geom:0.5:0.3", "composed:power:0.3:geom:0.5"]:
        f = function_from_id(fid)
        assert f.label == fid or fid.startswith("composed")


def test_function_id_errors():
    # a trailing field used to be ignored, so the id named another function than the one run
    for fid in ["nope:1", "arith:now", "arith:0.5:1", "geom:0.5:junk", "power:0.3:0.7",
                "powered:geom:0.5:junk:2", "composed:power:0.3:geom:0.5:junk"]:
        with pytest.raises(ParameterError):
            function_from_id(fid)


def test_powered_matches_composed_power():
    base = geometric_w(0.5)
    f1 = powered(base, 0.3)
    f2 = composed(power_fn(0.3), base)
    for t in (0.3, 1.0, 2.7):
        assert float(f1(t)) == pytest.approx(float(f2(t)), rel=1e-15)
    assert f1.normalized and f2.normalized


def test_normalization_flags():
    assert arithmetic_w(0.25).normalized
    assert geometric_w(0.9).normalized
    assert not log_fn.normalized
    assert powered(arithmetic_w(0.5), 0.4).normalized


def test_mp_twin_agrees_with_float():
    import mpmath

    for f in [geometric_w(0.3), log_fn, powered(arithmetic_w(0.4), 0.6)]:
        for t in (0.4, 1.7):
            assert float(f.mp(mpmath.mpf(t))) == pytest.approx(float(f(t)), rel=1e-14)


def test_per_trial_function_gives_each_trial_its_own_bits():
    # each id's function runs with its own scalar exponent on its own rows:
    # numpy's x ** 0.5 takes a fast path that an exponent array does not
    ids = np.array(["geom:0.5", "arith:0.5", "power:0.3", "log", "geom:0.5", "log", "power:0.3"])
    lam = RNG.uniform(0.05, 4.0, size=(2, len(ids), 5))
    f = function_from_id(ids)
    out = f.fn(lam)
    for t, fid in enumerate(ids):
        alone = function_from_id(str(fid))
        for k in range(lam.shape[0]):
            assert out[k, t].tobytes() == np.asarray(alone.fn(lam[k, t]), dtype=float).tobytes(), fid
        assert f.label[t] == alone.label
        assert f.operator_monotone[t] == alone.operator_monotone
        assert f.normalized[t] == alone.normalized
    assert list(f.normalized) == [fid != "log" for fid in ids]
    assert list(function_from_id(np.array(["power:0.3", "power:2"])).operator_monotone) == [True, False]
    with pytest.raises(ShapeError):
        f.fn(lam[:, :3])
    with pytest.raises(ParameterError, match="not normalized"):
        mean(random_pd(2, [RNG])[0, 0], random_pd(2, [RNG])[0, 0], f)


def test_per_trial_mean_equals_each_pair_alone():
    ids = np.array(["geom:0.5", "arith:0.5", "power:0.3", "powered:geom:0.5:0.5", "geom:0.5"])
    a = np.stack([random_pd(3, [RNG], 0.3, 2.0)[0, 0] for _ in ids])
    b = np.stack([random_pd(3, [RNG], 0.3, 2.0)[0, 0] for _ in ids])
    stacked = mean(a, b, function_from_id(ids))
    powered_stack = mean(a, b, powered(function_from_id(ids), 0.7))
    for t, fid in enumerate(ids):
        f = function_from_id(str(fid))
        assert stacked[t].tobytes() == mean(a[t], b[t], f).tobytes(), fid
        assert powered_stack[t].tobytes() == mean(a[t], b[t], powered(f, 0.7)).tobytes(), fid


def test_per_trial_function_of_one_function_is_that_function():
    f = geometric_w(0.5)
    assert per_trial_function([f, f, f]) is f
    assert function_from_id(np.array(["log", "log"])) is log_fn


def test_per_trial_function_refuses_mixed_domains():
    shifted = RepresentingFunction(label="shifted", fn=np.log1p, domain=(-1.0, np.inf))
    with pytest.raises(ParameterError, match="different domains"):
        per_trial_function([log_fn, shifted])
