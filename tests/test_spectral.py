import warnings

import numpy as np
import pytest

from opbellman.checks import PD_REL_FLOOR, _pd_floor
from opbellman.errors import ConditioningError, DomainError, ShapeError
from opbellman.instances import DEFAULT_MARGIN, Streams, haar_unitary, random_pd, random_spectrum_matrix, stream_states
from opbellman.spectral import (
    POSITIVITY_FLOOR,
    OrderVerdict,
    Tolerance,
    _certified_at_least,
    _eigvalsh,
    adjoint,
    apply_function,
    array_from_json,
    array_to_json,
    congruence_factor,
    eig,
    floor_holds,
    from_spectrum,
    hermitize,
    identity,
    loewner_holds,
    loewner_leq,
    spectral_norm,
)


def test_hermitize_symmetrizes_exactly():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = hermitize(x)
    assert np.array_equal(h, h.conj().T)


def test_hermitize_keeps_an_infinite_entry_real():
    # halving the complex sum divided by 2 + 0j, which made inf + nan j and
    # warned; each part is halved on its own now
    x = np.array([np.diag([np.inf, 1.0]), np.diag([-np.inf, 1.0]), np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hermitize(x)
        decided = _pd_floor(x)
    assert not h.imag.any()
    assert h.real[:2, 0, 0].tolist() == [np.inf, -np.inf]
    assert decided.tolist() == [False, False, True]


def test_spectral_norm_is_bit_identical_to_numpy_norm():
    rng = np.random.default_rng(20)
    for dim in range(1, 7):
        for _ in range(20):
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for m in (x, hermitize(x)):
                assert spectral_norm(m) == float(np.linalg.norm(m, 2))
        zero = np.zeros((dim, dim), dtype=complex)
        assert spectral_norm(zero) == float(np.linalg.norm(zero, 2)) == 0.0


def test_eig_diagonal_sorted():
    d = eig(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(d.eigenvalues, [1.0, 3.0])
    # eigenvectors form a permutation for a diagonal input
    assert np.allclose(np.abs(d.vectors), [[0, 1], [1, 0]])


def test_eig_identity():
    d = eig(identity(4))
    assert np.allclose(d.eigenvalues, 1.0)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = hermitize(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        lam, u = eig(h)
        recon = (u * lam) @ u.conj().T
        assert np.linalg.norm(recon - h) <= 1e-10 * (1 + np.linalg.norm(h, 2))
        assert np.linalg.norm(u.conj().T @ u - identity(5)) <= 1e-12


def test_apply_function_diagonal_sqrt():
    out = apply_function(np.diag([1.0, 4.0]).astype(complex), np.sqrt, (0.0, np.inf))
    assert np.allclose(out, np.diag([1.0, 2.0]))


def test_apply_function_identity_function():
    rng = np.random.default_rng(2)
    h = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.allclose(apply_function(h, lambda t: t), h)


def test_apply_function_square_matches_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert np.allclose(apply_function(h, lambda t: t**2), h @ h, atol=1e-10)


def test_apply_function_domain_error_names_eigenvalue():
    with pytest.raises(DomainError, match="-1"):
        apply_function(np.diag([-1.0, 2.0]).astype(complex), np.sqrt, (0.0, np.inf))


def test_apply_function_clips_rounding_drift():
    h = np.diag([-1e-14, 1.0]).astype(complex)
    out = apply_function(h, np.sqrt, (0.0, np.inf))
    assert np.all(np.isfinite(out))


def test_loewner_examples():
    assert loewner_leq(np.diag([1.0, 2.0]), np.diag([2.0, 3.0])).slack == pytest.approx(1.0)
    h = random_pd(3, Streams(stream_states(4, [()])))[0, 0]
    v = loewner_leq(h, h)
    assert v.holds and abs(v.slack) <= 1e-14
    v = loewner_leq(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]))
    assert not v.holds and v.slack == pytest.approx(-1.0)


def test_loewner_dimension_mismatch():
    with pytest.raises(ShapeError):
        loewner_leq(np.eye(2), np.eye(3))
    with pytest.raises(ShapeError):
        loewner_holds(np.eye(2), np.eye(3))


def test_loewner_holds_equals_loewner_leq_verdict():
    # slacks on every side of the margin: positive, exactly zero, negative
    # within the margin (holds only through the tolerance) and beyond it
    rng = Streams(stream_states(21, [()]))
    within_margin_holds = 0
    for tol in (Tolerance(), Tolerance(atol=1e-6, rtol=1e-8), Tolerance(0.0, 0.0)):
        for dim in range(1, 7):
            for _ in range(12):
                x = hermitize(rng[0].standard_normal((dim, dim)) + 1j * rng[0].standard_normal((dim, dim)))
                x = x * 10.0 ** rng[0].uniform(-3, 3)
                margin = tol.margin(spectral_norm(x))
                shifts = (
                    rng[0].uniform(0.1, 2.0) * random_pd(dim, rng)[0, 0],
                    np.zeros((dim, dim), dtype=complex),
                    -0.5 * margin * identity(dim),
                    -max(10.0 * margin, 1e-3) * identity(dim),
                )
                for shift in shifts:
                    y = x + shift
                    for a, b in ((x, y), (y, x)):
                        want = loewner_leq(a, b, tol)
                        assert loewner_holds(a, b, tol) is want.holds, (tol, dim, want)
                        within_margin_holds += want.holds and want.slack < 0.0
    assert within_margin_holds > 0


def test_loewner_holds_non_finite_operands_take_the_full_path():
    # eigvalsh(diag(0, nan)) returns finite eigenvalues; the verdict must not
    # be a "holds" that the tolerance path would have refused
    nan_entry = np.diag([1.0, np.nan])
    with pytest.raises(np.linalg.LinAlgError):
        loewner_leq(nan_entry, np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        loewner_holds(nan_entry, np.eye(2))


def test_power_identities():
    rng = Streams(stream_states(5, [()]))
    h = random_pd(4, rng)[0, 0]
    assert np.allclose(apply_function(h, lambda t: t**0.0, (0.0, np.inf)), identity(4))
    assert np.allclose(apply_function(h, lambda t: t**1.0, (0.0, np.inf)), h)
    s = apply_function(h, np.sqrt, (0.0, np.inf))
    assert np.allclose(s @ s, h, atol=1e-11)


def test_congruence_factor_is_a_lower_triangular_cholesky_factor():
    # H = L L* to 1e-13 relative, L lower triangular with a positive real
    # diagonal, and L^{-1} its inverse (an LU inverse: lower triangular up
    # to rounding), at norms far from 1
    rng = Streams(stream_states(6, [()]))
    for dim in range(1, 7):
        for scale in (1e-6, 1.0, 1e6):
            h = scale * random_pd(dim, rng, 0.1, 3.0)[0, 0]
            low, inv = congruence_factor(h)
            assert np.array_equal(low, np.tril(low))
            assert np.abs(np.triu(inv, 1)).max(initial=0.0) <= 1e-15 * np.abs(inv).max()
            assert (np.diag(low).real > 0).all() and not np.diag(low).imag.any()
            assert np.linalg.norm(low @ adjoint(low) - h, 2) <= 1e-13 * np.linalg.norm(h, 2)
            assert np.linalg.norm(inv @ low - identity(dim), 2) <= 1e-13
            assert np.linalg.norm(inv @ h @ adjoint(inv) - identity(dim), 2) <= 1e-12


@pytest.mark.parametrize("bad", [np.diag([2.0, np.nan, 3.0]), np.diag([np.nan, 5.0]), np.diag([np.inf, 1.0])],
                         ids=["nan_3", "nan_2", "inf_2"])
def test_floor_fails_a_non_finite_matrix_without_an_eigenvalue(bad):
    # eigvalsh does not converge on diag(2, nan, 3) and gives [0, -0] for
    # diag(nan, 5): a non-finite matrix fails the floor before either, so a
    # guard settles its trial and a congruence names it in ``where``
    good = 2.0 * identity(len(bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _pd_floor(bad) and not floor_holds(bad, POSITIVITY_FLOOR)
        assert _pd_floor(np.stack([good, bad, good])).tolist() == [True, False, True]
        with pytest.raises(ConditioningError) as exc:
            congruence_factor(np.stack([good, bad, good]))
    assert exc.value.where.tolist() == [False, True, False]


def test_unitary_covariance():
    rng = Streams(stream_states(7, [()]))
    fn = lambda t: t**0.3
    for _ in range(10):
        h = random_pd(4, rng, 0.2, 2.0)[0, 0]
        u = haar_unitary(4, rng, 1)[0, 0]
        lhs = apply_function(u @ h @ u.conj().T, fn, (0.0, np.inf))
        rhs = u @ apply_function(h, fn, (0.0, np.inf)) @ u.conj().T
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


def test_loewner_antisymmetry_at_tolerance():
    rng = Streams(stream_states(8, [()]))
    tol = Tolerance()
    for _ in range(10):
        h = random_pd(3, rng)[0, 0]
        g = h + 1e-13 * identity(3)
        fwd = loewner_leq(h, g, tol)
        bwd = loewner_leq(g, h, tol)
        assert fwd.holds and bwd.holds
        assert np.linalg.norm(h - g, 2) <= 3 * tol.margin(fwd.scale) * fwd.scale + 1e-12


def test_loewner_heinz_statistical():
    rng = Streams(stream_states(9, [()]))
    for _ in range(25):
        dim = int(rng[0].integers(1, 5))
        a = random_pd(dim, rng, 0.1, 1.5)[0, 0]
        b = a + random_pd(dim, rng, 0.05, 1.0)[0, 0]
        p = rng[0].uniform(0.05, 0.95)
        power = lambda t: t**p
        assert loewner_leq(apply_function(a, power, (0.0, np.inf)), apply_function(b, power, (0.0, np.inf))).holds


def test_order_verdict_consistency():
    v = loewner_leq(np.diag([0.0, 2.0]), np.diag([1.0, 1.0]), Tolerance(atol=2.0, rtol=0.0))
    assert isinstance(v, OrderVerdict)
    assert v.holds  # coarse tolerance accepts slack -1
    assert v.slack == pytest.approx(-1.0)  # slack stays raw


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(atol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rtol=float("nan"))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = array_from_json(array_to_json(x))
    assert np.array_equal(back, x) and back.dtype == complex
    # a real array stores no imaginary parts and reads back real, any shape
    for y in (rng.standard_normal((2, 3)), np.float64(0.5), np.array([-0.0, 1e-300])):
        obj = array_to_json(y)
        assert "im" not in obj
        back = array_from_json(obj)
        assert back.shape == np.shape(y) and back.dtype == float
        assert np.array_equal(np.signbit(back), np.signbit(y)) and np.array_equal(back, y)


def test_matrix_json_rejects_bad_payload():
    with pytest.raises(ShapeError):
        array_from_json({"shape": [2, 2], "re": [1.0], "im": [0.0]})
    with pytest.raises(ShapeError):
        array_from_json({"shape": [2], "re": [1.0, 2.0], "im": [0.0]})


def test_spectrum_matrix_ranges():
    rng = Streams(stream_states(11, [()]))
    h = random_spectrum_matrix(5, (0.25, 0.75), rng)[0, 0]
    lam = np.linalg.eigvalsh(h)
    assert lam.min() >= 0.25 - 1e-12 and lam.max() <= 0.75 + 1e-12


def _stack_with_bad(rng, dim, bad):
    """Five PD matrices, with ``bad`` at index 2."""
    mats = [random_pd(dim, rng, 0.3, 2.0)[0, 0] for _ in range(5)]
    mats[2] = bad
    return np.stack(mats)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_stacked_primitives_match_per_matrix_calls(dim):
    # each matrix of a stack gets, to the bit, what it gets alone
    from opbellman.means import geometric_w, mean

    rng = Streams(stream_states(40 + dim, [()]))
    xs = np.stack([random_pd(dim, rng, 0.3, 2.0)[0, 0] for _ in range(5)])
    ys = np.stack([random_spectrum_matrix(dim, (-0.5, 2.0), rng)[0, 0] for _ in range(5)])
    f = geometric_w(0.3)
    lam, u = eig(xs)
    factors = congruence_factor(xs)
    leq = loewner_leq(xs, ys)
    for t in range(5):
        assert np.array_equal(hermitize(ys)[t], hermitize(ys[t]))
        assert np.array_equal(lam[t], eig(xs[t]).eigenvalues)
        assert np.array_equal(u[t], eig(xs[t]).vectors)
        sqrt = (np.sqrt, (0.0, np.inf))
        assert np.array_equal(apply_function(xs, *sqrt)[t], apply_function(xs[t], *sqrt))
        assert all(np.array_equal(r[t], r1) for r, r1 in zip(factors, congruence_factor(xs[t])))
        assert np.array_equal(mean(xs, xs + 1.0, f)[t], mean(xs[t], xs[t] + 1.0, f))
        assert spectral_norm(ys)[t] == spectral_norm(ys[t])
        alone = loewner_leq(xs[t], ys[t])
        assert (leq.holds[t], leq.slack[t], leq.scale[t]) == (alone.holds, alone.slack, alone.scale)
        assert loewner_holds(xs, ys)[t] == loewner_holds(xs[t], ys[t])
        assert loewner_holds(0.2 * identity(dim), xs)[t] == loewner_holds(0.2 * identity(dim), xs[t])


def test_stacked_primitive_errors_name_the_failing_matrices():
    rng = Streams(stream_states(41, [()]))
    singular = _stack_with_bad(rng, 2, np.diag([1e-12, 1.0]).astype(complex))
    with pytest.raises(ConditioningError, match="positivity floor") as exc:
        congruence_factor(singular)
    assert exc.value.where.tolist() == [False, False, True, False, False]
    negative = _stack_with_bad(rng, 2, np.diag([-0.5, 1.0]).astype(complex))
    with pytest.raises(DomainError, match="below domain bound") as exc:
        apply_function(negative, np.sqrt, (0.0, np.inf))
    assert exc.value.where.tolist() == [False, False, True, False, False]
    with pytest.raises(DomainError, match="non-finite") as exc:
        apply_function(_stack_with_bad(rng, 2, np.zeros((2, 2), complex)), np.log, (0.0, np.inf))
    assert exc.value.where.tolist() == [False, False, True, False, False]


#: lambda_min - t of the certificate's inputs, in units of u (|t| + norm):
#: from far below to far above its band, which is 1024 d^2 to 1024 d^3 of them.
_OFFSETS = sorted({sign * 4.0**j for sign in (-1.0, 1.0) for j in range(13)} | {0.0})


@pytest.mark.parametrize("form", ["zero", "margin", "pd_floor"])
def test_certificate_passes_only_what_eigvalsh_passes(form):
    # Haar-rotated spectra whose lambda_min sits k u ||H|| above or below the
    # threshold t, k across the band, at norms 1e-8 to 1e8: a certified matrix
    # is one whose eigvalsh lambda_min is at least t, and _pd_floor, which
    # takes t from lambda_max <= d max|h_ij|, decides as eigvalsh does
    u = np.finfo(float).eps / 2
    rng = Streams(stream_states(301, [()]))
    certified = cases = 0
    for dim in range(1, 7):
        for norm in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for vecs in haar_unitary(dim, rng, 4)[:, 0]:
                rest = norm * rng.uniform(0.1, 1.0, dim - 1)[0]
                t = {"zero": 0.0, "margin": DEFAULT_MARGIN, "pd_floor": PD_REL_FLOOR * dim * norm}[form]
                for k in _OFFSETS:
                    low = t + k * u * (abs(t) + norm)
                    h = hermitize(from_spectrum(vecs, np.r_[low, low + rest]))
                    if form == "pd_floor":
                        t = PD_REL_FLOOR * dim * np.abs(h).max()
                        lam = _eigvalsh(h)
                        assert _pd_floor(h) == (lam[0] >= PD_REL_FLOOR * max(lam[-1], 1e-300))
                    ok = _certified_at_least(h, t)
                    assert not ok or _eigvalsh(h)[0] >= t, (dim, norm, k)
                    certified += ok
                    cases += 1
    assert 0 < certified < cases


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_certificate_refuses_non_finite_stacks_without_a_warning(bad):
    # LAPACK can "factor" a matrix with a NaN entry, so a stack with a
    # non-finite entry, or a non-finite threshold, is never certified
    good = np.stack([2.0 * identity(3)] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _certified_at_least(good) and _certified_at_least(good, 1.0)
        assert not _certified_at_least(good, bad)
        for i, j in ((1, 0), (0, 0), (2, 2)):
            stack = good.copy()
            stack[1, i, j] = stack[1, j, i] = bad
            for t in (0.0, DEFAULT_MARGIN):
                assert not _certified_at_least(stack, t)


def test_certificate_refuses_a_band_below_the_normal_range():
    # 1e-300 I is positive definite, but its band would be subnormal, where
    # the factorization's error bound does not hold: eigvalsh decides it
    tiny = 1e-300 * identity(2)
    assert not _certified_at_least(tiny)
    assert _certified_at_least(1e-100 * identity(2))
    assert loewner_holds(np.zeros((2, 2)), tiny)


@pytest.mark.parametrize("floor", [POSITIVITY_FLOOR, PD_REL_FLOOR])
def test_floor_decision_is_the_one_eigvalsh_gives(floor):
    # Haar-rotated spectra whose lambda_min sits k u lambda_max above or
    # below floor lambda_max, k across the certificate's band, at norms
    # 1e-8 to 1e8: floor_holds, and the refusal of congruence_factor at its
    # floor, decide each matrix as eigvalsh does, alone and in a stack
    u = np.finfo(float).eps / 2
    rng = Streams(stream_states(302, [()]))
    passed = cases = 0
    for dim in range(1, 7):
        mats, want = [], []
        for norm in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            for vecs in haar_unitary(dim, rng, 2)[:, 0]:
                rest = norm * rng.uniform(0.5, 1.0, dim - 1)[0]
                top = rest.max(initial=norm)
                for k in _OFFSETS:
                    h = hermitize(from_spectrum(vecs, np.r_[(floor + k * u) * top, rest]))
                    lam = _eigvalsh(h)
                    mats.append(h)
                    want.append(bool(lam[0] >= floor * max(lam[-1], 1e-300)))
                    assert floor_holds(h, floor) == want[-1], (dim, norm, k)
        assert floor_holds(np.stack(mats), floor).tolist() == want
        if floor == POSITIVITY_FLOOR:
            try:
                congruence_factor(np.stack(mats))
                refused = np.zeros(len(mats), dtype=bool)
            except ConditioningError as exc:
                refused = exc.where
            assert refused.tolist() == [not ok for ok in want]
        passed += sum(want)
        cases += len(want)
    assert 0 < passed < cases
