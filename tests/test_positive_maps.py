import numpy as np
import pytest

from opbellman import positive_maps
from opbellman.errors import ParameterError, ShapeError
from opbellman.instances import haar_unitary, random_pd, random_weights
from opbellman.means import geometric_w, log_fn
from opbellman.positive_maps import (
    _ISOMETRY_TOL,
    Compression,
    IdentityMap,
    PerTrialMap,
    Pinching,
    UnitaryMixture,
    map_from_json,
    per_trial_map,
    take_map,
)
from opbellman.spectral import (
    DEFAULT_TOL,
    apply_function,
    hermitize,
    identity,
    loewner_holds,
    loewner_leq,
    spectral_norm,
)

RNG = np.random.default_rng(200)


def check_unital(spec, tol=DEFAULT_TOL) -> bool:
    """Phi(I) = I up to the comparison margin at scale 1."""
    dev = spectral_norm(spec.apply(identity(spec.input_dim)) - identity(spec.output_dim))
    return dev <= tol.margin(1.0)


def check_positive(spec, samples, rng, tol=DEFAULT_TOL) -> bool:
    """Statistically test positivity on random PSD inputs."""
    d = spec.input_dim
    zero = np.zeros((spec.output_dim, spec.output_dim), dtype=complex)
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        psd = hermitize(g @ g.conj().T)
        if not loewner_holds(zero, hermitize(spec.apply(psd)), tol):
            return False
    return True


def _sample_maps(dim=4):
    v = haar_unitary(dim, [RNG], 1)[0, 0, :, :2]
    return [
        IdentityMap(dim),
        Compression(v),
        UnitaryMixture(np.array([0.3, 0.7]), (haar_unitary(dim, [RNG], 1)[0, 0], haar_unitary(dim, [RNG], 1)[0, 0])),
        Pinching(((0, 1), (2, 3))),
        Compression(haar_unitary(dim, [RNG], 1)[0, 0, :, :1]),
        UnitaryMixture(random_weights(3, [RNG])[0], tuple(haar_unitary(dim, [RNG], 1)[0, 0] for _ in range(3))),
    ]


def test_identity_apply():
    x = random_pd(3, [RNG])[0, 0]
    assert np.array_equal(IdentityMap(3).apply(x), x)


def test_compression_leading_principal_submatrix():
    v = np.eye(4, dtype=complex)[:, :2]
    x = random_pd(4, [RNG])[0, 0]
    assert np.allclose(Compression(v).apply(x), x[:2, :2])


@pytest.mark.parametrize("spec_idx", range(6))
def test_every_variant_is_unital(spec_idx):
    spec = _sample_maps()[spec_idx]
    assert check_unital(spec)


@pytest.mark.parametrize("spec_idx", range(6))
def test_every_variant_is_linear(spec_idx):
    spec = _sample_maps()[spec_idx]
    d = spec.input_dim
    x = hermitize(RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d)))
    y = hermitize(RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d)))
    alpha = 1.7
    lhs = spec.apply(alpha * x + y)
    rhs = alpha * spec.apply(x) + spec.apply(y)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-11 * (1 + np.linalg.norm(rhs, 2))


def test_compression_positive_on_samples():
    v = haar_unitary(5, [RNG], 1)[0, 0, :, :3]
    assert check_positive(Compression(v), 100, np.random.default_rng(7))


def test_non_isometric_v_rejected_at_construction():
    with pytest.raises(ParameterError, match="V\\*V"):
        Compression(np.ones((3, 2), dtype=complex))


def test_unitary_mixture_validation():
    u = haar_unitary(3, [RNG], 1)[0, 0]
    with pytest.raises(ParameterError):
        UnitaryMixture(np.array([0.5, 0.6]), (u, u))  # weights exceed 1
    with pytest.raises(ParameterError):
        UnitaryMixture(np.array([1.0]), (np.ones((3, 3), dtype=complex),))


def test_pinching_partition_validation():
    with pytest.raises(ParameterError):
        Pinching(((0, 1), (1, 2)))  # overlapping partition


@pytest.mark.parametrize("dim, cols", [(1, 1), (3, 2), (6, 6)])
def test_isometry_tolerance_is_the_rejection_boundary(monkeypatch, dim, cols):
    # stretching one column by sqrt(1 + d) makes ||V*V - I|| = d exactly up to rounding
    for factor, rejected in ((0.9, False), (1.1, True)):
        stretch = np.ones(cols)
        stretch[0] = np.sqrt(1.0 + factor * _ISOMETRY_TOL)
        v = haar_unitary(dim, [RNG], 1)[0, 0, :, :cols] * stretch
        u = haar_unitary(dim, [RNG], 1)[0, 0] * np.r_[stretch, np.ones(dim - cols)]
        for build in (lambda: Compression(v), lambda: UnitaryMixture(np.array([1.0]), (u,))):
            if rejected:
                with pytest.raises(ParameterError, match="deviates from identity"):
                    build()
            else:
                build()
    # a stack is checked in one eigvalsh call and names the trial just outside
    exact = np.stack([haar_unitary(dim, [RNG], 1)[0, 0] for _ in range(4)])
    inside, outside = (np.sqrt(1.0 + factor * _ISOMETRY_TOL) for factor in (0.9, 1.1))
    stretch = np.ones((4, 1, dim))
    stretch[:, 0, 0] = [inside, 1.0, outside, inside]
    for build in (
        lambda: Compression((exact * stretch)[..., :cols]),
        lambda: UnitaryMixture(np.full((4, 2), 0.5), (exact[::-1], exact * stretch)),
    ):
        with pytest.raises(ParameterError, match="deviates from identity") as exc:
            build()
        assert list(exc.value.where) == [False, False, True, False]
    calls = []
    monkeypatch.setattr(positive_maps, "_eigvalsh", lambda h: calls.append(h.shape) or np.linalg.eigvalsh(h))
    Compression((exact * stretch)[[0, 1, 3], :, :cols])
    UnitaryMixture(np.full((3, 2), 0.5), (exact[:3], exact[[0, 1, 3]] * stretch[[0, 1, 3]]))
    assert calls == [(3, cols, cols), (2, 3, dim, dim)]


def test_non_finite_isometry_rejected():
    v = np.eye(3, dtype=complex)[:, :2]
    v[0, 0] = np.nan
    with pytest.raises(ParameterError, match="nan"):
        Compression(v)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        Pinching(((0, 1), (2,))).apply(np.eye(2, dtype=complex))


@pytest.mark.parametrize("f", [geometric_w(0.5), log_fn], ids=lambda f: f.label)
def test_jensen_inequality_sanity(f):
    # Phi(f(A)) <= f(Phi(A)) for operator concave f: the baseline every
    # reverse in the suite is compared against.
    rng = np.random.default_rng(300)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        specs = [
            IdentityMap(dim),
            Compression(haar_unitary(dim, [rng], 1)[0, 0, :, : max(1, dim - 1)]),
            UnitaryMixture(random_weights(2, [rng])[0], tuple(haar_unitary(dim, [rng], 1)[0, 0] for _ in range(2))),
        ]
        a = random_pd(dim, [rng], 0.4, 2.5)[0, 0]
        for spec in specs:
            lhs = spec.apply(apply_function(a, f.fn, f.domain))
            rhs = apply_function(hermitize(spec.apply(a)), f.fn, f.domain)
            assert loewner_leq(hermitize(lhs), rhs).holds


def test_map_json_round_trip():
    for spec in _sample_maps():
        back = map_from_json(spec.to_json())
        d = spec.input_dim
        x = hermitize(RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d)))
        assert np.allclose(spec.apply(x), back.apply(x))


def test_stacked_maps_apply_each_trial_map_to_its_operand():
    # a map built from arrays with a trial axis meets each operand of a stack
    # with that trial's map, to the bit; take_map takes one trial's map (an
    # int) or a smaller stack (an index array) back out
    rng = np.random.default_rng(210)
    dim = 3
    vs = [haar_unitary(dim, [rng], 1)[0, 0, :, :2] for _ in range(4)]
    ws = [random_weights(2, [rng])[0] for _ in range(4)]
    us = [(haar_unitary(dim, [rng], 1)[0, 0], haar_unitary(dim, [rng], 1)[0, 0]) for _ in range(4)]
    cases = [
        (IdentityMap(dim), [IdentityMap(dim)] * 4),
        (Compression(np.stack(vs)), [Compression(v) for v in vs]),
        (
            UnitaryMixture(np.stack(ws), tuple(np.stack(u) for u in zip(*us))),
            [UnitaryMixture(w, u) for w, u in zip(ws, us)],
        ),
        (Pinching(((0, 1), (2,))), [Pinching(((0, 1), (2,)))] * 4),
    ]
    xs = np.stack([random_pd(dim, [rng])[0, 0] for _ in range(4)])
    for stacked, maps in cases:
        assert (stacked.input_dim, stacked.output_dim) == (maps[0].input_dim, maps[0].output_dim)
        out = stacked.apply(xs)
        for t, phi in enumerate(maps):
            assert np.array_equal(out[t], phi.apply(xs[t]))
            assert np.array_equal(take_map(stacked, t).apply(xs[t]), out[t])
        idx = np.array([3, 1])
        assert np.array_equal(take_map(stacked, idx).apply(xs[idx]), out[idx])


def test_per_trial_map_applies_each_part_to_its_own_trials():
    # four map kinds of one shape on the trials of one stack: each part is
    # its kind's map stacked over its own trials, and every trial's operand,
    # also with a member axis in front, meets its own map to the bit;
    # take_map gives a trial its own map, and an index array the per-trial
    # map of what each part keeps, or the one part left
    rng = np.random.default_rng(211)
    dim = 3
    rows = [np.array([0, 4]), np.array([1, 5, 6]), np.array([2]), np.array([3, 7])]
    alone = [IdentityMap(dim)] * 2
    alone += [Compression(haar_unitary(dim, [rng], 1)[0, 0]) for _ in range(3)]
    alone += [UnitaryMixture(random_weights(2, [rng])[0], tuple(haar_unitary(dim, [rng], 1)[0, 0] for _ in range(2)))]
    alone += [Pinching(((0, 1), (2,)))] * 2
    parts = [
        IdentityMap(dim),
        Compression(np.stack([phi.v for phi in alone[2:5]])),
        UnitaryMixture(alone[5].weights[None], tuple(u[None] for u in alone[5].unitaries)),
        Pinching(((0, 1), (2,))),
    ]
    mixed = per_trial_map(parts, rows)
    assert isinstance(mixed, PerTrialMap) and (mixed.input_dim, mixed.output_dim) == (dim, dim)
    own = [alone[k] for k in np.argsort(np.concatenate(rows), kind="stable")]
    xs = np.stack([random_pd(dim, [rng])[0, 0] for _ in range(8)])
    for x in (xs, np.stack([xs, 2.0 * xs])):
        out = mixed.apply(x)
        for t, phi in enumerate(own):
            assert np.array_equal(out[..., t, :, :], phi.apply(x[..., t, :, :]))
    out = mixed.apply(xs)
    for t, phi in enumerate(own):
        assert type(take_map(mixed, t)) is type(phi)
        assert np.array_equal(take_map(mixed, t).apply(xs[t]), out[t])
    for idx in (np.array([6, 0, 5, 3]), np.array([1, 6])):
        kept = take_map(mixed, idx)
        assert np.array_equal(kept.apply(xs[idx]), out[idx])
    assert isinstance(take_map(mixed, np.array([6, 0, 5])), PerTrialMap)
    assert isinstance(take_map(mixed, np.array([6, 1])), Compression)
    assert per_trial_map(parts[:1], rows[:1]) is parts[0]
    with pytest.raises(ShapeError, match="trials on axis -3"):
        mixed.apply(xs[:7])
    with pytest.raises(ShapeError, match="different dimensions"):
        per_trial_map([IdentityMap(dim), Compression(alone[2].v[:, :2])], rows[:2])
