import warnings
import zlib

import numpy as np
import pytest

from opbellman import constants, instances
from opbellman.errors import ParameterError
from opbellman.instances import (
    BASE_CAP,
    DEFAULT_MARGIN,
    InstanceFamily,
    Streams,
    _scale_limit,
    _verify_complement_family,
    complement_sandwich_family,
    haar_unitary,
    random_contraction,
    random_sandwich_family,
    random_spectrum_matrix,
    random_subidentity_family,
    random_weights,
    scalar_instance,
    stream_states,
    take,
)
from opbellman.means import arithmetic_w, geometric_w, mean
from opbellman.spectral import hermitize, identity, loewner_leq


def is_contraction(a) -> bool:
    """A*A <= I in the Loewner order, at the default tolerance."""
    return loewner_leq(hermitize(a.conj().T @ a), identity(a.shape[0])).holds


def test_haar_unitary_properties():
    rng = Streams(stream_states(0, [()]))
    for dim in (1, 2, 5):
        u = haar_unitary(dim, rng, 1)[0, 0]
        assert np.linalg.norm(u.conj().T @ u - identity(dim), 2) <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12
    scalar = haar_unitary(1, rng, 1)[0, 0]
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-14


def test_random_spectrum_matrix_bounds():
    rng = Streams(stream_states(1, [()]))
    h = random_spectrum_matrix(6, (0.2, 1.7), rng)[0, 0]
    lam = np.linalg.eigvalsh(h)
    assert lam.min() >= 0.2 - 1e-12 and lam.max() <= 1.7 + 1e-12


def test_random_spectrum_degenerate_interval_gives_scaled_identity():
    rng = Streams(stream_states(2, [()]))
    h = random_spectrum_matrix(3, (0.7, 0.7), rng)[0, 0]
    assert np.allclose(h, 0.7 * identity(3), atol=1e-12)


def test_random_contraction_kinds():
    rng = Streams(stream_states(3, [()]))
    for kind in ("ginibre", "unitary"):
        for _ in range(5):
            c = random_contraction(4, rng, kind)[0]
            assert is_contraction(c)


def test_sandwich_pair_verified():
    rng = Streams(stream_states(4, [()]))
    for dim in (1, 4):
        a, b = (x[0, 0] for x in random_sandwich_family(dim, 1, (0.5, 1.5), 0.5, 2.0, rng)[:2])
        assert loewner_leq(0.5 * a, b).slack >= 0
        assert loewner_leq(b, 2.0 * a).slack >= 0


def test_sandwich_pair_rejects_a_failed_construction(monkeypatch):
    # an inner spectrum outside [m, M] must not be released
    monkeypatch.setattr(instances, "_sandwich_window", lambda m, M: (2.5, 2.5))
    _, _, rejected = random_sandwich_family(2, 1, (1.0, 1.0), 0.5, 2.0, Streams(stream_states(0, [()])))
    assert rejected.tolist() == [True]


def test_sandwich_scalar_case():
    rng = Streams(stream_states(5, [()]))
    a, b = (x[0, 0] for x in random_sandwich_family(1, 1, (1.7, 1.7), 0.5, 2.0, rng)[:2])
    t = (b[0, 0] / a[0, 0]).real
    assert 0.5 <= t <= 2.0


def test_subidentity_family():
    rng = Streams(stream_states(6, [()]))
    fam = random_subidentity_family(1, 3, rng, 0.5)[:, 0]
    assert np.linalg.norm(fam[0], 2) <= 0.5 + 1e-12
    fam = random_subidentity_family(4, 3, rng, 0.8)[:, 0]
    total = sum(fam)
    assert np.linalg.eigvalsh(total).max() <= 0.8 + 1e-12
    for a in fam:
        assert np.linalg.eigvalsh(a).min() >= -1e-14


def test_random_weights():
    rng = Streams(stream_states(7, [()]))
    assert random_weights(1, rng)[0, 0] == pytest.approx(1.0, abs=1e-14)
    w = random_weights(5, rng)[0]
    assert abs(w.sum() - 1.0) <= 1e-14
    assert w.min() > 0


def test_complement_family_scalar_affine_accepted():
    rngs = Streams(stream_states(11, [("gen", 0)]))
    fam = take(complement_sandwich_family(1, 1, (0.5, 2.0), arithmetic_w(0.5), 1.0, rngs), 0)
    assert 0.0 < fam.meta["scale"] <= 1.0


def test_complement_family_hypotheses_reverified():
    rngs = Streams(stream_states(12, [("gen", 1)]))
    fam = take(complement_sandwich_family(3, 2, (0.5, 2.0), geometric_w(0.5), 1.1, rngs), 0)
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
        complement_sandwich_family(2, 1, (0.2, 0.8), arithmetic_w(0.5), 1.0, Streams(stream_states(0, [()])))


@pytest.mark.parametrize("dim,n,interval", [(0, 1, (0.5, 2.0)), (2, 0, (0.5, 2.0)), (2, 1, (2.0, 0.5))])
def test_complement_family_input_checks(dim, n, interval):
    with pytest.raises(ParameterError):
        complement_sandwich_family(dim, n, interval, arithmetic_w(0.5), 1.0, Streams(stream_states(0, [()])))


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
    """The draws of one complement_sandwich_family call on the one-stream
    stack rng, member by member in its order; ``shape`` is its (dim, n,
    interval)."""
    dim, n, (m, M) = shape
    pairs = [[x[0, 0] for x in random_sandwich_family(dim, 1, (0.5, 1.5), m, M, rng)[:2]] for _ in range(n)]
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
        fam = take(complement_sandwich_family(*shape, f, g, Streams(stream_states(31, [("scale", *key)]))), 0)
        ref = _bisected_family_scale(shape, f, g, Streams(stream_states(31, [("scale", *key)])))
        assert ref is not None
        assert fam.meta["scale"] == pytest.approx(ref, rel=1e-12, abs=0.0)
        rescaled += fam.meta["scale"] < 1.0
    assert rescaled >= 100


def test_closed_form_scale_is_pinned_from_above():
    for shape, f, g, key in _scale_draws():
        m, M = shape[2]
        _, sum_a, sum_b, sum_means = _draw_sums(shape, f, Streams(stream_states(32, [("pin", *key)])))
        s_max = _scale_limit(g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN)
        assert all(_feasible(s_max * (1.0 - 1e-9), g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN))
        assert not all(_feasible(s_max * (1.0 + 1e-9), g, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN))


def test_complement_family_scale_branches():
    shape = (1, 1, (0.5, 2.0))
    f = arithmetic_w(0.5)
    seen = set()
    for k in range(40):
        _, sum_a, sum_b, sum_means = _draw_sums(shape, f, Streams(stream_states(33, [("branch", k)])))
        s_max = _scale_limit(1.0, sum_a, sum_b, sum_means, 0.5, 2.0, DEFAULT_MARGIN)
        fam = take(complement_sandwich_family(*shape, f, 1.0, Streams(stream_states(33, [("branch", k)]))), 0)
        if s_max >= 1.0:
            assert fam.meta["scale"] == 1.0
        else:
            assert fam.meta["scale"] == s_max * (1.0 - 1e-6)
        seen.add(s_max >= 1.0)
    assert seen == {True, False}


def _counted_sandwich_pairs(monkeypatch) -> list:
    """The member count of each ``random_sandwich_family`` call, as it is made."""
    calls = []
    draw = instances.random_sandwich_family
    monkeypatch.setattr(instances, "random_sandwich_family", lambda *args: calls.append(args[1]) or draw(*args))
    return calls


def _assert_drawn_once_and_rejected(calls, gamma):
    # each of the n = 2 members is drawn once, and the family is rejected
    calls.clear()
    fam = complement_sandwich_family(2, 2, (0.5, 2.0), geometric_w(0.5), gamma, Streams(stream_states(34, [("gen", 0)])))
    assert fam.meta["rejected"].tolist() == [True]
    assert sum(calls) == 2
    rngs = Streams(stream_states(34, [("gen", t) for t in range(2)]))
    fam = complement_sandwich_family(2, 2, (0.5, 2.0), geometric_w(0.5), gamma, rngs)
    assert fam.meta["rejected"].tolist() == [True, True]
    assert sum(calls) == 2 + 2


def test_complement_family_gamma_under_the_bound_runs_out_of_rounds(monkeypatch):
    # at gamma = 5e8 the bound is 7.5e-9: above MIN_SCALE / 2, so the
    # generator draws, but below MIN_SCALE, so its single round fails
    _assert_drawn_once_and_rejected(_counted_sandwich_pairs(monkeypatch), 5e8)


def test_complement_family_oversized_gamma_is_rejected(monkeypatch):
    # every draw has s_max <= (1 - margin) / (gamma (m + delta) / 2), which
    # at gamma = 1e10 is far below MIN_SCALE: the family is still drawn once
    _assert_drawn_once_and_rejected(_counted_sandwich_pairs(monkeypatch), 1e10)


#: numpy.linalg calls of one complement_sandwich_family at dim 6, n 3: each
#: step on the members is one call, whatever n.
FAMILY_CALL_BUDGET = {"eigvalsh": 3, "svd": 0, "eigh": 3, "norm": 3, "qr": 1}


def test_complement_family_linalg_call_budget(monkeypatch):
    counts = dict.fromkeys(FAMILY_CALL_BUDGET, 0)

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    for kind in counts:
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    rngs = Streams(stream_states(35, [("budget", 0)]))
    fam = complement_sandwich_family(6, 3, (0.5, 2.0), geometric_w(0.5), 1.0, rngs)
    monkeypatch.undo()
    assert fam.meta["scale"][0] > 0.0
    over = {k: (counts[k], FAMILY_CALL_BUDGET[k]) for k in counts if counts[k] > FAMILY_CALL_BUDGET[k]}
    assert not over, f"numpy.linalg calls over budget (count, budget): {over}"


def test_generator_determinism():
    a1 = random_spectrum_matrix(4, (0.5, 2.0), Streams(stream_states(42, [("x", 3)])))
    a2 = random_spectrum_matrix(4, (0.5, 2.0), Streams(stream_states(42, [("x", 3)])))
    a3 = random_spectrum_matrix(4, (0.5, 2.0), Streams(stream_states(42, [("x", 4)])))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_substreams_order_independence():
    # substreams are a pure function of (seed, key), not of draw order
    first = Streams(stream_states(9, [("a", 1)]))[0].standard_normal(4)
    _ = Streams(stream_states(9, [("a", 0)]))[0].standard_normal(17)
    again = Streams(stream_states(9, [("a", 1)]))[0].standard_normal(4)
    assert np.array_equal(first, again)



#: Keys at the edges of ``SeedSequence``'s word split: the empty string's
#: crc32 is 0, one zero word like the int 0; from 2^32 an int takes two words.
_SEEDING_KEYS = [("check", "{}", 0), ("", "", 1), ("check", "{}", 1 << 32), ("check", "{}", (1 << 64) - 1)]

#: One batch of 524 keys of 2 to 10 words with the seed: trials 0, 2^32 and
#: 2^64 - 1 and their neighbours, keys shorter than numpy's 4-word pool and
#: keys past it, so ``stream_states`` mixes several word counts in one call.
_SEEDING_BATCH = _SEEDING_KEYS + [
    key
    for t in range(130)
    for key in (
        ("check", f"cell {t % 9}", t),
        ("check", f"cell {t % 9}", (1 << 32) + t),
        ("check", f"cell {t % 9}", (1 << 64) - 1 - t),
        (("x",), ("x", t), ("a", "b", "c", "d", t << 40, "", t))[t % 3],
    )
]


def _key_words(seed, key):
    return [seed, *(zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p for p in key)]


@pytest.mark.parametrize("seed", [0, 1729, 1 << 32, (1 << 64) - 1])
def test_substreams_equal_numpy_seeding_bit_for_bit(seed):
    # stream_states mixes the seed pools and hashes them into PCG64 states
    # itself, one array pass per word count; each state of one batch of keys
    # of mixed word counts, and each stream seeded alone, must be the one
    # numpy seeds from the same words
    counts = {sum(1 + (w >> 32 > 0) for w in _key_words(seed, key)) for key in _SEEDING_BATCH}
    assert len(counts) >= 5 and min(counts) <= 3 and max(counts) >= 9
    states = stream_states(seed, _SEEDING_BATCH)
    assert len(states) >= 500
    for key, state in zip(_SEEDING_BATCH, states):
        ref = np.random.SeedSequence(_key_words(seed, key)).generate_state(4, np.uint64)
        assert state.tobytes() == ref.tobytes(), (seed, key)
    for key, rng in zip(_SEEDING_KEYS, Streams(states)):
        ref = np.random.default_rng(np.random.SeedSequence(_key_words(seed, key)))
        (alone,) = Streams(stream_states(seed, [key]))
        for got in (rng, alone):
            assert got.bit_generator.state == ref.bit_generator.state, (seed, key)
        draws = [r.standard_normal(5).tobytes() for r in (rng, alone, ref)]
        assert draws[0] == draws[1] == draws[2], (seed, key)


def test_substreams_refuse_a_word_outside_64_bits():
    # a mask would alias 2^64 to 0 and -1 to 2^64 - 1
    for seed, key in [(0, ("check", -1)), (0, ("check", 1 << 64)), (-1, ("check",)), (1 << 64, ("check",))]:
        with pytest.raises(ParameterError):
            Streams(stream_states(seed, [key]))


@pytest.mark.parametrize("seed", [0, 1729, 1 << 32, (1 << 64) - 1])
def test_trial_columns_seed_the_states_of_the_keys_they_end(seed):
    # a campaign forms the words of (seed, check, cell) once per cell and
    # appends each trial as the last column: every state must be the one of
    # the key (check, cell, trial), trials of one and of two words mixed
    keys = [("check", f"cell {c}") for c in range(5)] + [("x",), ("a", "b", "c", "d", 1 << 40, "")]
    trials = [0, 1, 2, 7, (1 << 32) - 1, 1 << 32, (1 << 32) + 5, (1 << 64) - 1]
    got = stream_states(seed, keys, trials)
    want = stream_states(seed, [key + (t,) for key in keys for t in trials])
    assert got.shape == (len(keys) * len(trials), 4) and got.tobytes() == want.tobytes()
    assert stream_states(seed, keys, range(3)).tobytes() == stream_states(seed, keys, [0, 1, 2]).tobytes()
    for trials in ([-1], [1 << 64], [0, 1 << 64]):
        with pytest.raises(ParameterError):
            stream_states(seed, keys, trials)


#: PCG64's multiplier and its inverse mod 2^128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INVERSE = pow(_PCG_MULT, -1, 1 << 128)


def _set_pcg(stack, t, state, inc, rng):
    """Give stream t of a stack drawn on arrays, and the Generator rng, the
    PCG64 state and (odd) increment given, with no buffered uint32."""
    words = stack._kernel()
    words[:, t] = [state >> 64, state & (1 << 64) - 1, inc >> 64, inc & (1 << 64) - 1, 0, 0]
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def test_stream_kernel_draws_what_numpy_generators_draw():
    # the kernel reproduces numpy's PCG64 seeding, steps and XSL-RR output,
    # Generator.random, uniform through _scaled, and integers by Lemire's
    # method with PCG64's uint32 buffer, bit for bit, on 1200 streams of
    # four seeds (two of them >= 2^32); a numpy release that changes any of
    # them fails here rather than moving report bytes
    keys = [("kernel", f"cell {c}") for c in range(3)]
    states = np.concatenate([stream_states(seed, keys, range(100)) for seed in (0, 1729, 1 << 32, (1 << 64) - 1)])
    got, gens = Streams(states), list(Streams(states))
    assert len(states) == 1200 and _pcg_states(got) == [g.bit_generator.state for g in gens]
    # Bellman's row count, then its exponent from the buffered high half
    assert got.integers(1, 4).tolist() == [int(g.integers(1, 4)) for g in gens]
    assert got.integers(1, 5).tolist() == [int(g.integers(1, 5)) for g in gens]
    assert _pcg_states(got) == [g.bit_generator.state for g in gens]
    want = [g.uniform(1.0, 2.0) for g in gens]
    assert instances._scaled(got.random(1)[:, 0], 1.0, 2.0).tolist() == want
    # ragged counts on a subset, then one count on every stream
    counts = 1 + np.arange(len(states)) * 7 % 13
    idx = np.flatnonzero(np.arange(len(states)) % 3)
    u = got.random(counts[idx], idx)
    assert u.shape == (idx.size, counts.max())
    for row, t in zip(u, idx.tolist()):
        assert row[: counts[t]].tobytes() == gens[t].random(counts[t]).tobytes()
    assert got.random(5).tobytes() == np.stack([g.random(5) for g in gens]).tobytes()
    # a row count leaves the high half buffered, and random keeps it there
    assert got.integers(1, 4).tolist() == [int(g.integers(1, 4)) for g in gens]
    assert got.random(2, idx).tobytes() == np.stack([gens[t].random(2) for t in idx.tolist()]).tobytes()
    ends = _pcg_states(got)
    assert ends == [g.bit_generator.state for g in gens] and all(e["has_uint32"] for e in ends)


def test_stream_kernel_follows_lemires_rejection():
    # integers(1, 4) rejects a uint32 of 0, the only one whose product with
    # the range 3 has a low word below (2^32 - 3) mod 3 = 1, and no seeded
    # stream reaches it, so the states are set: stream 0's next output has a
    # low half of 0 and draws again from its buffered high half; stream 1's
    # is 0, so its high half is rejected too and it draws a new output
    states = stream_states(3, [("lemire", t) for t in range(3)])
    got, gens = Streams(states), list(Streams(states))
    inc = (0x5851F42D4C957F2D << 65 | 0x14057B7EF767814F << 1 | 1) & (1 << 128) - 1
    hi = 0x0123456789ABCDEF  # top 6 bits 0: the output is hi xor lo, unrotated
    for t, out in enumerate([0xDEADBEEF00000000, 0]):
        after = (hi << 64) | (hi ^ out)
        _set_pcg(got, t, (after - inc) * _PCG_INVERSE & (1 << 128) - 1, inc, gens[t])
    want = [int(g.integers(1, 4)) for g in gens]
    assert got.integers(1, 4).tolist() == want and want[0] == 1 + (3 * 0xDEADBEEF >> 32)
    ends = _pcg_states(got)
    assert ends == [g.bit_generator.state for g in gens]
    assert [e["has_uint32"] for e in ends] == [0, 1, 1]
    assert got.integers(1, 5).tolist() == [int(g.integers(1, 5)) for g in gens]
    assert _pcg_states(got) == [g.bit_generator.state for g in gens]


def test_stack_draws_are_each_streams_own_draws_bit_for_bit():
    # Streams.uniform and Streams.normal make one draw step of every stream
    # per call, each stream's Generator filling its own row, and take gives
    # a sub-stack on the same Generators: each stream must draw, bit for bit
    # and to its end state, what the same calls on its own Generator draw,
    # steps interleaved in member order and sub-stacks continuing the parent
    states = stream_states(62, [("stack", t) for t in range(7)])
    stack, refs = Streams(states), list(Streams(states))
    lo, hi = np.linspace(0.1, 0.7, 7), np.linspace(0.9, 3.0, 7)
    # (the stack's step on the streams ts, the step on stream t's own Generator)
    steps = [
        (lambda s, ts: s.uniform(0.3, 0.98), lambda g, t: g.uniform(0.3, 0.98)),
        (lambda s, ts: s.uniform(0.2, 1.0, 5), lambda g, t: g.uniform(0.2, 1.0, size=5)),
        (lambda s, ts: s.uniform(lo[ts], hi[ts]), lambda g, t: g.uniform(lo[t], hi[t])),
        (lambda s, ts: s.uniform(lo[ts], hi[ts], 4), lambda g, t: g.uniform(lo[t], hi[t], size=4)),
        (lambda s, ts: s.uniform(0.0, 1.0, 1), lambda g, t: g.random(1)),
        (lambda s, ts: s.normal((2, 3, 3)), lambda g, t: g.standard_normal((2, 3, 3))),
        (lambda s, ts: s.normal((4,)), lambda g, t: g.standard_normal(4)),
    ]
    steps += [steps[3], steps[5]] * 2  # each member draws a spectrum, then its Gaussian

    def assert_steps(got_stack, ts):
        for draw, ref in steps:
            got = draw(got_stack, ts)
            want = np.stack([np.asarray(ref(refs[t], t), dtype=float) for t in ts])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    every = np.arange(7)
    assert_steps(stack, every)
    # the streams 5, 0 and 3 go on drawing in a sub-stack, then every stream
    assert_steps(stack.take(np.array([5, 0, 3])), np.array([5, 0, 3]))
    assert_steps(stack, every)
    assert [g.bit_generator.state for g in stack] == [g.bit_generator.state for g in refs]
    assert stack.take(np.array([], dtype=int)).uniform(0.2, 0.9).shape == (0,)


class _CountingStream:
    """A stream's Generator that counts its ``standard_normal`` calls and passes every draw on."""

    def __init__(self, rng):
        self.rng, self.normal_calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self.rng.standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize(
    "draw",
    [
        lambda rngs: haar_unitary(3, rngs, 1),
        lambda rngs: random_spectrum_matrix(3, (0.5, 2.0), rngs),
        lambda rngs: random_contraction(3, rngs, ["unitary", "ginibre", "ginibre"]),
    ],
    ids=["haar", "spectrum", "contraction"],
)
def test_each_stream_draws_a_gaussian_matrix_in_one_call(draw):
    # the fixed cost of a draw is per call: a Haar or Ginibre matrix takes
    # one standard_normal call per stream, real and imaginary parts together
    states = stream_states(5, [("count", t) for t in range(3)])
    counted = Streams(states)
    counted._generators = [_CountingStream(r) for r in counted]
    assert draw(counted).tobytes() == draw(Streams(states)).tobytes()
    assert [s.normal_calls for s in counted] == [1, 1, 1]


@pytest.mark.parametrize("kind,p", [("bellman", 2.0), ("aczel", 2.0), ("popoviciu", 1.7)])
def test_scalar_instance_head_hypotheses(kind, p):
    rng = Streams(stream_states(8, [()]))  # the stream of np.random.default_rng(8)
    for _ in range(20):
        inst = take(scalar_instance(kind, (1, 3), p, rng), 0).aux
        q = inst["p"]
        assert np.sum(inst["a_j"] ** q) <= inst["a"] ** q + 1e-12
        assert np.sum(inst["b_j"] ** q) <= inst["b"] ** q + 1e-12


@pytest.mark.parametrize("kind", ["mp3", "eq3"])
def test_scalar_instance_column_hypotheses(kind):
    rng = Streams(stream_states(9, [()]))  # the stream of np.random.default_rng(9)
    for _ in range(20):
        inst = take(scalar_instance(kind, (3, 4), 0.4, rng), 0).aux
        q = 1.0 / inst["p"]
        assert np.all(np.sum(inst["a"] ** q, axis=0) <= 1.0 + 1e-12)
        assert abs(inst["weights"].sum() - 1.0) <= 1e-14


def test_scalar_instance_capped_columns():
    rng = Streams(stream_states(10, [()]))  # the stream of np.random.default_rng(10)
    inst = take(scalar_instance("mp1", (2, 3), 0.5, rng), 0).aux
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


@pytest.mark.parametrize("lo,hi", [(0.5, 2.0), (0.1, 1.0), (0.2, 0.9), (0.2, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("size", [None, 1000, (40, 17)])
@pytest.mark.parametrize("after_integers", [False, True])
def test_uniform_draws_are_mapped_random_draws(lo, hi, size, after_integers):
    # the scalar builders and random_weights draw with Generator.random and
    # map each step by lo + (hi - lo) u, numpy's own Generator.uniform
    # formula; a numpy release that changes either gives other draws here
    one, two = Streams(stream_states(61, [("uniform", lo, hi)] * 2))
    if after_integers:
        assert one.integers(1, 4) == two.integers(1, 4)
    want = one.uniform(lo, hi, size)
    got = instances._scaled(two.random(size), lo, hi)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert one.bit_generator.state == two.bit_generator.state


def _loop_random_weights(n, rngs):
    w = np.stack([r.uniform(0.2, 1.0, size=n) for r in rngs])
    return w / w.sum(axis=-1, keepdims=True)


def _loop_head_arrays(kind, cols, p, rngs):
    """The head-kind build drawn and scaled trial by trial with one
    ``uniform`` call per array."""
    p = np.full(len(rngs), 2.0) if kind == "aczel" else p
    aux = {"a": np.empty(len(rngs)), "b": np.empty(len(rngs)), "p": p}
    aux |= {"a_j": np.empty((len(rngs), cols)), "b_j": np.empty((len(rngs), cols))}
    failed = np.zeros(len(rngs), dtype=bool)
    for t, (rng, q) in enumerate(zip(rngs, p.tolist())):
        for name in ("a", "b"):
            if kind == "bellman":
                head = rng.uniform(0.5, 2.0)
                raw = rng.uniform(0.1, 1.0, size=cols)
                theta = rng.uniform(0.2, 0.9)
                tail = raw * (theta * head**q / np.sum(raw**q)) ** (1.0 / q)
                failed[t] = not np.sum(tail**q) <= head**q
            else:
                tail = rng.uniform(0.1, 1.0, size=cols)
                theta = rng.uniform(0.2, 0.9)
                head = (np.sum(tail**q) / theta) ** (1.0 / q)
                failed[t] = not np.sum(tail**q) < head**q
            if failed[t]:
                break
            aux[name][t], aux[f"{name}_j"][t] = head, tail
    return aux, failed


def _loop_column_arrays(kind, rows, cols, p, rngs):
    """The column-kind build drawn trial by trial with one ``uniform`` call
    per array and scaled on the padded stack."""
    q = 1.0 / p
    a = np.zeros((len(rngs), rows.max(), cols))
    theta = np.empty((len(rngs), cols))
    caps = np.empty((len(rngs), cols))
    for t, rng in enumerate(rngs):
        if kind == "mp1":
            caps[t] = rng.uniform(0.5, 2.0, size=cols)
        a[t, : rows[t]] = rng.uniform(0.1, 1.0, size=(rows[t], cols))
        theta[t] = rng.uniform(0.2, 0.9, size=cols)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = caps**q if kind == "mp1" else 1.0
        a = a * ((theta * bound / np.sum(a**q, axis=1)) ** p)[:, None, :]
        failed = ~np.all(np.sum(a**q, axis=1) <= bound, axis=-1)
    aux = {"a": a, "p": np.full(len(rngs), p)}
    if kind == "mp1":
        aux["caps"] = caps
    else:
        aux["weights"] = np.full((len(rngs), cols), np.nan)
        aux["weights"][~failed] = _loop_random_weights(cols, [rng for rng, bad in zip(rngs, failed) if not bad])
    return aux, failed


def _pcg_states(stack):
    """Each stream's ``bit_generator.state`` as a stack drawn on arrays holds
    it: the 128-bit state and increment, and the buffered uint32."""
    hi, lo, inc_hi, inc_lo, held, buffered = (x.tolist() for x in stack._kernel())
    return [
        {"bit_generator": "PCG64", "state": {"state": h << 64 | l, "inc": ih << 64 | il}, "has_uint32": u, "uinteger": b}
        for h, l, ih, il, u, b in zip(hi, lo, inc_hi, inc_lo, held, buffered)
    ]


#: Each head kind with the exponents of its stack, one per trial: Bellman's
#: p in {1, 2, 3, 4} interleaved, Aczel's 2, Popoviciu's in (1, 2) with 1.37,
#: where an array power and a scalar pow differ in the last bit.
_HEAD_EXPONENTS = {
    "bellman": [float(1 + t * 3 % 4) for t in range(48)],
    "aczel": [2.0] * 48,
    "popoviciu": [(1.37, 1.5, 1.91, 1.0 + t / 48)[t % 4] for t in range(48)],
}


@pytest.mark.parametrize("cols", [1, 3, 9, 17])
@pytest.mark.parametrize("kind", ["bellman", "aczel", "popoviciu", "mp3", "eq3", "mp1"])
def test_stacked_scalar_build_equals_the_per_trial_loops(kind, cols):
    # one random call per draw step, the head kinds' array steps per exponent
    # group and the column kinds' per stack give every trial the bits of a
    # build trial by trial with uniform draws, and leave each stream where
    # that build leaves it; 9 and 17 columns reach numpy's pairwise-sum
    # blocks, and the column kinds at p = 0.001 reject part of the stack
    keys = [("loop", kind, cols, t) for t in range(48)]
    for p in [np.array(_HEAD_EXPONENTS[kind])] if kind in _HEAD_EXPONENTS else [0.5, 0.001]:
        got_rngs, want_rngs = Streams(stream_states(71, keys)), Streams(stream_states(71, keys))
        if kind in _HEAD_EXPONENTS:
            got, got_failed = instances._head_arrays(kind, cols, p, got_rngs)
            want, want_failed = _loop_head_arrays(kind, cols, p, want_rngs)
            held = {"a": ~want_failed, "b": ~want_failed, "a_j": ~want_failed, "b_j": ~want_failed, "p": slice(None)}
        else:
            rows = np.array([1 + t % 3 for t in range(48)])
            got, got_failed = instances._column_arrays(kind, rows, cols, p, got_rngs)
            want, want_failed = _loop_column_arrays(kind, rows, cols, p, want_rngs)
            held = dict.fromkeys(want, slice(None)) | ({"weights": ~want_failed} if "weights" in want else {})
            assert want_failed.any() == (p == 0.001) and not want_failed.all()
        assert got_failed.tobytes() == want_failed.tobytes(), (kind, cols, p)
        assert got.keys() == want.keys()
        for name, rows_kept in held.items():
            assert got[name][rows_kept].tobytes() == want[name][rows_kept].tobytes(), (kind, cols, p, name)
        assert _pcg_states(got_rngs) == [r.bit_generator.state for r in want_rngs]


def test_row_power_keeps_the_bits_of_a_scalar_power():
    # the head kinds raise each trial's row to its own exponent in one call;
    # every row must get the bits of x ** q with q a Python float, which
    # numpy sends to square, sqrt, positive, reciprocal or ones_like at 2,
    # 0.5, 1, -1 and 0 and to its array power otherwise.  A numpy whose
    # array power with an exponent array differs from that with a scalar
    # one fails here.  The extremes are kept where the reference neither
    # overflows nor divides, so that a fast path evaluated on the rows of
    # another exponent (square of 1e300, reciprocal of 5e-324) trips the
    # RuntimeWarning filter
    exponents = [0.0, -1.0, 0.5, 1.0, 2.0, 3.0, 4.0, 1.37, 1.0 / 3.0] + [1.0 + k / 48 for k in range(48)]
    q = np.array(exponents)[np.random.default_rng(3).permutation(len(exponents))]
    u = np.random.default_rng(4).uniform(0.1, 1.0, size=(len(q), 40))
    x = np.array(
        [[*row, 1.0, 5e-324 if e >= 0.0 else 1e-300, 1e300 if e <= 1.0 else 1e300 ** (1.0 / e)] for row, e in zip(u, q)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = instances._row_power(x, q)
        for i, e in enumerate(q.tolist()):
            want = x[i] ** e
            assert got[i].tobytes() == want.tobytes(), f"np.power with an exponent array differs from x ** {e!r}"
