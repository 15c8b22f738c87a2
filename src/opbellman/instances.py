"""Seed-deterministic random instances satisfying inequality hypotheses.

Every generator is a pure function of (seed-derived rng); released
families re-verify their declared hypotheses in the Loewner order with
a positive margin, so the construction itself is never trusted.  Trial k
of a campaign draws from a counter-derived stream (``stream_states``),
which makes campaigns order-independent.

Every generator takes one Generator and returns d x d matrices, or a list
of Generators, one per trial, and returns stacks (trials, d, d).  A family
of n members carries a member axis in front: (n, trials, d, d), or (n, d, d)
for one Generator.  Each stream gets the draws, in the order, that it gets
alone, member by member; the linear algebra runs once on the stack of every
member and trial and gives each matrix the bits it gets alone.  A
hypothesis that fails on some trials of a stack raises ``HypothesisError``
naming them in ``where``.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError, ParameterError
from .means import POSITIVE_HALFLINE, RepresentingFunction, mean
from .positive_maps import take_map
from .spectral import _any, _eigvalsh, apply_function, from_spectrum, hermitize, identity, spectral_norm

#: Hypothesis margin every released instance must clear.
DEFAULT_MARGIN = 1e-6

#: Fraction of [m, M] kept clear at each end when drawing inner spectra.
EDGE_SHRINK = 0.02

#: Cap on gamma * ||sum of pairwise means|| keeping power bases away from 0.
BASE_CAP = 0.9

#: Smallest family scale a complement-sandwich draw may need before it is rejected.
MIN_SCALE = 1e-8

#: numpy's ``SeedSequence`` hash constants.  ``mix_entropy`` hashes each
#: word x with the running constant h as ((x ^ h_i) * h_(i+1)) xor-shifted
#: right by 16, where h_0 = 0x43B0D7E5 and h_(i+1) = h_i * 0x931E8875 mod
#: 2^32, and mixes two words as (0xCA01F9DD x - 0x4973F715 y) xor-shifted
#: right by 16.  ``generate_state`` hashes the pool the same way from h_0 =
#: 0x8B51F9DD, h_(i+1) = h_i * 0x58F38DED.  No h depends on the data, so
#: each step runs once on the words of every key of one length.
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hashes(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(h_0 .. h_(count-1), h_1 .. h_count) of the chain h_(i+1) = h_i * mult
    mod 2^32 from h_0 = init, as uint32 arrays: the xor and the multiplier
    of each of ``count`` hashes in turn."""
    h = np.array(list(itertools.accumulate(range(count), lambda x, _: x * mult & 0xFFFFFFFF, initial=init)))
    return h[:-1].astype(np.uint32), h[1:].astype(np.uint32)


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """The hash of uint32 words x with the constants (xor, mul), broadcast."""
    x = x ^ xor
    x *= mul
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The pool words x with the hashed words y mixed in."""
    x = _MIX_L * x - _MIX_R * y
    x ^= x >> 16
    return x


def _pools(words: np.ndarray) -> np.ndarray:
    """The 4-word pools (keys, 4) numpy's ``SeedSequence.mix_entropy`` forms
    from the uint32 words (keys, length) of keys of one length.

    Each hash of the mixing loop uses the next constant of one chain, so
    the three hashes of a source word into the other pool words, or the
    four of a word past the pool, run as one array step."""
    length = words.shape[1]
    xor, mul = _hashes(_MIX_INIT, _MIX_MULT, 16 + 4 * max(length - 4, 0))
    pool = np.zeros((len(words), 4), dtype=np.uint32)
    pool[:, : min(length, 4)] = words[:, :4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    for src in range(4):
        k = 4 + 3 * src
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], xor[k : k + 3], mul[k : k + 3]))
    for src in range(4, length):
        k = 16 + 4 * (src - 4)
        pool = _mix(pool, _hashmix(words[:, src, None], xor[k : k + 4], mul[k : k + 4]))
    return pool


@functools.cache
def _state_type() -> type:
    """The class that hands ``PCG64`` a state already hashed, through numpy's
    seed interface.  It is made on first use, as ``numpy.random`` loads on
    first use: imported with the package, ``numpy.random`` added about 9 ms
    and 2 MB to every start-up, before any draw."""
    from numpy.random.bit_generator import ISeedSequence

    class PCG64State(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint64):
            return self.state

    return PCG64State


def _words(part) -> tuple[int, ...]:
    """The uint32 words ``SeedSequence`` splits a key part into: a string's
    crc32, an int's low word then its high word when it has one ([0] for 0).
    An int outside [0, 2^64) raises: masked, it would take another key's
    stream."""
    if isinstance(part, str):
        return (zlib.crc32(part.encode("utf-8")),)
    x = int(part)
    if not 0 <= x < 1 << 64:
        raise ParameterError(f"stream key {x}: must be in [0, 2^64)")
    return (x & 0xFFFFFFFF, x >> 32) if x >> 32 else (x,)


def stream_states(seed: int, keys) -> np.ndarray:
    """The PCG64 states (keys, 4) of one stream per key of ``keys`` (a list
    of tuples): the state ``np.random.SeedSequence(words)``
    seeds, bit for bit, where ``words`` are the uint32 words of (seed, *key),
    strings crc32-folded and ints in [0, 2^64).  ``streams`` makes the
    Generators.

    The keys are grouped by word count, each group's pools are mixed in one
    array pass (``_pools``), and every pool is hashed into its state in one
    more (numpy's ``generate_state``); no ``SeedSequence`` is made.
    """
    head = _words(seed)
    words = {part: _words(part) for part in set(itertools.chain.from_iterable(keys))}.__getitem__
    rows = [sum(map(words, key), head) for key in keys]
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    pools = np.empty((len(rows), 4), dtype=np.uint32)
    for idx in by_length.values():
        pools[idx] = _pools(np.array([rows[i] for i in idx], dtype=np.uint32))
    x = _hashmix(np.concatenate([pools, pools], axis=1), *_hashes(_STATE_INIT, _STATE_MULT, 8))
    # each pair of words is one uint64, low word first, on any byte order
    return x.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def streams(states: np.ndarray) -> list[np.random.Generator]:
    """One Generator per PCG64 state of ``stream_states``, each state handed
    to ``PCG64`` as it is (``_state_type``); the same states give fresh
    streams with the same draws."""
    state = _state_type()
    return [np.random.Generator(np.random.PCG64(state(s))) for s in states]


@dataclass
class InstanceFamily:
    """One concrete instance: operand families plus whatever a check needs.

    ``A`` and ``B`` hold the members on one axis in front of the trial axis,
    (n, trials, d, d), or (n, d, d) for one trial; a list of members is
    stacked.  A scalar family has no operands (``A`` is None)."""

    hypothesis_tag: str
    A: np.ndarray | None = None
    B: np.ndarray | None = None
    weights: np.ndarray | None = None
    maps: list | None = None
    aux: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.A, (list, tuple)):
            self.A = np.asarray(self.A) if self.A else None
        if isinstance(self.B, (list, tuple)):
            self.B = np.asarray(self.B)


def take(stack: InstanceFamily, idx) -> InstanceFamily:
    """The trials ``idx`` of a family stacked on a trial axis, the axis after
    the operands' member axis: an int gives that trial's family (views of
    its members' d x d matrices), an index array a smaller stack.  A
    ``meta`` array holds one value per trial.  A scalar stack
    (``scalar_instance``) pads its matrix to its largest row count, so one
    trial's is cut to that trial's ``meta["rows"]``."""
    aux = {k: v[idx] for k, v in stack.aux.items()}
    meta = {k: v[idx] if isinstance(v, np.ndarray) else v for k, v in stack.meta.items()}
    if "rows" in meta and np.ndim(idx) == 0:
        aux["a"] = aux["a"][: meta["rows"]]
    return InstanceFamily(
        hypothesis_tag=stack.hypothesis_tag,
        A=None if stack.A is None else stack.A[:, idx],
        B=None if stack.B is None else stack.B[:, idx],
        weights=None if stack.weights is None else stack.weights[idx],
        maps=None if stack.maps is None else [take_map(m, idx) for m in stack.maps],
        aux=aux,
        meta=meta,
    )


def _trial_factor(x):
    """A number as it is, or an array of one value per trial shaped
    (trials, 1, 1), to scale a stack of matrices trial by trial."""
    return x.reshape(-1, 1, 1) if isinstance(x, np.ndarray) else x


def _streams(rng) -> tuple[list, bool]:
    """(the trials' streams, whether one Generator was given rather than a list)."""
    if isinstance(rng, np.random.Generator):
        return [rng], True
    return list(rng), False


def _unstacked(x: np.ndarray, n: int | None, one: bool) -> np.ndarray:
    """A stack (members, trials, ...) as a generator returns it: without the
    member axis when no member count ``n`` was asked for, without the trial
    axis when one Generator was given."""
    if one:
        x = x[:, 0]
    return x if n is not None else x[0]


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The real and the imaginary part (2, d, d) of a complex Gaussian d x d
    matrix, in one call: the values of two (d, d) calls, in their order."""
    return rng.standard_normal((2, dim, dim))


def _complex(g: np.ndarray) -> np.ndarray:
    """The complex matrices re + 1j im of a stack (..., 2, d, d) of Gaussian
    draws, formed once for the stack."""
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _unitary_factor(z: np.ndarray) -> np.ndarray:
    """Q of each matrix's QR with the phases of R's diagonal folded in."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _haar(g: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack (..., 2, d, d) of Gaussian draws, in one QR call."""
    return _unitary_factor(_complex(g) / np.sqrt(2.0))


def haar_unitary(dim: int, rng, n: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix with
    phase normalization of the triangular factor's diagonal (the standard
    construction); with ``n``, n of them per stream, member axis first.

    Each stream makes one ``standard_normal`` call for all its members; the
    complex matrices, their QR and the phases are formed once on the stack.
    """
    if dim < 1:
        raise ParameterError("dim must be at least 1")
    rngs, one = _streams(rng)
    g = np.empty((n or 1, len(rngs), 2, dim, dim))
    for t, r in enumerate(rngs):
        g[:, t] = r.standard_normal(g[:, t].shape)  # the n Gaussians of n calls
    return _unstacked(_haar(g), n, one)


def random_unitary_mixture(dim: int, k: int, rng, n: int | None = None) -> tuple[np.ndarray, list]:
    """(weights, unitaries) of a mixture of k Haar unitaries: positive
    weights summing to one, on a last axis of k, and a list of the k
    unitaries; with ``n``, n mixtures per stream, member axis first.

    Each stream draws member by member a mixture's weights in one
    ``random`` call, as ``random_weights`` does, then its k Gaussians in one
    ``standard_normal`` call, as k ``haar_unitary`` calls do; one QR call
    forms every unitary.
    """
    rngs, one = _streams(rng)
    u = np.empty((n or 1, len(rngs), k))
    g = np.empty((n or 1, len(rngs), k, 2, dim, dim))
    for t, r in enumerate(rngs):
        for j in range(n or 1):
            u[j, t] = r.random(k)
            g[j, t] = r.standard_normal((k, 2, dim, dim))
    return _unstacked(_weights(u), n, one), [_unstacked(x, n, one) for x in np.moveaxis(_haar(g), 2, 0)]


def _spectral(dim: int, intervals, rngs: list, n: int) -> np.ndarray:
    """Hermitian matrices (len(intervals), n, trials, d, d), each with
    eigenvalues drawn uniformly from its interval [a, b], whose ends are
    numbers or one per stream.

    Each stream draws member by member, for each interval in turn, its
    spectrum and then its Gaussian: the draws of ``random_spectrum_matrix``
    called once per interval for each member in turn.  One QR call forms
    every matrix."""
    bounds = [[x.tolist() if isinstance(x, np.ndarray) else [x] * len(rngs) for x in iv] for iv in intervals]
    for (a, b), iv in zip(bounds, intervals):
        if any(lo > hi for lo, hi in zip(a, b)):
            raise ParameterError(f"need a <= b, got [{iv[0]}, {iv[1]}]")
    lam = np.empty((len(intervals), n, len(rngs), dim))
    g = np.empty((len(intervals), n, len(rngs), 2, dim, dim))
    for t, r in enumerate(rngs):
        for j in range(n):
            for i, (a, b) in enumerate(bounds):
                lam[i, j, t] = r.uniform(a[t], b[t], size=dim)
                g[i, j, t] = _gaussian(dim, r)
    return hermitize(from_spectrum(_haar(g), np.sort(lam, axis=-1)))


def random_spectrum_matrix(dim: int, interval: tuple[float, float], rng, n: int | None = None) -> np.ndarray:
    """Hermitian matrix with eigenvalues drawn uniformly from [a, b]; for a
    list of streams, a and b are numbers or one per stream.  With ``n``, n
    of them per stream, member axis first."""
    rngs, one = _streams(rng)
    return _unstacked(_spectral(dim, [interval], rngs, n or 1)[0], n, one)


def random_pd(dim: int, rng, lo: float = 0.5, hi: float = 1.5, n: int | None = None) -> np.ndarray:
    """Positive definite matrix with spectrum in [lo, hi] (lo > 0); with
    ``n``, n of them per stream, member axis first."""
    if lo <= 0.0:
        raise ParameterError("positive definite draw needs lo > 0")
    return random_spectrum_matrix(dim, (lo, hi), rng, n)


def random_contraction(dim: int, rng, kind="ginibre") -> np.ndarray:
    """Random contraction: scaled Ginibre (possibly non-normal, possibly
    nearly singular) or a scaled Haar unitary (well-conditioned).

    ``kind`` is one kind, or one per stream of a list.  Each stream draws
    in its own kind's order; one QR and one SVD call serve every trial,
    whatever the mix of kinds.
    """
    rngs, one = _streams(rng)
    unitary = np.broadcast_to(np.asarray(kind) == "unitary", (len(rngs),))
    s = np.empty((len(rngs), 1, 1))
    g = []
    for t, (r, u) in enumerate(zip(rngs, unitary)):
        if u:
            s[t] = r.uniform(0.3, 0.98)
        g.append(_gaussian(dim, r))
        if not u:
            s[t] = r.uniform(0.2, 0.95)
    g = _complex(np.stack(g))
    c = np.where(
        unitary[:, None, None],
        s * _unitary_factor(g / np.sqrt(2.0)),
        s * g / spectral_norm(g)[:, None, None],
    )
    return c[0] if one else c


def _sandwiched(a: np.ndarray, t: np.ndarray, m, M) -> tuple[np.ndarray, np.ndarray]:
    """(B, failed): B = A^{1/2} T A^{1/2} of each pair of stacks (..., trials,
    d, d), m and M numbers or one per trial, and whether m A <= B <= M A
    fails, from lambda_min(B - m A) and lambda_min(M A - B) in one
    ``_eigvalsh`` call, per matrix of the stack."""
    root = apply_function(a, np.sqrt, POSITIVE_HALFLINE)
    b = hermitize(root @ t @ root)
    low = _eigvalsh(hermitize(np.stack([b - _trial_factor(m) * a, _trial_factor(M) * a - b])))[..., 0]
    return b, (low < 0.0).any(axis=0)


def _sandwich_window(m, M) -> tuple:
    """The window [m + delta, M - delta] of an inner spectrum, delta =
    EDGE_SHRINK (M - m); refuses unless 0 < m < M."""
    if not np.all((0.0 < m) & (m < M)):
        raise ParameterError(f"need 0 < m < M, got m={m}, M={M}")
    delta = EDGE_SHRINK * (M - m)
    return m + delta, M - delta


def random_sandwich_pair(a: np.ndarray, m: float, M: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with m A <= B <= M A via B = A^{1/2} T A^{1/2}, m I <= T <= M I;
    for a list of streams, m and M are numbers or one per stream.

    The inner spectrum is shrunk away from m and M so the sandwich holds
    with margin at least EDGE_SHRINK (M - m) lambda_min(A); both sides are
    re-verified from lambda_min(B - m A) and lambda_min(M A - B), and a
    ``HypothesisError`` names the failing pairs of a stack in ``where``.
    """
    t = random_spectrum_matrix(a.shape[-1], _sandwich_window(m, M), rng)
    b, failed = _sandwiched(a, t, m, M)
    if _any(failed):
        raise HypothesisError("sandwich construction failed verification", where=failed)
    return a, b


def random_sandwich_family(dim: int, n: int, interval: tuple[float, float], m, M, rng) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (A_j, B_j) per stream, member axis first, with the spectrum of
    A_j drawn from ``interval`` and m A_j <= B_j <= M A_j: the pairs
    ``random_sandwich_pair(random_spectrum_matrix(dim, interval, rng), m,
    M, rng)`` makes member by member, drawn in that order by each stream.
    One QR call forms every A_j and T_j, one ``eigh`` call takes the roots
    and one ``_eigvalsh`` call verifies every sandwich; a
    ``HypothesisError`` names the trials with a failing pair in ``where``.
    """
    rngs, one = _streams(rng)
    a, t = _spectral(dim, [interval, _sandwich_window(m, M)], rngs, n)
    b, failed = _sandwiched(a, t, m, M)
    failed = failed.any(axis=0)
    if failed.any():
        raise HypothesisError("sandwich construction failed verification", where=failed[0] if one else failed)
    return _unstacked(a, n, one), _unstacked(b, n, one)


def random_subidentity_family(n: int, dim: int, rng, cap) -> np.ndarray:
    """A_1..A_n >= 0 with sum A_j <= cap * I, cap in (0, 1) (one per trial
    of a stack), member axis first.

    Raw positive-definite draws are rescaled by cap / lambda_max(sum), so
    each member keeps a healthy relative spectral floor.  A list of caps
    gives one family per cap, on a leading axis: each stream draws the
    families' members in turn, as one family of len(cap) n members, so one
    QR call forms them all and one ``_eigvalsh`` call takes every family's
    lambda_max(sum).
    """
    caps = [np.asarray(c) for c in (cap if isinstance(cap, list) else [cap])]
    if not all(np.all((0.0 < c) & (c < 1.0)) for c in caps):
        raise ParameterError(f"cap must be in (0, 1), got {cap}")
    raw = random_pd(dim, rng, 0.2, 1.0, len(caps) * n)
    raw = raw.reshape((len(caps), n) + raw.shape[1:])
    top = _eigvalsh(sum(raw.swapaxes(0, 1)))[..., -1]
    scale = np.stack([c / t for c, t in zip(caps, top)])[:, None, ..., None, None]
    out = hermitize(scale * raw)
    return out if isinstance(cap, list) else out[0]


def _scaled(u, lo: float, hi: float):
    """Draws u of ``Generator.random`` mapped to [lo, hi) by numpy's own
    ``Generator.uniform`` formula, so they are, bit for bit, the values the
    same stream's ``uniform(lo, hi)`` calls give."""
    return lo + (hi - lo) * u


def random_weights(n: int, rng) -> np.ndarray:
    """Positive weights summing to one: one ``random`` call per stream."""
    if n < 1:
        raise ParameterError("need n >= 1")
    rngs, one = _streams(rng)
    w = _weights(np.stack([r.random(n) for r in rngs]))
    return w[0] if one else w


def _weights(u: np.ndarray) -> np.ndarray:
    """Positive weights summing to one along the last axis, from draws u of
    ``Generator.random``: u mapped to [0.2, 1), then normalized."""
    w = _scaled(u, 0.2, 1.0)
    return w / w.sum(axis=-1, keepdims=True)


def _scale_limit(
    gamma_value: float,
    sum_a: np.ndarray,
    sum_b: np.ndarray,
    sum_means: np.ndarray,
    m: float,
    M: float,
    margin: float,
):
    """Largest s for which the family scaled by s is complement-sandwiched,
    per trial of a stack, where gamma, m and M are numbers or one per trial.

    Every constraint is affine in s: lambda_min(c I - g s X) = c - g s
    lambda_max(X) >= margin for (c, X) in (1, sum A), (1, sum B),
    (1 - m, sum B - m sum A), (M - 1, M sum A - sum B), plus the base cap
    g s lambda_max(sum of means) <= BASE_CAP.  A constraint whose
    lambda_max(X) is not positive never binds.  One ``_eigvalsh`` call
    takes all five.
    """
    rooms = np.stack(np.broadcast_arrays(1.0 - margin, 1.0 - margin, 1.0 - m - margin, M - 1.0 - margin, BASE_CAP))
    mf, Mf = _trial_factor(m), _trial_factor(M)
    xs = np.stack([sum_a, sum_b, sum_b - mf * sum_a, Mf * sum_a - sum_b, sum_means])
    top = gamma_value * _eigvalsh(xs)[..., -1]
    rooms = rooms.reshape(rooms.shape + (1,) * (top.ndim - rooms.ndim))
    return np.divide(rooms, top, out=np.full(top.shape, math.inf), where=top > 0.0).min(axis=0)


def complement_sandwich_family(
    dim: int,
    n: int,
    interval: tuple[float, float],
    f: RepresentingFunction,
    gamma_value: float,
    rng,
) -> InstanceFamily:
    """Pairs (A_j, B_j) with m A_j <= B_j <= M A_j whose gamma-weighted
    complements I - gamma sum A_j and I - gamma sum B_j satisfy the same
    [m, M] sandwich with positive margin.

    Each trial draws its n sandwich pairs once, and the whole family is
    rescaled by a scalar s in (0, 1].  Each hypothesis on the scaled family
    is affine in s, so the largest feasible scale s_max has a closed form
    (``_scale_limit``): s = 1 when s_max >= 1, otherwise s = s_max (1 -
    1e-6).  The scaled family is re-verified with ``DEFAULT_MARGIN``, and a
    trial whose s_max is below ``MIN_SCALE`` or whose verification fails is
    rejected: a ``HypothesisError`` names the rejected trials in ``where``,
    as a failed sandwich pair does.

    For a list of streams, m, M and gamma are numbers or one per stream, and
    f is one function or a per-trial one (``means.per_trial_function``);
    ``meta`` holds each trial's scale and gamma.
    """
    if dim < 1 or n < 1:
        raise ParameterError("dim and n must be at least 1")
    rngs, one = _streams(rng)
    m, M, gamma = (np.broadcast_to(np.ravel(x), len(rngs)) for x in (*interval, gamma_value))
    if not np.all((0.0 < m) & (m < 1.0) & (1.0 < M)):
        raise ParameterError(f"complement sandwich needs 0 < m < 1 < M, got [{interval[0]}, {interval[1]}]")
    a, b = random_sandwich_family(dim, n, (0.5, 1.5), m, M, rngs)
    s_max = _scale_limit(gamma, sum(a), sum(b), sum(mean(a, b, f)), m, M, DEFAULT_MARGIN)
    s = np.where(s_max >= 1.0, 1.0, s_max * (1.0 - 1e-6))
    family = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=hermitize(_trial_factor(s) * a),
        B=hermitize(_trial_factor(s) * b),
        meta={"scale": s, "gamma": np.array(gamma)},
    )
    failed = (s_max < MIN_SCALE) | ~_verify_complement_family(family, gamma, m, M, DEFAULT_MARGIN)
    if failed.any():
        raise HypothesisError("no complement-sandwiched scale of the drawn family", where=failed[0] if one else failed)
    return take(family, 0) if one else family


def _verify_complement_family(
    fam: InstanceFamily,
    gamma_value: float,
    m: float,
    M: float,
    margin: float,
):
    """Whether every pairwise and complement sandwich holds with slack >=
    margin, per trial of a stack, where gamma, m and M are numbers or one
    per trial.

    The slack of X <= Y is lambda_min(hermitize(Y - X)), as in
    ``loewner_leq``, without the spectral norms behind its tolerance; one
    ``_eigvalsh`` call takes every gap.
    """
    eye = identity(fam.A.shape[-1])
    g, m, M = _trial_factor(gamma_value), _trial_factor(m), _trial_factor(M)
    comp_a = eye - g * sum(fam.A)
    comp_b = eye - g * sum(fam.B)
    gaps = np.concatenate(
        [fam.B - m * fam.A, M * fam.A - fam.B, np.stack([comp_a, comp_b, comp_b - m * comp_a, M * comp_a - comp_b])]
    )
    return (_eigvalsh(hermitize(gaps))[..., 0] >= margin).all(axis=0)


#: The scalar kinds whose hypothesis bounds a head power by its column's.
HEAD_KINDS = ("bellman", "aczel", "popoviciu")

#: The scalar kinds whose hypothesis bounds each column sum of a_ij^(1/p).
COLUMN_KINDS = ("mp3", "eq3", "mp1")


def scalar_instance(kind: str, sizes: tuple, p, rng) -> InstanceFamily:
    """Positive scalar arrays satisfying one classical-inequality hypothesis,
    in ``aux`` with the exponent ``p``.

    ``sizes`` is (rows, cols), rows sizing the matrix of the column kinds;
    constraints are imposed with a random contraction factor theta < 1 and
    re-verified.  The column constraints of the weighted Bellman kinds use
    the exponent 1/p, matching the displayed inequalities they feed.

    One Generator gives one instance.  A list of streams gives a stack, whose
    arrays carry a leading trial axis: rows and a head kind's p are numbers
    or one per stream, a column kind's p is one number.  A column kind's
    matrix ``a`` is zero-padded to the stack's largest row count, and
    ``meta["rows"]`` holds each trial's, so ``take`` gives a trial its own
    rows.  Each stream draws what it draws alone, in that order, each step
    in one ``random`` call mapped on the stack by ``_scaled``: the kind's
    arrays, then the weights of a trial that met its hypothesis.

    The column kinds scale and re-verify the whole stack in one pass, which
    gives each trial the bits it gets alone: their exponent is one number,
    numpy's array power does not depend on the array's size, and a padded
    row adds exact zeros.  The head kinds run their array steps once per
    group of trials with one exponent value; each trial's head is raised to
    its exponent, and a column sum to its inverse, with a scalar pow on
    Python floats, which an array power does not reproduce to the last bit.
    A ``HypothesisError`` names the rejected trials in ``where``.
    """
    rngs, one = _streams(rng)
    rows = np.broadcast_to(np.asarray(sizes[0], dtype=int), (len(rngs),))
    cols = sizes[1]
    if rows.min() < 1 or cols < 1:
        raise ParameterError("sizes must be at least 1")
    if kind in HEAD_KINDS:
        if np.min(p) < 1.0:
            raise ParameterError(f"{kind} needs p >= 1, got {p}")
        aux, failed = _head_arrays(kind, cols, np.broadcast_to(np.asarray(p, dtype=float), (len(rngs),)), rngs)
    elif kind in COLUMN_KINDS:
        if not 0.0 < p < 1.0:
            raise ParameterError(f"{kind} needs p in (0, 1), got {p}")
        aux, failed = _column_arrays(kind, rows, cols, p, rngs)
    else:
        raise ParameterError(f"unknown scalar instance kind {kind!r}")
    if failed.any():
        raise HypothesisError(f"{kind} instances failed their hypothesis", where=failed[0] if one else failed)
    meta = {"rows": rows} if kind in COLUMN_KINDS else {}
    stack = InstanceFamily(hypothesis_tag=f"scalar_{kind}", aux=aux, meta=meta)
    return take(stack, 0) if one else stack


def _head_arrays(kind: str, cols: int, p: np.ndarray, rngs: list) -> tuple[dict, np.ndarray]:
    """(arrays, rejected) of a head kind: heads ``a``, ``b``, tails ``a_j``,
    ``b_j`` and the exponent (2 for aczel).  Each stream draws a side in one
    call, Bellman's head, raw tail and theta or the others' tail and theta;
    a trial draws its ``b`` only once its ``a`` holds."""
    p = np.full(len(rngs), 2.0) if kind == "aczel" else p
    aux = {"a": np.empty(len(rngs)), "b": np.empty(len(rngs)), "p": p}
    aux |= {"a_j": np.empty((len(rngs), cols)), "b_j": np.empty((len(rngs), cols))}
    failed = np.zeros(len(rngs), dtype=bool)
    live = np.arange(len(rngs))
    size = cols + 2 if kind == "bellman" else cols + 1
    for name in ("a", "b"):
        if not live.size:
            break
        u = np.stack([rngs[t].random(size) for t in live.tolist()])
        held = np.empty(live.size, dtype=bool)
        exponents = p[live]
        for q in dict.fromkeys(exponents.tolist()):
            g = np.flatnonzero(exponents == q)
            aux[name][live[g]], aux[f"{name}_j"][live[g]], held[g] = _head_side(kind, u[g], q)
        failed[live[~held]] = True
        live = live[held]
    return aux, failed


def _head_side(kind: str, u: np.ndarray, q: float) -> tuple[list, np.ndarray, np.ndarray]:
    """(heads, tails, held) of one side of the trials of one exponent q, from
    their draws u (trials, k): the array steps run once for the group, each
    pow of a head or of a column sum on its trial's Python float."""
    theta = _scaled(u[:, -1], 0.2, 0.9).tolist()
    if kind == "bellman":
        head = _scaled(u[:, 0], 0.5, 2.0).tolist()
        raw = _scaled(u[:, 1:-1], 0.1, 1.0)
        top = [h**q for h in head]
        sums = np.sum(raw**q, axis=1).tolist()
        tail = raw * np.array([(t * h / s) ** (1.0 / q) for t, h, s in zip(theta, top, sums)])[:, None]
        return head, tail, np.sum(tail**q, axis=1) <= top
    tail = _scaled(u[:, :-1], 0.1, 1.0)
    sums = np.sum(tail**q, axis=1)
    head = [(s / t) ** (1.0 / q) for s, t in zip(sums.tolist(), theta)]
    return head, tail, sums < [h**q for h in head]


def _column_arrays(kind: str, rows: np.ndarray, cols: int, p: float, rngs: list) -> tuple[dict, np.ndarray]:
    """(arrays, rejected) of a column kind: each stream draws mp1's caps, its
    matrix and the column factors theta in one call, rows of cols; the stack
    (trials, largest row count, cols) is then scaled so that each column sum
    of a_ij^(1/p) is theta (theta caps^(1/p) for mp1) and re-verified in one
    pass.  Then each stream of a trial that holds draws mp3's and eq3's
    weights, also where another trial fails."""
    q = 1.0 / p
    lead = int(kind == "mp1")
    # row 0 holds mp1's caps, the next rows[t] rows the matrix, the last drawn row theta
    u = np.zeros((len(rngs), lead + rows.max() + 1, cols))
    for t, (rng, r) in enumerate(zip(rngs, rows.tolist())):
        u[t, : lead + r + 1] = rng.random((lead + r + 1, cols))
    caps = _scaled(u[:, 0], 0.5, 2.0) if lead else None
    own = (np.arange(rows.max()) < rows[:, None])[..., None]
    a = np.where(own, _scaled(u[:, lead : lead + rows.max()], 0.1, 1.0), 0.0)
    theta = _scaled(u[np.arange(len(rngs)), lead + rows], 0.2, 0.9)
    # an underflowed column sum makes a padded row 0 * inf; the trial fails either way
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = caps**q if lead else 1.0  # theta * 1.0 is theta, bit for bit
        a = a * ((theta * bound / np.sum(a**q, axis=1)) ** p)[:, None, :]
        failed = ~np.all(np.sum(a**q, axis=1) <= bound, axis=-1)
    aux = {"a": a, "p": np.full(len(rngs), p)}
    if lead:
        aux["caps"] = caps
    elif not failed.all():
        aux["weights"] = random_weights(cols, [rng for rng, bad in zip(rngs, failed) if not bad])
    return aux, failed
