"""Seed-deterministic random instances satisfying inequality hypotheses.

Every generator is a pure function of its seed-derived streams; released
families re-verify their declared hypotheses in the Loewner order with
a positive margin, so the construction itself is never trusted.  Trial k
of a campaign draws from a counter-derived stream (``stream_states``),
which makes campaigns order-independent.

Every generator takes a ``Streams`` stack, one stream per trial.  An
operator generator draws through ``Streams.uniform``, ``Streams.normal``
and ``Streams.take``, one draw step of every stream per call, and returns
n members per stream on a member axis in front of the trial axis, (n,
trials, d, d), n = 1 by default; ``random_contraction`` and
``random_weights`` return one matrix or weight vector per stream, (trials,
d, d) and (trials, n).  The scalar generator draws on the stack's arrays.
Each stream gets the draws, in the order, that it gets alone, member by
member; the linear algebra runs once on the stack of every member and
trial and gives each matrix the bits it gets alone.  A hypothesis that
fails on some trials of a stack raises ``HypothesisError`` naming them in
``where``.
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
from .spectral import _certified_at_least, _eigvalsh, _hermitize_in_place, apply_function, from_spectrum
from .spectral import hermitize, identity, spectral_norm

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


def _trial_tails(trials) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, uint32 words) of the trial indices ``trials`` of one word,
    then of those of two (from 2^32), low word first, each group that has
    any; an index outside [0, 2^64) raises, as ``_words`` does."""
    if len(trials) and not (0 <= min(trials) and max(trials) < 1 << 64):
        raise ParameterError(f"stream key trials in [{min(trials)}, {max(trials)}]: must be in [0, 2^64)")
    t = np.asarray(trials, dtype=np.uint64)
    words = np.stack([t & np.uint64(0xFFFFFFFF), t >> np.uint64(32)], axis=1).astype(np.uint32)
    groups = [np.flatnonzero(words[:, 1] == 0), np.flatnonzero(words[:, 1])]
    return [(idx, words[idx, :width]) for width, idx in enumerate(groups, 1) if idx.size]


def stream_states(seed: int, keys, trials=None) -> np.ndarray:
    """The PCG64 states (streams, 4) of one stream per key of ``keys`` (a list
    of tuples), or with ``trials`` (ints) of one stream per key and trial,
    key by key, the trial the key's last part: the state
    ``np.random.SeedSequence(words)`` seeds, bit for bit, where ``words``
    are the uint32 words of (seed, *key[, trial]), strings crc32-folded and
    ints in [0, 2^64).  ``Streams`` draws from them.

    The words of (seed, *key) are formed once per key and each trial's one
    word (two from 2^32) appended as the last columns; the pools of every
    key and trial of one word count are mixed in one array pass
    (``_pools``), and every pool is hashed into its state in one more
    (numpy's ``generate_state``); no ``SeedSequence`` is made.
    """
    head = _words(seed)
    words = {part: _words(part) for part in set(itertools.chain.from_iterable(keys))}.__getitem__
    rows = [sum(map(words, key), head) for key in keys]
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    tails = [(np.zeros(1, dtype=int), np.empty((1, 0), dtype=np.uint32))] if trials is None else _trial_tails(trials)
    count = 1 if trials is None else len(trials)
    pools = np.empty((len(rows) * count, 4), dtype=np.uint32)
    for kidx in by_length.values():
        key_words = np.array([rows[i] for i in kidx], dtype=np.uint32)
        for tidx, tail in tails:
            grid = np.concatenate([np.repeat(key_words, tidx.size, axis=0), np.tile(tail, (len(kidx), 1))], axis=1)
            pools[np.add.outer(np.multiply(kidx, count), tidx).ravel()] = _pools(grid)
    x = _hashmix(np.concatenate([pools, pools], axis=1), *_hashes(_STATE_INIT, _STATE_MULT, 8))
    # each pair of words is one uint64, low word first, on any byte order
    return x.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


#: PCG64's 128-bit LCG multiplier (numpy's ``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_LOW32 = np.uint64(0xFFFFFFFF)


def _mul128(a: tuple, b: tuple) -> tuple:
    """a b mod 2^128 of (high, low) pairs of uint64 arrays, broadcast: the
    low words' full product from their 32-bit limbs, each limb product
    exact in 64 bits, and the cross products mod 2^64."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a1, a0, b1, b0 = a_lo >> 32, a_lo & _LOW32, b_lo >> 32, b_lo & _LOW32
    mid = a1 * b0 + (a0 * b0 >> 32)
    low_mid = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> 32) + (low_mid >> 32) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(a: tuple, b: tuple) -> tuple:
    """a + b mod 2^128 of (high, low) pairs of uint64 arrays, broadcast."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


@functools.cache
def _jumps(k: int) -> tuple:
    """((high, low) of MULT^i, (high, low) of MULT^(i-1) + ... + 1), mod
    2^128, for i = 1..k as uint64 arrays: a PCG64 state s with increment c
    is MULT^i s + (MULT^(i-1) + ... + 1) c after i steps."""
    a, c, words = 1, 0, []
    for _ in range(k):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        words.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    a_hi, a_lo, c_hi, c_lo = (np.array(x, dtype=np.uint64) for x in zip(*words))
    return (a_hi, a_lo), (c_hi, c_lo)


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR outputs of states (high, low): high xor low rotated
    right by the state's top 6 bits."""
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


class Streams:
    """The streams of the PCG64 states (trials, 4) of ``stream_states``, one
    per trial, drawn either through numpy Generators or on arrays.

    ``uniform`` and ``normal`` draw one step of every stream through one
    ``Generator`` per state, handed its state as it is (``_state_type``),
    and ``take`` gives a sub-stack on the same Generators; an operator
    builder draws through those, which interleave uniform and Gaussian
    draws.  Iterated or indexed, the stack hands out each Generator.
    ``random`` and ``integers`` draw instead on arrays, a step of every
    stream, or of the streams ``idx``, at once: a numpy PCG64 kernel whose
    draws are, bit for bit, the draws of the same calls on each stream's
    Generator, stream by stream in call order.  It seeds each state as numpy's
    ``pcg64_set_seed`` does (state from words 0-1, increment (words 2-3 <<
    1) | 1, two steps), takes k steps at once through ``_jumps``, and keeps
    numpy's buffer of a 64-bit output's unused high half for ``integers``.

    The Generators or the kernel's arrays are made on first use, so a stack
    costs nothing until it is drawn; a stack asked for both raises.
    """

    __slots__ = ("states", "_generators", "_pcg")

    def __init__(self, states: np.ndarray):
        self.states = states
        self._generators = self._pcg = None

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self._made())

    def __getitem__(self, i):
        return self._made()[i]

    def _made(self) -> list:
        if self._pcg is not None:
            raise RuntimeError("this stream stack draws on arrays; it makes no Generators")
        if self._generators is None:
            state = _state_type()
            self._generators = [np.random.Generator(np.random.PCG64(state(s))) for s in self.states]
        return self._generators

    def uniform(self, lo, hi, size: int | None = None) -> np.ndarray:
        """``Generator.uniform(lo, hi, size)`` of each stream, ``lo`` and ``hi``
        numbers or one per stream: its ``random`` fills its row, mapped by ``_scaled``."""
        u = np.empty((len(self), 1 if size is None else size))
        for g, row in zip(self._made(), u):
            g.random(out=row)
        u = _scaled(u, *(x[:, None] if isinstance(x, np.ndarray) else x for x in (lo, hi)))
        return u[:, 0] if size is None else u

    def normal(self, shape: tuple) -> np.ndarray:
        """``Generator.standard_normal(shape)`` of each stream, filling its row."""
        z = np.empty((len(self), *shape))
        for g, row in zip(self._made(), z):
            g.standard_normal(out=row)
        return z

    def take(self, idx) -> Streams:
        """The streams ``idx`` as a stack that draws on this stack's Generators."""
        made = self._made()
        sub = Streams(self.states[idx])
        sub._generators = [made[i] for i in idx]
        return sub

    def _kernel(self) -> np.ndarray:
        """The kernel's rows (6, streams), uint64: state high and low words,
        increment high and low words, whether a stream holds a buffered
        uint32 and that uint32."""
        if self._generators is not None:
            raise RuntimeError("this stream stack draws through Generators; it draws nothing on arrays")
        if self._pcg is None:
            w = self.states
            inc = ((w[:, 2] << 1) | (w[:, 3] >> 63), (w[:, 3] << 1) | 1)
            state = _add128(_mul128(_jumps(1)[0], _add128((w[:, 0], w[:, 1]), inc)), inc)
            self._pcg = np.stack([*state, *inc, *np.zeros((2, len(w)), dtype=np.uint64)])
        return self._pcg

    def _draw(self, idx: np.ndarray, counts) -> np.ndarray:
        """The next max(counts) 64-bit outputs (len(idx), max(counts)) of the
        streams ``idx``, each stream advanced by its own count (one, or one
        per stream, each at least 1); its outputs past that count are ones
        it has not drawn."""
        hi, lo, inc_hi, inc_lo, _, _ = self._kernel()
        k = int(np.max(counts))
        a, c = _jumps(k)
        inc = (inc_hi[idx, None], inc_lo[idx, None])
        # one step adds the increment itself
        s = _add128(_mul128(a, (hi[idx, None], lo[idx, None])), inc if k == 1 else _mul128(c, inc))
        end = (np.arange(idx.size), counts - 1)
        hi[idx], lo[idx] = s[0][end], s[1][end]
        return _xsl_rr(*s)

    def random(self, size, idx: np.ndarray | None = None) -> np.ndarray:
        """``Generator.random(size)`` of each stream of ``idx`` (all by
        default) in one array (len(idx), max(size)), ``size`` a count or one
        per stream: (output >> 11) 2^-53.  A row's entries past its own
        count are draws its stream does not take."""
        idx = np.arange(len(self)) if idx is None else idx
        return (self._draw(idx, size) >> 11) * 2.0**-53

    def _next32(self, idx: np.ndarray) -> np.ndarray:
        """Each stream's next uint32 as numpy's PCG64 ``next_uint32`` gives
        it: the buffered high half of its last output where it holds one,
        else the low half of a new output, whose high half it then holds."""
        *_, held, buffered = self._kernel()
        had = held[idx] == 1
        out = buffered[idx]
        fresh = idx[~had]
        if fresh.size:
            x = self._draw(fresh, 1)[:, 0]
            out[~had], buffered[fresh] = x & _LOW32, x >> 32
        held[idx] = ~had
        return out

    def integers(self, low: int, high: int) -> np.ndarray:
        """``Generator.integers(low, high)`` of each stream, for 2 <= high -
        low < 2^32: Lemire's method on uint32 draws, as numpy bounds them,
        each stream drawing again while the low word of its draw times the
        range is below (2^32 - range) mod range."""
        idx = np.arange(len(self))
        span = high - low
        threshold = (2**32 - span) % span
        x = self._next32(idx) * np.uint64(span)
        redo = np.flatnonzero((x & _LOW32) < threshold)
        while redo.size:
            x[redo] = self._next32(idx[redo]) * np.uint64(span)
            redo = redo[(x[redo] & _LOW32) < threshold]
        return low + (x >> 32).astype(np.int64)


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
    its members' d x d matrices), an index array a smaller stack, and a
    slice a smaller stack of views.  A ``meta`` array holds one value per
    trial.  A scalar stack (``scalar_instance``) pads its matrix to its
    largest row count, so one trial's is cut to that trial's
    ``meta["rows"]``."""
    aux = {k: v[idx] for k, v in stack.aux.items()}
    meta = {k: v[idx] if isinstance(v, np.ndarray) else v for k, v in stack.meta.items()}
    if "rows" in meta and np.ndim(idx) == 0 and not isinstance(idx, slice):
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


def _size(stack: InstanceFamily) -> int:
    """The number of trials of a family: the length of its operands' trial
    axis, or of a scalar stack's ``p``; 1 for one trial's family, whose
    operands are (n, d, d) or whose ``p`` is one number."""
    if stack.A is None:
        return np.size(stack.aux["p"])
    return stack.A.shape[1] if stack.A.ndim == 4 else 1


def _trial_factor(x):
    """A number as it is, or an array of one value per trial shaped
    (trials, 1, 1), to scale a stack of matrices trial by trial."""
    return x.reshape(-1, 1, 1) if isinstance(x, np.ndarray) else x


def _complex(g: np.ndarray) -> np.ndarray:
    """The complex matrices re + 1j im of a stack (..., 2, d, d) of Gaussian
    draws, formed once for the stack in one array."""
    z = 1j * g[..., 1, :, :]
    z += g[..., 0, :, :]
    return z


def _unitary_factor(z: np.ndarray) -> np.ndarray:
    """Q of each matrix's QR with the phases of R's diagonal folded in."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _haar(z: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a stack of complex Gaussian matrices
    (``_complex``), in one QR call; the stack is scaled in place."""
    z /= np.sqrt(2.0)
    return _unitary_factor(z)


def haar_unitary(dim: int, rngs, n: int) -> np.ndarray:
    """n Haar-distributed unitaries per stream (n, trials, d, d), via QR of a
    complex Gaussian matrix with phase normalization of the triangular
    factor's diagonal (the standard construction).

    Each stream draws its n members' Gaussians in one ``normal`` step; the
    complex matrices, their QR and the phases are formed once on the stack.
    """
    if dim < 1:
        raise ParameterError("dim must be at least 1")
    return _haar(_complex(np.moveaxis(rngs.normal((n, 2, dim, dim)), 1, 0)))


def random_unitary_mixture(dim: int, k: int, rngs, n: int) -> tuple[np.ndarray, list]:
    """(weights, unitaries) of n mixtures of k Haar unitaries per stream,
    member axis first: positive weights summing to one, on a last axis of
    k, and a list of the k unitaries.

    Each stream draws member by member a mixture's weights in one step, as
    ``random_weights`` does, then its k Gaussians in one step, as k
    ``haar_unitary`` calls do; one QR call forms every unitary.
    """
    u = np.empty((n, len(rngs), k))
    z = np.empty((n, len(rngs), k, dim, dim), dtype=complex)
    for j in range(n):
        u[j] = rngs.uniform(0.0, 1.0, k)
        z[j] = _complex(rngs.normal((k, 2, dim, dim)))
    return _weights(u), list(np.moveaxis(_haar(z), 2, 0))


def _spectral(dim: int, intervals, rngs: Streams, n: int) -> np.ndarray:
    """Hermitian matrices (len(intervals), n, trials, d, d), each with
    eigenvalues drawn uniformly from its interval [a, b], whose ends are
    numbers or one per stream.

    Each stream draws member by member, for each interval in turn, its
    spectrum and then its Gaussian: the draws of ``random_spectrum_matrix``
    called once per interval for each member in turn.  One QR call forms
    every matrix."""
    for a, b in intervals:
        if (np.asarray(a) > b).any():
            raise ParameterError(f"need a <= b, got [{a}, {b}]")
    lam = np.empty((len(intervals), n, len(rngs), dim))
    g = np.empty((len(intervals), n, len(rngs), 2, dim, dim))
    for j in range(n):
        for i, (a, b) in enumerate(intervals):
            lam[i, j] = rngs.uniform(a, b, dim)
            g[i, j] = rngs.normal((2, dim, dim))
    return hermitize(from_spectrum(_haar(_complex(g)), np.sort(lam, axis=-1)))


def random_spectrum_matrix(dim: int, interval: tuple[float, float], rngs, n: int = 1) -> np.ndarray:
    """n Hermitian matrices per stream (n, trials, d, d) with eigenvalues
    drawn uniformly from [a, b], a and b numbers or one per stream."""
    return _spectral(dim, [interval], rngs, n)[0]


def random_pd(dim: int, rngs, lo: float = 0.5, hi: float = 1.5, n: int = 1) -> np.ndarray:
    """n positive definite matrices per stream (n, trials, d, d) with
    spectrum in [lo, hi] (lo > 0)."""
    if lo <= 0.0:
        raise ParameterError("positive definite draw needs lo > 0")
    return random_spectrum_matrix(dim, (lo, hi), rngs, n)


def random_contraction(dim: int, rngs, kind="ginibre") -> np.ndarray:
    """One random contraction per stream (trials, d, d): scaled Ginibre
    (possibly non-normal, possibly nearly singular) or a scaled Haar
    unitary (well-conditioned).

    ``kind`` is one kind, or one per stream.  Each kind's streams draw in
    its own order, as one sub-stack (``Streams.take``); one QR and one SVD
    call serve every trial, whatever the mix of kinds.
    """
    unitary = np.broadcast_to(np.asarray(kind) == "unitary", (len(rngs),))
    s = np.empty(len(rngs))
    g = np.empty((len(rngs), 2, dim, dim))
    # a unitary's scale is drawn before its Gaussian, a Ginibre matrix's after
    us, gs = rngs.take(np.flatnonzero(unitary)), rngs.take(np.flatnonzero(~unitary))
    s[unitary], g[unitary] = us.uniform(0.3, 0.98), us.normal((2, dim, dim))
    g[~unitary], s[~unitary] = gs.normal((2, dim, dim)), gs.uniform(0.2, 0.95)
    g, s = _complex(g), s[:, None, None]
    haar, ginibre = s * _unitary_factor(g / np.sqrt(2.0)), s * g / spectral_norm(g)[:, None, None]
    return np.where(unitary[:, None, None], haar, ginibre)


def _sandwiched(a: np.ndarray, t: np.ndarray, m, M) -> tuple[np.ndarray, np.ndarray]:
    """(B, failed): B = A^{1/2} T A^{1/2} of each pair of stacks (..., trials,
    d, d), m and M numbers or one per trial, and whether m A <= B <= M A
    fails, per matrix of the stack: no pair fails when one Cholesky
    factorization certifies both gaps B - m A and M A - B of every pair
    (``_certified_at_least``), else from their lambda_min in one
    ``_eigvalsh`` call."""
    root = apply_function(a, np.sqrt, POSITIVE_HALFLINE)
    b = hermitize(root @ t @ root)
    gaps = hermitize(np.stack([b - _trial_factor(m) * a, _trial_factor(M) * a - b]))
    if _certified_at_least(gaps):
        return b, np.zeros(gaps.shape[1:-2], dtype=bool)
    return b, (_eigvalsh(gaps)[..., 0] < 0.0).any(axis=0)


def _shrunk(m, M) -> tuple:
    """The window [m + delta, M - delta] of an inner spectrum, delta =
    EDGE_SHRINK (M - m), of numbers or of arrays of one per trial."""
    delta = EDGE_SHRINK * (M - m)
    return m + delta, M - delta


def _sandwich_window(m, M) -> tuple:
    """``_shrunk(m, M)``; refuses unless 0 < m < M."""
    if not np.all((0.0 < m) & (m < M)):
        raise ParameterError(f"need 0 < m < M, got m={m}, M={M}")
    return _shrunk(m, M)


def random_sandwich_family(dim: int, n: int, interval: tuple[float, float], m, M, rngs) -> tuple[np.ndarray, np.ndarray]:
    """n pairs (A_j, B_j) per stream (n, trials, d, d), the spectrum of A_j
    drawn from ``interval``, with m A_j <= B_j <= M A_j via B_j = A_j^{1/2}
    T_j A_j^{1/2}, m I <= T_j <= M I; m and M are numbers or one per stream.

    The inner spectrum is shrunk away from m and M so the sandwich holds
    with margin at least EDGE_SHRINK (M - m) lambda_min(A_j).  Each stream
    draws member by member A_j's spectrum and Gaussian, then T_j's.  One QR
    call forms every A_j and T_j, one ``eigh`` call takes the roots and
    ``_sandwiched`` re-verifies both sides of every sandwich, the gaps B_j
    - m A_j and M A_j - B_j, in one Cholesky certificate or, where that
    fails, one ``_eigvalsh`` call; a ``HypothesisError`` names the trials
    with a failing pair in ``where``.
    """
    a, t = _spectral(dim, [interval, _sandwich_window(m, M)], rngs, n)
    b, failed = _sandwiched(a, t, m, M)
    failed = failed.any(axis=0)
    if failed.any():
        raise HypothesisError("sandwich construction failed verification", where=failed)
    return a, b


def random_subidentity_family(n: int, dim: int, rngs, cap) -> np.ndarray:
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
    raw = random_pd(dim, rngs, 0.2, 1.0, len(caps) * n)
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


def random_weights(n: int, rngs) -> np.ndarray:
    """n positive weights summing to one per stream (trials, n), from one
    draw step of the stack."""
    if n < 1:
        raise ParameterError("need n >= 1")
    return _weights(rngs.uniform(0.0, 1.0, n))


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
    rngs,
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

    m, M and gamma are numbers or one per stream, and f is one function or
    a per-trial one (``means.per_trial_function``); the family is stacked
    (n, trials, d, d), and ``meta`` holds each trial's scale and gamma.
    """
    if dim < 1 or n < 1:
        raise ParameterError("dim and n must be at least 1")
    m, M, gamma = (np.broadcast_to(np.ravel(x), len(rngs)) for x in (*interval, gamma_value))
    if not np.all((0.0 < m) & (m < 1.0) & (1.0 < M)):
        raise ParameterError(f"complement sandwich needs 0 < m < 1 < M, got [{interval[0]}, {interval[1]}]")
    a, b = random_sandwich_family(dim, n, (0.5, 1.5), m, M, rngs)
    s_max = _scale_limit(gamma, sum(a), sum(b), sum(mean(a, b, f)), m, M, DEFAULT_MARGIN)
    s = np.where(s_max >= 1.0, 1.0, s_max * (1.0 - 1e-6))
    # the drawn pairs are scaled in place: only the scaled family is kept
    a *= _trial_factor(s)
    b *= _trial_factor(s)
    family = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=_hermitize_in_place(a),
        B=_hermitize_in_place(b),
        meta={"scale": s, "gamma": np.array(gamma)},
    )
    failed = (s_max < MIN_SCALE) | ~_verify_complement_family(family, gamma, m, M, DEFAULT_MARGIN)
    if failed.any():
        raise HypothesisError("no complement-sandwiched scale of the drawn family", where=failed)
    return family


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
    ``loewner_leq``, without the spectral norms behind its tolerance.  Every
    trial holds when one Cholesky factorization certifies every gap
    (``_certified_at_least`` the margin); otherwise one ``_eigvalsh`` call
    takes every gap.
    """
    eye = identity(fam.A.shape[-1])
    g, m, M = _trial_factor(gamma_value), _trial_factor(m), _trial_factor(M)
    n = len(fam.A)
    # the gaps formed in one array and hermitized over it, to keep a large stack's peak memory down
    gaps = np.empty((2 * n + 4,) + fam.A.shape[1:], dtype=complex)
    np.subtract(fam.B, m * fam.A, out=gaps[:n])
    np.subtract(M * fam.A, fam.B, out=gaps[n : 2 * n])
    comp_a, comp_b = gaps[2 * n : 2 * n + 2]
    np.subtract(eye, g * sum(fam.A), out=comp_a)
    np.subtract(eye, g * sum(fam.B), out=comp_b)
    np.subtract(comp_b, m * comp_a, out=gaps[2 * n + 2])
    np.subtract(M * comp_a, comp_b, out=gaps[2 * n + 3])
    _hermitize_in_place(gaps)
    if _certified_at_least(gaps, margin):
        return np.ones(gaps.shape[1:-2], dtype=bool)
    return (_eigvalsh(gaps)[..., 0] >= margin).all(axis=0)


#: The scalar kinds whose hypothesis bounds a head power by its column's.
HEAD_KINDS = ("bellman", "aczel", "popoviciu")

#: The scalar kinds whose hypothesis bounds each column sum of a_ij^(1/p).
COLUMN_KINDS = ("mp3", "eq3", "mp1")


def scalar_instance(kind: str, sizes: tuple, p, streams: Streams) -> InstanceFamily:
    """A stack of positive scalar arrays, one trial per stream of
    ``streams``, each satisfying one classical-inequality hypothesis, in
    ``aux`` with the exponent ``p``; ``take`` gives a trial its own.

    ``sizes`` is (rows, cols), rows sizing the matrix of the column kinds;
    constraints are imposed with a random contraction factor theta < 1 and
    re-verified.  The column constraints of the weighted Bellman kinds use
    the exponent 1/p, matching the displayed inequalities they feed.

    The arrays carry a leading trial axis: rows and a head kind's p are
    numbers or one per stream, a column kind's p is one number.  A column
    kind's matrix ``a`` is zero-padded to the stack's largest row count,
    and ``meta["rows"]`` holds each trial's.  Each stream draws what it
    draws alone, in that order: the kind's arrays, then the weights of a
    trial that met its hypothesis.  Every draw step is one array draw of
    the stack (``Streams.random``), a stream's own count of values for
    each stream that takes the step, mapped by ``_scaled``; no Generator is
    made.

    The column kinds scale and re-verify the whole stack in one pass, which
    gives each trial the bits it gets alone: their exponent is one number,
    numpy's array power does not depend on the array's size, and a padded
    row adds exact zeros.  The head kinds run their array steps once per
    side on the whole stack, each row with its own exponent (``_row_power``
    keeps a scalar exponent's bits); each head and column-sum pow is a
    scalar pow on Python floats, which an array power does not reproduce.
    A ``HypothesisError`` names the rejected trials in ``where``.
    """
    rows, cols = sizes
    if np.min(rows) < 1 or cols < 1:
        raise ParameterError("sizes must be at least 1")
    if kind in HEAD_KINDS and np.min(p) < 1.0:
        raise ParameterError(f"{kind} needs p >= 1, got {p}")
    if kind in COLUMN_KINDS and not 0.0 < p < 1.0:
        raise ParameterError(f"{kind} needs p in (0, 1), got {p}")
    if kind not in HEAD_KINDS + COLUMN_KINDS:
        raise ParameterError(f"unknown scalar instance kind {kind!r}")
    rows = np.broadcast_to(np.asarray(rows, dtype=int), (len(streams),))
    if kind in HEAD_KINDS:
        aux, failed = _head_arrays(kind, cols, np.broadcast_to(np.asarray(p, dtype=float), rows.shape), streams)
    else:
        aux, failed = _column_arrays(kind, rows, cols, p, streams)
    if failed.any():
        raise HypothesisError(f"{kind} instances failed their hypothesis", where=failed)
    meta = {"rows": rows} if kind in COLUMN_KINDS else {}
    return InstanceFamily(hypothesis_tag=f"scalar_{kind}", aux=aux, meta=meta)


def _head_arrays(kind: str, cols: int, p: np.ndarray, streams: Streams) -> tuple[dict, np.ndarray]:
    """(arrays, rejected) of a head kind: heads ``a``, ``b``, tails ``a_j``,
    ``b_j`` and the exponent (2 for aczel).  Each stream draws a side in one
    step, Bellman's head, raw tail and theta or the others' tail and theta;
    a side is one array draw and one ``_head_side`` call on the live trials,
    whatever their exponents, and a trial draws its ``b`` once its ``a`` holds."""
    p = np.full(len(streams), 2.0) if kind == "aczel" else p
    aux = {"a": np.empty(len(streams)), "b": np.empty(len(streams)), "p": p}
    aux |= {"a_j": np.empty((len(streams), cols)), "b_j": np.empty((len(streams), cols))}
    failed = np.zeros(len(streams), dtype=bool)
    live = np.arange(len(streams))
    size = cols + 2 if kind == "bellman" else cols + 1
    for name in ("a", "b"):
        if not live.size:
            break
        aux[name][live], aux[f"{name}_j"][live], held = _head_side(kind, streams.random(size, live), p[live])
        failed[live[~held]] = True
        live = live[held]
    return aux, failed


def _head_side(kind: str, u: np.ndarray, q: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """(heads, tails, held) of one side of the trials, from their draws u
    (trials, k) and exponents q: the array steps run once on the stack, by
    ``_row_power``, each pow of a head or a column sum on Python floats."""
    qs = q.tolist()
    theta = _scaled(u[:, -1], 0.2, 0.9).tolist()
    if kind == "bellman":
        head = _scaled(u[:, 0], 0.5, 2.0).tolist()
        raw = _scaled(u[:, 1:-1], 0.1, 1.0)
        top = [h**e for h, e in zip(head, qs)]
        sums = np.sum(_row_power(raw, q), axis=1).tolist()
        tail = raw * np.array([(t * h / s) ** (1.0 / e) for t, h, s, e in zip(theta, top, sums, qs)])[:, None]
        return head, tail, np.sum(_row_power(tail, q), axis=1) <= top
    tail = _scaled(u[:, :-1], 0.1, 1.0)
    sums = np.sum(_row_power(tail, q), axis=1)
    head = [(s / t) ** (1.0 / e) for s, t, e in zip(sums.tolist(), theta, qs)]
    return head, tail, sums < [h**e for h, e in zip(head, qs)]


#: The Python-float exponents numpy's ``x ** q`` sends to their own ufuncs.
_FAST_POWERS = {2.0: np.square, 0.5: np.sqrt, 1.0: np.positive, -1.0: np.reciprocal, 0.0: np.ones_like}


def _row_power(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each row x[i] ** float(q[i]), bit for bit: ``np.power`` with the exponent
    array, then each fast path of ``x ** q`` (bits of its own) on its rows."""
    out = np.power(x, q[:, None])
    for e in _FAST_POWERS.keys() & q.tolist():
        out[q == e] = _FAST_POWERS[e](x[q == e])
    return out


def _column_arrays(kind: str, rows: np.ndarray, cols: int, p: float, streams: Streams) -> tuple[dict, np.ndarray]:
    """(arrays, rejected) of a column kind: each stream draws mp1's caps, its
    matrix and the column factors theta in one step, its own rows of cols
    values, in one array draw of the stack; the stack (trials, largest row
    count, cols) is then scaled so that each column sum of a_ij^(1/p) is
    theta (theta caps^(1/p) for mp1) and re-verified in one pass.  Then each
    stream of a trial that holds draws mp3's and eq3's weights, in one more
    array draw, also where another trial fails."""
    q = 1.0 / p
    lead = int(kind == "mp1")
    # row 0 holds mp1's caps, the next rows[t] rows the matrix, the last drawn row theta
    u = streams.random((lead + rows + 1) * cols).reshape(len(streams), lead + rows.max() + 1, cols)
    caps = _scaled(u[:, 0], 0.5, 2.0) if lead else None
    own = (np.arange(rows.max()) < rows[:, None])[..., None]
    a = np.where(own, _scaled(u[:, lead : lead + rows.max()], 0.1, 1.0), 0.0)
    theta = _scaled(u[np.arange(len(streams)), lead + rows], 0.2, 0.9)
    # an underflowed column sum makes a padded row 0 * inf; the trial fails either way
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound = caps**q if lead else 1.0  # theta * 1.0 is theta, bit for bit
        a = a * ((theta * bound / np.sum(a**q, axis=1)) ** p)[:, None, :]
        failed = ~np.all(np.sum(a**q, axis=1) <= bound, axis=-1)
    aux = {"a": a, "p": np.full(len(streams), p)}
    if lead:
        aux["caps"] = caps
    elif not failed.all():
        aux["weights"] = _weights(streams.random(cols, np.flatnonzero(~failed)))
    return aux, failed
