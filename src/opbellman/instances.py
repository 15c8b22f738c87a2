"""Seed-deterministic random instances satisfying inequality hypotheses.

Every generator is a pure function of (seed-derived rng); released
families re-verify their declared hypotheses in the Loewner order with
a positive margin, so the construction itself is never trusted.  Trial k
of a campaign draws from a counter-derived substream, which makes
campaigns order-independent.

Every generator takes one Generator and returns d x d matrices, or a list
of Generators, one per trial, and returns stacks (trials, d, d).  Each
stream gets the draws, in the order, that it gets alone; the linear
algebra runs once on the stack and gives each trial the bits it gives it
alone.  A hypothesis that fails on some trials of a stack raises
``HypothesisError`` naming them in ``where``.
"""

from __future__ import annotations

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

#: Complement-sandwich draws that may fail before the generator gives up.
MAX_REJECTS = 1000

_MASK64 = (1 << 64) - 1


def subrng(seed: int, *key) -> np.random.Generator:
    """Independent substream for (seed, key); strings are crc32-folded."""
    words = [int(seed) & _MASK64]
    for part in key:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        else:
            words.append(int(part) & _MASK64)
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass
class InstanceFamily:
    """One concrete instance: operand families plus whatever a check needs."""

    hypothesis_tag: str
    A: list = field(default_factory=list)
    B: list | None = None
    weights: np.ndarray | None = None
    maps: list | None = None
    aux: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def take(stack: InstanceFamily, idx) -> InstanceFamily:
    """The trials ``idx`` of a family stacked on a leading trial axis: an int
    gives that trial's family (views of its d x d matrices), an index array
    a smaller stack.  A ``meta`` array holds one value per trial."""
    return InstanceFamily(
        hypothesis_tag=stack.hypothesis_tag,
        A=[a[idx] for a in stack.A],
        B=None if stack.B is None else [b[idx] for b in stack.B],
        weights=None if stack.weights is None else stack.weights[idx],
        maps=None if stack.maps is None else [take_map(m, idx) for m in stack.maps],
        aux={k: v[idx] for k, v in stack.aux.items()},
        meta={k: v[idx] if isinstance(v, np.ndarray) else v for k, v in stack.meta.items()},
    )


def _streams(rng) -> tuple[list, bool]:
    """(the trials' streams, whether one Generator was given rather than a list)."""
    if isinstance(rng, np.random.Generator):
        return [rng], True
    return list(rng), False


def _gaussian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _unitary_factor(z: np.ndarray) -> np.ndarray:
    """Q of each matrix's QR with the phases of R's diagonal folded in."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix with
    phase normalization of the triangular factor's diagonal (the standard
    construction)."""
    if dim < 1:
        raise ParameterError("dim must be at least 1")
    rngs, one = _streams(rng)
    u = _unitary_factor(np.stack([_gaussian(dim, r) for r in rngs]) / np.sqrt(2.0))
    return u[0] if one else u


def random_spectrum_matrix(dim: int, interval: tuple[float, float], rng) -> np.ndarray:
    """Hermitian matrix with eigenvalues drawn uniformly from [a, b]."""
    a, b = interval
    if a > b:
        raise ParameterError(f"need a <= b, got [{a}, {b}]")
    rngs, one = _streams(rng)
    lam = np.stack([np.sort(r.uniform(a, b, size=dim)) for r in rngs])
    u = haar_unitary(dim, rngs)
    x = hermitize(from_spectrum(u, lam))
    return x[0] if one else x


def random_pd(dim: int, rng, lo: float = 0.5, hi: float = 1.5) -> np.ndarray:
    """Positive definite matrix with spectrum in [lo, hi] (lo > 0)."""
    if lo <= 0.0:
        raise ParameterError("positive definite draw needs lo > 0")
    return random_spectrum_matrix(dim, (lo, hi), rng)


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
    g = np.stack(g)
    c = np.where(
        unitary[:, None, None],
        s * _unitary_factor(g / np.sqrt(2.0)),
        s * g / spectral_norm(g)[:, None, None],
    )
    return c[0] if one else c


def random_sandwich_pair(a: np.ndarray, m: float, M: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with m A <= B <= M A via B = A^{1/2} T A^{1/2}, m I <= T <= M I.

    The inner spectrum is shrunk away from m and M so the sandwich holds
    with margin at least EDGE_SHRINK (M - m) lambda_min(A); both sides are
    re-verified from lambda_min(B - m A) and lambda_min(M A - B), and a
    ``HypothesisError`` names the failing pairs of a stack in ``where``.
    """
    if not 0.0 < m < M:
        raise ParameterError(f"need 0 < m < M, got m={m}, M={M}")
    delta = EDGE_SHRINK * (M - m)
    root = apply_function(a, np.sqrt, POSITIVE_HALFLINE)
    t = random_spectrum_matrix(a.shape[-1], (m + delta, M - delta), rng)
    b = hermitize(root @ t @ root)
    low = _eigvalsh(hermitize(np.stack([b - m * a, M * a - b])))[..., 0]
    failed = (low < 0.0).any(axis=0)
    if _any(failed):
        raise HypothesisError("sandwich construction failed verification", where=failed)
    return a, b


def random_subidentity_family(n: int, dim: int, rng, cap) -> list[np.ndarray]:
    """A_1..A_n >= 0 with sum A_j <= cap * I, cap in (0, 1) (one per trial
    of a stack).

    Raw positive-definite draws are rescaled by cap / lambda_max(sum), so
    each member keeps a healthy relative spectral floor.
    """
    caps = np.asarray(cap)
    if not np.all((0.0 < caps) & (caps < 1.0)):
        raise ParameterError(f"cap must be in (0, 1), got {cap}")
    raw = [random_pd(dim, rng, 0.2, 1.0) for _ in range(n)]
    total = sum(raw)
    scale = (cap / _eigvalsh(total)[..., -1])[..., None, None]
    return [hermitize(scale * p) for p in raw]


def random_weights(n: int, rng) -> np.ndarray:
    """Positive weights summing to one."""
    if n < 1:
        raise ParameterError("need n >= 1")
    rngs, one = _streams(rng)
    w = np.stack([r.uniform(0.2, 1.0, size=n) for r in rngs])
    w = w / w.sum(axis=-1, keepdims=True)
    return w[0] if one else w


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
    per trial of a stack.

    Every constraint is affine in s: lambda_min(c I - g s X) = c - g s
    lambda_max(X) >= margin for (c, X) in (1, sum A), (1, sum B),
    (1 - m, sum B - m sum A), (M - 1, M sum A - sum B), plus the base cap
    g s lambda_max(sum of means) <= BASE_CAP.  A constraint whose
    lambda_max(X) is not positive never binds.  One ``_eigvalsh`` call
    takes all five.
    """
    rooms = np.array([1.0 - margin, 1.0 - margin, 1.0 - m - margin, M - 1.0 - margin, BASE_CAP])
    xs = np.stack([sum_a, sum_b, sum_b - m * sum_a, M * sum_a - sum_b, sum_means])
    top = gamma_value * _eigvalsh(xs)[..., -1]
    rooms = rooms.reshape(rooms.shape + (1,) * (top.ndim - 1))
    return np.divide(rooms, top, out=np.full(top.shape, math.inf), where=top > 0.0).min(axis=0)


def complement_sandwich_family(
    dim: int,
    n: int,
    interval: tuple[float, float],
    f: RepresentingFunction,
    gamma_value: float,
    rng,
) -> InstanceFamily | None:
    """Pairs (A_j, B_j) with m A_j <= B_j <= M A_j whose gamma-weighted
    complements I - gamma sum A_j and I - gamma sum B_j satisfy the same
    [m, M] sandwich with positive margin.

    Strategy: draw sandwich pairs, then rescale the whole family by a
    scalar s in (0, 1].  Each hypothesis on the scaled family is affine in
    s, so the largest feasible scale s_max has a closed form
    (``_scale_limit``).  s = 1 when s_max >= 1, otherwise
    s = s_max (1 - 1e-6); a draw with s_max below ``MIN_SCALE`` is
    rejected.  The released family is re-verified with ``DEFAULT_MARGIN``.

    Every draw has sum B_j >= (m + delta) lo I (delta = ``EDGE_SHRINK``
    (M - m), lo the floor of A_j's spectrum), so s_max <= (1 - margin) /
    (gamma (m + delta) lo); where that is below ``MIN_SCALE`` / 2, with room
    for rounding, no draw is made (a wide window, or a huge gamma).

    For a list of streams the trials still pending draw again together, in
    rounds, and the stack of their families is returned; ``meta`` holds
    each trial's scale and the number of rounds.  After ``MAX_REJECTS``
    rounds one Generator gives None (rejection is data for the campaign
    report, not an error); a list raises ``HypothesisError`` naming the
    trials that ran out in ``where``, as a failed sandwich pair does.
    """
    m, M = interval
    if dim < 1 or n < 1:
        raise ParameterError("dim and n must be at least 1")
    if not 0.0 < m < 1.0 < M:
        raise ParameterError(f"complement sandwich needs 0 < m < 1 < M, got [{m}, {M}]")
    rngs, one = _streams(rng)
    a_out = np.empty((n, len(rngs), dim, dim), dtype=complex)
    b_out = np.empty_like(a_out)
    scale = np.full(len(rngs), np.nan)
    pending = np.arange(len(rngs))
    attempts = 0
    lo, hi = 0.5, 1.5
    hopeless = gamma_value * (m + EDGE_SHRINK * (M - m)) * lo * MIN_SCALE / 2.0 > 1.0 - DEFAULT_MARGIN
    while pending.size and attempts < (0 if hopeless else MAX_REJECTS):
        attempts += 1
        streams = [rngs[t] for t in pending]
        pairs = []
        for _ in range(n):
            try:
                pairs.append(random_sandwich_pair(random_pd(dim, streams, lo, hi), m, M, streams))
            except HypothesisError as exc:
                failed = np.isin(np.arange(len(rngs)), pending[np.broadcast_to(exc.where, pending.shape)])
                raise HypothesisError(str(exc), where=failed[0] if one else failed) from None
        a, b = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
        s_max = _scale_limit(gamma_value, sum(a), sum(b), sum(mean(a, b, f)), m, M, DEFAULT_MARGIN)
        s = np.where(s_max >= 1.0, 1.0, s_max * (1.0 - 1e-6))[:, None, None]
        a, b = hermitize(s * a), hermitize(s * b)
        ok = ~(s_max < MIN_SCALE) & _verify_complement_family(
            InstanceFamily(hypothesis_tag="complement_sandwich_family", A=list(a), B=list(b)),
            gamma_value, m, M, DEFAULT_MARGIN,
        )
        a_out[:, pending[ok]], b_out[:, pending[ok]] = a[:, ok], b[:, ok]
        scale[pending[ok]] = s[ok, 0, 0]
        pending = pending[~ok]
    family = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=list(a_out),
        B=list(b_out),
        meta={"attempts": attempts, "scale": scale, "gamma": gamma_value},
    )
    if one:
        return None if pending.size else take(family, 0)
    if pending.size:
        failed = np.isin(np.arange(len(rngs)), pending)
        raise HypothesisError(f"no complement-sandwiched family in {MAX_REJECTS} draws", where=failed)
    return family


def _verify_complement_family(
    fam: InstanceFamily,
    gamma_value: float,
    m: float,
    M: float,
    margin: float,
):
    """Whether every pairwise and complement sandwich holds with slack >=
    margin, per trial of a stack.

    The slack of X <= Y is lambda_min(hermitize(Y - X)), as in
    ``loewner_leq``, without the spectral norms behind its tolerance; one
    ``_eigvalsh`` call takes every gap.
    """
    eye = identity(fam.A[0].shape[-1])
    comp_a = eye - gamma_value * sum(fam.A)
    comp_b = eye - gamma_value * sum(fam.B)
    gaps = [gap for a, b in zip(fam.A, fam.B) for gap in (b - m * a, M * a - b)]
    gaps += [comp_a, comp_b, comp_b - m * comp_a, M * comp_a - comp_b]
    return (_eigvalsh(hermitize(np.stack(gaps)))[..., 0] >= margin).all(axis=0)


def scalar_instance(
    kind: str,
    sizes: tuple[int, int],
    p: float,
    rng: np.random.Generator,
) -> dict:
    """Positive scalar arrays satisfying one classical-inequality hypothesis.

    ``sizes`` is (rows, cols) where applicable; constraints are imposed
    with a random contraction factor theta < 1 and re-verified.  The
    column constraints of the weighted Bellman kinds use the exponent 1/p,
    matching the displayed inequalities they feed.
    """
    rows, cols = sizes
    if rows < 1 or cols < 1:
        raise ParameterError("sizes must be at least 1")
    if kind in ("bellman", "popoviciu", "aczel"):
        if p < 1.0:
            raise ParameterError(f"{kind} needs p >= 1, got {p}")
    elif not 0.0 < p < 1.0:
        raise ParameterError(f"{kind} needs p in (0, 1), got {p}")

    if kind == "bellman":
        out = {"p": p}
        for name in ("a", "b"):
            head = rng.uniform(0.5, 2.0)
            raw = rng.uniform(0.1, 1.0, size=cols)
            theta = rng.uniform(0.2, 0.9)
            scale = (theta * head**p / np.sum(raw**p)) ** (1.0 / p)
            tail = raw * scale
            if not np.sum(tail**p) <= head**p:
                raise HypothesisError("bellman instance: tail powers exceed the head power")
            out[name] = head
            out[f"{name}_j"] = tail
        return out

    if kind == "aczel" or kind == "popoviciu":
        q = 2.0 if kind == "aczel" else p
        out = {"p": q}
        for name in ("a", "b"):
            tail = rng.uniform(0.1, 1.0, size=cols)
            theta = rng.uniform(0.2, 0.9)
            head = (np.sum(tail**q) / theta) ** (1.0 / q)
            if not np.sum(tail**q) < head**q:
                raise HypothesisError(f"{kind} instance: tail powers reach the head power")
            out[name] = head
            out[f"{name}_j"] = tail
        return out

    if kind in ("mp3", "eq3"):
        q = 1.0 / p
        a = rng.uniform(0.1, 1.0, size=(rows, cols))
        theta = rng.uniform(0.2, 0.9, size=cols)
        col_sums = np.sum(a**q, axis=0)
        with np.errstate(divide="ignore", over="ignore"):
            a = a * (theta / col_sums) ** p
        if not np.all(np.sum(a**q, axis=0) <= 1.0):
            raise HypothesisError(f"{kind} instance: a column sum of a_ij^(1/p) exceeds 1")
        return {"a": a, "weights": random_weights(cols, rng), "p": p}

    if kind == "mp1":
        q = 1.0 / p
        caps = rng.uniform(0.5, 2.0, size=cols)
        a = rng.uniform(0.1, 1.0, size=(rows, cols))
        theta = rng.uniform(0.2, 0.9, size=cols)
        col_sums = np.sum(a**q, axis=0)
        with np.errstate(divide="ignore", over="ignore"):
            a = a * (theta * caps**q / col_sums) ** p
        if not np.all(np.sum(a**q, axis=0) <= caps**q):
            raise HypothesisError("mp1 instance: a column sum of a_ij^(1/p) exceeds its cap")
        return {"a": a, "caps": caps, "p": p}

    raise ParameterError(f"unknown scalar instance kind {kind!r}")
