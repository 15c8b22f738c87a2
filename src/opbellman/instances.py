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


def _trial_factor(x):
    """A number as it is, or an array of one value per trial shaped
    (trials, 1, 1), to scale a stack of matrices trial by trial."""
    return x.reshape(-1, 1, 1) if isinstance(x, np.ndarray) else x


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
    """Hermitian matrix with eigenvalues drawn uniformly from [a, b]; for a
    list of streams, a and b are numbers or one per stream."""
    rngs, one = _streams(rng)
    a, b = (x.tolist() if isinstance(x, np.ndarray) else [x] * len(rngs) for x in interval)
    if any(lo > hi for lo, hi in zip(a, b)):
        raise ParameterError(f"need a <= b, got [{interval[0]}, {interval[1]}]")
    lam = np.stack([np.sort(r.uniform(lo, hi, size=dim)) for r, lo, hi in zip(rngs, a, b)])
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
    """(A, B) with m A <= B <= M A via B = A^{1/2} T A^{1/2}, m I <= T <= M I;
    for a list of streams, m and M are numbers or one per stream.

    The inner spectrum is shrunk away from m and M so the sandwich holds
    with margin at least EDGE_SHRINK (M - m) lambda_min(A); both sides are
    re-verified from lambda_min(B - m A) and lambda_min(M A - B), and a
    ``HypothesisError`` names the failing pairs of a stack in ``where``.
    """
    if not np.all((0.0 < m) & (m < M)):
        raise ParameterError(f"need 0 < m < M, got m={m}, M={M}")
    delta = EDGE_SHRINK * (M - m)
    root = apply_function(a, np.sqrt, POSITIVE_HALFLINE)
    t = random_spectrum_matrix(a.shape[-1], (m + delta, M - delta), rng)
    b = hermitize(root @ t @ root)
    low = _eigvalsh(hermitize(np.stack([b - _trial_factor(m) * a, _trial_factor(M) * a - b])))[..., 0]
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
    pairs = [random_sandwich_pair(random_pd(dim, rngs, 0.5, 1.5), m, M, rngs) for _ in range(n)]
    a, b = np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
    s_max = _scale_limit(gamma, sum(a), sum(b), sum(mean(a, b, f)), m, M, DEFAULT_MARGIN)
    s = np.where(s_max >= 1.0, 1.0, s_max * (1.0 - 1e-6))
    family = InstanceFamily(
        hypothesis_tag="complement_sandwich_family",
        A=list(hermitize(_trial_factor(s) * a)),
        B=list(hermitize(_trial_factor(s) * b)),
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
    eye = identity(fam.A[0].shape[-1])
    g, m, M = _trial_factor(gamma_value), _trial_factor(m), _trial_factor(M)
    comp_a = eye - g * sum(fam.A)
    comp_b = eye - g * sum(fam.B)
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
