"""Seed-deterministic random instances satisfying inequality hypotheses.

Every generator is a pure function of (seed-derived rng); released
families re-verify their declared hypotheses in the Loewner order with
a positive margin, so the construction itself is never trusted.  Trial k
of a campaign draws from a counter-derived substream, which makes
campaigns order-independent.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisError, ParameterError
from .means import POSITIVE_HALFLINE, RepresentingFunction, mean
from .positive_maps import stack_maps
from .spectral import _eigvalsh, apply_function, from_spectrum, hermitize, identity, spectral_norm

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


def stack_families(insts: list[InstanceFamily]) -> InstanceFamily:
    """The instances of one cell's trials as one family on a leading trial axis.

    Member j of ``A`` (and ``B``) becomes a (trials, d, d) stack, ``weights``
    a (trials, n) array, each map a ``stack_maps`` map and each ``aux``
    matrix a stack.  The trials must share their shapes and map classes.
    One instance is returned as it is: its d x d matrices are the stack of one.
    """
    first = insts[0]
    if len(insts) == 1:
        return first

    def members(name):
        if getattr(first, name) is None:
            return None
        return [np.stack(ms) for ms in zip(*(getattr(i, name) for i in insts))]

    return InstanceFamily(
        hypothesis_tag=first.hypothesis_tag,
        A=members("A"),
        B=members("B"),
        weights=None if first.weights is None else np.stack([i.weights for i in insts]),
        maps=None if first.maps is None else [stack_maps(ms) for ms in zip(*(i.maps for i in insts))],
        aux={k: np.stack([i.aux[k] for i in insts]) for k in first.aux},
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix with
    phase normalization of the triangular factor's diagonal (the standard
    construction)."""
    if dim < 1:
        raise ParameterError("dim must be at least 1")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_spectrum_matrix(
    dim: int,
    interval: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Hermitian matrix with eigenvalues drawn uniformly from [a, b]."""
    a, b = interval
    if a > b:
        raise ParameterError(f"need a <= b, got [{a}, {b}]")
    lam = np.sort(rng.uniform(a, b, size=dim))
    u = haar_unitary(dim, rng)
    return hermitize(from_spectrum(u, lam))


def random_pd(
    dim: int,
    rng: np.random.Generator,
    lo: float = 0.5,
    hi: float = 1.5,
) -> np.ndarray:
    """Positive definite matrix with spectrum in [lo, hi] (lo > 0)."""
    if lo <= 0.0:
        raise ParameterError("positive definite draw needs lo > 0")
    return random_spectrum_matrix(dim, (lo, hi), rng)


def random_contraction(dim: int, rng: np.random.Generator, kind: str = "ginibre") -> np.ndarray:
    """Random contraction: scaled Ginibre (possibly non-normal, possibly
    nearly singular) or a scaled Haar unitary (well-conditioned)."""
    if kind == "unitary":
        return rng.uniform(0.3, 0.98) * haar_unitary(dim, rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return rng.uniform(0.2, 0.95) * g / spectral_norm(g)


def random_sandwich_pair(
    a: np.ndarray,
    m: float,
    M: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with m A <= B <= M A via B = A^{1/2} T A^{1/2}, m I <= T <= M I.

    The inner spectrum is shrunk away from m and M so the sandwich holds
    with margin at least EDGE_SHRINK (M - m) lambda_min(A); both sides are
    re-verified from lambda_min(B - m A) and lambda_min(M A - B).
    """
    if not 0.0 < m < M:
        raise ParameterError(f"need 0 < m < M, got m={m}, M={M}")
    delta = EDGE_SHRINK * (M - m)
    root = apply_function(a, np.sqrt, POSITIVE_HALFLINE)
    t = random_spectrum_matrix(a.shape[0], (m + delta, M - delta), rng)
    b = hermitize(root @ t @ root)
    for gap in (b - m * a, M * a - b):
        if float(_eigvalsh(hermitize(gap))[0]) < 0.0:
            raise HypothesisError("sandwich construction failed verification")
    return a, b


def random_subidentity_family(
    n: int,
    dim: int,
    rng: np.random.Generator,
    cap: float,
) -> list[np.ndarray]:
    """A_1..A_n >= 0 with sum A_j <= cap * I, cap in (0, 1).

    Raw positive-definite draws are rescaled by cap / lambda_max(sum), so
    each member keeps a healthy relative spectral floor.
    """
    if not 0.0 < cap < 1.0:
        raise ParameterError(f"cap must be in (0, 1), got {cap}")
    raw = [random_pd(dim, rng, 0.2, 1.0) for _ in range(n)]
    total = sum(raw)
    lam_max = float(_eigvalsh(total)[-1])
    scale = cap / lam_max
    return [hermitize(scale * p) for p in raw]


def random_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Positive weights summing to one."""
    if n < 1:
        raise ParameterError("need n >= 1")
    w = rng.uniform(0.2, 1.0, size=n)
    return w / w.sum()


def _scale_limit(
    gamma_value: float,
    sum_a: np.ndarray,
    sum_b: np.ndarray,
    sum_means: np.ndarray,
    m: float,
    M: float,
    margin: float,
) -> float:
    """Largest s for which the family scaled by s is complement-sandwiched.

    Every constraint is affine in s: lambda_min(c I - g s X) = c - g s
    lambda_max(X) >= margin for (c, X) in (1, sum A), (1, sum B),
    (1 - m, sum B - m sum A), (M - 1, M sum A - sum B), plus the base cap
    g s lambda_max(sum of means) <= BASE_CAP.  A constraint whose
    lambda_max(X) is not positive never binds.
    """
    bounds = [
        (1.0 - margin, sum_a),
        (1.0 - margin, sum_b),
        (1.0 - m - margin, sum_b - m * sum_a),
        (M - 1.0 - margin, M * sum_a - sum_b),
        (BASE_CAP, sum_means),
    ]
    limit = math.inf
    for room, x in bounds:
        top = gamma_value * float(_eigvalsh(x)[-1])
        if top > 0.0:
            limit = min(limit, room / top)
    return limit


def complement_sandwich_family(
    dim: int,
    n: int,
    interval: tuple[float, float],
    f: RepresentingFunction,
    gamma_value: float,
    rng: np.random.Generator,
) -> InstanceFamily | None:
    """Pairs (A_j, B_j) with m A_j <= B_j <= M A_j whose gamma-weighted
    complements I - gamma sum A_j and I - gamma sum B_j satisfy the same
    [m, M] sandwich with positive margin.

    Strategy: draw sandwich pairs, then rescale the whole family by a
    scalar s in (0, 1].  Each hypothesis on the scaled family is affine in
    s, so the largest feasible scale s_max has a closed form
    (``_scale_limit``, five eigenvalue calls).  s = 1 when s_max >= 1,
    otherwise s = s_max (1 - 1e-6); a draw with s_max below ``MIN_SCALE``
    is rejected.  The released family is re-verified with ``DEFAULT_MARGIN``.
    Returns None once ``MAX_REJECTS`` draws fail; rejection is data for the
    campaign report, not an error.
    """
    m, M = interval
    if dim < 1 or n < 1:
        raise ParameterError("dim and n must be at least 1")
    if not m < 1.0 < M:
        raise ParameterError(f"complement sandwich needs m < 1 < M, got [{m}, {M}]")
    attempts = 0
    while attempts < MAX_REJECTS:
        attempts += 1
        pairs = []
        for _ in range(n):
            a = random_pd(dim, rng, 0.5, 1.5)
            pairs.append(random_sandwich_pair(a, m, M, rng))
        sum_a = sum(p[0] for p in pairs)
        sum_b = sum(p[1] for p in pairs)
        sum_means = sum(mean(p[0], p[1], f) for p in pairs)
        s_max = _scale_limit(gamma_value, sum_a, sum_b, sum_means, m, M, DEFAULT_MARGIN)
        if s_max < MIN_SCALE:
            continue
        s = 1.0 if s_max >= 1.0 else s_max * (1.0 - 1e-6)
        family = InstanceFamily(
            hypothesis_tag="complement_sandwich_family",
            A=[hermitize(s * p[0]) for p in pairs],
            B=[hermitize(s * p[1]) for p in pairs],
            meta={"attempts": attempts, "scale": s, "gamma": gamma_value},
        )
        if _verify_complement_family(family, gamma_value, m, M, DEFAULT_MARGIN):
            return family
    return None


def _verify_complement_family(
    fam: InstanceFamily,
    gamma_value: float,
    m: float,
    M: float,
    margin: float,
) -> bool:
    """Every pairwise and complement sandwich holds with slack >= margin.

    The slack of X <= Y is lambda_min(hermitize(Y - X)), as in
    ``loewner_leq``, without the spectral norms behind its tolerance.
    """
    eye = identity(fam.A[0].shape[0])
    comp_a = eye - gamma_value * sum(fam.A)
    comp_b = eye - gamma_value * sum(fam.B)
    gaps = [gap for a, b in zip(fam.A, fam.B) for gap in (b - m * a, M * a - b)]
    gaps += [comp_a, comp_b, comp_b - m * comp_a, M * comp_a - comp_b]
    return all(float(_eigvalsh(hermitize(gap))[0]) >= margin for gap in gaps)


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
