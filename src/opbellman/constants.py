"""Mond-Pecaric correction constants.

Two routes are provided for every constant: a closed form where one
exists, and an independent oracle that maximizes the defining ratio or
difference over [m, M] with a dense float grid for bracketing followed by
golden-section refinement in high-precision arithmetic.  The two routes
are required to agree to 1e-9 relative, which is what makes the closed
forms trustworthy.

A closed form subtracts nearly equal quantities on a narrow interval, so
its maximizer and then its objective there are evaluated at ``ORACLE_DPS``
digits on mpmath copies of its float arguments, each rounded to float once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import (
    DegenerateIntervalError,
    DomainError,
    HypothesisError,
    ParameterError,
    UnboundedRatioError,
    UnimodalityError,
)
from .means import RepresentingFunction, arithmetic_w, log_fn, power_fn

ORACLE_DPS = 30  # significant digits inside the oracle
GRID_POINTS = 10_000
GOLDEN_WIDTH = 1e-12  # final bracket width, relative to the interval's width
BRACKET_ULPS = 64  # grid points this close to the grid maximum bracket the maximizer
P_MIN = 1e-3  # exponents p/(p-1) blow up at the endpoints of (0, 1)
MIN_INTERVAL = 1e-12


@dataclass(frozen=True)
class ConstantResult:
    value: float
    argmax: float
    method: str  # "closed_form" | "oracle"


def _check_interval(m: float, M: float) -> None:
    if not (math.isfinite(m) and math.isfinite(M)):
        raise ParameterError("interval endpoints must be finite")
    if M - m < MIN_INTERVAL:
        raise DegenerateIntervalError(f"interval [{m}, {M}] is degenerate")


def _check_p(p: float) -> None:
    if not P_MIN <= p <= 1.0 - P_MIN:
        raise ParameterError(f"exponent p must lie in [{P_MIN}, {1 - P_MIN}], got {p}")


def _golden_steps(lo: float, hi: float, width: float) -> int:
    """Steps that shrink [lo, hi] below ``width`` in exact arithmetic, plus
    two for rounding."""
    shrink = math.log(max(hi - lo, width) / width)
    return math.ceil(shrink / math.log((1.0 + math.sqrt(5.0)) / 2.0)) + 2


def _golden_max(g, lo, hi, width):
    """Golden-section maximization of a unimodal g on [lo, hi] (mp arithmetic)
    down to a bracket ``width`` wide.

    ORACLE_DPS digits cannot resolve every bracket, so the loop also stops
    after ``_golden_steps`` steps.
    """
    invphi = (mpmath.sqrt(5) - 1) / 2
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(_golden_steps(lo, hi, width)):
        if b - a <= width:
            break
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    x = (a + b) / 2
    return x, g(x)


def _oracle_max(f: RepresentingFunction, m: float, M: float, objective: str) -> ConstantResult:
    """Maximize f/chord ("ratio") or f - chord ("difference") over [m, M].

    A 10^4-point float grid brackets the maximizer: every grid point whose
    value is within ``BRACKET_ULPS`` ulps of the grid maximum, at the size
    of the terms each value is formed from, since on a narrow interval
    float rounding blurs an objective far smaller than f.  Golden-section
    then refines it in mp arithmetic down to a bracket GOLDEN_WIDTH (M - m)
    wide, and its value is returned.  Concavity of f makes both objectives
    unimodal; a refined value below the raw grid maximum is refused, and so
    are an [m, M] outside f's domain and an f that is not finite at m or M,
    whose chord is undefined.
    """
    _check_interval(m, M)
    if not f.domain[0] <= m < M <= f.domain[1]:
        raise DomainError(f"need [m, M] inside the domain {list(f.domain)} of f, got m={m}, M={M}")
    with mpmath.workdps(ORACLE_DPS):
        fm, fM = f.mp(mpmath.mpf(m)), f.mp(mpmath.mpf(M))
        if objective == "ratio" and (fm <= 0 or fM <= 0):
            raise UnboundedRatioError("ratio objective needs f > 0 on [m, M]")
        if not (mpmath.isfinite(fm) and mpmath.isfinite(fM)):
            raise DomainError(f"chord needs f finite at m and M; f({m!r}) = {fm}, f({M!r}) = {fM}")
        grid = np.linspace(m, M, GRID_POINTS)
        fvals = np.asarray(f.fn(grid), dtype=float)
        width = mpmath.mpf(M) - mpmath.mpf(m)
        mu = (fM - fm) / width
        nu = (M * fm - m * fM) / width
        chord = float(mu) * grid + float(nu)
        terms = np.abs(fvals) + np.abs(float(mu) * grid) + abs(float(nu))
        if objective == "ratio":
            if mu * m + nu <= 0 or mu * M + nu <= 0:
                raise UnboundedRatioError("chord vanishes on [m, M]; ratio unbounded")
            g = lambda t: f.mp(t) / (mu * t + nu)
            gvals, terms = fvals / chord, terms / chord
        else:
            g = lambda t: f.mp(t) - (mu * t + nu)
            gvals = fvals - chord
        grid_max = float(gvals.max())
        # the grid's argmax, and with finite terms every point within rounding of it
        near = np.append(np.flatnonzero(gvals >= grid_max - BRACKET_ULPS * np.spacing(terms.max())), np.argmax(gvals))
        lo = grid[max(near.min() - 2, 0)]
        hi = grid[min(near.max() + 2, GRID_POINTS - 1)]
        x, val = _golden_max(g, lo, hi, GOLDEN_WIDTH * (M - m))
        value = float(val)
        argmax = float(x)
    if grid_max > value + 1e-9 * (1.0 + abs(value)):
        raise UnimodalityError(
            f"refined maximum {value!r} fell below grid maximum {grid_max!r}"
        )
    return ConstantResult(value=value, argmax=argmax, method="oracle")


def gamma(f: RepresentingFunction, m: float, M: float) -> ConstantResult:
    """gamma_f = max of f(t) / (mu_f t + nu_f) over [m, M] (oracle route)."""
    return _oracle_max(f, m, M, "ratio")


def beta(f: RepresentingFunction, m: float, M: float) -> ConstantResult:
    """beta_f = max of f(t) - mu_f t - nu_f over [m, M] (oracle route)."""
    return _oracle_max(f, m, M, "difference")


#: A closed form at 30 digits takes about 0.1 ms, and a campaign asks for
#: few distinct argument tuples many times (7 in the default grid's 96
#: calls), so each public closed form keeps its results by arguments.
_cached = functools.lru_cache(maxsize=4096)


def _at_maximizer(f, m, M, t: float, ratio: bool = False) -> ConstantResult:
    """gamma (f over its chord, when ``ratio``) or beta (f minus its chord)
    of f over [m, M], mpmath numbers, as the objective at its maximizer t,
    a float, evaluated under ``workdps(ORACLE_DPS)`` and rounded once.  t is
    the rounding of a stationary point, so the objective errs there by the
    order of that rounding squared."""
    x = mpmath.mpf(t)
    chord = f(m) + (f(M) - f(m)) / (M - m) * (x - m)
    value = f(x) / chord if ratio else f(x) - chord
    return ConstantResult(value=float(value), argmax=t, method="closed_form")


def _check_power(a: float, b: float, p: float) -> None:
    if not 0.0 < a < b:
        raise ParameterError(f"need 0 < a < b, got a={a}, b={b}")
    _check_interval(a, b)
    _check_p(p)


def _gamma_power(a, b, p) -> ConstantResult:
    """gamma of t^p over [a, b], mpmath numbers under ``workdps``, at the
    stationary point p nu / ((1-p) mu) of t^p / (mu t + nu)."""
    mu = (b**p - a**p) / (b - a)
    nu = a**p - mu * a
    return _at_maximizer(lambda x: x**p, a, b, float(p * nu / ((1 - p) * mu)), ratio=True)


@_cached
def gamma_power(a: float, b: float, p: float) -> ConstantResult:
    """Closed form of gamma for h(t) = t^p over [a, b] with 0 < a < b.

    Used with [a, b] = [f(m), f(M)] when a power is applied on top of a
    mean; the maximizer is the stationary point of t^p / (mu t + nu).
    """
    _check_power(a, b, p)
    with mpmath.workdps(ORACLE_DPS):
        return _gamma_power(*map(mpmath.mpf, (a, b, p)))


def complement_power_fn(p: float) -> RepresentingFunction:
    """t -> (1-t)^p on t <= 1, whose beta is delta_bellman."""
    return RepresentingFunction(
        label=f"cmpl-pow:{p:g}",
        fn=lambda t: (1.0 - t) ** p,
        domain=(-math.inf, 1.0),
        operator_monotone=False,
        normalized=False,
        mp_fn=lambda t: (1 - t) ** p,
    )


def t_star(m: float, M: float, p: float) -> float:
    """Maximizer of (1-t)^p minus its chord over [m, M]."""
    if not 0.0 <= m < M <= 1.0:
        raise HypothesisError(f"need 0 <= m < M <= 1, got m={m}, M={M}")
    _check_interval(m, M)
    _check_p(p)
    with mpmath.workdps(ORACLE_DPS):
        m, M, p = map(mpmath.mpf, (m, M, p))
        k = ((1 - m) ** p - (1 - M) ** p) / (p * (M - m))
        return float(1 - k ** (1 / (p - 1)))


@_cached
def delta_bellman(m: float, M: float, p: float) -> ConstantResult:
    """Closed form of beta for f(t) = (1-t)^p over [m, M] in [0, 1], at the
    maximizer ``t_star``.

    M = 1 is accepted here because the value stays finite in that limit
    (it degenerates to (1-p) p^{p/(1-p)} (1-m)^p); inequality checkers
    enforce the strict hypothesis M < 1 themselves.
    """
    argmax = t_star(m, M, p)
    with mpmath.workdps(ORACLE_DPS):
        m, M, p = map(mpmath.mpf, (m, M, p))
        return _at_maximizer(lambda x: (1 - x) ** p, m, M, argmax)


@_cached
def zeta_aczel(m: float, M: float, p: float) -> ConstantResult:
    """Closed form of beta for f(t) = t^p over [m, M] with m > 0, at the
    maximizer (mu / p)^{1/(p-1)}, mu the chord's slope."""
    if m <= 0.0:
        raise ParameterError(f"need m > 0, got m={m}")
    _check_interval(m, M)
    _check_p(p)
    with mpmath.workdps(ORACLE_DPS):
        m, M, p = map(mpmath.mpf, (m, M, p))
        mu = (M**p - m**p) / (M - m)
        return _at_maximizer(lambda x: x**p, m, M, float((mu / p) ** (1 / (p - 1))))


def log_mean(a: float, b: float) -> float:
    """Logarithmic mean: (b-a)/(log b - log a), with the a = b limit."""
    if a <= 0.0 or b <= 0.0:
        raise ParameterError(f"logarithmic mean needs positive inputs, got {a}, {b}")
    if a == b:
        return float(a)
    with mpmath.workdps(ORACLE_DPS):
        a, b = map(mpmath.mpf, (a, b))
        return float((b - a) / (mpmath.log(b) - mpmath.log(a)))


@_cached
def beta_log(m: float, M: float) -> ConstantResult:
    """Closed form of beta for f = log over [m, M] with m > 0, at the
    maximizer, the logarithmic mean L(m, M): it equals
    log((1/e) (M^m / m^M)^{1/(M-m)} L(m, M)).
    """
    if m <= 0.0:
        raise ParameterError(f"need m > 0, got m={m}")
    _check_interval(m, M)
    argmax = log_mean(m, M)
    with mpmath.workdps(ORACLE_DPS):
        return _at_maximizer(mpmath.log, *map(mpmath.mpf, (m, M)), argmax)


@_cached
def delta_affine_power(lam: float, m: float, M: float, p: float) -> ConstantResult:
    """Power-of-affine reverse constant: gamma of t^p over [f(m), f(M)] with
    f(t) = (1-lam) + lam*t, the interval's ends formed at 30 digits."""
    if not 0.0 < m < M:
        raise ParameterError(f"need 0 < m < M, got m={m}, M={M}")
    if not 0.0 < lam <= 1.0:
        raise DegenerateIntervalError(
            f"weight lam={lam} collapses [f(m), f(M)] to a point"
        )
    f = arithmetic_w(lam)
    _check_power(float(f(m)), float(f(M)), p)
    with mpmath.workdps(ORACLE_DPS):
        lam, m, M, p = map(mpmath.mpf, (lam, m, M, p))
        return _gamma_power((1 - lam) + lam * m, (1 - lam) + lam * M, p)


def _affine_power_oracle(lam: float, m: float, M: float, p: float) -> ConstantResult:
    f = arithmetic_w(lam)
    return gamma(power_fn(p), float(f(m)), float(f(M)))


#: Each closed form with the oracle route it must reproduce to 1e-9 relative;
#: both are called with the same keyword arguments.
CLOSED_FORMS = {
    "gamma_h": (gamma_power, lambda a, b, p: gamma(power_fn(p), a, b)),
    "delta_affine_power": (delta_affine_power, _affine_power_oracle),
    "delta_bellman": (delta_bellman, lambda m, M, p: beta(complement_power_fn(p), m, M)),
    "zeta_aczel": (zeta_aczel, lambda m, M, p: beta(power_fn(p), m, M)),
    "beta_log": (beta_log, lambda m, M: beta(log_fn, m, M)),
}
