"""Representing functions and the Kubo-Ando binary operation A sigma_f B.

A connection with representing function f acts on positive matrices as
``A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}``; it is a mean when f(1) = 1.
By Kubo and Ando's transformer equality T*(A sigma_f B)T = (T*AT) sigma_f
(T*BT) (*Math. Ann.* 246, 1980), any factor A = L L* gives the same mean
as ``L f(L^{-1} B L^{-*}) L*``; ``mean`` takes the Cholesky factor.
The built-in functions cover weighted arithmetic and geometric means,
plain powers, the logarithm (usable in Jensen-type checks but not as a
mean), and pointwise compositions/powers of the above.

A stack of trials may take one function per trial
(``per_trial_function``): trial t's rows of an eigenvalue stack go through
its own function, so every trial gets the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath
import numpy as np

from . import spectral
from .errors import ParameterError, ShapeError
from .spectral import adjoint, congruence_factor, hermitize

#: Domain shared by every built-in function: the positive half-line.
POSITIVE_HALFLINE = (0.0, math.inf)


@dataclass(frozen=True)
class RepresentingFunction:
    """A scalar function record driving functional calculus and chords.

    ``fn`` evaluates elementwise on floats/ndarrays; ``mp_fn`` is an
    mpmath-safe scalar twin used by the high-precision constant oracle
    (defaults to ``fn`` when plain arithmetic is already exact).

    A function of ``per_trial_function`` holds its trials' functions in
    ``parts``, and ``label``, ``operator_monotone`` and ``normalized`` as
    arrays of one value per trial.
    """

    label: str | np.ndarray
    fn: Callable
    domain: tuple[float, float] = POSITIVE_HALFLINE
    operator_monotone: bool | np.ndarray = True
    normalized: bool | np.ndarray = False
    mp_fn: Callable | None = field(default=None, compare=False)
    parts: tuple | None = field(default=None, compare=False, repr=False)

    def __call__(self, t):
        return self.fn(t)

    def mp(self, t):
        return (self.mp_fn or self.fn)(t)


def arithmetic_w(lam: float) -> RepresentingFunction:
    """t -> (1 - lam) + lam*t, the weighted arithmetic mean generator."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"weight must be in [0, 1], got {lam}")
    return RepresentingFunction(
        label=f"arith:{lam:g}",
        fn=lambda t: (1.0 - lam) + lam * t,
        operator_monotone=True,
        normalized=True,
    )


def geometric_w(lam: float) -> RepresentingFunction:
    """t -> t^lam, the weighted geometric mean generator."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"weight must be in [0, 1], got {lam}")
    return RepresentingFunction(
        label=f"geom:{lam:g}",
        fn=lambda t: t**lam,
        operator_monotone=True,
        normalized=True,
    )


def power_fn(p: float) -> RepresentingFunction:
    """t -> t^p; operator monotone precisely for p in [0, 1]."""
    return RepresentingFunction(
        label=f"power:{p:g}",
        fn=lambda t: t**p,
        operator_monotone=0.0 <= p <= 1.0,
        normalized=True,
    )


log_fn = RepresentingFunction(
    label="log",
    fn=np.log,
    operator_monotone=True,
    normalized=False,  # log(1) = 0: concave and operator monotone, not a mean
    mp_fn=mpmath.log,
)


def composed(h: RepresentingFunction, f: RepresentingFunction) -> RepresentingFunction:
    """Pointwise composition t -> h(f(t))."""
    return RepresentingFunction(
        label=f"composed:{h.label}:{f.label}",
        fn=lambda t: h.fn(f.fn(t)),
        domain=f.domain,
        operator_monotone=h.operator_monotone and f.operator_monotone,
        normalized=bool(f.normalized and h.normalized),
        mp_fn=lambda t: h.mp(f.mp(t)),
    )


def powered(f: RepresentingFunction, p: float) -> RepresentingFunction:
    """Pointwise power t -> f(t)^p; f is evaluated first.  Of a per-trial f,
    the per-trial function of each trial's own f powered."""
    if f.parts is not None:
        made = {id(g): powered(g, p) for g in f.parts}
        return per_trial_function([made[id(g)] for g in f.parts])
    return RepresentingFunction(
        label=f"powered:{f.label}:{p:g}",
        fn=lambda t: f.fn(t) ** p,
        domain=f.domain,
        operator_monotone=f.operator_monotone and 0.0 <= p <= 1.0,
        normalized=f.normalized,
        mp_fn=lambda t: f.mp(t) ** p,
    )


def per_trial_function(funcs) -> RepresentingFunction:
    """One function per trial of a stack, ``funcs[t]`` for trial t; the
    function itself when every trial has the same one.

    Its ``fn`` takes eigenvalues shaped (..., trials, d) and runs each
    distinct function, with its own scalar parameters, on its trials' rows:
    numpy's ``x ** 0.5`` and ``x ** 2.0`` take fast paths that an exponent
    array does not, and differ from it in the last bit.  The functions
    must share one domain.
    """
    funcs = tuple(funcs)
    distinct = list({id(f): f for f in funcs}.values())
    if len(distinct) == 1:
        return distinct[0]
    if len({f.domain for f in distinct}) > 1:
        raise ParameterError(f"functions on different domains cannot share a stack: {[f.label for f in distinct]}")
    rows = [[t for t, g in enumerate(funcs) if g is f] for f in distinct]

    def fn(t):
        if np.shape(t)[-2:-1] != (len(funcs),):
            raise ShapeError(f"expected {len(funcs)} trials on axis -2, got shape {np.shape(t)}")
        out = np.empty(np.shape(t))
        for f, r in zip(distinct, rows):
            out[..., r, :] = f.fn(t[..., r, :])
        return out

    return RepresentingFunction(
        label=np.array([f.label for f in funcs]),
        fn=fn,
        domain=distinct[0].domain,
        operator_monotone=np.array([f.operator_monotone for f in funcs]),
        normalized=np.array([f.normalized for f in funcs]),
        parts=funcs,
    )


def function_from_id(fid) -> RepresentingFunction:
    """Resolve a function id such as "arith:0.5", "geom:0.3", "power:0.7",
    "log", "powered:<id>:p" or "composed:power:p:<id>"; any other field,
    such as a second argument, raises ParameterError.

    An array of ids, one per trial (a stack of cells that differ in their
    mean), gives their ``per_trial_function`` function."""
    if isinstance(fid, np.ndarray):
        ids = fid.ravel().tolist()
        resolved = {i: function_from_id(i) for i in dict.fromkeys(ids)}
        return per_trial_function([resolved[i] for i in ids])
    if fid == "log":
        return log_fn
    parts = fid.split(":")
    kind = parts[0]
    try:
        if kind in ("arith", "geom", "power"):
            (arg,) = parts[1:]
            return {"arith": arithmetic_w, "geom": geometric_w, "power": power_fn}[kind](float(arg))
        if kind == "powered":
            return powered(function_from_id(":".join(parts[1:-1])), float(parts[-1]))
        if kind == "composed":
            if parts[1] != "power":
                raise ParameterError(f"unsupported outer function in {fid!r}")
            return composed(power_fn(float(parts[2])), function_from_id(":".join(parts[3:])))
    except (IndexError, ValueError) as exc:
        raise ParameterError(f"malformed function id {fid!r}") from exc
    raise ParameterError(f"unknown function id {fid!r}")


def require_mean(f: RepresentingFunction) -> RepresentingFunction:
    """A connection is a mean only if its representing function is normalized
    (on every trial, for a per-trial function)."""
    if not np.all(f.normalized):
        raise ParameterError(f"{f.label!r} is not normalized (f(1) != 1); not a mean")
    return f


def mean(a: np.ndarray, b: np.ndarray, f: RepresentingFunction) -> np.ndarray:
    """A sigma_f B = L f(L^{-1} B L^{-*}) L* for the Cholesky factor
    A = L L*, pair by pair for stacks (..., d, d) of A and B.

    A must be positive definite with margin (no silent regularization);
    B may be positive semidefinite.  A ``ConditioningError`` or
    ``DomainError`` names the failing pairs of a stack in ``where``.
    """
    require_mean(f)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    factor, inv_factor = congruence_factor(a)
    w = hermitize(inv_factor @ b @ adjoint(inv_factor))
    fw = spectral.apply_function(w, f.fn, f.domain)
    return hermitize(factor @ fw @ adjoint(factor))


def weighted_arithmetic(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """(1 - lam) A + lam B, computed exactly (accepts singular A)."""
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"weight must be in [0, 1], got {lam}")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return hermitize((1.0 - lam) * a + lam * b)

