"""Dense Hermitian linear algebra.

Everything downstream (means, positive maps, inequality checks) reduces to
the primitives in this module: eigendecomposition, matrix functional
calculus, spectral powers, Cholesky congruence factors and comparisons in
the Loewner order.  Matrices
are plain complex ``numpy`` arrays; Hermitian operands are symmetrized at
every construction site so that ``entries[i, j] == conj(entries[j, i])``
holds exactly.

Every operation takes a stack ``(..., d, d)`` of matrices as well as one
``d x d`` matrix, and acts on each matrix of the stack as it acts on that
matrix alone: stacked LAPACK and ``@`` calls give bit-identical results per
matrix.  Per-matrix results (slacks, norms, verdicts) carry the stack's
leading shape, which is ``()`` for a single matrix.  An operation that fails
on some matrices of a stack says which ones in the error's ``where``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConditioningError,
    DomainError,
    EigendecompositionError,
    ShapeError,
)

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-10

# Relative spectral floor below which congruence inversions are refused.
POSITIVITY_FLOOR = 1e-8


@dataclass(frozen=True)
class Tolerance:
    """Mixed absolute/relative comparison tolerance."""

    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL

    def __post_init__(self) -> None:
        if not (math.isfinite(self.atol) and math.isfinite(self.rtol)):
            raise ValueError("tolerances must be finite")
        if self.atol < 0.0 or self.rtol < 0.0:
            raise ValueError("tolerances must be nonnegative")

    def margin(self, scale: float) -> float:
        return self.atol + self.rtol * scale


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of one Loewner-order comparison.

    ``slack`` is the smallest eigenvalue of the Hermitized difference
    (dominant minus dominated operand) and is always reported raw;
    ``holds`` applies the mixed tolerance at ``scale``, the larger of the
    two operand spectral norms.
    """

    holds: bool | np.ndarray
    slack: float | np.ndarray
    scale: float | np.ndarray


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    vectors: np.ndarray  # unitary; columns are eigenvectors


def adjoint(x: np.ndarray) -> np.ndarray:
    """X* of each matrix of a stack: ``.T`` would reverse the stack's axes too."""
    return x.conj().swapaxes(-1, -2)


def hermitize(x: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian manifold: (X + X*)/2."""
    x = np.asarray(x, dtype=complex)
    return _halve(x + x.conj().swapaxes(-1, -2))


def _hermitize_in_place(x: np.ndarray) -> np.ndarray:
    """``hermitize`` of a complex array the caller owns, written over it."""
    x += x.conj().swapaxes(-1, -2)
    return _halve(x)


def _halve(x: np.ndarray) -> np.ndarray:
    """A complex array halved in place, each real and imaginary part on its
    own: dividing by 2 would divide by 2 + 0j, which makes an infinite
    part's partner NaN (inf * 0)."""
    parts = x.view(float)
    parts /= 2.0
    return x


def from_spectrum(u: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """U diag(vals) U* for each matrix of a stack of eigenvector matrices U."""
    return (u * vals[..., None, :]) @ adjoint(u)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def spectral_norm(x: np.ndarray):
    """Largest singular value of each matrix: the SVD behind ``np.linalg.norm(x, 2)``,
    without its axis handling."""
    return np.linalg.svd(x, compute_uv=False).max(axis=-1)


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian matrix of a stack.

    Every ``eigvalsh`` of the package goes through here, and every test that
    needs only the sign of lambda_min - t tries ``_certified_at_least``
    first: between them, the points at which to count or time both.
    """
    return np.linalg.eigvalsh(h)


#: The rounding band of ``_certified_at_least``, in units of d^3 u (max|h_ij| + |t|).
_CERTIFICATE_BAND = 1024.0
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _certificate_band(h: np.ndarray, t=0.0):
    """The band delta = ``_CERTIFICATE_BAND`` d^3 u (max|h_ij| + |t|) of
    each Hermitian matrix H of a stack and its threshold t (a number or
    one per matrix), or None when some delta is not a normal float: an
    entry or t is not finite, or underflow would void the error bound.

    A Cholesky factorization of H - (t + delta) I that runs to completion
    proves H - (t + delta) I + E positive definite with ||E|| <= c d^2 u
    ||H - (t + delta) I|| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, Thm 10.3), so lambda_min(H) >= t + delta -
    ||E||, and ``eigvalsh`` errs by at most c' d u ||H||, where ||H|| <= d
    max|h_ij|.  delta lies far above both, so a factored stack is one whose
    ``eigvalsh`` lambda_min is at least t for every matrix.
    """
    band = _CERTIFICATE_BAND * h.shape[-1] ** 3 * _UNIT_ROUNDOFF * (np.abs(h).max(axis=(-2, -1)) + np.abs(t))
    return band if np.all((band >= _TINY) & (band < math.inf)) else None


def _certified_at_least(h: np.ndarray, t=0.0) -> bool:
    """Whether ``_eigvalsh(h)[..., 0] >= t`` is certain for every Hermitian
    matrix H of a stack, from one Cholesky factorization of H - (t + delta) I
    (``_certificate_band``) and no eigenvalue.  t is a number or one per
    matrix.

    False, with no warning, when the factorization fails on some matrix,
    and without factoring when there is no band; a caller then decides the
    whole stack from ``_eigvalsh``, as without this test.  The
    factorization reads the lower triangle, as ``eigvalsh`` does.
    """
    h = np.asarray(h)
    band = _certificate_band(h, t)
    if band is None:
        return False
    shift = np.asarray(t + band)[..., None, None]
    try:
        np.linalg.cholesky(h - shift * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _floor_bound(h: np.ndarray, floor: float):
    """floor d max|h_ij| per matrix, at least floor lambda_max(H): a stack
    certified at least this bound clears floor lambda_max."""
    return floor * np.maximum(h.shape[-1] * np.abs(h).max(axis=(-2, -1)), 1e-300)


def floor_holds(h: np.ndarray, floor: float):
    """Whether lambda_min of each Hermitian matrix of a stack is at least
    floor lambda_max, as ``_eigvalsh`` gives them; False for a matrix with
    a non-finite entry.

    A stack certified at its ``_floor_bound`` (``_certified_at_least``)
    takes no eigenvalue; any other stack is decided by ``_eigvalsh_floor``.
    A bool array of the stack's leading shape (0-d for one matrix)."""
    h = np.asarray(h)
    if _certified_at_least(h, _floor_bound(h, floor)):
        return np.ones(h.shape[:-2], dtype=bool)
    return _eigvalsh_floor(h, floor)


def _eigvalsh_floor(h: np.ndarray, floor: float) -> np.ndarray:
    """``floor_holds`` from one ``_finite_eigvalsh`` call: a matrix with a
    non-finite entry fails."""
    lam, finite = _finite_eigvalsh(h)
    return finite & (lam[..., 0] >= floor * np.maximum(lam[..., -1], 1e-300))


def _finite_eigvalsh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``_eigvalsh`` of each matrix of a stack, whether its entries are all
    finite), in one call that takes no eigenvalue of a non-finite matrix:
    LAPACK either does not converge on it (``diag(2, nan, 3)``) or returns
    finite eigenvalues (``[0, -0]`` for ``diag(nan, 5)``), so it gets those
    of the zero matrix, which its caller must not read."""
    finite = np.isfinite(h).all(axis=(-2, -1))
    return _eigvalsh(h if finite.all() else np.where(finite[..., None, None], h, 0.0)), finite


def _any(mask) -> bool:
    """Whether a per-matrix mask marks any matrix (cheap for a single matrix)."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _first(mask: np.ndarray) -> tuple:
    """Index of the first True of a per-matrix mask; () for a single matrix."""
    return tuple(np.argwhere(mask)[0])


def matrix_hash(x: np.ndarray) -> str:
    """Short content hash used in diagnostics."""
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:12]


def eig(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of each Hermitian matrix of a stack, eigenvalues ascending.

    The reconstruction U diag(lam) U* is verified against the input; a
    failure to converge is reported with a content hash of the offending
    matrix (or stack) rather than silently returning garbage.
    """
    h = np.asarray(h, dtype=complex)
    try:
        lam, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigh failed to converge on matrix {matrix_hash(h)}: {exc}"
        ) from exc
    norm = np.abs(lam).max(axis=-1, initial=0.0)
    budget = h.shape[-1] * (DEFAULT_ATOL + DEFAULT_RTOL * norm) + 1e-13 * (1.0 + norm)
    err = np.linalg.norm(from_spectrum(u, lam) - h, axis=(-2, -1))
    bad = err > budget
    if _any(bad):
        i = _first(bad)
        raise EigendecompositionError(
            f"reconstruction error {err[i]:.3e} exceeds {budget[i]:.3e} "
            f"on matrix {matrix_hash(h[i])}"
        )
    return SpectralDecomposition(lam, u)


def _clip_to_interval(lam: np.ndarray, lo: float, hi: float, norm) -> np.ndarray:
    """Clip eigenvalues (..., d) into [lo, hi], allowing only rounding-level excursions.

    The margin kappa absorbs the drift that congruences such as
    A^{-1/2} B A^{-1/2} introduce at interval endpoints; anything farther
    out is a genuine domain violation.
    """
    kappa = 1e-12 * (1.0 + norm)
    if lo > -math.inf:
        worst = lam.min(axis=-1, initial=math.inf)
        _refuse(worst < lo - kappa, worst, "below", lo, kappa)
    if hi < math.inf:
        worst = lam.max(axis=-1, initial=-math.inf)
        _refuse(worst > hi + kappa, worst, "above", hi, kappa)
    return np.clip(lam, lo, hi)


def _refuse(out, worst, side: str, bound: float, kappa) -> None:
    """DomainError naming the matrices whose extreme eigenvalue is ``out`` of bounds."""
    if _any(out):
        i = _first(out)
        raise DomainError(
            f"eigenvalue {float(worst[i])!r} {side} domain bound {bound!r} "
            f"(margin {float(kappa[i]):.3e})",
            where=out,
        )


def apply_function(
    h: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float] = (-math.inf, math.inf),
) -> np.ndarray:
    """Matrix functional calculus: U diag(fn(lam)) U*.

    Eigenvalues must lie in ``domain`` up to the clip margin; values that
    drift past an endpoint by rounding are clipped onto it.
    """
    lam, u = eig(h)
    lam = _clip_to_interval(lam, domain[0], domain[1], np.abs(lam).max(axis=-1, initial=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(fn(lam), dtype=float)
    bad = ~np.isfinite(vals).all(axis=-1)
    if _any(bad):
        i = _first(bad)
        raise DomainError(
            f"function evaluated non-finite at eigenvalue(s) {lam[i][~np.isfinite(vals[i])]!r}",
            where=bad,
        )
    return hermitize(from_spectrum(u, vals))


def _operands(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as complex arrays, as they are: stacks whose leading shapes
    broadcast, of matrices of one shape."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-2:] != y.shape[-2:]:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x, y


def _larger(a, b):
    """``max(a, b)`` per matrix, NaN handling included: b only where b > a."""
    return np.where(b > a, b, a)


def loewner_leq(x: np.ndarray, y: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> OrderVerdict:
    """Decide X <= Y in the Loewner order, per matrix of a stack.

    slack = lambda_min of the Hermitized difference Y - X, reported raw.
    For one matrix the verdict holds Python scalars.
    """
    x, y = _operands(x, y)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    slack = _eigvalsh(hermitize(y - x))[..., 0]
    scale = _larger(spectral_norm(x), spectral_norm(y))
    holds = slack >= -tol.margin(scale)
    if slack.ndim == 0:
        return OrderVerdict(holds=bool(holds), slack=float(slack), scale=float(scale))
    return OrderVerdict(holds=holds, slack=slack, scale=scale)


def loewner_holds(x: np.ndarray, y: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """``loewner_leq(x, y, tol).holds``, sizing the tolerance only when it matters.

    The margin atol + rtol * scale is never negative, so a slack >= 0 holds
    whatever the scale; the two spectral norms are taken only for the
    matrices with a negative slack, and only those are broadcast against
    the other operand (a guard compares a stack with one m I).  A stack
    whose every difference ``_certified_at_least`` 0 takes no eigenvalue at
    all.  A NaN slack does not hold.  A non-finite difference also takes
    the full path: ``eigvalsh`` can return finite eigenvalues for it.  A
    bool for one matrix, a bool array for a stack.
    """
    x, y = _operands(x, y)
    diff = hermitize(y - x)
    return _gap_holds(diff, lambda rest: (np.broadcast_to(v, diff.shape)[rest] for v in (x, y)), tol)


def _gap_holds(diff: np.ndarray, operands: Callable, tol: Tolerance = DEFAULT_TOL):
    """``loewner_holds`` of X <= Y from its gap ``diff`` = hermitize(Y - X),
    formed by the caller; ``operands(rest)`` gives (X[rest], Y[rest]), the
    operands of the matrices a mask ``rest`` marks, which only the matrices
    with a negative (or NaN) slack or a non-finite gap need.  A stack whose
    every gap ``_certified_at_least`` 0 holds without an eigenvalue; any
    other stack takes its slacks from one ``_eigvalsh`` call."""
    if _certified_at_least(diff):
        holds = np.ones(diff.shape[:-2], dtype=bool)
        return bool(holds) if holds.ndim == 0 else holds
    slack = _eigvalsh(diff)[..., 0]
    holds = np.asarray((slack >= 0.0) & np.isfinite(diff).all(axis=(-2, -1)))
    rest = ~holds
    if _any(rest):
        x, y = operands(rest)
        holds[rest] = slack[rest] >= -tol.margin(_larger(spectral_norm(x), spectral_norm(y)))
    return bool(holds) if holds.ndim == 0 else holds


def congruence_factor(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^{-1}) with H = L L*, L lower triangular, for each Hermitian
    matrix H of a stack whose lambda_min clears ``POSITIVITY_FLOOR``
    lambda_max.

    One ``np.linalg.cholesky`` call on the stack [H - (t + delta) I; H],
    with t = ``_floor_bound`` and delta its ``_certificate_band``, both
    certifies the floor and gives L.  When that call fails, or there is no
    band, ``_eigvalsh_floor`` decides: a ``ConditioningError`` names the
    matrices below the floor in ``where``, and a stack that clears it is
    factored alone.  Each matrix gets the bits it gets alone.  L^{-1} is
    ``np.linalg.inv(L)``, an LU inverse: numpy has no triangular solve.
    """
    h = np.asarray(h, dtype=complex)
    t = _floor_bound(h, POSITIVITY_FLOOR)
    band = _certificate_band(h, t)
    factor = None
    if band is not None:
        try:
            factor = np.linalg.cholesky(np.stack([h - (t + band)[..., None, None] * np.eye(h.shape[-1]), h]))[1]
        except np.linalg.LinAlgError:
            pass
    if factor is None:
        bad = ~_eigvalsh_floor(h, POSITIVITY_FLOOR)
        if _any(bad):
            raise ConditioningError(
                f"congruence factor needs lambda_min above the positivity floor "
                f"{POSITIVITY_FLOOR:g} lambda_max on matrix {matrix_hash(h[_first(bad)])}",
                where=bad,
            )
        factor = np.linalg.cholesky(h)
    return factor, np.linalg.inv(factor)


def array_to_json(x) -> dict:
    """Serialize an array as {shape, re, im}: its shape and its row-major
    real parts, and imaginary parts only for a complex array."""
    x = np.asarray(x)
    out = {"shape": list(x.shape), "re": [float(v) for v in x.real.ravel()]}
    if np.iscomplexobj(x):
        out["im"] = [float(v) for v in x.imag.ravel()]
    return out


def array_from_json(obj: dict) -> np.ndarray:
    """The array ``array_to_json`` serialized: float, or complex when the
    object has ``im``."""
    shape = tuple(int(n) for n in obj["shape"])
    x = np.asarray(obj["re"], dtype=float)
    if "im" in obj:
        im = np.asarray(obj["im"], dtype=float)
        if im.shape != x.shape:
            raise ShapeError(f"serialized array has {x.size} real and {im.size} imaginary parts")
        x = x.astype(complex)
        x.imag = im
    if x.shape != (math.prod(shape),):
        raise ShapeError(f"serialized array of shape {shape} has {x.size} entries")
    return x.reshape(shape)
