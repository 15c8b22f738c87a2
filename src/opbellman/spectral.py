"""Dense Hermitian linear algebra.

Everything downstream (means, positive maps, inequality checks) reduces to
the primitives in this module: eigendecomposition, matrix functional
calculus, spectral powers and comparisons in the Loewner order.  Matrices
are plain complex ``numpy`` arrays; Hermitian operands are symmetrized at
every construction site so that ``entries[i, j] == conj(entries[j, i])``
holds exactly.
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

    holds: bool
    slack: float
    scale: float


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    vectors: np.ndarray  # unitary; columns are eigenvectors


def hermitize(x: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian manifold: (X + X*)/2."""
    x = np.asarray(x, dtype=complex)
    return (x + x.conj().T) / 2.0


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def spectral_norm(x: np.ndarray) -> float:
    """Largest singular value: the SVD behind ``np.linalg.norm(x, 2)``, without its axis handling."""
    return float(np.linalg.svd(x, compute_uv=False).max())


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    Every ``eigvalsh`` of the package goes through here: the one point at
    which to count or time them.
    """
    return np.linalg.eigvalsh(h)


def matrix_hash(x: np.ndarray) -> str:
    """Short content hash used in diagnostics."""
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()[:12]


def eig(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The reconstruction U diag(lam) U* is verified against the input; a
    failure to converge is reported with a content hash of the offending
    matrix rather than silently returning garbage.
    """
    h = np.asarray(h, dtype=complex)
    try:
        lam, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigh failed to converge on matrix {matrix_hash(h)}: {exc}"
        ) from exc
    recon = (u * lam) @ u.conj().T
    norm = float(np.abs(lam).max(initial=0.0))
    budget = h.shape[0] * (DEFAULT_ATOL + DEFAULT_RTOL * norm) + 1e-13 * (1.0 + norm)
    err = float(np.linalg.norm(recon - h))
    if err > budget:
        raise EigendecompositionError(
            f"reconstruction error {err:.3e} exceeds {budget:.3e} "
            f"on matrix {matrix_hash(h)}"
        )
    return SpectralDecomposition(lam, u)


def _clip_to_interval(lam: np.ndarray, lo: float, hi: float, norm: float) -> np.ndarray:
    """Clip eigenvalues into [lo, hi], allowing only rounding-level excursions.

    The margin kappa absorbs the drift that congruences such as
    A^{-1/2} B A^{-1/2} introduce at interval endpoints; anything farther
    out is a genuine domain violation.
    """
    kappa = 1e-12 * (1.0 + norm)
    if lo > -math.inf:
        worst = float(lam.min(initial=math.inf))
        if worst < lo - kappa:
            raise DomainError(
                f"eigenvalue {worst!r} below domain bound {lo!r} (margin {kappa:.3e})"
            )
    if hi < math.inf:
        worst = float(lam.max(initial=-math.inf))
        if worst > hi + kappa:
            raise DomainError(
                f"eigenvalue {worst!r} above domain bound {hi!r} (margin {kappa:.3e})"
            )
    return np.clip(lam, lo, hi)


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
    norm = float(np.abs(lam).max(initial=0.0))
    lam = _clip_to_interval(lam, domain[0], domain[1], norm)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(fn(lam), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = lam[~np.isfinite(vals)]
        raise DomainError(f"function evaluated non-finite at eigenvalue(s) {bad!r}")
    return hermitize((u * vals) @ u.conj().T)


def loewner_leq(x: np.ndarray, y: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> OrderVerdict:
    """Decide X <= Y in the Loewner order.

    slack = lambda_min of the Hermitized difference Y - X, reported raw.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = hermitize(y - x)
    slack = float(_eigvalsh(diff)[0])
    scale = max(spectral_norm(x), spectral_norm(y))
    return OrderVerdict(holds=slack >= -tol.margin(scale), slack=slack, scale=scale)


def loewner_holds(x: np.ndarray, y: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """``loewner_leq(x, y, tol).holds``, sizing the tolerance only when it matters.

    The margin atol + rtol * scale is never negative, so a slack >= 0 holds
    whatever the scale; the two spectral norms are taken only for a negative
    slack.  A NaN slack does not hold.  A non-finite difference also takes
    the full path: ``eigvalsh`` can return finite eigenvalues for it.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ShapeError(f"dimension mismatch: {x.shape} vs {y.shape}")
    diff = hermitize(y - x)
    slack = float(_eigvalsh(diff)[0])
    if slack >= 0.0 and np.isfinite(diff).all():
        return True
    return slack >= -tol.margin(max(spectral_norm(x), spectral_norm(y)))


def pd_root_pair(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H^{1/2}, H^{-1/2}) from a single decomposition of a PD matrix."""
    lam, u = eig(h)
    lam_min = float(lam.min(initial=math.inf))
    lam_max = float(np.abs(lam).max(initial=0.0))
    if lam_min < POSITIVITY_FLOOR * max(lam_max, 1e-300):
        raise ConditioningError(
            f"congruence root needs lambda_min above the positivity floor; "
            f"lambda_min = {lam_min:.6e}, norm = {lam_max:.6e}"
        )
    root = hermitize((u * lam**0.5) @ u.conj().T)
    inv_root = hermitize((u * lam**-0.5) @ u.conj().T)
    return root, inv_root


def matrix_to_json(x: np.ndarray) -> dict:
    """Serialize a square complex matrix as {dim, re, im} (row-major)."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {x.shape}")
    return {
        "dim": int(x.shape[0]),
        "re": [float(v) for v in x.real.ravel()],
        "im": [float(v) for v in x.imag.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != dim * dim or im.size != dim * dim:
        raise ShapeError(f"serialized matrix has {re.size} entries for dim {dim}")
    return (re + 1j * im).reshape(dim, dim)
