"""Concrete unital positive linear maps.

Every variant sends positive matrices to positive matrices, is linear and
maps the identity to the identity.  ``apply`` takes a stack ``(..., d, d)``
of operands.  A map whose arrays carry a leading trial axis applies trial
t's map to operand t of a stack: ``Compression`` and ``UnitaryMixture``
take such arrays and check every trial's isometries in one ``_eigvalsh``
call, and ``take_map`` takes one trial's map, or a smaller stack, out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, ShapeError
from .spectral import _any, _eigvalsh, adjoint, hermitize, identity, matrix_from_json, matrix_to_json

_ISOMETRY_TOL = 1e-10


def _as_square(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (dim, dim):
        raise ShapeError(f"{what}: expected shape {(dim, dim)}, got {x.shape}")
    return x


def _isometry_error(v: np.ndarray) -> np.ndarray:
    """||V*V - I|| of each isometry of a stack, as the largest |eigenvalue|
    of the Hermitian difference; NaN where V has a NaN entry."""
    return np.abs(_eigvalsh(hermitize(adjoint(v) @ v - identity(v.shape[-1])))).max(axis=-1)


def _require_isometry(err: np.ndarray, what: str) -> None:
    """Reject where an isometry error exceeds ``_ISOMETRY_TOL`` or is NaN;
    ``where`` names the failing trials of a stack."""
    failed = ~(err <= _ISOMETRY_TOL)
    if _any(failed):
        raise ParameterError(f"{what} deviates from identity by {np.max(err[failed]):.3e}", where=failed)


@dataclass(frozen=True, eq=False)
class IdentityMap:
    dim: int

    @property
    def input_dim(self) -> int:
        return self.dim

    @property
    def output_dim(self) -> int:
        return self.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _as_square(x, self.dim, "identity map").copy()

    def to_json(self) -> dict:
        return {"kind": "identity", "dim": self.dim}


@dataclass(frozen=True, eq=False)
class Compression:
    """X -> V* X V for an isometry V (columns orthonormal)."""

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        if v.ndim < 2:
            raise ShapeError("compression needs a 2-d isometry")
        if v.shape[-1] > v.shape[-2]:
            raise ShapeError("compression cannot enlarge the space")
        _require_isometry(_isometry_error(v), "V*V")
        object.__setattr__(self, "v", v)

    @property
    def input_dim(self) -> int:
        return self.v.shape[-2]

    @property
    def output_dim(self) -> int:
        return self.v.shape[-1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "compression")
        return adjoint(self.v) @ x @ self.v

    def to_json(self) -> dict:
        return {
            "kind": "compression",
            "rows": int(self.v.shape[0]),
            "cols": int(self.v.shape[1]),
            "re": [float(t) for t in self.v.real.ravel()],
            "im": [float(t) for t in self.v.imag.ravel()],
        }


@dataclass(frozen=True, eq=False)
class UnitaryMixture:
    """X -> sum_i w_i U_i* X U_i with weights summing to one."""

    weights: np.ndarray
    unitaries: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        us = tuple(np.asarray(u, dtype=complex) for u in self.unitaries)
        if w.ndim < 1 or len(us) != w.shape[-1] or w.size == 0:
            raise ShapeError("need one unitary per weight")
        bad = np.any(w <= 0.0, axis=-1) | (np.abs(w.sum(axis=-1) - 1.0) > 1e-12)
        if _any(bad):
            raise ParameterError("weights must be positive and sum to one", where=bad)
        dim = us[0].shape[-1]
        if any(u.shape != w.shape[:-1] + (dim, dim) for u in us):
            raise ShapeError("unitaries must share one dimension")
        _require_isometry(_isometry_error(np.stack(us)).max(axis=0), "U*U")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", us)

    @property
    def input_dim(self) -> int:
        return self.unitaries[0].shape[-1]

    @property
    def output_dim(self) -> int:
        return self.input_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "unitary mixture")
        weights = self.weights.swapaxes(0, -1)[..., None, None]  # one factor per unitary
        return sum(w * (adjoint(u) @ x @ u) for w, u in zip(weights, self.unitaries))

    def to_json(self) -> dict:
        return {
            "kind": "unitary_mixture",
            "weights": [float(w) for w in self.weights],
            "unitaries": [matrix_to_json(u) for u in self.unitaries],
        }


@dataclass(frozen=True, eq=False)
class Pinching:
    """Block-diagonal truncation along an index partition."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in blk) for blk in self.blocks)
        flat = sorted(i for blk in blocks for i in blk)
        if not blocks or flat != list(range(len(flat))):
            raise ParameterError("blocks must partition 0..dim-1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def input_dim(self) -> int:
        return sum(len(blk) for blk in self.blocks)

    @property
    def output_dim(self) -> int:
        return self.input_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "pinching")
        out = np.zeros_like(x)
        for blk in self.blocks:
            idx = np.asarray(blk)
            out[..., idx[:, None], idx] = x[..., idx[:, None], idx]
        return out

    def to_json(self) -> dict:
        return {"kind": "pinching", "blocks": [list(blk) for blk in self.blocks]}


PositiveLinearMap = IdentityMap | Compression | UnitaryMixture | Pinching


def take_map(stacked: PositiveLinearMap, idx) -> PositiveLinearMap:
    """The trials ``idx`` of a map whose arrays carry a leading trial axis:
    an int gives that trial's map, an index array a smaller stack.  The
    stack was validated when it was built, so the result is not."""
    out = object.__new__(type(stacked))
    for field in fields(out):
        value = getattr(stacked, field.name)
        if isinstance(value, np.ndarray):
            value = value[idx]
        elif field.name == "unitaries":
            value = tuple(u[idx] for u in value)
        object.__setattr__(out, field.name, value)
    return out


def map_from_json(obj: dict) -> PositiveLinearMap:
    kind = obj.get("kind")
    if kind == "identity":
        return IdentityMap(int(obj["dim"]))
    if kind == "compression":
        rows, cols = int(obj["rows"]), int(obj["cols"])
        v = (np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float))
        return Compression(v.reshape(rows, cols))
    if kind == "unitary_mixture":
        us = tuple(matrix_from_json(u) for u in obj["unitaries"])
        return UnitaryMixture(np.asarray(obj["weights"], dtype=float), us)
    if kind == "pinching":
        return Pinching(tuple(tuple(blk) for blk in obj["blocks"]))
    raise ParameterError(f"unknown map kind {kind!r}")

