"""Concrete unital positive linear maps.

Every variant sends positive matrices to positive matrices, is linear and
maps the identity to the identity.  ``apply`` takes a stack ``(..., d, d)``
of operands.  A map whose arrays carry a leading trial axis applies trial
t's map to operand t of a stack: ``Compression`` and ``UnitaryMixture``
take such arrays and check every trial's isometries at once (by Frobenius
norms, or by one ``_eigvalsh`` call where those do not settle them), and
``take_map`` takes one trial's map, or a smaller stack, out.  The maps of a
family's members are built the same way on a member axis in front of the
trial axis, and ``take_map`` hands out each member's.

A stack of trials may also take maps of several kinds, of one output
dimension (``per_trial_map``): a ``PerTrialMap`` holds one part per kind,
that kind's map stacked over its own trials, and applies each part to its
trials' rows, so every trial gets the bits its own map gives it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, ShapeError
from .spectral import _any, _eigvalsh, _hermitize_in_place, adjoint, array_from_json, array_to_json, identity

_ISOMETRY_TOL = 1e-10


def _as_square(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (dim, dim):
        raise ShapeError(f"{what}: expected shape {(dim, dim)}, got {x.shape}")
    return x


def _isometry_error(v: np.ndarray) -> np.ndarray:
    """A bound on ||V*V - I|| of each isometry of a stack that decides
    ``_require_isometry`` as the norm itself would: the Frobenius norm when
    it is at most ``_ISOMETRY_TOL`` / 2 for every isometry, since it bounds
    the spectral norm and ``eigvalsh`` errs by far less than the other half;
    otherwise the norm, as the largest |eigenvalue| of the Hermitian
    difference, from one ``_eigvalsh`` call on the stack.  NaN where V has
    a NaN entry."""
    gap = adjoint(v) @ v
    gap -= identity(v.shape[-1])
    _hermitize_in_place(gap)
    frobenius = np.sqrt(np.square(gap.view(float)).sum(axis=(-2, -1)))
    if (frobenius <= _ISOMETRY_TOL / 2).all():
        return frobenius
    return np.abs(_eigvalsh(gap)).max(axis=-1)


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
        return {"kind": "compression", "v": array_to_json(self.v)}


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
            "weights": array_to_json(self.weights),
            "unitaries": [array_to_json(u) for u in self.unitaries],
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


@dataclass(frozen=True, eq=False)
class PerTrialMap:
    """One map per trial of a stack: ``parts[i]``, a map of one kind stacked
    over its trials, serves the trials ``rows[i]`` of the stack's trial axis.
    Made only by ``per_trial_map``, for parts of one input and one output
    dimension."""

    parts: tuple
    rows: tuple

    @property
    def input_dim(self) -> int:
        return self.parts[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.parts[0].output_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Each part applied to its trials' rows of a stack (..., trials, d, d)."""
        x = np.asarray(x, dtype=complex)
        trials = sum(len(r) for r in self.rows)
        if x.shape[-3:-2] != (trials,):
            raise ShapeError(f"per-trial map: expected {trials} trials on axis -3, got shape {x.shape}")
        out = np.empty(x.shape[:-2] + (self.output_dim, self.output_dim), dtype=complex)
        for part, r in zip(self.parts, self.rows):
            out[..., r, :, :] = part.apply(x[..., r, :, :])
        return out


def per_trial_map(parts, rows):
    """The map of a stack whose trials ``rows[i]`` (index arrays that together
    cover the trial axis once) take the map ``parts[i]``, stacked over those
    trials in order; the part itself when there is one."""
    if len(parts) == 1:
        return parts[0]
    if len({(p.input_dim, p.output_dim) for p in parts}) > 1:
        raise ShapeError("maps of different dimensions cannot share a stack")
    return PerTrialMap(tuple(parts), tuple(np.asarray(r) for r in rows))


PositiveLinearMap = IdentityMap | Compression | UnitaryMixture | Pinching | PerTrialMap


def take_map(stacked: PositiveLinearMap, idx) -> PositiveLinearMap:
    """The entries ``idx`` of a map's leading axis, trials or members: an int
    gives that trial's (or member's) map, an index array or a slice a
    smaller stack.  Of a ``PerTrialMap``, an int gives the trial's own map
    from its part, and an index array or a slice the per-trial map of what
    each part keeps, or the one part left.  The stack was validated when it
    was built, so the result is not."""
    if isinstance(stacked, PerTrialMap):
        part = np.empty(sum(len(r) for r in stacked.rows), dtype=int)
        local = np.empty_like(part)
        for i, r in enumerate(stacked.rows):
            part[r], local[r] = i, np.arange(len(r))
        if np.ndim(idx) == 0 and not isinstance(idx, slice):
            return take_map(stacked.parts[part[idx]], local[idx])
        part, local = part[idx], local[idx]
        kept = [i for i in range(len(stacked.parts)) if (part == i).any()]
        rows = [np.flatnonzero(part == i) for i in kept]
        return per_trial_map([take_map(stacked.parts[i], local[r]) for i, r in zip(kept, rows)], rows)
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
        return Compression(array_from_json(obj["v"]))
    if kind == "unitary_mixture":
        return UnitaryMixture(array_from_json(obj["weights"]), tuple(array_from_json(u) for u in obj["unitaries"]))
    if kind == "pinching":
        return Pinching(tuple(tuple(blk) for blk in obj["blocks"]))
    raise ParameterError(f"unknown map kind {kind!r}")

