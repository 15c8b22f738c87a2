"""Concrete unital positive linear maps.

Every variant sends positive matrices to positive matrices, is linear and
maps the identity to the identity.  The block variants (``BlockAverage``,
``WeightedFamily``) read the diagonal blocks of their input, which makes
them unital positive maps on the larger space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .spectral import (
    DEFAULT_TOL,
    OrderVerdict,
    Tolerance,
    hermitize,
    identity,
    loewner_holds,
    spectral_norm,
)

_ISOMETRY_TOL = 1e-10


def _as_square(x: np.ndarray, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (dim, dim):
        raise ShapeError(f"{what}: expected shape {(dim, dim)}, got {x.shape}")
    return x


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
        if v.ndim != 2:
            raise ShapeError("compression needs a 2-d isometry")
        if v.shape[1] > v.shape[0]:
            raise ShapeError("compression cannot enlarge the space")
        gram = v.conj().T @ v
        err = spectral_norm(gram - identity(v.shape[1]))
        if err > _ISOMETRY_TOL:
            raise ParameterError(f"V*V deviates from identity by {err:.3e}")
        object.__setattr__(self, "v", v)

    @property
    def input_dim(self) -> int:
        return self.v.shape[0]

    @property
    def output_dim(self) -> int:
        return self.v.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "compression")
        return self.v.conj().T @ x @ self.v

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
        if w.ndim != 1 or len(us) != w.size or w.size == 0:
            raise ShapeError("need one unitary per weight")
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ParameterError("weights must be positive and sum to one")
        dim = us[0].shape[0]
        for u in us:
            if u.shape != (dim, dim):
                raise ShapeError("unitaries must share one dimension")
            err = spectral_norm(u.conj().T @ u - identity(dim))
            if err > _ISOMETRY_TOL:
                raise ParameterError(f"U*U deviates from identity by {err:.3e}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "unitaries", us)

    @property
    def input_dim(self) -> int:
        return self.unitaries[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.input_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "unitary mixture")
        out = np.zeros_like(x)
        for w, u in zip(self.weights, self.unitaries):
            out += w * (u.conj().T @ x @ u)
        return out

    def to_json(self) -> dict:
        return {
            "kind": "unitary_mixture",
            "weights": [float(w) for w in self.weights],
            "unitaries": [
                {
                    "dim": int(u.shape[0]),
                    "re": [float(t) for t in u.real.ravel()],
                    "im": [float(t) for t in u.imag.ravel()],
                }
                for u in self.unitaries
            ],
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
            out[np.ix_(idx, idx)] = x[np.ix_(idx, idx)]
        return out

    def to_json(self) -> dict:
        return {"kind": "pinching", "blocks": [list(blk) for blk in self.blocks]}


@dataclass(frozen=True, eq=False)
class BlockAverage:
    """diag(X_1, ..., X_n) -> (1/n) sum_j X_j (reads diagonal blocks)."""

    n: int
    block_dim: int

    def __post_init__(self):
        if self.n < 1 or self.block_dim < 1:
            raise ParameterError("need n >= 1 blocks of dimension >= 1")

    @property
    def input_dim(self) -> int:
        return self.n * self.block_dim

    @property
    def output_dim(self) -> int:
        return self.block_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "block average")
        d = self.block_dim
        out = np.zeros((d, d), dtype=complex)
        for j in range(self.n):
            out += x[j * d : (j + 1) * d, j * d : (j + 1) * d]
        return out / self.n

    def to_json(self) -> dict:
        return {"kind": "block_average", "n": self.n, "block_dim": self.block_dim}


@dataclass(frozen=True, eq=False)
class WeightedFamily:
    """diag(A_1, ..., A_n) -> sum_j w_j Phi_j(A_j).

    Inner maps must share a common output dimension; their input
    dimensions set the block sizes of the expected input.
    """

    weights: np.ndarray
    maps: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        maps = tuple(self.maps)
        if w.ndim != 1 or len(maps) != w.size or w.size == 0:
            raise ShapeError("need one inner map per weight")
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ParameterError("weights must be positive and sum to one")
        out_dims = {m.output_dim for m in maps}
        if len(out_dims) != 1:
            raise ParameterError(f"inner maps disagree on output dimension: {out_dims}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "maps", maps)

    @property
    def input_dim(self) -> int:
        return sum(m.input_dim for m in self.maps)

    @property
    def output_dim(self) -> int:
        return self.maps[0].output_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _as_square(x, self.input_dim, "weighted family")
        out = np.zeros((self.output_dim, self.output_dim), dtype=complex)
        offset = 0
        for w, m in zip(self.weights, self.maps):
            d = m.input_dim
            out += w * m.apply(x[offset : offset + d, offset : offset + d])
            offset += d
        return out

    def to_json(self) -> dict:
        return {
            "kind": "weighted_family",
            "weights": [float(w) for w in self.weights],
            "maps": [m.to_json() for m in self.maps],
        }


PositiveLinearMap = (
    IdentityMap | Compression | UnitaryMixture | Pinching | BlockAverage | WeightedFamily
)


def map_from_json(obj: dict) -> PositiveLinearMap:
    kind = obj.get("kind")
    if kind == "identity":
        return IdentityMap(int(obj["dim"]))
    if kind == "compression":
        rows, cols = int(obj["rows"]), int(obj["cols"])
        v = (np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float))
        return Compression(v.reshape(rows, cols))
    if kind == "unitary_mixture":
        us = []
        for u in obj["unitaries"]:
            d = int(u["dim"])
            us.append(
                (np.asarray(u["re"], dtype=float) + 1j * np.asarray(u["im"], dtype=float)).reshape(d, d)
            )
        return UnitaryMixture(np.asarray(obj["weights"], dtype=float), tuple(us))
    if kind == "pinching":
        return Pinching(tuple(tuple(blk) for blk in obj["blocks"]))
    if kind == "block_average":
        return BlockAverage(int(obj["n"]), int(obj["block_dim"]))
    if kind == "weighted_family":
        return WeightedFamily(
            np.asarray(obj["weights"], dtype=float),
            tuple(map_from_json(m) for m in obj["maps"]),
        )
    raise ParameterError(f"unknown map kind {kind!r}")


def block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Assemble diag(X_1, ..., X_n)."""
    dims = [b.shape[0] for b in blocks]
    total = sum(dims)
    out = np.zeros((total, total), dtype=complex)
    offset = 0
    for b, d in zip(blocks, dims):
        out[offset : offset + d, offset : offset + d] = b
        offset += d
    return out


def check_unital(spec: PositiveLinearMap, tol: Tolerance = DEFAULT_TOL) -> OrderVerdict:
    """Verdict for Phi(I) = I; slack is minus the deviation norm."""
    dev = spectral_norm(spec.apply(identity(spec.input_dim)) - identity(spec.output_dim))
    return OrderVerdict(holds=dev <= tol.margin(1.0), slack=-dev, scale=1.0)


def check_positive(
    spec: PositiveLinearMap,
    samples: int,
    rng: np.random.Generator,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Statistically test positivity on random PSD inputs."""
    d = spec.input_dim
    zero = np.zeros((spec.output_dim, spec.output_dim), dtype=complex)
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        psd = hermitize(g @ g.conj().T)
        if not loewner_holds(zero, hermitize(spec.apply(psd)), tol):
            return False
    return True
