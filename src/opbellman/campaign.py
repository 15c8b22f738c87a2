"""Campaign execution: cell expansion, instance builders, reports, witnesses.

A campaign crosses every requested check with the parameter grids that
matter to it (dimension, family size, interval, exponent, weight, mean,
map) and runs ``trials`` seeded instances per cell.  Trial (check, cell,
trial) draws from its own counter-derived substream, so runs are
reproducible and order-independent; two runs with one seed produce
byte-identical JSON reports.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from . import __version__, checks
from .checks import (
    NOT_APPLICABLE,
    REGISTRY,
    VIOLATED,
    CheckOutcome,
    _gamma_cached,
    _na,
    _per_trial,
)
from .constants import MIN_INTERVAL, P_MIN
from .errors import HypothesisError, ParameterError, WitnessFormatError
from .instances import (
    EDGE_SHRINK,
    HEAD_KINDS,
    InstanceFamily,
    Streams,
    _scaled,
    complement_sandwich_family,
    random_contraction,
    random_pd,
    random_sandwich_family,
    random_spectrum_matrix,
    random_subidentity_family,
    random_weights,
    scalar_instance,
    stream_states,
    take,
    haar_unitary,
    random_unitary_mixture,
)
from .means import function_from_id
from .positive_maps import (
    Compression,
    IdentityMap,
    Pinching,
    UnitaryMixture,
    map_from_json,
    per_trial_map,
    take_map,
)
from .spectral import Tolerance, array_from_json, array_to_json

DEFAULT_SEED = 1729

#: Largest interval endpoint magnitude.  The eigensolver's reconstruction
#: check squares matrix entries, so entries past about 1e154 overflow it;
#: [0.5, 1e200] aborted a campaign there.
MAX_ENDPOINT = 1e150

_FALLBACK_INTERVAL = {
    "sandwich": (0.5, 2.0),
    "unit": (0.2, 0.8),
    "positive": (0.5, 2.0),
}


@dataclass(frozen=True)
class CampaignConfig:
    trials: int = 2
    dims: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    n_values: tuple[int, ...] = (1, 3)
    intervals: tuple[tuple[float, float], ...] = ((0.5, 2.0), (0.2, 0.8))
    p_grid: tuple[float, ...] = (0.5,)
    lambda_grid: tuple[float, ...] = (0.5,)
    means: tuple[str, ...] = ("arith:0.5", "geom:0.5")
    maps: tuple[str, ...] = ("id", "compress:2", "unitary-mix:2")
    checks: tuple[str, ...] = tuple(REGISTRY)
    seed: int = DEFAULT_SEED
    tolerance: Tolerance = Tolerance()

    def validate(self) -> None:
        if self.trials < 1:
            raise ParameterError("trials: must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ParameterError(f"seed={self.seed}: must be in [0, 2^64)")
        for name in ("dims", "n_values", "intervals", "p_grid", "lambda_grid", "means", "maps", "checks"):
            values = getattr(self, name)
            if not values:
                raise ParameterError(f"{name}: must be nonempty")
            # equal values make equal cells with equal streams, counted twice
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ParameterError(f"{name}[{i}]={value!r}: repeats {name}[{values.index(value)}]")
        for i, d in enumerate(self.dims):
            if d < 1:
                raise ParameterError(f"dims[{i}]={d}: must be >= 1")
        for i, n in enumerate(self.n_values):
            if n < 1:
                raise ParameterError(f"n_values[{i}]={n}: must be >= 1")
        for i, (m, M) in enumerate(self.intervals):
            if not (abs(m) <= MAX_ENDPOINT and abs(M) <= MAX_ENDPOINT):
                raise ParameterError(
                    f"intervals[{i}]=({m}, {M}): endpoints must be finite and at most "
                    f"{MAX_ENDPOINT:g} in magnitude"
                )
            if not M - m >= MIN_INTERVAL:
                raise ParameterError(f"intervals[{i}]=({m}, {M}): need M - m >= {MIN_INTERVAL:g}")
        for i, p in enumerate(self.p_grid):
            if not P_MIN <= p <= 1.0 - P_MIN:
                raise ParameterError(f"p_grid[{i}]={p}: must be in [{P_MIN}, {1.0 - P_MIN}]")
        for i, lam in enumerate(self.lambda_grid):
            if not 0.0 < lam < 1.0:
                raise ParameterError(f"lambda_grid[{i}]={lam}: must be in (0, 1)")
        for i, fid in enumerate(self.means):
            try:
                f = function_from_id(fid)
            except ParameterError as exc:
                raise ParameterError(f"means[{i}]: {exc}") from None
            if not (f.normalized and f.operator_monotone):
                raise ParameterError(
                    f"means[{i}]: {fid!r} is not a mean: needs f(1) = 1 and f operator monotone"
                )
        for i, map_id in enumerate(self.maps):
            try:
                _parse_map_id(map_id)
            except ParameterError as exc:
                raise ParameterError(f"maps[{i}]: {exc}") from None
        for cid in self.checks:
            if cid not in REGISTRY:
                raise ParameterError(f"checks: unknown inequality id {cid!r}")


def config_to_json(cfg: CampaignConfig) -> dict:
    """Serialize a config; the report echoes exactly this object."""
    return {
        "trials": cfg.trials,
        "dims": list(cfg.dims),
        "n_values": list(cfg.n_values),
        "intervals": [list(iv) for iv in cfg.intervals],
        "p_grid": list(cfg.p_grid),
        "lambda_grid": list(cfg.lambda_grid),
        "means": list(cfg.means),
        "maps": list(cfg.maps),
        "checks": list(cfg.checks),
        "seed": cfg.seed,
        "tolerance": {"atol": cfg.tolerance.atol, "rtol": cfg.tolerance.rtol},
    }


def _strict_int(value) -> int:
    """An integer config value; refuses fractions and booleans instead of truncating."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def config_from_json(obj: dict) -> CampaignConfig:
    """Config from its JSON object; a malformed value raises ParameterError
    naming its key."""
    if not isinstance(obj, dict):
        raise ParameterError("config must be a JSON object")
    known = {f.name for f in fields(CampaignConfig)}
    unknown = set(obj) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in obj.items():
        try:
            # a bare string iterates as its characters
            if key not in ("trials", "seed", "tolerance") and not isinstance(value, (list, tuple)):
                raise TypeError("expected a list")
            if key == "tolerance":
                kwargs[key] = Tolerance(float(value["atol"]), float(value["rtol"]))
            elif key == "intervals":
                kwargs[key] = tuple((float(a), float(b)) for a, b in value)
            elif key in ("dims", "n_values"):
                kwargs[key] = tuple(_strict_int(v) for v in value)
            elif key in ("p_grid", "lambda_grid"):
                kwargs[key] = tuple(float(v) for v in value)
            elif key in ("means", "maps", "checks"):
                kwargs[key] = tuple(str(v) for v in value)
            else:
                kwargs[key] = _strict_int(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"{key}: malformed value {value!r} ({exc})") from None
    cfg = CampaignConfig(**kwargs)
    cfg.validate()
    return cfg


# -- maps ---------------------------------------------------------------------


def _parse_map_id(map_id: str) -> tuple[str, int]:
    """Split a map id into (kind, argument); raises ParameterError unless it
    names a known kind with at most one argument, an integer >= 1."""
    if map_id == "id":
        return "id", 1
    kind, *args = map_id.split(":")
    if kind not in ("compress", "unitary-mix", "pinch"):
        raise ParameterError(f"unknown map id {map_id!r}")
    try:
        (arg,) = [int(a) for a in args] or [1]
    except ValueError as exc:
        raise ParameterError(f"malformed map id {map_id!r}") from exc
    if arg < 1:
        raise ParameterError(f"map id {map_id!r}: the argument must be >= 1")
    return kind, arg


def _map_output_dim(map_id: str, dim: int) -> int:
    """The output dimension of map ``map_id`` on operands of ``dim``:
    min(k, dim) for ``compress:k``, dim for every other kind."""
    kind, arg = _parse_map_id(map_id)
    return min(arg, dim) if kind == "compress" else dim


def build_map(map_id, dim: int, rngs, n: int = 1) -> list:
    """The n maps, one per member, of config id ``map_id`` for operands of
    ``dim``, each stacked over the streams of the stack ``rngs``: each
    stream draws the maps member by member, as n calls would, and one
    construction forms them on a member axis and checks every isometry in
    one call; ``take_map`` hands out each member's map.

    An array of ids, one per stream (a stack of cells that differ in their
    map, of one output dimension), builds each distinct id on its own
    streams, each drawing what it draws alone, and gives each member the
    ``per_trial_map`` of its parts."""
    if isinstance(map_id, np.ndarray):
        ids = map_id.tolist()
        rows = [[t for t, j in enumerate(ids) if j == i] for i in dict.fromkeys(ids)]
        parts = [build_map(ids[r[0]], dim, [rngs[t] for t in r], n) for r in rows]
        return [per_trial_map([p[j] for p in parts], rows) for j in range(n)]
    kind, arg = _parse_map_id(map_id)
    if kind == "id":
        made = IdentityMap(dim)
    elif kind == "compress":
        made = Compression(haar_unitary(dim, rngs, n)[..., : _map_output_dim(map_id, dim)])
    elif kind == "unitary-mix":
        made = UnitaryMixture(*random_unitary_mixture(dim, arg, rngs, n))
    else:
        b = min(arg, dim)
        bounds = np.linspace(0, dim, b + 1).astype(int)
        blocks = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(b) if bounds[i] < bounds[i + 1])
        made = Pinching(blocks)
    return [take_map(made, j) for j in range(n)]


# -- instance builders --------------------------------------------------------
#
# A builder maps (cell, rngs), an ``instances.Streams`` stack of one stream
# per trial, to (instances, draws): its instances are one family stacked on
# a trial axis, a scalar builder's the arrays ``instances.scalar_instance``
# stacks in ``aux``.  An operator builder draws from the stack's
# Generators, and its generators return the operands with the member axis
# in front of the trial axis and ``build_map`` a list of maps, one per
# member, which the family takes as they are; a scalar builder draws on
# the stack's arrays.  The
# trials may come from several cells that differ only in their
# ``_PER_TRIAL_KEYS``, their interval, their mean and their map: then
# ``cell["m"]``, ``cell["M"]``, ``cell["f"]`` and ``cell["map"]`` may be
# arrays of one value per trial (``_stack_cells``), which a builder
# hands on to the generators as they are, a mean as ``function_from_id``
# resolves it and a map as ``build_map`` builds it.  Either raises
# HypothesisError naming in ``where`` the trials whose hypotheses failed.
# ``draws`` holds one dict per trial: a trial's params are the cell without
# its instance-shape keys plus its draws, which never repeat a cell key (see
# run_check_trial).


def _shrunk(m: float, M: float) -> tuple[float, float]:
    d = EDGE_SHRINK * (M - m)
    return m + d, M - d


def _window_family(per_member_maps: bool):
    """Weighted family of n spectrum-window matrices with one map, or one
    map per member when ``per_member_maps``."""

    def build(cell, rngs):
        lo, hi = _shrunk(cell["m"], cell["M"])
        n, d = cell["n"], cell["dim"]
        fam = InstanceFamily(
            hypothesis_tag="spectrum_window_family",
            A=random_spectrum_matrix(d, (lo, hi), rngs, n),
            weights=random_weights(n, rngs),
            maps=build_map(cell["map"], d, rngs, n if per_member_maps else 1),
        )
        return fam, [{}] * len(rngs)

    return build


def _build_bellman_mean(cell, rngs):
    # each stream draws its cap of A, its cap of B, then the A and the B members
    caps = [np.array([rng.uniform(0.4, 0.85) for rng in rngs]) for _ in range(2)]
    a, b = random_subidentity_family(cell["n"], cell["dim"], rngs, caps)
    fam = InstanceFamily(hypothesis_tag="subidentity_pair_family", A=a, B=b)
    return fam, [{}] * len(rngs)


def _build_window_single(cell, rngs):
    lo, hi = _shrunk(cell["m"], cell["M"])
    fam = InstanceFamily(
        hypothesis_tag="spectrum_window",
        A=random_spectrum_matrix(cell["dim"], (lo, hi), rngs),
        maps=build_map(cell["map"], cell["dim"], rngs),
    )
    return fam, [{}] * len(rngs)


def _build_pd_family(cell, rngs):
    n, d = cell["n"], cell["dim"]
    # the A members, then the B members, drawn as one family
    x = random_pd(d, rngs, 0.3, 1.5, 2 * n)
    fam = InstanceFamily(hypothesis_tag="pd_family", A=x[:n], B=x[n:])
    return fam, [{}] * len(rngs)


def _build_dominated_family(cell, rngs):
    n, d = cell["n"], cell["dim"]
    # the A members, the B members, then the excess of each total, drawn as one family
    x = random_pd(d, rngs, 0.2, 1.0, 2 * n + 2)
    a, b = x[:n], x[n : 2 * n]
    fam = InstanceFamily(
        hypothesis_tag="dominated_family",
        A=a,
        B=b,
        aux={"A_total": sum(a) + x[2 * n], "B_total": sum(b) + x[2 * n + 1]},
    )
    return fam, [{}] * len(rngs)


def _build_pd_contraction_pair(cell, rngs):
    d = cell["dim"]
    fam = InstanceFamily(
        hypothesis_tag="pd_contraction_pair",
        A=random_spectrum_matrix(d, (0.1, 0.95), rngs),
        B=random_pd(d, rngs, 0.3, 2.0),
    )
    return fam, [{}] * len(rngs)


def _build_sandwich_pair(cell, rngs):
    d = cell["dim"]
    a, b = random_sandwich_family(d, 1, (0.5, 1.5), cell["m"], cell["M"], rngs)
    fam = InstanceFamily(hypothesis_tag="sandwich_pair", A=a, B=b, maps=build_map(cell["map"], d, rngs))
    return fam, [{}] * len(rngs)


def _build_sandwich_family(cell, rngs):
    d, n = cell["dim"], cell["n"]
    a, b = random_sandwich_family(d, n, (0.5, 1.5), cell["m"], cell["M"], rngs)
    fam = InstanceFamily(hypothesis_tag="sandwich_family", A=a, B=b)
    return fam, [{}] * len(rngs)


def _complement_family(mean_id: str | None = None, gamma_scaled: bool = False, lam_is_p: bool = False):
    """Complement-sandwich family for the pairwise mean ``mean_id.format(**cell)``,
    or the cell's own mean ``f`` (one per trial of a stack) when ``mean_id``
    is None, scaled by gamma_f when ``gamma_scaled``.

    The Aczel-type reverse ties its geometric weight to the exponent: its
    additive constant is the chord gap of t^p, so the matching mean is the
    p-weighted geometric one, and ``lam_is_p`` records lam = p as a draw.
    """

    def build(cell, rngs):
        m, M = cell["m"], cell["M"]
        f_id = cell["f"] if mean_id is None else mean_id.format(**cell)
        g = _per_trial(_gamma_cached, f_id, m, M) if gamma_scaled else 1.0
        fam = complement_sandwich_family(cell["dim"], cell["n"], (m, M), function_from_id(f_id), g, rngs)
        return fam, [{"lam": cell["p"]} if lam_is_p else {}] * len(rngs)

    return build


def _build_contraction_window(cell, rngs):
    d = cell["dim"]
    lo, hi = _shrunk(cell["m"], cell["M"])
    kinds = ["unitary" if rng.uniform() < 0.5 else "ginibre" for rng in rngs]
    fam = InstanceFamily(
        hypothesis_tag="contraction_window",
        A=random_spectrum_matrix(d, (lo, hi), rngs),
        aux={"C": random_contraction(d, rngs, kinds)},
    )
    return fam, [{}] * len(rngs)


def _build_pd_contraction_sandwich(cell, rngs):
    a, b = random_sandwich_family(cell["dim"], 1, (0.15, 0.9), cell["m"], cell["M"], rngs)
    fam = InstanceFamily(hypothesis_tag="pd_contraction_sandwich", A=a, B=b)
    return fam, [{}] * len(rngs)


def _build_chain_interp(cell, rngs):
    fam, _ = _build_bellman_mean(cell, rngs)
    return fam, [{"t": [float(v) for v in rng.uniform(0.0, 1.0, size=cell["n"])]} for rng in rngs]


def _build_scalar(kind):
    """The builder of a scalar kind: each stream draws its row count and a
    head kind's exponent, then ``instances.scalar_instance`` draws the rest
    and returns their stack; every draw step is one array draw of the
    stream stack (``instances.Streams``), which makes no Generator."""

    def build(cell, streams):
        rows = streams.integers(1, 4)
        if kind not in HEAD_KINDS:
            return scalar_instance(kind, (rows, cell["n"]), cell["p"], streams), [{}] * len(streams)
        if kind == "bellman":
            p = streams.integers(1, 5).astype(float)
        elif kind == "popoviciu":
            # The same-exponent product form follows from the Hoelder-type
            # original only for p <= 2; above 2 it admits counterexamples.
            p = _scaled(streams.random(1)[:, 0], 1.0, 2.0)
        else:
            p = np.full(len(streams), 2.0)
        return scalar_instance(kind, (rows, cell["n"]), p, streams), [{"p": x} for x in p.tolist()]

    return build


BUILDERS = {
    "bellman_map": _window_family(per_member_maps=False),
    "bellman_mean": _build_bellman_mean,
    "jensen_map": _build_window_single,
    "mean_superadditive": _build_pd_family,
    "mean_remainder": _build_dominated_family,
    "mean_power_compose": _build_pd_contraction_pair,
    "jensen_ratio_reverse": _build_window_single,
    "mean_map_ratio_reverse": _build_sandwich_pair,
    "mean_sum_ratio_reverse": _build_sandwich_family,
    "bellman_ratio_reverse": _complement_family(gamma_scaled=True),
    "compression_ratio_reverse": _build_contraction_window,
    "mean_power_ratio_reverse": _build_pd_contraction_sandwich,
    "bellman_arith_reverse": _complement_family("arith:{lam!r}"),
    "jensen_diff_reverse": _build_window_single,
    "mean_map_diff_reverse": _build_sandwich_pair,
    "mean_sum_diff_reverse": _build_sandwich_family,
    "bellman_diff_reverse": _complement_family(),
    "aczel_reverse": _complement_family("geom:{p!r}", lam_is_p=True),
    "jensen_family_diff_reverse": _window_family(per_member_maps=True),
    "bellman_family_reverse": _window_family(per_member_maps=True),
    "log_family_reverse": _window_family(per_member_maps=False),
    "bellman_chain_split": _build_bellman_mean,
    "bellman_chain_interp": _build_chain_interp,
    "scalar_bellman": _build_scalar("bellman"),
    "scalar_aczel": _build_scalar("aczel"),
    "scalar_popoviciu": _build_scalar("popoviciu"),
    "scalar_bellman_weighted": _build_scalar("mp3"),
    "scalar_bellman_columns": _build_scalar("mp1"),
    "scalar_bellman_reverse": _build_scalar("eq3"),
}

def _interval_matches(kind: str, m: float, M: float) -> bool:
    if kind == "sandwich":
        return 0.0 < m < 1.0 < M
    if kind == "unit":
        return 0.0 <= m < M < 1.0
    if kind == "positive":
        return 0.0 < m < M
    return False


def _intervals_for(entry, cfg: CampaignConfig) -> list[tuple[float, float]]:
    good = [iv for iv in cfg.intervals if _interval_matches(entry.interval_kind, *iv)]
    return good or [_FALLBACK_INTERVAL[entry.interval_kind]]


def expand_cells(check_id: str, cfg: CampaignConfig) -> list[dict]:
    """Cross the grids relevant to one check into concrete parameter cells."""
    entry = REGISTRY[check_id]
    axes = entry.axes
    cells: list[dict] = [{}]

    def cross(values, key):
        nonlocal cells
        cells = [dict(c, **{key: v}) for c in cells for v in values]

    if "dim" in axes:
        cross(cfg.dims, "dim")
    if "n" in axes:
        cross(cfg.n_values, "n")
    if "n2" in axes:
        ns = [n for n in cfg.n_values if n >= 2] or [2]
        cross(ns, "n")
    if "interval" in axes:
        ivs = _intervals_for(entry, cfg)
        cells = [dict(c, m=iv[0], M=iv[1]) for c in cells for iv in ivs]
    if "p" in axes:
        cross(cfg.p_grid, "p")
    if "lam" in axes:
        cross(cfg.lambda_grid, "lam")
    if "f" in axes:
        cross(cfg.means, "f")
    if "f+log" in axes:
        cross(list(cfg.means) + ["log"], "f")
    if "map" in axes:
        cross(cfg.maps, "map")
    if "k" in axes:
        cells = [dict(c, k=k) for c in cells for k in range(1, c["n"])]
    return cells


# -- witnesses ----------------------------------------------------------------


def _family_to_json(inst: InstanceFamily) -> dict:
    return {
        "hypothesis_tag": inst.hypothesis_tag,
        "A": [] if inst.A is None else [array_to_json(a) for a in inst.A],
        "B": None if inst.B is None else [array_to_json(b) for b in inst.B],
        "weights": None if inst.weights is None else array_to_json(inst.weights),
        "maps": None if inst.maps is None else [m.to_json() for m in inst.maps],
        "aux": {k: array_to_json(v) for k, v in inst.aux.items()},
    }


def _family_from_json(obj: dict) -> InstanceFamily:
    return InstanceFamily(
        hypothesis_tag=obj["hypothesis_tag"],
        A=[array_from_json(a) for a in obj["A"]],
        B=None if obj["B"] is None else [array_from_json(b) for b in obj["B"]],
        weights=None if obj["weights"] is None else array_from_json(obj["weights"]),
        maps=None if obj["maps"] is None else [map_from_json(m) for m in obj["maps"]],
        aux={k: array_from_json(v) for k, v in obj["aux"].items()},
    )


def make_witness(check_id: str, params: dict, inst: InstanceFamily, outcome: CheckOutcome, provenance: dict) -> dict:
    """Replayable record of one check evaluation on one trial's family."""
    return {
        "schema": "opbellman-witness/2",
        "check": check_id,
        "params": params,
        "instance": {"family": _family_to_json(inst)},
        "outcome": {
            "status": outcome.status,
            "slack": outcome.slack,
            "scale": outcome.scale,
            "chain_slacks": None if outcome.chain_slacks is None else list(outcome.chain_slacks),
        },
        "provenance": provenance,
    }


class _WitnessParams(dict):
    """A witness's params, as a checker reads them: a key the check needs
    and the witness lacks is a schema error, not a checker's KeyError."""

    lacking = "witness params lack"

    def __missing__(self, key):
        raise WitnessFormatError(f"{self.lacking} {key!r}")


class _WitnessArrays(_WitnessParams):
    """A witness family's ``aux`` arrays, read as its params are."""

    lacking = "witness family aux lacks"


def replay_witness(obj: dict, tol: Tolerance = Tolerance()) -> tuple[CheckOutcome, dict, bool]:
    """Re-run a recorded check; returns (fresh outcome, recorded outcome, match).

    Match means the recomputed slack agrees with the recorded one to 1e-12.
    """
    if not isinstance(obj, dict) or obj.get("schema") != "opbellman-witness/2":
        raise WitnessFormatError("not an opbellman-witness/2 document")
    for key in ("check", "params", "instance", "outcome"):
        if key not in obj:
            raise WitnessFormatError(f"witness is missing field {key!r}")
    check_id = obj["check"]
    if not isinstance(check_id, str) or check_id not in REGISTRY:
        raise WitnessFormatError(f"witness names unknown check {check_id!r}")
    for key in ("params", "outcome"):
        if not isinstance(obj[key], dict):
            raise WitnessFormatError(f"witness field {key!r} is not an object")
    try:
        inst = _family_from_json(obj["instance"]["family"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WitnessFormatError(f"bad instance payload: {exc}") from exc
    if REGISTRY[check_id].group != "scalar" and inst.A is None:
        raise WitnessFormatError(f"witness family of operator check {check_id!r} has no operands")
    if inst.B is not None and inst.B.shape != inst.A.shape:
        raise WitnessFormatError(f"witness family operands differ in shape: A {inst.A.shape}, B {inst.B.shape}")
    inst.aux = _WitnessArrays(inst.aux)
    outcome = checks.check(check_id, inst, _WitnessParams(obj["params"]), tol)
    recorded = obj["outcome"]
    rec_slack = recorded.get("slack")
    if outcome.status == NOT_APPLICABLE or rec_slack is None:
        match = outcome.status == recorded.get("status")
    else:
        match = (
            outcome.status == recorded.get("status")
            and math.isfinite(outcome.slack)
            and abs(outcome.slack - float(rec_slack)) <= 1e-12
        )
    return outcome, recorded, match


# -- campaign execution -------------------------------------------------------


#: Cell keys that only shape an instance; no checker reads them.
_SHAPE_KEYS = ("dim", "n", "map")

#: Cell keys that the builders and checkers take per trial: the interval,
#: used only as numbers, the mean, whose function a stack resolves per
#: trial (``means.per_trial_function``), and the map, which a stack builds
#: per trial (``build_map``, ``positive_maps.per_trial_map``).  A group's key
#: keeps the map's output dimension, so every trial of a stack has operands
#: of one shape.  ``p``, ``lam`` and ``k`` stay in a group's key: numpy's
#: power takes fast paths for some scalar exponents that an exponent array
#: does not, so per-trial exponents would move last bits.
_PER_TRIAL_KEYS = ("m", "M", "f", "map")


class _Build:
    """The seeded (cell, trial) ``pairs`` of one builder call, on arrays of
    one entry per trial: ``row``, its entry in ``stack`` (-1 if the builder
    rejected it; ``draws`` per entry); ``guard``, the guard that makes it
    not applicable, or None; ``exact``, the index of its exact outcome in
    ``outcomes``, or -1; and [lo, hi] enclosures of its ``slack``, ``scale``
    and slack/scale (``normalized``), NaN where unknown, points for an exact
    outcome; and, in ``violated``, the trials whose exact outcome violates
    the inequality.  A trial has a normalized slack where its scale's lower
    end is positive.  A trial's outcome, instance, params and provenance are
    formed only when asked for.
    """

    def __init__(self, check_id: str, cfg: CampaignConfig, pairs: list):
        self.check_id, self.cfg, self.pairs = check_id, cfg, pairs
        self.stack, self.draws, self.outcomes, self.violated, self.cell_params = None, [], [], [], {}
        self.row, self.exact = np.full((2, len(pairs)), -1)
        self.guard = np.empty(len(pairs), dtype=object)  # an object array starts as None
        # slack, scale and normalized are views of one array, set together
        self.ends = np.full((len(pairs), 3, 2), np.nan)
        self.slack, self.scale, self.normalized = self.ends.swapaxes(0, 1)

    def settle(self, idx: np.ndarray, outcomes: list[CheckOutcome]) -> None:
        """Give the trials ``idx`` their exact ``outcomes``."""
        self.exact[idx] = np.arange(len(self.outcomes), len(self.outcomes) + len(outcomes))
        self.outcomes += outcomes
        for i, o in zip(idx.tolist(), outcomes):
            if o.status == NOT_APPLICABLE:
                self.guard[i] = (o.witness or {}).get("guard", "unspecified")
            elif o.status == VIOLATED:
                self.violated.append(i)
        points = [(o.slack, o.scale, o.slack / o.scale if o.scale > 0 else math.nan) for o in outcomes]
        self.ends[idx] = np.array(points)[:, :, None]

    def enclose(self, idx: np.ndarray, slack: np.ndarray, scale: np.ndarray) -> None:
        """Enclose the trials ``idx``, which hold for certain, by (k, 2) slack
        and scale enclosures, scales above 0, and slack/scale by the least
        and greatest ratio of their ends as Python's ``min`` and ``max`` pick."""
        self.slack[idx], self.scale[idx] = slack, scale
        ratios = (slack[:, :, None] / scale[:, None, :]).reshape(-1, 4)
        lo = hi = ratios[:, 0]
        for r in np.moveaxis(ratios[:, 1:], 1, 0):
            lo, hi = np.where(r < lo, r, lo), np.where(r > hi, r, hi)
        self.normalized[idx] = np.stack([lo, hi], axis=1)

    def outcome(self, i: int) -> CheckOutcome | None:
        """Trial i's exact outcome, a not-applicable one at its guard, or None."""
        if self.exact[i] >= 0:
            return self.outcomes[self.exact[i]]
        return None if self.guard[i] is None else _na(self.check_id, self.guard[i])

    def inst(self, i: int) -> InstanceFamily | None:
        """Trial i's own instance (``instances.take``); None if rejected."""
        return None if self.row[i] < 0 else take(self.stack, int(self.row[i]))

    def params(self, i: int) -> dict | None:
        """Trial i's params: its cell without ``_SHAPE_KEYS``, formed once per
        cell, plus its draws."""
        row = self.row.item(i)
        if row < 0:
            return None
        cell = self.pairs[i][0]
        if id(cell) not in self.cell_params:
            self.cell_params[id(cell)] = {k: v for k, v in cell.items() if k not in _SHAPE_KEYS}
        return self.cell_params[id(cell)] | self.draws[row]

    def provenance(self, i: int) -> dict:
        cell, trial = self.pairs[i]
        return {"seed": self.cfg.seed, "cell": cell, "trial": trial}


#: A cell's JSON as a stream key holds it: ``json.dumps(cell, sort_keys=True)``,
#: with one encoder for every cell.
_cell_json = json.JSONEncoder(sort_keys=True).encode


def _stream_states(keys: list[tuple[str, dict]], trials, cfg: CampaignConfig) -> np.ndarray:
    """The PCG64 states (keys, trials, 4) of the streams of each of
    ``trials`` of each (check, cell) of ``keys``, keyed (check, cell JSON,
    trial), from one ``stream_states`` call: each cell's JSON is formed
    once and the trials are the last word of its keys."""
    words = [(check_id, _cell_json(cell)) for check_id, cell in keys]
    return stream_states(cfg.seed, words, trials).reshape(len(keys), len(trials), 4)


def _stack_cells(cells: list[dict]) -> dict:
    """``checks._stack_params`` of the cells of a build's trials, which differ
    at most in their ``_PER_TRIAL_KEYS``, so only those are compared."""
    first = cells[0]
    per_trial = [k for k in _PER_TRIAL_KEYS if k in first and any(c[k] != first[k] for c in cells)]
    return first | {k: np.asarray([c[k] for c in cells]) for k in per_trial}


def _build_trials(check_id: str, pairs, cfg: CampaignConfig, states: np.ndarray) -> _Build:
    """Draw the instances of the seeded (cell, trial) ``pairs``, of cells that
    differ at most in their ``_PER_TRIAL_KEYS``, in one builder call on their
    streams, with each of those keys per trial where the cells' differ.

    Each trial keeps its own stream, from ``states``, the PCG64 states
    (pairs, 4) that ``_stream_states`` seeds: the builder gets them as one
    ``instances.Streams`` stack, which makes Generators only for a builder
    that iterates or indexes it (the operator builders) and draws a scalar
    builder's steps on arrays.  A trial named in the ``where`` of a
    builder's ``HypothesisError`` gets the guard ``generator_rejected``, and
    the other trials are built again from a fresh stack of the same states,
    so the stack holds exactly the built trials, in order."""
    build = _Build(check_id, cfg, pairs)
    live = np.arange(len(pairs))
    while live.size:
        try:
            build.stack, build.draws = BUILDERS[check_id](
                _stack_cells([pairs[i][0] for i in live.tolist()]), Streams(states[live])
            )
        except HypothesisError as exc:
            failed = np.broadcast_to(exc.where, live.shape)
            build.guard[live[failed]] = "generator_rejected"
            live = live[~failed]
            continue
        build.row[live] = np.arange(live.size)
        break
    return build


def _size(stack: InstanceFamily) -> int:
    """The number of trials of a builder's stack: the length of the trial
    axis of its operands, or of a scalar stack's first ``aux`` array."""
    return len(next(iter(stack.aux.values()))) if stack.A is None else stack.A.shape[1]


def _check_pending(build: _Build, idx: np.ndarray) -> None:
    """Settle the trials ``idx`` of ``build``, built trials with neither a
    guard nor an exact outcome yet, in one ``checks.check_cell`` call on the
    build's stack, or on ``take`` of their entries where they are not all
    of it."""
    if not idx.size:
        return
    stack = build.stack if idx.size == _size(build.stack) else take(build.stack, build.row[idx])
    params = [build.params(i) for i in idx.tolist()]
    build.settle(idx, checks.check_cell(build.check_id, stack, params, build.cfg.tolerance))


def _checked_trials(check_id: str, cell: dict, cfg: CampaignConfig, trials) -> _Build:
    """The seeded trials ``trials`` of one cell, seeded and built in one
    builder call and the built ones checked in one ``checks.check_cell``
    call on its stack."""
    states = _stream_states([(check_id, cell)], trials, cfg)[0]
    build = _build_trials(check_id, [(cell, trial) for trial in trials], cfg, states)
    _check_pending(build, np.flatnonzero(build.row >= 0))
    return build


def run_check_trial(check_id: str, cell: dict, cfg: CampaignConfig, trial: int):
    """One seeded trial, built and checked as a stack of one; returns
    (outcome, inst, params, provenance).

    The params are the cell without its instance-shape keys ``_SHAPE_KEYS``,
    plus whatever the builder drew itself."""
    build = _checked_trials(check_id, cell, cfg, [trial])
    return build.outcome(0), build.inst(0), build.params(0), build.provenance(0)


def _filter_trials(build: _Build) -> np.ndarray:
    """Settle the built trials where the check's float64 bounds decide a
    guard, and enclose the slack and scale of those whose bounds show that
    they hold: a positive scale and a slack at or above the margin's
    negative at the scale's lower end.  Returns the built trials it leaves
    to the exact check: every one, for a check without bounds."""
    built = np.flatnonzero(build.row >= 0)
    bounds = REGISTRY[build.check_id].bounds
    if bounds is None or not built.size:
        return built
    b = bounds(build.stack)
    build.guard[built] = b.guard
    scale_lo = b.scale[:, 0]
    holds = (scale_lo > 0) & (b.slack[:, 0] >= -build.cfg.tolerance.margin(scale_lo))
    build.enclose(built[holds], b.slack[holds], b.scale[holds])
    return built[np.equal(b.guard, None) & ~holds]


def _narrow(build: _Build, cell: dict) -> None:
    """Check exactly the trials of a scalar build, one cell's, whose
    enclosures leave its reported values open, each step's trials a mask
    over the build checked in one ``_check_pending`` call.  Where the check
    declares a ``tie`` for the cell, the first applicable trial is checked,
    and each trial the filter left to hold gets its exact slack as a point
    enclosure, where its own contains it.  Then a trial without an exact
    outcome is checked unless its slack interval is a point or lies above
    the smallest slack upper end, and its slack/scale interval is a point
    or misses [k-th smallest lower end, k-th smallest upper end] for each
    middle rank k, the lower first; the minimum and the k-th ends are
    Python's ``min`` and ``sorted`` on the cell's values in trial order."""
    applicable = np.equal(build.guard, None)
    lo, hi, n_lo, n_hi = build.slack[:, 0], build.slack[:, 1], build.normalized[:, 0], build.normalized[:, 1]
    if applicable.any() and REGISTRY[build.check_id].ties(cell):
        head = np.argmax(applicable)
        if build.exact[head] < 0:
            _check_pending(build, np.array([head]))
        c = lo[head]
        idx = np.flatnonzero(applicable & (build.exact < 0) & (lo <= c) & (c <= hi))
        build.enclose(idx, np.full((idx.size, 2), c), build.scale[idx])
    top = min(hi[applicable].tolist(), default=math.inf)
    _check_pending(build, np.flatnonzero(applicable & (lo < hi) & (lo <= top)))
    normed = applicable & (build.scale[:, 0] > 0)
    count = int(normed.sum())
    for k in sorted({(count - 1) // 2, count // 2}) if count else ():
        lo_k, hi_k = sorted(n_lo[normed].tolist())[k], sorted(n_hi[normed].tolist())[k]
        window = normed & (n_lo <= hi_k) & (n_hi >= lo_k)
        _check_pending(build, np.flatnonzero(window & (n_lo < n_hi)))


def _cell_summaries(build: _Build, cells: list[dict]) -> list[dict]:
    """The report records of the cells of one build, each cell's trials a
    row of it, every trial settled.  ``_narrow`` first checks exactly the
    scalar trials whose enclosures a record depends on; the others are read
    at their lower ends.  The build's arrays become lists once, and a cell's
    minimum and median are Python's ``min`` and ``statistics.median`` on its
    values in trial order, so a NaN falls where it fell trial by trial."""
    check_id, cfg = build.check_id, build.cfg
    if REGISTRY[check_id].bounds is not None:
        (cell,) = cells  # a scalar cell is a group of its own
        _narrow(build, cell)
    witnesses = [[] for _ in cells]
    for i in sorted(build.violated):
        witness = make_witness(check_id, build.params(i), build.inst(i), build.outcome(i), build.provenance(i))
        witnesses[i // cfg.trials].append(witness)
    guards = build.guard.tolist()
    slack_lo, normalized_lo = build.slack[:, 0].tolist(), build.normalized[:, 0].tolist()
    normed = (build.scale[:, 0] > 0).tolist()
    out = []
    for c, (cell, witnesses) in enumerate(zip(cells, witnesses)):
        trials = range(c * cfg.trials, (c + 1) * cfg.trials)
        applicable = [i for i in trials if guards[i] is None]
        slacks = [slack_lo[i] for i in applicable]
        normalized = [normalized_lo[i] for i in applicable if normed[i]]
        least = min((s for s in slacks if s < math.inf), default=None)
        na_guards = sorted(guards[i] for i in trials if guards[i] is not None)
        out.append({
            "check": check_id,
            "cell": cell,
            "trials": cfg.trials,
            "holds": len(slacks) - len(witnesses),
            "violations": len(witnesses),
            "not_applicable": cfg.trials - len(slacks),
            "na_guards": {guard: na_guards.count(guard) for guard in na_guards},
            "min_slack": min(slacks) if slacks else None,
            "median_normalized_slack": median(normalized) if normalized else None,
            "argmin": None if least is None else {"trial": applicable[slacks.index(least)] - trials.start},
            "violation_witnesses": witnesses,
        })
    return out


def _stack_groups(cells: list[dict]) -> list[list[int]]:
    """The indices of ``cells`` grouped by the cell without its
    ``_PER_TRIAL_KEYS``, and by the output dimension of its map
    (``_map_output_dim``) where it has one, in order of first appearance; a
    group builds and checks as one stack.  A scalar cell, which has none of
    those keys, is a group of its own."""
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        key = tuple((k, v) for k, v in cell.items() if k not in _PER_TRIAL_KEYS)
        if "map" in cell:
            key += (_map_output_dim(cell["map"], cell["dim"]),)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _checked_cells(check_id: str, cells: list[dict], states: np.ndarray, cfg: CampaignConfig):
    """The report record of each of the cells ``cells`` of one check, in
    order, from the states (cells, trials, 4) of their trials' streams.

    The cells that differ only in their ``_PER_TRIAL_KEYS`` are built in one
    ``_build_trials`` call when the first of them comes up, filtered by the
    check's float64 bounds where it has them, the trials the filter leaves
    are checked in one ``_check_pending`` call, and ``_cell_summaries``
    gives every cell of the group its record at once.  The build is let go
    then, and each record once yielded.
    """
    groups = {group[0]: group for group in _stack_groups(cells)}
    records = {}
    for i in range(len(cells)):
        if i in groups:
            group = groups[i]
            pairs = [(cells[j], t) for j in group for t in range(cfg.trials)]
            build = _build_trials(check_id, pairs, cfg, states[group].reshape(len(pairs), 4))
            _check_pending(build, _filter_trials(build))
            records.update(zip(group, _cell_summaries(build, [cells[j] for j in group])))
        yield records.pop(i)


def run_campaign(cfg: CampaignConfig) -> dict:
    """Execute the full campaign and return the report document.

    The streams of every trial of the campaign are seeded in one
    ``_stream_states`` pass, and each cell's record comes from
    ``_checked_cells``, which builds and checks the cells of a check that
    differ only in their interval, their mean and their map (of one output
    dimension) as one stack, and summarizes them together in
    ``_cell_summaries``, which checks any further trials the summary needs
    exactly.
    """
    cfg.validate()
    cells_out = []
    total = {"trials": 0, "holds": 0, "violations": 0, "not_applicable": 0}
    warnings = []
    na_by_check: dict[str, int] = {}
    trials_by_check: dict[str, int] = {}

    cells = {check_id: expand_cells(check_id, cfg) for check_id in cfg.checks}
    states = _stream_states([(c, cell) for c in cells for cell in cells[c]], range(cfg.trials), cfg)
    ends = np.cumsum([len(c) for c in cells.values()])[:-1]
    for (check_id, check_cells), check_states in zip(cells.items(), np.split(states, ends)):
        for row in _checked_cells(check_id, check_cells, check_states, cfg):
            cells_out.append(row)
            total["trials"] += cfg.trials
            total["holds"] += row["holds"]
            total["violations"] += row["violations"]
            total["not_applicable"] += row["not_applicable"]
            na_by_check[check_id] = na_by_check.get(check_id, 0) + row["not_applicable"]
            trials_by_check[check_id] = trials_by_check.get(check_id, 0) + cfg.trials

    for check_id, n_na in sorted(na_by_check.items()):
        n_tr = trials_by_check[check_id]
        if n_tr and n_na / n_tr > 0.5:
            warnings.append(
                f"{check_id}: {n_na}/{n_tr} trials not applicable; tune the generator"
            )

    import mpmath

    return {
        "schema": "opbellman-report/1",
        "config": config_to_json(cfg),
        "versions": {
            "opbellman": __version__,
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
        },
        "summary": dict(total),
        "warnings": warnings,
        "cells": cells_out,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_CSV_CELL_KEYS = ("dim", "n", "m", "M", "p", "lam", "f", "map", "k")


def report_to_csv(report: dict) -> str:
    """Flat projection: one row per (check, parameter cell)."""
    header = (
        ["check"]
        + list(_CSV_CELL_KEYS)
        + ["trials", "holds", "violations", "not_applicable", "min_slack", "median_normalized_slack"]
    )
    lines = [",".join(header)]
    for row in report["cells"]:
        cell = row["cell"]
        values = [row["check"]]
        values += ["" if cell.get(k) is None else str(cell.get(k, "")) for k in _CSV_CELL_KEYS]
        values += [
            str(row["trials"]),
            str(row["holds"]),
            str(row["violations"]),
            str(row["not_applicable"]),
            "" if row["min_slack"] is None else repr(row["min_slack"]),
            "" if row["median_normalized_slack"] is None else repr(row["median_normalized_slack"]),
        ]
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def report_to_text(report: dict) -> str:
    s = report["summary"]
    lines = [
        f"checks: {len(report['config']['checks'])}  trials: {s['trials']}  "
        f"holds: {s['holds']}  violations: {s['violations']}  not_applicable: {s['not_applicable']}"
    ]
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    by_check: dict[str, dict] = {}
    for row in report["cells"]:
        agg = by_check.setdefault(
            row["check"], {"trials": 0, "holds": 0, "violations": 0, "na": 0, "min_slack": math.inf}
        )
        agg["trials"] += row["trials"]
        agg["holds"] += row["holds"]
        agg["violations"] += row["violations"]
        agg["na"] += row["not_applicable"]
        if row["min_slack"] is not None:
            agg["min_slack"] = min(agg["min_slack"], row["min_slack"])
    for check_id, agg in by_check.items():
        ms = "n/a" if agg["min_slack"] is math.inf else f"{agg['min_slack']:.3e}"
        lines.append(
            f"{check_id:32s} trials={agg['trials']:<6d} holds={agg['holds']:<6d} "
            f"violations={agg['violations']:<4d} na={agg['na']:<4d} min_slack={ms}"
        )
    return "\n".join(lines) + "\n"
