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
    SCALAR_IDS,
    VIOLATED,
    CheckOutcome,
    _gamma_cached,
    _na,
    _per_trial,
    _stack_params,
)
from .constants import MIN_INTERVAL, P_MIN
from .errors import HypothesisError, ParameterError, WitnessFormatError
from .instances import (
    EDGE_SHRINK,
    InstanceFamily,
    complement_sandwich_family,
    random_contraction,
    random_pd,
    random_sandwich_pair,
    random_spectrum_matrix,
    random_subidentity_family,
    random_weights,
    scalar_instance,
    subrng,
    take,
    haar_unitary,
)
from .means import function_from_id
from .positive_maps import (
    Compression,
    IdentityMap,
    Pinching,
    UnitaryMixture,
    map_from_json,
)
from .spectral import Tolerance, matrix_from_json, matrix_to_json

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
        for name in ("dims", "n_values", "intervals", "p_grid", "lambda_grid", "means", "maps", "checks"):
            if not getattr(self, name):
                raise ParameterError(f"{name}: must be nonempty")
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


def build_map(map_id: str, dim: int, rng):
    """Instantiate a positive map from its config id for operands of ``dim``,
    from one Generator or, stacked, from a list of them."""
    kind, arg = _parse_map_id(map_id)
    if kind == "id":
        return IdentityMap(dim)
    if kind == "compress":
        return Compression(haar_unitary(dim, rng)[..., : min(arg, dim)])
    if kind == "unitary-mix":
        return UnitaryMixture(random_weights(arg, rng), tuple(haar_unitary(dim, rng) for _ in range(arg)))
    b = min(arg, dim)
    bounds = np.linspace(0, dim, b + 1).astype(int)
    blocks = tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(b) if bounds[i] < bounds[i + 1])
    return Pinching(blocks)


# -- instance builders --------------------------------------------------------
#
# A builder maps (cell, rngs), one stream per trial, to (instances, draws):
# an operator builder's instances are one family stacked on a leading trial
# axis, a scalar builder's a list.  The trials may come from several cells
# that differ only in their ``_PER_TRIAL_KEYS``, their interval and their
# mean: then ``cell["m"]``, ``cell["M"]`` and ``cell["f"]`` may be arrays of
# one value per trial (``checks._stack_params``), which a builder hands on
# to the generators as they are, a mean as ``function_from_id`` resolves
# it.  Either raises HypothesisError naming in ``where`` the trials whose
# hypotheses failed; a scalar builder, whose trials draw independently,
# attaches its other trials' instances and draws as ``built``.  ``draws``
# holds one dict per trial: a trial's params are the cell without its
# instance-shape keys plus its draws, which never repeat a cell key (see
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
            A=[random_spectrum_matrix(d, (lo, hi), rngs) for _ in range(n)],
            weights=random_weights(n, rngs),
            maps=[build_map(cell["map"], d, rngs) for _ in range(n if per_member_maps else 1)],
        )
        return fam, [{}] * len(rngs)

    return build


def _build_bellman_mean(cell, rngs):
    cap_a = np.array([rng.uniform(0.4, 0.85) for rng in rngs])
    cap_b = np.array([rng.uniform(0.4, 0.85) for rng in rngs])
    fam = InstanceFamily(
        hypothesis_tag="subidentity_pair_family",
        A=random_subidentity_family(cell["n"], cell["dim"], rngs, cap_a),
        B=random_subidentity_family(cell["n"], cell["dim"], rngs, cap_b),
    )
    return fam, [{}] * len(rngs)


def _build_window_single(cell, rngs):
    lo, hi = _shrunk(cell["m"], cell["M"])
    x = random_spectrum_matrix(cell["dim"], (lo, hi), rngs)
    fam = InstanceFamily(
        hypothesis_tag="spectrum_window",
        A=[x],
        maps=[build_map(cell["map"], cell["dim"], rngs)],
    )
    return fam, [{}] * len(rngs)


def _build_pd_family(cell, rngs):
    n, d = cell["n"], cell["dim"]
    fam = InstanceFamily(
        hypothesis_tag="pd_family",
        A=[random_pd(d, rngs, 0.3, 1.5) for _ in range(n)],
        B=[random_pd(d, rngs, 0.3, 1.5) for _ in range(n)],
    )
    return fam, [{}] * len(rngs)


def _build_dominated_family(cell, rngs):
    n, d = cell["n"], cell["dim"]
    a = [random_pd(d, rngs, 0.2, 1.0) for _ in range(n)]
    b = [random_pd(d, rngs, 0.2, 1.0) for _ in range(n)]
    fam = InstanceFamily(
        hypothesis_tag="dominated_family",
        A=a,
        B=b,
        aux={
            "A_total": sum(a) + random_pd(d, rngs, 0.2, 1.0),
            "B_total": sum(b) + random_pd(d, rngs, 0.2, 1.0),
        },
    )
    return fam, [{}] * len(rngs)


def _build_pd_contraction_pair(cell, rngs):
    d = cell["dim"]
    fam = InstanceFamily(
        hypothesis_tag="pd_contraction_pair",
        A=[random_spectrum_matrix(d, (0.1, 0.95), rngs)],
        B=[random_pd(d, rngs, 0.3, 2.0)],
    )
    return fam, [{}] * len(rngs)


def _build_sandwich_pair(cell, rngs):
    d = cell["dim"]
    x = random_pd(d, rngs, 0.5, 1.5)
    x, y = random_sandwich_pair(x, cell["m"], cell["M"], rngs)
    fam = InstanceFamily(
        hypothesis_tag="sandwich_pair",
        A=[x],
        B=[y],
        maps=[build_map(cell["map"], d, rngs)],
    )
    return fam, [{}] * len(rngs)


def _build_sandwich_family(cell, rngs):
    d, n = cell["dim"], cell["n"]
    pairs = [random_sandwich_pair(random_pd(d, rngs, 0.5, 1.5), cell["m"], cell["M"], rngs) for _ in range(n)]
    fam = InstanceFamily(
        hypothesis_tag="sandwich_family",
        A=[p[0] for p in pairs],
        B=[p[1] for p in pairs],
    )
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
        A=[random_spectrum_matrix(d, (lo, hi), rngs)],
        aux={"C": random_contraction(d, rngs, kinds)},
    )
    return fam, [{}] * len(rngs)


def _build_pd_contraction_sandwich(cell, rngs):
    d = cell["dim"]
    a = random_spectrum_matrix(d, (0.15, 0.9), rngs)
    a, b = random_sandwich_pair(a, cell["m"], cell["M"], rngs)
    fam = InstanceFamily(hypothesis_tag="pd_contraction_sandwich", A=[a], B=[b])
    return fam, [{}] * len(rngs)


def _build_chain_interp(cell, rngs):
    fam, _ = _build_bellman_mean(cell, rngs)
    return fam, [{"t": [float(v) for v in rng.uniform(0.0, 1.0, size=cell["n"])]} for rng in rngs]


def _build_scalar(kind):
    def build(cell, rngs):
        insts, draws, rejected = [], [], np.zeros(len(rngs), dtype=bool)
        for t, rng in enumerate(rngs):
            rows = int(rng.integers(1, 4))
            if kind == "bellman":
                d = {"p": float(rng.integers(1, 5))}
            elif kind == "aczel":
                d = {"p": 2.0}
            elif kind == "popoviciu":
                # The same-exponent product form follows from the Hoelder-type
                # original only for p <= 2; above 2 it admits counterexamples.
                d = {"p": float(rng.uniform(1.0, 2.0))}
            else:
                d = {}
            try:
                insts.append(scalar_instance(kind, (rows, cell["n"]), (cell | d)["p"], rng))
                draws.append(d)
            except HypothesisError:
                rejected[t] = True
        if rejected.any():
            raise HypothesisError(f"{kind} instances failed their hypothesis", where=rejected, built=(insts, draws))
        return insts, draws

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
    if entry.interval_kind == "none":
        return [(math.nan, math.nan)]
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
        "A": [matrix_to_json(a) for a in inst.A],
        "B": None if inst.B is None else [matrix_to_json(b) for b in inst.B],
        "weights": None if inst.weights is None else [float(w) for w in inst.weights],
        "maps": None if inst.maps is None else [m.to_json() for m in inst.maps],
        "aux": {k: matrix_to_json(v) for k, v in inst.aux.items()},
    }


def _family_from_json(obj: dict) -> InstanceFamily:
    return InstanceFamily(
        hypothesis_tag=obj["hypothesis_tag"],
        A=[matrix_from_json(a) for a in obj["A"]],
        B=None if obj["B"] is None else [matrix_from_json(b) for b in obj["B"]],
        weights=None if obj["weights"] is None else np.asarray(obj["weights"], dtype=float),
        maps=None if obj["maps"] is None else [map_from_json(m) for m in obj["maps"]],
        aux={k: matrix_from_json(v) for k, v in obj.get("aux", {}).items()},
    )


def _scalar_inst_to_json(inst: dict) -> dict:
    out = {}
    for key, value in inst.items():
        if isinstance(value, np.ndarray):
            out[key] = {"array": value.tolist()}
        else:
            out[key] = float(value)
    return out


def _scalar_inst_from_json(obj: dict) -> dict:
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict) and "array" in value:
            out[key] = np.asarray(value["array"], dtype=float)
        else:
            out[key] = float(value)
    return out


def make_witness(check_id: str, params: dict, inst, outcome: CheckOutcome, provenance: dict) -> dict:
    """Replayable record of one check evaluation."""
    if check_id in SCALAR_IDS:
        payload = {"scalars": _scalar_inst_to_json(inst)}
    else:
        payload = {"family": _family_to_json(inst)}
    return {
        "schema": "opbellman-witness/1",
        "check": check_id,
        "params": params,
        "instance": payload,
        "outcome": {
            "status": outcome.status,
            "slack": outcome.slack,
            "scale": outcome.scale,
            "chain_slacks": None if outcome.chain_slacks is None else list(outcome.chain_slacks),
        },
        "provenance": provenance,
    }


def replay_witness(obj: dict, tol: Tolerance = Tolerance()) -> tuple[CheckOutcome, dict, bool]:
    """Re-run a recorded check; returns (fresh outcome, recorded outcome, match).

    Match means the recomputed slack agrees with the recorded one to 1e-12.
    """
    if not isinstance(obj, dict) or obj.get("schema") != "opbellman-witness/1":
        raise WitnessFormatError("not an opbellman witness document")
    for key in ("check", "params", "instance", "outcome"):
        if key not in obj:
            raise WitnessFormatError(f"witness is missing field {key!r}")
    check_id = obj["check"]
    if check_id not in REGISTRY:
        raise WitnessFormatError(f"witness names unknown check {check_id!r}")
    payload = obj["instance"]
    try:
        if check_id in SCALAR_IDS:
            inst = _scalar_inst_from_json(payload["scalars"])
        else:
            inst = _family_from_json(payload["family"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WitnessFormatError(f"bad instance payload: {exc}") from exc
    outcome = checks.check(check_id, inst, obj["params"], tol)
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
#: used only as numbers, and the mean, whose function a stack resolves per
#: trial (``means.per_trial_function``).  ``p``, ``lam`` and ``k`` stay in a
#: group's key: numpy's power takes fast paths for some scalar exponents
#: that an exponent array does not, so per-trial exponents would move last
#: bits.
_PER_TRIAL_KEYS = ("m", "M", "f")


@dataclass
class _Trial:
    """One trial of a cell, as the cell summary sees it.

    ``stack`` holds the instances of one builder call, exactly its built
    trials in order (an operator builder's stack or a scalar builder's list),
    and the trial is its entry ``index``.  ``outcome`` is exact (from the
    check's runner, or a guard or generator rejection).  Without one, the
    trial holds for certain and ``slack`` and ``normalized`` enclose its
    slack and slack/scale; with one, they are that outcome's values,
    ``normalized`` None where scale > 0 fails.
    """

    provenance: dict
    stack: object = None
    index: int | None = None
    params: dict | None = None
    outcome: CheckOutcome | None = None
    slack: tuple[float, float] | None = None
    normalized: tuple[float, float] | None = None

    def settle(self, outcome: CheckOutcome) -> "_Trial":
        self.outcome = outcome
        self.slack = (outcome.slack, outcome.slack)
        self.normalized = (outcome.slack / outcome.scale,) * 2 if outcome.scale > 0 else None
        return self

    @property
    def inst(self):
        """The trial's own instance; an operator trial's family is formed only here."""
        if isinstance(self.stack, InstanceFamily):
            return take(self.stack, self.index)
        return None if self.stack is None else self.stack[self.index]


def _build_trials(check_id: str, pairs, cfg: CampaignConfig) -> list[_Trial]:
    """Draw the instances of the seeded (cell, trial) ``pairs``, of cells that
    differ at most in their ``_PER_TRIAL_KEYS``, in one builder call on their
    streams, with each of those keys per trial where the cells' differ.

    Each trial keeps its own stream, provenance and params.  A trial named
    in the ``where`` of a builder's ``HypothesisError`` gets a
    ``generator_rejected`` outcome; the other trials keep the instances the
    error carries (a scalar builder's), or else are built again from fresh
    copies of their streams."""
    cells = {id(cell): cell for cell, _ in pairs}
    keys = {i: json.dumps(cell, sort_keys=True) for i, cell in cells.items()}
    params = {i: {k: v for k, v in cell.items() if k not in _SHAPE_KEYS} for i, cell in cells.items()}
    out = [_Trial({"seed": cfg.seed, "cell": cell, "trial": trial}) for cell, trial in pairs]
    live = list(range(len(out)))
    while live:
        rngs = [subrng(cfg.seed, check_id, keys[id(pairs[i][0])], pairs[i][1]) for i in live]
        try:
            stack, draws = BUILDERS[check_id](_stack_params([pairs[i][0] for i in live]), rngs)
        except HypothesisError as exc:
            failed = np.broadcast_to(exc.where, (len(live),))
            for i in np.flatnonzero(failed):
                out[live[i]].settle(_na(check_id, "generator_rejected"))
            live = [i for i, f in zip(live, failed) if not f]
            if exc.built is None:
                continue
            stack, draws = exc.built
        for k, (i, d) in enumerate(zip(live, draws)):
            out[i].stack, out[i].index, out[i].params = stack, k, params[id(pairs[i][0])] | d
        break
    return out


def _check_pending(check_id: str, trials: list[_Trial], tol: Tolerance) -> None:
    """Settle the trials of one build that have no outcome yet, in one
    ``checks.check_cell`` call.  An operator build's pending trials are its
    whole stack, since no filter settles any of them first; a scalar cell's
    are checked as the list of their instances."""
    pending = [t for t in trials if t.outcome is None]
    if not pending:
        return
    stack = pending[0].stack
    if isinstance(stack, list):
        stack = [stack[t.index] for t in pending]
    for t, outcome in zip(pending, checks.check_cell(check_id, stack, [t.params for t in pending], tol)):
        t.settle(outcome)


def _checked_trials(check_id: str, cell: dict, cfg: CampaignConfig, trials) -> list[_Trial]:
    """The seeded trials ``trials`` of one cell, built in one builder call and
    the built ones checked in one ``checks.check_cell`` call on its stack."""
    out = _build_trials(check_id, [(cell, trial) for trial in trials], cfg)
    _check_pending(check_id, out, cfg.tolerance)
    return out


def run_check_trial(check_id: str, cell: dict, cfg: CampaignConfig, trial: int):
    """One seeded trial, built and checked as a stack of one; returns
    (outcome, inst, params, provenance).

    The params are the cell without its instance-shape keys ``_SHAPE_KEYS``,
    plus whatever the builder drew itself."""
    (t,) = _checked_trials(check_id, cell, cfg, [trial])
    return t.outcome, t.inst, t.params, t.provenance


def _filter_trials(check_id: str, trials: list[_Trial], tol: Tolerance) -> None:
    """Settle the built trials of a cell where the check's float64 bounds
    decide a guard, and enclose the slack of those that certainly hold; a
    check without bounds leaves every trial to ``_cell_summary``."""
    bounds = REGISTRY[check_id].bounds
    built = [t for t in trials if t.outcome is None]
    if bounds is None or not built:
        return
    for t, b in zip(built, bounds(built[0].stack)):
        if isinstance(b, str):
            t.settle(_na(check_id, b))
        elif b is not None and b.scale_lo > 0 and b.slack_lo >= -tol.margin(b.scale_lo):
            t.slack = (b.slack_lo, b.slack_hi)
            ratios = [s / c for s in t.slack for c in (b.scale_lo, b.scale_hi)]
            t.normalized = (min(ratios), max(ratios))


def _cell_summary(check_id: str, cell: dict, cfg: CampaignConfig, trials: list[_Trial]) -> dict:
    """The report record of one cell, whose trials have each an outcome or
    enclosures of their slack.

    A trial without an exact outcome is checked unless its enclosures show
    that the reported values do not depend on it: its slack interval lies
    above the smallest slack upper end, and its slack/scale interval misses
    [k-th smallest lower end, k-th smallest upper end] for each middle rank
    k.  Only a scalar trial the filter left to hold for certain has such
    enclosures.  The trials each step still needs go through
    ``_check_pending`` as one stack.  The summary then reads each other
    trial at its lower ends, which keeps the minimum, the first trial that
    reaches it and the median.
    """
    tol = cfg.tolerance
    applicable = [t for t in trials if t.outcome is None or t.outcome.status != NOT_APPLICABLE]
    if applicable:
        top = min(t.slack[1] for t in applicable)
        _check_pending(check_id, [t for t in applicable if t.slack[0] <= top], tol)
    normed = [t for t in applicable if t.normalized is not None]
    for k in sorted({(len(normed) - 1) // 2, len(normed) // 2}) if normed else ():
        lo_k = sorted(t.normalized[0] for t in normed)[k]
        hi_k = sorted(t.normalized[1] for t in normed)[k]
        _check_pending(check_id, [t for t in normed if t.normalized[0] <= hi_k and t.normalized[1] >= lo_k], tol)

    holds = violated = na = 0
    slacks = []
    normalized = []
    na_guards: dict[str, int] = {}
    argmin_ref = None
    min_slack = math.inf
    witnesses = []
    for trial, t in enumerate(trials):
        outcome = t.outcome
        if outcome is not None and outcome.status == NOT_APPLICABLE:
            na += 1
            guard = (outcome.witness or {}).get("guard", "unspecified")
            na_guards[guard] = na_guards.get(guard, 0) + 1
            continue
        slacks.append(t.slack[0])
        if t.normalized is not None:
            normalized.append(t.normalized[0])
        if t.slack[0] < min_slack:
            min_slack = t.slack[0]
            argmin_ref = {"trial": trial}
        if outcome is not None and outcome.status == VIOLATED:
            violated += 1
            witnesses.append(make_witness(check_id, t.params, t.inst, outcome, t.provenance))
        else:
            holds += 1
    return {
        "check": check_id,
        "cell": cell,
        "trials": cfg.trials,
        "holds": holds,
        "violations": violated,
        "not_applicable": na,
        "na_guards": dict(sorted(na_guards.items())),
        "min_slack": None if not slacks else min(slacks),
        "median_normalized_slack": None if not normalized else median(normalized),
        "argmin": argmin_ref,
        "violation_witnesses": witnesses,
    }


def _stack_groups(cells: list[dict]) -> list[list[int]]:
    """The indices of ``cells`` grouped by the cell without its
    ``_PER_TRIAL_KEYS``, in order of first appearance; a group builds and
    checks as one stack.  A scalar cell, which has none of them, is a group
    of its own."""
    groups: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(tuple((k, v) for k, v in cell.items() if k not in _PER_TRIAL_KEYS), []).append(i)
    return list(groups.values())


def _checked_cells(check_id: str, cfg: CampaignConfig):
    """Each cell of one check with its trials, in ``expand_cells`` order.

    The cells that differ only in their ``_PER_TRIAL_KEYS`` are built in one
    ``_build_trials`` call when the first of them comes up, filtered by the
    check's float64 bounds where it has them, and the trials the filter
    leaves are checked in one ``_check_pending`` call.  A cell's trials are
    let go once yielded.
    """
    cells = expand_cells(check_id, cfg)
    groups = {group[0]: group for group in _stack_groups(cells)}
    built = {}
    for i, cell in enumerate(cells):
        if i in groups:
            trials = _build_trials(check_id, [(cells[j], t) for j in groups[i] for t in range(cfg.trials)], cfg)
            _filter_trials(check_id, trials, cfg.tolerance)
            _check_pending(check_id, [t for t in trials if t.slack is None], cfg.tolerance)
            for k, j in enumerate(groups[i]):
                built[j] = trials[k * cfg.trials : (k + 1) * cfg.trials]
        yield cell, built.pop(i)


def run_campaign(cfg: CampaignConfig) -> dict:
    """Execute the full campaign and return the report document.

    Each cell comes from ``_checked_cells``, which builds and checks the
    cells of a check that differ only in their interval and their mean as
    one stack, and is summarized on its own by ``_cell_summary``, which
    checks any further trials the summary needs exactly.
    """
    cfg.validate()
    cells_out = []
    total = {"trials": 0, "holds": 0, "violations": 0, "not_applicable": 0}
    warnings = []
    na_by_check: dict[str, int] = {}
    trials_by_check: dict[str, int] = {}

    for check_id in cfg.checks:
        for cell, trials in _checked_cells(check_id, cfg):
            row = _cell_summary(check_id, cell, cfg, trials)
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
