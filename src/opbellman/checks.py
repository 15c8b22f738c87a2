"""One checkable statement per inequality.

Each checker re-verifies the stated hypotheses on its instance, evaluates
both sides, and returns a :class:`CheckOutcome` whose ``slack`` is the
smallest eigenvalue of (dominant side minus dominated side).  A failed
hypothesis or power-domain guard yields ``not_applicable`` with the guard
named in the witness; ``violated`` is reserved for instances that satisfy
every hypothesis yet fail the final comparison.

An operator checker is written against a stack of trials: its instance is
the family as the builder stacked it, so every matrix carries a trial axis
(none for a single trial, whose d x d matrices are the stack of one), and
every guard decides per trial.  The operands ``A`` and ``B`` carry a member
axis in front of it, and a step on the members is one call on that stack:
a per-member verdict is reduced over the member axis, and a step whose
members each pass several guards in turn attributes each trial to its
first failing one (``_require_first``), as a loop over the members would.
Sums over the members stay Python ``sum``, which adds them one at a time
from 0, as the loop did.  The trials may come from cells that differ only
in their interval, their mean and their map, so ``m``, ``M`` and the mean
id ``f`` are each one value or an array of one value per trial, and a map
of the family may be a ``positive_maps.PerTrialMap`` of one output
dimension, which a checker applies as it applies any map.  A
checker resolves ``f`` with ``function_from_id``, which gives one
function or a per-trial one, and takes every constant, and f(m), through
``_per_trial`` on the id, never by calling f on one float.
``p``, ``lam`` and ``k`` stay one number per stack; a stack's params are
one dict, with an array on a leading trial axis where its trials differ
(``m``, ``M``, ``f``, a draw such as ``t``).  ``check`` runs one trial;
``check_cell`` runs a stack of trials in one pass.

A scalar check is one expression over the arrays of its cell's stack, the
family ``instances.scalar_instance`` builds.  On float64 intervals it is the
campaign's filter; at 30 digits of mpmath it is the exact check (see
``inequality``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import mpmath
import numpy as np

from . import constants, scalar_refs
from .errors import (
    ConditioningError,
    DegenerateIntervalError,
    DomainError,
    ParameterError,
    UnboundedRatioError,
)
from .instances import InstanceFamily, _size, _trial_factor, take
from .means import (
    RepresentingFunction,
    arithmetic_w,
    function_from_id,
    geometric_w,
    log_fn,
    mean,
    powered,
    weighted_arithmetic,
)
from .spectral import (
    DEFAULT_TOL,
    Tolerance,
    _any,
    _finite_eigvalsh,
    _gap_holds,
    adjoint,
    apply_function,
    eig,
    floor_holds,
    from_spectrum,
    hermitize,
    identity,
    loewner_holds,
)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"

SCALAR_DPS = 30

#: lambda_min / lambda_max below which a positive-definiteness guard refuses.
PD_REL_FLOOR = 1e-7


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one inequality on one instance."""

    check_id: str
    status: str
    slack: float
    scale: float
    witness: dict | None = None
    chain_slacks: tuple[float, ...] | None = None


class _GuardFail(Exception):
    """Guard ``guard`` failed on the trials ``where`` marks (True: all)."""

    def __init__(self, guard: str, where=True):
        super().__init__(guard)
        self.guard = guard
        self.where = where


def _require(cond, guard: str) -> None:
    """Fail ``guard`` on the trials where ``cond`` (one bool, or one per
    trial, or one per member and trial) is False."""
    if cond is True:  # a plain bool: a guard on cell values
        return
    failed = ~np.asarray(cond)
    if _any(failed):
        raise _GuardFail(guard, failed)


def _require_first(ok, names) -> None:
    """Fail each trial at the first guard of ``names`` whose verdict fails:
    ``ok`` holds one row per guard, in the order a loop would test them,
    and one verdict per trial (or one, for a single trial).  Raises for one
    guard at a time; the runner runs the trials that fail another again."""
    ok = np.asarray(ok).reshape(len(names), -1)
    failed = ~ok.all(axis=0)
    if failed.any():
        first = np.asarray(names)[np.argmin(ok, axis=0)]
        guard = first[failed][0]
        raise _GuardFail(str(guard), failed & (first == guard))


def _na(check_id: str, guard: str) -> CheckOutcome:
    return CheckOutcome(check_id, NOT_APPLICABLE, math.nan, math.nan, witness={"guard": guard})


def _links(check_id, terms, tol) -> list[CheckOutcome]:
    """Each trial's outcome of terms[0] <= terms[1] <= ..., each adjacent
    pair (a link) decided as ``spectral.loewner_leq`` decides it: its slack
    is lambda_min of the Hermitized gap, its scale the larger spectral norm
    of its two terms.  One ``_finite_eigvalsh`` call on every term and
    every gap gives both: a term is Hermitian, so its spectral norm is its
    spectral radius, max(-lambda_min, lambda_max).  A link whose terms or
    gap have a non-finite entry gets a NaN slack and scale, and does not
    hold.  A trial holds when each link does; it reports its least link
    slack and its largest link scale, and, for more than one link, each
    link's slack."""
    terms = np.asarray(np.broadcast_arrays(*terms), dtype=complex)
    links = len(terms) - 1
    lam, finite = _finite_eigvalsh(np.concatenate([terms, hermitize(terms[1:] - terms[:-1])]))
    radius = np.maximum(-lam[: links + 1, ..., 0], lam[: links + 1, ..., -1])
    finite_link = finite[:links] & finite[1 : links + 1] & finite[links + 1 :]
    slack = np.where(finite_link, lam[links + 1 :, ..., 0], math.nan).reshape(links, -1)
    scale = np.where(finite_link, np.maximum(radius[:-1], radius[1:]), math.nan).reshape(links, -1)
    holds = (slack >= -tol.margin(scale)).all(axis=0).tolist()
    return [
        CheckOutcome(check_id, HOLDS if h else VIOLATED, min(s), max(c), chain_slacks=s if links > 1 else None)
        for h, s, c in zip(holds, zip(*slack.tolist()), zip(*scale.tolist()))
    ]


def _rows(params: dict, idx) -> dict:
    """The params of the trials ``idx`` of a stack: the rows ``idx`` of each
    array, whose leading axis is the trial axis, and every other value as it
    is, since all trials share it."""
    return {k: v[idx] if isinstance(v, np.ndarray) else v for k, v in params.items()}


def _scalar_outcomes(check_id, guards, dominant, dominated, tol) -> list[CheckOutcome]:
    """One outcome per trial of a scalar check's exact sides: not applicable
    at the trial's first failing guard, else the comparison of its sides."""
    out = []
    for t, (hi, lo) in enumerate(zip(dominant.v, dominated.v)):
        failed = next((name for state, name in guards if state[t] < 0), None)
        if failed is not None:
            out.append(_na(check_id, failed))
            continue
        slack = float(hi - lo)
        scale = max(abs(float(hi)), abs(float(lo)))
        out.append(CheckOutcome(check_id, HOLDS if slack >= -tol.margin(scale) else VIOLATED, slack, scale))
    return out


@dataclass(frozen=True)
class RegistryEntry:
    check_id: str
    group: str  # forward | reverse | chain | scalar
    direction: str
    statement: str
    hypothesis: str
    interval_kind: str  # sandwich | unit | positive | none
    axes: tuple[str, ...]  # campaign grids the check consumes
    reference: object  # dim-1 scalar formula; None for scalar checks
    runner: object  # a cell: (insts, params, tol) -> one CheckOutcome per trial
    bounds: object  # a scalar stack's float64 verdicts: insts -> SlackBounds arrays; None for operator checks
    tie: dict | None  # cell values at which every trial has one exact slack

    def ties(self, cell: dict) -> bool:
        """Whether ``cell`` has the values of ``tie``: its trials' exact
        slacks are one number."""
        return self.tie is not None and all(cell.get(k) == v for k, v in self.tie.items())


REGISTRY: dict[str, RegistryEntry] = {}


def inequality(check_id, *, group, direction, interval_kind, axes, statement, hypothesis, reference=None, tie=None):
    """Declare one inequality: register it in ``REGISTRY`` and wrap its checker.

    An operator checker returns the sides to compare, (dominant, dominated),
    or (t1, t2, t3) for a chain t1 <= t2 <= t3, which ``_links`` decides as
    the chain (dominated, dominant) or (t1, t2, t3).  The entry's ``runner``
    takes a cell's stack, as its builder returns it, with the params of its
    trials stacked in one dict, and returns one outcome per trial.

    An operator checker runs once on the stack of all trials.  A guard that
    fails on some trials (on any member of a trial, for a guard on the
    member stack) settles them, and the checker runs again on
    ``take(stack, keep)`` and the ``_rows`` of the params of the rest, so
    no step after a trial's first failing guard sees its operands; a
    stacked call gives each trial the bits it gives it alone.

    A scalar check is one function ``fn(s, num)`` of the arrays of the
    cell's stack (``_scalar_arrays``: its ``aux``, a matrix zero-padded to
    the build's largest row count) and a number kind ``num`` that converts
    an input array, ``_Interval`` or ``_Digits``.  It returns
    (guards, dominant, dominated), the guards in order as (verdict per
    trial, name) pairs from ``_nonneg``, ``_positive`` or ``_exact_guard``.
    The entry's ``bounds`` runs it on float64 intervals and returns
    ``_settle``'s arrays: each trial's guard verdict and enclosures of its
    slack and scale.  Its ``runner`` runs it at ``SCALAR_DPS`` digits and
    settles each trial at its first failing guard, or by its sides'
    difference at those digits.  Registration order is the campaign's check
    order.

    ``tie`` declares cell values, such as ``{"n": 1}``, at which the check's
    expression gives every trial one reported slack, whatever the operands:
    its two sides are formed by the same operations, or differ by a
    constant of the cell.  In such a cell the campaign evaluates the first
    applicable trial at ``SCALAR_DPS`` digits and gives its slack to each
    trial the float64 filter settled as holding whose enclosure contains it
    (``campaign._narrow``).  A tie that holds only for some operands'
    magnitudes is not one.
    """

    def deco(fn):
        @functools.wraps(fn)
        def runner(insts, params: dict, tol: Tolerance = DEFAULT_TOL) -> list[CheckOutcome]:
            if group == "scalar":
                with mpmath.workdps(SCALAR_DPS):
                    return _scalar_outcomes(check_id, *fn(_scalar_arrays(insts), _Digits), tol)
            out = [None] * _size(insts)
            live = np.arange(len(out))
            while live.size:
                try:
                    sides = fn(insts, params, tol)
                except _GuardFail as g:
                    failed = np.asarray(g.where)
                    if failed.ndim > insts.A.ndim - 3:  # a verdict per member and trial
                        failed = failed.any(axis=0)
                    failed = np.broadcast_to(failed, live.shape)
                    for t in live[failed]:
                        out[t] = _na(check_id, g.guard)
                    live = live[~failed]
                    if live.size:
                        keep = np.flatnonzero(~failed)
                        insts, params = take(insts, keep), _rows(params, keep)
                    continue
                terms = sides if group == "chain" else sides[::-1]  # (dominated, dominant)
                for t, outcome in zip(live, _links(check_id, terms, tol)):
                    out[t] = outcome
                break
            return out

        def bounds(stack: InstanceFamily) -> SlackBounds:
            with np.errstate(all="ignore"):
                return _settle(*fn(_scalar_arrays(stack), _Interval))

        REGISTRY[check_id] = RegistryEntry(
            check_id, group, direction, statement, hypothesis, interval_kind, axes, reference, runner,
            bounds if group == "scalar" else None, tie,
        )
        return runner

    return deco


# -- guarded numerics ------------------------------------------------------


def _mean_g(a, b, f, guard: str):
    try:
        return mean(a, b, f)
    except (ConditioningError, DomainError) as exc:
        raise _GuardFail(guard, exc.where) from None


def _pair_means(inst, f):
    """A_j sigma_f B_j for every pair of the family, on the member stack, guarded."""
    return _mean_g(inst.A, inst.B, f, "mean_conditioning")


def _fcalc_g(h, f: RepresentingFunction, guard: str):
    try:
        return apply_function(h, f.fn, f.domain)
    except DomainError as exc:
        raise _GuardFail(guard, exc.where) from None


def _power_guarded(base, p: float, tol: Tolerance, guard: str):
    """base^p after an independent PSD check; tolerated negative eigenvalues
    (within the comparison margin) are clipped to zero."""
    lam, u = eig(base)
    norm = np.abs(lam).max(axis=-1, initial=0.0)
    _require(lam[..., 0] >= -tol.margin(norm), guard)
    lam = np.clip(lam, 0.0, None)
    if p == 0.0:
        return np.broadcast_to(identity(base.shape[-1]), base.shape)
    return hermitize(from_spectrum(u, lam**p))


def _per_member(x, mats):
    """An (n,) or (trials, n) array of per-member scalars (weights,
    interpolants) as factors shaped to scale the member stack ``mats``:
    (n, trials, 1, 1), or (n, 1, 1) for a single trial."""
    x = np.asarray(x, dtype=float).swapaxes(0, -1)
    return x.reshape(x.shape + (1,) * (mats.ndim - x.ndim))


def _family_sum(inst, mats):
    """sum_j w_j Phi_j(X_j) over the family's weights and per-member maps."""
    return sum(w * phi.apply(x) for w, phi, x in zip(_per_member(inst.weights, mats), inst.maps, mats))


# -- hypothesis re-verification --------------------------------------------


def _require_each_member(lower, upper, tol, names):
    """Fail each trial at its first failing comparison lower_j <= upper_j,
    member by member, and within a member the pairs of ``names`` in turn:
    ``lower`` and ``upper`` stack one comparison per name in front of the
    member axis.  One ``loewner_holds`` call takes them all."""
    holds = loewner_holds(lower, upper, tol)
    _require_first(np.swapaxes(holds, 0, 1), names * holds.shape[1])


def _guard_window(mats, m, M, tol, name="spectrum_window"):
    """m I <= A_j <= M I for each member of the stack ``mats``, from the gaps
    A_j - m I and M I - A_j formed once (``_gap_holds``: no eigenvalue when
    one Cholesky factorization certifies every gap); m I and M I are
    broadcast against the members only where a gap has a negative slack."""
    eye = identity(mats.shape[-1])
    low, high = (_trial_factor(x) * eye for x in (m, M))

    def operands(rest):
        # the operands of m I <= A_j where rest[0] marks, then of A_j <= M I where rest[1] does
        below, above = (np.broadcast_to(v, mats.shape)[r] for v, r in ((low, rest[0]), (high, rest[1])))
        return np.concatenate([below, mats[rest[1]]]), np.concatenate([mats[rest[0]], above])

    holds = _gap_holds(hermitize(np.stack([mats - low, high - mats])), operands, tol)
    _require_first(np.swapaxes(holds, 0, 1), [f"{name}_below_m", f"{name}_above_M"] * holds.shape[1])


def _guard_pair_sandwich(a, b, m, M, tol, name="pair_sandwich"):
    """m A_j <= B_j <= M A_j for each pair of the member stacks ``a``, ``b``."""
    m, M = _trial_factor(m), _trial_factor(M)
    _require_each_member(np.stack([m * a, b]), np.stack([b, M * a]), tol, [f"{name}_lower", f"{name}_upper"])


def _guard_psd(x, tol, guard):
    zero = np.zeros_like(x)
    _require(loewner_holds(zero, x, tol), guard)


def _pd_floor(x):
    """Whether lambda_min of each matrix clears PD_REL_FLOOR lambda_max."""
    return floor_holds(hermitize(x), PD_REL_FLOOR)


def _guard_pd_floor(x, guard):
    _require(_pd_floor(x), guard)


def _subidentity_guards(inst, tol, tags=("A_", "B_")):
    """A_j >= 0 for each member, then sum A_j <= I, then the same of B, in
    one ``loewner_holds`` call, each trial failing at its first failing
    guard in that order; ``tags`` prefix the guard names of A and of B."""
    eye = identity(inst.A.shape[-1])
    mats = np.concatenate([inst.A, (eye - sum(inst.A))[None], inst.B, (eye - sum(inst.B))[None]])
    n = len(inst.A)
    names = [name for tag in tags for name in [f"{tag}member_not_psd"] * n + [f"{tag}sum_exceeds_identity"]]
    _require_first(loewner_holds(np.zeros_like(mats), mats, tol), names)


def _complement_prologue(inst, m, M, tol, f_id=None):
    """Hypotheses of the complement-sandwich reverses: m < 1 < M, the pairwise
    sandwiches, and the sandwich of I - g sum A_j and I - g sum B_j, where
    g = gamma_f of the mean id ``f_id`` when it is given and g = 1 otherwise.

    Returns (g, I, I - sum A_j, I - sum B_j)."""
    _require((m < 1.0) & (1.0 < M), "window_not_straddling_one")
    g = 1.0 if f_id is None else _gamma_guarded(f_id, m, M)
    eye = identity(inst.A.shape[-1])
    _guard_pair_sandwich(inst.A, inst.B, m, M, tol)
    comp_a = hermitize(eye - g * sum(inst.A))
    comp_b = hermitize(eye - g * sum(inst.B))
    _require_first(_pd_floor(np.stack([comp_a, comp_b])), ["complement_a_not_pd", "complement_b_not_pd"])
    _guard_pair_sandwich(comp_a[None], comp_b[None], m, M, tol, "complement_sandwich")
    return g, eye, hermitize(eye - sum(inst.A)), hermitize(eye - sum(inst.B))


# -- constants per trial -----------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _gamma_cached(f_id: str, m: float, M: float) -> float:
    return constants.gamma(function_from_id(f_id), m, M).value


@functools.lru_cache(maxsize=4096)
def _beta_cached(f_id: str, m: float, M: float) -> float:
    return constants.beta(function_from_id(f_id), m, M).value


def _per_trial(fn, *args, guard: str | None = None):
    """``fn(*args)`` as a float for each trial of a stack, where each argument
    is a number or an array of one value per trial (``m`` and ``M`` of a
    stack of cells, or an earlier result); a ``ConstantResult`` gives its
    value.  Every checker takes its constants, and the scalars it forms from
    ``m`` and ``M``, through here.

    Each distinct tuple of arguments is evaluated once, on Python floats, so
    every trial gets the bits it gets alone.  The result is a float when no
    argument is an array, else an array shaped (trials, 1, 1) that scales a
    stack of matrices.  With ``guard``, the trials whose tuple raises
    UnboundedRatioError, ParameterError or DegenerateIntervalError fail it.
    """
    cols = [np.ravel(a).tolist() if isinstance(a, np.ndarray) else None for a in args]
    size = next((len(c) for c in cols if c is not None), None)
    rows = [tuple(a if c is None else c[t] for a, c in zip(args, cols)) for t in range(size or 1)]
    values = {}
    for row in rows:
        if row in values:
            continue
        try:
            value = fn(*row)
        except (UnboundedRatioError, ParameterError, DegenerateIntervalError):
            if guard is None:
                raise
            values[row] = None
            continue
        values[row] = float(value.value if isinstance(value, constants.ConstantResult) else value)
    failed = np.array([values[row] is None for row in rows])
    if failed.any():
        raise _GuardFail(guard, True if size is None else failed)
    if size is None:
        return values[rows[0]]
    return np.array([values[row] for row in rows])[:, None, None]


def _value_at(make, arg, x: float) -> float:
    """``make(arg)(x)`` on a Python float: the value at x of the function
    built from ``arg``, an id for ``function_from_id`` or a weight for
    ``arithmetic_w``.  A per-trial function cannot be called on one float,
    so a checker takes f(m) as ``_per_trial(_value_at, make, arg, m)``."""
    return make(arg)(x)


def _gamma_guarded(f_id, m, M):
    return _per_trial(_gamma_cached, f_id, m, M, guard="chord_not_positive")


# -- forward checks ---------------------------------------------------------


@inequality(
    "bellman_map", group="forward", direction="lhs>=rhs", interval_kind="unit",
    axes=("dim", "n", "interval", "p", "map"),
    statement="(Phi(I - sum w_j A_j))^p >= Phi(sum w_j (I - A_j)^p)",
    hypothesis="0 <= A_j <= I, unital positive Phi, weights sum to 1, 0 < p < 1",
    reference=scalar_refs.bellman_map,
)
def check_bellman_map(inst: InstanceFamily, params, tol) -> tuple:
    """(Phi(I - sum w_j A_j))^p >= Phi(sum w_j (I - A_j)^p) for contractions
    0 <= A_j <= I."""
    p = params["p"]
    eye = identity(inst.A.shape[-1])
    _guard_window(inst.A, 0.0, 1.0, tol, "contraction_window")
    phi = inst.maps[0]
    w = _per_member(inst.weights, inst.A)
    avg = hermitize(sum(w * inst.A))
    dominant = _power_guarded(hermitize(phi.apply(eye - avg)), p, tol, "map_base_not_psd")
    inner = sum(w * _power_guarded(hermitize(eye - inst.A), p, tol, "member_base_not_psd"))
    dominated = hermitize(phi.apply(inner))
    return dominant, dominated


@inequality(
    "bellman_mean", group="forward", direction="rhs>=lhs", interval_kind="none",
    axes=("dim", "n", "p", "f"),
    statement="(I - sum A_j) s_{f^p} (I - sum B_j) <= (I - sum A_j s_f B_j)^p",
    hypothesis="A_j, B_j >= 0 with sum A_j <= I and sum B_j <= I, mean s_f, 0 < p < 1",
    reference=scalar_refs.bellman_mean,
)
def check_bellman_mean(inst: InstanceFamily, params, tol) -> tuple:
    """(I - sum A_j) sigma_{f^p} (I - sum B_j) <= (I - sum A_j sigma_f B_j)^p
    for subidentity families."""
    f = function_from_id(params["f"])
    p = params["p"]
    eye = identity(inst.A.shape[-1])
    _subidentity_guards(inst, tol, ("", ""))
    comp_a = hermitize(eye - sum(inst.A))
    comp_b = hermitize(eye - sum(inst.B))
    _guard_pd_floor(comp_a, "complement_a_not_pd")
    dominated = _mean_g(comp_a, comp_b, powered(f, p), "mean_conditioning")
    base = hermitize(eye - sum(_pair_means(inst, f)))
    dominant = _power_guarded(base, p, tol, "rhs_base_not_psd")
    return dominant, dominated


@inequality(
    "jensen_map", group="forward", direction="rhs>=lhs", interval_kind="positive",
    axes=("dim", "interval", "f+log", "map"),
    statement="Phi(f(A)) <= f(Phi(A))",
    hypothesis="operator concave f, spectrum of A in [m, M], unital positive Phi",
    reference=scalar_refs.jensen_map,
)
def check_jensen_map(inst: InstanceFamily, params, tol) -> tuple:
    """Choi-Davis-Jensen: Phi(f(A)) <= f(Phi(A)) for operator concave f."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    _require(f.operator_monotone, "not_operator_concave")
    x = inst.A[0]
    _guard_window(inst.A[:1], m, M, tol)
    phi = inst.maps[0]
    dominated = hermitize(phi.apply(_fcalc_g(x, f, "function_domain")))
    dominant = _fcalc_g(hermitize(phi.apply(x)), f, "image_function_domain")
    return dominant, dominated


@inequality(
    "mean_superadditive", group="forward", direction="rhs>=lhs", interval_kind="none",
    axes=("dim", "n", "f"),
    statement="sum (X_j s_f Y_j) <= (sum X_j) s_f (sum Y_j)",
    hypothesis="X_j, Y_j positive definite",
    reference=scalar_refs.mean_superadditive,
)
def check_mean_superadditive(inst: InstanceFamily, params, tol) -> tuple:
    """sum_j (X_j sigma_f Y_j) <= (sum X_j) sigma_f (sum Y_j)."""
    f = function_from_id(params["f"])
    _guard_psd(np.concatenate([inst.A, inst.B]), tol, "member_not_psd")
    dominated = hermitize(sum(_pair_means(inst, f)))
    dominant = _mean_g(hermitize(sum(inst.A)), hermitize(sum(inst.B)), f, "mean_conditioning")
    return dominant, dominated


@inequality(
    "mean_remainder", group="forward", direction="rhs>=lhs", interval_kind="none",
    axes=("dim", "n", "f"),
    statement="(A - sum A_j) s_f (B - sum B_j) <= A s_f B - sum (A_j s_f B_j)",
    hypothesis="sum A_j <= A, sum B_j <= B, all positive",
    reference=scalar_refs.mean_remainder,
)
def check_mean_remainder(inst: InstanceFamily, params, tol) -> tuple:
    """(A - sum A_j) sigma_f (B - sum B_j) <= A sigma_f B - sum A_j sigma_f B_j."""
    f = function_from_id(params["f"])
    a_total = inst.aux["A_total"]
    b_total = inst.aux["B_total"]
    rems = np.stack([a_total - sum(inst.A), b_total - sum(inst.B)])
    _require_first(loewner_holds(np.zeros_like(rems), rems, tol), ["A_sum_exceeds_total", "B_sum_exceeds_total"])
    rem_a, rem_b = hermitize(rems)
    _guard_pd_floor(rem_a, "remainder_not_pd")
    dominated = _mean_g(rem_a, rem_b, f, "mean_conditioning")
    dominant = hermitize(
        _mean_g(a_total, b_total, f, "mean_conditioning")
        - sum(_pair_means(inst, f))
    )
    return dominant, dominated


@inequality(
    "mean_power_compose", group="forward", direction="rhs>=lhs", interval_kind="none",
    axes=("dim", "p", "f"),
    statement="A s_{f^p} B <= (A s_f B)^p",
    hypothesis="A a positive definite contraction, B >= 0, 0 < p < 1",
    reference=scalar_refs.mean_power_compose,
)
def check_mean_power_compose(inst: InstanceFamily, params, tol) -> tuple:
    """A sigma_{f^p} B <= (A sigma_f B)^p for a positive-definite contraction A."""
    f = function_from_id(params["f"])
    p = params["p"]
    a, b = inst.A[0], inst.B[0]
    _guard_window(inst.A[:1], 0.0, 1.0, tol, "contraction_window")
    _guard_pd_floor(a, "contraction_not_pd")
    _guard_psd(b, tol, "second_operand_not_psd")
    dominated = _mean_g(a, b, powered(f, p), "mean_conditioning")
    dominant = _power_guarded(_mean_g(a, b, f, "mean_conditioning"), p, tol, "mean_base_not_psd")
    return dominant, dominated


# -- ratio (multiplicative) reverses ----------------------------------------


@inequality(
    "jensen_ratio_reverse", group="reverse", direction="lhs>=rhs", interval_kind="positive",
    axes=("dim", "interval", "f", "map"),
    statement="gamma_f Phi(f(A)) >= f(Phi(A))",
    hypothesis="concave f with positive chord on [m, M], spectrum of A in [m, M]",
    reference=scalar_refs.jensen_ratio_reverse,
)
def check_jensen_ratio_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """gamma_f Phi(f(A)) >= f(Phi(A)) for concave f with positive chord."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    x = inst.A[0]
    _guard_window(inst.A[:1], m, M, tol)
    g = _gamma_guarded(params["f"], m, M)
    phi = inst.maps[0]
    dominant = hermitize(g * phi.apply(_fcalc_g(x, f, "function_domain")))
    dominated = _fcalc_g(hermitize(phi.apply(x)), f, "image_function_domain")
    return dominant, dominated


@inequality(
    "mean_map_ratio_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "interval", "f", "map"),
    statement="gamma_f Psi(A s_f B) >= Psi(A) s_f Psi(B)",
    hypothesis="0 < m A <= B <= M A, unital positive Psi",
    reference=scalar_refs.mean_map_ratio_reverse,
)
def check_mean_map_ratio_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """gamma_f Psi(A sigma_f B) >= Psi(A) sigma_f Psi(B) under m A <= B <= M A."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    x, y = inst.A[0], inst.B[0]
    _guard_pd_floor(x, "first_operand_not_pd")
    _guard_pair_sandwich(inst.A[:1], inst.B[:1], m, M, tol)
    g = _gamma_guarded(params["f"], m, M)
    psi = inst.maps[0]
    dominant = hermitize(g * psi.apply(_mean_g(x, y, f, "mean_conditioning")))
    px = hermitize(psi.apply(x))
    py = hermitize(psi.apply(y))
    _guard_pd_floor(px, "mapped_operand_not_pd")
    dominated = _mean_g(px, py, f, "mean_conditioning")
    return dominant, dominated


@inequality(
    "mean_sum_ratio_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "n", "interval", "f"),
    statement="gamma_f sum (A_j s_f B_j) >= (sum A_j) s_f (sum B_j)",
    hypothesis="0 < m A_j <= B_j <= M A_j",
    reference=scalar_refs.mean_sum_ratio_reverse,
)
def check_mean_sum_ratio_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """gamma_f sum_j (A_j sigma_f B_j) >= (sum A_j) sigma_f (sum B_j)."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    _guard_pair_sandwich(inst.A, inst.B, m, M, tol)
    g = _gamma_guarded(params["f"], m, M)
    dominant = hermitize(g * sum(_pair_means(inst, f)))
    dominated = _mean_g(hermitize(sum(inst.A)), hermitize(sum(inst.B)), f, "mean_conditioning")
    return dominant, dominated


@inequality(
    "bellman_ratio_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "n", "interval", "p", "f"),
    statement="gamma^p ((I - sum A_j) s_f (I - sum B_j))^p >= (I - gamma sum A_j s_f B_j)^p",
    hypothesis="pairwise and gamma-complement sandwiches with m < 1 < M, 0 <= p <= 1",
    reference=scalar_refs.bellman_ratio_reverse,
)
def check_bellman_ratio_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """gamma^p ((I - sum A_j) sigma_f (I - sum B_j))^p
    >= (I - gamma sum A_j sigma_f B_j)^p on gamma-complement sandwiches."""
    f = function_from_id(params["f"])
    m, M, p = params["m"], params["M"], params["p"]
    g, eye, comp_a, comp_b = _complement_prologue(inst, m, M, tol, params["f"])
    # the prologue tested I - g sum A_j; the plain complement is another matrix
    _guard_pd_floor(comp_a, "complement_a_not_pd")
    lhs_base = _mean_g(comp_a, comp_b, f, "mean_conditioning")
    dominant = _per_trial(operator.pow, g, p) * _power_guarded(lhs_base, p, tol, "lhs_base_not_psd")
    rhs_base = hermitize(eye - g * sum(_pair_means(inst, f)))
    dominated = _power_guarded(rhs_base, p, tol, "rhs_base_not_psd")
    return dominant, dominated


@inequality(
    "compression_ratio_reverse", group="reverse", direction="lhs>=rhs", interval_kind="positive",
    axes=("dim", "interval", "f"),
    statement="gamma_f [C* f(X) C + f(m)(I - C*C)] >= f(C* X C)",
    hypothesis="C*C <= I, m I <= X <= M I, f concave operator monotone",
    reference=scalar_refs.compression_ratio_reverse,
)
def check_compression_ratio_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """gamma_f [C* f(X) C + f(m)(I - C*C)] >= f(C* X C) for a contraction C."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    x = inst.A[0]
    c = inst.aux["C"]
    eye = identity(x.shape[-1])
    gram = adjoint(c) @ c
    _require(loewner_holds(hermitize(gram), eye, tol), "not_a_contraction")
    _require(f.operator_monotone, "not_operator_monotone")
    _guard_window(inst.A[:1], m, M, tol)
    g = _gamma_guarded(params["f"], m, M)
    compressed = hermitize(adjoint(c) @ x @ c)
    dominated = _fcalc_g(compressed, f, "compressed_spectrum_outside_domain")
    fm = _per_trial(_value_at, function_from_id, params["f"], m)
    dominant = hermitize(
        g * (adjoint(c) @ _fcalc_g(x, f, "function_domain") @ c + fm * (eye - gram))
    )
    return dominant, dominated


@inequality(
    "mean_power_ratio_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "interval", "p", "f"),
    statement="gamma_h [f(m)^p (I - A) + A s_{f^p} B] >= (A s_f B)^p",
    hypothesis="0 < m A <= B <= M A with A a contraction; gamma_h for t^p on [f(m), f(M)]",
    reference=scalar_refs.mean_power_ratio_reverse,
)
def check_mean_power_ratio_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """gamma_h [f(m)^p (I - A) + A sigma_{f^p} B] >= (A sigma_f B)^p for a
    positive-definite contraction A with m A <= B <= M A and h = t^p."""
    f = function_from_id(params["f"])
    m, M, p = params["m"], params["M"], params["p"]
    a, b = inst.A[0], inst.B[0]
    _guard_window(inst.A[:1], 0.0, 1.0, tol, "contraction_window")
    _guard_pd_floor(a, "contraction_not_pd")
    _guard_pair_sandwich(inst.A[:1], inst.B[:1], m, M, tol)
    fm, fM = (_per_trial(_value_at, function_from_id, params["f"], x) for x in (m, M))
    gh = _per_trial(constants.gamma_power, fm, fM, p, guard="degenerate_power_interval")
    eye = identity(a.shape[-1])
    dominated = _power_guarded(_mean_g(a, b, f, "mean_conditioning"), p, tol, "mean_base_not_psd")
    fmp = _per_trial(operator.pow, fm, p)
    dominant = hermitize(gh * (fmp * (eye - a) + _mean_g(a, b, powered(f, p), "mean_conditioning")))
    return dominant, dominated


@inequality(
    "bellman_arith_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "n", "interval", "p", "lam"),
    statement="delta [f(m)^p sum A_j + (I - sum A_j) s_{f^p} (I - sum B_j)] >= (I - sum A_j nabla_lam B_j)^p",
    hypothesis="affine f = (1 - lam) + lam t; pairwise and complement sandwiches, m < 1 < M",
    reference=scalar_refs.bellman_arith_reverse,
)
def check_bellman_arith_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """delta [f(m)^p sum A_j + (I - sum A_j) sigma_{f^p} (I - sum B_j)]
    >= (I - sum A_j nabla_lam B_j)^p with affine f = (1-lam) + lam t."""
    lam = params["lam"]
    m, M, p = params["m"], params["M"], params["p"]
    _, eye, comp_a, comp_b = _complement_prologue(inst, m, M, tol)
    f = arithmetic_w(lam)
    delta = _per_trial(constants.delta_affine_power, lam, m, M, p, guard="degenerate_power_interval")
    fmp = _per_trial(operator.pow, _per_trial(_value_at, arithmetic_w, lam, m), p)
    dominant = hermitize(
        delta
        * (fmp * sum(inst.A) + _mean_g(comp_a, comp_b, powered(f, p), "mean_conditioning"))
    )
    rhs_base = hermitize(eye - sum(weighted_arithmetic(inst.A, inst.B, lam)))
    dominated = _power_guarded(rhs_base, p, tol, "rhs_base_not_psd")
    return dominant, dominated


# -- difference (additive) reverses ------------------------------------------


@inequality(
    "jensen_diff_reverse", group="reverse", direction="lhs>=rhs", interval_kind="positive",
    axes=("dim", "interval", "f+log", "map"),
    statement="beta_f I + Phi(f(A)) >= f(Phi(A))",
    hypothesis="concave differentiable f, spectrum of A in [m, M]",
    reference=scalar_refs.jensen_diff_reverse,
)
def check_jensen_diff_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """beta_f I + Phi(f(A)) >= f(Phi(A))."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    x = inst.A[0]
    _guard_window(inst.A[:1], m, M, tol)
    beta = _per_trial(_beta_cached, params["f"], m, M)
    phi = inst.maps[0]
    out_eye = identity(phi.output_dim)
    dominant = hermitize(beta * out_eye + phi.apply(_fcalc_g(x, f, "function_domain")))
    dominated = _fcalc_g(hermitize(phi.apply(x)), f, "image_function_domain")
    return dominant, dominated


@inequality(
    "mean_map_diff_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "interval", "f", "map"),
    statement="beta_f Psi(X) + Psi(X s_f Y) >= Psi(X) s_f Psi(Y)",
    hypothesis="0 < m X <= Y <= M X, unital positive Psi",
    reference=scalar_refs.mean_map_diff_reverse,
)
def check_mean_map_diff_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """beta_f Psi(X) + Psi(X sigma_f Y) >= Psi(X) sigma_f Psi(Y)."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    x, y = inst.A[0], inst.B[0]
    _guard_pd_floor(x, "first_operand_not_pd")
    _guard_pair_sandwich(inst.A[:1], inst.B[:1], m, M, tol)
    beta = _per_trial(_beta_cached, params["f"], m, M)
    psi = inst.maps[0]
    px = hermitize(psi.apply(x))
    py = hermitize(psi.apply(y))
    _guard_pd_floor(px, "mapped_operand_not_pd")
    dominant = hermitize(beta * px + psi.apply(_mean_g(x, y, f, "mean_conditioning")))
    dominated = _mean_g(px, py, f, "mean_conditioning")
    return dominant, dominated


@inequality(
    "mean_sum_diff_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "n", "interval", "f"),
    statement="beta_f sum X_j + sum (X_j s_f Y_j) >= (sum X_j) s_f (sum Y_j)",
    hypothesis="0 < m X_j <= Y_j <= M X_j",
    reference=scalar_refs.mean_sum_diff_reverse,
)
def check_mean_sum_diff_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """beta_f sum X_j + sum (X_j sigma_f Y_j) >= (sum X_j) sigma_f (sum Y_j)."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    _guard_pair_sandwich(inst.A, inst.B, m, M, tol)
    beta = _per_trial(_beta_cached, params["f"], m, M)
    dominant = hermitize(
        beta * sum(inst.A)
        + sum(_pair_means(inst, f))
    )
    dominated = _mean_g(hermitize(sum(inst.A)), hermitize(sum(inst.B)), f, "mean_conditioning")
    return dominant, dominated


@inequality(
    "bellman_diff_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "n", "interval", "p", "f"),
    statement="(beta_f + (I - sum A_j) s_f (I - sum B_j))^p >= (I - sum A_j s_f B_j)^p",
    hypothesis="pairwise and complement sandwiches with m < 1 < M, 0 <= p <= 1",
    reference=scalar_refs.bellman_diff_reverse,
)
def check_bellman_diff_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """(beta_f + (I - sum A_j) sigma_f (I - sum B_j))^p
    >= (I - sum A_j sigma_f B_j)^p on plain complement sandwiches."""
    f = function_from_id(params["f"])
    m, M, p = params["m"], params["M"], params["p"]
    _, eye, comp_a, comp_b = _complement_prologue(inst, m, M, tol)
    beta = _per_trial(_beta_cached, params["f"], m, M)
    lhs_base = hermitize(beta * eye + _mean_g(comp_a, comp_b, f, "mean_conditioning"))
    dominant = _power_guarded(lhs_base, p, tol, "lhs_base_not_psd")
    rhs_base = hermitize(eye - sum(_pair_means(inst, f)))
    dominated = _power_guarded(rhs_base, p, tol, "rhs_base_not_psd")
    return dominant, dominated


@inequality(
    "aczel_reverse", group="reverse", direction="lhs>=rhs", interval_kind="sandwich",
    axes=("dim", "n", "interval", "p"),
    statement="(zeta + (I - sum A_j) #_lam (I - sum B_j))^p >= (I - sum A_j #_lam B_j)^p",
    hypothesis="pairwise and complement sandwiches with m < 1 < M; zeta for t^p on [m, M]",
    reference=scalar_refs.aczel_reverse,
)
def check_aczel_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """(zeta + (I - sum A_j) #_lam (I - sum B_j))^p >= (I - sum A_j #_lam B_j)^p."""
    lam = params["lam"]
    m, M, p = params["m"], params["M"], params["p"]
    _, eye, comp_a, comp_b = _complement_prologue(inst, m, M, tol)
    f = geometric_w(lam)
    zeta = _per_trial(constants.zeta_aczel, m, M, p)
    lhs_base = hermitize(zeta * eye + _mean_g(comp_a, comp_b, f, "mean_conditioning"))
    dominant = _power_guarded(lhs_base, p, tol, "lhs_base_not_psd")
    rhs_base = hermitize(eye - sum(_pair_means(inst, f)))
    dominated = _power_guarded(rhs_base, p, tol, "rhs_base_not_psd")
    return dominant, dominated


@inequality(
    "jensen_family_diff_reverse", group="reverse", direction="lhs>=rhs", interval_kind="positive",
    axes=("dim", "n", "interval", "f+log", "map"),
    statement="beta_f I + sum w_j Phi_j(f(A_j)) >= f(sum w_j Phi_j(A_j))",
    hypothesis="spectra of A_j in [m, M], unital positive Phi_j, weights sum to 1",
    reference=scalar_refs.jensen_family_diff_reverse,
)
def check_jensen_family_diff_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """beta_f I + sum w_j Phi_j(f(A_j)) >= f(sum w_j Phi_j(A_j))."""
    f = function_from_id(params["f"])
    m, M = params["m"], params["M"]
    _guard_window(inst.A, m, M, tol)
    beta = _per_trial(_beta_cached, params["f"], m, M)
    out_eye = identity(inst.maps[0].output_dim)
    dominant = hermitize(beta * out_eye + _family_sum(inst, _fcalc_g(inst.A, f, "function_domain")))
    mapped = hermitize(_family_sum(inst, inst.A))
    dominated = _fcalc_g(mapped, f, "image_function_domain")
    return dominant, dominated


@inequality(
    "bellman_family_reverse", group="reverse", direction="lhs>=rhs", interval_kind="unit",
    axes=("dim", "n", "interval", "p", "map"),
    statement="delta I + sum w_j Phi_j((I - A_j)^p) >= (sum w_j Phi_j(I - A_j))^p",
    hypothesis="0 <= m I <= A_j <= M I < I, weights sum to 1, 0 < p < 1",
    reference=scalar_refs.bellman_family_reverse,
)
def check_bellman_family_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """delta I + sum w_j Phi_j((I - A_j)^p) >= (sum w_j Phi_j(I - A_j))^p for
    contractions with 0 <= m I <= A_j <= M I < I."""
    m, M, p = params["m"], params["M"], params["p"]
    _require((0.0 <= m) & (m < M) & (M < 1.0), "window_not_in_unit_interval")
    _guard_window(inst.A, m, M, tol)
    delta = _per_trial(constants.delta_bellman, m, M, p)
    eye = identity(inst.A.shape[-1])
    out_eye = identity(inst.maps[0].output_dim)
    bases = hermitize(eye - inst.A)
    powers = _power_guarded(bases, p, tol, "member_base_not_psd")
    dominant = hermitize(delta * out_eye + _family_sum(inst, powers))
    mapped = hermitize(_family_sum(inst, bases))
    dominated = _power_guarded(mapped, p, tol, "mapped_base_not_psd")
    return dominant, dominated


@inequality(
    "log_family_reverse", group="reverse", direction="lhs>=rhs", interval_kind="positive",
    axes=("dim", "n", "interval", "map"),
    statement="log-mean constant + Phi(sum w_j log A_j) >= log(sum w_j Phi(A_j))",
    hypothesis="0 < m I <= A_j <= M I, unital positive Phi, weights sum to 1",
    reference=scalar_refs.log_family_reverse,
)
def check_log_family_reverse(inst: InstanceFamily, params, tol) -> tuple:
    """log-mean constant + Phi(sum w_j log A_j) >= log(sum w_j Phi(A_j))."""
    m, M = params["m"], params["M"]
    _require(m > 0.0, "window_not_positive")
    _guard_window(inst.A, m, M, tol)
    c = _per_trial(constants.beta_log, m, M)
    phi = inst.maps[0]
    out_eye = identity(phi.output_dim)
    w = _per_member(inst.weights, inst.A)
    logs = hermitize(sum(w * _fcalc_g(inst.A, log_fn, "member_not_pd")))
    dominant = hermitize(c * out_eye + phi.apply(logs))
    mixed = hermitize(sum(w * phi.apply(inst.A)))
    dominated = _fcalc_g(mixed, log_fn, "mapped_operand_not_pd")
    return dominant, dominated


# -- refinement chains -------------------------------------------------------


@inequality(
    "bellman_chain_split", group="chain", direction="chain", interval_kind="none",
    axes=("dim", "n2", "p", "f", "k"),
    statement="(I-sum A) s_{f^p} (I-sum B) <= (head-mean - tail-sum)^p <= (I - sum A_j s_f B_j)^p",
    hypothesis="subidentity families, split index 1 <= k <= n-1",
    reference=scalar_refs.bellman_chain_split,
)
def check_bellman_chain_split(inst: InstanceFamily, params, tol) -> tuple:
    """(I - sum A) sigma_{f^p} (I - sum B)
    <= ((I - sum_{j<=k} A) sigma_f (I - sum_{j<=k} B) - sum_{j>k} A_j sigma_f B_j)^p
    <= (I - sum_j A_j sigma_f B_j)^p."""
    f = function_from_id(params["f"])
    p, k = params["p"], params["k"]
    n = len(inst.A)
    _require(1 <= k <= n - 1, "split_index_out_of_range")
    _subidentity_guards(inst, tol)
    eye = identity(inst.A.shape[-1])
    comp_a = hermitize(eye - sum(inst.A))
    comp_b = hermitize(eye - sum(inst.B))
    _guard_pd_floor(comp_a, "complement_a_not_pd")
    t1 = _mean_g(comp_a, comp_b, powered(f, p), "mean_conditioning")
    head_a = hermitize(eye - sum(inst.A[:k]))
    head_b = hermitize(eye - sum(inst.B[:k]))
    _guard_pd_floor(head_a, "head_complement_not_pd")
    pair_means = _pair_means(inst, f)
    mid_base = hermitize(_mean_g(head_a, head_b, f, "mean_conditioning") - sum(pair_means[k:]))
    t2 = _power_guarded(mid_base, p, tol, "mid_base_not_psd")
    t3 = _power_guarded(hermitize(eye - sum(pair_means)), p, tol, "rhs_base_not_psd")
    return t1, t2, t3


@inequality(
    "bellman_chain_interp", group="chain", direction="chain", interval_kind="none",
    axes=("dim", "n2", "p", "f"),
    statement="((I-sum A) s_f (I-sum B))^p <= (interp-mean - weighted-sum)^p <= (I - sum A_j s_f B_j)^p",
    hypothesis="subidentity families, t_j in [0, 1]",
    reference=scalar_refs.bellman_chain_interp,
)
def check_bellman_chain_interp(inst: InstanceFamily, params, tol) -> tuple:
    """((I - sum A) sigma_f (I - sum B))^p
    <= ((I - sum t_j A_j) sigma_f (I - sum t_j B_j) - sum (1 - t_j) A_j sigma_f B_j)^p
    <= (I - sum_j A_j sigma_f B_j)^p with t_j in [0, 1]."""
    f = function_from_id(params["f"])
    p = params["p"]
    t = np.asarray(params["t"], dtype=float)
    n = len(inst.A)
    _require(t.shape[-1:] == (n,) and np.all((0.0 <= t) & (t <= 1.0), axis=-1), "interpolants_outside_unit")
    t = _per_member(t, inst.A)
    _subidentity_guards(inst, tol)
    eye = identity(inst.A.shape[-1])
    comp_a = hermitize(eye - sum(inst.A))
    comp_b = hermitize(eye - sum(inst.B))
    _guard_pd_floor(comp_a, "complement_a_not_pd")
    t1 = _power_guarded(_mean_g(comp_a, comp_b, f, "mean_conditioning"), p, tol, "lhs_base_not_psd")
    part_a = hermitize(eye - sum(t * inst.A))
    part_b = hermitize(eye - sum(t * inst.B))
    _guard_pd_floor(part_a, "partial_complement_not_pd")
    pair_means = _pair_means(inst, f)
    mid_base = hermitize(
        _mean_g(part_a, part_b, f, "mean_conditioning")
        - sum((1.0 - t) * pair_means)
    )
    t2 = _power_guarded(mid_base, p, tol, "mid_base_not_psd")
    t3 = _power_guarded(hermitize(eye - sum(pair_means)), p, tol, "rhs_base_not_psd")
    return t1, t2, t3


# -- number kinds of the scalar suite ------------------------------------------
#
# A scalar check is one expression over the arrays of a cell's stacked trials,
# evaluated on one of two number kinds.  ``_Interval`` holds float64 intervals
# (Shewchuk's adaptive filter, "Adaptive Precision Floating-Point Arithmetic
# and Fast Robust Geometric Predicates", 1997): each operation widens its
# result outward by more than the float64 rounding and mpmath's 30-digit
# rounding of the same operation together, so every value of the exact
# evaluation lies inside the matching interval.  A trial the intervals
# cannot settle is left undecided and the campaign evaluates it on
# ``_Digits``, the exact kind.

#: Unit roundoff of float64; all outward widening is a multiple of it.
ROUNDING_UNIT = 2.0**-53

#: Widening, in units of ``ROUNDING_UNIT``, of one add, sub, mul or div.
_OP_ULPS = 4

#: Widening of ``x ** y``: numpy's SIMD pow is not correctly rounded.
_POW_ULPS = 64

#: Absolute widening of every result, larger than any float64 underflow error.
UNDERFLOW_PAD = 1e-290

#: Extra distance from zero that a guard or a status needs to count as decided.
DECIDE_MARGIN = 1e-20


class _Interval:
    """Closed intervals [lo, hi] of float64 arrays, rounded outward.

    An operation on a NaN or on a non-finite endpoint gives NaN, which
    decides nothing.  ``x ** y`` needs x >= 0 and y > 0.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = self.lo if hi is None else np.asarray(hi, dtype=float)

    def __getitem__(self, index):
        return _Interval(self.lo[index], self.hi[index])

    def __add__(self, other):
        o = _as_interval(other)
        return _rounded(self.lo + o.lo, self.hi + o.hi, _OP_ULPS, (self.lo >= 0) & (o.lo >= 0))

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_interval(other)
        return _rounded(self.lo - o.hi, self.hi - o.lo, _OP_ULPS)

    def __rsub__(self, other):
        return _as_interval(other) - self

    def __mul__(self, other):
        o = _as_interval(other)
        corners = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _rounded(
            np.minimum.reduce(corners), np.maximum.reduce(corners), _OP_ULPS, (self.lo >= 0) & (o.lo >= 0)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_interval(other)
        den_lo = np.where((o.lo > 0) | (o.hi < 0), o.lo, np.nan)
        corners = (self.lo / den_lo, self.lo / o.hi, self.hi / den_lo, self.hi / o.hi)
        return _rounded(
            np.minimum.reduce(corners), np.maximum.reduce(corners), _OP_ULPS, (self.lo >= 0) & (o.lo > 0)
        )

    def __rtruediv__(self, other):
        return _as_interval(other) / self

    def __pow__(self, other):
        o = _as_interval(other)
        base_lo = np.where(self.lo >= 0, self.lo, np.nan)
        corners = (base_lo**o.lo, base_lo**o.hi, self.hi**o.lo, self.hi**o.hi)
        return _rounded(np.minimum.reduce(corners), np.maximum.reduce(corners), _POW_ULPS, True)

    def sum(self, axis):
        """The sum of k terms along ``axis``, widened by (k + 2) u sum |terms|."""
        w = (self.lo.shape[axis] + 2) * ROUNDING_UNIT
        lo = self.lo.sum(axis) - w * np.abs(self.lo).sum(axis)
        hi = self.hi.sum(axis) + w * np.abs(self.hi).sum(axis)
        return _rounded(lo, hi, 0, (self.lo >= 0).all(axis))


def _as_interval(x) -> _Interval:
    return x if isinstance(x, _Interval) else _Interval(x)


def _rounded(lo, hi, ulps, nonneg=False) -> _Interval:
    """[lo, hi] widened by ``ulps`` u relative and ``UNDERFLOW_PAD`` absolute;
    ``lo`` stays at or above 0 where ``nonneg`` says the exact result is
    nonnegative.  Non-finite endpoints become NaN."""
    w = ulps * ROUNDING_UNIT
    lo = lo - (w * np.abs(lo) + UNDERFLOW_PAD)
    lo = np.where(nonneg, np.maximum(lo, 0.0), lo)
    hi = hi + (w * np.abs(hi) + UNDERFLOW_PAD)
    finite = np.isfinite(lo) & np.isfinite(hi)
    return _Interval(np.where(finite, lo, np.nan), np.where(finite, hi, np.nan))


def _sign(x: _Interval) -> np.ndarray:
    """1 where x is certainly above 0, -1 where certainly below, else 0."""
    return np.where(x.lo > DECIDE_MARGIN, 1, np.where(x.hi < -DECIDE_MARGIN, -1, 0))


def _exact_guard(cond) -> np.ndarray:
    return np.where(cond, 1, -1)


def _abs_lo(x: _Interval) -> np.ndarray:
    """Lower end of |x|."""
    return np.where(x.lo >= 0, x.lo, np.where(x.hi <= 0, -x.hi, 0.0))


class SlackBounds(NamedTuple):
    """The float64 verdicts of a stack's trials: ``guard`` names each
    trial's first failing guard where every earlier one is decided, else
    None; ``slack`` and ``scale`` hold (trials, 2) [lo, hi] enclosures of
    the reported slack and scale of each trial whose guards all pass, NaN
    for the others and where an end is not finite."""

    guard: np.ndarray
    slack: np.ndarray
    scale: np.ndarray


def _settle(guards, dominant: _Interval, dominated: _Interval) -> SlackBounds:
    """The verdicts of a stack's trials from the check's ``guards``, in its
    order (tri-state arrays from ``_nonneg``, ``_positive`` or
    ``_exact_guard``, with the guard name), and the intervals of its sides."""
    slack = dominant - dominated
    scale_lo = np.maximum(_abs_lo(dominant), _abs_lo(dominated))
    scale_hi = np.maximum(
        np.maximum(np.abs(dominant.lo), np.abs(dominant.hi)),
        np.maximum(np.abs(dominated.lo), np.abs(dominated.hi)),
    )
    ends = np.stack([slack.lo - DECIDE_MARGIN, slack.hi + DECIDE_MARGIN, scale_lo, scale_hi], axis=1)
    guard = np.full(len(ends), None, dtype=object)
    passed = np.ones(len(ends), dtype=bool)
    for state, name in guards:
        guard[passed & (state < 0)] = name
        passed &= state > 0
    ends[~(passed & np.isfinite(ends).all(axis=1))] = np.nan
    return SlackBounds(guard, ends[:, :2], ends[:, 2:])


def _scalar_arrays(inst: InstanceFamily) -> dict:
    """The arrays of a scalar stack (``instances.scalar_instance``), or of one
    trial, whose ``p`` is one number, as a stack of one in a mapping of the
    ``aux``'s own type (a witness's raises a schema error on a missing key)."""
    if np.ndim(inst.aux["p"]):
        return inst.aux
    return type(inst.aux)((k, np.asarray(v, dtype=float)[None]) for k, v in inst.aux.items())


_MPF = np.frompyfunc(mpmath.mpf, 1, 1)


def _lift(op, reflected=False):
    """``op`` on ``_Digits`` values, or on one and a plain operand."""

    def method(self, other):
        other = other.v if isinstance(other, _Digits) else other
        return _Digits(op(other, self.v) if reflected else op(self.v, other))

    return method


class _Digits:
    """mpmath values in object arrays, the exact number kind of a scalar
    check: arithmetic is mpmath's at the working precision, element by
    element, and ``sum`` is one ``mpmath.fsum`` over the terms of each sum."""

    __slots__ = ("v",)

    def __init__(self, x):
        self.v = x if x.dtype == object else _MPF(x)

    def __getitem__(self, index):
        return _Digits(self.v[index])

    __add__, __radd__ = _lift(operator.add), _lift(operator.add, True)
    __sub__, __rsub__ = _lift(operator.sub), _lift(operator.sub, True)
    __mul__, __rmul__ = _lift(operator.mul), _lift(operator.mul, True)
    __truediv__, __rtruediv__ = _lift(operator.truediv), _lift(operator.truediv, True)
    __pow__ = _lift(operator.pow)

    def sum(self, axis):
        terms = np.moveaxis(self.v, axis, -1)
        sums = (mpmath.fsum(row) for row in terms.reshape(-1, terms.shape[-1]))
        return _Digits(np.fromiter(sums, dtype=object).reshape(terms.shape[:-1]))


def _nonneg(x) -> np.ndarray:
    """x >= 0 per trial, as 1 (holds), -1 (fails) or 0 (undecided):
    ``_sign`` on intervals, an exact comparison on digits."""
    return _sign(x) if isinstance(x, _Interval) else np.where(x.v >= 0, 1, -1)


def _positive(x) -> np.ndarray:
    """x > 0 per trial, as ``_nonneg``."""
    return _sign(x) if isinstance(x, _Interval) else np.where(x.v > 0, 1, -1)


def _head_tail(s, num, p) -> tuple:
    """(a^p - sum a_j^p, b^p - sum b_j^p, a b - sum a_j b_j) of Aczel and Popoviciu."""
    a, b, aj, bj = (num(s[key]) for key in ("a", "b", "a_j", "b_j"))
    pj = p if np.ndim(p) == 0 else p[:, None]
    return a**p - (aj**pj).sum(1), b**p - (bj**pj).sum(1), a * b - (aj * bj).sum(1)


def _column_sums(s, num) -> tuple:
    """(p, 1/p, a, sum_i a_ij^{1/p} per column) of the weighted Bellman kinds."""
    p = num(s["p"])
    q = 1 / p
    a = num(s["a"])
    return p, q, a, (a ** q[:, None, None]).sum(1)


# -- scalar suite ------------------------------------------------------------


@inequality(
    "scalar_bellman", group="scalar", direction="rhs>=lhs", interval_kind="none",
    axes=("n",),
    statement="(a^p - sum a_j^p)^{1/p} + (b^p - sum b_j^p)^{1/p} <= ((a+b)^p - sum (a_j+b_j)^p)^{1/p}",
    hypothesis="positive reals, integer p >= 1, column sums below caps",
)
def check_scalar_bellman(s, num) -> tuple:
    """(a^p - sum a_j^p)^{1/p} + (b^p - sum b_j^p)^{1/p}
    <= ((a+b)^p - sum (a_j+b_j)^p)^{1/p}, integer p >= 1."""
    p = s["p"]
    a, b, aj, bj = (num(s[key]) for key in ("a", "b", "a_j", "b_j"))
    ra = a**p - (aj ** p[:, None]).sum(1)
    rb = b**p - (bj ** p[:, None]).sum(1)
    rc = (a + b) ** p - ((aj + bj) ** p[:, None]).sum(1)
    q = 1 / num(p)
    guards = [
        (_exact_guard(p >= 1.0), "exponent_below_one"),
        (np.minimum(_nonneg(ra), _nonneg(rb)), "column_hypothesis_failed"),
        (_nonneg(rc), "joint_base_negative"),
    ]
    return guards, rc**q, ra**q + rb**q


@inequality(
    "scalar_aczel", group="scalar", direction="rhs>=lhs", interval_kind="none",
    axes=("n",),
    statement="(a_1^2 - sum a_j^2)(b_1^2 - sum b_j^2) <= (a_1 b_1 - sum a_j b_j)^2",
    hypothesis="a_1^2 > sum a_j^2 or b_1^2 > sum b_j^2",
)
def check_scalar_aczel(s, num) -> tuple:
    """(a_1^2 - sum a_j^2)(b_1^2 - sum b_j^2) <= (a_1 b_1 - sum a_j b_j)^2."""
    ra, rb, cross = _head_tail(s, num, 2)
    return [(np.maximum(_positive(ra), _positive(rb)), "hypothesis_failed")], cross**2, ra * rb


@inequality(
    "scalar_popoviciu", group="scalar", direction="rhs>=lhs", interval_kind="none",
    axes=("n",),
    statement="(a_1^p - sum a_j^p)(b_1^p - sum b_j^p) <= (a_1 b_1 - sum a_j b_j)^p",
    hypothesis="p >= 1 and a head power dominates its column",
)
def check_scalar_popoviciu(s, num) -> tuple:
    """(a_1^p - sum a_j^p)(b_1^p - sum b_j^p) <= (a_1 b_1 - sum a_j b_j)^p, p >= 1."""
    p = s["p"]
    ra, rb, cross = _head_tail(s, num, p)
    guards = [
        (_exact_guard(p >= 1.0), "exponent_below_one"),
        (np.maximum(_positive(ra), _positive(rb)), "hypothesis_failed"),
        (_nonneg(cross), "cross_term_negative"),
    ]
    return guards, cross**p, ra * rb


@inequality(
    "scalar_bellman_weighted", group="scalar", direction="rhs>=lhs", interval_kind="none",
    axes=("n", "p"), tie={"n": 1},
    statement="sum_j w_j (1 - sum_i a_ij^{1/p})^p <= (1 - sum_i (sum_j w_j a_ij)^{1/p})^p",
    hypothesis="sum_i a_ij^{1/p} <= 1 per column, weights sum to 1, 0 < p < 1",
)
def check_scalar_bellman_weighted(s, num) -> tuple:
    """sum_j w_j (1 - sum_i a_ij^{1/p})^p <= (1 - sum_i (sum_j w_j a_ij)^{1/p})^p.

    At n = 1 the weight is 1.0 and both sides are (1 - sum_i a_i^{1/p})^p,
    formed by the same operations: every slack is 0."""
    p, q, a, col_caps = _column_sums(s, num)
    w = num(s["weights"])
    dominated = (w * (1 - col_caps) ** p[:, None]).sum(1)
    mixed = (w[:, None, :] * a).sum(2)
    dominant = (1 - (mixed ** q[:, None]).sum(1)) ** p
    return [(_nonneg(1 - col_caps).min(1), "column_hypothesis_failed")], dominant, dominated


@inequality(
    "scalar_bellman_columns", group="scalar", direction="rhs>=lhs", interval_kind="none",
    axes=("n", "p"), tie={"n": 1},
    statement="sum_j (M_j^{1/p} - sum_i a_ij^{1/p})^p <= ((sum M_j)^{1/p} - sum_i (sum_j a_ij)^{1/p})^p",
    hypothesis="sum_i a_ij^{1/p} <= M_j^{1/p} per column, 0 < p < 1",
)
def check_scalar_bellman_columns(s, num) -> tuple:
    """sum_j (M_j^{1/p} - sum_i a_ij^{1/p})^p
    <= ((sum_j M_j)^{1/p} - sum_i (sum_j a_ij)^{1/p})^p.

    At n = 1 both sides are (M^{1/p} - sum_i a_i^{1/p})^p, formed by the
    same operations (a sum of one term is that term): every slack is 0."""
    p, q, a, col_sums = _column_sums(s, num)
    caps = num(s["caps"])
    room = caps ** q[:, None] - col_sums
    dominated = (room ** p[:, None]).sum(1)
    base = caps.sum(1) ** q - (a.sum(2) ** q[:, None]).sum(1)
    guards = [(_nonneg(room).min(1), "column_hypothesis_failed"), (_nonneg(base), "joint_base_negative")]
    return guards, base**p, dominated


@inequality(
    "scalar_bellman_reverse", group="scalar", direction="lhs>=rhs", interval_kind="none",
    axes=("n", "p"), tie={"n": 1},
    statement="(1-p) p^{p/(1-p)} + sum_j w_j (1 - sum_i a_ij^{1/p})^p >= (1 - sum_ij w_j a_ij^{1/p})^p",
    hypothesis="sum_i a_ij^{1/p} <= 1 per column, weights sum to 1, 0 < p < 1",
)
def check_scalar_bellman_reverse(s, num) -> tuple:
    """(1-p) p^{p/(1-p)} + sum_j w_j (1 - sum_i a_ij^{1/p})^p
    >= (1 - sum_i sum_j w_j a_ij^{1/p})^p.

    At n = 1 the weight is 1.0 and the sides differ by the constant alone:
    every slack is (1-p) p^{p/(1-p)} to within the 30-digit rounding of one
    sum, about 1e-30, which the float64 slack does not keep."""
    p, q, _, col_caps = _column_sums(s, num)
    w = num(s["weights"])
    const = (1 - p) * p ** (p / (1 - p))
    dominant = const + (w * (1 - col_caps) ** p[:, None]).sum(1)
    dominated = (1 - (w * col_caps).sum(1)) ** p
    return [(_nonneg(1 - col_caps).min(1), "column_hypothesis_failed")], dominant, dominated


# -- registry ----------------------------------------------------------------


FORWARD_IDS = [e.check_id for e in REGISTRY.values() if e.group == "forward"]
REVERSE_IDS = [e.check_id for e in REGISTRY.values() if e.group == "reverse"]
CHAIN_IDS = [e.check_id for e in REGISTRY.values() if e.group == "chain"]
SCALAR_IDS = [e.check_id for e in REGISTRY.values() if e.group == "scalar"]
OPERATOR_IDS = FORWARD_IDS + REVERSE_IDS + CHAIN_IDS


def _entry(check_id: str) -> RegistryEntry:
    try:
        return REGISTRY[check_id]
    except KeyError:
        raise ParameterError(f"unknown inequality id {check_id!r}") from None


def check(check_id: str, inst, params, tol: Tolerance = DEFAULT_TOL) -> CheckOutcome:
    """Dispatch one inequality check on one trial by registry id: the entry's
    runner on a stack of one (d x d matrices, or a trial axis of length one)."""
    return _entry(check_id).runner(inst, params, tol)[0]


def check_cell(check_id: str, stack, params: dict, tol: Tolerance = DEFAULT_TOL) -> list[CheckOutcome]:
    """One outcome per trial of a stack, from one run of the entry's runner
    on it: a builder's family, of one cell or of cells that differ only in
    their interval, their mean and their map, with the params of its trials
    stacked once (``_rows`` reads them).  A single trial goes through
    ``check``, so what wraps the per-trial entry sees every trial of a
    one-trial cell."""
    if _size(stack) == 1:
        return [check(check_id, stack, params, tol)]
    return _entry(check_id).runner(stack, params, tol)


def registry_listing() -> list[dict]:
    """Exportable registry metadata (id, direction, statement, hypothesis)."""
    return [
        {
            "id": e.check_id,
            "group": e.group,
            "direction": e.direction,
            "statement": e.statement,
            "hypothesis": e.hypothesis,
        }
        for e in REGISTRY.values()
    ]
