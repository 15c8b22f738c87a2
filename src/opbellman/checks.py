"""One checkable statement per inequality.

Each checker re-verifies the stated hypotheses on its instance, evaluates
both sides, and returns a :class:`CheckOutcome` whose ``slack`` is the
smallest eigenvalue of (dominant side minus dominated side).  A failed
hypothesis or power-domain guard yields ``not_applicable`` with the guard
named in the witness; ``violated`` is reserved for instances that satisfy
every hypothesis yet fail the final comparison.

An operator checker is written against a stack of trials: its instance is
the family as the builder stacked it, so every matrix carries a leading
trial axis (none for a single trial, whose d x d matrices are the stack of
one), and every guard decides per trial.  The trials may come from cells
that differ only in their interval and their mean, so ``m``, ``M`` and the
mean id ``f`` are each one value or an array of one value per trial.  A
checker resolves ``f`` with ``function_from_id``, which gives one
function or a per-trial one, and takes every constant, and f(m), through
``_per_trial`` on the id, never by calling f on one float.
``p``, ``lam`` and ``k`` stay one number per stack.  ``check`` runs one
trial; ``check_cell`` runs a stack of trials in one pass.

A scalar check is one expression over its cell's trials stacked into
arrays.  On float64 intervals it is the campaign's filter; at 30 digits of
mpmath it is the exact check (see ``inequality``).
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
from .instances import InstanceFamily, _trial_factor, take
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
    _eigvalsh,
    adjoint,
    apply_function,
    eig,
    from_spectrum,
    hermitize,
    identity,
    loewner_holds,
    loewner_leq,
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
    """Fail ``guard`` on the trials where ``cond`` (one bool, or one per trial) is False."""
    if cond is True:  # a plain bool: a guard on cell values
        return
    failed = ~np.asarray(cond)
    if _any(failed):
        raise _GuardFail(guard, failed)


def _na(check_id: str, guard: str) -> CheckOutcome:
    return CheckOutcome(check_id, NOT_APPLICABLE, math.nan, math.nan, witness={"guard": guard})


def _compare(check_id, dominant, dominated, tol) -> list[CheckOutcome]:
    v = loewner_leq(dominated, dominant, tol)
    return [
        CheckOutcome(check_id, HOLDS if holds else VIOLATED, float(slack), float(scale))
        for holds, slack, scale in zip(*np.atleast_1d(v.holds, v.slack, v.scale))
    ]


def _chain_outcome(check_id, t1, t2, t3, tol) -> list[CheckOutcome]:
    l1 = loewner_leq(t1, t2, tol)
    l2 = loewner_leq(t2, t3, tol)
    return [
        CheckOutcome(
            check_id=check_id,
            status=HOLDS if h1 and h2 else VIOLATED,
            slack=min(float(s1), float(s2)),
            scale=max(float(c1), float(c2)),
            chain_slacks=(float(s1), float(s2)),
        )
        for h1, h2, s1, s2, c1, c2 in zip(
            *np.atleast_1d(l1.holds, l2.holds, l1.slack, l2.slack, l1.scale, l2.scale)
        )
    ]


def _stack_params(params: list[dict]) -> dict:
    """The params (or cells) of a stack of trials: a value all trials share
    stays as it is, and one that differs (a per-trial draw, or the interval
    of cells built together) becomes an array on a leading axis."""
    if len(params) == 1:
        return params[0]
    return {
        key: value if all(p[key] == value for p in params[1:]) else np.asarray([p[key] for p in params])
        for key, value in params[0].items()
    }


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
    bounds: object  # a scalar cell's float64 verdicts: insts -> one per trial; None for operator checks


REGISTRY: dict[str, RegistryEntry] = {}


def inequality(check_id, *, group, direction, interval_kind, axes, statement, hypothesis, reference=None):
    """Declare one inequality: register it in ``REGISTRY`` and wrap its checker.

    An operator checker returns the sides to compare, (dominant, dominated),
    or (t1, t2, t3) for a chain t1 <= t2 <= t3.  The entry's ``runner``
    takes a cell's instances, a stack for an operator check and a list for
    a scalar one, with a list of params, and returns one outcome per trial.

    An operator checker runs once on the stack of all trials.  A guard that
    fails on some trials settles them, and the checker runs again on
    ``take(stack, keep)`` of the rest, so no call sees the operands of a
    trial past its first failing guard; a stacked call gives each trial the
    bits it gives it alone.

    A scalar check is one function ``fn(s, num)`` of the cell's instances
    stacked into arrays (``_stack_scalars``) and a number kind ``num`` that
    converts an input array, ``_Interval`` or ``_Digits``.  It returns
    (guards, dominant, dominated), the guards in order as (verdict per
    trial, name) pairs from ``_nonneg``, ``_positive`` or ``_exact_guard``.
    The entry's ``bounds`` runs it on float64 intervals and returns one
    ``_settle`` verdict per instance.  Its ``runner`` runs it at
    ``SCALAR_DPS`` digits and settles each trial at its first failing
    guard, or by its sides' difference at those digits.  Registration order
    is the campaign's check order.
    """

    def deco(fn):
        @functools.wraps(fn)
        def runner(insts, params: list, tol: Tolerance = DEFAULT_TOL) -> list[CheckOutcome]:
            if group == "scalar":
                with mpmath.workdps(SCALAR_DPS):
                    return _scalar_outcomes(check_id, *fn(_stack_scalars(insts), _Digits), tol)
            out = [None] * len(params)
            live = np.arange(len(params))
            while live.size:
                try:
                    sides = fn(insts, _stack_params([params[t] for t in live]), tol)
                except _GuardFail as g:
                    failed = np.broadcast_to(g.where, live.shape)
                    for t in live[failed]:
                        out[t] = _na(check_id, g.guard)
                    live = live[~failed]
                    if live.size:
                        insts = take(insts, np.flatnonzero(~failed))
                    continue
                compare = _chain_outcome if group == "chain" else _compare
                for t, outcome in zip(live, compare(check_id, *sides, tol)):
                    out[t] = outcome
                break
            return out

        def bounds(insts: list) -> list:
            with np.errstate(all="ignore"):
                return _settle(*fn(_stack_scalars(insts), _Interval))

        REGISTRY[check_id] = RegistryEntry(
            check_id, group, direction, statement, hypothesis, interval_kind, axes, reference, runner,
            bounds if group == "scalar" else None,
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
    """A_j sigma_f B_j for every pair of the family, guarded."""
    return [_mean_g(a, b, f, "mean_conditioning") for a, b in zip(inst.A, inst.B)]


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


def _per_member(x):
    """An (n,) or (trials, n) array of per-member scalars (weights,
    interpolants) as n factors shaped (1, 1) or (trials, 1, 1), each scaling
    a stack of member matrices."""
    return np.asarray(x, dtype=float).swapaxes(0, -1)[..., None, None]


def _family_sum(inst, mats):
    """sum_j w_j Phi_j(X_j) over the family's weights and per-member maps."""
    return sum(w * phi.apply(x) for w, phi, x in zip(_per_member(inst.weights), inst.maps, mats))


# -- hypothesis re-verification --------------------------------------------


def _guard_window(mats, m, M, tol, name="spectrum_window"):
    eye = identity(mats[0].shape[-1])
    m, M = _trial_factor(m), _trial_factor(M)
    for a in mats:
        _require(loewner_holds(m * eye, a, tol), f"{name}_below_m")
        _require(loewner_holds(a, M * eye, tol), f"{name}_above_M")


def _guard_pair_sandwich(pairs, m, M, tol, name="pair_sandwich"):
    m, M = _trial_factor(m), _trial_factor(M)
    for a, b in pairs:
        _require(loewner_holds(m * a, b, tol), f"{name}_lower")
        _require(loewner_holds(b, M * a, tol), f"{name}_upper")


def _guard_psd(x, tol, guard):
    zero = np.zeros_like(x)
    _require(loewner_holds(zero, x, tol), guard)


def _guard_pd_floor(x, guard):
    lam = _eigvalsh(hermitize(x))
    _require(lam[..., 0] >= PD_REL_FLOOR * np.maximum(lam[..., -1], 1e-300), guard)


def _complement_prologue(inst, m, M, tol, f_id=None):
    """Hypotheses of the complement-sandwich reverses: m < 1 < M, the pairwise
    sandwiches, and the sandwich of I - g sum A_j and I - g sum B_j, where
    g = gamma_f of the mean id ``f_id`` when it is given and g = 1 otherwise.

    Returns (g, I, I - sum A_j, I - sum B_j)."""
    _require((m < 1.0) & (1.0 < M), "window_not_straddling_one")
    g = 1.0 if f_id is None else _gamma_guarded(f_id, m, M)
    eye = identity(inst.A[0].shape[-1])
    _guard_pair_sandwich(zip(inst.A, inst.B), m, M, tol)
    comp_a = hermitize(eye - g * sum(inst.A))
    comp_b = hermitize(eye - g * sum(inst.B))
    _guard_pd_floor(comp_a, "complement_a_not_pd")
    _guard_pd_floor(comp_b, "complement_b_not_pd")
    _require(loewner_holds(_trial_factor(m) * comp_a, comp_b, tol), "complement_sandwich_lower")
    _require(loewner_holds(comp_b, _trial_factor(M) * comp_a, tol), "complement_sandwich_upper")
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
    eye = identity(inst.A[0].shape[-1])
    _guard_window(inst.A, 0.0, 1.0, tol, "contraction_window")
    phi = inst.maps[0]
    w = _per_member(inst.weights)
    avg = hermitize(sum(wj * a for wj, a in zip(w, inst.A)))
    dominant = _power_guarded(hermitize(phi.apply(eye - avg)), p, tol, "map_base_not_psd")
    inner = sum(
        wj * _power_guarded(hermitize(eye - a), p, tol, "member_base_not_psd")
        for wj, a in zip(w, inst.A)
    )
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
    eye = identity(inst.A[0].shape[-1])
    for mats in (inst.A, inst.B):
        for x in mats:
            _guard_psd(x, tol, "member_not_psd")
        _guard_psd(eye - sum(mats), tol, "sum_exceeds_identity")
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
    _guard_window([x], m, M, tol)
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
    for x in list(inst.A) + list(inst.B):
        _guard_psd(x, tol, "member_not_psd")
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
    _guard_psd(a_total - sum(inst.A), tol, "A_sum_exceeds_total")
    _guard_psd(b_total - sum(inst.B), tol, "B_sum_exceeds_total")
    rem_a = hermitize(a_total - sum(inst.A))
    rem_b = hermitize(b_total - sum(inst.B))
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
    _guard_window([a], 0.0, 1.0, tol, "contraction_window")
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
    _guard_window([x], m, M, tol)
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
    _guard_pair_sandwich([(x, y)], m, M, tol)
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
    _guard_pair_sandwich(zip(inst.A, inst.B), m, M, tol)
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
    _guard_window([x], m, M, tol)
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
    _guard_window([a], 0.0, 1.0, tol, "contraction_window")
    _guard_pd_floor(a, "contraction_not_pd")
    _guard_pair_sandwich([(a, b)], m, M, tol)
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
    rhs_base = hermitize(eye - sum(weighted_arithmetic(a, b, lam) for a, b in zip(inst.A, inst.B)))
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
    _guard_window([x], m, M, tol)
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
    _guard_pair_sandwich([(x, y)], m, M, tol)
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
    _guard_pair_sandwich(zip(inst.A, inst.B), m, M, tol)
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
    f_members = [_fcalc_g(a, f, "function_domain") for a in inst.A]
    dominant = hermitize(beta * out_eye + _family_sum(inst, f_members))
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
    eye = identity(inst.A[0].shape[-1])
    out_eye = identity(inst.maps[0].output_dim)
    powers = [_power_guarded(hermitize(eye - a), p, tol, "member_base_not_psd") for a in inst.A]
    dominant = hermitize(delta * out_eye + _family_sum(inst, powers))
    mapped = hermitize(_family_sum(inst, [hermitize(eye - a) for a in inst.A]))
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
    w = _per_member(inst.weights)
    logs = hermitize(sum(wj * _fcalc_g(a, log_fn, "member_not_pd") for wj, a in zip(w, inst.A)))
    dominant = hermitize(c * out_eye + phi.apply(logs))
    mixed = hermitize(sum(wj * phi.apply(a) for wj, a in zip(w, inst.A)))
    dominated = _fcalc_g(mixed, log_fn, "mapped_operand_not_pd")
    return dominant, dominated


# -- refinement chains -------------------------------------------------------


def _subidentity_guards(inst, tol):
    eye = identity(inst.A[0].shape[-1])
    for mats, tag in ((inst.A, "A"), (inst.B, "B")):
        for x in mats:
            _guard_psd(x, tol, f"{tag}_member_not_psd")
        _guard_psd(eye - sum(mats), tol, f"{tag}_sum_exceeds_identity")


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
    eye = identity(inst.A[0].shape[-1])
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
    t = _per_member(t)
    _subidentity_guards(inst, tol)
    eye = identity(inst.A[0].shape[-1])
    comp_a = hermitize(eye - sum(inst.A))
    comp_b = hermitize(eye - sum(inst.B))
    _guard_pd_floor(comp_a, "complement_a_not_pd")
    t1 = _power_guarded(_mean_g(comp_a, comp_b, f, "mean_conditioning"), p, tol, "lhs_base_not_psd")
    part_a = hermitize(eye - sum(tj * a for tj, a in zip(t, inst.A)))
    part_b = hermitize(eye - sum(tj * b for tj, b in zip(t, inst.B)))
    _guard_pd_floor(part_a, "partial_complement_not_pd")
    pair_means = _pair_means(inst, f)
    mid_base = hermitize(
        _mean_g(part_a, part_b, f, "mean_conditioning")
        - sum((1.0 - tj) * pm for tj, pm in zip(t, pair_means))
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
    """Enclosures of one trial's reported slack and scale."""

    slack_lo: float
    slack_hi: float
    scale_lo: float
    scale_hi: float


def _settle(guards, dominant: _Interval, dominated: _Interval) -> list:
    """Per trial, in the check's order of ``guards`` (tri-state arrays from
    ``_nonneg``, ``_positive`` or ``_exact_guard``, with the guard name): the
    name of the first failing guard when every earlier one is decided,
    ``SlackBounds`` when all pass, else None."""
    slack = dominant - dominated
    slack_lo, slack_hi = slack.lo - DECIDE_MARGIN, slack.hi + DECIDE_MARGIN
    scale_lo = np.maximum(_abs_lo(dominant), _abs_lo(dominated))
    scale_hi = np.maximum(
        np.maximum(np.abs(dominant.lo), np.abs(dominant.hi)),
        np.maximum(np.abs(dominated.lo), np.abs(dominated.hi)),
    )
    out = [None] * len(slack_lo)
    passed = np.ones(len(slack_lo), dtype=bool)
    for state, name in guards:
        for t in np.flatnonzero(passed & (state < 0)):
            out[t] = name
        passed &= state > 0
    passed &= np.isfinite(slack_lo) & np.isfinite(slack_hi) & np.isfinite(scale_lo) & np.isfinite(scale_hi)
    for t in np.flatnonzero(passed):
        out[t] = SlackBounds(float(slack_lo[t]), float(slack_hi[t]), float(scale_lo[t]), float(scale_hi[t]))
    return out


def _stack_scalars(insts: list) -> dict:
    """Scalar instances stacked with a leading trial axis, matrices
    zero-padded to the largest row count (a zero entry adds exact zeros to
    every sum it enters)."""
    stacked = {}
    for key in insts[0]:
        values = [inst[key] for inst in insts]
        if np.ndim(values[0]) == 2:
            arr = np.zeros((len(values), max(v.shape[0] for v in values), values[0].shape[1]))
            for t, v in enumerate(values):
                arr[t, : v.shape[0]] = v
            stacked[key] = arr
        else:
            stacked[key] = np.asarray(values, dtype=float)
    return stacked


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
    axes=("n", "p"),
    statement="sum_j w_j (1 - sum_i a_ij^{1/p})^p <= (1 - sum_i (sum_j w_j a_ij)^{1/p})^p",
    hypothesis="sum_i a_ij^{1/p} <= 1 per column, weights sum to 1, 0 < p < 1",
)
def check_scalar_bellman_weighted(s, num) -> tuple:
    """sum_j w_j (1 - sum_i a_ij^{1/p})^p <= (1 - sum_i (sum_j w_j a_ij)^{1/p})^p."""
    p, q, a, col_caps = _column_sums(s, num)
    w = num(s["weights"])
    dominated = (w * (1 - col_caps) ** p[:, None]).sum(1)
    mixed = (w[:, None, :] * a).sum(2)
    dominant = (1 - (mixed ** q[:, None]).sum(1)) ** p
    return [(_nonneg(1 - col_caps).min(1), "column_hypothesis_failed")], dominant, dominated


@inequality(
    "scalar_bellman_columns", group="scalar", direction="rhs>=lhs", interval_kind="none",
    axes=("n", "p"),
    statement="sum_j (M_j^{1/p} - sum_i a_ij^{1/p})^p <= ((sum M_j)^{1/p} - sum_i (sum_j a_ij)^{1/p})^p",
    hypothesis="sum_i a_ij^{1/p} <= M_j^{1/p} per column, 0 < p < 1",
)
def check_scalar_bellman_columns(s, num) -> tuple:
    """sum_j (M_j^{1/p} - sum_i a_ij^{1/p})^p
    <= ((sum_j M_j)^{1/p} - sum_i (sum_j a_ij)^{1/p})^p."""
    p, q, a, col_sums = _column_sums(s, num)
    caps = num(s["caps"])
    room = caps ** q[:, None] - col_sums
    dominated = (room ** p[:, None]).sum(1)
    base = caps.sum(1) ** q - (a.sum(2) ** q[:, None]).sum(1)
    guards = [(_nonneg(room).min(1), "column_hypothesis_failed"), (_nonneg(base), "joint_base_negative")]
    return guards, base**p, dominated


@inequality(
    "scalar_bellman_reverse", group="scalar", direction="lhs>=rhs", interval_kind="none",
    axes=("n", "p"),
    statement="(1-p) p^{p/(1-p)} + sum_j w_j (1 - sum_i a_ij^{1/p})^p >= (1 - sum_ij w_j a_ij^{1/p})^p",
    hypothesis="sum_i a_ij^{1/p} <= 1 per column, weights sum to 1, 0 < p < 1",
)
def check_scalar_bellman_reverse(s, num) -> tuple:
    """(1-p) p^{p/(1-p)} + sum_j w_j (1 - sum_i a_ij^{1/p})^p
    >= (1 - sum_i sum_j w_j a_ij^{1/p})^p."""
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
    entry = _entry(check_id)
    return entry.runner([inst] if entry.group == "scalar" else inst, [params], tol)[0]


def check_cell(check_id: str, stack, params: list, tol: Tolerance = DEFAULT_TOL) -> list[CheckOutcome]:
    """One outcome per trial of a stack, from one run of the entry's runner
    on it: an operator builder's family, or a list of scalar instances, of
    one cell or of cells that differ only in their interval and their mean.
    A single trial goes through ``check``, so what wraps the per-trial entry
    sees every trial of a one-trial cell."""
    if len(params) == 1:
        return [check(check_id, stack[0] if isinstance(stack, list) else stack, params[0], tol)]
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
