"""Independent scalar references for dimension-1 instances.

Every operator check, evaluated on 1x1 operands with identity maps, reduces
to a closed scalar formula.  This module evaluates those formulas directly
in high-precision arithmetic, with no eigendecompositions, congruences or
map machinery involved, and is the primary cross-check against bugs in the
matrix path: at dim 1 both routes must agree to 1e-12.
"""

from __future__ import annotations

import mpmath
import numpy as np

from . import constants
from .errors import ParameterError
from .means import arithmetic_w, function_from_id, geometric_w, powered

DPS = 30


def _sc(x) -> float:
    """Extract the real scalar from a 1x1 matrix."""
    return float(np.asarray(x).reshape(-1)[0].real)


def _scalars(mats) -> list:
    return [mpmath.mpf(_sc(x)) for x in mats]


def _mean_s(x, y, f):
    """Scalar Kubo-Ando mean: x * f(y / x)."""
    return x * f.mp(y / x)


def reference_slack(check_id: str, inst, params) -> dict:
    """Scalar evaluation of one check; returns {"slack": float, "chain": tuple|None}.

    The formula for each check is the ``reference`` of its registry entry.
    """
    from .checks import REGISTRY  # checks imports this module

    entry = REGISTRY.get(check_id)
    if entry is None or entry.reference is None:
        raise ParameterError(f"no scalar reference for {check_id!r}")
    with mpmath.workdps(DPS):
        return entry.reference(inst, params)


def _plain(dom, sub) -> dict:
    return {"slack": float(dom - sub), "chain": None}


def bellman_map(inst, params):
    p = params["p"]
    a = _scalars(inst.A)
    w = [mpmath.mpf(v) for v in inst.weights]
    dom = (1 - mpmath.fsum(wj * aj for wj, aj in zip(w, a))) ** mpmath.mpf(p)
    sub = mpmath.fsum(wj * (1 - aj) ** mpmath.mpf(p) for wj, aj in zip(w, a))
    return _plain(dom, sub)


def bellman_mean(inst, params):
    f, p = function_from_id(params["f"]), params["p"]
    a, b = _scalars(inst.A), _scalars(inst.B)
    pair = mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    dom = (1 - pair) ** mpmath.mpf(p)
    sub = _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), powered(f, p))
    return _plain(dom, sub)


def jensen_map(inst, params):
    f = function_from_id(params["f"])
    x = mpmath.mpf(_sc(inst.A[0]))
    return _plain(f.mp(x), f.mp(x))


def mean_superadditive(inst, params):
    f = function_from_id(params["f"])
    a, b = _scalars(inst.A), _scalars(inst.B)
    dom = _mean_s(mpmath.fsum(a), mpmath.fsum(b), f)
    sub = mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    return _plain(dom, sub)


def mean_remainder(inst, params):
    f = function_from_id(params["f"])
    a, b = _scalars(inst.A), _scalars(inst.B)
    at = mpmath.mpf(_sc(inst.aux["A_total"]))
    bt = mpmath.mpf(_sc(inst.aux["B_total"]))
    dom = _mean_s(at, bt, f) - mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    sub = _mean_s(at - mpmath.fsum(a), bt - mpmath.fsum(b), f)
    return _plain(dom, sub)


def mean_power_compose(inst, params):
    f, p = function_from_id(params["f"]), params["p"]
    a = mpmath.mpf(_sc(inst.A[0]))
    b = mpmath.mpf(_sc(inst.B[0]))
    dom = _mean_s(a, b, f) ** mpmath.mpf(p)
    sub = _mean_s(a, b, powered(f, p))
    return _plain(dom, sub)


def jensen_ratio_reverse(inst, params):
    f = function_from_id(params["f"])
    g = constants.gamma(f, params["m"], params["M"]).value
    x = mpmath.mpf(_sc(inst.A[0]))
    return _plain(g * f.mp(x), f.mp(x))


def mean_map_ratio_reverse(inst, params):
    f = function_from_id(params["f"])
    g = constants.gamma(f, params["m"], params["M"]).value
    x = mpmath.mpf(_sc(inst.A[0]))
    y = mpmath.mpf(_sc(inst.B[0]))
    mm = _mean_s(x, y, f)
    return _plain(g * mm, mm)


def mean_sum_ratio_reverse(inst, params):
    f = function_from_id(params["f"])
    g = constants.gamma(f, params["m"], params["M"]).value
    a, b = _scalars(inst.A), _scalars(inst.B)
    dom = g * mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    sub = _mean_s(mpmath.fsum(a), mpmath.fsum(b), f)
    return _plain(dom, sub)


def bellman_ratio_reverse(inst, params):
    f, p = function_from_id(params["f"]), params["p"]
    g = mpmath.mpf(constants.gamma(f, params["m"], params["M"]).value)
    a, b = _scalars(inst.A), _scalars(inst.B)
    pair = mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    dom = g ** mpmath.mpf(p) * _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), f) ** mpmath.mpf(p)
    sub = (1 - g * pair) ** mpmath.mpf(p)
    return _plain(dom, sub)


def compression_ratio_reverse(inst, params):
    f = function_from_id(params["f"])
    m = params["m"]
    g = constants.gamma(f, m, params["M"]).value
    x = mpmath.mpf(_sc(inst.A[0]))
    c = complex(np.asarray(inst.aux["C"]).reshape(-1)[0])
    cc = mpmath.mpf(abs(c) ** 2)
    dom = g * (cc * f.mp(x) + f.mp(mpmath.mpf(m)) * (1 - cc))
    sub = f.mp(cc * x)
    return _plain(dom, sub)


def mean_power_ratio_reverse(inst, params):
    f, p = function_from_id(params["f"]), params["p"]
    m, M = params["m"], params["M"]
    gh = constants.gamma_power(float(f(m)), float(f(M)), p).value
    a = mpmath.mpf(_sc(inst.A[0]))
    b = mpmath.mpf(_sc(inst.B[0]))
    fm = f.mp(mpmath.mpf(m))
    dom = gh * (fm ** mpmath.mpf(p) * (1 - a) + _mean_s(a, b, powered(f, p)))
    sub = _mean_s(a, b, f) ** mpmath.mpf(p)
    return _plain(dom, sub)


def bellman_arith_reverse(inst, params):
    lam, p = params["lam"], params["p"]
    m, M = params["m"], params["M"]
    f = arithmetic_w(lam)
    delta = constants.delta_affine_power(lam, m, M, p).value
    a, b = _scalars(inst.A), _scalars(inst.B)
    fm = f.mp(mpmath.mpf(m))
    dom = delta * (
        fm ** mpmath.mpf(p) * mpmath.fsum(a)
        + _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), powered(f, p))
    )
    pair = mpmath.fsum((1 - lam) * x + lam * y for x, y in zip(a, b))
    sub = (1 - pair) ** mpmath.mpf(p)
    return _plain(dom, sub)


def jensen_diff_reverse(inst, params):
    f = function_from_id(params["f"])
    beta = constants.beta(f, params["m"], params["M"]).value
    x = mpmath.mpf(_sc(inst.A[0]))
    return _plain(beta + f.mp(x), f.mp(x))


def mean_map_diff_reverse(inst, params):
    f = function_from_id(params["f"])
    beta = constants.beta(f, params["m"], params["M"]).value
    x = mpmath.mpf(_sc(inst.A[0]))
    y = mpmath.mpf(_sc(inst.B[0]))
    mm = _mean_s(x, y, f)
    return _plain(beta * x + mm, mm)


def mean_sum_diff_reverse(inst, params):
    f = function_from_id(params["f"])
    beta = constants.beta(f, params["m"], params["M"]).value
    a, b = _scalars(inst.A), _scalars(inst.B)
    dom = beta * mpmath.fsum(a) + mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    sub = _mean_s(mpmath.fsum(a), mpmath.fsum(b), f)
    return _plain(dom, sub)


def bellman_diff_reverse(inst, params):
    f, p = function_from_id(params["f"]), params["p"]
    beta = constants.beta(f, params["m"], params["M"]).value
    a, b = _scalars(inst.A), _scalars(inst.B)
    dom = (beta + _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), f)) ** mpmath.mpf(p)
    pair = mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    sub = (1 - pair) ** mpmath.mpf(p)
    return _plain(dom, sub)


def aczel_reverse(inst, params):
    lam, p = params["lam"], params["p"]
    f = geometric_w(lam)
    zeta = constants.zeta_aczel(params["m"], params["M"], p).value
    a, b = _scalars(inst.A), _scalars(inst.B)
    dom = (zeta + _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), f)) ** mpmath.mpf(p)
    pair = mpmath.fsum(_mean_s(x, y, f) for x, y in zip(a, b))
    sub = (1 - pair) ** mpmath.mpf(p)
    return _plain(dom, sub)


def jensen_family_diff_reverse(inst, params):
    f = function_from_id(params["f"])
    beta = constants.beta(f, params["m"], params["M"]).value
    a = _scalars(inst.A)
    w = [mpmath.mpf(v) for v in inst.weights]
    dom = beta + mpmath.fsum(wj * f.mp(aj) for wj, aj in zip(w, a))
    sub = f.mp(mpmath.fsum(wj * aj for wj, aj in zip(w, a)))
    return _plain(dom, sub)


def bellman_family_reverse(inst, params):
    p = params["p"]
    delta = constants.delta_bellman(params["m"], params["M"], p).value
    a = _scalars(inst.A)
    w = [mpmath.mpf(v) for v in inst.weights]
    dom = delta + mpmath.fsum(wj * (1 - aj) ** mpmath.mpf(p) for wj, aj in zip(w, a))
    sub = (mpmath.fsum(wj * (1 - aj) for wj, aj in zip(w, a))) ** mpmath.mpf(p)
    return _plain(dom, sub)


def log_family_reverse(inst, params):
    c = constants.beta_log(params["m"], params["M"]).value
    a = _scalars(inst.A)
    w = [mpmath.mpf(v) for v in inst.weights]
    dom = c + mpmath.fsum(wj * mpmath.log(aj) for wj, aj in zip(w, a))
    sub = mpmath.log(mpmath.fsum(wj * aj for wj, aj in zip(w, a)))
    return _plain(dom, sub)


def _chain_result(t1, t2, t3):
    l1 = float(t2 - t1)
    l2 = float(t3 - t2)
    return {"slack": min(l1, l2), "chain": (l1, l2)}


def bellman_chain_split(inst, params):
    f, p, k = function_from_id(params["f"]), params["p"], params["k"]
    a, b = _scalars(inst.A), _scalars(inst.B)
    pair = [_mean_s(x, y, f) for x, y in zip(a, b)]
    t1 = _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), powered(f, p))
    mid = _mean_s(1 - mpmath.fsum(a[:k]), 1 - mpmath.fsum(b[:k]), f) - mpmath.fsum(pair[k:])
    t2 = mid ** mpmath.mpf(p)
    t3 = (1 - mpmath.fsum(pair)) ** mpmath.mpf(p)
    return _chain_result(t1, t2, t3)


def bellman_chain_interp(inst, params):
    f, p = function_from_id(params["f"]), params["p"]
    t = [mpmath.mpf(v) for v in params["t"]]
    a, b = _scalars(inst.A), _scalars(inst.B)
    pair = [_mean_s(x, y, f) for x, y in zip(a, b)]
    t1 = _mean_s(1 - mpmath.fsum(a), 1 - mpmath.fsum(b), f) ** mpmath.mpf(p)
    mid = _mean_s(
        1 - mpmath.fsum(tj * x for tj, x in zip(t, a)),
        1 - mpmath.fsum(tj * y for tj, y in zip(t, b)),
        f,
    ) - mpmath.fsum((1 - tj) * pm for tj, pm in zip(t, pair))
    t2 = mid ** mpmath.mpf(p)
    t3 = (1 - mpmath.fsum(pair)) ** mpmath.mpf(p)
    return _chain_result(t1, t2, t3)
