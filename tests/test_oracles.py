"""Oracles past dimension 1: pinched instances against the scalar references.

Pinching X to V diag(diag(V* X V)) V*, V unitary, is a unital positive
linear map, so a pinched trial still meets every Loewner-type hypothesis of
the trial it came from (windows, sandwiches, sub-identity sums,
contractions), and its operands commute.  With identity maps, each operator
inequality then splits over the d joint coordinates: the operator slack is
the least of ``scalar_refs.reference_slack`` over the coordinates, each a
dimension-1 instance, and so is each chain link's.
"""

import json

import numpy as np

from opbellman import campaign, checks
from opbellman.checks import NOT_APPLICABLE
from opbellman.instances import InstanceFamily, Streams, haar_unitary, stream_states
from opbellman.scalar_refs import reference_slack
from opbellman.spectral import Tolerance, adjoint, hermitize

TOL = Tolerance(atol=1e-10, rtol=1e-10)

#: Every operator check's identity-map cells at dims 2-6, one trial each.
PINCH_CFG = campaign.CampaignConfig(
    trials=1, dims=(2, 3, 4, 5, 6), n_values=(1, 3), means=("geom:0.5", "power:0.3"), maps=("id",), seed=2812
)

def _coordinates(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """diag(V* X V) of each matrix of x (..., d, d)."""
    return np.diagonal(adjoint(v) @ x @ v, axis1=-2, axis2=-1)


def _pinched(inst: InstanceFamily, v: np.ndarray) -> tuple[InstanceFamily, dict]:
    """(the pinched trial, the joint coordinates of each operand): every
    operand X becomes V diag(diag(V* X V)) V*; the Hermitian ones are
    hermitized and their coordinates real, the contraction ``C`` stays
    complex."""
    operands = {"A": inst.A, "B": inst.B, **inst.aux}
    coords, pinched = {}, {}
    for name, x in operands.items():
        if x is None:
            continue
        c = _coordinates(x, v)
        coords[name] = c if name == "C" else c.real
        p = (v * coords[name][..., None, :]) @ adjoint(v)
        pinched[name] = p if name == "C" else hermitize(p)
    aux = {k: pinched[k] for k in inst.aux}
    fam = InstanceFamily(
        inst.hypothesis_tag, pinched["A"], pinched.get("B"), inst.weights, inst.maps, aux, dict(inst.meta)
    )
    return fam, coords


def _coordinate_trial(inst: InstanceFamily, coords: dict, k: int) -> InstanceFamily:
    """The dimension-1 trial of joint coordinate k: each operand its k-th
    coordinate as a 1 x 1 matrix."""
    one = {name: c[..., k, None, None] for name, c in coords.items()}
    return InstanceFamily(
        inst.hypothesis_tag, one["A"], one.get("B"), inst.weights, None, {name: one[name] for name in inst.aux}
    )


def test_pinched_trials_equal_their_least_coordinate_reference():
    # every operator check on its identity-map cells at dims 2-6: the
    # checker's slack on a pinched trial, and each chain link's, is the
    # least scalar reference over the trial's joint coordinates
    worst, compared, dims = 0.0, 0, set()
    for cid in checks.OPERATOR_IDS:
        seen = 0
        for cell in campaign.expand_cells(cid, PINCH_CFG):
            pairs = [(cell, t) for t in range(PINCH_CFG.trials)]
            states = campaign._stream_states([(cid, cell)], range(PINCH_CFG.trials), PINCH_CFG).reshape(-1, 4)
            (build,) = campaign._build_trials([(cid, pairs)], PINCH_CFG, states)
            for i in range(PINCH_CFG.trials):
                inst, params = build.inst(i), build.params(i)
                if inst is None:
                    continue  # a rejected build
                d = cell["dim"]
                key = (cid, json.dumps(cell, sort_keys=True), i)
                v = haar_unitary(d, Streams(stream_states(PINCH_CFG.seed, [("pinch", *key)])), 1)[0, 0]
                pinched, coords = _pinched(inst, v)
                out = checks.check(cid, pinched, params, TOL)
                assert out.status != NOT_APPLICABLE, (key, out)
                refs = [reference_slack(cid, _coordinate_trial(inst, coords, k), params) for k in range(d)]
                slacks = [(out.slack, min(r["slack"] for r in refs))]
                if out.chain_slacks is not None:
                    links = zip(*(r["chain"] for r in refs))
                    slacks += list(zip(out.chain_slacks, map(min, links), strict=True))
                for got, want in slacks:
                    gap = abs(got - want) / (1.0 + abs(got))
                    assert gap <= 1e-12, (key, got, want)
                    worst = max(worst, gap)
                seen += 1
                dims.add(d)
        assert seen >= 10, cid
        compared += seen
    assert dims == {2, 3, 4, 5, 6} and compared >= 400
    print(f"pinched oracle: {compared} trials, worst gap {worst:.2e} (1 + |slack|)")
