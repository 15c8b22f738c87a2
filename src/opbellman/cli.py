"""Command-line interface.

Subcommands:
  run        execute an inequality campaign and write a report
  constants  closed-form vs oracle table for every correction constant
  replay     re-run a recorded witness and compare slack
  diff       list the cells in which two reports differ
  list       export the inequality registry

Exit codes: 0 success / all holds, 1 usage or config error, 2 violations
(or closed-form/oracle disagreement, witness mismatch, or reports that
differ).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import campaign, checks, constants
from .campaign import CampaignConfig, config_from_json, config_to_json, replay_witness
from .errors import OpBellmanError, ParameterError, WitnessFormatError
from .means import function_from_id

AGREEMENT_RTOL = 1e-9


def _row(name: str, cell: dict, closed=None, oracle=None, argmax=None, note: str = "") -> dict:
    both = closed is not None and oracle is not None
    return {
        "constant": name,
        "cell": cell,
        "closed_form": closed,
        "oracle": oracle,
        "argmax": argmax,
        "abs_disagreement": abs(closed - oracle) if both else None,
        "rel_disagreement": abs(closed - oracle) / max(abs(oracle), 1e-30) if both else None,
        "note": note,
    }


def _closed_form_rows(
    name: str, args: dict, cell: dict | None = None, argmax_name: str | None = None
) -> list[dict]:
    """The row comparing closed form ``name`` on ``args`` with its oracle route,
    and with ``argmax_name`` a second row comparing their maximizers.

    When the closed form refuses ``args``, its message is each row's note.
    """
    closed_form, oracle_route = constants.CLOSED_FORMS[name]
    cell = args if cell is None else cell
    try:
        closed = closed_form(**args)
    except OpBellmanError as exc:
        return [_row(n, cell, note=str(exc)) for n in (name, argmax_name) if n is not None]
    oracle = oracle_route(**args)
    rows = [_row(name, cell, closed.value, oracle.value, closed.argmax)]
    if argmax_name is not None:
        rows.append(_row(argmax_name, cell, closed.argmax, oracle.argmax))
    return rows


def constant_rows(fid: str, m: float, M: float, p: float, lam: float) -> list[dict]:
    """Closed-form/oracle comparison rows for one parameter cell.

    A constant whose hypotheses exclude the cell is listed with the reason.
    """
    f = function_from_id(fid)
    cell = {"f": fid, "m": m, "M": M, "p": p, "lam": lam}
    rows = []
    for name, oracle in (("gamma_f", constants.gamma), ("beta_f", constants.beta)):
        try:
            c = oracle(f, m, M)
            rows.append(_row(name, cell, oracle=c.value, argmax=c.argmax))
        except OpBellmanError as exc:
            rows.append(_row(name, cell, note=str(exc)))
    # f may be infinite at an end (log at 0) or NaN outside its domain, where a
    # Python float would make it complex; gamma_h then refuses its interval
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = {"a": float(f(np.float64(m))), "b": float(f(np.float64(M)))}
    rows += _closed_form_rows("gamma_h", ends | {"p": p}, cell)
    rows += _closed_form_rows("delta_affine_power", {"lam": lam, "m": m, "M": M, "p": p}, cell)
    rows += _closed_form_rows("delta_bellman", {"m": m, "M": M, "p": p}, cell, "t_star")
    rows += _closed_form_rows("zeta_aczel", {"m": m, "M": M, "p": p}, cell)
    rows += _closed_form_rows("beta_log", {"m": m, "M": M}, cell, "log_mean")
    return rows


def constants_sweep() -> list[dict]:
    """The standing closed-form vs oracle verification grid (>= 100 cells)."""
    rows = []
    p_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    for p in p_grid:
        for a, b in ((0.25, 0.75), (0.5, 2.0), (1.0, 4.0), (0.8, 1.25), (2.0, 7.5)):
            rows += _closed_form_rows("gamma_h", {"a": a, "b": b, "p": p})
            rows += _closed_form_rows("zeta_aczel", {"m": a, "M": b, "p": p})
        for lam, m, M in ((0.3, 0.5, 2.0), (0.5, 0.5, 2.0), (0.7, 0.25, 3.0), (0.9, 0.8, 1.25)):
            rows += _closed_form_rows("delta_affine_power", {"lam": lam, "m": m, "M": M, "p": p})
        for m, M in ((0.0, 0.5), (0.1, 0.9), (0.2, 0.6), (0.0, 1.0)):
            rows += _closed_form_rows("delta_bellman", {"m": m, "M": M, "p": p}, argmax_name="t_star")
    for m, M in ((0.5, 2.0), (1.0, math.e), (0.1, 0.9), (2.0, 9.0), (0.25, 16.0)):
        rows += _closed_form_rows("beta_log", {"m": m, "M": M})
    return rows


def _rows_ok(rows: list[dict]) -> bool:
    return not any(
        r["rel_disagreement"] is not None and r["rel_disagreement"] > AGREEMENT_RTOL for r in rows
    )


def _print_rows_text(rows: list[dict], out) -> None:
    width = max(len(r["constant"]) for r in rows)
    for r in rows:
        cell = " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in r["cell"].items())
        closed = "----------------------" if r["closed_form"] is None else f"{r['closed_form']:+.15e}"
        oracle = "----------------------" if r["oracle"] is None else f"{r['oracle']:+.15e}"
        dis = "" if r["abs_disagreement"] is None else f" |d|={r['abs_disagreement']:.3e}"
        method = "closed_form" if r["closed_form"] is not None else "oracle"
        note = f"  ({r['note']})" if r["note"] else ""
        print(f"{r['constant']:<{width}s}  {closed}  {oracle}  {method:<11s}{dis}{note}", file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opbellman",
        description="Verify operator Bellman inequalities and their reverse constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an inequality campaign")
    run.add_argument("--config", help="JSON config file; flags override its values")
    run.add_argument("--seed", type=int, help="campaign seed (env BELLMAN_SEED as fallback)")
    run.add_argument("--trials", type=int, help="trials per parameter cell")
    run.add_argument("--checks", help="comma-separated inequality ids (default: all)")
    run.add_argument("--out", help="report output path (default: stdout)")
    run.add_argument("--format", choices=("json", "csv", "text"), default="json", help="report format")
    run.add_argument("--tol-abs", type=float, help="absolute comparison tolerance")
    run.add_argument("--tol-rel", type=float, help="relative comparison tolerance")
    run.set_defaults(func=cmd_run)

    cons = sub.add_parser("constants", help="closed-form vs oracle constant table")
    cons.add_argument("--f", default="geom:0.5", help="representing function id")
    cons.add_argument("--m", type=float, default=0.5)
    cons.add_argument("--M", type=float, default=2.0)
    cons.add_argument("--p", type=float, default=0.5)
    cons.add_argument("--lam", type=float, default=0.5)
    cons.add_argument("--sweep", action="store_true", help="run the standing verification grid")
    cons.add_argument("--format", choices=("json", "text"), default="text")
    cons.set_defaults(func=cmd_constants)

    rep = sub.add_parser("replay", help="replay a recorded witness")
    rep.add_argument("path", help="witness JSON file")
    rep.set_defaults(func=cmd_replay)

    diff = sub.add_parser("diff", help="list the cells in which two reports differ")
    diff.add_argument("a", help="first report JSON file")
    diff.add_argument("b", help="second report JSON file")
    diff.add_argument("--slack-tol", type=float, default=0.0, help="largest slack change that is no change")
    diff.set_defaults(func=cmd_diff)

    sub.add_parser("list", help="export the inequality registry as JSON").set_defaults(func=cmd_list)
    return parser


def _read_json(path: str, what: str):
    """The JSON document in ``path``; an empty file reads as {}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError as exc:
        raise OpBellmanError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        return json.loads(text) if text else {}
    except json.JSONDecodeError as exc:
        raise OpBellmanError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _load_config(args) -> CampaignConfig:
    """The config file, then BELLMAN_SEED where neither the file nor --seed
    sets a seed, then the flags, merged into one JSON object and parsed."""
    obj = _read_json(args.config, "config") if args.config else {}
    # parsed on its own first, so a malformed file value is an error even
    # where a flag overrides it
    merged = config_to_json(config_from_json(obj))
    env_seed = os.environ.get("BELLMAN_SEED")
    if args.seed is None and "seed" not in obj and env_seed is not None:
        try:
            merged["seed"] = int(env_seed)
        except ValueError:
            raise ParameterError(f"BELLMAN_SEED: not an integer: {env_seed!r}") from None
    flags = {"seed": args.seed, "trials": args.trials}
    if args.checks is not None:
        flags["checks"] = [s.strip() for s in args.checks.split(",") if s.strip()]
    merged.update((k, v) for k, v in flags.items() if v is not None)
    tolerance = {"atol": args.tol_abs, "rtol": args.tol_rel}
    merged["tolerance"].update((k, v) for k, v in tolerance.items() if v is not None)
    return config_from_json(merged)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    started = time.perf_counter()
    report = campaign.run_campaign(cfg)
    elapsed = time.perf_counter() - started
    payload = {
        "json": campaign.report_to_json,
        "csv": campaign.report_to_csv,
        "text": campaign.report_to_text,
    }[args.format](report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    s = report["summary"]
    print(
        f"ran {s['trials']} trials: {s['holds']} holds, {s['violations']} violations, "
        f"{s['not_applicable']} not applicable ({elapsed:.2f} s)",
        file=sys.stderr,
    )
    return 2 if s["violations"] else 0


def cmd_constants(args) -> int:
    rows = constants_sweep() if args.sweep else constant_rows(args.f, args.m, args.M, args.p, args.lam)
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True, indent=2))
    else:
        _print_rows_text(rows, sys.stdout)
    return 0 if _rows_ok(rows) else 2


def cmd_replay(args) -> int:
    outcome, recorded, match = replay_witness(_read_json(args.path, "witness"))
    print(
        json.dumps(
            {
                "check": outcome.check_id,
                "status": outcome.status,
                "slack": outcome.slack,
                "recorded_slack": recorded.get("slack"),
                "match": match,
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0 if match else 2


#: The fields of a report cell compared exactly.
_COUNTS = ("trials", "holds", "violations", "not_applicable", "na_guards")

#: The slack fields of a report cell, compared within ``--slack-tol``.
_SLACKS = ("min_slack", "median_normalized_slack")


def _report_cells(path: str) -> dict:
    """The cells of the ``opbellman-report/1`` report in ``path``, keyed by
    (check, the cell's sorted JSON)."""
    doc = _read_json(path, "report")
    try:
        if doc["schema"] != "opbellman-report/1":
            raise ValueError(f"schema {doc['schema']!r}")
        keep = (*_COUNTS, *_SLACKS, "argmin")
        return {(r["check"], json.dumps(r["cell"], sort_keys=True)): {k: r[k] for k in keep} for r in doc["cells"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise OpBellmanError(f"{path}: not an opbellman-report/1 report ({exc!r})") from None


def _slack_change(x, y) -> float:
    """|x - y| of two slacks, 0 when they are equal and inf when only one is None."""
    return 0.0 if x == y else math.inf if x is None or y is None else abs(x - y)


def cmd_diff(args) -> int:
    a, b = _report_cells(args.a), _report_cells(args.b)
    largest = dict.fromkeys(_SLACKS, 0.0)
    changed = flips = 0
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        what = [f"{k} {x[k]} -> {y[k]}" for k in _COUNTS if x[k] != y[k]]
        for k in _SLACKS:
            delta = _slack_change(x[k], y[k])
            largest[k] = max(largest[k], delta)
            if delta > args.slack_tol:
                what.append(f"{k} {x[k]!r} -> {y[k]!r}")
        flips += x["argmin"] != y["argmin"]
        if what:
            changed += 1
            print(f"changed {key[0]} {key[1]}: {', '.join(what)}")
    only = [sorted(p.keys() - q.keys()) for p, q in ((a, b), (b, a))]
    for side, keys in zip("AB", only):
        for check_id, cell in keys:
            print(f"only in {side} {check_id} {cell}")
    print(
        f"{len(a.keys() & b.keys())} cells compared, {changed} changed, {len(only[0])} only in A, "
        f"{len(only[1])} only in B; largest change: min_slack {largest['min_slack']:.3g}, "
        f"median_normalized_slack {largest['median_normalized_slack']:.3g}; {flips} argmin flips"
    )
    return 2 if changed or any(only) else 0


def cmd_list(args) -> int:
    print(json.dumps(checks.registry_listing(), sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WitnessFormatError as exc:
        print(f"witness schema error: {exc}", file=sys.stderr)
        return 1
    except OpBellmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
