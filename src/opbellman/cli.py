"""Command-line interface.

Subcommands:
  run        execute an inequality campaign and write a report
  constants  closed-form vs oracle table for every correction constant
  replay     re-run a recorded witness and compare slack
  list       export the inequality registry

Exit codes: 0 success / all holds, 1 usage or config error, 2 violations
(or closed-form/oracle disagreement, or witness mismatch).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import campaign, checks, constants
from .campaign import CampaignConfig, config_from_json, replay_witness
from .errors import OpBellmanError, ParameterError, WitnessFormatError
from .means import RepresentingFunction, arithmetic_w, function_from_id, log_fn, power_fn
from .spectral import Tolerance

AGREEMENT_RTOL = 1e-9


def _complement_power_fn(p: float) -> RepresentingFunction:
    return RepresentingFunction(
        label=f"cmpl-pow:{p:g}",
        fn=lambda t: (1.0 - t) ** p,
        domain=(-math.inf, 1.0),
        operator_monotone=False,
        normalized=False,
        mp_fn=lambda t: (1 - t) ** p,
    )


def _rel_err(closed: float, oracle: float) -> float:
    return abs(closed - oracle) / max(abs(oracle), 1e-30)


def constant_rows(fid: str, m: float, M: float, p: float, lam: float) -> list[dict]:
    """Closed-form/oracle comparison rows for one parameter cell.

    Constants whose hypotheses exclude the cell are skipped with a note.
    """
    rows = []
    f = function_from_id(fid)

    def row(name, closed, oracle, argmax=None, note=""):
        disagreement = None if closed is None or oracle is None else abs(closed - oracle)
        rows.append(
            {
                "constant": name,
                "cell": {"f": fid, "m": m, "M": M, "p": p, "lam": lam},
                "closed_form": closed,
                "oracle": oracle,
                "argmax": argmax,
                "abs_disagreement": disagreement,
                "note": note,
            }
        )

    try:
        g = constants.gamma(f, m, M)
        row("gamma_f", None, g.value, g.argmax)
    except OpBellmanError as exc:
        row("gamma_f", None, None, note=str(exc))
    b = constants.beta(f, m, M)
    row("beta_f", None, b.value, b.argmax)

    fm, fM = float(f(m)), float(f(M))
    if 0.0 < fm < fM:
        gh = constants.gamma_power(fm, fM, p)
        oracle = constants.gamma(power_fn(p), fm, fM)
        row("gamma_h", gh.value, oracle.value, gh.argmax)
    else:
        row("gamma_h", None, None, note="needs 0 < f(m) < f(M)")

    aff = arithmetic_w(lam)
    am, aM = float(aff(m)), float(aff(M))
    if 0.0 < am < aM:
        dc = constants.delta_affine_power(lam, m, M, p)
        oracle = constants.gamma(power_fn(p), am, aM)
        row("delta_affine_power", dc.value, oracle.value, dc.argmax)
    else:
        row("delta_affine_power", None, None, note="needs lam > 0")

    if 0.0 <= m < M <= 1.0:
        db = constants.delta_bellman(m, M, p)
        oracle = constants.beta(_complement_power_fn(p), m, M)
        row("delta_bellman", db.value, oracle.value, db.argmax)
        row("t_star", constants.t_star(m, M, p), oracle.argmax)
    else:
        row("delta_bellman", None, None, note="needs 0 <= m < M <= 1")
        row("t_star", None, None, note="needs 0 <= m < M <= 1")

    if m > 0.0:
        z = constants.zeta_aczel(m, M, p)
        oracle = constants.beta(power_fn(p), m, M)
        row("zeta_aczel", z.value, oracle.value, z.argmax)
        bl = constants.beta_log(m, M)
        oracle = constants.beta(log_fn, m, M)
        row("beta_log", bl.value, oracle.value, bl.argmax)
        row("log_mean", constants.log_mean(m, M), None)
    else:
        row("zeta_aczel", None, None, note="needs m > 0")
        row("beta_log", None, None, note="needs m > 0")
    return rows


def constants_sweep() -> list[dict]:
    """The standing closed-form vs oracle verification grid (>= 100 cells)."""
    rows = []
    p_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    for p in p_grid:
        for a, b in ((0.25, 0.75), (0.5, 2.0), (1.0, 4.0), (0.8, 1.25), (2.0, 7.5)):
            gh = constants.gamma_power(a, b, p)
            oracle = constants.gamma(power_fn(p), a, b)
            rows.append(_sweep_row("gamma_h", {"a": a, "b": b, "p": p}, gh.value, oracle.value))
            z = constants.zeta_aczel(a, b, p)
            oracle = constants.beta(power_fn(p), a, b)
            rows.append(_sweep_row("zeta_aczel", {"m": a, "M": b, "p": p}, z.value, oracle.value))
        for lam, m, M in ((0.3, 0.5, 2.0), (0.5, 0.5, 2.0), (0.7, 0.25, 3.0), (0.9, 0.8, 1.25)):
            dc = constants.delta_affine_power(lam, m, M, p)
            aff = arithmetic_w(lam)
            oracle = constants.gamma(power_fn(p), float(aff(m)), float(aff(M)))
            rows.append(
                _sweep_row(
                    "delta_affine_power", {"lam": lam, "m": m, "M": M, "p": p}, dc.value, oracle.value
                )
            )
        for m, M in ((0.0, 0.5), (0.1, 0.9), (0.2, 0.6), (0.0, 1.0)):
            db = constants.delta_bellman(m, M, p)
            oracle = constants.beta(_complement_power_fn(p), m, M)
            rows.append(_sweep_row("delta_bellman", {"m": m, "M": M, "p": p}, db.value, oracle.value))
            rows.append(
                _sweep_row("t_star", {"m": m, "M": M, "p": p}, constants.t_star(m, M, p), oracle.argmax)
            )
    for m, M in ((0.5, 2.0), (1.0, math.e), (0.1, 0.9), (2.0, 9.0), (0.25, 16.0)):
        bl = constants.beta_log(m, M)
        oracle = constants.beta(log_fn, m, M)
        rows.append(_sweep_row("beta_log", {"m": m, "M": M}, bl.value, oracle.value))
    return rows


def _sweep_row(name: str, cell: dict, closed: float, oracle: float) -> dict:
    return {
        "constant": name,
        "cell": cell,
        "closed_form": closed,
        "oracle": oracle,
        "abs_disagreement": abs(closed - oracle),
        "rel_disagreement": _rel_err(closed, oracle),
    }


def _rows_ok(rows: list[dict]) -> bool:
    for r in rows:
        closed, oracle = r.get("closed_form"), r.get("oracle")
        if closed is None or oracle is None:
            continue
        if _rel_err(closed, oracle) > AGREEMENT_RTOL:
            return False
    return True


def _print_rows_text(rows: list[dict], out) -> None:
    width = max(len(r["constant"]) for r in rows)
    for r in rows:
        cell = " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in r["cell"].items())
        closed = "----------------------" if r["closed_form"] is None else f"{r['closed_form']:+.15e}"
        oracle = "----------------------" if r["oracle"] is None else f"{r['oracle']:+.15e}"
        dis = "" if r.get("abs_disagreement") is None else f" |d|={r['abs_disagreement']:.3e}"
        method = "closed_form" if r["closed_form"] is not None else "oracle"
        note = f"  ({r['note']})" if r.get("note") else ""
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
    run.add_argument("--format", choices=("json", "csv", "text"), help="report format")
    run.add_argument("--tol-abs", type=float, help="absolute comparison tolerance")
    run.add_argument("--tol-rel", type=float, help="relative comparison tolerance")

    cons = sub.add_parser("constants", help="closed-form vs oracle constant table")
    cons.add_argument("--f", default="geom:0.5", help="representing function id")
    cons.add_argument("--m", type=float, default=0.5)
    cons.add_argument("--M", type=float, default=2.0)
    cons.add_argument("--p", type=float, default=0.5)
    cons.add_argument("--lam", type=float, default=0.5)
    cons.add_argument("--sweep", action="store_true", help="run the standing verification grid")
    cons.add_argument("--format", choices=("json", "text"), default="text")

    rep = sub.add_parser("replay", help="replay a recorded witness")
    rep.add_argument("path", help="witness JSON file")

    lst = sub.add_parser("list", help="export the inequality registry as JSON")
    return parser


def _load_config(args) -> CampaignConfig:
    obj = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
            obj = json.loads(text) if text else {}
        except OSError as exc:
            raise OpBellmanError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise OpBellmanError(f"{args.config}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
        cfg = config_from_json(obj)
    else:
        cfg = CampaignConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    elif "seed" not in obj:
        env_seed = os.environ.get("BELLMAN_SEED")
        if env_seed is not None:
            try:
                updates["seed"] = int(env_seed)
            except ValueError:
                raise ParameterError(f"BELLMAN_SEED: not an integer: {env_seed!r}") from None
    if args.trials is not None:
        updates["trials"] = args.trials
    if args.checks is not None:
        updates["checks"] = tuple(s.strip() for s in args.checks.split(",") if s.strip())
    if args.out is not None:
        updates["out_path"] = args.out
    if args.format is not None:
        updates["format"] = args.format
    if args.tol_abs is not None or args.tol_rel is not None:
        try:
            updates["tolerance"] = Tolerance(
                atol=args.tol_abs if args.tol_abs is not None else CampaignConfig().tolerance.atol,
                rtol=args.tol_rel if args.tol_rel is not None else CampaignConfig().tolerance.rtol,
            )
        except ValueError as exc:
            raise ParameterError(f"tolerance: {exc}") from None
    cfg = replace(cfg, **updates)
    cfg.validate()
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    started = time.perf_counter()
    report = campaign.run_campaign(cfg)
    elapsed = time.perf_counter() - started
    if cfg.format == "json":
        payload = campaign.report_to_json(report)
    elif cfg.format == "csv":
        payload = campaign.report_to_csv(report)
    else:
        payload = campaign.report_to_text(report)
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
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
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"cannot read witness {args.path!r}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"{args.path}:{exc.lineno}: invalid JSON: {exc.msg}", file=sys.stderr)
        return 1
    outcome, recorded, match = replay_witness(obj)
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


def cmd_list(args) -> int:
    print(json.dumps(checks.registry_listing(), sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "replay":
            return cmd_replay(args)
        if args.command == "list":
            return cmd_list(args)
    except WitnessFormatError as exc:
        print(f"witness schema error: {exc}", file=sys.stderr)
        return 1
    except OpBellmanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1  # pragma: no cover


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
