"""opbellman benchmark: campaign throughput per workload, with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads live in
``perfbench/workloads.json``; the metric names and units in
``BENCHMARK.json``.  Each repetition runs in a fresh ``worker.py`` process
with BLAS pinned to one thread, and repetitions go on until ``--seconds``
would be exceeded (at least two).

Times are in reference seconds (see ``worker.py``).  ``--trace 0`` reports
the end-to-end metrics as medians over the repetitions.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics (times as medians over the traced repetitions, counts from the
first) and the tracing overhead.

Correctness, checked on every run: no violation and no exception, the
expected number of cells and trials, one report sha256 across all
repetitions (traced ones included), and, when tracing, identical trace
counts across traced repetitions.  The last line of stdout is the result
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from worker import load_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 2
WORKER_TIMEOUT_S = 120

#: Every BLAS the numpy wheel might use, pinned to one thread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(Exception):
    """A worker process failed."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--traced", "--spans", str(out_dir / f"spans-{workload}-seed{seed}.jsonl")]
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(workload: str, seed: int, seconds: float, pattern: tuple[bool, ...]) -> list[dict]:
    """Run workers, cycling through ``pattern`` (traced or not), until the
    next one would end past ``seconds``; at least ``MIN_REPS``."""
    reps: list[dict] = []
    started = perf_counter()
    last = 0.0
    while len(reps) < MIN_REPS or perf_counter() - started + last <= seconds:
        t = perf_counter()
        traced = pattern[len(reps) % len(pattern)]
        reps.append(run_worker(workload, seed, traced))
        last = perf_counter() - t
        print(
            f"# rep {len(reps)} traced={int(traced)} campaign_wall_s={reps[-1]['campaign']['wall_s']:.3f} "
            f"setup_wall_s={reps[-1]['setup']['wall_s']:.3f} kernel_ms={reps[-1]['campaign']['kernel_s'] * 1e3:.3f}",
            file=sys.stderr,
        )
    return reps


def verify(reps: list[dict], expect: dict) -> tuple[list[str], int, int, int]:
    """Correctness problems, and the trials attempted, failed (violated or
    lost to an exception) and not applicable over ``reps``."""
    problems = []
    attempted = failed = na = 0
    for i, rep in enumerate(reps):
        attempted += expect["trials"]
        if "error" in rep:
            failed += expect["trials"]
            problems.append(f"rep {i}: {rep['error']['type']}: {rep['error']['message']}")
            continue
        s = rep["summary"]
        failed += s["violations"]
        na += s["not_applicable"]
        if s["violations"]:
            problems.append(f"rep {i}: {s['violations']} violations")
        if (s["trials"], rep["cells"], rep["cells_expanded"]) != (expect["trials"], expect["cells"], expect["cells"]):
            problems.append(
                f"rep {i}: {s['trials']} trials in {rep['cells']} cells "
                f"({rep['cells_expanded']} expanded), expected {expect}"
            )
        if s["holds"] + s["violations"] + s["not_applicable"] != s["trials"]:
            problems.append(f"rep {i}: summary outcomes do not add up to its trials")
    digests = {rep.get("report_sha256") for rep in reps}
    if len(digests) != 1:
        problems.append(f"report sha256 differs across repetitions: {sorted(map(str, digests))}")
    counts = [json.dumps(rep["trace_counts"], sort_keys=True) for rep in reps if "trace_counts" in rep]
    if len(set(counts)) > 1:
        problems.append("trace counts differ across traced repetitions")
    return problems, attempted, failed, na


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over ``reps``: times in reference seconds, and the same in
    wall seconds under ``wall_*`` names."""
    ok = [r for r in reps if "error" not in r]

    def rate(clock: str) -> float:
        return median(r["summary"]["trials"] / r["campaign"][clock] for r in ok) if ok else 0.0

    return {
        "trials_per_s": rate("ref_s"),
        "setup_s": median(r["setup"]["ref_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "wall_trials_per_s": rate("wall_s"),
        "wall_setup_s": median(r["setup"]["wall_s"] for r in reps),
    }


def per_layer(reps: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Per-layer values: times are medians over the traced repetitions,
    counts come from the first (``verify`` requires them all equal)."""
    traced = [r["layers"] for r in reps if "layers" in r]
    plain = [r["campaign"]["ref_s"] for r in reps if not r["traced"] and "error" not in r]
    if not traced or not plain:
        return {}
    out = {}
    for name, value in traced[0].items():
        out[name] = median(t[name] for t in traced) if units[name] in ("s", "ms", "us") else value
    traced_s = median(r["campaign"]["ref_s"] for r in reps if "layers" in r)
    out["trace.overhead_frac"] = traced_s / median(plain) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "opbellman" / "__init__.py").is_file():
        print(f"error: no opbellman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    workloads = load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}", file=sys.stderr)
        return 2

    pattern = (False, True) if args.trace else (False,)
    try:
        reps = repeat(args.workload, args.seed, args.seconds, pattern)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems, attempted, failed, na = verify(reps, workloads[args.workload]["expect"])
    for problem in problems:
        print(f"# incorrect: {problem}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(wall_trials_per_s="1/s", wall_setup_s="s", na_frac="ratio", failed_frac="ratio")
    print("# env " + json.dumps(reps[0]["env"], sort_keys=True))
    if args.trace:
        values, wanted = per_layer(reps, units), bench["per_layer"]
    else:
        values, wanted = end_to_end(reps), bench["end_to_end"]
        values.update(applicable_frac=1.0 - na / attempted, pass_frac=1.0 - failed / attempted)
    shown = dict(values, na_frac=na / attempted, failed_frac=failed / attempted)
    print(
        f"# {args.workload} seed={args.seed} reps={len(reps)} sha256={reps[0].get('report_sha256')} "
        + ", ".join(f"{k}={v!r} {units[k]}" for k, v in shown.items())
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
        print(f"# incorrect: metrics not measured: {missing}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
