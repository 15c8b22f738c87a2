"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --seeds 101-110 [--workloads a,b] \
        [--label TEXT --commit SHA --append perfbench/results.json]

For every workload: one ``run.py --trace 0`` per seed, then one
``--trace 1`` on the first seed.  Prints, per end-to-end metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to a third of the metric's bound.  With
``--append``, adds the summary as a new entry of that results file.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result on {workload} seed {seed}:\n{proc.stderr}")
    return {"result": result, "env": env}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="a range lo-hi or a comma list")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--label", default="")
    parser.add_argument("--commit", default="")
    parser.add_argument("--append", help="results file to add this summary to")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    entry = {
        "label": args.label,
        "commit": args.commit,
        "cpu": cpu_model(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        entry["env"] = runs[0]["env"]
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            mid = median(values)
            q1, _, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            e2e[metric["name"]] = {
                "unit": metric["unit"], "median": mid, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            print(
                f"{workload:18s} {metric['name']:16s} median={mid:.6g} {metric['unit']:6s} "
                f"spread={spread:.4f} (third of bound {metric['bound'] / 3:.4f}) "
                f"values={' '.join(f'{v:.5g}' for v in values)}",
                flush=True,
            )
        traced = run(workload, seeds[0], args.seconds, 1)["result"]["metrics"]
        for name, m in traced.items():
            print(f"{workload:18s} {name:32s} {m['value']:.6g} {m['unit']}", flush=True)
        entry["workloads"][workload] = {"end_to_end": e2e, "per_layer_seed": seeds[0], "per_layer": traced}

    if args.append:
        path = Path(args.append)
        entries = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        entries.append(entry)
        path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
