"""One repetition of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--traced] [--spans PATH]

Runs the workload the way ``opbellman run`` does: config ->
``campaign.run_campaign`` -> ``campaign.report_to_json``, on one thread.
Prints one JSON object with the set-up and campaign times, the report's
summary and sha256, the peak RSS and the environment; with ``--traced`` it
also carries the per-layer metrics and the trace counts.  ``run.py`` starts
this script and pins BLAS to one thread in its environment.

A fresh process per repetition keeps every repetition cold: ``checks``
caches constant-oracle results for the life of the process, and a user
pays those evaluations on every ``opbellman run``.

The worker also times the host.  The speed of a shared core swings by +-25%
over seconds, which no number of repetitions averages away, so a
``SpeedProbe`` interleaves a fixed kernel with the work on the same thread
and each phase is also reported in reference seconds: its wall time, less
the probe's own time, scaled by ``REF_KERNEL_S`` over the kernel's mean
warm time in that phase.  Traced layer times are scaled the same way, and the
tracer leaves the probe's time out of every span.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


#: Probe period.  A reference second is the time ``speed_kernel`` takes to
#: run 1000 times with warm caches, so a phase's reference time is its work
#: over the kernel's mean time in that phase, times ``REF_KERNEL_S``.
PROBE_INTERVAL_S = 0.01
REF_KERNEL_S = 0.001


#: A miniature campaign report; serializing it is the probe's fixed work.
_PROBE_DOC = {
    "cells": [
        {"check": f"c{i}", "cell": {"dim": i % 6, "m": 0.5 + i, "map": "id"}, "slacks": [i * 0.1, i / 7.0]}
        for i in range(60)
    ]
}


def speed_kernel() -> int:
    """A fixed amount of interpreter work, 0.3-0.6 ms on a 2 GHz Xeon core.

    Serializing a dict mixes the dict, float and string work that dominates
    the program's interpreter time; among the kernels tried, its slowdown
    tracked the campaign's most closely (log-log slope 1.04).
    """
    return len(json.dumps(_PROBE_DOC, sort_keys=True))


class SpeedProbe:
    """Times ``speed_kernel`` from a SIGALRM handler every ``PROBE_INTERVAL_S``.

    The handler runs on the main thread between bytecodes, so each sample
    sees the same core, at the same moment, as the work it interrupts.
    """

    def __init__(self, on_sample=None):
        self.in_window_s = 0.0
        self.samples: list[float] = []
        self._on_sample = on_sample

    def _sample(self) -> float:
        """Time one warm kernel run; return the probe's whole time."""
        started = perf_counter()
        # The first run reloads the caches the work has just used, so the
        # timed run does not depend on the program's memory footprint.
        speed_kernel()
        warm = perf_counter()
        speed_kernel()
        end = perf_counter()
        self.samples.append(end - warm)
        return end - started

    def _tick(self, *_):
        elapsed = self._sample()
        self.in_window_s += elapsed
        if self._on_sample is not None:
            self._on_sample(elapsed)

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # at least one sample, before the timed window
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def phase(self, wall_s: float) -> dict:
        """Wall time, the work in it, and that work in reference seconds.

        Call it inside the ``with`` block, right after taking ``wall_s``.
        """
        work_s = wall_s - self.in_window_s
        kernel_s = sum(self.samples) / len(self.samples)
        return {
            "wall_s": wall_s,
            "work_s": work_s,
            "ref_s": work_s * REF_KERNEL_S / kernel_s,
            "kernel_s": kernel_s,
            "probe_samples": len(self.samples),
        }


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import mpmath
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(workload: str, seed: int, traced: bool, spans_path: str | None) -> dict:
    spec = load_workloads()[workload]
    sys.path.insert(0, str(SRC))

    # Set-up: import, config build and validate(), cell expansion.
    with SpeedProbe() as probe:
        started = perf_counter()
        import opbellman
        from opbellman import campaign

        cfg = campaign.config_from_json(dict(spec["config"], seed=seed))
        cfg.validate()
        cells = sum(len(campaign.expand_cells(check_id, cfg)) for check_id in cfg.checks)
        setup = probe.phase(perf_counter() - started)

    if Path(opbellman.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported opbellman from {opbellman.__file__}, not from {SRC}")

    out = {"workload": workload, "seed": seed, "traced": traced, "setup": setup, "cells_expanded": cells}
    report = text = tracer = None
    run_campaign = campaign.run_campaign
    if traced:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer().install()
        run_campaign = tracer.wrap(ROOT_SPAN, run_campaign)
    try:
        with SpeedProbe(None if tracer is None else tracer.pause) as probe:
            started = perf_counter()
            try:
                report = run_campaign(cfg)
                text = campaign.report_to_json(report)
            except Exception as exc:  # a lost campaign is a measured outcome, not a crash
                report = None
                out["error"] = {"type": type(exc).__name__, "message": str(exc), "traceback": traceback.format_exc()}
            wall_s = perf_counter() - started
            out["campaign"] = probe.phase(wall_s)
    finally:
        if tracer is not None:
            tracer.restore()

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if report is not None:
        data = text.encode("utf-8")
        out["summary"] = report["summary"]
        out["cells"] = len(report["cells"])
        out["report_sha256"] = hashlib.sha256(data).hexdigest()
        out["report_bytes"] = len(data)
        if tracer is not None:
            time_scale = REF_KERNEL_S / out["campaign"]["kernel_s"]
            out["layers"] = tracer.layer_metrics(len(data), len(report["cells"]), time_scale)
            out["trace_counts"] = tracer.counts()
            if spans_path:
                tracer.write_spans(spans_path)
    out["env"] = environment()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here, one JSON object a line")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.traced, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
