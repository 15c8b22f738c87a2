"""In-memory span tracer wrapped around opbellman's layer entry points.

The tracer never edits the package: while installed it swaps module
attributes, class methods and registry entries for timing wrappers, and it
puts the originals back on exit.  Each wrapper records a span (id, parent,
owning trial, name, start, end).  A layer's self time is its span minus the
time of the spans and ``numpy.linalg`` calls inside it.

Time the worker's speed probe spends inside a span (``pause``) counts as a
child of the innermost open span and is left out of span durations, so the
probe changes no layer's time.

``numpy.linalg`` calls are counted and timed by kind rather than kept as
spans, since a campaign makes ~10^5 of them.  ``checks`` and ``instances``
call ``numpy.linalg`` directly as well as through ``spectral``, so the count
is taken at the ``numpy.linalg`` boundary.  ``norm(x, 2)`` is an SVD and is
counted as ``svd``; any other norm is counted as ``norm``.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from time import perf_counter

import numpy as np

LINALG_KINDS = ("eigvalsh", "eigh", "svd", "qr", "norm")

ROOT_SPAN = "campaign.run_campaign"
TRIAL_SPAN = "campaign.run_check_trial"
BUILD_SPAN = "instances.build"
CHECK_SPAN = "checks.check"
MEAN_SPAN = "means.mean"
APPLY_SPAN = "positive_maps.apply"
CONSTRUCT_SPAN = "positive_maps.construct"
ORACLE_SPAN = "constants.oracle"
REPORT_SPAN = "campaign.report_to_json"


def _linalg_kind(name: str, args, kwargs) -> str:
    if name == "norm":
        order = args[1] if len(args) > 1 else kwargs.get("ord")
        return "svd" if order == 2 else "norm"
    return name


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    """Records spans and ``numpy.linalg`` counts; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, trial, name, start, busy_s, self_s, linalg_calls)
        self.linalg_counts: Counter = Counter()
        self.linalg_calls = 0
        self.linalg_s = 0.0
        self.builds = 0
        self.rejected = 0
        self.family_attempts: list[int] = []
        self.checks = 0
        self.applicable = 0
        self.paused_s = 0.0
        self._stack: list[list] = []  # open frames: [child_s, linalg_at_enter, start, id, paused_at_enter]
        self._next_id = 0
        self._trial = None
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as a span called ``name``; ``observe`` sees each result."""
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            outer_trial = self._trial
            if name == TRIAL_SPAN:
                self._trial = span_id
            frame = [0.0, self.linalg_calls, perf_counter(), span_id, self.paused_s]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[2]
                stack.pop()
                if parent is not None:
                    parent[0] += duration
                self.spans.append(
                    (
                        span_id,
                        None if parent is None else parent[3],
                        self._trial,
                        name,
                        frame[2],
                        duration - (self.paused_s - frame[4]),
                        duration - frame[0],
                        self.linalg_calls - frame[1],
                    )
                )
                self._trial = outer_trial
            if observe is not None:
                observe(result)
            return result

        return traced

    def _counted(self, name: str, fn):
        stack = self._stack

        def counted(*args, **kwargs):
            start = perf_counter()
            paused = self.paused_s
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start - (self.paused_s - paused)
                self.linalg_counts[_linalg_kind(name, args, kwargs)] += 1
                self.linalg_calls += 1
                self.linalg_s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return counted

    def pause(self, elapsed: float) -> None:
        """Account ``elapsed`` seconds spent outside the program (the probe)."""
        self.paused_s += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed

    def _observe_build(self, result) -> None:
        inst = result[0]
        self.builds += 1
        if inst is None:
            self.rejected += 1
            return
        attempts = getattr(inst, "meta", {}).get("attempts")
        if attempts is not None:
            self.family_attempts.append(attempts)

    def _observe_check(self, outcome) -> None:
        self.checks += 1
        if outcome.status != self._not_applicable:
            self.applicable += 1

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every traced entry point; ``restore`` undoes it."""
        from opbellman import campaign, checks, constants, instances, positive_maps

        self._not_applicable = checks.NOT_APPLICABLE
        for kind in LINALG_KINDS:
            self._patch(np.linalg, kind, self._counted(kind, getattr(np.linalg, kind)))
        self._patch(campaign, "run_check_trial", self.wrap(TRIAL_SPAN, campaign.run_check_trial))
        for check_id, builder in list(campaign.BUILDERS.items()):
            self._patch(campaign.BUILDERS, check_id, self.wrap(BUILD_SPAN, builder, self._observe_build))
        self._patch(checks, "check", self.wrap(CHECK_SPAN, checks.check, self._observe_check))
        self._patch(campaign, "build_map", self.wrap(CONSTRUCT_SPAN, campaign.build_map))
        for module in (checks, instances):
            self._patch(module, "mean", self.wrap(MEAN_SPAN, module.mean))
        for _, cls in inspect.getmembers(positive_maps, inspect.isclass):
            if cls.__module__ == positive_maps.__name__ and "apply" in cls.__dict__:
                self._patch(cls, "apply", self.wrap(APPLY_SPAN, cls.__dict__["apply"]))
        for fn in ("gamma", "beta"):
            self._patch(constants, fn, self.wrap(ORACLE_SPAN, getattr(constants, fn)))
        self._patch(campaign, "report_to_json", self.wrap(REPORT_SPAN, campaign.report_to_json))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, report_bytes: int, cells: int, time_scale: float = 1.0) -> dict[str, float]:
        """Per-layer metric values of the campaign traced so far.

        Times are self times, except the trial percentiles and
        ``campaign.report_s``, which are whole spans; all are multiplied by
        ``time_scale`` (reference over wall seconds).
        """
        count: Counter = Counter()
        self_s: Counter = Counter()
        linalg_in: Counter = Counter()
        trial_ms = []
        report_s = 0.0
        for _, _, _, name, _, busy, own, linalg in self.spans:
            count[name] += 1
            self_s[name] += own * time_scale
            linalg_in[name] += linalg
            if name == TRIAL_SPAN:
                trial_ms.append(busy * time_scale * 1e3)
            elif name == REPORT_SPAN:
                report_s += busy * time_scale
        trial_ms.sort()
        trials = count[TRIAL_SPAN]
        per_trial = 1.0 / trials if trials else 0.0
        linalg_s = self.linalg_s * time_scale
        lc = self.linalg_counts
        return {
            "spectral.eigvalsh_per_trial": lc["eigvalsh"] * per_trial,
            "spectral.eigh_per_trial": lc["eigh"] * per_trial,
            "spectral.svd_per_trial": lc["svd"] * per_trial,
            "spectral.qr_per_trial": lc["qr"] * per_trial,
            "spectral.linalg_s": linalg_s,
            "spectral.linalg_us_per_call": linalg_s * 1e6 / self.linalg_calls if self.linalg_calls else 0.0,
            "instances.build_s": self_s[BUILD_SPAN],
            "instances.linalg_per_build": linalg_in[BUILD_SPAN] / self.builds if self.builds else 0.0,
            "instances.attempts_per_family": (
                sum(self.family_attempts) / len(self.family_attempts) if self.family_attempts else 0.0
            ),
            "instances.rejected_frac": self.rejected / self.builds if self.builds else 0.0,
            "checks.self_s": self_s[CHECK_SPAN],
            "checks.linalg_per_check": linalg_in[CHECK_SPAN] / self.checks if self.checks else 0.0,
            "checks.applicable_frac": self.applicable / self.checks if self.checks else 0.0,
            "means.mean_per_trial": count[MEAN_SPAN] * per_trial,
            "means.mean_s": self_s[MEAN_SPAN],
            "positive_maps.apply_per_trial": count[APPLY_SPAN] * per_trial,
            "positive_maps.apply_s": self_s[APPLY_SPAN],
            "positive_maps.construct_s": self_s[CONSTRUCT_SPAN],
            "constants.oracle_calls": count[ORACLE_SPAN],
            "constants.oracle_s": self_s[ORACLE_SPAN],
            "campaign.trials": trials,
            "campaign.cells": cells,
            "campaign.trial_ms_p50": _percentile(trial_ms, 50),
            "campaign.trial_ms_p99": _percentile(trial_ms, 99),
            "campaign.self_s": self_s[ROOT_SPAN] + self_s[TRIAL_SPAN],
            "campaign.report_s": report_s,
            "campaign.report_bytes": report_bytes,
        }

    def counts(self) -> dict[str, int]:
        """The machine-independent part of the trace, which a seed fixes."""
        names = Counter(span[3] for span in self.spans)
        return {
            **{f"linalg.{k}": self.linalg_counts[k] for k in LINALG_KINDS},
            **{f"spans.{k}": v for k, v in sorted(names.items())},
            "builds": self.builds,
            "rejected": self.rejected,
            "family_attempts": sum(self.family_attempts),
            "applicable": self.applicable,
        }

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans closed."""
        keys = ("id", "parent", "trial", "name", "start", "busy_s", "self_s", "linalg_calls")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
