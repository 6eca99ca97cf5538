"""Measuring process of the benchmark: runs one workload through
`carscid.cli.main` in-process, times every invocation, and checks every
output against the reference.

Started by `run.py` with BLAS and OpenMP pinned to one thread; it reads the
plan that `run.py` wrote and writes its result as JSON.  Invocations run in a
closed loop, one after the other, until the next one would end past the time
budget.  A warm-up invocation runs first and is checked but not timed, so
lazy imports inside the CLI are not charged to the first sample (`setup_s`
covers start-up).  Each timed invocation is followed by a run of the host
speed kernel (`hostspeed.py`), and its time is also recorded scaled to the
nominal host speed.

With `--trace 1`, untraced and traced invocations alternate.  The traced ones
record spans (see `tracing.py`); the per-layer numbers are those of the traced
invocation with the median wall time, and `trace.overhead_s` is the median
traced wall time minus the median untraced one.

Usage: worker.py PLAN RESULT --seconds S --trace 0|1
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import statistics
import sys
import traceback
import warnings
from time import perf_counter

import numpy as np

import carscid.cli

from hostspeed import Scaler
from reference import check
from tracing import Tracer

#: At least this many timed invocations, whatever the time budget.
MIN_SAMPLES = 3


class Workload:
    """One planned workload and the results of its invocations so far."""

    def __init__(self, plan: dict):
        self.name = plan["workload"]
        self.argv = plan["argv"]
        self.output = plan["output"]
        self.reference = plan["reference"]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.output_bytes = 0

    def invoke(self, main) -> float:
        """Run one CLI invocation through `main`, check it, return its wall time."""
        if os.path.exists(self.output):
            os.remove(self.output)
        gc.collect()
        stdout = io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = perf_counter()
            try:
                code = main(self.argv)
            except Exception:
                error = traceback.format_exc()
            wall = perf_counter() - start
        self.attempted += 1
        if error is None:
            try:
                with open(self.output, encoding="utf-8") as handle:
                    text = handle.read()
                problems = check(self.name, self.reference, code, text)
            except (OSError, ValueError, LookupError, TypeError):
                problems = ["unreadable output: " + traceback.format_exc()]
            else:
                self.output_bytes = len(stdout.getvalue().encode()) + len(text.encode())
        else:
            problems = [error]
        problems += [f"warning: {w.message}" for w in caught]
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return wall


def _keep_going(steps: list, started: float, seconds: float) -> bool:
    """True while fewer than MIN_SAMPLES steps ran or another typical step
    (invocation, check and, untraced, host speed kernel) still fits in the
    budget."""
    if len(steps) < MIN_SAMPLES:
        return True
    return perf_counter() - started + statistics.median(steps) <= seconds


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.  Unlike `ru_maxrss`,
    VmHWM starts afresh at exec, so the runner's memory at fork is not
    counted."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload: Workload, seconds: float) -> dict:
    main = carscid.cli.main
    workload.invoke(main)
    # what one CLI process needs; taken before the host speed kernel allocates
    peak_rss_mb = _peak_rss_mb()
    walls: list = []
    scaled: list = []
    scaler = Scaler()
    started = perf_counter()
    steps: list = []
    while _keep_going(steps, started, seconds):
        step = perf_counter()
        walls.append(workload.invoke(main))
        scaled.append(scaler.scale(walls[-1]))
        steps.append(perf_counter() - step)
    return {"walls": walls, "scaled_walls": scaled, "kernels": scaler.kernels,
            "peak_rss_mb": peak_rss_mb}


def measure_traced(workload: Workload, seconds: float, spans_path: str) -> dict:
    main = carscid.cli.main
    tracer = Tracer()
    workload.invoke(main)
    untraced: list = []
    traced: list = []
    pairs: list = []
    started = perf_counter()
    while _keep_going(pairs, started, seconds):
        untraced.append(workload.invoke(main))
        tracer.reset()
        tracer.install()
        try:
            wall = workload.invoke(tracer.wrap("cli.command", main))
        finally:
            tracer.uninstall()
        counts = {k: v for k, v in tracer.layer_metrics().items()
                  if not k.endswith("_s")}
        traced.append((wall, counts, tracer.spans))
        pairs.append(untraced[-1] + wall)
    if any(other != traced[0][1] for _, other, _ in traced):
        raise RuntimeError("per-layer counts differ between traced invocations")
    # the counters are those of the last traced invocation, equal to all others
    _, _, spans = sorted(traced, key=lambda t: t[0])[len(traced) // 2]
    tracer.spans = spans
    tracer.write_spans(spans_path)
    layers = tracer.layer_metrics()
    _, _, start, end, _ = spans[0]
    wall = end - start
    layers["cli.output_bytes"] = workload.output_bytes
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = (statistics.median(t[0] for t in traced)
                                  - statistics.median(untraced))
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if abs(self_total - wall) > 1e-9 * wall:
        raise RuntimeError(f"self times add up to {self_total!r}, not {wall!r}")
    return {"walls": untraced, "layers": layers, "missing_targets": tracer.missing}


def _blas() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    workload = Workload(plan)
    if args.trace:
        result = measure_traced(workload, args.seconds, plan["spans"])
    else:
        result = measure(workload, args.seconds)
    result.update({
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": workload.problems[:20],
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(),
            "carscid": os.path.dirname(carscid.cli.__file__),
        },
    })
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
