"""The carscid benchmark: one seeded CLI workload, timed and checked.

Run from the repository root:

    python3 bench/run.py --workload spectrum-tensor --seed 1 --seconds 25 --trace 0

Workloads: verify-oracle, spectrum-tensor, spectrum-states, delta-many (see
`workloads.py` and README.md).  The run

1. times `SETUP_REPEATS` fresh interpreters up to the end of `import carscid`
   (trace 0 only) and reports the median as `setup_s`;
2. generates the workload's model file from the seed and computes its
   reference output (`reference.py`);
3. starts one measuring process (`worker.py`) that runs the workload through
   `carscid.cli.main` for the time budget and checks every output.

Every timed operation (interpreter start or CLI invocation) is followed by a
run of the host speed kernel, and the reported times are scaled to the
kernel's nominal speed (`hostspeed.py`), because the speed of a shared host
drifts by up to a factor of two.  The raw medians, the sample count and the
tail percentile are printed on `#` lines.

Every process runs with BLAS and OpenMP pinned to one thread, one at a time,
on one CPU, and imports `carscid` from `src/` of this checkout.  Summary lines
starting with `#` come first; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters timed per run for `setup_s`; the median is reported.
SETUP_REPEATS = 9

#: A measuring process that has not finished this long after its time budget
#: is stopped and the run fails.
WORKER_GRACE_S = 150

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_SETUP_PROBE = "import time; import carscid; print(time.monotonic())"


def _environment() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(cmd: list, env: dict, timeout: float) -> str:
    """Run `cmd` to completion and return its stdout; stop it on timeout."""
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode}")
    return out


def setup_seconds(env: dict) -> tuple:
    """Wall times from starting an interpreter to the end of `import carscid`,
    raw and scaled to the nominal host speed.

    The probe prints CLOCK_MONOTONIC after the import; on Linux that clock is
    shared by all processes, so the difference to the launch time is the
    start-up cost a CLI user pays."""
    from hostspeed import Scaler

    times, scaled = [], []
    scaler = Scaler()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        out = _run([sys.executable, "-c", _SETUP_PROBE], env, 60)
        times.append(float(out.strip()) - start)
        scaled.append(scaler.scale(times[-1]))
    return times, scaled


def _tail(values: list):
    """The highest of the p99.9/p99/p90/p50 percentiles with at least ten
    samples beyond it, as (label, value), or None when there are too few."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        beyond = int(len(ordered) * (1 - p / 100))
        if beyond >= 10:
            return f"p{p:g}", ordered[len(ordered) - beyond - 1]
    return None


def _prepare(name: str, seed: int) -> dict:
    """Write the model file and the reference; return the worker's plan."""
    import reference
    import workloads

    workload = workloads.make(name, seed)
    model = WORK / f"{name}.model.json"
    model.write_text(workload.model_text(), encoding="utf-8")
    output = WORK / f"{name}.out{workload.output_suffix}"
    expected = reference.expected(workload)
    if name == "verify-oracle":
        problems = reference.documented_findings(expected)
        if problems:
            raise RuntimeError("reference departs from the documented findings: "
                               + "; ".join(problems))
    return {"workload": name, "argv": workload.command(str(model), str(output)),
            "output": str(output), "items": workload.items,
            "reference": expected, "spans": str(WORK / f"{name}.spans.jsonl")}


def main() -> int:
    os.environ.update({name: "1" for name in PINNED_THREADS})
    # One CPU for the runner and every child: the host speed kernel must run
    # on the CPU whose speed it stands for.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    import workloads
    from hostspeed import NOMINAL_S

    parser = argparse.ArgumentParser(description="carscid benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "carscid" / "__init__.py").is_file():
        print(f"error: no carscid sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = _environment()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    setup, setup_scaled = ([], []) if args.trace else setup_seconds(env)
    plan = _prepare(args.workload, args.seed)
    plan_path = WORK / f"{args.workload}.plan.json"
    result_path = WORK / f"{args.workload}.result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    if result_path.exists():
        result_path.unlink()
    _run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path),
          "--seconds", str(args.seconds), "--trace", str(args.trace)],
         env, args.seconds + WORKER_GRACE_S)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    walls = result["walls"]
    wall = statistics.median(walls)
    info = dict(result["environment"], workload=args.workload, seed=args.seed,
                trace=args.trace, nproc=len(cpus), cpu=max(cpus),
                blas_threads=1, items_per_invocation=plan["items"],
                item=workloads.ITEM_UNITS[args.workload])
    print("# environment " + json.dumps(info, sort_keys=True))
    tail = _tail(walls)
    print(f"# raw wall_s: median {wall:.6g} s of {len(walls)} invocations; "
          + (f"{tail[0]} {tail[1]:.6g} s" if tail else "no percentile has 10 samples beyond it"))
    print(f"# raw items_per_s: {plan['items'] / wall:.6g}")
    print(f"# error_rate: {result['failed']}/{result['attempted']} invocations failed")
    for problem in result["problems"]:
        print("# problem: " + problem.replace("\n", " | "))

    if args.trace:
        if result["missing_targets"]:
            print("# trace targets not found: " + ", ".join(result["missing_targets"]))
        measured = result["layers"]
        wanted = spec["per_layer"]
    else:
        print(f"# raw setup_s: median {statistics.median(setup):.6g} s of {len(setup)} "
              "interpreter starts")
        print(f"# host speed kernel: median {statistics.median(result['kernels']):.6g} s, "
              f"nominal {NOMINAL_S} s; the metrics below are scaled to the nominal speed")
        scaled_wall = statistics.median(result["scaled_walls"])
        measured = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": scaled_wall,
            "items_per_s": plan["items"] / scaled_wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        default = 1.0 if name.endswith(".unique_ratio") else 0
        metrics[name] = {"value": measured.get(name, default), "unit": metric["unit"]}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
