"""Alternating benchmark pairs of two commits, summarized per side.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload verify-oracle --seed 7 --pairs 10

Each ref is extracted with `git archive` into its own sibling directory,
`parent` and `change`, whose paths have the same length (the host-speed
kernel of `bench/run.py` has read differently in checkouts whose paths
differ in length).  Both trees get their bytecode compiled first, with
`PYTHONDONTWRITEBYTECODE` unset, so no run pays for compiling.  Then
`bench/run.py` runs once per side and pair, the parent first in even pairs
and the change first in odd ones.

Per run it prints the scaled metrics of the result line, the raw `wall_s`
and the median of the host-speed kernel; per side, the median and quartiles
of every metric, and for the change the pairs it wins and its median change.
It warns when the two sides' kernel medians differ by more than
`KERNEL_SPREAD`, since the scaled times then lean on the kernel; compare the
raw `wall_s` in that case.  `--json PATH` also writes every run and the
summary.  Standard library only.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")  # also the checkout names: equal lengths

#: Largest relative difference of the two sides' kernel medians before a warning.
KERNEL_SPREAD = 0.20

_RAW_WALL = re.compile(r"^# raw wall_s: median ([0-9.eE+-]+) s")
_RAW_SETUP = re.compile(r"^# raw setup_s: median ([0-9.eE+-]+) s")
_KERNEL = re.compile(r"^# host speed kernel: median ([0-9.eE+-]+) s")


def parse_run(text: str) -> dict:
    """The result of one `bench/run.py` output: its metrics, correctness and
    the raw numbers of its `#` lines (None where a line is absent, as the
    kernel and setup lines are in a traced run)."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("bench/run.py printed nothing")
    result = json.loads(lines[-1])
    raw = {"raw_wall_s": None, "raw_setup_s": None, "kernel_s": None}
    for line in lines[:-1]:
        for key, pattern in (("raw_wall_s", _RAW_WALL), ("raw_setup_s", _RAW_SETUP),
                             ("kernel_s", _KERNEL)):
            match = pattern.match(line)
            if match:
                raw[key] = float(match.group(1))
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], **raw, "line": lines[-1]}


def _quartiles(values: list) -> tuple:
    """(q1, median, q3) of `values`, inclusive quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_line(pair: int, side: str, run: dict) -> str:
    """One printed line per run."""
    metrics = " ".join(f"{name}={value:.6g}" for name, value in run["metrics"].items()
                       if value)
    raw = "" if run["raw_wall_s"] is None else f" | raw wall_s {run['raw_wall_s']:.6g}"
    kernel = "" if run["kernel_s"] is None else f" kernel {run['kernel_s']:.6g}"
    flag = "" if run["correct"] else f" | FAILED {run['failed']}/{run['attempted']}"
    return f"pair {pair} {side}: {metrics}{raw}{kernel}{flag}"


def summarize(pairs: list, better: dict) -> list:
    """Summary lines for `pairs`, a list of {"parent": run, "change": run};
    `better` maps a metric name to "lower" or "higher" (default "lower").
    A metric that is 0 in every run is left out."""
    lines = []
    names = list(pairs[0]["parent"]["metrics"])
    for name in names + ["raw_wall_s", "kernel_s"]:
        sides = {side: [p[side]["metrics"].get(name, p[side].get(name)) for p in pairs]
                 for side in SIDES}
        flat = [v for values in sides.values() for v in values]
        if None in flat or not any(flat):  # absent, or a layer neither side ran
            continue
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: _quartiles(values) for side, values in sides.items()}
        (pq1, pmed, pq3), (cq1, cmed, cq3) = stats["parent"], stats["change"]
        change = f"{(cmed - pmed) / pmed * 100:+.1f}%" if pmed else "n/a"
        lines.append(f"{name}: parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  "
                     f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]  {change}  "
                     f"change better in {wins}/{len(pairs)} pairs  "
                     f"gap {abs(cmed - pmed):.3g} vs parent IQR {pq3 - pq1:.3g}")
    kernels = {side: [p[side]["kernel_s"] for p in pairs] for side in SIDES}
    if all(v is not None for values in kernels.values() for v in values):
        k_parent, k_change = (statistics.median(kernels[side]) for side in SIDES)
        if abs(k_change - k_parent) > KERNEL_SPREAD * min(k_parent, k_change):
            lines.append(f"WARNING: host-speed kernel medians differ by more than "
                         f"{KERNEL_SPREAD:.0%} (parent {k_parent:.6g} s, change "
                         f"{k_change:.6g} s): compare the raw wall_s")
    failed = sum(not p[side]["correct"] for p in pairs for side in SIDES)
    if failed:
        lines.append(f"WARNING: {failed} run(s) reported failed invocations")
    return lines


def _git(root: Path, *args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, **kwargs)


def checkout(root: Path, ref: str, target: Path) -> None:
    """`ref` of the repository at `root`, extracted into `target`, bytecode
    compiled."""
    archive = _git(root, "archive", "--format=tar", ref).stdout
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=target, env=env, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--change", required=True, help="git ref of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path,
                        help="empty or missing directory for the two checkouts "
                             "(default: a new temporary directory)")
    parser.add_argument("--json", type=Path, help="also write runs and summary here")
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel", text=True).stdout.strip())
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {}
    for side, ref in (("parent", args.parent), ("change", args.change)):
        commit = _git(root, "rev-parse", "--verify", f"{ref}^{{commit}}",
                      text=True).stdout.strip()
        trees[side] = workdir.resolve() / side
        checkout(root, commit, trees[side])
        print(f"# {side}: {ref} ({commit[:12]}) in {trees[side]}", flush=True)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)

    pairs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        runs = {}
        for side in order:
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=trees[side], env=env, check=True, capture_output=True, text=True).stdout
            runs[side] = parse_run(out)
            print(run_line(pair, side, runs[side]), flush=True)
        pairs.append({**runs, "first": order[0]})

    summary = summarize(pairs, better)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"--seconds {args.seconds:g} --trace {args.trace}")
    for line in summary:
        print(line)
    if args.json:
        args.json.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                         "pairs": pairs, "summary": summary},
                                        indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
