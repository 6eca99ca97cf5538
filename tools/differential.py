"""Differential check of the command-line outputs of the working tree against a
git ref.

Run from anywhere; the working tree is the checkout this file is in:

    python3 tools/differential.py --against HEAD~1 --seeds 7,13,29

REF is extracted into a temporary directory by `bench_pairs.checkout`.  The same
seeded cases then run in one worker subprocess per tree: the worker imports
that tree's `carscid` and runs every case through `carscid.cli.main`
in-process, recording the exit code (or the exception a traceback would
show), the sha256 of stdout, stderr, every warning (category and text) under
`warnings.simplefilter("always")`, and the sha256 of the `--output` file.

The cases, per seed, are the four `bench/workloads.py` models with their
workload commands; `invariants` on the `delta-many` model (its `delta` is the
workload); `delta` and `invariants` on a copy that warns (mode 500's
`alpha34[0][1]` + 1e-9) and on a copy that fails (mode 700's shift a
string); `delta` on a copy that does both, in one batch; `invariants` on a
copy whose mode 3 warns in `alpha34` and is rejected in `a34`; `spectrum` on
the `spectrum-states` model with its first `m_imag` value x 1.5, which warns
at every grid point; and `verify --input --samples 1000` on the
`verify-oracle` model.

It prints a JSON summary, then the command line of each differing case, and
exits 1 on any difference.  `--json PATH` also writes the summary.  Standard
library only.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import checkout  # noqa: E402

#: The fields of a case's result, in the order a difference is reported.
FIELDS = ("exit_code", "stdout_sha256", "stderr", "warnings", "output_sha256")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_workloads():
    """The module `bench/workloads.py` of this checkout."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    # registered, since its dataclass looks its module up there
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def make_cases(seeds, directory: Path) -> dict:
    """{name: argv} of every case of `seeds`, their model files written into
    `directory`; "{output}" in an argv stands for the case's output file."""
    workloads = load_workloads()

    def write(label: str, model: dict) -> str:
        path = directory / f"{label}.json"
        path.write_text(json.dumps(model, sort_keys=True), encoding="utf-8")
        return str(path)

    cases = {}
    for seed in seeds:
        paths = {}
        for name in workloads.NAMES:
            workload = workloads.make(name, seed)
            paths[name] = write(f"{seed}-{name}", workload.model)
            cases[f"seed {seed}: {name}"] = workload.command(paths[name], "{output}")
        many = Path(paths["delta-many"]).read_text(encoding="utf-8")
        copies = {label: json.loads(many) for label in ("warns", "fails", "warns-fails",
                                                        "rejects")}
        for label in ("warns", "warns-fails"):
            copies[label]["modes"][500]["alpha34"][0][1] += 1e-9
        for label in ("fails", "warns-fails"):
            mode = copies[label]["modes"][700]
            mode["shift_cm1"] = str(mode["shift_cm1"])
        copies["rejects"]["modes"][3]["alpha34"][0][1] += 1e-9
        copies["rejects"]["modes"][3]["a34"][5] += 0.1  # [0][1][2], against [0][2][1]
        for label, model in copies.items():
            paths[label] = write(f"{seed}-delta-many-{label}", model)
        states = json.loads(Path(paths["spectrum-states"]).read_text(encoding="utf-8"))
        entry = states["moments"]["m_imag"][0]
        entry["value"] = [1.5 * value for value in entry["value"]]
        paths["states-warns"] = write(f"{seed}-spectrum-states-warns", states)
        for command, model in (("invariants", "delta-many"), ("delta", "warns"),
                               ("invariants", "warns"), ("delta", "fails"),
                               ("invariants", "fails"), ("delta", "warns-fails"),
                               ("invariants", "rejects"), ("spectrum", "states-warns")):
            cases[f"seed {seed}: {command} on {model}"] = [
                command, "--input", paths[model], "--output", "{output}"]
        cases[f"seed {seed}: verify --samples 1000"] = [
            "verify", "--input", paths["verify-oracle"], "--output", "{output}",
            "--samples", "1000"]
    return cases


def run_cases(cases: dict, output: Path) -> dict:
    """The result of each case through `carscid.cli.main` in this process, its
    output file at `output`."""
    from carscid.cli import main

    results = {}
    for name, argv in cases.items():
        output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([arg.replace("{output}", str(output)) for arg in argv])
                except Exception as exc:  # a traceback is an outcome to compare too
                    code = f"{type(exc).__name__}: {exc}"
        results[name] = {
            "exit_code": code, "stdout_sha256": _sha256(out.getvalue().encode()),
            "stderr": err.getvalue(),
            "warnings": [[w.category.__name__, str(w.message)] for w in caught],
            "output_sha256": _sha256(output.read_bytes()) if output.exists() else None}
    return results


def _worker(tree: Path, cases: Path, results: Path) -> None:
    """`run_cases` on the `carscid` of `tree`, the cases read from and the
    results written to JSON files."""
    sys.path.insert(0, str(tree / "src"))
    import carscid

    if not Path(carscid.__file__).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"carscid was imported from {carscid.__file__}, not from {tree}")
    found = run_cases(json.loads(cases.read_text(encoding="utf-8")), results.with_suffix(".out"))
    results.write_text(json.dumps(found), encoding="utf-8")


def differences(a: dict, b: dict) -> dict:
    """{case: [field, ...]} of the fields whose results differ between `a` and
    `b`, for each case that differs; a case missing from one side differs in
    every field."""
    found = {}
    for name in {**a, **b}:
        fields = [field for field in FIELDS
                  if name not in a or name not in b or a[name][field] != b[name][field]]
        if fields:
            found[name] = fields
    return found


def compare(tree_a: Path, tree_b: Path, seeds, directory: Path) -> tuple:
    """(cases, differences): every case of `seeds`, and the fields in which each
    case that differs between the two trees differs, from one worker
    subprocess per tree, the two run side by side; models, outputs and
    results go to `directory`."""
    cases = make_cases(seeds, directory)
    (directory / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
    paths = [directory / f"results-{label}.json" for label in "ab"]
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", str(tree),
                                 "--cases", str(directory / "cases.json"), "--results", str(path)])
               for tree, path in zip((tree_a, tree_b), paths)]
    codes = [worker.wait() for worker in workers]
    if any(codes):
        raise RuntimeError(f"the workers on {tree_a} and {tree_b} exited with {codes}")
    return cases, differences(*(json.loads(path.read_text(encoding="utf-8")) for path in paths))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git ref to compare the working tree with")
    parser.add_argument("--seeds", default="7,13,29", help="comma-separated benchmark seeds")
    parser.add_argument("--json", type=Path, help="also write the summary here")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--cases", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--results", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.cases, args.results)
        return 0
    if not args.against:
        parser.error("--against is required")
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="differential_") as tmp:
        tmp = Path(tmp)
        commit = checkout(ROOT, args.against, tmp / "against")
        cases, differing = compare(ROOT, tmp / "against", seeds, tmp)
    summary = {"against": args.against, "commit": commit, "seeds": seeds,
               "cases": len(cases), "differing": len(differing), "differences": differing}
    text = json.dumps(summary, indent=2)
    print(text)
    if args.json:
        args.json.write_text(text + "\n", encoding="utf-8")
    for name in differing:  # the model files by name: their directory is gone
        argv = [arg.replace(f"{tmp}/", "").replace("{output}", "out") for arg in cases[name]]
        print(f"{name}: carscid {shlex.join(argv)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
