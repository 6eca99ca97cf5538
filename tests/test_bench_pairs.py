"""`tools/bench_pairs.py` reads `bench/run.py` output and summarizes pairs; fed
canned result lines here, so no benchmark runs."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"setup_s": "lower", "wall_s": "lower", "items_per_s": "higher",
          "peak_rss_mb": "lower"}


def run_output(wall, raw_wall, kernel, rss=54.0, failed=0, traced=False):
    """What `bench/run.py` prints: `#` lines, then one JSON result line."""
    lines = ['# environment {"seed": 7}',
             f"# raw wall_s: median {raw_wall} s of 600 invocations; p99 0.06 s",
             "# raw items_per_s: 78.1",
             f"# error_rate: {failed}/601 invocations failed"]
    if traced:
        metrics = {"averaging.mc.self_s": {"value": wall, "unit": "s"},
                   "sos.build.calls": {"value": 0, "unit": "count"}}
    else:
        lines += ["# raw setup_s: median 0.14 s of 9 interpreter starts",
                  f"# host speed kernel: median {kernel} s, nominal 0.13 s; the metrics "
                  "below are scaled to the nominal speed"]
        metrics = {"setup_s": {"value": 0.14, "unit": "s"},
                   "wall_s": {"value": wall, "unit": "s"},
                   "items_per_s": {"value": 3 / wall, "unit": "1/s"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}
    lines.append(json.dumps({"correct": failed == 0, "attempted": 601, "failed": failed,
                             "metrics": metrics}))
    return "\n".join(lines) + "\n"


def pairs_of(parent_walls, change_walls, parent_kernel=0.13, change_kernel=0.13):
    return [{"parent": bench_pairs.parse_run(run_output(p, p * 1.1, parent_kernel)),
             "change": bench_pairs.parse_run(run_output(c, c * 1.1, change_kernel))}
            for p, c in zip(parent_walls, change_walls)]


def summary_line(lines, name):
    (line,) = [line for line in lines if line.startswith(name + ":")]
    return line


def test_a_run_is_read_from_its_result_and_hash_lines():
    run = bench_pairs.parse_run(run_output(0.0335, 0.041, 0.159))
    assert run["metrics"]["wall_s"] == 0.0335 and run["metrics"]["peak_rss_mb"] == 54.0
    assert (run["raw_wall_s"], run["raw_setup_s"], run["kernel_s"]) == (0.041, 0.14, 0.159)
    assert run["correct"] and run["failed"] == 0


def test_a_traced_run_has_no_kernel_or_setup_line():
    run = bench_pairs.parse_run(run_output(0.02, 0.05, None, traced=True))
    assert run["kernel_s"] is None and run["raw_setup_s"] is None
    assert run["raw_wall_s"] == 0.05 and run["metrics"]["averaging.mc.self_s"] == 0.02
    line = bench_pairs.run_line(0, "parent", run)
    assert "averaging.mc.self_s=0.02" in line and "sos.build.calls" not in line


def test_empty_output_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.parse_run("\n")


def test_the_summary_gives_medians_quartiles_and_pair_wins():
    pairs = pairs_of([0.044, 0.046, 0.045, 0.047, 0.043],
                     [0.034, 0.033, 0.048, 0.032, 0.035])
    lines = bench_pairs.summarize(pairs, BETTER)
    wall = summary_line(lines, "wall_s")
    assert wall.startswith("wall_s: parent 0.045 [0.044, 0.046]  change 0.034 [0.033, 0.035]")
    assert "-24.4%" in wall and "change better in 4/5 pairs" in wall
    assert "gap 0.011 vs parent IQR 0.002" in wall
    # items_per_s is better when higher: the same four pairs win
    assert "change better in 4/5 pairs" in summary_line(lines, "items_per_s")
    assert "change better in 0/5 pairs" in summary_line(lines, "peak_rss_mb")
    assert "change better in 4/5 pairs" in summary_line(lines, "raw_wall_s")
    assert not any(line.startswith("WARNING") for line in lines)


def test_a_kernel_gap_beyond_the_spread_warns():
    close = bench_pairs.summarize(pairs_of([0.045] * 3, [0.034] * 3, 0.13, 0.155), BETTER)
    assert not any(line.startswith("WARNING") for line in close)
    far = bench_pairs.summarize(pairs_of([0.045] * 3, [0.034] * 3, 0.13, 0.16), BETTER)
    assert any(line.startswith("WARNING: host-speed kernel medians differ") for line in far)


def test_failed_invocations_are_flagged():
    pairs = pairs_of([0.045], [0.034])
    pairs[0]["change"] = bench_pairs.parse_run(run_output(0.034, 0.04, 0.13, failed=2))
    lines = bench_pairs.summarize(pairs, BETTER)
    assert lines[-1] == "WARNING: 1 run(s) reported failed invocations"
    assert "FAILED 2/601" in bench_pairs.run_line(0, "change", pairs[0]["change"])


def test_the_two_checkouts_have_paths_of_equal_length():
    assert len({len(side) for side in bench_pairs.SIDES}) == 1
