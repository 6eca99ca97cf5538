"""`tools/differential.py`: its cases run in two workers on the working tree,
with no git, and give the same results; its comparison names what differs."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def test_the_working_tree_does_not_differ_from_itself(tmp_path):
    cases, differing = differential.compare(ROOT, ROOT, [7], tmp_path)
    assert len(cases) == 22 and differing == {}


def test_a_difference_names_its_case_and_fields():
    result = {"exit_code": 0, "stdout_sha256": "a", "stderr": "", "warnings": [],
              "output_sha256": None}
    a = {"same": result, "other": result, "only in a": result}
    b = {"same": result, "other": dict(result, stderr="error: x\n", warnings=[["W", "w"]])}
    assert differential.differences(a, b) == {
        "other": ["stderr", "warnings"], "only in a": list(differential.FIELDS)}
