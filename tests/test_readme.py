"""The model-file examples of README.md parse, and `delta` runs on them cleanly."""
import re
import warnings
from pathlib import Path

import pytest

from carscid.cli import main
from carscid.model_io import parse_model

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_the_readme_has_both_model_forms():
    assert sorted("levels" in text for text in EXAMPLES) == [False, True]


@pytest.mark.parametrize("text", EXAMPLES, ids=[f"example-{j}" for j in range(len(EXAMPLES))])
def test_a_readme_model_example_runs_delta_without_warning(text, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_model(text)
        code = main(["delta", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out and not captured.err
