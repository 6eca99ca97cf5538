"""`tools/warning_share.py`: the benchmark's level model warns at no point of a
short grid as built, and at every point once its closure relations break."""
import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("warning_share",
                                               ROOT / "tools" / "warning_share.py")
warning_share = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(warning_share)


def test_a_level_model_warns_at_every_point_once_its_closure_breaks():
    model = warning_share.load_workloads().make("spectrum-states", 7).model
    model["scan"]["step_cm1"] = 100.0 * model["scan"]["step_cm1"]  # 9 of the 801 points
    assert warning_share.warned_points(model) == (0, 9)
    assert warning_share.warned_points(warning_share.written(model, 8)) == (0, 9)
    assert warning_share.warned_points(warning_share.written(model, 7)) == (9, 9)
    assert warning_share.warned_points(
        warning_share.untied(model, np.random.default_rng(7))) == (9, 9)
