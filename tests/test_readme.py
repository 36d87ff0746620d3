"""The README's quick example runs as written and its results hold."""
import re
from pathlib import Path

import numpy as np

from obtusewalk import PredictableProcess, integrate_predictable

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    walk, f, mean, xi = scope["walk"], scope["f"], scope["mean"], scope["xi"]
    assert isinstance(xi, PredictableProcess)
    rebuilt = mean + integrate_predictable(walk, xi).values
    assert np.max(np.abs(rebuilt - f.values)) < 1e-12
    assert abs(scope["coeffs"].mean - mean) < 1e-15
    assert scope["var"] <= scope["bound"] + 1e-12
