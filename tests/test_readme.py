"""The README's in-process example runs as written, so a renamed entry
point cannot leave it stale."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert 0 < namespace["rel_error"] < 1e-2
    assert math.isfinite(namespace["eta"]) and namespace["eta"] > 0
