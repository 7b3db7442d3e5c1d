"""The README's "Library use" example runs as written.

The fenced python block under the "## Library use" heading is the one
place a reader sees the public API used end to end, so a renamed or deleted
public name must fail here, not in a reader's session.
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return block


def test_readme_library_use_example_runs():
    namespace = {}
    exec(compile(library_use_block(), "README.md: Library use", "exec"),
         namespace)
    gap = namespace["gap"]
    assert gap.shape == namespace["layout"].centers.shape
    assert np.any(np.isfinite(gap))
