"""The README's Library quick tour runs, and prints what its comments say."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _expected(comment: str, value):
    """The value a `# ...` comment names: a number, or "identity / 2"."""
    if comment.startswith("identity / "):
        return np.eye(len(value)) / float(comment.split("/")[1].split()[0])
    return float(re.match(r"-?\d+(\.\d+)?", comment).group())


def test_library_quick_tour_prints_its_commented_values():
    code = _tour()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    printed = []
    exec(compile(code, str(README), "exec"), {"print": printed.append})
    assert len(printed) == len(comments) == 5
    for value, comment in zip(printed, comments):
        if re.match(r"-?\d+\.\d+\.\.\.", comment):  # a truncated value: its digits as shown
            assert repr(float(value)).startswith(comment.split("...")[0]), comment
        else:
            assert np.abs(np.asarray(value) - _expected(comment, value)).max() <= 1e-12, comment
