"""The Python examples of README.md run and print what their comments say."""

import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks() -> list[str]:
    """The ```python blocks of README.md in order, dedented (the second one
    sits inside a list item)."""
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```", README.read_text(), re.M | re.S)
    return [textwrap.dedent(code) for _, code in blocks]


def test_readme_examples_print_their_commented_values():
    blocks = _python_blocks()
    assert len(blocks) == 2  # the quick start, then the EigenSystem continuation
    printed = []
    namespace = {"print": lambda *args: printed.append(args)}
    expected = []
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)  # one namespace: a continuation
        for line in code.splitlines():
            if line.startswith("print("):
                expected.append(re.split(r"[,\s]+", line.split("#", 1)[1].strip()))
    assert len(printed) == len(expected) == 7
    for args, want in zip(printed, expected):
        assert len(args) == len(want), (args, want)
        for got, text in zip(args, want):
            if text.startswith("~"):  # rounding level, e.g. ~1e-15
                assert abs(got) < 1e-13, (got, text)
            else:
                assert abs(got - float(text)) <= 5e-5, (got, text)
