"""The README's Python example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_what_its_comments_say():
    # Each print line ends in a comment whose text, up to its first ", " or
    # ": ", must appear in the line that print writes.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    expected = [
        re.split(r", |: ", line.partition("# ")[2], maxsplit=1)[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, text in zip(printed, expected):
        assert text and text in line, (line, text)
