"""README's "Library quick start" block runs and prints what its comments state.

Each ``print(...)  # value ...`` line whose comment opens with a Python
literal must print that literal, so the example cannot drift from the
fields it reads.
"""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    match = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S)
    assert match, "README has no Library quick start block"
    return match.group(1)


def test_quick_start_prints_what_it_states():
    code = _quick_start()
    stated = []
    for line in code.splitlines():
        if line.startswith("print(") and "#" in line:
            stated.append(ast.literal_eval(line.split("#", 1)[1].split()[0].rstrip(":")))
    assert len(stated) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [str(value) for value in stated]
