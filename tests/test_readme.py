"""The README's code runs as written."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs_and_labels_square_ladder_first():
    section = README.read_text().split("## Quick start (API)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, printed = {}, io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, str(README), "exec"), namespace)
    (line,) = printed.getvalue().splitlines()
    labels = ast.literal_eval(line)
    assert labels[0] == "square_ladder"
    assert labels == [label.value for label in namespace["report"].labels]
    assert namespace["v_mc"].matrix.shape == namespace["v_out"].matrix.shape
