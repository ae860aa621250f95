"""The code blocks of README.md run as written."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_tour_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        tour = fh.read().split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
