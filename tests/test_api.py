"""The Python API that the README documents, run as printed."""

import re
from pathlib import Path

import rrdps

README = Path(__file__).resolve().parent.parent / "README.md"


def _snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_snippet_runs(capsys):
    exec(compile(_snippet(), str(README), "exec"), {})
    optimised, by_hand, session = capsys.readouterr().out.splitlines()
    # The point assembled by hand is the optimiser's point.
    assert optimised.split()[1] == by_hand
    assert int(session.split()[0]) > 0


def test_exports_are_the_readme_api():
    imported = re.search(r"from rrdps import \((.*?)\)", _snippet(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert sorted(rrdps.__all__) == sorted(names | {"__version__"})
