"""Smoke test: every demo script runs to completion against the package.

The demos are the documented entry points into the public names, so a name
removed from ``micromacro`` or an attribute dropped from a result type breaks
one of these runs instead of going unnoticed.  Each demo runs in its own
temporary directory, where it writes its CSV (and, with matplotlib, PNG)
files.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
