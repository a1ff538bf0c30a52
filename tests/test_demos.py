"""Every narrative script in ``demos/`` runs to completion.

The demos call the public API the way the README shows, so a renamed or
broken function fails here.  Each script runs in-process with ``src`` on
the import path, as ``PYTHONPATH=src python3 demos/<script>.py`` would.
"""

from __future__ import annotations

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem
)
def test_demo_runs(script, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
