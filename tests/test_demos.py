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


DEMO_02_OUTPUT = """\
vertices: 16
edges:   60
clique number:    4 (closed form: 4 )
chromatic number: 5
perfect graph?    False
max sum of squares: 4.0   bound: 4
"""


def test_nonperfect_graph_demo_output(monkeypatch, capsys):
    # the clique and the exact coloring searches print fixed numbers
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    runpy.run_path(str(ROOT / "demos" / "02_nonperfect_commutation_graph.py"), run_name="__main__")
    assert capsys.readouterr().out == DEMO_02_OUTPUT
