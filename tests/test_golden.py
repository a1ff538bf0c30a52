"""Byte-for-byte golden JSON reports for the documented inputs.

``tests/golden/<stem>.<command>.json`` holds the stdout of
``frustgraph <command> docs/inputs/<stem>.txt --format json``;
``ghz_d3_n10`` is ``--builtin ghz --d 3 --n 10``, whose 511 cuts span
more than one block of the bipartition scan.  Regenerate a file only
when a report is meant to change.
"""

from __future__ import annotations

import pathlib

import pytest

from frustgraph.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = ROOT / "docs" / "inputs"
GOLDEN_DIR = ROOT / "tests" / "golden"
BUILTINS = {"ghz_d3_n10": ["--builtin", "ghz", "--d", "3", "--n", "10"]}


def test_every_document_has_golden_reports():
    for doc in DOCS_DIR.glob("*.txt"):
        commands = ["analyze", "canonical"]
        if "mode=stabilizer" in doc.read_text(encoding="utf-8"):
            commands.append("entanglement")
        for command in commands:
            assert (GOLDEN_DIR / f"{doc.stem}.{command}.json").is_file()


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_report_matches_golden(golden, capsys):
    stem, command = golden.stem.rsplit(".", 1)
    source = BUILTINS.get(stem, [str(DOCS_DIR / f"{stem}.txt")])
    assert main([command, *source, "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()
