"""Byte-for-byte golden reports for the documented inputs.

``tests/golden/<stem>.<command>.json`` holds the stdout of
``frustgraph <command> docs/inputs/<stem>.txt --format json``, and
``<stem>.<command>.txt`` the stdout of the same command with
``--format text``; ``ghz_d3_n10`` is ``--builtin ghz --d 3 --n 10``, whose
511 cuts span more than one block of the bipartition scan.  Regenerate a
file only when a report is meant to change.
"""

from __future__ import annotations

import pathlib

import pytest

from frustgraph.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = ROOT / "docs" / "inputs"
GOLDEN_DIR = ROOT / "tests" / "golden"
BUILTINS = {"ghz_d3_n10": ["--builtin", "ghz", "--d", "3", "--n", "10"]}
FORMATS = {".json": "json", ".txt": "text"}


def test_every_document_has_golden_reports():
    for doc in DOCS_DIR.glob("*.txt"):
        commands = ["analyze", "canonical"]
        if "mode=stabilizer" in doc.read_text(encoding="utf-8"):
            commands.append("entanglement")
        for command in commands:
            for suffix in FORMATS:
                assert (GOLDEN_DIR / f"{doc.stem}.{command}{suffix}").is_file()


def _run(golden: pathlib.Path, capsys) -> bytes:
    stem, command = golden.stem.rsplit(".", 1)
    source = BUILTINS.get(stem, [str(DOCS_DIR / f"{stem}.txt")])
    assert main([command, *source, "--format", FORMATS[golden.suffix]]) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.stem
)
def test_report_matches_golden(golden, capsys):
    assert _run(golden, capsys) == golden.read_bytes()


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.txt")), ids=lambda path: path.stem
)
def test_text_report_matches_golden(golden, capsys):
    assert _run(golden, capsys) == golden.read_bytes()
