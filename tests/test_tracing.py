"""The per-layer tracer of ``perfbench/tracing.py`` still finds its targets.

The tracer wraps library functions and methods by name; a rename or a
deletion of any of them makes ``Tracer.install`` fail, which this test
catches before a traced benchmark run does.
"""

from __future__ import annotations

import importlib.util
import pathlib

from frustgraph import cli
from frustgraph.stabilizer import builtin_code

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("frustgraph_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_and_record():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    run_command = cli.run_command
    tracer.install()
    try:
        # the module attribute is the wrapper now, so its spans are recorded
        doc = cli.document_from_stabilizer(builtin_code("five_qudit", 2, 5))
        for command in ("analyze", "entanglement"):
            cli.run_command(command, doc, cli.CommandFlags())
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert cli.run_command is run_command
    assert metrics["cli.run_command.calls"] == 2
    assert metrics["group.generating_graph.calls"] >= 1
    assert metrics["stabilizer.bipartition_reports.calls"] == 1
    assert set(metrics) >= set(tracing.metric_units()) - {"trace.wall_s", "trace.overhead_s"}
