"""Outside-in tracing of frustgraph's layers.

``Tracer.install`` wraps public functions and methods without touching the
package's files: a function is rebound in every ``frustgraph`` module
namespace that holds it (``from .group import generating_graph`` makes a
separate binding in ``stabilizer``, which a patch of ``group`` alone would
miss), and a method is replaced on its class, together with any alias
such as ``PauliOperator.__mul__``.

Timed wrappers record spans ``(id, parent, job, name, start, end)`` in
memory; functions called too often for a timer to stay cheap only count
their calls.  A layer's self time is its span time minus the time of its
direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, class or None, attribute) -> metric prefix "module.attribute"
TIMED = [
    ("cli", None, "parse_document"),
    ("cli", None, "run_command"),
    ("cli", None, "emit_report"),
    ("stabilizer", "Stabilizer", "validate"),
    ("stabilizer", "Stabilizer", "reduced_generating_graph"),
    ("stabilizer", "Stabilizer", "bipartition_reports"),
    ("stabilizer", "Stabilizer", "is_gme"),
    ("group", None, "generating_graph"),
    ("group", "GroupSpec", "__init__"),
    ("group", None, "commutation_graph"),
    ("group", None, "clique_number_bruteforce"),
    ("group", None, "concrete_elements"),
    ("gf", None, "rank"),
    ("gf", None, "nullspace_basis"),
    ("symplectic", None, "canonical_form"),
    ("oracle", None, "dense_pauli"),
    ("oracle", None, "max_sos"),
    ("oracle", None, "max_sum_eigenvalue"),
    ("oracle", None, "max_product_overlap"),
    ("oracle", None, "stabilizer_projector"),
]
COUNTED = [
    ("pauli", None, "commutator_exponent"),
    ("pauli", "PauliOperator", "restrict"),
    ("pauli", "PauliOperator", "multiply"),
    ("gf", None, "check_modulus"),
]


def span_name(module: str, cls: str | None, attr: str) -> str:
    return f"{module}.{cls}" if attr == "__init__" else f"{module}.{attr}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for target in TIMED:
        name = span_name(*target)
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    for target in COUNTED:
        units[f"{span_name(*target)}.calls"] = "count"
    units.update({
        "stabilizer.graphs_per_cut": "ratio",
        "oracle.projector_builds_per_stabilizer": "ratio",
        "oracle.dense_pauli.computed_bytes": "B",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Spans and counters for one pass; ``reset`` starts the next pass."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.job = 0
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._last_id = 0
        self.cuts: set = set()
        self.stabilizers: set = set()
        self.dense_bytes = 0

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            self._last_id += 1
            sid = self._last_id
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, self.job, name, start, end))
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks that turn the traced calls into waste ratios and computed bytes
    def _after_reduced_graph(self, args, _out) -> None:
        stab, subset = args[0], args[1]
        self.cuts.add((stab.generators, subset))

    def _after_projector(self, args, _out) -> None:
        self.stabilizers.add(args[0].generators)

    def _after_dense_pauli(self, _args, out) -> None:
        self.dense_bytes += out.nbytes

    def _patch(self, owner, original, wrapper) -> None:
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, attr, value))
                setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "frustgraph" or key.startswith("frustgraph."))]
        hooks = {
            "stabilizer.reduced_generating_graph": self._after_reduced_graph,
            "oracle.stabilizer_projector": self._after_projector,
            "oracle.dense_pauli": self._after_dense_pauli,
        }
        targets = [(t, True) for t in TIMED] + [(t, False) for t in COUNTED]
        for (module, cls, attr), timed in targets:
            name = span_name(module, cls, attr)
            home = sys.modules[f"frustgraph.{module}"]
            if cls is None:
                original = getattr(home, attr)
            else:
                original = vars(getattr(home, cls))[attr]
            if timed:
                wrapper = self._timed(name, original, hooks.get(name))
            else:
                wrapper = self._counted(name, original)
            owners = modules if cls is None else [getattr(home, cls)]
            for owner in owners:
                self._patch(owner, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the pass traced since the last ``reset``."""
        child = defaultdict(float)
        for sid, parent, _job, _name, start, end in self.spans:
            child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for sid, _parent, _job, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[sid]
        out = {}
        for target in TIMED:
            name = span_name(*target)
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for target in COUNTED:
            name = span_name(*target)
            out[f"{name}.calls"] = self.counts[name]
        graphs = calls["stabilizer.reduced_generating_graph"]
        builds = calls["oracle.stabilizer_projector"]
        out["stabilizer.graphs_per_cut"] = graphs / len(self.cuts) if self.cuts else 0.0
        out["oracle.projector_builds_per_stabilizer"] = (
            builds / len(self.stabilizers) if self.stabilizers else 0.0
        )
        out["oracle.dense_pauli.computed_bytes"] = self.dense_bytes
        out["trace.spans"] = len(self.spans)
        return out
