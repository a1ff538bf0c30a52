"""Command-line front end.

Parses generator documents in a small line-oriented grammar, dispatches
the analyses, and emits deterministic text or JSON reports; both writers
render the cuts of an entanglement report in bulk from the scan itself.

Grammar (UTF-8, LF or CRLF):

    # comment lines and blank lines are ignored
    d=<int> n=<int> [mode=group|stabilizer]
    g<idx>: [w^<j>] <site-token> <site-token> ...

with one site token per site, drawn from I, X, Z, X^<a>, Z^<b> or
X^<a>Z^<b>, exponents in [0, d).  The optional leading w^<j> token is a
global phase omega^j; for d = 2 the half-integer forms w^<p>/2 express
the quarter-turn phases (w^1/2 is the factor i).

Exit codes: 0 success, 2 validation failure (including failed verify
checks), 1 internal error, 141 (128 + SIGPIPE) when the reader of the
report closes the pipe early.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import (
    DimensionMismatch,
    ExponentOutOfRange,
    FrustGraphError,
    InvalidMode,
    ParseError,
    TooLarge,
)
from .gf import check_modulus
from .group import GroupSpec, commutation_graph
from .group import clique_number, sos_bound, sum_bound
from .oracle import (
    BOUND_TOLERANCE,
    LAGRANGE_TOLERANCE,
    OVERLAP_TOLERANCE,
    SWAP_TOLERANCE,
    OptimizerConfig,
    lagrange_extremum,
    max_product_overlaps,
    max_sos,
    max_sum_eigenvalue,
    theta_energy,
    verify_swap_identity,
)
from .pauli import PauliOperator, omega_units
from .stabilizer import BipartitionScan, Stabilizer, _cut_sides, bipartitions, builtin_code

REPORT_SCHEMA = "frustgraph-report/1"

_HEADER_RE = re.compile(r"^d=(\d+)\s+n=(\d+)(?:\s+mode=(group|stabilizer))?$", re.ASCII)
_GENERATOR_RE = re.compile(r"^g(\d+):\s*(\S.*)$", re.ASCII)
_PHASE_RE = re.compile(r"^w\^(\d+)(/2)?$", re.ASCII)
_SITE_TOKENS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1)}
_SITE_RE = re.compile(r"(?:X\^(\d+))?(?:Z\^(\d+))?", re.ASCII)


@dataclass(frozen=True)
class InputDocument:
    """A parsed generator document; ``spec`` is its one ``GroupSpec``."""

    d: int
    n_sites: int
    generators: tuple[PauliOperator, ...]
    mode: str | None = None
    digest: str = ""

    @functools.cached_property
    def spec(self) -> GroupSpec:
        """The generators' group, built once and shared by every command."""
        return GroupSpec.from_generators(self.generators)


def real_str(x: float) -> str:
    """Positional decimal rendering with 12 significant digits kept."""
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        return str(x)
    if x == 0:
        return "0.000000000000"
    return format(Decimal(f"{x:.11e}"), "f")  # the 12 digits, positional


def rational_dict(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "real": real_str(float(value)),
    }


def _parse_exponent(text: str, d: int, line_no: int, col: int) -> int:
    e = int(text)
    if not 0 <= e < d:
        raise ExponentOutOfRange(
            f"line {line_no}, column {col}: exponent {e} outside [0, {d})"
        )
    return e


def _parse_site_token(tok: str, d: int, line_no: int, col: int) -> tuple[int, int]:
    if tok in _SITE_TOKENS:
        return _SITE_TOKENS[tok]
    m = _SITE_RE.fullmatch(tok)
    if not tok or m is None:
        raise ParseError(line_no, col, f"unrecognised site token {tok!r}")
    x, z = m.groups()
    return (
        0 if x is None else _parse_exponent(x, d, line_no, col),
        0 if z is None else _parse_exponent(z, d, line_no, col),
    )


def _parse_phase_token(tok: str, d: int, line_no: int, col: int) -> int:
    m = _PHASE_RE.match(tok)
    if not m:
        raise ParseError(line_no, col, f"unrecognised phase token {tok!r}")
    j = int(m.group(1))
    if m.group(2):
        if d != 2:
            raise ParseError(
                line_no, col, "half-integer phase exponents exist only for d=2"
            )
        return j % 4
    return omega_units(d, j)


def parse_document(text: str) -> InputDocument:
    """Parse the line-oriented generator grammar into a document."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    header: tuple[int, int, str | None] | None = None
    generators: list[PauliOperator] = []
    known: dict[str, tuple[int, int]] = {}  # site token -> (a, b), parsed once
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if header is None:
            m = _HEADER_RE.match(line.strip())
            if not m:
                raise ParseError(
                    line_no, 1, "expected header 'd=<int> n=<int> [mode=...]'"
                )
            d, n = int(m.group(1)), int(m.group(2))
            if n < 1:
                raise ParseError(line_no, 1, "n must be at least 1")
            header = (check_modulus(d), n, m.group(3))
            continue
        d, n, _mode = header
        m = _GENERATOR_RE.match(line)
        if not m:
            raise ParseError(line_no, 1, "expected generator line 'g<idx>: ...'")
        body = m.group(2)
        tokens = body.split()
        phase = 0
        if tokens[0].startswith("w^"):
            col = m.start(2) + len(body) - len(body.lstrip()) + 1
            phase = _parse_phase_token(tokens[0], d, line_no, col)
            del tokens[0]
        if len(tokens) != n:
            raise DimensionMismatch(
                f"line {line_no}: generator has {len(tokens)} site tokens, "
                f"expected {n}"
            )
        try:
            pairs = [known[tok] for tok in tokens]
        except KeyError:  # columns only for the error messages of new tokens
            cols = [t.start() + m.start(2) + 1 for t in re.finditer(r"\S+", body)]
            for tok, col in zip(tokens, cols[-n:]):
                if tok not in known:
                    known[tok] = _parse_site_token(tok, d, line_no, col)
            pairs = [known[tok] for tok in tokens]
        a, b = zip(*pairs)
        generators.append(PauliOperator._trusted(d, a, b, phase))
    if header is None:
        raise ParseError(1, 1, "empty document; a header line is required")
    if not generators:
        raise ParseError(1, 1, "document defines no generators")
    d, n, mode = header
    return InputDocument(d, n, tuple(generators), mode, digest)


def _phase_token(op: PauliOperator) -> str | None:
    if not op.phase_exp:
        return None
    if op.d == 2:
        if op.phase_exp % 2 == 0:
            return f"w^{op.phase_exp // 2}"
        return f"w^{op.phase_exp}/2"
    return f"w^{op.phase_exp}"


def _site_token(a: int, b: int) -> str:
    if a and b:
        return f"X^{a}Z^{b}"
    if a:
        return "X" if a == 1 else f"X^{a}"
    if b:
        return "Z" if b == 1 else f"Z^{b}"
    return "I"


def serialize_document(doc: InputDocument) -> str:
    """Render a document back into the grammar; parses to the same content."""
    head = f"d={doc.d} n={doc.n_sites}"
    if doc.mode:
        head += f" mode={doc.mode}"
    lines = [head]
    for i, g in enumerate(doc.generators, start=1):
        tokens = []
        phase = _phase_token(g)
        if phase:
            tokens.append(phase)
        tokens.extend(_site_token(a, b) for a, b in zip(g.a, g.b))
        lines.append(f"g{i}: " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def document_from_stabilizer(stab: Stabilizer, mode: str = "stabilizer") -> InputDocument:
    doc = InputDocument(stab.d, stab.n_sites, stab.generators, mode)
    text = serialize_document(doc)
    return replace(doc, digest=hashlib.sha256(text.encode("utf-8")).hexdigest())


@dataclass(frozen=True)
class CommandFlags:
    """Options shared by the subcommands; ``main`` builds (and so checks) ``optimizer`` for each."""

    optimizer: OptimizerConfig = OptimizerConfig()
    checks: tuple[str, ...] = ()
    d: int | None = None


@dataclass(frozen=True)
class Report:
    """One command's deterministic result payload."""

    command: str
    input_digest: str
    result: dict
    version: str = __version__
    schema: str = REPORT_SCHEMA

    def to_dict(self) -> dict:
        """The report in plain dicts and lists, a scan as its ``{"Q", "rank", "gm"}`` rows."""
        result = dict(self.result)
        for key, scan in self.result.items():
            if isinstance(scan, BipartitionScan):
                gm = {r: rational_dict(value) for r, value in scan.measures.items()}
                result[key] = [{"Q": list(q), "rank": r, "gm": gm[r]}
                               for q, r in zip(scan.sites, scan.ranks)]
        return self._fields(result)

    def _fields(self, result: dict) -> dict:
        return {"schema": self.schema, "command": self.command,
                "input_digest": self.input_digest, "result": result, "version": self.version}


def _run_analyze(doc: InputDocument, flags: CommandFlags) -> Report:
    spec = doc.spec
    r = spec.gamma_rank
    result = {
        "d": spec.d,
        "n_sites": doc.n_sites,
        "k": spec.k,
        "gamma": spec.gamma.to_lists(),
        "rank": r,
        "nullity": spec.k - r,
        "clique_number": clique_number(spec),
        "sos_bound": sos_bound(spec),
        "sum_bound": real_str(sum_bound(spec)) if spec.d != 2 else None,
    }
    try:
        graph = commutation_graph(spec)
    except TooLarge:  # past limits.VERTEX_CAP the report leaves the graph out
        result["graph"] = None
    else:
        result["graph"] = {"vertices": graph.n_vertices, "edges": graph.edge_count}
    return Report("analyze", doc.digest, result)


def _run_canonical(doc: InputDocument, flags: CommandFlags) -> Report:
    spec = doc.spec
    form = spec.normal_form
    result = {
        "d": spec.d,
        "k": spec.k,
        "gamma": spec.gamma.to_lists(),
        "O": form.O.to_lists(),
        "pair_blocks": form.m,
        "residual_dim": form.residual_dim,
        "rank": 2 * form.m,
    }
    return Report("canonical", doc.digest, result)


def _run_entanglement(doc: InputDocument, flags: CommandFlags) -> Report:
    if doc.mode == "group":
        raise InvalidMode("entanglement needs a stabilizer document")
    stab = Stabilizer(doc.generators)
    scan = stab.bipartition_reports()
    result = {
        "d": stab.d,
        "n_sites": stab.n_sites,
        "k": stab.k,
        "is_gme": scan.is_gme,
        "ggm": rational_dict(scan.ggm),
        "bipartitions": scan,
    }
    return Report("entanglement", doc.digest, result)


def _check_entry(name: str, deviation: float, tolerance: float, **extra) -> dict:
    return {"name": name, **extra, "deviation": real_str(deviation),
            "tolerance": real_str(tolerance), "pass": bool(deviation <= tolerance)}


def _run_verify(doc: InputDocument | None, flags: CommandFlags) -> Report:
    checks = list(flags.checks)
    if not checks:
        if doc is None:
            checks = ["swap", "lagrange", "theta"]
        else:
            checks = ["sos"]
            if doc.d != 2:
                checks.append("sum")
            if doc.mode == "stabilizer":
                checks.append("overlap")
    if doc is None and any(name in ("sos", "sum", "overlap") for name in checks):
        raise InvalidMode("sos/sum/overlap checks need an input file or --builtin")
    # one Stabilizer, validated before any check runs, serves sos, sum and overlap
    stab = Stabilizer(doc.generators) if "overlap" in checks else None
    cfg = flags.optimizer
    d_abstract = flags.d if flags.d is not None else (doc.d if doc else 3)
    entries: list[dict] = []
    for name in checks:
        if name == "swap":
            entries.append(
                _check_entry("swap", verify_swap_identity(d_abstract), SWAP_TOLERANCE, d=d_abstract)
            )
        elif name == "lagrange":
            want = (1 + 1 / np.sqrt(d_abstract)) / 2
            entries.append(_check_entry("lagrange", abs(lagrange_extremum(d_abstract) - want),
                                        LAGRANGE_TOLERANCE, d=d_abstract))
        elif name == "theta":
            want = d_abstract * (1 + np.sqrt(d_abstract)) / 2
            entries.append(_check_entry("theta", abs(theta_energy(d_abstract) - want),
                                        BOUND_TOLERANCE, d=d_abstract))
        elif name in ("sos", "sum"):
            # deviations relative to the bound, which grows as d^k
            spec = stab or doc.spec
            if name == "sos":
                bound, got = float(sos_bound(spec)), max_sos(spec, cfg)
                deviation = abs(got - bound) / bound
            else:  # the sum bound is an upper bound only
                bound, got = sum_bound(spec), max_sum_eigenvalue(spec)
                deviation = max(0.0, got - bound) / bound
            entries.append(_check_entry(name, deviation, BOUND_TOLERANCE,
                                        value=real_str(got), bound=real_str(bound)))
        elif name == "overlap":
            scan = stab.bipartition_reports()
            overlaps = max_product_overlaps(stab, list(bipartitions(stab.n_sites)), cfg)
            worst = max([0.0] + [abs(1.0 - overlap - float(scan.measures[r]))
                                 for overlap, r in zip(overlaps, scan.ranks)])
            entries.append(_check_entry("overlap", worst, OVERLAP_TOLERANCE))
        else:
            raise InvalidMode(f"unknown verify check {name!r}")
    result = {
        "checks": entries,
        "all_pass": all(e["pass"] for e in entries),
    }
    return Report("verify", doc.digest if doc else "", result)


def run_command(command: str, doc: InputDocument | None, flags: CommandFlags) -> Report:
    """Dispatch one subcommand over a parsed document; only verify runs without one."""
    if doc is None and command != "verify":
        raise InvalidMode("this command needs an input file or --builtin")
    if command == "analyze":
        return _run_analyze(doc, flags)
    if command == "canonical":
        return _run_canonical(doc, flags)
    if command == "entanglement":
        return _run_entanglement(doc, flags)
    if command == "verify":
        return _run_verify(doc, flags)
    raise InvalidMode(f"unknown command {command!r}")


def _cut_rows(scan: BipartitionScan, head: str, sep: str, tail) -> list[str]:
    """Each cut as ``head``, its sites joined by ``sep``, then its rank's tail.

    The sides come as text from ``_cut_sides`` and ``tail(rank, gm)`` is
    rendered once per distinct rank, so no per-cut object is built.
    """
    tails = {r: tail(r, rational_dict(value)) for r, value in scan.measures.items()}
    sides = _cut_sides(head + "1", [sep + str(s) for s in range(2, scan.n_sites + 1)])
    return [q + tails[r] for q, r in zip(sides, scan.ranks)]


def _text_lines(report: Report) -> list[str]:
    lines = [
        f"frustgraph {report.command} (schema {report.schema}, version {report.version})",
        f"input: {report.input_digest or '-'}",
    ]

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            if set(value) == {"num", "den", "real"}:
                lines.append(f"{prefix}: {value['num']}/{value['den']} = {value['real']}")
                return
            lines.append(f"{prefix}:")
            for key, sub in value.items():
                emit(f"  {key}", sub)
        elif isinstance(value, BipartitionScan):
            rows = _cut_rows(value, "  - Q=[", ", ", lambda r, gm: f"], rank={r}, gm={gm['real']}")
            lines.extend([f"{prefix}:", *rows] if rows else [f"{prefix}: []"])
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{prefix}:")
            for row in value:
                lines.append("  " + " ".join(str(v) for v in row))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}:")
            for item in value:  # the checks of verify
                lines.append("  - " + ", ".join(f"{k}={v}" for k, v in item.items()))
        else:
            lines.append(f"{prefix}: {value}")

    for key, value in report.result.items():
        emit(key, value)
    return lines


def _json_chunks(value, pad: str, out: list[str]) -> None:
    """Append ``json.dumps(value, indent=2)``, nested at indent ``pad``, to ``out``.

    Keys must be strings.  With an indent ``json.dumps`` falls back to its
    pure-Python encoder, one chunk per token; here a list of plain ints,
    such as a matrix row, is one chunk, and the caller joins the chunks
    once, so no nested level is copied.  A ``BipartitionScan`` is one
    chunk too, the list of its ``_cut_rows``.
    """
    if type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out += (sep, encode_basestring_ascii(key), ": ")
            _json_chunks(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, BipartitionScan):
        inner, field = pad + "  ", pad + "    "
        rows = _cut_rows(value, f'{{\n{field}"Q": [\n{field}  ', f",\n{field}  ",
                         lambda r, gm: f'\n{field}],\n{field}"rank": {r},\n'
                                       f'{field}"gm": {_json(gm, field)}\n{inner}}}')
        out.append("[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]" if rows else "[]")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            out += ("[\n", inner, (",\n" + inner).join(map(int.__repr__, value)))
        else:
            sep = "[\n" + inner
            for item in value:
                out.append(sep)
                _json_chunks(item, inner, out)
                sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(value))


def _json(value, pad: str = "") -> str:
    out: list[str] = []
    _json_chunks(value, pad, out)
    return "".join(out)


def emit_report(report: Report, fmt: str = "text") -> str:
    """Deterministic serialization; field order is fixed by construction.

    JSON is byte-for-byte ``json.dumps(report.to_dict(), indent=2)``.
    """
    if fmt == "json":
        return _json(report._fields(report.result))
    return "\n".join(_text_lines(report))


def _load_document(args) -> InputDocument | None:
    if getattr(args, "builtin", None):
        d = args.d if args.d is not None else 2
        n = args.n if args.n is not None else (5 if args.builtin == "five_qudit" else 3)
        return document_from_stabilizer(builtin_code(args.builtin, d, n))
    if getattr(args, "input", None):
        with open(args.input, encoding="utf-8") as handle:
            return parse_document(handle.read())
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frustgraph",
        description="Commutation-graph bounds and stabilizer entanglement "
        "for generalized Pauli observables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", nargs="?", help="input document path")
    common.add_argument("--builtin", choices=["five_qudit", "ghz"])
    common.add_argument("--d", type=int, default=None, help="dimension for --builtin or abstract checks")
    common.add_argument("--n", type=int, default=None, help="site count for --builtin")
    common.add_argument("--format", choices=["text", "json"], default="text")
    defaults = OptimizerConfig()
    common.add_argument("--seed", type=int, default=defaults.seed)
    common.add_argument("--restarts", type=int, default=defaults.restarts,
                        help="restarts of the sos ascent, and the most of the code-overlap ascent, "
                             "which stops once a block of restarts no longer raises a cut's best; "
                             "a state's overlap is exact")
    common.add_argument("--tol", type=float, default=defaults.tol)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common], help="generating graph, rank and bounds")
    sub.add_parser("canonical", parents=[common], help="symplectic normal form of the generating graph")
    sub.add_parser("entanglement", parents=[common], help="per-bipartition entanglement report")
    verify = sub.add_parser("verify", parents=[common], help="dense numeric cross-checks")
    for check in ("swap", "lagrange", "theta", "sos", "sum", "overlap"):
        verify.add_argument(f"--{check}", action="append_const", const=check, dest="checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = CommandFlags(
            OptimizerConfig(restarts=args.restarts, tol=args.tol, seed=args.seed),
            checks=tuple(getattr(args, "checks", None) or ()),
            d=args.d,
        )
        doc = _load_document(args)
        report = run_command(args.command, doc, flags)
    except FrustGraphError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    try:
        print(emit_report(report, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at shutdown cannot fail again, and exit as if killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if args.command == "verify" and not report.result["all_pass"]:
        return 2
    return 0
