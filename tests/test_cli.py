"""Input grammar, report emission, and the command-line contract."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import denseref
from frustgraph import (
    DimensionMismatch,
    ExponentOutOfRange,
    FrustGraphError,
    ParseError,
    PauliOperator,
)
from frustgraph import cli, gf
from frustgraph.cli import (
    CommandFlags,
    Report,
    _parse_exponent,
    _parse_site_token,
    document_from_stabilizer,
    emit_report,
    main,
    parse_document,
    rational_dict,
    real_str,
    run_command,
    serialize_document,
)
from frustgraph.stabilizer import (
    BipartitionScan,
    Stabilizer,
    _cut_sides,
    _cut_sites,
    bipartitions,
    builtin_code,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS_DIR = ROOT / "docs" / "inputs"

GHZ3_TEXT = "d=2 n=3\ng1: X X X\ng2: Z Z I\ng3: I Z Z\n"
XZ3_TEXT = "d=3 n=1\ng1: X\ng2: Z\n"


def test_parse_ghz_document():
    doc = parse_document(GHZ3_TEXT)
    assert (doc.d, doc.n_sites, len(doc.generators)) == (2, 3, 3)
    assert doc.generators[0] == PauliOperator(2, (1, 1, 1), (0, 0, 0))
    assert doc.generators[1] == PauliOperator(2, (0, 0, 0), (1, 1, 0))
    assert doc.mode is None


def test_parse_group_document():
    doc = parse_document(XZ3_TEXT)
    assert doc.generators == (PauliOperator.x(3), PauliOperator.z(3))


def test_parse_exponent_out_of_range():
    with pytest.raises(ExponentOutOfRange):
        parse_document("d=2 n=1\ng1: X^5\n")


def test_parse_bad_token_has_location():
    with pytest.raises(ParseError) as err:
        parse_document("d=3 n=2\ng1: X Q\n")
    assert err.value.line == 2
    assert err.value.column == 7


# the site-token patterns the single fullmatch replaced, kept as its reference
_OLD_X_RE = re.compile(r"^X\^(\d+)$", re.ASCII)
_OLD_Z_RE = re.compile(r"^Z\^(\d+)$", re.ASCII)
_OLD_XZ_RE = re.compile(r"^X\^(\d+)Z\^(\d+)$", re.ASCII)


def _old_site_token(tok: str, d: int, line_no: int, col: int) -> tuple[int, int]:
    if tok == "I":
        return 0, 0
    if tok == "X":
        return 1, 0
    if tok == "Z":
        return 0, 1
    m = _OLD_XZ_RE.match(tok)
    if m:
        return (
            _parse_exponent(m.group(1), d, line_no, col),
            _parse_exponent(m.group(2), d, line_no, col),
        )
    m = _OLD_X_RE.match(tok)
    if m:
        return _parse_exponent(m.group(1), d, line_no, col), 0
    m = _OLD_Z_RE.match(tok)
    if m:
        return 0, _parse_exponent(m.group(1), d, line_no, col)
    raise ParseError(line_no, col, f"unrecognised site token {tok!r}")


def _outcome(parse, tok: str, d: int):
    try:
        return parse(tok, d, 4, 9)
    except (ParseError, ExponentOutOfRange) as exc:
        return type(exc), str(exc)


_TOKEN_PIECES = ["X^", "Z^", "X", "Z", "Y", "I", "^", "0", "1", "2", "12", "7"]


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="IXYZ^0123456789\u0661", max_size=8),
        st.lists(st.sampled_from(_TOKEN_PIECES), max_size=5).map("".join).filter(
            lambda tok: len(tok) <= 8
        ),
    ),
    st.sampled_from([2, 3, 13]),
)
@example("X^1Z^2", 3)
@example("X^3Z^1", 3)
@example("X^1Z^3", 3)
@example("Z^1X^1", 3)
@example("X^3Z^4", 3)
@example("", 3)
@example("X^\u0661", 3)
def test_site_token_parses_as_the_three_patterns(tok, d):
    assert _outcome(_parse_site_token, tok, d) == _outcome(_old_site_token, tok, d)


def _per_token_parse(text: str):
    """The per-token parse that the memoised one replaced, kept as its reference.

    Every token's column comes from ``re.finditer`` and every site token is
    parsed where it stands.  Returns (d, n, mode, generators).
    """
    header = None
    generators = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if header is None:
            m = cli._HEADER_RE.match(line.strip())
            if not m:
                raise ParseError(line_no, 1, "expected header 'd=<int> n=<int> [mode=...]'")
            d, n = int(m.group(1)), int(m.group(2))
            if n < 1:
                raise ParseError(line_no, 1, "n must be at least 1")
            header = (gf.check_modulus(d), n, m.group(3))
            continue
        d, n, _mode = header
        m = cli._GENERATOR_RE.match(line)
        if not m:
            raise ParseError(line_no, 1, "expected generator line 'g<idx>: ...'")
        tokens = [(t.start() + m.start(2) + 1, t.group()) for t in re.finditer(r"\S+", m.group(2))]
        phase = 0
        if tokens[0][1].startswith("w^"):
            phase = cli._parse_phase_token(tokens[0][1], d, line_no, tokens[0][0])
            tokens = tokens[1:]
        if len(tokens) != n:
            raise DimensionMismatch(
                f"line {line_no}: generator has {len(tokens)} site tokens, expected {n}"
            )
        pairs = [_old_site_token(tok, d, line_no, col) for col, tok in tokens]
        a = tuple(x for x, _ in pairs)
        b = tuple(z for _, z in pairs)
        generators.append(PauliOperator(d, a, b, phase))
    if header is None:
        raise ParseError(1, 1, "empty document; a header line is required")
    if not generators:
        raise ParseError(1, 1, "document defines no generators")
    return (*header[:2], header[2], tuple(generators))


def _document_outcome(parse, text: str):
    try:
        return parse(text)
    except FrustGraphError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _memoised_parse(text: str):
    doc = parse_document(text)
    return doc.d, doc.n_sites, doc.mode, doc.generators


_VALID_TOKENS = ["I", "X", "Z", "X^2", "Z^1", "X^1Z^2", "X^0Z^0", "X^1Z^1"]  # at d = 2 only some
_BAD_TOKENS = ["X^3", "Z^7", "Q", "XZ", "Z^1X^1", "X^\u0661", "x", "w^1", "w^x"]
_PHASES = ["w^1", "w^2", "w^1/2"] * 3 + ["w^x", "w^", "w^\u0661", "w", "w^1/x"]
_SEPARATORS = [" ", "  ", "\t", "\u00a0", " \u2003"]


@st.composite
def _generator_documents(draw):
    """Documents of mostly well-formed lines with repeated and malformed tokens."""
    header = draw(st.sampled_from(["d=3 n=2", "d=3 n=1", "d=3 n=3 mode=group", "d=2 n=2"] * 3 + ["d=4 n=1"]))
    n = int(header.split()[1][2:])
    token = st.sampled_from(_VALID_TOKENS * 8 + _BAD_TOKENS)
    lines = [header]
    for i in range(draw(st.integers(0, 5))):
        count = draw(st.sampled_from([n] * 8 + [n + 1, max(n - 1, 1)]))
        tokens = draw(st.lists(st.sampled_from(_PHASES), max_size=1))
        tokens += draw(st.lists(token, min_size=count, max_size=count))
        seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
        body = "".join(sep + tok for sep, tok in zip(seps, tokens))
        comment = draw(st.sampled_from(["", "  # note", "#"]))
        lines.append(f"g{i + 1}:{body}{comment}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_generator_documents())
@example("d=3 n=2\ng1: X Z^1\ng2: Z^1 X\ng3: Z^1 X^3\n")
@example("d=3 n=1\ng1: w^x X\n")
@example("d=3 n=2\ng1:\u00a0w^x X\n")
@example("d=3 n=2\ng1: X^1Z^2 X^1Z^2\ng2: w^1 X^1Z^2 Q\n")
def test_memoised_parse_matches_per_token_parse(text):
    assert _document_outcome(_memoised_parse, text) == _document_outcome(_per_token_parse, text)


def test_site_tokens_parse_once_per_document(monkeypatch):
    calls = []

    def counting(tok, *args):
        calls.append(tok)
        return _parse_site_token(tok, *args)

    monkeypatch.setattr(cli, "_parse_site_token", counting)
    text = "d=3 n=3\ng1: X X^2 X\ng2: w^1 X^2 Z I\ng3: Z I X^1Z^2\ng4: X^2 X^2 X^2\n"
    parse_document(text)
    assert sorted(calls) == sorted({"X", "X^2", "Z", "I", "X^1Z^2"})
    calls.clear()
    parse_document(text)  # the memo lives for one document only
    assert len(calls) == 5


def assert_generators_validated(doc) -> None:
    """Each parsed generator equals the validating constructor's, field for field."""
    for g in doc.generators:
        assert g == PauliOperator(g.d, g.a, g.b, g.phase_exp)
        assert type(g.a) is tuple and type(g.b) is tuple
        assert all(type(v) is int for v in (g.d, g.phase_exp, *g.a, *g.b))


@pytest.mark.parametrize("path", sorted(DOCS_DIR.glob("*.txt")), ids=lambda path: path.stem)
def test_parsed_generators_match_the_validating_constructor(path):
    assert_generators_validated(parse_document(path.read_text(encoding="utf-8")))


@settings(max_examples=300, deadline=None)
@given(_generator_documents())
@example("d=2 n=2\ng1: w^1/2 X^1Z^1 I\ng2: w^3 X Z\ng3: w^2/2 I I\n")
@example("d=3 n=1\ng1: w^7 X^2Z^2\n")
def test_parse_skips_no_check_the_constructor_makes(text):
    try:
        doc = parse_document(text)
    except FrustGraphError:
        return  # malformed documents: test_memoised_parse_matches_per_token_parse
    assert_generators_validated(doc)


@pytest.mark.parametrize(
    "body, error",
    [("X^3", ExponentOutOfRange), ("Z^1X^1", ParseError), ("Q", ParseError), ("w^x X", ParseError)],
)
def test_parse_still_refuses_bad_tokens(body, error):
    with pytest.raises(error):
        parse_document(f"d=3 n=1\ng1: {body}\n")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tok", ["w^x", "w^", "w^\u0661", "w^1/x"])
def test_malformed_phase_token_is_a_parse_error_at_its_column(tok, n):
    text = f"d=3 n={n}\ng1:  {tok} X\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (2, 6)
    assert f"unrecognised phase token {tok!r}" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "d=\u0663 n=1\ng1: X\n",
        "d=3 n=1\ng\u0661: X\n",
        "d=3 n=2\ng1: w^\u0661 X\n",
        "d=3 n=1\ng1: X^\u0661Z^\u0662\n",
    ],
    ids=["header", "generator-label", "phase", "site-token"],
)
def test_non_ascii_digits_are_parse_errors(text, tmp_path, capsys):
    # the grammar's <int> is ASCII decimal; Arabic-Indic digits are not read as numbers
    path = tmp_path / "doc.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "error[parse-error]" in capsys.readouterr().err


def test_parse_header_required():
    with pytest.raises(ParseError):
        parse_document("g1: X\n")
    with pytest.raises(ParseError):
        parse_document("# only a comment\n")


def test_parse_token_count_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_document("d=2 n=3\ng1: X X\n")


def test_parse_comments_blanks_crlf():
    text = "# heading\r\nd=2 n=2 mode=stabilizer\r\n\r\ng1: X X  # trailing\r\ng2: Z Z\r\n"
    doc = parse_document(text)
    assert doc.mode == "stabilizer"
    assert doc.generators[0] == PauliOperator(2, (1, 1), (0, 0))


def test_parse_phase_tokens():
    doc = parse_document("d=3 n=1\ng1: w^2 X\n")
    assert doc.generators[0].phase_exp == 2
    doc = parse_document("d=2 n=1\ng1: w^1/2 X^1Z^1\n")
    assert doc.generators[0].phase_exp == 1
    with pytest.raises(ParseError):
        parse_document("d=3 n=1\ng1: w^1/2 X\n")


def test_parse_compound_token():
    doc = parse_document("d=5 n=2\ng1: X^2Z^3 I\n")
    assert doc.generators[0] == PauliOperator(5, (2, 0), (3, 0))


def test_serialize_round_trip():
    for text in (GHZ3_TEXT, XZ3_TEXT, "d=2 n=1\ng1: w^1/2 X^1Z^1\n"):
        doc = parse_document(text)
        again = parse_document(serialize_document(doc))
        assert again.generators == doc.generators
        assert (again.d, again.n_sites, again.mode) == (doc.d, doc.n_sites, doc.mode)


def test_docs_examples_parse_and_round_trip():
    paths = sorted(DOCS_DIR.glob("*.txt"))
    assert paths, "docs/inputs should ship grammar examples"
    for path in paths:
        doc = parse_document(path.read_text())
        again = parse_document(serialize_document(doc))
        assert again.generators == doc.generators


def test_analyze_pauli_pair():
    report = run_command("analyze", parse_document("d=2 n=1\ng1: X\ng2: Z\n"), CommandFlags())
    assert report.result["sos_bound"] == 2
    assert report.result["clique_number"] == 2
    assert report.result["rank"] == 2
    assert report.result["sum_bound"] is None


def test_analyze_includes_energy_bound_for_odd_d():
    report = run_command("analyze", parse_document(XZ3_TEXT), CommandFlags())
    assert report.result["sum_bound"] == "8.19615242271"


def test_canonical_command():
    report = run_command("canonical", parse_document(XZ3_TEXT), CommandFlags())
    assert report.result["pair_blocks"] == 1
    assert report.result["residual_dim"] == 0


def test_entanglement_builtin_five_qudit():
    doc = document_from_stabilizer(builtin_code("five_qudit", 2, 5))
    report = run_command("entanglement", doc, CommandFlags())
    assert report.result["is_gme"] is True
    assert report.result["ggm"] == {"num": 1, "den": 2, "real": "0.500000000000"}
    first = report.result["bipartitions"][0]
    assert first.Q.indices == (1,)
    assert first.gm_exact == Fraction(1, 2)


def test_verify_swap_report():
    report = run_command("verify", None, CommandFlags(checks=("swap",), d=3))
    entry = report.result["checks"][0]
    assert entry["name"] == "swap"
    assert entry["pass"] is True
    assert float(entry["deviation"]) < 1e-12


def test_verify_document_checks():
    doc = parse_document(XZ3_TEXT)
    report = run_command("verify", doc, CommandFlags(restarts=8))
    assert report.result["all_pass"] is True
    names = [entry["name"] for entry in report.result["checks"]]
    assert names == ["sos", "sum"]


def test_verify_document_checks_need_a_document():
    from frustgraph import InvalidMode

    with pytest.raises(InvalidMode):
        run_command("verify", None, CommandFlags(checks=("sos",)))


@pytest.mark.parametrize(
    "text,code,value",
    [
        # two X/Z pairs on disjoint sites reach d^2 (1 + d) = 36, above sum_bound
        ("d=3 n=4 mode=group\ng1: X I I I\ng2: I X I Z\ng3: Z I X I\ng4: I I I X\n",
         2, "36.0000000000"),
        # 3^14 ordered products of one operator: exactly 2 * 3^14 = sum_bound
        ("d=3 n=2 mode=group\n" + "".join(f"g{i}: X Z\n" for i in range(1, 15)),
         0, "9565938.00000"),
    ],
    ids=["above-sum-bound", "repeated-generator"],
)
def test_verify_sum_reports_the_found_value(text, code, value, tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(text)
    assert main(["verify", str(path), "--sum", "--format", "json"]) == code
    (entry,) = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert entry["name"] == "sum" and entry["value"] == value
    assert entry["pass"] is (code == 0)


def test_verify_overlap_of_a_code_whose_basis_check_once_failed(tmp_path, capsys):
    # the code basis of this d=5 generator once failed an absolute 1e-12
    # check that P V = V, by rounding (1.06e-12), and verify exited 1
    path = tmp_path / "doc.txt"
    path.write_text("d=5 n=4 mode=stabilizer\ng1: X Z^3 Z^2 Z^3\n")
    assert main(["verify", str(path), "--overlap", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert [entry["name"] for entry in result["checks"]] == ["overlap"]
    assert result["all_pass"] is True


X16_TEXT = "d=3 n=1 mode=group\n" + "".join(f"g{i}: X\n" for i in range(1, 17))
XZ14_TEXT = "d=3 n=2 mode=group\n" + "".join(f"g{i}: X Z\n" for i in range(1, 15))
# X on each of 12 qubits and Z on the first: 13 independent generators,
# whose 2^13 products on 2^12 states are twice the DENSE_DIM_CAP^2 table
INDEPENDENT13_TEXT = "d=2 n=12 mode=group\n" + "".join(
    f"g{i + 1}: " + " ".join("X" if j == i else "I" for j in range(12)) + "\n" for i in range(12)
) + "g13: Z" + " I" * 11 + "\n"


@pytest.mark.parametrize(
    "text,sos,total",
    [(X16_TEXT, 3 ** 16, 2 * 3 ** 16), (XZ14_TEXT, 3 ** 14, 2 * 3 ** 14)],
    ids=["16-x", "14-xz"],
)
def test_verify_of_dependent_generators_reads_only_their_span(text, sos, total, tmp_path, capsys):
    # 3^16 and 3^14 elements, but a span of 3 and of 3 Pauli parts
    path = tmp_path / "doc.txt"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["verify", str(path), "--format", "json"]) == 0
    assert time.perf_counter() - start < 5
    checks = json.loads(capsys.readouterr().out)["result"]["checks"]
    assert [(c["name"], c["bound"], c["pass"]) for c in checks] == [
        ("sos", real_str(sos), True), ("sum", real_str(total), True)
    ]


def test_verify_refuses_a_span_past_the_table_cap(tmp_path, capsys):
    path = tmp_path / "doc.txt"
    path.write_text(INDEPENDENT13_TEXT)
    tracemalloc.start()
    try:
        assert main(["verify", str(path)]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == "error[too-large]: 33554432 action-table entries exceed the cap of 16777216\n"
    assert peak < 2 ** 20  # refused before any table or state vector


def test_verify_theta_at_the_largest_prime_its_cap_admits():
    # d = 1021 <= ENERGY_DIM_CAP: the d^2 Weyl terms as one group sum over X and Z
    start = time.perf_counter()
    proc = _run_cli("verify", "--theta", "--d", "1021", "--format", "json")
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["result"]["checks"]
    assert [(c["name"], c["d"], c["pass"]) for c in checks] == [("theta", 1021, True)]


@pytest.mark.parametrize("check,d,cap,what", [
    ("--theta", 1031, 1024, "theta"),
    ("--lagrange", 1000003, 4096, "lagrange"),  # its d x d form would take 7.28 TiB
    ("--theta", 1000003, 1024, "theta"),  # past d = 145037 the state fails its norm
])
def test_verify_refuses_an_abstract_check_past_its_cap(check, d, cap, what):
    proc = _run_cli("verify", check, "--d", str(d))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error[too-large]: {d} levels per site of the {what} check exceed the cap of {cap}\n"
    )


@pytest.mark.parametrize("command", ["analyze", "canonical", "entanglement"])
def test_commands_other_than_verify_need_a_document(command):
    from frustgraph import InvalidMode

    with pytest.raises(InvalidMode, match="this command needs an input file or --builtin"):
        run_command(command, None, CommandFlags())


def test_main_without_a_document_exits_2(capsys):
    assert main(["analyze"]) == 2
    assert capsys.readouterr().err == (
        "error[invalid-mode]: this command needs an input file or --builtin\n"
    )


def test_emit_report_rational_rendering():
    report = Report(
        command="entanglement",
        input_digest="x",
        result={"gm": rational_dict(Fraction(1, 2)), "bipartitions": []},
    )
    payload = json.loads(emit_report(report, "json"))
    assert payload["result"]["gm"] == {"num": 1, "den": 2, "real": "0.500000000000"}
    assert payload["result"]["bipartitions"] == []
    assert list(payload) == ["schema", "command", "input_digest", "result", "version"]


def test_one_site_entanglement_has_an_empty_cut_table():
    report = run_command("entanglement", parse_document("d=3 n=1\ng1: X\n"), CommandFlags())
    assert len(report.result["bipartitions"]) == 0
    assert emit_report(report, "text").splitlines()[-3:] == [
        "is_gme: False", "ggm: 0/1 = 0.000000000000", "bipartitions: []",
    ]
    assert '\n    "bipartitions": []\n' in emit_report(report, "json")
    assert report.to_dict()["result"]["bipartitions"] == []


def test_emit_report_integer_fields_stay_integers():
    report = Report(command="analyze", input_digest="x", result={"clique_number": 4})
    assert json.loads(emit_report(report, "json"))["result"]["clique_number"] == 4


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=2 ** 80).map(lambda v: -v),
    st.integers(min_value=2 ** 63, max_value=2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(),
    st.lists(st.integers(), min_size=1, max_size=5),  # the plain-int fast path
)
# values of one key column in a list of same-key dicts, the shape of the
# verify checks: ints, int lists, and near misses (bools, empty lists, a bool
# or float inside an int list)
_COLUMN_VALUES = [
    st.integers(),
    st.one_of(st.integers(), st.booleans()),
    st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(st.integers(), max_size=4),
    st.lists(st.one_of(st.integers(), st.booleans(), st.floats()), min_size=1, max_size=4),
]


@st.composite
def same_key_lists(draw, inner):
    """1-6 dicts sharing one key sequence, or a near miss of one."""
    keys = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    n_rows = draw(st.integers(min_value=1, max_value=6))
    columns = []
    for _ in keys:
        kind = draw(st.integers(min_value=0, max_value=len(_COLUMN_VALUES) + 1))
        if kind < len(_COLUMN_VALUES):
            columns.append([draw(_COLUMN_VALUES[kind]) for _ in range(n_rows)])
        elif kind == len(_COLUMN_VALUES):  # distinct nested values, one per row
            columns.append(draw(st.lists(inner, min_size=n_rows, max_size=n_rows, unique_by=repr)))
        else:  # nested values shared by identity across rows
            pool = draw(st.lists(inner, min_size=1, max_size=2))
            columns.append([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n_rows)])
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    i = draw(st.integers(0, n_rows - 1))
    near_miss = draw(st.sampled_from(["none", "reordered", "extra key"]))
    if near_miss == "reordered":
        rows[i] = dict(reversed(list(rows[i].items())))
    elif near_miss == "extra key":  # longer than any drawn key
        rows[i]["extra"] = draw(inner)
    return rows


json_trees = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4),
        same_key_lists(inner),
    ),
    max_leaves=25,
)

_SHARED_GM = {"num": 2, "den": 3, "real": "0.666666666667"}


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({})
@example({"": [], "\"quote\\back\x00\x1f\u00e9\u2603\U0001f600": {"a": {}}})
@example([[1, True], [0, None], [-0.0, float("nan")], [2 ** 64, -(2 ** 64)]])
@example([{"a": True, "b": 1}, {"a": False, "b": 2}, {"a": True, "b": 3}])
@example([{"Q": [1], "gm": _SHARED_GM}, {"Q": [1, 2], "gm": _SHARED_GM}])
@example([{"s": "a", "m": {"x": 1}}, {"s": "b", "m": {"x": 2}}])
def test_emit_report_json_is_indent_two_dumps(tree):
    report = Report(command="analyze", input_digest="x", result={"tree": tree})
    assert emit_report(report, "json") == json.dumps(report.to_dict(), indent=2)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "frustgraph_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["cut_scan", "group_bounds"])
def test_emit_report_json_on_benchmark_documents(workload):
    for job in _load_workloads().make_jobs(workload, 1):
        doc = parse_document(job.text)
        commands = ("analyze", "canonical") if job.command == "bounds" else (job.command,)
        for command in commands:
            report = run_command(command, doc, CommandFlags())
            assert emit_report(report, "json") == json.dumps(report.to_dict(), indent=2)


def test_real_str_significant_digits():
    assert real_str(0.5) == "0.500000000000"
    assert real_str(0.0) == "0.000000000000"
    assert real_str(8.196152422706632) == "8.19615242271"


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(), st.integers(-(10 ** 14), 10 ** 14)))
@example(5e-324)
@example(-1.7976931348623157e308)
@example(123456789012.0)
@example(1234567890123.0)
def test_real_str_matches_the_digit_splitting_reference(x):
    assert real_str(x) == denseref.real_str(x)


def _entanglement_document(d: int, n: int, kind: str, k: int, rng: random.Random) -> str:
    """A random graph-state (first k generators) or GHZ (random tree) document."""
    if kind == "graph":
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                adj[i][j] = adj[j][i] = rng.randrange(d)
        rows = [["X" if s == i else f"Z^{adj[i][s]}" if adj[i][s] else "I" for s in range(n)]
                for i in range(k)]
    else:
        rows = [[f"X^{rng.randrange(1, d)}"] * n]
        for i in range(1, n):
            parent, e = rng.randrange(i), rng.randrange(1, d)
            row = ["I"] * n
            row[i], row[parent] = f"Z^{e}", f"Z^{d - e}"
            rows.append(row)
        rng.shuffle(rows)
    lines = [f"d={d} n={n} mode=stabilizer"]
    lines += [f"g{i}: " + " ".join(row) for i, row in enumerate(rows, start=1)]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 9),
    st.sampled_from(["graph", "ghz"]),
    st.integers(0, 2 ** 32 - 1),
    st.data(),
)
@example(2, 1, "ghz", 0, None)
@example(3, 2, "graph", 1, None)
@example(5, 2, "ghz", 2, None)
def test_cut_table_matches_the_row_dicts(d, n, kind, seed, data):
    rng = random.Random(seed)
    k = n if kind == "ghz" else rng.randint(1, n)
    doc = parse_document(_entanglement_document(d, n, kind, k, rng))
    report = run_command("entanglement", doc, CommandFlags())
    stab = Stabilizer(doc.generators)
    reports = [stab.gm_measure(q) for q in bipartitions(n)]
    rows = [
        {"Q": list(cut.Q.indices), "rank": cut.rank_Q, "gm": rational_dict(cut.gm_exact)}
        for cut in reports
    ]
    scan = report.result["bipartitions"]
    assert type(scan) is BipartitionScan
    assert len(scan) == len(rows) == 2 ** (n - 1) - 1
    assert list(scan) == reports
    assert report.to_dict()["result"]["bipartitions"] == rows
    assert emit_report(report, "json") == json.dumps(report.to_dict(), indent=2)
    assert emit_report(report, "text") == denseref.report_text(report.to_dict())
    if data is not None and rows:
        i = data.draw(st.integers(-len(rows), len(rows) - 1))
        a, b = (data.draw(st.integers(-len(rows), len(rows))) for _ in range(2))
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        assert scan[i] == reports[i]
        assert scan[a:b:step] == reports[a:b:step]
    with pytest.raises(IndexError):
        scan[len(rows)]


@pytest.mark.parametrize("n", range(1, 13))
def test_cut_sides_texts_render_the_cut_sites(n):
    sites = _cut_sites(n)
    assert len(sites) == 2 ** (n - 1) - 1
    text = _cut_sides("  - Q=[1", [", " + str(s) for s in range(2, n + 1)])
    assert text == [f"  - Q={q}"[:-1] for q in sites]
    pad = "      "
    rows = _cut_sides("[\n" + pad + "1", [",\n" + pad + str(s) for s in range(2, n + 1)])
    assert [row + "\n    ]" for row in rows] == [
        json.dumps(q, indent=2).replace("\n", "\n    ") for q in sites
    ]


def _run_cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "frustgraph", *argv],
        capture_output=True,
        text=True,
        input=stdin,
    )


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "xz.txt"
    good.write_text("d=2 n=1 mode=group\ng1: X\ng2: Z\n")
    proc = _run_cli("analyze", str(good), "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["sos_bound"] == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("d=2 n=1\ng1: X^7\n")
    proc = _run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "exponent-out-of-range" in proc.stderr

    noncommuting = tmp_path / "nc.txt"
    noncommuting.write_text("d=2 n=1\ng1: X\ng2: Z\n")
    proc = _run_cli("entanglement", str(noncommuting))
    assert proc.returncode == 2
    assert "non-commuting" in proc.stderr

    proc = _run_cli("analyze", str(tmp_path / "missing.txt"))
    assert proc.returncode == 2

    zero = tmp_path / "zero.txt"
    zero.write_text("d=0 n=1\ng1: w^1 I\n")
    proc = _run_cli("analyze", str(zero))
    assert proc.returncode == 2
    assert "error[non-prime-modulus]" in proc.stderr


def test_closed_pipe_exits_141_without_traceback():
    # the report is far larger than a pipe buffer, so the write must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "frustgraph", "entanglement", "--builtin", "ghz",
         "--d", "3", "--n", "12", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "schem'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "Exception ignored" not in err


FUZZ_ALPHABET = "XZIxz^-+0123456789=: \n\t#gdnmode"


def mutate(text: str, rng: random.Random) -> str:
    """Delete, insert or replace one to four characters of ``text``."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(chars) + 1)
        op = rng.randrange(3) if pos < len(chars) else 1
        if op == 0:
            del chars[pos]
        elif op == 1:
            chars.insert(pos, rng.choice(FUZZ_ALPHABET))
        else:
            chars[pos] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


def test_fuzzed_documents_exit_cleanly(tmp_path, capsys):
    # a malformed or unsupported document is a usage error (exit 2), never
    # an unhandled exception (exit 1)
    rng = random.Random(20260101)
    path = tmp_path / "fuzzed.txt"
    for source in sorted(DOCS_DIR.glob("*.txt")):
        text = source.read_text()
        for _ in range(50):
            mutated = mutate(text, rng)
            path.write_text(mutated)
            for command in ("analyze", "canonical", "entanglement"):
                code = main([command, str(path), "--format", "json"])
                captured = capsys.readouterr()
                assert code in (0, 2), f"{command} exited {code} on {mutated!r}:\n{captured.err}"


@pytest.mark.parametrize(
    "option",
    [
        ("--restarts", "0"),
        ("--tol", "0"),
        ("--seed", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--tol", "-1"),
    ],
)
def test_cli_rejects_bad_optimizer_option(option, capsys):
    argv = ["verify", "--builtin", "five_qudit", "--d", "3", "--sos", *option]
    assert main(argv) == 2
    assert "error[invalid-option]" in capsys.readouterr().err


def test_entanglement_scans_the_cuts_once(monkeypatch):
    scans = []
    original = Stabilizer.bipartition_reports

    def counted(self, *args, **kwargs):
        scans.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Stabilizer, "bipartition_reports", counted)
    doc = document_from_stabilizer(builtin_code("five_qudit", 3, 5))
    report = run_command("entanglement", doc, CommandFlags())
    assert len(scans) == 1
    assert report.result["is_gme"] is True


def _count_scan_items(monkeypatch) -> list:
    calls = []
    original = BipartitionScan.__getitem__

    def counted(self, i):
        calls.append(i)
        return original(self, i)

    monkeypatch.setattr(BipartitionScan, "__getitem__", counted)
    return calls


def test_entanglement_writers_build_no_cut_row(monkeypatch):
    # both writers render the 2047 cuts from the scan, without indexing it
    calls = _count_scan_items(monkeypatch)
    report = run_command(
        "entanglement", document_from_stabilizer(builtin_code("ghz", 3, 12)), CommandFlags()
    )
    json_text, text = emit_report(report, "json"), emit_report(report, "text")
    assert calls == []
    plain = report.to_dict()["result"]["bipartitions"]
    assert type(plain) is list and len(plain) == 2047
    assert calls == []
    assert json_text == json.dumps(report.to_dict(), indent=2)
    assert text == denseref.report_text(report.to_dict())


def test_verify_overlap_builds_no_cut_report(monkeypatch):
    # the per-cut comparison reads the scan's ranks and measures beside the overlaps
    calls = _count_scan_items(monkeypatch)
    doc = document_from_stabilizer(builtin_code("five_qudit", 2, 5))
    report = run_command("verify", doc, CommandFlags(checks=("overlap",)))
    assert calls == []
    assert report.result["all_pass"] is True


def test_cli_reports_are_deterministic(tmp_path):
    doc = tmp_path / "ghz.txt"
    doc.write_text("d=2 n=3 mode=stabilizer\ng1: X X X\ng2: Z Z I\ng3: I Z Z\n")
    first = _run_cli("entanglement", str(doc), "--format", "json", "--seed", "5")
    second = _run_cli("entanglement", str(doc), "--format", "json", "--seed", "5")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    swap1 = _run_cli("verify", "--swap", "--d", "3", "--format", "json")
    swap2 = _run_cli("verify", "--swap", "--d", "3", "--format", "json")
    assert swap1.stdout == swap2.stdout
    assert swap1.returncode == 0


def test_cli_builtin_entanglement():
    proc = _run_cli(
        "entanglement", "--builtin", "five_qudit", "--d", "2", "--format", "json"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["ggm"]["real"] == "0.500000000000"


def test_analyze_eliminates_once(monkeypatch):
    original = gf.rank
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    patched = [
        name
        for name, module in sorted(sys.modules.items())
        if name.startswith("frustgraph") and getattr(module, "rank", None) is original
    ]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "rank", counted)
    assert "frustgraph.symplectic" in patched  # the normal form's residual check
    doc = parse_document((DOCS_DIR / "ghz3_d3.txt").read_text())
    report = run_command("analyze", doc, CommandFlags())
    assert report.result["sum_bound"] is not None  # odd d: every rank reader runs
    assert calls == [(3, 3)]
