"""Input grammar, report emission, and the command-line contract."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frustgraph import (
    DimensionMismatch,
    ExponentOutOfRange,
    ParseError,
    PauliOperator,
)
from frustgraph import gf
from frustgraph.cli import (
    CommandFlags,
    Report,
    document_from_stabilizer,
    emit_report,
    main,
    parse_document,
    rational_dict,
    real_str,
    run_command,
    serialize_document,
)
from frustgraph.stabilizer import Stabilizer, builtin_code

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
    assert first["Q"] == [1]
    assert first["gm"]["num"] == 1 and first["gm"]["den"] == 2


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
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example({})
@example({"": [], "\"quote\\back\x00\x1f\u00e9\u2603\U0001f600": {"a": {}}})
@example([[1, True], [0, None], [-0.0, float("nan")], [2 ** 64, -(2 ** 64)]])
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
    assert "frustgraph.group" in patched
    doc = parse_document((DOCS_DIR / "ghz3_d3.txt").read_text())
    report = run_command("analyze", doc, CommandFlags())
    assert report.result["sum_bound"] is not None  # odd d: every rank reader runs
    assert calls == [(3, 3)]
