import io
import json
import os
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from videal import cli
from videal.cli import (
    EXIT_OK,
    EXIT_UNEQUAL,
    EXIT_USAGE,
    _HANDLERS,
    main,
    run_fuzz,
    run_text,
)
from videal.errors import VidealError
from videal.parser import _SIGNATURES, parse_session

HERE = Path(__file__).parent
CORPUS = HERE / "corpus"
EXPECTED = CORPUS / "expected"
SCHEMA = json.loads((HERE.parent / "schemas" / "output.schema.json").read_text())
REGEN = os.environ.get("VIDEAL_REGEN") == "1"

GOOD = sorted((CORPUS / "good").glob("*.vid"))
BAD = sorted((CORPUS / "bad").glob("*.vid"))


def run_corpus_file(path: Path, fmt: str) -> tuple[int, str]:
    code, lines = run_text(path.read_text(), fmt)
    return code, "\n".join(lines) + ("\n" if lines else "")


def check_against_golden(path: Path, fmt: str):
    code, output = run_corpus_file(path, fmt)
    out_file = EXPECTED / f"{path.stem}.{fmt}.out"
    code_file = EXPECTED / f"{path.stem}.{fmt}.exit"
    if REGEN:
        out_file.write_text(output)
        code_file.write_text(f"{code}\n")
    assert out_file.exists(), f"golden missing; regenerate with VIDEAL_REGEN=1 ({out_file})"
    assert output == out_file.read_text(), f"output drifted for {path.name} [{fmt}]"
    assert code == int(code_file.read_text().strip())
    return code, output


@pytest.mark.parametrize("path", GOOD, ids=[p.stem for p in GOOD])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_good_corpus_outputs_stable(path, fmt):
    code, output = check_against_golden(path, fmt)
    assert code in (EXIT_OK, EXIT_UNEQUAL)
    if fmt == "json":
        for line in output.splitlines():
            jsonschema.validate(json.loads(line), SCHEMA)


@pytest.mark.parametrize("path", BAD, ids=[p.stem for p in BAD])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bad_corpus_outputs_stable(path, fmt):
    code, output = check_against_golden(path, fmt)
    assert code == EXIT_USAGE
    if fmt == "json":
        for line in output.splitlines():
            jsonschema.validate(json.loads(line), SCHEMA)


@pytest.mark.parametrize("path", GOOD, ids=[p.stem for p in GOOD])
def test_good_corpus_round_trips(path):
    """Printing every declared ideal and re-parsing gives the same ideal."""
    session = parse_session(path.read_text())
    for name, original in session.ideals.items():
        ring = original.ring
        decl = (
            f"ring {ring.name} = [{', '.join(ring.vars)}];"
            f"ideal T in {ring.name} = {original};"
        )
        assert parse_session(decl).ideals["T"] == original


def test_outputs_identical_across_runs():
    text = (CORPUS / "good" / "12_verify_theorem_ord.vid").read_text()
    first = run_text(text, "json")
    second = run_text(text, "json")
    assert first == second


def test_verify_failure_sets_exit_one():
    text = (
        "ring A = [x]; ring B = [y];"
        "ideal I in A = (x^2); ideal J in B = (y^2);"
        "verify-expansion kind=intclos k=1 I J;"
    )
    code, lines = run_text(text, "text")
    assert code == EXIT_UNEQUAL
    assert "FAILS" in lines[0]


FAILING_SESSION = (
    "ring A = [x]; ring B = [y]; ideal I in A = (x^2); ideal J in B = (y^2);\n"
    "verify-expansion kind=intclos k=1 I J; verify-theorem kind=intclos k=1 I J;\n"
)
FAILING_OUTPUT = {
    "text": [
        "verify-expansion kind=intclos k=1 I J: FAILS; direct = (x^2, x*y, y^2); "
        "expanded = (x^2, y^2); witnesses = [x*y]",
        "verify-theorem kind=intclos k=1 I J: expansion FAILS",
        "  direct   = (x^2, x*y, y^2)",
        "  expanded = (x^2, y^2)",
        "  mismatch witnesses: x*y",
        "  prime (x, y): lhs = 1 (witness x), rhs = 2, d in [0], UNEQUAL",
        "  global: v = 1, formula = 2, UNEQUAL",
        "  result: MISMATCH",
    ],
    "json": [
        '{"command": "verify-expansion", "inputs": ["I", "J"], "k": 1, "kind": "intclos", '
        '"report": {"direct": ["x^2", "x*y", "y^2"], "expanded": ["x^2", "y^2"], '
        '"holds": false, "mismatch_witnesses": ["x*y"]}}',
        '{"command": "verify-theorem", "inputs": ["I", "J"], "k": 1, "kind": "intclos", '
        '"report": {"expansion_holds": false, "findings": ["binomial expansion fails; '
        'the min-formula hypothesis is unmet", "direct v-number 1 beats the mixed-prime '
        'formula 2; non-mixed primes present: none"], "global": {"equal": false, "lhs": 1, '
        '"prime": ["x", "y"], "rhs": 2}, "non_mixed_primes": [], "ok": false, "rows": '
        '[{"equal": false, "lhs": 1, "lhs_witness": "x", "p": ["x"], "prime": ["x", "y"], '
        '"q": ["y"], "rhs": {"achieved_d": [0], "value": 2}}]}}',
    ],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failure_branches_are_byte_stable(fmt):
    """The FAILS and UNEQUAL branches of both verifiers, which no corpus
    session reaches: every line and the exit code."""
    assert run_text(FAILING_SESSION, fmt) == (EXIT_UNEQUAL, FAILING_OUTPUT[fmt])
    if fmt == "json":
        for line in FAILING_OUTPUT[fmt]:
            jsonschema.validate(json.loads(line), SCHEMA)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("session", [None, "12_verify_theorem_ord", "20_mixed"])
def test_verdict_text_is_formatted_only_when_printed(session, fmt):
    """A JSON session never gets a formatted line out of _theorem_text; a
    text session does.  Either output stays byte for byte as before.

    CPython 3.11 enters a generator's frame to close it even if it never
    started, so the test watches for a value handed back (a yielded line,
    or a returned list of lines), not for a call.
    """
    code = cli._theorem_text.__code__
    formatted = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is code and arg is not None:
            formatted.append(arg)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        if session is None:
            assert run_text(FAILING_SESSION, fmt) == (EXIT_UNEQUAL, FAILING_OUTPUT[fmt])
        else:
            check_against_golden(CORPUS / "good" / f"{session}.vid", fmt)
    finally:
        sys.setprofile(previous)
    assert bool(formatted) == (fmt == "text")


def test_a_failing_text_block_prints_none_of_its_lines(monkeypatch):
    def failing(report, label):
        yield f"{label}: expansion HOLDS"
        raise VidealError("late failure")

    monkeypatch.setattr(cli, "_theorem_text", failing)
    text = "ring A = [x]; ring B = [y]; ideal I in A = (x); ideal J in B = (y); vnum I;"
    assert run_text(text + " verify-theorem kind=ordinary k=1 I J;", "text") == (
        EXIT_USAGE, ["v(I) = 0, prime = (x), witness = 1", "error (input): late failure"]
    )


WIDE_RING = "ring A = [{}]; ideal I in A = (x0);".format(", ".join(f"x{i}" for i in range(1200)))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("session", [
    f"{WIDE_RING} check-property kind=ordinary k=1 I;",
    "ring A = [x]; ideal I in A = (x); check-property kind=ordinary k=1 cap={cap} I;",
], ids=["wide-ring-default-cap", "cap-at-the-digit-limit"])
def test_check_property_enumeration_is_bounded(session, fmt):
    """The default cap=6 in a 1,200-variable ring spans about 4 * 10^15
    monomials, and a cap at the int/str digit limit is past any count: a
    typed input error, at once, instead of a hang."""
    cap = "9" * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    start = time.perf_counter()
    code, lines = run_text(session.replace("{cap}", cap), fmt)
    assert time.perf_counter() - start < 2
    assert code == EXIT_USAGE and len(lines) == 1
    message = ("check-property would enumerate more than 1,000,000 monomials; "
               "lower the degree cap")
    if fmt == "text":
        assert lines == [f"error (input): {message}"]
    else:
        obj = json.loads(lines[0])
        assert obj == {"error": {"code": "input", "message": message}}
        jsonschema.validate(obj, SCHEMA)


def test_check_property_in_a_wide_ring():
    """Degree enumeration in a 1,200-variable ring stays within the
    interpreter's recursion limit."""
    text = f"{WIDE_RING} check-property kind=ordinary k=1 cap=0 I;"
    assert run_text(text, "text") == (
        EXIT_OK,
        ["check-property kind=ordinary k=1 cap=0 I: 1 witnesses, 0 violations, PASS"],
    )


def test_error_aborts_remaining_commands():
    text = "ring A = [x]; ideal I in A = (1); vnum I; mingens I;"
    code, lines = run_text(text, "json")
    assert code == EXIT_USAGE
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("ring A = [x]; ideal I in A = (x^2); vnum I;"))
    code = main(["--input", "-"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "v(I) = 1" in out


def test_main_requires_input_or_fuzz(capsys):
    code = main([])
    assert code == EXIT_USAGE
    assert "no --input" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["--format", "xml"], EXIT_USAGE),
    (["--seed", "x"], EXIT_USAGE),
    (["--bogus"], EXIT_USAGE),
    (["--help"], EXIT_OK),
], ids=["bad-choice", "bad-int", "unknown-flag", "help"])
def test_main_argparse_exits(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out if code == EXIT_OK else err).startswith("usage: videal")


def test_main_missing_file(capsys):
    code = main(["--input", "/nonexistent/path.vid"])
    assert code == EXIT_USAGE


def test_fuzz_smoke_deterministic():
    code_a, lines_a = run_fuzz(2, seed=5, fmt="json")
    code_b, lines_b = run_fuzz(2, seed=5, fmt="json")
    assert (code_a, lines_a) == (code_b, lines_b)
    assert code_a == EXIT_OK
    for line in lines_a:
        jsonschema.validate(json.loads(line), SCHEMA)
    summary = json.loads(lines_a[-1])
    assert summary["command"] == "fuzz-summary"
    assert summary["mismatches"] == 0


def test_fuzz_cli_entry(capsys):
    code = main(["--fuzz", "1", "--seed", "3", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "fuzz:" in out.splitlines()[-1]


def test_command_table_and_handlers_agree():
    assert set(_HANDLERS) == set(_SIGNATURES)


MALFORMED_NUMBERS = [
    "ring A = [x]; ideal I in A = (x); power k=\u00b2 I;",
    "ring A = [x]; ideal I in A = (x^\u00b2); vnum I;",
    "ring A = [x]; ideal I in A = (x^" + "7" * 5000 + "); vnum I;",
]


@pytest.mark.parametrize("text", MALFORMED_NUMBERS, ids=["k-superscript", "exp-superscript", "exp-5000-digits"])
def test_malformed_number_is_parse_error(text):
    code, lines = run_text(text, "text")
    assert code == EXIT_USAGE
    assert len(lines) == 1 and lines[0].startswith("error (parse) at 1:")
    code, lines = run_text(text, "json")
    assert code == EXIT_USAGE
    obj = json.loads(lines[0])
    assert obj["error"]["code"] == "parse"
    jsonschema.validate(obj, SCHEMA)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_unprintable_output_exponent_is_input_error():
    # The literal is at the int/str digit limit, and its square is past it.
    text = f"ring A = [x]; ideal I in A = (x^{'9' * sys.get_int_max_str_digits()}); power k=2 I;"
    code, lines = run_text(text, "text")
    assert code == EXIT_USAGE
    assert lines == ["error (input): the exponent of x has too many digits to print"]
    code, lines = run_text(text, "json")
    assert code == EXIT_USAGE
    obj = json.loads(lines[-1])
    assert len(lines) == 1 and obj["error"]["code"] == "input"
    jsonschema.validate(obj, SCHEMA)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("session, message", [
    # The exponents are at the int/str digit limit; each v-number below
    # is 2 * 10^limit - 4, one digit more.
    ("ring A = [x, y]; ideal I in A = (x^{n}, y^{n}); vnum I;",
     "v(I) has too many digits to print"),
    ("ring A = [x]; ring B = [y]; ideal I in A = (x^{n}); ideal J in B = (y^{n}); "
     "verify-theorem kind=ordinary k=1 I J;",
     "the v-number at (x, y) has too many digits to print"),
], ids=["vnum", "verify-theorem"])
def test_unprintable_output_integer_is_input_error(fmt, session, message):
    code, lines = run_text(session.format(n="9" * sys.get_int_max_str_digits()), fmt)
    assert code == EXIT_USAGE
    if fmt == "text":
        assert lines == [f"error (input): {message}"]
    else:
        assert [json.loads(line) for line in lines] == [{"error": {"code": "input", "message": message}}]
        jsonschema.validate(json.loads(lines[0]), SCHEMA)


def test_closure_of_the_zeroth_power_is_the_unit_ideal():
    text = "ring A = [x, y]; ideal I in A = (x^2, y^3); intclos k=0 I;"
    for fmt, line in (
        ("text", "closure(I^0) = (1)"),
        ("json", '{"command": "intclos", "inputs": ["I"], "k": 0, "result": ["1"]}'),
    ):
        assert run_text(text, fmt) == (EXIT_OK, [line])
    jsonschema.validate(json.loads(line), SCHEMA)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_main_undecodable_file(tmp_path, capsys, fmt):
    path = tmp_path / "latin1.vid"
    path.write_bytes(b"ring A = [x]; \xff")
    code = main(["--input", str(path), "--format", fmt])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    if fmt == "json":
        assert json.loads(err)["error"]["code"] == "usage"
    else:
        assert err.startswith("error (usage): ")
