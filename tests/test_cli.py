import io
import json
import os
import sys
from pathlib import Path

import jsonschema
import pytest

from videal.cli import (
    EXIT_OK,
    EXIT_UNEQUAL,
    EXIT_USAGE,
    _Runner,
    main,
    run_fuzz,
    run_text,
)
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
    handlers = {name[4:] for name in vars(_Runner) if name.startswith("cmd_")}
    assert handlers == {name.replace("-", "_") for name in _SIGNATURES}


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


def test_closure_of_the_zeroth_power_is_input_error():
    text = "ring A = [x, y]; ideal I in A = (x^2, y^3); intclos k=0 I;"
    for fmt, line in (
        ("text", "error (input): operation requires a proper nonzero ideal, got the unit ideal"),
        ("json", '{"error": {"code": "input", "message": '
                 '"operation requires a proper nonzero ideal, got the unit ideal"}}'),
    ):
        assert run_text(text, fmt) == (EXIT_USAGE, [line])


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
