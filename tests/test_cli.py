import io
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

from oracles import clear_memos
from videal import cli, decomposition, expansion, filtrations
from videal.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNEQUAL,
    EXIT_USAGE,
    _HANDLERS,
    main,
    run_fuzz,
    run_text,
)
from videal.decomposition import associated_primes
from videal.errors import InternalError, VidealError
from videal.expansion import TheoremReport, verify_theorem
from videal.filtrations import FiltrationKind
from videal.ideals import PrimeSupport
from videal.parser import _SIGNATURES, parse_session
from videal.rings import Monomial
from videal.vnumbers import VReport

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


# ordinary, symb-ass and intclos share one verdict of (I, J) at k = 2;
# symb-min drops the embedded component (x, y)^2 of I^2, so its verdict
# is another.
SHARED_VERDICT = (
    "ring A = [x, y]; ring B = [u]; ideal I in A = (x^2, x*y); ideal J in B = (u);\n"
    + "".join(f"verify-theorem kind={kind.value} k=2 I J;\n" for kind in FiltrationKind)
)


def assert_sorted_json_lines(lines):
    """Each line is one object in json.dumps(obj, sort_keys=True) form."""
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


@pytest.mark.parametrize("path", GOOD + BAD, ids=[p.stem for p in GOOD + BAD])
def test_corpus_json_lines_are_sorted_dumps(path):
    assert_sorted_json_lines(run_text(path.read_text(), "json")[1])


def test_fuzz_json_lines_are_sorted_dumps():
    code, lines = run_fuzz(50, 3, "json")
    assert code == EXIT_OK
    assert_sorted_json_lines(lines)


def test_shared_verdict_lines_are_sorted_dumps():
    session = parse_session(SHARED_VERDICT)
    i, j = session.ideals["I"], session.ideals["J"]
    rows = {kind: verify_theorem(kind, i, j, 2).rows for kind in FiltrationKind}
    ordinary = rows[FiltrationKind.ORDINARY]
    assert [kind for kind in FiltrationKind if rows[kind] is ordinary] == [
        FiltrationKind.ORDINARY, FiltrationKind.SYMBOLIC_ASS, FiltrationKind.INTEGRAL_CLOSURE,
    ]
    code, lines = run_text(SHARED_VERDICT, "json")
    assert code == EXIT_OK
    assert_sorted_json_lines(lines)
    reports = [json.loads(line)["report"] for line in lines]
    assert reports[0] == reports[1] == reports[3] != reports[2]
    assert [json.loads(line)["kind"] for line in lines] == [kind.value for kind in FiltrationKind]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_run_renders_each_distinct_verdict_once(monkeypatch, fmt):
    """Two distinct verdicts, one rendering each, in each of two runs; the
    output is what rendering every command would print."""
    expected = run_text(SHARED_VERDICT, fmt)
    rendered = []

    def counted(report):
        rendered.append(report.kind)
        return theorem_json(report)

    theorem_json = cli._theorem_json
    monkeypatch.setattr(cli, "_theorem_json", counted)
    assert run_text(SHARED_VERDICT, fmt) == expected
    assert rendered == [FiltrationKind.ORDINARY, FiltrationKind.SYMBOLIC_MIN]
    assert run_text(SHARED_VERDICT + SHARED_VERDICT.split("\n", 1)[1], fmt) == (
        expected[0], expected[1] + expected[1]
    )
    assert len(rendered) == 4


def test_a_fuzz_draw_renders_each_of_its_distinct_verdicts_once(monkeypatch):
    """The render map lives for one draw: a draw renders as many reports
    as its four kinds have distinct verdicts, and the output is what
    rendering every kind would print."""
    expected = run_fuzz(30, 3, "json")
    reports, rendered = [], []

    def recorded(*args):
        reports.append(verify(*args))
        return reports[-1]

    def counted(report):
        rendered.append(report)
        return theorem_json(report)

    verify, theorem_json = cli.verify_theorem, cli._theorem_json
    monkeypatch.setattr(cli, "verify_theorem", recorded)
    monkeypatch.setattr(cli, "_theorem_json", counted)
    assert run_fuzz(30, 3, "json") == expected
    draws = [reports[start:start + 4] for start in range(0, len(reports), 4)]
    assert len(draws) == 30
    assert len(rendered) == sum(len({id(r.rows) for r in draw}) for draw in draws) < len(reports)


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


def expected_error(fmt, code, message, line=None, col=None):
    """The error line run_text should print; a JSON one is first checked
    against the schema."""
    if fmt == "text":
        return f"error ({code}){'' if line is None else f' at {line}:{col}'}: {message}"
    err = {"code": code, "message": message}
    if line is not None:
        err |= {"line": line, "col": col}
    obj = {"error": err}
    jsonschema.validate(obj, SCHEMA)
    return json.dumps(obj, sort_keys=True)


ONE_VAR = "ring A = [x]; ideal I in A = (x);"
PAIR = "ring A = [x]; ring B = [y]; ideal I in A = (x); ideal J in B = (y);"


@pytest.mark.parametrize("field, value", [
    (("report", "non_mixed_primes"), [["x"]]),
    (("result", "method"), "brute-force"),
], ids=["non-mixed-prime", "brute-force-method"])
def test_schema_states_the_invariants(field, value):
    """Every associated prime of a verdict is mixed, and every v-number
    comes from the candidate generator: a record saying otherwise is
    invalid."""
    session = f"{PAIR} verify-theorem kind=ordinary k=1 I J; vnum I;"
    code, lines = run_text(session, "json")
    assert code == EXIT_OK
    section, key = field
    record = next(r for r in map(json.loads, lines) if section in r)
    jsonschema.validate(record, SCHEMA)
    record[section][key] = value
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(record, SCHEMA)


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cap", [
    "1000000", "9" * getattr(sys, "get_int_max_str_digits", lambda: 4300)()
], ids=["limit", "digit-limit"])
def test_check_property_refuses_a_cap_at_the_limit_without_counting(monkeypatch, cap, fmt):
    """Every degree holds a monomial, so a cap at the limit is refused
    before a single binomial is summed."""
    def comb(n, k):
        raise AssertionError("comb called")

    monkeypatch.setattr(filtrations, "comb", comb)
    session = f"ring A = [x]; ideal I in A = (x); check-property kind=ordinary k=1 cap={cap} I;"
    message = ("check-property would enumerate more than 1,000,000 monomials; "
               "lower the degree cap")
    assert run_text(session, fmt) == (EXIT_USAGE, [expected_error(fmt, "input", message)])


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("session, code, message, col", [
    ("ring A = [x y];", "parse", "expected ',' or ']' in variable list", 13),
    ("ring A = [x]; ideal I in A = (x x);", "parse", "expected ',' or ')' in generator list", 33),
    (f"{ONE_VAR} power k=; I;", "parse", "expected a value, found ';'", 43),
    (f"{ONE_VAR} power I k=", "parse", "expected a value, found 'end of input'", 45),
    (f"{ONE_VAR} vnum k=2 I;", "parse", "command 'vnum' takes no argument 'k'", 40),
    (f"{ONE_VAR} power k=2 k=3 I;", "parse", "duplicate argument 'k'", 45),
    (f"{ONE_VAR} verify-theorem kind=ordinary k=1 I;", "parse",
     "command 'verify-theorem' needs 2 ideal argument(s), got 1", 35),
    (f"{PAIR} verify-theorem kind=ordinary k=0 I J;", "input",
     "expansion checks need k >= 1", None),
    (f"{PAIR} verify-expansion kind=ordinary k=0 I J;", "input",
     "expansion checks need k >= 1", None),
    (f"{ONE_VAR} check-property kind=ordinary k=0 I;", "input",
     "the drop-by-one property needs k >= 1", None),
    (f"{ONE_VAR} ntf k=0 I;", "input", "k_max must be at least 1", None),
], ids=["variable-list", "generator-list", "missing-value", "missing-value-at-end",
        "unknown-argument", "duplicate-argument", "one-ideal-theorem", "theorem-k0",
        "expansion-k0", "property-k0", "ntf-k0"])
def test_error_paths_outside_the_corpus(session, code, message, col, fmt):
    """Parse and input errors that no corpus session reaches: one error
    line and exit 2 in either format."""
    line = None if col is None else 1
    assert run_text(session, fmt) == (EXIT_USAGE, [expected_error(fmt, code, message, line, col)])


@pytest.fixture
def non_mixed_direct_prime(monkeypatch):
    """Give every witness table of a 2-variable ring a first entry for the
    prime (x) of its first variable, as if the direct side of an instance
    with one variable per summand had an associated prime in I's variables
    only.  The verdict memo is cleared around it: an error is never
    cached, but a warm verdict would not read the patched tables."""
    witnesses = expansion._witnesses

    def patched(a):
        table = witnesses(a)
        if a.ring.nvars != 2:
            return table
        prime = PrimeSupport(a.ring, (0,))
        return {(0,): VReport(0, Monomial(a.ring, (0, 0)), prime)} | dict(table)

    monkeypatch.setattr(expansion, "_witnesses", patched)
    expansion._verdict.cache_clear()
    yield
    expansion._verdict.cache_clear()


def test_a_non_mixed_prime_is_an_internal_error(non_mixed_direct_prime):
    session = parse_session(PAIR)
    i, j = session.ideals["I"], session.ideals["J"]
    with pytest.raises(InternalError, match=r"associated prime \(x\) of \(x, y\) is not mixed"):
        verify_theorem(FiltrationKind.ORDINARY, i, j, 1)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_internal_error_ends_the_session_with_exit_three(non_mixed_direct_prime, fmt):
    session = f"{PAIR} vnum I; verify-theorem kind=ordinary k=1 I J; vnum J;"
    first = {
        "text": "v(I) = 0, prime = (x), witness = 1",
        "json": '{"command": "vnum", "inputs": ["I"], "result": {"degree": 0, '
                '"method": "candidate-generator", "prime": ["x"], "witness": "1"}}',
    }[fmt]
    error = expected_error(fmt, "internal", "associated prime (x) of (x, y) is not mixed")
    assert run_text(session, fmt) == (EXIT_INTERNAL, [first, error])
    if fmt == "json":
        jsonschema.validate(json.loads(first), SCHEMA)


NO_RAISE = "ring R = [x, y, z]; ideal I in R = (x*y, x*z);"


@pytest.fixture
def no_raise_found(monkeypatch):
    """Make every witness search find nothing, on cleared memos.  Every
    support's witness goes through ``_raise_search``, so the table of
    Ass((x*y, x*z)) finds no witness for its first support, (x), and
    fails before any witness is certified.  The memos are cleared again
    afterwards, so no table built under the patch outlives the test."""
    clear_memos()
    monkeypatch.setattr(decomposition, "_raise_search", lambda *args: None)
    yield parse_session(NO_RAISE).ideals["I"]
    clear_memos()


def test_a_support_with_no_witness_is_an_internal_error(no_raise_found):
    with pytest.raises(InternalError) as raised:
        associated_primes(no_raise_found)
    assert str(raised.value) == "witness search found no f for (x) in Ass((x*y, x*z))"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_support_with_no_witness_ends_the_session_with_exit_three(no_raise_found, fmt):
    error = expected_error(fmt, "internal", "witness search found no f for (x) in Ass((x*y, x*z))")
    assert run_text(f"{NO_RAISE} vnum I;", fmt) == (EXIT_INTERNAL, [error])


def test_fuzz_reports_an_unmet_hypothesis():
    """Seed 0 draws one integral-closure instance whose binomial
    expansion fails: reported, not counted as a mismatch."""
    first = "I=(x1*x2^2) J=(y1^2, y1*y2)"
    assert run_fuzz(2, 0, "text") == (EXIT_OK, [
        f"fuzz[0] kind=ordinary k=2 {first}: OK",
        f"fuzz[0] kind=symb-ass k=2 {first}: OK",
        f"fuzz[0] kind=symb-min k=2 {first}: OK",
        f"fuzz[0] kind=intclos k=2 {first}: HYPOTHESIS-UNMET",
        "fuzz[1] kind=ordinary k=1 I=(x1^2) J=(y1): OK",
        "fuzz[1] kind=symb-ass k=1 I=(x1^2) J=(y1): OK",
        "fuzz[1] kind=symb-min k=1 I=(x1^2) J=(y1): OK",
        "fuzz[1] kind=intclos k=1 I=(x1^2) J=(y1): OK",
        "fuzz: 2 instances, 0 mismatches, 1 hypothesis-unmet",
    ])
    code, lines = run_fuzz(2, 0, "json")
    assert code == EXIT_OK
    records = [json.loads(line) for line in lines]
    for record in records:
        jsonschema.validate(record, SCHEMA)
    assert [r["status"] for r in records[:-1]].count("HYPOTHESIS-UNMET") == 1
    assert records[-1] == {"command": "fuzz-summary", "instances": 2, "mismatches": 0,
                           "hypothesis_unmet": 1}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fuzz_counts_mismatches(monkeypatch, fmt):
    monkeypatch.setattr(TheoremReport, "ok", property(lambda self: False))
    code, lines = run_fuzz(2, 0, fmt)
    assert code == EXIT_UNEQUAL
    # 2 instances x 4 kinds, less the one unmet hypothesis.
    if fmt == "text":
        assert sum(line.endswith(": MISMATCH") for line in lines) == 7
        assert lines[-1] == "fuzz: 2 instances, 7 mismatches, 1 hypothesis-unmet"
    else:
        records = [json.loads(line) for line in lines]
        assert [r["status"] for r in records[:-1]].count("MISMATCH") == 7
        assert records[-1]["mismatches"] == 7
        for record in records:
            jsonschema.validate(record, SCHEMA)


def test_check_property_in_a_wide_ring():
    """Degree enumeration in a 1,200-variable ring stays within the
    interpreter's recursion limit."""
    text = f"{WIDE_RING} check-property kind=ordinary k=1 cap=0 I;"
    assert run_text(text, "text") == (
        EXIT_OK,
        ["check-property kind=ordinary k=1 cap=0 I: 1 witnesses, 0 violations, PASS"],
    )


VIOLATED = "ring A = [x, y]; ideal I in A = (x^2); check-property kind=ordinary k=2 cap=4 I;"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_check_property_violation_fails_the_run(monkeypatch, fmt):
    """With the first member of (x^2) swapped for the second, the
    witnesses x^3 and x^3*y of (x^4) lie outside the member before it:
    each is a violation, the check fails and the run exits 1."""
    member = filtrations.filtration_member
    monkeypatch.setattr(filtrations, "filtration_member",
                        lambda kind, a, k: member(kind, a, 2 if k == 1 else k))
    code, lines = run_text(VIOLATED, fmt)
    assert code == EXIT_UNEQUAL
    if fmt == "text":
        assert lines == ["check-property kind=ordinary k=2 cap=4 I: "
                         "2 witnesses, 2 violations, FAIL"]
        return
    (line,) = lines
    record = json.loads(line)
    jsonschema.validate(record, SCHEMA)
    assert record["report"]["passed"] is False
    assert record["report"]["violations"] == ["x^3", "x^3*y"]
    assert [w["monomial"] for w in record["report"]["witnesses"]] == ["x^3", "x^3*y"]


def test_the_schema_requires_an_integer_global_rhs():
    """Every corpus JSON line validates; each verify-theorem line among
    them fails once its global rhs is null, which no verdict emits."""
    theorems = []
    for path in sorted(EXPECTED.glob("*.json.out")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            jsonschema.validate(record, SCHEMA)
            if record.get("command") == "verify-theorem":
                theorems.append(record)
    assert theorems
    for record in theorems:
        record["report"]["global"]["rhs"] = None
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(record, SCHEMA)


def test_a_row_with_no_admissible_depth_renders_as_none():
    """No verdict of the suite has a direct prime that splits into primes
    associated at no depth; such a row, made by hand, renders its rhs as
    null and as none, and is unequal."""
    session = parse_session(PAIR)
    report = verify_theorem(FiltrationKind.ORDINARY, session.ideals["I"], session.ideals["J"], 1)
    (row,) = report.rows
    report = replace(report, rows=(replace(row, rhs=None),))
    fields = cli._theorem_json(report)
    assert fields["rows"][0]["rhs"] is None and fields["rows"][0]["equal"] is False
    assert fields["ok"] is False and fields["global"]["rhs"] == 0
    jsonschema.validate({"command": "verify-theorem", "inputs": ["I", "J"], "k": 1,
                         "kind": "ordinary", "report": fields}, SCHEMA)
    assert list(cli._theorem_text(report, "verify-theorem kind=ordinary k=1 I J")) == [
        "verify-theorem kind=ordinary k=1 I J: expansion HOLDS",
        "  prime (x, y): lhs = 0 (witness 1), rhs = none, UNEQUAL",
        "  global: v = 0, formula = 0, EQUAL",
        "  result: MISMATCH",
    ]


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
