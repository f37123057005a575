"""Command-line front end: session execution and deterministic output.

The parser's ``_SIGNATURES`` and ``_HANDLERS`` here are the two command
tables, with the same keys.  A handler takes a command and its ideals and
returns the JSON fields after the record header (for ``verify-theorem``,
its report), a function that builds the text lines, and whether it found
an inequality.  The fields are built in both formats, since building
them checks that every integer printed is within the int/str digit
limit; the text lines only in text mode.

Text mode prints one human-readable block per command; JSON mode prints
one JSON object per command (JSON Lines, sorted keys).  Every JSON line
is encoded by one module-level encoder, ``_ENCODE``.  A session line is
its encoded header with the closing brace cut, joined to its encoded
fields with the opening brace cut: every header key sorts before every
field key, so the line is the whole object's sorted encoding.  A
session renders each distinct verdict once (``_once``), and a fuzz run
once per draw: the kinds whose members coincide share one ``_verdict``
result, and so one rendered report.
Exit codes: 0 success, 1 a verification found an inequality, 2 usage or
parse or input errors, 3 internal errors.
"""

import argparse
import json
import random
import sys
from typing import Callable, Iterable, Iterator

from .decomposition import associated_primes, irreducible_decomposition, minimal_primes
from .errors import InternalError, ParseError, VidealError
from .expansion import TheoremReport, verify_expansion, verify_theorem
from .filtrations import (
    FiltrationKind,
    check_filtration_property,
    filtration_member,
    integral_closure,
    normally_torsion_free,
)
from .ideals import MonomialIdeal, colon_ideal, colon_monomial, power
from .parser import Command, parse_session
from .randgen import random_pair
from .vnumbers import v_number

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# json.dumps(obj, sort_keys=True) builds an encoder per call; this one is
# built once and holds no state between calls.
_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _gens_list(ideal: MonomialIdeal) -> list[str]:
    return [str(g) for g in ideal.gens]


def _prime_list(prime) -> list[str]:
    return list(prime.var_names)


def _printable(n: int | None, what: str, *args) -> int | None:
    """n, once str(n) is known to work: an output integer past the
    int/str digit limit is bad input, not a traceback.  The message names
    what.format(*args), built only then."""
    try:
        str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise VidealError(f"{what.format(*args)} has too many digits to print") from None
    return n


def _theorem_json(report: TheoremReport) -> dict:
    rows = []
    for row in report.rows:
        rows.append(
            {
                "prime": _prime_list(row.prime),
                "p": _prime_list(row.p),
                "q": _prime_list(row.q),
                "lhs": _printable(row.lhs, "the v-number at {}", row.prime),
                "lhs_witness": str(row.lhs_witness),
                "rhs": None
                if row.rhs is None
                else {"value": _printable(row.rhs.value, "the formula value at {}", row.prime),
                      "achieved_d": list(row.rhs.achieved)},
                "equal": row.equal,
            }
        )
    return {
        "expansion_holds": report.expansion.expansion_holds,
        "rows": rows,
        "non_mixed_primes": [_prime_list(p) for p in report.non_mixed_primes],
        "global": {
            "lhs": _printable(report.v_direct, "the global v-number"),
            "prime": _prime_list(report.v_direct_prime),
            "rhs": _printable(report.v_formula, "the global formula value"),
            "equal": report.global_equal,
        },
        "findings": list(report.findings),
        "ok": report.ok,
    }


def _theorem_text(report: TheoremReport, label: str) -> Iterator[str]:
    yield f"{label}: expansion {'HOLDS' if report.expansion.expansion_holds else 'FAILS'}"
    if not report.expansion.expansion_holds:
        yield f"  direct   = {report.expansion.direct}"
        yield f"  expanded = {report.expansion.expanded}"
        witnesses = ", ".join(str(m) for m in report.expansion.mismatch_witnesses)
        yield f"  mismatch witnesses: {witnesses}"
    for row in report.rows:
        rhs = "none" if row.rhs is None else str(row.rhs.value)
        achieved = "" if row.rhs is None else f", d in {list(row.rhs.achieved)}"
        verdict = "EQUAL" if row.equal else "UNEQUAL"
        yield (f"  prime {row.prime}: lhs = {row.lhs} (witness {row.lhs_witness}), "
               f"rhs = {rhs}{achieved}, {verdict}")
    verdict = "EQUAL" if report.global_equal else "UNEQUAL"
    yield f"  global: v = {report.v_direct}, formula = {report.v_formula}, {verdict}"
    yield f"  result: {'OK' if report.ok else 'MISMATCH'}"


_Output = tuple[dict | TheoremReport, Callable[[], Iterable[str]], bool]


def _mingens(cmd: Command, a: MonomialIdeal) -> _Output:
    return {"result": _gens_list(a)}, lambda: [f"G({cmd.ideals[0]}) = {a}"], False


def _colon(cmd: Command, a: MonomialIdeal, b: MonomialIdeal | None = None) -> _Output:
    result = colon_monomial(a, cmd.mono) if b is None else colon_ideal(a, b)
    divisor = cmd.mono if b is None else cmd.ideals[1]
    return ({"result": _gens_list(result)},
            lambda: [f"{cmd.ideals[0]} : {divisor} = {result}"], False)


def _prime_set(label: str, cmd: Command, primes) -> _Output:
    def text():
        return [f"{label}({cmd.ideals[0]}) = {{ {', '.join(str(p) for p in primes)} }}"]
    return {"result": [_prime_list(p) for p in primes]}, text, False


def _ass(cmd: Command, a: MonomialIdeal) -> _Output:
    return _prime_set("Ass", cmd, associated_primes(a))


def _min(cmd: Command, a: MonomialIdeal) -> _Output:
    return _prime_set("Min", cmd, minimal_primes(a))


def _irrdec(cmd: Command, a: MonomialIdeal) -> _Output:
    components = irreducible_decomposition(a)
    result = [{"generators": _gens_list(c.ideal), "prime": _prime_list(c.prime)}
              for c in components]
    def text():
        return [f"irrdec({cmd.ideals[0]}) = [{', '.join(str(c.ideal) for c in components)}]"]
    return {"result": result}, text, False


def _vnum(cmd: Command, a: MonomialIdeal) -> _Output:
    report = v_number(a)
    result = {
        "degree": _printable(report.degree, "v({})", cmd.ideals[0]),
        "witness": str(report.witness),
        "prime": _prime_list(report.prime),
        "method": "candidate-generator",
    }
    def text():
        return [f"v({cmd.ideals[0]}) = {report.degree}, prime = {report.prime}, "
                f"witness = {report.witness}"]
    return {"result": result}, text, False


def _power(cmd: Command, a: MonomialIdeal) -> _Output:
    result = power(a, cmd.k)
    return {"result": _gens_list(result)}, lambda: [f"{cmd.ideals[0]}^{cmd.k} = {result}"], False


def _symb(cmd: Command, a: MonomialIdeal) -> _Output:
    result = filtration_member(cmd.kind, a, cmd.k)
    return ({"result": _gens_list(result)},
            lambda: [f"{cmd.ideals[0]}^({cmd.k}) [{cmd.kind.value}] = {result}"], False)


def _intclos(cmd: Command, a: MonomialIdeal) -> _Output:
    result = integral_closure(a, cmd.k)
    return ({"result": _gens_list(result)},
            lambda: [f"closure({cmd.ideals[0]}^{cmd.k}) = {result}"], False)


def _ntf(cmd: Command, a: MonomialIdeal) -> _Output:
    result = normally_torsion_free(a, cmd.k)
    return ({"result": {"normally_torsion_free": result, "k_max": cmd.k}},
            lambda: [f"ntf({cmd.ideals[0]}) = {str(result).lower()} (checked k <= {cmd.k})"],
            False)


def _check_property(cmd: Command, a: MonomialIdeal) -> _Output:
    report = check_filtration_property(cmd.kind, a, cmd.k, cmd.cap)
    fields = {"report": {
        "deg_cap": cmd.cap,
        "witnesses": [{"monomial": str(f), "prime": _prime_list(p)} for f, p in report.witnesses],
        "violations": [str(f) for f in report.violations],
        "passed": report.passed,
    }}
    def text():
        return [f"check-property kind={cmd.kind.value} k={cmd.k} cap={cmd.cap} {cmd.ideals[0]}: "
                f"{len(report.witnesses)} witnesses, {len(report.violations)} violations, "
                f"{'PASS' if report.passed else 'FAIL'}"]
    return fields, text, not report.passed


def _label(cmd: Command) -> str:
    return f"{cmd.name} kind={cmd.kind.value} k={cmd.k} {cmd.ideals[0]} {cmd.ideals[1]}"


def _verify_expansion(cmd: Command, i: MonomialIdeal, j: MonomialIdeal) -> _Output:
    report = verify_expansion(cmd.kind, i, j, cmd.k)
    fields = {"report": {
        "holds": report.expansion_holds,
        "direct": _gens_list(report.direct),
        "expanded": _gens_list(report.expanded),
        "mismatch_witnesses": [str(m) for m in report.mismatch_witnesses],
    }}
    def text():
        if report.expansion_holds:
            return [f"{_label(cmd)}: HOLDS"]
        witnesses = ", ".join(fields["report"]["mismatch_witnesses"])
        return [f"{_label(cmd)}: FAILS; direct = {report.direct}; "
                f"expanded = {report.expanded}; witnesses = [{witnesses}]"]
    return fields, text, not report.expansion_holds


def _verify_theorem(cmd: Command, i: MonomialIdeal, j: MonomialIdeal) -> _Output:
    report = verify_theorem(cmd.kind, i, j, cmd.k)
    return report, lambda: _theorem_text(report, _label(cmd)), not report.ok


# Keyed like the parser's _SIGNATURES.  Handlers call the library through
# this module's globals at call time, so a tracer that rebinds them sees it.
_HANDLERS = {
    "mingens": _mingens,
    "colon": _colon,
    "ass": _ass,
    "min": _min,
    "irrdec": _irrdec,
    "vnum": _vnum,
    "power": _power,
    "symb": _symb,
    "intclos": _intclos,
    "verify-expansion": _verify_expansion,
    "verify-theorem": _verify_theorem,
    "check-property": _check_property,
    "ntf": _ntf,
}


def _header(cmd: Command) -> dict:
    obj: dict = {"command": cmd.name, "inputs": list(cmd.ideals)}
    if cmd.mono is not None:
        obj["inputs"].append(str(cmd.mono))
    if cmd.kind is not None:
        obj["kind"] = cmd.kind.value
    if cmd.k is not None:
        obj["k"] = cmd.k
    return obj


def _once(verdicts: dict[int, tuple], report: TheoremReport, render: Callable):
    """render(report), called once per distinct verdict in verdicts.
    ``_verdict`` hands every kind whose members coincide one rows tuple,
    and the report's JSON depends on nothing else of it (not on kind or
    k), so verdicts maps the id of that tuple to the rows and their
    rendering.  Holding the rows keeps the id theirs while the map
    lives."""
    entry = verdicts.get(id(report.rows))
    if entry is None:
        entry = verdicts[id(report.rows)] = (report.rows, render(report))
    return entry[1]


def _render(fields: dict, fmt: str) -> str:
    """A command's fields after its header: in JSON mode their encoding
    with the opening brace cut, in text mode nothing (the fields were
    built only as the digit check)."""
    return _ENCODE(fields)[1:] if fmt == "json" else ""


def _error_line(fmt: str, code: str, message: str, line: int | None = None,
                col: int | None = None) -> str:
    if fmt == "json":
        err: dict = {"code": code, "message": message}
        if line is not None:
            err["line"] = line
            err["col"] = col
        return _ENCODE({"error": err})
    if line is not None:
        return f"error ({code}) at {line}:{col}: {message}"
    return f"error ({code}): {message}"


def run_fuzz(count: int, seed: int, fmt: str) -> tuple[int, list[str]]:
    """Random-instance sweep: draw (I, J, k) and run the theorem verifier
    for every filtration kind.

    For the integral-closure kind the expansion hypothesis can fail on
    unfiltered random input; such instances are reported but only count
    as failures when the hypothesis holds and a row or the global
    comparison is unequal.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    failures = 0
    hypothesis_unmet = 0
    for index in range(count):
        # Each distinct verdict's report dict, built once per draw: see
        # _once.  Verdicts are shared among the kinds of one draw.
        verdicts: dict[int, tuple] = {}
        i, j = random_pair(rng)
        k = rng.randint(1, 3)
        # The instance is rendered once per draw, not once per kind.
        if fmt == "json":
            instance = {"I": _gens_list(i), "J": _gens_list(j), "k": k}
        else:
            instance = f"k={k} I={i} J={j}"
        for kind in FiltrationKind:
            report = verify_theorem(kind, i, j, k)
            if not report.expansion.expansion_holds:
                hypothesis_unmet += 1
                status = "HYPOTHESIS-UNMET"
            elif report.ok:
                status = "OK"
            else:
                failures += 1
                status = "MISMATCH"
            if fmt == "json":
                # "status" sorts after "report", so the report is shared as
                # a dict, not as encoded text.
                lines.append(_ENCODE({
                    "command": "fuzz",
                    "index": index,
                    "instance": instance,
                    "kind": kind.value,
                    "status": status,
                    "report": _once(verdicts, report, _theorem_json),
                }))
            else:
                lines.append(
                    f"fuzz[{index}] kind={kind.value} {instance}: {status}"
                )
    summary = f"fuzz: {count} instances, {failures} mismatches, " \
              f"{hypothesis_unmet} hypothesis-unmet"
    if fmt == "json":
        lines.append(_ENCODE({
            "command": "fuzz-summary",
            "instances": count,
            "mismatches": failures,
            "hypothesis_unmet": hypothesis_unmet,
        }))
    else:
        lines.append(summary)
    return (EXIT_UNEQUAL if failures else EXIT_OK), lines


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videal",
        description="Exact monomial-ideal algebra: run a session file or a "
        "random verification sweep.",
    )
    parser.add_argument(
        "--input",
        help="session file, or - for stdin",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed for --fuzz",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        help="run N random (I, J, k) theorem sweeps instead of a session",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 (--help) or 2
        return EXIT_USAGE if exc.code else EXIT_OK

    if args.fuzz > 0:
        code, lines = run_fuzz(args.fuzz, args.seed, args.format)
        print("\n".join(lines))
        return code

    if args.input is None:
        print(_error_line(args.format, "usage", "no --input and no --fuzz given"),
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(_error_line(args.format, "usage", str(exc)), file=sys.stderr)
        return EXIT_USAGE

    code, lines = run_text(text, args.format)
    if lines:
        print("\n".join(lines))
    return code


def run_text(text: str, fmt: str) -> tuple[int, list[str]]:
    """Parse and execute session text; returns (exit code, output lines).

    A parse error or a runtime error ends the output with an error line
    and exit code 2 (bad input) or 3 (internal inconsistency); a runtime
    error aborts the remaining commands.
    """
    try:
        session = parse_session(text)
    except ParseError as exc:
        return EXIT_USAGE, [_error_line(fmt, "parse", exc.message, exc.line, exc.col)]
    lines: list[str] = []
    unequal = False
    verdicts: dict[int, tuple] = {}
    try:
        for cmd in session.commands:
            args = [session.ideals[name] for name in cmd.ideals]
            fields, text, found = _HANDLERS[cmd.name](cmd, *args)
            unequal = unequal or found
            if type(fields) is TheoremReport:
                body = _once(verdicts, fields,
                             lambda report: _render({"report": _theorem_json(report)}, fmt))
            else:
                body = _render(fields, fmt)
            if fmt == "json":
                # Every header key sorts before every field key.
                lines.append(_ENCODE(_header(cmd))[:-1] + ", " + body)
            else:
                # Whole blocks only: a line that fails leaves none of its block.
                lines.extend(list(text()))
    except InternalError as exc:
        lines.append(_error_line(fmt, "internal", str(exc)))
        return EXIT_INTERNAL, lines
    except VidealError as exc:
        lines.append(_error_line(fmt, "input", str(exc)))
        return EXIT_USAGE, lines
    return (EXIT_UNEQUAL if unequal else EXIT_OK), lines
