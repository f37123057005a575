"""Command-line front end: session execution and deterministic output.

Text mode prints one human-readable block per command; JSON mode prints
one JSON object per command (JSON Lines, sorted keys).  Exit codes:
0 success, 1 a verification found an inequality, 2 usage or parse or
input errors, 3 internal errors.
"""

import argparse
import json
import random
import sys
from typing import Callable

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
from .parser import Command, Session, parse_session
from .randgen import random_pair
from .vnumbers import v_number

EXIT_OK = 0
EXIT_UNEQUAL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _gens_list(ideal: MonomialIdeal) -> list[str]:
    return [str(g) for g in ideal.gens]


def _prime_list(prime) -> list[str]:
    return list(prime.var_names)


def _theorem_json(report: TheoremReport) -> dict:
    rows = []
    for row in report.rows:
        rows.append(
            {
                "prime": _prime_list(row.prime),
                "p": _prime_list(row.p),
                "q": _prime_list(row.q),
                "lhs": row.lhs,
                "lhs_witness": str(row.lhs_witness),
                "rhs": None
                if row.rhs is None
                else {"value": row.rhs.value, "achieved_d": list(row.rhs.achieved)},
                "equal": row.equal,
            }
        )
    return {
        "expansion_holds": report.expansion.expansion_holds,
        "rows": rows,
        "non_mixed_primes": [_prime_list(p) for p in report.non_mixed_primes],
        "global": {
            "lhs": report.v_direct,
            "prime": _prime_list(report.v_direct_prime),
            "rhs": report.v_formula,
            "equal": report.global_equal,
        },
        "findings": list(report.findings),
        "ok": report.ok,
    }


def _theorem_text(report: TheoremReport, label: str) -> list[str]:
    lines = [
        f"{label}: expansion {'HOLDS' if report.expansion.expansion_holds else 'FAILS'}"
    ]
    if not report.expansion.expansion_holds:
        lines.append(f"  direct   = {report.expansion.direct}")
        lines.append(f"  expanded = {report.expansion.expanded}")
        witnesses = ", ".join(str(m) for m in report.expansion.mismatch_witnesses)
        lines.append(f"  mismatch witnesses: {witnesses}")
    for row in report.rows:
        rhs = "none" if row.rhs is None else str(row.rhs.value)
        achieved = "" if row.rhs is None else f", d in {list(row.rhs.achieved)}"
        verdict = "EQUAL" if row.equal else "UNEQUAL"
        lines.append(
            f"  prime {row.prime}: lhs = {row.lhs} (witness {row.lhs_witness}), "
            f"rhs = {rhs}{achieved}, {verdict}"
        )
    for prime in report.non_mixed_primes:
        lines.append(f"  non-mixed associated prime: {prime}")
    rhs = "none" if report.v_formula is None else str(report.v_formula)
    verdict = "EQUAL" if report.global_equal else "UNEQUAL"
    lines.append(f"  global: v = {report.v_direct}, formula = {rhs}, {verdict}")
    lines.append(f"  result: {'OK' if report.ok else 'MISMATCH'}")
    return lines


class _Runner:
    """Executes one session; collects output lines and the exit code."""

    def __init__(self, session: Session, fmt: str):
        self.session = session
        self.fmt = fmt
        self.lines: list[str] = []
        self.unequal = False

    def emit(self, obj: dict, *text: str) -> None:
        """One JSON line for obj in JSON mode, else the given text lines."""
        if self.fmt == "json":
            self.lines.append(json.dumps(obj, sort_keys=True))
        else:
            self.lines.extend(text)

    def run(self) -> int:
        for command in self.session.commands:
            self.dispatch(command)
        return EXIT_UNEQUAL if self.unequal else EXIT_OK

    def dispatch(self, cmd: Command) -> None:
        handler: Callable[[Command], None] = getattr(
            self, "cmd_" + cmd.name.replace("-", "_")
        )
        handler(cmd)

    def ideal_arg(self, cmd: Command, pos: int = 0) -> MonomialIdeal:
        return self.session.ideals[cmd.ideals[pos]]

    def base(self, cmd: Command) -> dict:
        obj: dict = {"command": cmd.name, "inputs": list(cmd.ideals)}
        if cmd.mono is not None:
            obj["inputs"] = list(cmd.ideals) + [str(cmd.mono)]
        if cmd.kind is not None:
            obj["kind"] = cmd.kind.value
        if cmd.k is not None:
            obj["k"] = cmd.k
        return obj

    def cmd_mingens(self, cmd: Command) -> None:
        ideal = self.ideal_arg(cmd)
        obj = self.base(cmd)
        obj["result"] = _gens_list(ideal)
        self.emit(obj, f"G({cmd.ideals[0]}) = {ideal}")

    def cmd_colon(self, cmd: Command) -> None:
        ideal = self.ideal_arg(cmd)
        if cmd.mono is not None:
            result = colon_monomial(ideal, cmd.mono)
            divisor = str(cmd.mono)
        else:
            result = colon_ideal(ideal, self.ideal_arg(cmd, 1))
            divisor = cmd.ideals[1]
        obj = self.base(cmd)
        obj["result"] = _gens_list(result)
        self.emit(obj, f"{cmd.ideals[0]} : {divisor} = {result}")

    def cmd_ass(self, cmd: Command) -> None:
        primes = associated_primes(self.ideal_arg(cmd))
        obj = self.base(cmd)
        obj["result"] = [_prime_list(p) for p in primes]
        text = ", ".join(str(p) for p in primes)
        self.emit(obj, f"Ass({cmd.ideals[0]}) = {{ {text} }}")

    def cmd_min(self, cmd: Command) -> None:
        primes = minimal_primes(self.ideal_arg(cmd))
        obj = self.base(cmd)
        obj["result"] = [_prime_list(p) for p in primes]
        text = ", ".join(str(p) for p in primes)
        self.emit(obj, f"Min({cmd.ideals[0]}) = {{ {text} }}")

    def cmd_irrdec(self, cmd: Command) -> None:
        components = irreducible_decomposition(self.ideal_arg(cmd))
        obj = self.base(cmd)
        obj["result"] = [
            {"generators": _gens_list(c.ideal), "prime": _prime_list(c.prime)}
            for c in components
        ]
        text = ", ".join(str(c.ideal) for c in components)
        self.emit(obj, f"irrdec({cmd.ideals[0]}) = [{text}]")

    def cmd_vnum(self, cmd: Command) -> None:
        report = v_number(self.ideal_arg(cmd))
        obj = self.base(cmd)
        obj["result"] = {
            "degree": report.degree,
            "witness": str(report.witness),
            "prime": _prime_list(report.prime),
            "method": report.method,
        }
        self.emit(
            obj,
            f"v({cmd.ideals[0]}) = {report.degree}, prime = {report.prime}, "
            f"witness = {report.witness}",
        )

    def cmd_power(self, cmd: Command) -> None:
        result = power(self.ideal_arg(cmd), cmd.k)
        obj = self.base(cmd)
        obj["result"] = _gens_list(result)
        self.emit(obj, f"{cmd.ideals[0]}^{cmd.k} = {result}")

    def cmd_symb(self, cmd: Command) -> None:
        result = filtration_member(cmd.kind, self.ideal_arg(cmd), cmd.k)
        obj = self.base(cmd)
        obj["result"] = _gens_list(result)
        self.emit(obj, f"{cmd.ideals[0]}^({cmd.k}) [{cmd.kind.value}] = {result}")

    def cmd_intclos(self, cmd: Command) -> None:
        result = integral_closure(self.ideal_arg(cmd), cmd.k)
        obj = self.base(cmd)
        obj["result"] = _gens_list(result)
        self.emit(obj, f"closure({cmd.ideals[0]}^{cmd.k}) = {result}")

    def cmd_ntf(self, cmd: Command) -> None:
        result = normally_torsion_free(self.ideal_arg(cmd), cmd.k)
        obj = self.base(cmd)
        obj["result"] = {"normally_torsion_free": result, "k_max": cmd.k}
        self.emit(
            obj, f"ntf({cmd.ideals[0]}) = {str(result).lower()} (checked k <= {cmd.k})"
        )

    def cmd_check_property(self, cmd: Command) -> None:
        report = check_filtration_property(cmd.kind, self.ideal_arg(cmd), cmd.k, cmd.cap)
        obj = self.base(cmd)
        obj["report"] = {
            "deg_cap": cmd.cap,
            "witnesses": [
                {"monomial": str(f), "prime": _prime_list(p)}
                for f, p in report.witnesses
            ],
            "violations": [str(f) for f in report.violations],
            "passed": report.passed,
        }
        if not report.passed:
            self.unequal = True
        self.emit(
            obj,
            f"check-property kind={cmd.kind.value} k={cmd.k} cap={cmd.cap} "
            f"{cmd.ideals[0]}: {len(report.witnesses)} witnesses, "
            f"{len(report.violations)} violations, "
            f"{'PASS' if report.passed else 'FAIL'}",
        )

    def cmd_verify_expansion(self, cmd: Command) -> None:
        i, j = self.ideal_arg(cmd, 0), self.ideal_arg(cmd, 1)
        report = verify_expansion(cmd.kind, i, j, cmd.k)
        obj = self.base(cmd)
        obj["report"] = {
            "holds": report.expansion_holds,
            "direct": _gens_list(report.direct),
            "expanded": _gens_list(report.expanded),
            "mismatch_witnesses": [str(m) for m in report.mismatch_witnesses],
        }
        if not report.expansion_holds:
            self.unequal = True
        label = (
            f"verify-expansion kind={cmd.kind.value} k={cmd.k} "
            f"{cmd.ideals[0]} {cmd.ideals[1]}"
        )
        if report.expansion_holds:
            self.emit(obj, f"{label}: HOLDS")
        else:
            witnesses = ", ".join(str(m) for m in report.mismatch_witnesses)
            self.emit(
                obj,
                f"{label}: FAILS; direct = {report.direct}; "
                f"expanded = {report.expanded}; witnesses = [{witnesses}]",
            )

    def cmd_verify_theorem(self, cmd: Command) -> None:
        i, j = self.ideal_arg(cmd, 0), self.ideal_arg(cmd, 1)
        report = verify_theorem(cmd.kind, i, j, cmd.k)
        obj = self.base(cmd)
        obj["report"] = _theorem_json(report)
        if not report.ok:
            self.unequal = True
        label = (
            f"verify-theorem kind={cmd.kind.value} k={cmd.k} "
            f"{cmd.ideals[0]} {cmd.ideals[1]}"
        )
        self.emit(obj, *_theorem_text(report, label))


def _error_line(fmt: str, code: str, message: str, line: int | None = None,
                col: int | None = None) -> str:
    if fmt == "json":
        err: dict = {"code": code, "message": message}
        if line is not None:
            err["line"] = line
            err["col"] = col
        return json.dumps({"error": err}, sort_keys=True)
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
        i, j = random_pair(rng)
        k = rng.randint(1, 3)
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
                lines.append(
                    json.dumps(
                        {
                            "command": "fuzz",
                            "index": index,
                            "instance": {
                                "I": _gens_list(i),
                                "J": _gens_list(j),
                                "k": k,
                            },
                            "kind": kind.value,
                            "status": status,
                            "report": _theorem_json(report),
                        },
                        sort_keys=True,
                    )
                )
            else:
                lines.append(
                    f"fuzz[{index}] kind={kind.value} k={k} I={i} J={j}: {status}"
                )
    summary = f"fuzz: {count} instances, {failures} mismatches, " \
              f"{hypothesis_unmet} hypothesis-unmet"
    if fmt == "json":
        lines.append(
            json.dumps(
                {
                    "command": "fuzz-summary",
                    "instances": count,
                    "mismatches": failures,
                    "hypothesis_unmet": hypothesis_unmet,
                },
                sort_keys=True,
            )
        )
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
        parser = build_arg_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
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
    runner = _Runner(session, fmt)
    try:
        code = runner.run()
    except InternalError as exc:
        runner.lines.append(_error_line(fmt, "internal", str(exc)))
        return EXIT_INTERNAL, runner.lines
    except VidealError as exc:
        runner.lines.append(_error_line(fmt, "input", str(exc)))
        return EXIT_USAGE, runner.lines
    return code, runner.lines


if __name__ == "__main__":
    sys.exit(main())
