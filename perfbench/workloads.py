"""Seeded workloads for the videal benchmark.

Each workload draws a pool of units (one pair of ideals, or one CLI
session) from a seeded ``random.Random``, orders it into stratified
rounds, and expands every unit into operations.  videal receives only
the generated inputs, through its public functions.

Stratified rounds.  Per-operation cost is heavy-tailed and is predicted
well by the size of the joined power (I + J)^k: the number of its
minimal generators times the volume of its exponent box.  The pool is
sorted by that predictor and cut into ``strata`` equal slices of
``slice_units`` units (a power of two).  Round r takes from every slice
the unit at position bit_reverse(r) + offset (mod slice_units), with a
seeded offset per slice, and runs them in a seeded order.  Every round
is a proportional sample of the generator's own distribution, and the
first R rounds of a run pick from each slice at positions spread evenly
over its cost range, not at random.  So seeds differ by less than they
would through how many costly units they happened to draw.

Fixed work.  A timed run executes a fixed number of whole rounds:
``rounds_per_s`` (the rate measured when the benchmark was added) times
``--seconds``.  At that commit a run measures about ``--seconds``; every
run of a seed times exactly the same operations on any commit.  A run
that stopped at a wall-clock limit would time fewer operations when the
machine is slow, and since later operations hit warmer memo caches, its
latency percentiles would move about twice as much as the machine did.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

from videal import FiltrationKind, join_ideals, make_ring, power, verify_theorem
from videal.cli import run_text
from videal.randgen import random_ideal, random_pair

KINDS = tuple(FiltrationKind)
SYMBOLIC = (
    FiltrationKind.ORDINARY,
    FiltrationKind.SYMBOLIC_ASS,
    FiltrationKind.SYMBOLIC_MIN,
)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``call()`` runs it, ``check(result)`` returns
    ``(ok, record)`` where record is the verdict text that feeds the
    digest."""

    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass(frozen=True)
class Workload:
    strata: int          # units per round
    slice_units: int     # units per stratum in the pool; a power of two
    prefix_rounds: int   # rounds digested and traced
    rounds_per_s: float  # timed rounds per --seconds
    draw: Callable       # rng -> unit
    predictor: Callable  # unit -> sortable cost predictor
    expand: Callable     # unit -> list[Op]
    validates_schema: bool = False

    def timed_rounds(self, seconds: float) -> int:
        """Rounds in a timed run of ``seconds``: at least the prefix, at
        most one per pool position."""
        return min(self.slice_units, max(self.prefix_rounds, round(seconds * self.rounds_per_s)))


def _size(i, j, k: int) -> int:
    """Minimal generators of (I + J)^k times its exponent-box volume."""
    exps = power(join_ideals(i, j), k).exps()
    box = 1
    for column in zip(*exps):
        box *= max(column) + 1
    return len(exps) * box


# --- sweep-small: the CLI path -------------------------------------------

def _draw_session(rng: random.Random):
    i, j = random_pair(rng)
    return i, j, rng.randint(1, 2)


def render_session(i, j, k: int) -> str:
    lines = [
        f"ring A = [{', '.join(i.ring.vars)}];",
        f"ring B = [{', '.join(j.ring.vars)}];",
        f"ideal I in A = {i};",
        f"ideal J in B = {j};",
        "vnum I;",
        "vnum J;",
    ]
    lines += [f"verify-theorem kind={kind.value} k={k} I J;" for kind in KINDS]
    return "\n".join(lines) + "\n"


def check_session(result) -> tuple[bool, str]:
    """Exit code 1 is allowed only when every failed verdict is an
    intclos verdict whose binomial expansion fails."""
    code, lines = result
    record = f"{code}\n" + "\n".join(lines)
    try:
        objs = [json.loads(line) for line in lines]
    except ValueError:
        return False, record
    if len(objs) != 2 + len(KINDS):
        return False, record
    if any(obj.get("command") != "vnum" for obj in objs[:2]):
        return False, record
    any_not_ok = False
    for kind, obj in zip(KINDS, objs[2:]):
        if obj.get("command") != "verify-theorem" or obj.get("kind") != kind.value:
            return False, record
        report = obj["report"]
        if not report["ok"]:
            any_not_ok = True
            if kind is not FiltrationKind.INTEGRAL_CLOSURE or report["expansion_holds"]:
                return False, record
    return code == (1 if any_not_ok else 0), record


def _expand_session(unit) -> list[Op]:
    text = render_session(*unit)
    return [Op(lambda: run_text(text, "json"), check_session)]


# --- ladders: the library path -------------------------------------------

def verdict_record(report) -> str:
    rows = [
        [
            list(row.prime.indices),
            row.lhs,
            str(row.lhs_witness),
            None if row.rhs is None else [row.rhs.value, list(row.rhs.achieved)],
        ]
        for row in report.rows
    ]
    return json.dumps(
        [
            report.kind.value,
            report.k,
            report.ok,
            report.expansion.expansion_holds,
            str(report.expansion.direct),
            str(report.expansion.expanded),
            rows,
            [list(p.indices) for p in report.non_mixed_primes],
            report.v_direct,
            list(report.v_direct_prime.indices),
            report.v_formula,
        ]
    )


def check_verdict(report) -> tuple[bool, str]:
    """ordinary and symbolic verdicts must be ok; an intclos verdict may
    instead report the hypothesis unmet (binomial expansion fails)."""
    ok = report.ok or (
        report.kind is FiltrationKind.INTEGRAL_CLOSURE
        and not report.expansion.expansion_holds
    )
    return ok, verdict_record(report)


def _fixed_pair(rng: random.Random, nvars: int, squarefree_first: bool):
    ring_a = make_ring("A", [f"x{n + 1}" for n in range(nvars)])
    ring_b = make_ring("B", [f"y{n + 1}" for n in range(nvars)])
    i = random_ideal(rng, ring_a, 4, 2, squarefree=squarefree_first)
    j = random_ideal(rng, ring_b, 4, 2)
    return i, j


def _ladder_ops(i, j, steps) -> list[Op]:
    return [
        Op(lambda kind=kind, k=k: verify_theorem(kind, i, j, k), check_verdict)
        for k, kind in steps
    ]


# Shapes are sized so that a run of 25-30 s averages over the heavy tail:
# with 4+4 variables (decomp) or k = 3 (closure), single operations took
# 13 s and 34 s.  perfbench/README.md has the measurements.
DECOMP_STEPS = tuple((k, kind) for k in (1, 2) for kind in SYMBOLIC)
INTCLOS_STEPS = tuple((k, FiltrationKind.INTEGRAL_CLOSURE) for k in (1, 2))

WORKLOADS = {
    "sweep-small": Workload(
        strata=20,
        slice_units=512,
        prefix_rounds=25,
        rounds_per_s=2.95,
        draw=_draw_session,
        predictor=lambda unit: _size(*unit),
        expand=_expand_session,
        validates_schema=True,
    ),
    "ladder-decomp": Workload(
        strata=16,
        slice_units=256,
        prefix_rounds=10,
        rounds_per_s=1.45,
        draw=lambda rng: _fixed_pair(rng, 3, squarefree_first=False),
        predictor=lambda pair: _size(*pair, 2),
        expand=lambda pair: _ladder_ops(*pair, DECOMP_STEPS),
    ),
    "ladder-intclos": Workload(
        strata=16,
        slice_units=256,
        prefix_rounds=20,
        rounds_per_s=2.7,
        draw=lambda rng: _fixed_pair(rng, 3, squarefree_first=True),
        predictor=lambda pair: _size(*pair, 2),
        expand=lambda pair: _ladder_ops(*pair, INTCLOS_STEPS),
    ),
}


@dataclass(frozen=True)
class Plan:
    """The seeded operations of a run, in order."""

    ops: list[Op]
    prefix_ops: int  # operations digested and traced


def _bit_reverse(n: int, bits: int) -> int:
    return int(format(n, f"0{bits}b")[::-1], 2)


def build_plan(workload: Workload, seed: int, rounds: int) -> Plan:
    """The first ``rounds`` rounds of the seed's plan.  A plan of fewer
    rounds is a prefix of one of more."""
    rng = random.Random(seed)
    width = workload.slice_units
    bits = width.bit_length() - 1
    assert width == 1 << bits and rounds <= width
    pool_size = workload.strata * width
    units = [workload.draw(rng) for _ in range(pool_size)]
    order = sorted(range(pool_size), key=lambda n: (workload.predictor(units[n]), n))
    slices = [order[s * width:(s + 1) * width] for s in range(workload.strata)]
    offsets = [rng.randrange(width) for _ in slices]
    ops: list[Op] = []
    for r in range(rounds):
        at = _bit_reverse(r, bits)
        members = [part[(at + offset) % width] for part, offset in zip(slices, offsets)]
        rng.shuffle(members)
        for n in members:
            ops.extend(workload.expand(units[n]))
    return Plan(ops, len(ops) // rounds * min(rounds, workload.prefix_rounds))


def digest(records: list[str]) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record.encode())
        h.update(b"\0")
    return h.hexdigest()
