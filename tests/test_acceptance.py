"""Acceptance suite: one test per criterion, each printing a PASS line
with its elapsed time (run with -s to see them).

Every comparison is exact (integer degrees, canonical generator sets,
byte-identical golden output); the only tolerances are the per-criterion
runtime budgets, asserted at the end of each test.
"""

import json
import os
import random
import time
from pathlib import Path

import jsonschema

from oracles import (
    brute_force_ass,
    brute_force_local_v,
    certificate_denominator_lcm,
    embed,
    lp_newton_member,
    monomials_up_to_degree,
    mul,
    power_membership_oracle,
    random_ntf_pair,
)
from videal.cli import EXIT_USAGE, run_text
from videal.decomposition import associated_primes, irreducible_decomposition
from videal.expansion import verify_theorem
from videal.filtrations import (
    FiltrationKind,
    check_filtration_property,
    filtration_member,
    integral_closure,
)
from videal.ideals import (
    colon_monomial,
    from_exps,
    ideal,
    intersect_all,
    power as ideal_power,
    prime_support,
    product,
    sum_ideals,
    zero_ideal,
)
from videal.lp import newton_member
from videal.parser import parse_session
from videal.randgen import random_ideal, random_pair, random_ring
from videal.rings import (
    Monomial,
    make_ring,
    mono,
)
from videal.vnumbers import local_v, v_number

HERE = Path(__file__).parent
ORD = FiltrationKind.ORDINARY
SASS = FiltrationKind.SYMBOLIC_ASS
SMIN = FiltrationKind.SYMBOLIC_MIN
ICL = FiltrationKind.INTEGRAL_CLOSURE


def _finish(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {budget:.0f}s) {detail}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _random_monomial(rng: random.Random, ring, max_exp=3, allow_one=True) -> Monomial:
    while True:
        exp = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if allow_one or any(exp):
            return Monomial(ring, exp)


def test_acceptance_1_colon_and_facts():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(500):
        ring = random_ring(rng, "R", "x")
        a = random_ideal(rng, ring, max_gens=4, max_exp=3)
        f = _random_monomial(rng, ring)

        # Colon against the membership definition, all g of degree <= 4.
        quotient = colon_monomial(a, f)
        for g in monomials_up_to_degree(ring, 4):
            assert quotient.contains(g) == a.contains(mul(g, f))

        # Fact 1: colon distributes over finite sums of ideals.
        parts = [random_ideal(rng, ring, 3, 3) for _ in range(rng.randint(1, 3))]
        total = zero_ideal(ring)
        split = zero_ideal(ring)
        for part in parts:
            total = sum_ideals(total, part)
            split = sum_ideals(split, colon_monomial(part, f))
        assert colon_monomial(total, f) == split

        # Fact 2: over disjoint variables the product colon splits.
        from videal.rings import join_rings

        ring_b = random_ring(rng, "B", "y")
        j = random_ideal(rng, ring_b, max_gens=3, max_exp=3)
        s = join_rings(ring, ring_b)
        xa = _random_monomial(rng, ring)
        yb = _random_monomial(rng, ring_b)
        i_s = ideal(s, [embed(g, s) for g in a.gens])
        j_s = ideal(s, [embed(g, s) for g in j.gens])
        lhs = colon_monomial(product(i_s, j_s), mul(embed(xa, s), embed(yb, s)))
        rhs = product(
            ideal(s, [embed(g, s) for g in colon_monomial(a, xa).gens]),
            ideal(s, [embed(g, s) for g in colon_monomial(j, yb).gens]),
        )
        assert lhs == rhs
    _finish(1, started, 30, "500 colon oracle instances; Facts 1 and 2 exact")


def test_acceptance_2_decomposition():
    started = time.monotonic()
    rng = random.Random(202)
    for _ in range(200):
        ring = random_ring(rng, "R", "x")
        a = random_ideal(rng, ring, max_gens=4, max_exp=3)
        components = irreducible_decomposition(a)
        assert intersect_all([c.ideal for c in components], ring) == a
        primes = associated_primes(a)
        for p in primes:
            witness = local_v(a, p).witness
            assert colon_monomial(a, witness) == p.as_ideal()
        assert brute_force_ass(a, 9) == primes
    _finish(2, started, 60, "200 ideals: decomposition exact, Ass certified and brute-force matched")


def test_acceptance_3_vnumber_oracle():
    started = time.monotonic()
    rng = random.Random(303)
    for _ in range(200):
        ring = random_ring(rng, "R", "x")
        a = random_ideal(rng, ring, max_gens=4, max_exp=3)
        for p in associated_primes(a):
            fast = local_v(a, p)
            oracle = brute_force_local_v(a, p, fast.degree + 1)
            assert oracle is not None
            assert oracle.degree == fast.degree
    _finish(3, started, 60, "200 ideals: local_v equals the brute-force oracle on every prime")


def test_acceptance_4_filtration_axioms_and_property():
    started = time.monotonic()
    rng = random.Random(404)
    kinds = [ORD, SASS, SMIN, ICL]
    for _ in range(100):
        ring = random_ring(rng, "R", "x")
        a = random_ideal(rng, ring, max_gens=4, max_exp=2)
        for kind in kinds:
            members = {k: filtration_member(kind, a, k) for k in range(7)}
            assert members[0].is_unit()
            for k in range(1, 4):
                assert members[k - 1].contains_ideal(members[k])
                assert members[k].contains_ideal(filtration_member(ORD, a, k))
            for k in range(1, 4):
                for r in range(1, 4):
                    assert members[k + r].contains_ideal(product(members[k], members[r]))
            for k in range(1, 4):
                assert check_filtration_property(kind, a, k, 6).passed
    _finish(4, started, 120, "100 ideals x 4 kinds: filtration axioms and drop-by-one checks")


def _sweep(kind: FiltrationKind, seed: int, count: int = 100):
    rng = random.Random(seed)
    for _ in range(count):
        i, j = random_pair(rng, max_vars=3, max_gens=4, max_exp=2)
        k = rng.randint(1, 3)
        report = verify_theorem(kind, i, j, k)
        assert report.expansion.expansion_holds, (str(i), str(j), k)
        assert report.rows, (str(i), str(j), k)
        for row in report.rows:
            assert row.equal, (str(i), str(j), k, str(row.prime))
        assert report.global_equal, (str(i), str(j), k)


def test_acceptance_5_theorem_sweep_ordinary():
    started = time.monotonic()
    _sweep(ORD, seed=505)
    _finish(5, started, 120, "100 pairs, ordinary powers: expansion, all rows, global all equal")


def test_acceptance_6_corollary_symbolic_both_definitions():
    started = time.monotonic()
    _sweep(SASS, seed=606)
    _sweep(SMIN, seed=606)
    _finish(6, started, 180, "100 pairs for each symbolic definition, independently verified")


def test_acceptance_7_corollary_integral_closure():
    started = time.monotonic()
    rng = random.Random(991)
    regenerated = 0
    for _ in range(100):
        i, j, attempts = random_ntf_pair(rng, max_vars=3, max_gens=4, max_exp=2, k_max=3)
        regenerated += attempts - 1
        k = rng.randint(1, 3)
        report = verify_theorem(ICL, i, j, k)
        assert report.expansion.expansion_holds, (str(i), str(j), k)
        assert report.rows and all(row.equal for row in report.rows)
        assert report.global_equal
    _finish(
        7,
        started,
        180,
        f"100 NTF square-free pairs, closures of powers "
        f"({regenerated} non-NTF draws regenerated)",
    )


GOLDEN_SESSION_A = """\
ring A = [x];
ring B = [y];
ideal I in A = (x^2);
ideal J in B = (y^2);
verify-theorem kind=ordinary k=1 I J;
verify-theorem kind=ordinary k=2 I J;
verify-theorem kind=ordinary k=3 I J;
"""

GOLDEN_SESSION_B = """\
ring R = [x, y, z];
ideal T in R = (x*y, y*z, x*z);
symb kind=symb-min k=2 T;
"""

GOLDEN_SESSION_C = """\
ring R = [x, y];
ideal L in R = (x^2, y^2);
intclos L;
"""


def test_acceptance_8_fixed_goldens():
    started = time.monotonic()

    # (a) v((I+J)^k) = 2k, independently confirmed by brute force in S.
    code, lines = run_text(GOLDEN_SESSION_A, "json")
    assert code == 0
    payloads = [json.loads(line) for line in lines]
    for k, payload in zip((1, 2, 3), payloads):
        assert payload["report"]["global"] == {
            "equal": True,
            "lhs": 2 * k,
            "prime": ["x", "y"],
            "rhs": 2 * k,
        }
    s = make_ring("S", ["x", "y"])
    for k in (1, 2, 3):
        direct = ideal_power(from_exps(s, [(2, 0), (0, 2)]), k)
        oracle = brute_force_local_v(direct, prime_support(s, ["x", "y"]), 2 * k)
        assert oracle is not None and oracle.degree == 2 * k
        assert v_number(direct).degree == 2 * k

    # (b) Triangle edge ideal: second symbolic power is the square plus xyz.
    code, lines_b = run_text(GOLDEN_SESSION_B, "json")
    assert code == 0
    r3 = make_ring("R", ["x", "y", "z"])
    triangle = ideal(
        r3, [mono(r3, x=1, y=1), mono(r3, y=1, z=1), mono(r3, x=1, z=1)]
    )
    expected = sum_ideals(
        ideal_power(triangle, 2), ideal(r3, [mono(r3, x=1, y=1, z=1)])
    )
    assert json.loads(lines_b[0])["result"] == [str(g) for g in expected.gens]

    # (c) Integral closure of (x^2, y^2) gains exactly x*y.
    code, lines_c = run_text(GOLDEN_SESSION_C, "json")
    assert code == 0
    assert json.loads(lines_c[0])["result"] == ["x^2", "x*y", "y^2"]
    r2 = make_ring("R", ["x", "y"])
    base = ideal(r2, [mono(r2, x=2), mono(r2, y=2)])
    assert power_membership_oracle((1, 1), base, 2)

    # Byte-stable JSON: compare against the frozen golden transcripts.
    for name, session in (
        ("criterion8a", GOLDEN_SESSION_A),
        ("criterion8b", GOLDEN_SESSION_B),
        ("criterion8c", GOLDEN_SESSION_C),
    ):
        golden_path = HERE / "goldens" / f"{name}.jsonl"
        _, lines = run_text(session, "json")
        produced = "\n".join(lines) + "\n"
        if os.environ.get("VIDEAL_REGEN") == "1":
            golden_path.write_text(produced)
        assert produced == golden_path.read_text(), f"golden drift in {name}"
    _finish(8, started, 60, "fixed instances byte-identical and independently re-derived")


def test_acceptance_9_newton_lp_cross_check():
    started = time.monotonic()
    rng = random.Random(909)
    members = 0
    for _ in range(300):
        ring = random_ring(rng, "R", "x")
        a = random_ideal(rng, ring, max_gens=4, max_exp=3)
        bounds = [max(g.exp[i] for g in a.gens) + 1 for i in range(ring.nvars)]
        point = tuple(rng.randint(0, b) for b in bounds)
        result = newton_member(point, a.exps())
        member, certificate = lp_newton_member(point, a.exps())
        assert result.member == member, (str(a), point)
        if member:
            members += 1
            assert result.facet is None
            m = certificate_denominator_lcm(certificate)
            assert power_membership_oracle(point, a, m), (str(a), point, m)
        else:
            w, d = result.facet
            assert sum(wi * pi for wi, pi in zip(w, point)) < d, (str(a), point, result.facet)
            assert all(sum(wi * vi for wi, vi in zip(w, v)) >= d for v in a.exps()), (str(a), w, d)
            assert not power_membership_oracle(point, a, 6), (str(a), point)
    _finish(9, started, 60, f"300 membership queries ({members} inside) agree with the "
            "LP and power oracles")


def test_acceptance_10_cli_corpus():
    started = time.monotonic()
    corpus = HERE / "corpus"
    expected_dir = corpus / "expected"
    good = sorted((corpus / "good").glob("*.vid"))
    bad = sorted((corpus / "bad").glob("*.vid"))
    assert len(good) == 26 and len(bad) == 20
    schema = json.loads((HERE.parent / "schemas" / "output.schema.json").read_text())
    for path in good + bad:
        for fmt in ("text", "json"):
            code, lines = run_text(path.read_text(), fmt)
            produced = "\n".join(lines) + ("\n" if lines else "")
            assert produced == (expected_dir / f"{path.stem}.{fmt}.out").read_text()
            assert code == int((expected_dir / f"{path.stem}.{fmt}.exit").read_text())
            if fmt == "json":
                for line in lines:
                    jsonschema.validate(json.loads(line), schema)
    for path in bad:
        code, _ = run_text(path.read_text(), "text")
        assert code == EXIT_USAGE
    # Parse-print round trip on every well-formed session's ideals.
    for path in good:
        session = parse_session(path.read_text())
        for original in session.ideals.values():
            ring = original.ring
            text = (
                f"ring {ring.name} = [{', '.join(ring.vars)}];"
                f"ideal T in {ring.name} = {original};"
            )
            assert parse_session(text).ideals["T"] == original
    _finish(10, started, 10,
            f"{len(good) + len(bad)} sessions byte-stable in both formats; round trip holds")
