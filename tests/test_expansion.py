import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_local_v, canonical_key
from videal.errors import ImproperIdealError, VidealError
from videal.expansion import (
    binomial_expansion,
    direct_term,
    join_ideals,
    theorem_rhs,
    verify_expansion,
    verify_theorem,
)
from videal.filtrations import FiltrationKind, filtration_member
from videal.ideals import (
    colon_monomial,
    ideal,
    prime_support,
    sum_ideals,
    zero_ideal,
)
from videal.randgen import random_ntf_pair, random_pair
from videal.rings import embed, join_rings, make_ring, mono, mul
from videal.vnumbers import local_v

A1 = make_ring("A", ["x"])
B1 = make_ring("B", ["y"])
A3 = make_ring("A", ["x1", "x2", "x3"])
B2 = make_ring("B", ["y1", "y2"])

ORD = FiltrationKind.ORDINARY
SMIN = FiltrationKind.SYMBOLIC_MIN
SASS = FiltrationKind.SYMBOLIC_ASS
ICL = FiltrationKind.INTEGRAL_CLOSURE


def gens_str(a):
    return {str(g) for g in a.gens}


def test_join_ideals_examples():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    assert gens_str(join_ideals(i, j)) == {"x^2", "y^2"}

    i2 = ideal(A3, [mono(A3, x1=1, x2=1)])
    j2 = ideal(B1, [mono(B1, y=1)])
    assert gens_str(join_ideals(i2, j2)) == {"x1*x2", "y"}


def test_join_with_zero_summand():
    j = ideal(B1, [mono(B1, y=1)])
    assert gens_str(join_ideals(zero_ideal(A1), j)) == {"y"}


def test_join_rejects_shared_variables():
    i = ideal(A1, [mono(A1, x=1)])
    with pytest.raises(VidealError):
        join_ideals(i, ideal(make_ring("B", ["x"]), [mono(make_ring("B", ["x"]), x=1)]))


def test_binomial_expansion_ordinary_square():
    i = ideal(A1, [mono(A1, x=1)])
    j = ideal(B1, [mono(B1, y=1)])
    assert gens_str(binomial_expansion(ORD, i, j, 2)) == {"x^2", "x*y", "y^2"}


def test_binomial_expansion_at_one_is_join():
    i = ideal(A3, [mono(A3, x1=1, x2=2)])
    j = ideal(B2, [mono(B2, y1=1)])
    assert binomial_expansion(ORD, i, j, 1) == join_ideals(i, j)


def test_binomial_expansion_symbolic_matches_termwise_sum():
    i = ideal(A3, [mono(A3, x1=1, x2=1)])
    j = ideal(B2, [mono(B2, y1=1, y2=1)])
    s = join_rings(A3, B2)

    def lift(a, k):
        member = filtration_member(SMIN, a, k)
        return ideal(s, [embed(g, s) for g in member.gens])

    expected = sum_ideals(
        sum_ideals(lift(i, 2), ideal(s, [
            mul(u, v) for u in lift(i, 1).gens for v in lift(j, 1).gens
        ])),
        lift(j, 2),
    )
    assert binomial_expansion(SMIN, i, j, 2) == expected


def test_direct_term_examples():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    assert gens_str(direct_term(ORD, i, j, 2)) == {"x^4", "x^2*y^2", "y^4"}

    iv = ideal(A1, [mono(A1, x=1)])
    jv = ideal(B1, [mono(B1, y=1)])
    assert gens_str(direct_term(SMIN, iv, jv, 2)) == {"x^2", "x*y", "y^2"}

    assert gens_str(direct_term(ICL, i, j, 1)) == {"x^2", "x*y", "y^2"}


def test_verify_expansion_ordinary_always_holds():
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=1, x3=1)])
    j = ideal(B2, [mono(B2, y1=2)])
    for k in (1, 2, 3):
        assert verify_expansion(ORD, i, j, k).expansion_holds


def test_verify_expansion_symbolic_example():
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=1, x3=1)])
    j = ideal(B2, [mono(B2, y1=1, y2=1)])
    assert verify_expansion(SMIN, i, j, 2).expansion_holds


def test_verify_expansion_integral_closure_ntf_example():
    i = ideal(A3, [mono(A3, x1=1, x2=1)])
    j = ideal(B1, [mono(B1, y=2)])
    assert verify_expansion(ICL, i, j, 2).expansion_holds


def test_verify_expansion_failure_is_reported_with_witnesses():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    report = verify_expansion(ICL, i, j, 1)
    assert not report.expansion_holds
    assert [str(m) for m in report.mismatch_witnesses] == ["x*y"]


def test_mismatch_witnesses_are_the_first_ten_separating_generators():
    a2 = make_ring("A", ["x1", "x2"])
    b3 = make_ring("B", ["y1", "y2", "y3"])
    i = ideal(a2, [mono(a2, x1=1, x2=2)])
    j = ideal(b3, [mono(b3, y1=2, y3=1), mono(b3, y2=2, y3=2)])
    report = verify_expansion(ICL, i, j, 3)
    assert not report.expansion_holds
    direct, expanded = report.direct, report.expanded
    separating = [g for g in direct.gens if not expanded.contains(g)]
    separating += [g for g in expanded.gens if not direct.contains(g)]
    assert len(separating) == 12
    separating.sort(key=lambda m: canonical_key(m.exp))
    assert report.mismatch_witnesses == tuple(separating[:10])
    for m in report.mismatch_witnesses:
        assert direct.contains(m) != expanded.contains(m)


def test_theorem_rhs_principal_squares():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    p = prime_support(A1, ["x"])
    q = prime_support(B1, ["y"])
    # v of x-powers: the witness for <x^(2a)> is x^(2a-1), degree 2a - 1,
    # so both split depths give 3 + 1 = 1 + 3 = 4.
    result = theorem_rhs(ORD, i, j, 2, p, q)
    assert result is not None
    assert result.value == 4
    assert result.achieved == (0, 1)

    result1 = theorem_rhs(ORD, i, j, 1, p, q)
    assert result1 is not None and result1.value == 2 and result1.achieved == (0,)


def test_theorem_rhs_primes_give_zero():
    i = ideal(A1, [mono(A1, x=1)])
    j = ideal(B1, [mono(B1, y=1)])
    result = theorem_rhs(ORD, i, j, 1, prime_support(A1, ["x"]), prime_support(B1, ["y"]))
    assert result is not None and result.value == 0 and result.achieved == (0,)


def test_theorem_rhs_rejects_foreign_primes():
    i = ideal(A1, [mono(A1, x=1)])
    j = ideal(B1, [mono(B1, y=1)])
    with pytest.raises(VidealError):
        theorem_rhs(ORD, i, j, 1, prime_support(B1, ["y"]), prime_support(B1, ["y"]))


def test_verify_theorem_principal_squares():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    report = verify_theorem(ORD, i, j, 2)
    assert report.ok
    assert report.v_direct == 4 and report.v_formula == 4
    # Independent confirmation of the direct side by brute force in S.
    direct = report.expansion.direct
    p = prime_support(direct.ring, ["x", "y"])
    oracle = brute_force_local_v(direct, p, 4)
    assert oracle is not None and oracle.degree == 4


def test_verify_theorem_triangle_times_edge():
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=1, x3=1), mono(A3, x1=1, x3=1)])
    j = ideal(B2, [mono(B2, y1=1, y2=1)])
    report = verify_theorem(SMIN, i, j, 2)
    assert report.ok
    assert all(row.equal for row in report.rows)


def test_verify_theorem_sum_of_primes():
    i = ideal(A1, [mono(A1, x=1)])
    j = ideal(B1, [mono(B1, y=1)])
    report = verify_theorem(ORD, i, j, 1)
    assert report.ok
    assert report.v_direct == 0
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.prime.var_names == ("x", "y")
    assert row.lhs == 0 and row.rhs.value == 0


def test_verify_theorem_rejects_zero_summand():
    with pytest.raises(ImproperIdealError):
        verify_theorem(ORD, zero_ideal(A1), ideal(B1, [mono(B1, y=1)]), 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_theorem_rows_hold_on_random_instances(seed, k):
    rng = random.Random(seed)
    i, j = random_pair(rng, max_exp=2)
    for kind in (ORD, SASS, SMIN):
        report = verify_theorem(kind, i, j, k)
        assert report.expansion.expansion_holds
        assert report.ok, (kind, str(i), str(j), k)
        # A non-mixed associated prime would be a noteworthy observation,
        # surfaced through findings rather than failing the run.
        for prime in report.non_mixed_primes:
            assert any(str(prime) in finding for finding in report.findings)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_integral_closure_rows_hold_under_ntf(seed, k):
    rng = random.Random(seed)
    i, j, _ = random_ntf_pair(rng, max_exp=2)
    report = verify_theorem(ICL, i, j, k)
    assert report.expansion.expansion_holds
    assert report.ok, (str(i), str(j), k)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_colon_chain_identity_for_reported_witnesses(seed, k):
    """For every row and admissible depth d the direct colon by the pair of
    summand witnesses must split as the sum of the summand colons."""
    rng = random.Random(seed)
    i, j = random_pair(rng, max_exp=2)
    report = verify_theorem(ORD, i, j, k)
    s = report.expansion.direct.ring
    for row in report.rows:
        assert row.rhs is not None
        for cand in row.rhs.candidates:
            xa = embed(cand.p_witness, s)
            yb = embed(cand.q_witness, s)
            lhs = colon_monomial(report.expansion.direct, mul(xa, yb))
            left = filtration_member(ORD, i, k - cand.d)
            right = filtration_member(ORD, j, cand.d + 1)
            rhs = sum_ideals(
                ideal(s, [embed(g, s) for g in colon_monomial(left, cand.p_witness).gens]),
                ideal(s, [embed(g, s) for g in colon_monomial(right, cand.q_witness).gens]),
            )
            assert lhs == rhs


def test_witnesses_recombine_to_direct_witness():
    """A pair of summand witnesses at an achieving depth multiplies to a
    monomial whose colon out of the direct side is exactly the mixed prime."""
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    report = verify_theorem(ORD, i, j, 2)
    assert report.ok
    s = report.expansion.direct.ring
    for row in report.rows:
        best = [c for c in row.rhs.candidates if c.value == row.rhs.value]
        for cand in best:
            f = mul(embed(cand.p_witness, s), embed(cand.q_witness, s))
            assert colon_monomial(report.expansion.direct, f) == row.prime.as_ideal()
