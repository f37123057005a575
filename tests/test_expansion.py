import gc
import random
from dataclasses import fields

import pytest
from conftest import small_ideals
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_local_v,
    canonical_key,
    clear_memos,
    corner_tuples,
    embed,
    mul,
    per_depth_theorem_rhs,
    random_ntf_pair,
    split_prime,
    summand_closure,
    summand_corners,
    summand_global_formula,
)
from videal import expansion
from videal.decomposition import associated_primes
from videal.errors import ImproperIdealError, VidealError
from videal.expansion import (
    RhsResult,
    TheoremReport,
    direct_term,
    join_ideals,
    verify_expansion,
    verify_theorem,
)
from videal.filtrations import FiltrationKind, filtration_member, integral_closure
from videal.ideals import (
    colon_monomial,
    from_exps,
    ideal,
    power,
    prime_support,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
from videal.randgen import random_ideal, random_pair
from videal.rings import Ring, join_rings, make_ring, mono
from videal.vnumbers import local_v, v_number

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


def _with_unit_and_zero(ring_name, prefix):
    proper = small_ideals(max_vars=3, name=ring_name, prefix=prefix)
    return st.one_of(
        proper,
        proper.map(lambda a: unit_ideal(a.ring)),
        proper.map(lambda a: zero_ideal(a.ring)),
    )


@settings(max_examples=200, deadline=None)
@given(_with_unit_and_zero("A", "x"), _with_unit_and_zero("B", "y"))
def test_join_ideals_is_the_minimalized_padded_union(i, j):
    """The padded union of G(I) and G(J) is G(IS + JS), canonically
    sorted, whenever neither summand is the unit ideal."""
    pad_i, pad_j = (0,) * i.ring.nvars, (0,) * j.ring.nvars
    union = [u + pad_j for u in i.exps()] + [pad_i + v for v in j.exps()]
    assert join_ideals(i, j) == from_exps(join_rings(i.ring, j.ring), union)


def test_join_rejects_shared_variables():
    i = ideal(A1, [mono(A1, x=1)])
    with pytest.raises(VidealError):
        join_ideals(i, ideal(make_ring("B", ["x"]), [mono(make_ring("B", ["x"]), x=1)]))


def test_binomial_expansion_ordinary_square():
    i = ideal(A1, [mono(A1, x=1)])
    j = ideal(B1, [mono(B1, y=1)])
    assert gens_str(verify_expansion(ORD, i, j, 2).expanded) == {"x^2", "x*y", "y^2"}


def test_binomial_expansion_at_one_is_join():
    i = ideal(A3, [mono(A3, x1=1, x2=2)])
    j = ideal(B2, [mono(B2, y1=1)])
    assert verify_expansion(ORD, i, j, 1).expanded == join_ideals(i, j)


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
    assert verify_expansion(SMIN, i, j, 2).expanded == expected


def test_direct_term_examples():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    assert gens_str(direct_term(ORD, i, j, 2)) == {"x^4", "x^2*y^2", "y^4"}

    iv = ideal(A1, [mono(A1, x=1)])
    jv = ideal(B1, [mono(B1, y=1)])
    assert gens_str(direct_term(SMIN, iv, jv, 2)) == {"x^2", "x*y", "y^2"}

    assert gens_str(direct_term(ICL, i, j, 1)) == {"x^2", "x*y", "y^2"}


def test_closed_square_is_the_ordinary_member_itself():
    # (x1*x2, y1)^2 is integrally closed: both verdicts hold one copy of it.
    i = ideal(A3, [mono(A3, x1=1, x2=1)])
    j = ideal(B1, [mono(B1, y=1)])
    verify_theorem(ORD, i, j, 2)
    verify_theorem(ICL, i, j, 2)
    assert direct_term(ICL, i, j, 2) is direct_term(ORD, i, j, 2)


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


def _rhs_of_the_only_row(i, j, k, p, q):
    """The rhs of the one row of verify_theorem(ORD, i, j, k), whose
    split is (p, q), checked against the per-depth oracle."""
    (row,) = verify_theorem(ORD, i, j, k).rows
    assert (row.p, row.q) == (p, q)
    assert row.rhs == per_depth_theorem_rhs(ORD, i, j, k, p, q)
    return row.rhs


def test_theorem_rhs_principal_squares():
    i = ideal(A1, [mono(A1, x=2)])
    j = ideal(B1, [mono(B1, y=2)])
    p = prime_support(A1, ["x"])
    q = prime_support(B1, ["y"])
    # v of x-powers: the witness for <x^(2a)> is x^(2a-1), degree 2a - 1,
    # so both split depths give 3 + 1 = 1 + 3 = 4.
    result = _rhs_of_the_only_row(i, j, 2, p, q)
    assert result is not None
    assert result.value == 4
    assert result.achieved == (0, 1)

    result1 = _rhs_of_the_only_row(i, j, 1, p, q)
    assert result1 is not None and result1.value == 2 and result1.achieved == (0,)


def test_a_row_formula_is_its_value_and_achieving_depths():
    assert [f.name for f in fields(RhsResult)] == ["value", "achieved"]


def test_theorem_rhs_primes_give_zero():
    i = ideal(A1, [mono(A1, x=1)])
    j = ideal(B1, [mono(B1, y=1)])
    result = _rhs_of_the_only_row(i, j, 1, prime_support(A1, ["x"]), prime_support(B1, ["y"]))
    assert result is not None and result.value == 0 and result.achieved == (0,)


def test_formula_reader_admits_no_depth_for_an_unassociated_support():
    # Every power of x1*x2 has Ass {(x1), (x2)}: (x1, x2) is at no depth.
    i = ideal(A3, [mono(A3, x1=1, x2=1)])
    j = ideal(B1, [mono(B1, y=1)])
    read, v_formula = expansion._formula_reader((i, power(i, 2)), (j, power(j, 2)))
    assert read((0, 1), (0,)) is None
    assert read((0,), (0,)) is not None
    # v(I^2) + v(J) = 3 + 0 at d = 0 and v(I) + v(J^2) = 1 + 1 at d = 1.
    assert v_formula == 2


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
    summand witnesses must split as the sum of the summand colons.  The
    witnesses are read with ``local_v`` on the members I_{k-d} and J_{d+1},
    at every admissible depth, not only the achieving ones."""
    rng = random.Random(seed)
    i, j = random_pair(rng, max_exp=2)
    report = verify_theorem(ORD, i, j, k)
    s = report.expansion.direct.ring
    for row in report.rows:
        assert row.rhs is not None
        for d in range(k):
            left = filtration_member(ORD, i, k - d)
            right = filtration_member(ORD, j, d + 1)
            if row.p not in associated_primes(left) or row.q not in associated_primes(right):
                continue
            p_witness = local_v(left, row.p).witness
            q_witness = local_v(right, row.q).witness
            lhs = colon_monomial(report.expansion.direct,
                                 mul(embed(p_witness, s), embed(q_witness, s)))
            rhs = sum_ideals(
                ideal(s, [embed(g, s) for g in colon_monomial(left, p_witness).gens]),
                ideal(s, [embed(g, s) for g in colon_monomial(right, q_witness).gens]),
            )
            assert lhs == rhs


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2))
def test_rows_partition_the_direct_associated_primes(seed, k):
    """Every prime of Ass of the direct side is mixed, and they are the
    rows, in index order; each row carries the local v-number of its
    prime and the split of that prime."""
    i, j = random_pair(random.Random(seed))
    for kind in FiltrationKind:
        report = verify_theorem(kind, i, j, k)
        direct = report.expansion.direct
        ass = associated_primes(direct)
        assert all(None not in split_prime(prime, i.ring, j.ring) for prime in ass)
        assert tuple(row.prime for row in report.rows) == ass
        assert report.non_mixed_primes == ()
        for row in report.rows:
            v = local_v(direct, row.prime)
            assert (row.lhs, row.lhs_witness) == (v.degree, v.witness)
            assert (row.p, row.q) == split_prime(row.prime, i.ring, j.ring)
        best = v_number(direct)
        assert (report.v_direct, report.v_direct_prime) == (best.degree, best.prime)


@pytest.mark.parametrize("kind", list(FiltrationKind))
def test_theorem_rhs_matches_the_per_depth_oracle(kind):
    """Value and achieving depths agree on every mixed prime,
    from the verdict's rows and from the oracle."""
    for seed in range(25):
        i, j = random_pair(random.Random(seed), max_exp=2)
        for k in (1, 2, 3):
            for row in verify_theorem(kind, i, j, k).rows:
                oracle = per_depth_theorem_rhs(kind, i, j, k, row.p, row.q)
                assert row.rhs == oracle, (seed, k)


@pytest.mark.parametrize("kind", [ORD, SASS, ICL])
def test_a_verdict_reads_each_witness_table_once(kind, monkeypatch):
    """One read of the direct table and one of each summand table per
    depth, however many rows the verdict has (on a cold verdict memo: a
    kind whose members repeat an earlier verdict's reads no table).  The
    global formula reads each summand member's least entry once, and the
    global v-number reads the direct member's once, through the same
    ``_least``."""
    witnesses, least = expansion._witnesses, expansion._least
    reads, least_reads = [], []

    def counted(a):
        reads.append(a)
        return witnesses(a)

    def counted_least(a):
        least_reads.append(a)
        return least(a)

    monkeypatch.setattr(expansion, "_witnesses", counted)
    monkeypatch.setattr(expansion, "_least", counted_least)
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    for k in (1, 2, 3):
        reads.clear()
        least_reads.clear()
        expansion._verdict.cache_clear()
        report = verify_theorem(kind, i, j, k)
        assert len(report.rows) >= 2
        assert len(reads) == 1 + 2 * k
        assert len(least_reads) == 2 * k + 1
        assert least_reads.count(report.expansion.direct) == 1


@pytest.mark.parametrize("kind", list(FiltrationKind))
def test_no_verdict_asks_for_the_zeroth_member(kind, monkeypatch):
    """The 0-th member is the whole ring for every kind, so the verdicts
    and the expansion pad I_k and J_k themselves instead of memoizing a
    unit ideal per (kind, ideal)."""
    member = expansion.filtration_member
    asked = []

    def recorded(kind, a, k):
        asked.append(k)
        return member(kind, a, k)

    monkeypatch.setattr(expansion, "filtration_member", recorded)
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    for k in (1, 2, 3):
        verify_theorem(kind, i, j, k)
        verify_expansion(kind, i, j, k)
    assert asked and 0 not in asked


def test_the_global_formula_reads_no_direct_table(monkeypatch):
    """I = (x1^3, x1*x2) has v 1 at (x1) and 2 at (x1, x2), and J = (y)
    has v 0, so the global formula is 1, reached only at the row of
    (x1, y).  Without that prime in the direct table the rows reach 2,
    but the global formula is read from the summands' tables alone."""
    i = ideal(A3, [mono(A3, x1=3), mono(A3, x1=1, x2=1)])
    j = ideal(B1, [mono(B1, y=1)])
    direct = direct_term(ORD, i, j, 1)
    expected = summand_global_formula(ORD, i, j, 1)
    achieving = {row.prime.indices for row in verify_theorem(ORD, i, j, 1).rows
                 if row.rhs is not None and row.rhs.value == expected}
    assert expected == 1 and achieving == {(0, 3)}
    witnesses = expansion._witnesses

    def without_the_achieving_prime(a):
        table = witnesses(a)
        if a != direct:
            return table
        return {indices: report for indices, report in table.items() if indices not in achieving}

    monkeypatch.setattr(expansion, "_witnesses", without_the_achieving_prime)
    expansion._verdict.cache_clear()
    try:
        report = verify_theorem(ORD, i, j, 1)
    finally:
        expansion._verdict.cache_clear()
    assert [row.prime.indices for row in report.rows] == [(0, 1, 3)]
    assert report.rows[0].rhs.value == 2
    assert report.v_formula == expected


@settings(max_examples=60, deadline=None)
@given(
    small_ideals(max_vars=2, max_gens=3, max_exp=2, name="A", prefix="x"),
    small_ideals(max_vars=2, max_gens=3, max_exp=2, name="B", prefix="y"),
    st.integers(1, 3),
)
def test_the_global_formula_is_the_summand_only_minimum(i, j, k):
    """On every kind, v_formula is min over d of v(I_{k-d}) + v(J_{d+1});
    when the expansion holds it is also the direct v-number and the least
    rhs over the rows (the minimum restricted to the direct side's
    primes)."""
    for kind in FiltrationKind:
        report = verify_theorem(kind, i, j, k)
        assert report.v_formula == summand_global_formula(kind, i, j, k), (kind, str(i), str(j))
        if report.expansion.expansion_holds:
            restricted = min(row.rhs.value for row in report.rows if row.rhs is not None)
            assert report.v_formula == report.v_direct == restricted, (kind, str(i), str(j))


def test_witnesses_recombine_to_direct_witness():
    """A pair of summand witnesses at an achieving depth multiplies to a
    monomial whose colon out of the direct side is exactly the mixed prime."""
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    report = verify_theorem(ORD, i, j, 2)
    assert report.ok
    s = report.expansion.direct.ring
    for row in report.rows:
        for d in row.rhs.achieved:
            p_witness = local_v(filtration_member(ORD, i, 2 - d), row.p).witness
            q_witness = local_v(filtration_member(ORD, j, d + 1), row.q).witness
            f = mul(embed(p_witness, s), embed(q_witness, s))
            assert colon_monomial(report.expansion.direct, f) == row.prime.as_ideal()


def test_every_kind_and_k_of_a_pair_joins_once(monkeypatch):
    """Every kind at k = 1, 2 on one pair, from cleared memos, builds I+J
    once: the pair memo serves the other seven calls."""
    join = expansion.join_ideals
    calls = []

    def recorded(i, j):
        calls.append((i, j))
        return join(i, j)

    monkeypatch.setattr(expansion, "join_ideals", recorded)
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    clear_memos()
    for k in (1, 2):
        for kind in FiltrationKind:
            verify_theorem(kind, i, j, k)
    assert calls == [(i, j)]


def test_the_pair_memo_holds_the_ordinary_first_member():
    """The pair memo's I+J is the very copy in the memo slot of the
    ordinary first member, so it adds no ideal or ring of its own."""
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    clear_memos()
    joined = expansion._joined(i, j)
    assert joined == join_ideals(i, j)
    assert filtration_member(ORD, join_ideals(i, j), 1) is joined
    assert direct_term(ORD, i, j, 1) is joined


def test_the_public_join_leaves_the_pair_memo_cold():
    """``join_ideals`` is not memoized and never fills the pair memo, so a
    caller that joins a pool of pairs ahead of timing starts it cold."""
    clear_memos()
    for seed in range(5):
        join_ideals(*random_pair(random.Random(seed)))
    assert expansion._joined.cache_info().currsize == 0


def test_a_kind_given_by_its_value_reports_the_member():
    """A kind's value string gives the report of the enum member, kind
    included, and an unknown string is refused as before."""
    i = ideal(A3, [mono(A3, x1=1, x2=1), mono(A3, x2=2)])
    j = ideal(B2, [mono(B2, y1=1), mono(B2, y2=2)])
    for kind in FiltrationKind:
        report = verify_theorem(kind.value, i, j, 2)
        assert report.kind is kind
        assert report == verify_theorem(kind, i, j, 2)
    with pytest.raises(VidealError, match="unknown filtration kind 'bogus'"):
        verify_theorem("bogus", i, j, 2)


def test_a_pair_keeps_one_joined_ideal():
    """Every kind at k = 1, 2 on one pair, each call on fresh equal copies
    of I and J, leaves one live copy of I+J and of its ring: every member
    of the pair is keyed by the copy the first verdict stored.  I+J is
    integrally closed, so its closure is I+J again, and its symbolic
    powers by minimal primes drop the embedded component of (p1^2, p1*p2)."""

    def fresh():
        a = make_ring("".join(["P", "a"]), ["p1", "p2"])
        b = make_ring("".join(["P", "b"]), ["q1", "q2"])
        return from_exps(a, [(2, 0), (1, 1)]), from_exps(b, [(1, 1)])

    clear_memos()
    for k in (1, 2):
        for kind in FiltrationKind:
            verify_theorem(kind, *fresh(), k)
    joined = join_ideals(*fresh())
    gc.collect()
    live = gc.get_objects()
    ideals = [o for o in live if type(o) is type(joined) and o is not joined and o == joined]
    rings = [o for o in live if type(o) is Ring and o is not joined.ring and o == joined.ring]
    assert len(ideals) == 1
    assert len(rings) == 1
    assert ideals[0].ring is rings[0]


def _field_values(report):
    return [getattr(report, f.name) for f in fields(TheoremReport)]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_a_shared_verdict_equals_a_cold_one(seed):
    """Every kind at k <= 2, run in turn so that kinds whose members
    coincide are served by one verdict, gives field for field the report
    computed on cleared memos, kind and findings included."""
    i, j = random_pair(random.Random(seed))
    steps = [(kind, k) for k in (1, 2) for kind in FiltrationKind]
    clear_memos()
    warm = [verify_theorem(kind, i, j, k) for kind, k in steps]
    for (kind, k), report in zip(steps, warm):
        clear_memos()
        cold = verify_theorem(kind, i, j, k)
        assert report.kind is kind and report.k == k
        assert _field_values(report) == _field_values(cold), (kind, k, str(i), str(j))


def test_kinds_share_a_verdict_only_when_their_members_coincide():
    """I = (x1) ∩ (x1^2, x2, x3) and J = (y1) ∩ (y1^3, y2^2) have embedded
    primes: symb-ass reads the ordinary members and is served by their
    verdict, while the symb-min members (x1^k), (y1^k) and the closure of
    J^k differ, so those verdicts miss the memo."""
    i = ideal(A3, [mono(A3, x1=2), mono(A3, x1=1, x2=1), mono(A3, x1=1, x3=1)])
    j = ideal(B2, [mono(B2, y1=3), mono(B2, y1=1, y2=2)])
    assert filtration_member(SMIN, i, 2) != filtration_member(ORD, i, 2)
    expansion._verdict.cache_clear()
    reports = {}
    for kind, (hits, misses) in [(ORD, (0, 1)), (SASS, (1, 1)), (SMIN, (1, 2)), (ICL, (1, 3))]:
        reports[kind] = verify_theorem(kind, i, j, 2)
        info = expansion._verdict.cache_info()
        assert (info.hits, info.misses) == (hits, misses), kind
    assert reports[SASS].kind is SASS
    assert _field_values(reports[SASS])[1:] == _field_values(reports[ORD])[1:]
    assert reports[SMIN].v_direct == 1 and reports[ORD].v_direct == 5
    assert not reports[ICL].expansion.expansion_holds


@pytest.mark.parametrize("kind", list(FiltrationKind))
def test_rows_carry_the_validated_split_once_per_support(kind):
    """Each row's p and q equal the validated PrimeSupports of the split
    of its prime, and rows with the same part share one object; an
    expansion that holds keeps one copy of the direct member."""
    for seed in range(15):
        i, j = random_pair(random.Random(seed))
        for k in (1, 2):
            expansion._verdict.cache_clear()
            report = verify_theorem(kind, i, j, k)
            if report.expansion.expansion_holds:
                assert report.expansion.expanded is report.expansion.direct
            shared = {}
            for row in report.rows:
                assert (row.p, row.q) == split_prime(row.prime, i.ring, j.ring)
                assert shared.setdefault(("p", row.p), row.p) is row.p
                assert shared.setdefault(("q", row.q), row.q) is row.q


def _assert_the_summands_build_the_corners(kind, i, j, k):
    """When the binomial expansion holds, the direct member's corners,
    with its own top, are the maximal concatenations of the summands'."""
    report = verify_expansion(kind, i, j, k)
    if report.expansion_holds:
        corners, top, _ = corner_tuples(report.direct)
        assert summand_corners(kind, i, j, k) == (top, set(corners))
    return report.expansion_holds


@settings(max_examples=100, deadline=None)
@given(
    small_ideals(max_vars=3, name="A", prefix="x"),
    small_ideals(max_vars=3, name="B", prefix="y"),
    st.sampled_from([ORD, SASS, SMIN]),
    st.integers(1, 3),
)
def test_the_direct_member_has_the_summand_built_corners(i, j, kind, k):
    holds = _assert_the_summands_build_the_corners(kind, i, j, k)
    assert holds or kind is not ORD


@pytest.mark.parametrize("kind", [SASS, SMIN])
@pytest.mark.parametrize("seed", [13, 16])
def test_the_direct_member_has_the_summand_built_corners_on_4x4_pairs(seed, kind):
    """(I+J)^(3) for the seeded 4+4 pairs with 8 generators of exponent at
    most 3 per side, whose expansions hold."""
    rng = random.Random(seed)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    assert _assert_the_summands_build_the_corners(kind, i, j, 3)


@settings(max_examples=100, deadline=None)
@given(
    small_ideals(max_vars=3, max_gens=3, name="A", prefix="x"),
    small_ideals(max_vars=3, max_gens=3, name="B", prefix="y"),
    st.integers(1, 3),
)
def test_the_closure_is_built_from_the_summands(i, j, k):
    """The closure of (I+J)^k is the sum of products of the summands'
    rational powers, whether or not the integer expansion holds; it is
    never compared with the integer expansion."""
    assert summand_closure(i, j, k) == integral_closure(join_ideals(i, j), k)


@pytest.mark.parametrize("seed, k", [(13, 2), (16, 3)])
def test_the_closure_is_built_from_the_summands_on_4x4_pairs(seed, k):
    """The closures of the seeded 4+4 pairs with 8 generators of exponent
    at most 3 per side (97 and 256 generators)."""
    rng = random.Random(seed)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    assert summand_closure(i, j, k) == integral_closure(join_ideals(i, j), k)
