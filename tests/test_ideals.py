import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exponent_vectors, small_ideals, small_rings
from oracles import (
    canonical_key,
    colon_members,
    degree_sweep_minimal_exps,
    embed,
    localize,
    mul,
    pairwise_lcm_intersection,
    same_ideal_up_to,
)
from videal.errors import VidealError
from videal.ideals import (
    MonomialIdeal,
    PrimeSupport,
    colon_ideal,
    colon_monomial,
    from_exps,
    ideal,
    intersect,
    intersect_exps,
    minimal_exps,
    power,
    prime_support,
    product,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
from videal.rings import (
    Monomial,
    divides_exp,
    make_ring,
    mono,
    monomials_up_to_degree,
    mul_exp,
)

R2 = make_ring("R", ["x", "y"])
R3 = make_ring("R", ["x", "y", "z"])


def gens_str(a: MonomialIdeal) -> set[str]:
    return {str(g) for g in a.gens}


def test_minimalize_drops_divisible_generators():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=3), mono(R2, y=1)])
    assert gens_str(a) == {"x^2", "y"}


def test_minimalize_empty_is_zero_ideal():
    a = ideal(R2, [])
    assert a.is_zero()
    assert not a.contains(mono(R2, x=5))


def test_minimalize_with_one_is_unit_ideal():
    a = ideal(R2, [mono(R2), mono(R2, x=1)])
    assert a.is_unit()


def test_contains_examples():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=1)])
    assert a.contains(mono(R2, x=2, y=3))
    assert not a.contains(mono(R2, x=1))


def test_power_square_of_two_variables():
    a = ideal(R2, [mono(R2, x=1), mono(R2, y=1)])
    assert gens_str(power(a, 2)) == {"x^2", "x*y", "y^2"}


def test_product_of_principal_ideals():
    assert gens_str(product(ideal(R2, [mono(R2, x=1)]), ideal(R2, [mono(R2, y=1)]))) == {"x*y"}


def test_power_zero_is_unit():
    a = ideal(R2, [mono(R2, x=1)])
    assert power(a, 0).is_unit()
    with pytest.raises(VidealError):
        power(a, -1)


def test_product_unit_and_zero_conventions():
    a = ideal(R2, [mono(R2, x=2)])
    assert product(a, unit_ideal(R2)) == a
    assert product(a, zero_ideal(R2)).is_zero()


def test_intersect_principal():
    a = intersect(ideal(R2, [mono(R2, x=1)]), ideal(R2, [mono(R2, y=1)]))
    assert gens_str(a) == {"x*y"}


def test_intersect_lcm_pairs_then_minimalize():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=1)])
    b = ideal(R2, [mono(R2, x=1)])
    assert gens_str(intersect(a, b)) == {"x^2", "x*y"}


def test_intersect_idempotent():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    assert intersect(a, a) == a


@settings(max_examples=300)
@given(st.integers(1, 5).flatmap(
    lambda t: st.lists(exponent_vectors(t, 3, nonzero=False), max_size=12)
))
def test_minimal_exps_matches_degree_sweep(vectors):
    assert minimal_exps(vectors) == degree_sweep_minimal_exps(vectors)


@st.composite
def intersection_operands(draw):
    """Antichains x (canonical) and y over at most 5 variables, exponents
    at most 3, at most 7 generators each, in one of several shapes."""
    t = draw(st.integers(1, 5))
    vectors = st.lists(exponent_vectors(t, 3, nonzero=False), max_size=7)
    x = minimal_exps(draw(vectors))
    shape = draw(st.sampled_from(["any", "unit", "equal", "x in y", "y in x", "pure powers"]))
    if shape == "unit":
        y = ((0,) * t,)
    elif shape == "equal":
        y = x
    elif shape == "pure powers":
        # As irreducible_decomposition passes them: by variable index,
        # which is not canonical when the exponents differ.
        b = draw(st.lists(st.integers(0, 3), min_size=t, max_size=t))
        y = tuple((0,) * i + (e,) + (0,) * (t - i - 1) for i, e in enumerate(b) if e)
        x = draw(st.sampled_from([x, ((0,) * t,), minimal_exps(tuple(e // 2 for e in v) for v in y)]))
    else:
        y = minimal_exps(draw(vectors))
        if shape != "any":
            # Multiples of one side's generators lie in that side.
            small = y if shape == "x in y" else x
            big = minimal_exps(
                mul_exp(u, draw(exponent_vectors(t, 2, nonzero=False))) for u in small for _ in (0, 1)
            )
            x, y = (big, small) if shape == "x in y" else (small, big)
    if shape != "pure powers" and draw(st.booleans()):
        x, y = y, x
    return x, y


@settings(max_examples=400)
@given(intersection_operands())
def test_intersect_exps_matches_pairwise_lcms(operands):
    x, y = operands
    meet = intersect_exps(x, y)
    assert meet == pairwise_lcm_intersection(x, y)
    assert list(meet) == sorted(set(meet), key=canonical_key)


def test_colon_monomial_examples():
    ring = make_ring("R", ["x1", "x2", "x3"])
    a = ideal(ring, [mono(ring, x1=2, x2=1), mono(ring, x3=1)])
    assert gens_str(colon_monomial(a, mono(ring, x1=1, x2=1))) == {"x1", "x3"}

    b = ideal(R2, [mono(R2, x=2, y=1), mono(R2, y=3)])
    assert gens_str(colon_monomial(b, mono(R2, y=2))) == {"x^2", "y"}


def test_colon_by_one_is_identity():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=3)])
    assert colon_monomial(a, mono(R2)) == a


def test_colon_is_unit_iff_member():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=1)])
    assert colon_monomial(a, mono(R2, x=2, y=2)).is_unit()
    assert not colon_monomial(a, mono(R2, x=1)).is_unit()


def test_colon_of_zero_ideal_is_zero():
    assert colon_monomial(zero_ideal(R2), mono(R2, x=1)).is_zero()


def test_colon_ideal_principal():
    a = colon_ideal(ideal(R2, [mono(R2, x=2)]), ideal(R2, [mono(R2, x=1)]))
    assert gens_str(a) == {"x"}


def test_colon_ideal_by_unit_is_identity():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=1)])
    assert colon_ideal(a, unit_ideal(R2)) == a


def test_colon_ideal_by_zero_rejected():
    with pytest.raises(VidealError):
        colon_ideal(ideal(R2, [mono(R2, x=1)]), zero_ideal(R2))


def test_colon_ideal_two_generators_oracle_value():
    # Oracle first: enumerate g with g*y and g*z in (xy, xz) up to degree 3.
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, x=1, z=1)])
    b = ideal(R3, [mono(R3, y=1), mono(R3, z=1)])
    expected = colon_members(a, list(b.gens), deg_cap=3)
    assert gens_str(expected) == {"x"}
    assert colon_ideal(a, b) == expected


def test_colon_ideal_triangle_oracle_value():
    # Same oracle on the triangle ideal, where the second generator x*y*z
    # of the colon is genuinely needed.
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, x=1, z=1), mono(R3, y=1, z=1)])
    b = ideal(R3, [mono(R3, y=1), mono(R3, z=1)])
    expected = colon_members(a, list(b.gens), deg_cap=3)
    assert gens_str(expected) == {"x", "y*z"}
    assert colon_ideal(a, b) == expected


def test_localize_examples():
    p = prime_support(R2, ["x"])
    assert gens_str(localize(ideal(R2, [mono(R2, x=1, y=1)]), p)) == {"x"}
    assert gens_str(localize(ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)]), p)) == {"x"}


def test_localize_at_all_variables_is_identity():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    p = prime_support(R2, ["x", "y"])
    assert localize(a, p) == a


@pytest.mark.parametrize("indices", [(-1,), (-1, 0), (2,), (0, 2)])
def test_prime_support_rejects_an_index_outside_the_ring(indices):
    with pytest.raises(VidealError, match="prime support index out of range"):
        PrimeSupport(R2, indices)


def test_localize_contains_original():
    a = ideal(R2, [mono(R2, x=2, y=1)])
    p = prime_support(R2, ["x"])
    assert localize(a, p).contains_ideal(a)


def test_equals_after_minimalization():
    assert ideal(R2, [mono(R2, x=2), mono(R2, x=3)]) == ideal(R2, [mono(R2, x=2)])
    assert ideal(R2, [mono(R2, x=1)]) != ideal(R2, [mono(R2, y=1)])
    assert zero_ideal(R2) != unit_ideal(R2)


@settings(max_examples=60)
@given(small_ideals(), st.data())
def test_colon_monomial_membership_oracle(a, data):
    ring = a.ring
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    quotient = colon_monomial(a, f)
    for g in monomials_up_to_degree(ring, 4):
        assert quotient.contains(g) == a.contains(mul(g, f))


@settings(max_examples=40)
@given(small_rings(), st.data())
def test_fact_sum_commutes_with_colon(ring, data):
    parts = [
        data.draw(small_ideals(ring=ring)) for _ in range(data.draw(st.integers(1, 3)))
    ]
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    total = zero_ideal(ring)
    for part in parts:
        total = sum_ideals(total, part)
    lhs = colon_monomial(total, f)
    rhs = zero_ideal(ring)
    for part in parts:
        rhs = sum_ideals(rhs, colon_monomial(part, f))
    assert lhs == rhs


@settings(max_examples=40)
@given(st.data())
def test_fact_product_colon_splits_across_disjoint_rings(data):
    from videal.expansion import join_ideals
    from videal.rings import join_rings

    ring_a = data.draw(small_rings(name="A", prefix="x"))
    ring_b = data.draw(small_rings(name="B", prefix="y"))
    i = data.draw(small_ideals(ring=ring_a))
    j = data.draw(small_ideals(ring=ring_b))
    s = join_rings(ring_a, ring_b)
    xa = Monomial(ring_a, data.draw(exponent_vectors(ring_a.nvars, nonzero=False)))
    yb = Monomial(ring_b, data.draw(exponent_vectors(ring_b.nvars, nonzero=False)))

    i_s = ideal(s, [embed(g, s) for g in i.gens])
    j_s = ideal(s, [embed(g, s) for g in j.gens])
    lhs = colon_monomial(product(i_s, j_s), mul(embed(xa, s), embed(yb, s)))
    rhs = product(
        ideal(s, [embed(g, s) for g in colon_monomial(i, xa).gens]),
        ideal(s, [embed(g, s) for g in colon_monomial(j, yb).gens]),
    )
    assert lhs == rhs
    # join_ideals is the sum, not the product; sanity-check it against embed.
    assert join_ideals(i, j) == sum_ideals(i_s, j_s)


@settings(max_examples=60)
@given(small_ideals(), st.data())
def test_iterated_colon(a, data):
    ring = a.ring
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    g = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    assert colon_monomial(colon_monomial(a, f), g) == colon_monomial(a, mul(f, g))


@settings(max_examples=40)
@given(small_rings(), st.data())
def test_intersect_associative_commutative_with_membership(ring, data):
    a = data.draw(small_ideals(ring=ring))
    b = data.draw(small_ideals(ring=ring))
    c = data.draw(small_ideals(ring=ring))
    assert intersect(a, b) == intersect(b, a)
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
    meet = intersect(a, b)
    for f in monomials_up_to_degree(ring, 4):
        assert meet.contains(f) == (a.contains(f) and b.contains(f))


@settings(max_examples=40)
@given(small_ideals(), st.data())
def test_localize_idempotent(a, data):
    indices = data.draw(
        st.sets(st.integers(0, a.ring.nvars - 1), min_size=1).map(
            lambda s: tuple(sorted(s))
        )
    )
    p = PrimeSupport(a.ring, indices)
    once = localize(a, p)
    assert localize(once, p) == once


@settings(max_examples=40)
@given(small_ideals())
def test_generators_form_antichain(a):
    for u in a.exps():
        for f in a.exps():
            if u != f:
                assert not divides_exp(u, f)


@settings(max_examples=60)
@given(small_ideals())
def test_gens_are_derived_from_the_stored_tuples(a):
    rebuilt = from_exps(a.ring, (g.exp for g in a.gens))
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)
    assert all(isinstance(g, Monomial) and g.ring == a.ring for g in a.gens)
    assert tuple(g.exp for g in a.gens) == a.exps()
    elsewhere = from_exps(make_ring("S", a.ring.vars), a.exps())
    assert elsewhere.exps() == a.exps()
    assert elsewhere != a


@settings(max_examples=60)
@given(small_ideals())
def test_the_hash_is_cached_and_never_pickled(a):
    rebuilt = from_exps(a.ring, reversed(a.exps()))
    assert hash(a) == hash(a) == hash((a.ring, a.exps()))
    # rebuilt is hashed only now: equal ideals hash equal whichever is hashed first.
    assert rebuilt == a and hash(rebuilt) == hash(a)
    assert repr(rebuilt) == repr(a)
    fresh = from_exps(a.ring, a.exps())
    # A string hash differs between processes, so no cached hash is pickled.
    assert pickle.dumps(a) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and hash(copy) == hash(a) and copy.exps() == a.exps()


@settings(max_examples=30)
@given(small_ideals(), small_ideals())
def test_sum_is_membership_union_closure(a, b):
    if a.ring != b.ring:
        return
    total = sum_ideals(a, b)
    assert same_ideal_up_to(total, total, 3)
    for f in monomials_up_to_degree(a.ring, 4):
        if a.contains(f) or b.contains(f):
            assert total.contains(f)
