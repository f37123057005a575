import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exponent_vectors, small_rings
from oracles import canonical_key
from videal.errors import RingMismatchError, VidealError
from videal.rings import (
    Monomial,
    canonical_sort,
    degree,
    divides,
    embed,
    gcd,
    join_rings,
    lcm,
    make_ring,
    mono,
    monomials_of_degree,
    monomials_up_to_degree,
    mul,
    quotient_by_gcd,
)


def test_make_ring_single_variable():
    ring = make_ring("A", ["x"])
    assert ring.nvars == 1
    assert ring.vars == ("x",)


def test_make_ring_three_variables():
    ring = make_ring("A", ["x1", "x2", "x3"])
    assert ring.nvars == 3


def test_make_ring_rejects_duplicates():
    with pytest.raises(VidealError):
        make_ring("A", ["x", "x"])


def test_make_ring_rejects_empty():
    with pytest.raises(VidealError):
        make_ring("A", [])


def test_join_rings_concatenates_variables():
    a = make_ring("A", ["x1", "x2"])
    b = make_ring("B", ["y1"])
    s = join_rings(a, b)
    assert s.vars == ("x1", "x2", "y1")


def test_join_rings_rejects_overlap():
    with pytest.raises(VidealError):
        join_rings(make_ring("A", ["x"]), make_ring("B", ["x"]))


def test_embed_pads_with_zeros():
    a = make_ring("A", ["x1", "x2"])
    s = join_rings(a, make_ring("B", ["y1"]))
    f = mono(a, x1=2)
    assert embed(f, s).exp == (2, 0, 0)


def test_quotient_by_gcd_examples():
    ring = make_ring("A", ["x1", "x2", "x3"])
    u = mono(ring, x1=2, x2=1)
    f = mono(ring, x1=1, x2=1)
    assert quotient_by_gcd(u, f) == mono(ring, x1=1)


def test_gcd_lcm_example():
    ring = make_ring("A", ["x", "y"])
    u = mono(ring, x=2, y=1)
    f = mono(ring, y=3)
    assert gcd(u, f) == mono(ring, y=1)
    assert lcm(u, f) == mono(ring, x=2, y=3)


def test_degree_example():
    ring = make_ring("A", ["x1", "x2"])
    assert degree(mono(ring, x1=2, x2=1)) == 3


def test_ring_mismatch_raises():
    a = make_ring("A", ["x"])
    b = make_ring("B", ["y"])
    with pytest.raises(RingMismatchError):
        mul(mono(a, x=1), mono(b, y=1))


def test_negative_exponent_rejected():
    ring = make_ring("A", ["x"])
    with pytest.raises(VidealError):
        Monomial(ring, (-1,))


def test_monomial_str_roundtrip_forms():
    ring = make_ring("A", ["x", "y"])
    assert str(mono(ring)) == "1"
    assert str(mono(ring, x=1)) == "x"
    assert str(mono(ring, x=2, y=1)) == "x^2*y"


def test_canonical_order_graded_then_lex():
    ring = make_ring("A", ["x", "y"])
    ordered = [str(f) for f in monomials_of_degree(ring, 2)]
    assert ordered == ["x^2", "x*y", "y^2"]


def test_monomials_up_to_degree_counts():
    ring = make_ring("A", ["x", "y", "z"])
    count = sum(1 for _ in monomials_up_to_degree(ring, 3))
    assert count == 20  # C(3+3, 3)


@given(small_rings(), st.data())
def test_divisibility_is_gcd_fixed_point(ring, data):
    u = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    assert divides(u, f) == (gcd(u, f) == u)


@given(small_rings(), st.data())
def test_quotient_times_gcd_recovers(ring, data):
    u = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    assert mul(quotient_by_gcd(u, f), gcd(u, f)) == u


@given(small_rings(), st.data())
def test_degree_is_additive(ring, data):
    u = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    assert degree(mul(u, f)) == degree(u) + degree(f)


@given(small_rings(), st.data())
def test_divides_iff_componentwise_quotient_multiplies_back(ring, data):
    u = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    if divides(u, f):
        rest = Monomial(ring, tuple(b - a for a, b in zip(u.exp, f.exp)))
        assert mul(u, rest) == f
    else:
        assert gcd(u, f) != u


def test_canonical_key_total_degree_first():
    xs = [(4, 0), (0, 3)]
    canonical_sort(xs)
    assert xs == [(0, 3), (4, 0)]
    ys = [(0, 2), (1, 1), (2, 0)]
    canonical_sort(ys)
    assert ys == [(2, 0), (1, 1), (0, 2)]


@given(st.integers(1, 5).flatmap(
    lambda t: st.sets(exponent_vectors(t, 4, nonzero=False), max_size=20)
))
def test_canonical_sort_matches_canonical_key(vectors):
    xs = list(vectors)
    canonical_sort(xs)
    assert xs == sorted(vectors, key=canonical_key)
