import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import exponent_vectors, small_rings
from oracles import canonical_key, embed, monomials_up_to_degree, mul, recursive_exps_of_degree
from videal.errors import RingMismatchError, VidealError
from videal.ideals import colon_monomial, ideal
from videal.rings import (
    Monomial,
    canonical_sort,
    divides_exp,
    exps_of_degree,
    join_rings,
    make_ring,
    mono,
    mul_exp,
    quot_exp,
)


def test_make_ring_single_variable():
    ring = make_ring("A", ["x"])
    assert ring.nvars == 1
    assert ring.vars == ("x",)


def test_make_ring_three_variables():
    ring = make_ring("A", ["x1", "x2", "x3"])
    assert ring.nvars == 3


def test_a_ring_prints_its_name_and_variables():
    assert str(make_ring("A", ["x", "y"])) == "A[x, y]"


def test_make_ring_rejects_duplicates():
    with pytest.raises(VidealError):
        make_ring("A", ["x", "x"])


def test_make_ring_rejects_empty():
    with pytest.raises(VidealError):
        make_ring("A", [])


def test_make_ring_rejects_names_that_are_not_strings():
    with pytest.raises(VidealError, match="must be strings"):
        make_ring("A", [1, 2])
    with pytest.raises(VidealError, match="must be strings"):
        make_ring(7, ["x"])


def test_rings_share_one_string_per_name():
    # Equal names made separately are distinct objects until the ring interns them.
    names = ["".join(["x", str(n)]) for n in range(2)]
    again = ["".join(["x", str(n)]) for n in range(2)]
    assert names[0] is not again[0]
    a = make_ring("".join(["R", "1"]), names)
    b = make_ring("".join(["R", "1"]), again)
    assert a.name is b.name
    assert all(u is v for u, v in zip(a.vars, b.vars))
    c = make_ring("B", ["y"])
    first, second = join_rings(a, c), join_rings(b, c)
    assert first.name is second.name
    assert all(u is v for u, v in zip(first.vars, a.vars + c.vars))


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
    assert quot_exp(u.exp, f.exp) == mono(ring, x1=1).exp


def test_degree_example():
    ring = make_ring("A", ["x1", "x2"])
    assert mono(ring, x1=2, x2=1).degree == 3


def test_ring_mismatch_raises():
    a = make_ring("A", ["x"])
    b = make_ring("B", ["y"])
    with pytest.raises(RingMismatchError):
        mul(mono(a, x=1), mono(b, y=1))
    with pytest.raises(RingMismatchError):
        colon_monomial(ideal(a, [mono(a, x=1)]), mono(b, y=1))


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
    ordered = [str(Monomial(ring, e)) for e in exps_of_degree(ring.nvars, 2)]
    assert ordered == ["x^2", "x*y", "y^2"]


def test_exps_of_degree_matches_the_recursive_order():
    for nvars in range(1, 6):
        for d in range(6):
            assert list(exps_of_degree(nvars, d)) == list(recursive_exps_of_degree(nvars, d))


def test_monomials_up_to_degree_counts():
    ring = make_ring("A", ["x", "y", "z"])
    count = sum(1 for _ in monomials_up_to_degree(ring, 3))
    assert count == 20  # C(3+3, 3)


def _gcd_exp(u, f):
    return tuple(map(min, u, f))


@given(small_rings(), st.data())
def test_divisibility_is_gcd_fixed_point(ring, data):
    u = data.draw(exponent_vectors(ring.nvars, nonzero=False))
    f = data.draw(exponent_vectors(ring.nvars, nonzero=False))
    assert divides_exp(u, f) == (_gcd_exp(u, f) == u)


@given(small_rings(), st.data())
def test_quotient_times_gcd_recovers(ring, data):
    u = data.draw(exponent_vectors(ring.nvars, nonzero=False))
    f = data.draw(exponent_vectors(ring.nvars, nonzero=False))
    assert mul_exp(quot_exp(u, f), _gcd_exp(u, f)) == u


@given(small_rings(), st.data())
def test_degree_is_additive(ring, data):
    u = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    f = Monomial(ring, data.draw(exponent_vectors(ring.nvars, nonzero=False)))
    assert mul(u, f).degree == u.degree + f.degree


@given(small_rings(), st.data())
def test_divides_iff_componentwise_quotient_multiplies_back(ring, data):
    u = data.draw(exponent_vectors(ring.nvars, nonzero=False))
    f = data.draw(exponent_vectors(ring.nvars, nonzero=False))
    if divides_exp(u, f):
        rest = tuple(b - a for a, b in zip(u, f))
        assert mul_exp(u, rest) == f
    else:
        assert _gcd_exp(u, f) != u


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


def test_ring_index_names_the_unknown_variable():
    with pytest.raises(VidealError, match="ring 'A' has no variable 'z'"):
        make_ring("A", ["x", "y"]).index("z")


def test_monomial_of_the_wrong_length_is_refused():
    with pytest.raises(VidealError, match="exponent vector of length 3 does not fit ring 'A' with 2 variables"):
        Monomial(make_ring("A", ["x", "y"]), (1, 0, 2))
