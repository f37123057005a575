import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exponent_vectors, small_ideals
from oracles import brute_force_local_v
from videal.decomposition import associated_primes
from videal.errors import ImproperIdealError, NoWitnessError
from videal.ideals import PrimeSupport, colon_monomial, ideal, prime_support, unit_ideal
from videal.rings import Monomial, make_ring, mono, mul_exp
from videal.vnumbers import _colon_is_prime, local_v, v_number

R2 = make_ring("R", ["x", "y"])
R3 = make_ring("R", ["x", "y", "z"])


def test_local_v_degree_zero_for_prime_itself():
    a = ideal(R2, [mono(R2, x=1)])
    report = local_v(a, prime_support(R2, ["x"]))
    assert report.degree == 0
    assert report.witness.is_one()


def test_local_v_maximal_ideal_square():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1), mono(R2, y=2)])
    report = local_v(a, prime_support(R2, ["x", "y"]))
    assert report.degree == 1
    assert str(report.witness) == "x"


def test_local_v_triangle_edge_ideal():
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1), mono(R3, x=1, z=1)])
    report = local_v(a, prime_support(R3, ["y", "z"]))
    assert report.degree == 1
    assert str(report.witness) == "x"
    oracle = brute_force_local_v(a, prime_support(R3, ["y", "z"]), 1)
    assert oracle is not None and oracle.degree == 1


def test_local_v_rejects_non_associated_prime():
    a = ideal(R2, [mono(R2, x=1)])
    with pytest.raises(NoWitnessError):
        local_v(a, prime_support(R2, ["y"]))


def test_local_v_rejects_unit_ideal():
    with pytest.raises(ImproperIdealError):
        local_v(unit_ideal(R2), prime_support(R2, ["x"]))


def test_v_number_of_pure_square():
    report = v_number(ideal(R2, [mono(R2, x=2)]))
    assert report.degree == 1
    assert str(report.witness) == "x"
    assert report.prime.var_names == ("x",)


def test_v_number_of_triangle_is_one():
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1), mono(R3, x=1, z=1)])
    assert v_number(a).degree == 1


def test_v_number_of_prime_is_zero():
    assert v_number(ideal(R2, [mono(R2, x=1)])).degree == 0


def test_brute_force_examples():
    a = ideal(R2, [mono(R2, x=2)])
    found = brute_force_local_v(a, prime_support(R2, ["x"]), 3)
    assert found is not None and found.degree == 1 and str(found.witness) == "x"

    b = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1), mono(R2, y=2)])
    found = brute_force_local_v(b, prime_support(R2, ["x", "y"]), 2)
    assert found is not None and found.degree == 1

    c = ideal(R2, [mono(R2, x=1)])
    assert brute_force_local_v(c, prime_support(R2, ["y"]), 4) is None


@settings(max_examples=50, deadline=None)
@given(small_ideals())
def test_witness_soundness_and_oracle_agreement(a):
    for p in associated_primes(a):
        report = local_v(a, p)
        assert colon_monomial(a, report.witness) == p.as_ideal()
        assert report.degree == report.witness.degree
        oracle = brute_force_local_v(a, p, report.degree + 1)
        assert oracle is not None
        assert oracle.degree == report.degree


@settings(max_examples=50, deadline=None)
@given(small_ideals())
def test_v_number_is_min_of_local_values(a):
    locals_ = [local_v(a, p).degree for p in associated_primes(a)]
    assert v_number(a).degree == min(locals_)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_colon_rule_matches_the_colon_ideal(data):
    a = data.draw(small_ideals(max_vars=4))
    n = a.ring.nvars
    chosen = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    associated = data.draw(st.sampled_from(associated_primes(a)))
    # A witness, a member of a, and an arbitrary monomial.
    witness = local_v(a, associated).witness.exp
    member = mul_exp(
        data.draw(st.sampled_from(a.exps())),
        data.draw(exponent_vectors(n, max_exp=2, nonzero=False)),
    )
    other = data.draw(exponent_vectors(n, max_exp=4, nonzero=False))
    for p in (PrimeSupport(a.ring, tuple(sorted(chosen))), associated):
        for f in (witness, member, other):
            expected = colon_monomial(a, Monomial(a.ring, f)) == p.as_ideal()
            assert _colon_is_prime(a.exps(), f, set(p.indices)) == expected
