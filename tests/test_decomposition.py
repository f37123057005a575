import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_ideals
from oracles import brute_force_ass, pairwise_lcm_intersection, splitting_decomposition
from videal import decomposition
from videal.decomposition import (
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
)
from videal.errors import ImproperIdealError, InternalError, NoWitnessError
from videal.ideals import (
    PrimeSupport,
    colon_monomial,
    from_exps,
    ideal,
    intersect_all,
    power,
    prime_support,
    unit_ideal,
    zero_ideal,
)
from videal.rings import make_ring, mono

R2 = make_ring("R", ["x", "y"])
R3 = make_ring("R", ["x", "y", "z"])


def primes_as_names(primes):
    return {p.var_names for p in primes}


def test_single_squarefree_generator_splits():
    components = irreducible_decomposition(ideal(R2, [mono(R2, x=1, y=1)]))
    assert {str(c.ideal) for c in components} == {"(x)", "(y)"}


def test_embedded_component_example():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    components = irreducible_decomposition(a)
    assert {str(c.ideal) for c in components} == {"(x)", "(y, x^2)"}
    assert intersect_all([c.ideal for c in components], R2) == a


def test_pure_power_is_already_irreducible():
    components = irreducible_decomposition(ideal(R2, [mono(R2, x=2)]))
    assert [str(c.ideal) for c in components] == ["(x^2)"]


def test_decomposition_rejects_zero_and_unit():
    with pytest.raises(ImproperIdealError):
        irreducible_decomposition(zero_ideal(R2))
    with pytest.raises(ImproperIdealError):
        irreducible_decomposition(unit_ideal(R2))


def test_ass_two_components():
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, x=1, z=1)])
    assert primes_as_names(associated_primes(a)) == {("x",), ("y", "z")}
    # The defining witnesses behind the two primes.
    assert colon_monomial(a, mono(R3, y=1, z=1)) == prime_support(R3, ["x"]).as_ideal()
    assert colon_monomial(a, mono(R3, x=1)) == prime_support(R3, ["y", "z"]).as_ideal()


def test_ass_with_embedded_prime():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    assert primes_as_names(associated_primes(a)) == {("x",), ("x", "y")}
    assert brute_force_ass(a, 3) == associated_primes(a)


def test_ass_of_prime_is_itself():
    a = ideal(R2, [mono(R2, x=1)])
    assert primes_as_names(associated_primes(a)) == {("x",)}


def test_min_drops_embedded_prime():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    assert primes_as_names(minimal_primes(a)) == {("x",)}


def test_min_keeps_incomparable_primes():
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, x=1, z=1)])
    assert primes_as_names(minimal_primes(a)) == {("x",), ("y", "z")}


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_decomposition_intersects_back_and_is_irredundant(a):
    components = [c.ideal for c in irreducible_decomposition(a)]
    assert intersect_all(components, a.ring) == a
    for skip in range(len(components)):
        rest = [q for idx, q in enumerate(components) if idx != skip]
        if rest:
            assert intersect_all(rest, a.ring) != a


@settings(max_examples=60, deadline=None)
@given(small_ideals())
def test_component_radicals_are_their_primes(a):
    for component in irreducible_decomposition(a):
        support = set()
        for g in component.ideal.gens:
            nonzero = [i for i, e in enumerate(g.exp) if e]
            assert len(nonzero) == 1
            support.add(nonzero[0])
        assert tuple(sorted(support)) == component.prime.indices


@settings(max_examples=50, deadline=None)
@given(small_ideals())
def test_ass_witness_soundness(a):
    from videal.vnumbers import local_v

    for p in associated_primes(a):
        report = local_v(a, p)
        assert colon_monomial(a, report.witness) == p.as_ideal()


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_ass_matches_brute_force(a):
    assert brute_force_ass(a, 9) == associated_primes(a)


@settings(max_examples=50, deadline=None)
@given(small_ideals())
def test_min_inside_ass_and_covering(a):
    ass = associated_primes(a)
    mins = minimal_primes(a)
    assert set(mins) <= set(ass)
    for p in ass:
        assert any(p.contains_prime(q) for q in mins)


@settings(max_examples=150, deadline=None)
@given(small_ideals(max_vars=4, max_exp=3, max_gens=6))
def test_decomposition_matches_splitting_oracle(a):
    expected = splitting_decomposition(a)
    components = irreducible_decomposition(a)
    assert tuple(c.ideal for c in components) == expected
    radicals = [
        PrimeSupport(a.ring, tuple(sorted(next(i for i, e in enumerate(g.exp) if e) for g in q.gens)))
        for q in expected
    ]
    assert [c.prime for c in components] == radicals
    assert associated_primes(a) == tuple(sorted(set(radicals), key=lambda p: p.indices))


def test_cube_of_four_generators_in_eight_variables():
    ring = make_ring("S", [f"x{n}" for n in range(8)])
    a = power(from_exps(ring, [(1, 1, 0, 0, 2, 0, 1, 0), (0, 2, 1, 1, 0, 0, 0, 1),
                               (1, 0, 2, 0, 0, 1, 1, 1), (0, 0, 0, 2, 1, 2, 0, 1)]), 3)
    assert len(irreducible_decomposition(a)) == 229
    assert len(associated_primes(a)) == 48


@st.composite
def corner_families(draw):
    """A bound top and 1-6 corners over at most 5 variables, with entries
    in 0..top (top: no generator in that variable)."""
    t = draw(st.integers(1, 5))
    top = draw(st.integers(1, 4))
    corner = st.lists(st.integers(0, top), min_size=t, max_size=t).map(tuple)
    return draw(st.lists(corner, min_size=1, max_size=6)), top


@settings(max_examples=300)
@given(corner_families())
def test_intersect_corners_matches_pairwise_lcms(family):
    corners, top = family
    t = len(corners[0])
    meet = ((0,) * t,)
    for b in corners:
        powers = [(0,) * i + (e,) + (0,) * (t - i - 1) for i, e in enumerate(b) if e < top]
        meet = pairwise_lcm_intersection(meet, powers)
    assert decomposition._intersect_corners(corners, top) == meet


def test_intersect_back_check_catches_a_dropped_corner(monkeypatch):
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=2, z=1), mono(R3, x=2, z=2)])
    assert len(irreducible_decomposition(a)) > 1
    corners = decomposition._corners
    monkeypatch.setattr(decomposition, "_corners", lambda gens, top: corners(gens, top)[1:])
    with pytest.raises(InternalError, match="does not intersect back"):
        irreducible_decomposition(a)


def _certify_with_failing_local_v(monkeypatch, exc):
    """Run Ass certification on a cold cache with local_v raising exc."""
    from videal import vnumbers

    def failing_local_v(a, p):
        raise exc

    monkeypatch.setattr(vnumbers, "local_v", failing_local_v)
    associated_primes.cache_clear()
    return associated_primes(ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)]))


def test_ass_certification_does_not_relabel_unrelated_errors(monkeypatch):
    with pytest.raises(RuntimeError, match="unrelated"):
        _certify_with_failing_local_v(monkeypatch, RuntimeError("unrelated"))


def test_ass_certification_reports_a_missing_witness_as_internal(monkeypatch):
    with pytest.raises(InternalError, match="no colon witness"):
        _certify_with_failing_local_v(monkeypatch, NoWitnessError("none"))
