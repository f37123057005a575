from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exponent_vectors, small_ideals
from oracles import (
    as_prime,
    brute_force_local_v,
    colon_chain_local_v,
    lane_width,
    packed_colon_prime,
    unpack_exps,
)
from videal import decomposition, ideals, vnumbers
from videal.decomposition import associated_primes, irreducible_decomposition
from videal.errors import ImproperIdealError, NoWitnessError
from videal.filtrations import FiltrationKind, filtration_member
from videal.ideals import (
    PrimeSupport,
    colon_monomial,
    from_exps,
    ideal,
    power,
    prime_support,
    unit_ideal,
)
from videal.rings import Monomial, make_ring, mono, mul_exp
from videal.vnumbers import local_v, v_number

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
    reports = [local_v(a, p) for p in associated_primes(a)]
    assert v_number(a).degree == min(report.degree for report in reports)
    # The least entry, stored when the table is built, breaks ties by support.
    assert v_number(a) is min(reports, key=lambda report: (report.degree, report.prime.indices))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_colon_rule_matches_the_colon_ideal(data):
    a = data.draw(small_ideals(max_vars=4))
    n = a.ring.nvars
    associated = data.draw(st.sampled_from(associated_primes(a)))
    # A witness, a member of a, and an arbitrary monomial.
    witness = local_v(a, associated).witness.exp
    member = mul_exp(
        data.draw(st.sampled_from(a.exps())),
        data.draw(exponent_vectors(n, max_exp=2, nonzero=False)),
    )
    other = data.draw(exponent_vectors(n, max_exp=4, nonzero=False))
    for f in (witness, member, other):
        prime = as_prime(colon_monomial(a, Monomial(a.ring, f)))
        assert packed_colon_prime(a.exps(), f) == (None if prime is None else prime.indices)
    assert packed_colon_prime(a.exps(), witness) == associated.indices
    assert packed_colon_prime(a.exps(), member) is None


def _answer(search, a, p):
    try:
        report = search(a, p)
    except NoWitnessError:
        return None
    return report.degree, report.witness.exp


R4 = make_ring("R", ["x", "y", "z", "w"])


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_gens=7, max_exp=4, max_vars=5))
# At (x, z) the witnesses y^3*z^3 and z^3*w^3 tie in degree; the first in canonical order wins.
@example(from_exps(R4, [(0, 0, 4, 0), (3, 0, 2, 1), (1, 3, 2, 0), (3, 2, 2, 0), (1, 0, 3, 3)]))
def test_corner_search_matches_the_colon_chain_on_every_prime(a):
    # Same degree and witness on associated primes; both raise on the rest.
    n = a.ring.nvars
    for size in range(1, n + 1):
        for indices in combinations(range(n), size):
            p = PrimeSupport(a.ring, indices)
            assert _answer(local_v, a, p) == _answer(colon_chain_local_v, a, p)


def test_local_v_builds_no_colon_ideal_on_a_cold_cache(monkeypatch):
    def no_intersections(x, y):
        raise AssertionError("local_v formed an intersection")

    monkeypatch.setattr(ideals, "intersect", no_intersections)
    assert not hasattr(vnumbers, "intersect")
    decomposition._decomposition.cache_clear()
    # (x^2, x*y^2, y^3*z, x*z^2): a : (x, y) needs the parts of x and y met.
    a = ideal(R3, [mono(R3, x=2), mono(R3, x=1, y=2), mono(R3, y=3, z=1), mono(R3, x=1, z=2)])
    report = local_v(a, prime_support(R3, ["x", "y"]))
    assert colon_monomial(a, report.witness) == prime_support(R3, ["x", "y"]).as_ideal()
    oracle = brute_force_local_v(a, prime_support(R3, ["x", "y"]), report.degree)
    assert (report.degree, report.witness) == (oracle.degree, oracle.witness)


def _read_everything(a, absent):
    """Ass, every local v-number, the v-number, a prime that is not
    associated, and the decomposition of a, which all agree."""
    primes = associated_primes(a)
    assert len(primes) > 1
    reports = [local_v(a, p) for p in primes]
    assert v_number(a) == min(reports, key=lambda report: (report.degree, report.prime.indices))
    with pytest.raises(NoWitnessError):
        local_v(a, absent)
    assert {c.prime for c in irreducible_decomposition(a)} == set(primes)


def test_one_corner_computation_serves_ass_v_number_and_every_local_v(monkeypatch):
    """Whichever reader comes first, on cold memos, each ideal is swept
    once and its witness table searched once: Ass, the decomposition, and
    a symbolic member, which sweeps the ideal and its power on the way."""
    corners = decomposition._corners
    search = decomposition._witness_table
    swept, searched = [], []

    def counted_corners(gens, top, n):
        swept.append(tuple(unpack_exps(gens, n, lane_width(top))))
        return corners(gens, top, n)

    def counted_search(a, *args):
        searched.append(a.exps())
        return search(a, *args)

    def cold():
        for cached in (decomposition._decomposition, associated_primes, filtration_member):
            cached.cache_clear()
        swept.clear()
        searched.clear()

    monkeypatch.setattr(decomposition, "_corners", counted_corners)
    monkeypatch.setattr(decomposition, "_witness_table", counted_search)
    # (x^2, x*y^2, y^3*z, x*z^2) has three associated primes.
    a = ideal(R3, [mono(R3, x=2), mono(R3, x=1, y=2), mono(R3, y=3, z=1), mono(R3, x=1, z=2)])
    absent = prime_support(R3, ["z"])
    for first in (associated_primes, irreducible_decomposition):
        cold()
        first(a)
        _read_everything(a, absent)
        assert swept == searched == [a.exps()]
    # Min(a) drops the embedded prime (x, y, z), so a^(2) is not a^2.
    cold()
    member = filtration_member(FiltrationKind.SYMBOLIC_MIN, a, 2)
    square = power(a, 2)
    assert member != square
    _read_everything(member, absent)
    assert swept == searched == [a.exps(), square.exps(), member.exps()]
