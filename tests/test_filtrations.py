import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_ideals
from oracles import (
    all_primes_symbolic_power,
    box_scan_integral_closure,
    certificate_denominator_lcm,
    fibre_scan_minimal_points,
    power_membership_oracle,
)
from videal import filtrations
from videal.decomposition import associated_primes, minimal_primes
from videal.errors import InternalError, VidealError
from videal.expansion import join_ideals
from videal.filtrations import (
    FiltrationKind,
    check_filtration_property,
    filtration_member,
    integral_closure,
    newton_member,
    normally_torsion_free,
)
from videal.ideals import (
    from_exps,
    ideal,
    intersect_all,
    localize,
    power,
    product,
    sum_ideals,
    unit_ideal,
)
from videal.randgen import random_ideal
from videal.rings import make_ring, mono

R2 = make_ring("R", ["x", "y"])
R3 = make_ring("R", ["x", "y", "z"])

TRIANGLE = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1), mono(R3, x=1, z=1)])


def gens_str(a):
    return {str(g) for g in a.gens}


# ---------------------------------------------------------------------------
# Newton membership and the power-membership oracle
# ---------------------------------------------------------------------------

def test_newton_midpoint():
    result = newton_member((1, 1), [(2, 0), (0, 2)])
    assert result.member
    assert result.certificate == (Fraction(1, 2), Fraction(1, 2))


def test_newton_outside():
    result = newton_member((1, 0), [(2, 0), (0, 2)])
    assert not result.member
    assert result.certificate is None


def test_newton_vertex():
    result = newton_member((2, 0), [(2, 0), (0, 2)])
    assert result.member
    assert result.certificate == (Fraction(1), Fraction(0))


def test_newton_dimension_mismatch():
    with pytest.raises(VidealError):
        newton_member((1, 1, 1), [(2, 0)])


def test_power_membership_oracle_examples():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    assert power_membership_oracle((1, 1), a, 2)  # (xy)^2 = x^2 * y^2
    assert power_membership_oracle((2, 0), a, 1)
    assert not power_membership_oracle((1, 0), a, 3)


def test_certificate_bounds_oracle_power():
    result = newton_member((1, 1), [(2, 0), (0, 2)])
    m = certificate_denominator_lcm(result.certificate)
    assert m == 2
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    assert power_membership_oracle((1, 1), a, m)


# ---------------------------------------------------------------------------
# Integral closure
# ---------------------------------------------------------------------------

def test_integral_closure_adds_midpoint():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    assert gens_str(integral_closure(a)) == {"x^2", "x*y", "y^2"}


def test_principal_ideal_is_integrally_closed():
    a = ideal(R2, [mono(R2, x=3)])
    assert integral_closure(a) == a


def test_integral_closure_bowtie_example():
    a = ideal(R2, [mono(R2, x=3, y=1), mono(R2, x=1, y=3)])
    closed = integral_closure(a)
    assert gens_str(closed) == {"x^3*y", "x^2*y^2", "x*y^3"}
    # Confirmed by the power-membership characterization.
    assert power_membership_oracle((2, 2), a, 4)


@settings(max_examples=40, deadline=None)
@given(small_ideals(max_exp=3))
def test_closure_contains_and_is_idempotent(a):
    closed = integral_closure(a)
    assert closed.contains_ideal(a)
    assert integral_closure(closed) == closed


@settings(max_examples=40, deadline=None)
@given(small_ideals(max_exp=3), st.data())
def test_newton_agrees_with_power_oracle(a, data):
    bounds = [max(g.exp[i] for g in a.gens) + 1 for i in range(a.ring.nvars)]
    point = tuple(data.draw(st.integers(0, b)) for b in bounds)
    result = newton_member(point, a.exps())
    if result.member:
        m = certificate_denominator_lcm(result.certificate)
        assert power_membership_oracle(point, a, m)
    else:
        assert not power_membership_oracle(point, a, 6)


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_gens=6, max_exp=3, max_vars=4), st.integers(1, 3))
def test_closure_matches_box_scan_oracle(a, k):
    for b in (a, power(a, k)):
        assert integral_closure(b) == box_scan_integral_closure(b)


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_gens=6, max_exp=3, max_vars=4), st.data())
def test_newton_facets_agree_with_the_lp(a, data):
    gens = a.exps()
    facets = filtrations._newton_facets(gens)
    assert facets
    for w, d in facets:
        assert all(isinstance(x, int) and x >= 0 for x in w)
        assert isinstance(d, int) and d > 0
        assert gcd(*w, d) == 1
        # Valid on every generator, and tight on one: a supporting hyperplane.
        assert min(sum(wi * vi for wi, vi in zip(w, v)) for v in gens) == d
    # Points in the exponent box and one step beyond it.
    bounds = [max(column) + 1 for column in zip(*gens)]
    for _ in range(10):
        point = tuple(data.draw(st.integers(0, b)) for b in bounds)
        inside = all(sum(wi * pi for wi, pi in zip(w, point)) >= d for w, d in facets)
        assert inside == newton_member(point, gens).member


def test_closure_check_catches_a_bad_facet(monkeypatch):
    facets = filtrations._newton_facets

    def raised_first(gens):
        (w, d), *rest = facets(gens)
        return [(w, d + 1), *rest]

    monkeypatch.setattr(filtrations, "_newton_facets", raised_first)
    a = ideal(R2, [mono(R2, x=3, y=1), mono(R2, x=1, y=3)])
    with pytest.raises(InternalError, match="integral closure"):
        filtrations.integral_closure.__wrapped__(a)


def test_closure_of_a_large_diagonal_power():
    # (x^N, y^N) closes to (x, y)^N: N + 1 generators, no N^2 box scan.
    a = ideal(R2, [mono(R2, x=200), mono(R2, y=200)])
    assert integral_closure(a) == power(ideal(R2, [mono(R2, x=1), mono(R2, y=1)]), 200)


def test_closure_of_a_cube_in_six_variables_matches_oracle():
    # Seed 13 draws (x1^2, x2^2) and (y3^2, y2^2*y3): the cube of their
    # join has 20 generators, its closure 50, and the box 2,401 points.
    rng = random.Random(13)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3"]), 4, 2)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3"]), 4, 2)
    cube = power(join_ideals(i, j), 3)
    closed = integral_closure(cube)
    assert (len(cube.exps()), len(closed.exps())) == (20, 50)
    assert closed == box_scan_integral_closure(cube)


@settings(max_examples=80, deadline=None)
@given(small_ideals(max_gens=6, max_exp=3, max_vars=5), st.integers(1, 3))
def test_row_enumeration_matches_fibre_scan(a, k):
    # The facets of NP(a^k) = k NP(a), in a box holding its minimal points.
    facets = [(w, k * d) for w, d in filtrations._newton_facets(a.exps())]
    bounds = [k * max(column) for column in zip(*a.exps())]
    points = filtrations._minimal_points(facets, bounds)
    assert sorted(points) == sorted(fibre_scan_minimal_points(facets, bounds))


@settings(max_examples=40, deadline=None)
@given(small_ideals(max_gens=6, max_exp=3, max_vars=4), st.integers(1, 3))
def test_closure_of_a_power_matches_box_scan_oracle(a, k):
    assert integral_closure(a, k) == box_scan_integral_closure(power(a, k))


def test_closure_of_an_eight_variable_cube_matches_fibre_scan():
    # The cube of perfbench's hang-guard ideal: 20 generators, 36 facets,
    # and a box of 153,664 fibres around 54 minimal points.
    ring = make_ring("S", [f"x{n}" for n in range(8)])
    base = from_exps(ring, [(1, 1, 0, 0, 2, 0, 1, 0), (0, 2, 1, 1, 0, 0, 0, 1),
                            (1, 0, 2, 0, 0, 1, 1, 1), (0, 0, 0, 2, 1, 2, 0, 1)])
    cube = power(base, 3)
    facets = filtrations._newton_facets(cube.exps())
    bounds = [max(column) for column in zip(*cube.exps())]
    expected = from_exps(ring, fibre_scan_minimal_points(facets, bounds))
    assert len(expected.exps()) == 54
    assert integral_closure(cube) == integral_closure(base, 3) == expected


# ---------------------------------------------------------------------------
# Filtration members
# ---------------------------------------------------------------------------

def test_member_zero_is_unit_for_every_kind():
    for kind in FiltrationKind:
        assert filtration_member(kind, TRIANGLE, 0).is_unit()


def test_ordinary_member_is_power():
    a = ideal(R2, [mono(R2, x=2)])
    assert gens_str(filtration_member(FiltrationKind.ORDINARY, a, 3)) == {"x^6"}


def test_symbolic_min_of_triangle_adds_xyz():
    member = filtration_member(FiltrationKind.SYMBOLIC_MIN, TRIANGLE, 2)
    expected = sum_ideals(power(TRIANGLE, 2), ideal(R3, [mono(R3, x=1, y=1, z=1)]))
    assert member == expected
    # Independent oracle: intersect the localized squares over Min.
    oracle = intersect_all(
        [localize(power(TRIANGLE, 2), p) for p in minimal_primes(TRIANGLE)], R3
    )
    assert member == oracle


def test_symbolic_ass_at_one_recovers_ideal():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    assert filtration_member(FiltrationKind.SYMBOLIC_ASS, a, 1) == a


def test_member_rejects_unit_for_positive_k():
    with pytest.raises(VidealError):
        filtration_member(FiltrationKind.ORDINARY, unit_ideal(R2), 1)


@settings(max_examples=25, deadline=None)
@given(small_ideals(max_exp=2), st.sampled_from(list(FiltrationKind)))
def test_filtration_axioms(a, kind):
    members = {k: filtration_member(kind, a, k) for k in range(7)}
    assert members[0].is_unit()
    for k in range(6):
        assert members[k].contains_ideal(members[k + 1])
    for k, r in itertools.product(range(4), repeat=2):
        assert members[k + r].contains_ideal(product(members[k], members[r]))
    for k in range(1, 4):
        assert members[k].contains_ideal(power(a, k))


@settings(max_examples=30, deadline=None)
@given(small_ideals(max_exp=2))
def test_symbolic_ass_inside_symbolic_min(a):
    for k in (1, 2, 3):
        fine = filtration_member(FiltrationKind.SYMBOLIC_ASS, a, k)
        coarse = filtration_member(FiltrationKind.SYMBOLIC_MIN, a, k)
        assert coarse.contains_ideal(fine)
        if associated_primes(a) == minimal_primes(a):
            assert fine == coarse


@settings(max_examples=30, deadline=None)
@given(small_ideals(max_exp=1))
def test_squarefree_min_symbolic_is_prime_power_intersection(a):
    # For square-free ideals the minimal components are the minimal primes
    # themselves, so the symbolic power is the intersection of their powers.
    for h in (1, 2, 3):
        member = filtration_member(FiltrationKind.SYMBOLIC_MIN, a, h)
        oracle = intersect_all(
            [power(p.as_ideal(), h) for p in minimal_primes(a)], a.ring
        )
        assert member == oracle


@settings(max_examples=60, deadline=None)
@given(
    small_ideals(max_vars=4),
    st.sampled_from([FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN]),
    st.integers(1, 3),
)
def test_symbolic_power_matches_all_primes_oracle(a, kind, k):
    assert filtration_member(kind, a, k) == all_primes_symbolic_power(kind, a, k)


def test_symbolic_power_skips_an_embedded_prime(monkeypatch):
    # Ass((x^2, xy)) = {(x), (x, y)}: localizing at the embedded prime
    # (x, y) changes nothing, and (x) lies inside it, so it is skipped.
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    assert [p.var_names for p in associated_primes(a)] == [("x",), ("x", "y")]
    localized = []

    def recording_localize(b, p):
        localized.append(p.var_names)
        return localize(b, p)

    monkeypatch.setattr(filtrations, "localize", recording_localize)
    filtration_member.cache_clear()
    for k in (1, 2, 3):
        member = filtration_member(FiltrationKind.SYMBOLIC_ASS, a, k)
        assert member == power(a, k)
        assert member == all_primes_symbolic_power(FiltrationKind.SYMBOLIC_ASS, a, k)
    assert localized == [("x", "y")] * 3


def test_embedded_prime_q_power_exploration():
    # With embedded primes the component-power intersection has no reason
    # to match the localization definition; record the observation on one
    # embedded example rather than asserting either way.
    from videal.decomposition import irreducible_decomposition

    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    member = filtration_member(FiltrationKind.SYMBOLIC_ASS, a, 2)
    q_power = intersect_all(
        [power(c.ideal, 2) for c in irreducible_decomposition(a)], R2
    )
    print(f"embedded Q-power identity on {a}: {'matches' if member == q_power else 'differs'}")


# ---------------------------------------------------------------------------
# Drop-by-one property and normal torsion-freeness
# ---------------------------------------------------------------------------

def test_property_check_ordinary_square():
    report = check_filtration_property(FiltrationKind.ORDINARY, ideal(R2, [mono(R2, x=2)]), 2, 4)
    assert report.passed
    witnesses = {str(f) for f, _ in report.witnesses}
    assert "x^3" in witnesses


def test_property_check_symbolic_min_triangle():
    report = check_filtration_property(FiltrationKind.SYMBOLIC_MIN, TRIANGLE, 2, 4)
    assert report.passed


def test_property_check_integral_closure():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    report = check_filtration_property(FiltrationKind.INTEGRAL_CLOSURE, a, 2, 5)
    assert report.passed


def test_ntf_path_true_triangle_false():
    path = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1)])
    assert normally_torsion_free(path, 3)
    assert not normally_torsion_free(TRIANGLE, 3)
    assert normally_torsion_free(ideal(R2, [mono(R2, x=1)]), 5)


def test_ntf_rejects_non_squarefree():
    with pytest.raises(VidealError):
        normally_torsion_free(ideal(R2, [mono(R2, x=2)]), 2)


def test_triangle_square_gains_maximal_prime():
    square = power(TRIANGLE, 2)
    names = {p.var_names for p in associated_primes(square)}
    assert ("x", "y", "z") in names


def test_memo_invisible_for_string_kinds():
    # FiltrationKind is a str enum, so its value and the member share a memo
    # slot; a string first must not leave an answer the enum call would get.
    ring = make_ring("A", ["x", "y"])
    a = ideal(ring, [mono(ring, x=1, y=1)])
    filtration_member.cache_clear()
    assert filtration_member("ordinary", a, 2) == power(a, 2)
    assert filtration_member(FiltrationKind.ORDINARY, a, 2) == power(a, 2)
    with pytest.raises(VidealError, match="unknown filtration kind 'bogus'"):
        filtration_member("bogus", a, 2)
