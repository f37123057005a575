import itertools
import random
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_ideals
from oracles import (
    all_primes_symbolic_power,
    box_scan_integral_closure,
    certificate_denominator_lcm,
    clear_memos,
    corner_tuples,
    enumerated_property_check,
    facet_mask_is_closed,
    fibre_scan_minimal_points,
    lane_width,
    localize,
    localized_symbolic_power,
    lp_newton_member,
    power_membership_oracle,
    unpack_exps,
)
from videal import decomposition, filtrations, lp
from videal.decomposition import associated_primes, minimal_primes
from videal.errors import InternalError, VidealError
from videal.expansion import direct_term, join_ideals, verify_expansion, verify_theorem
from videal.filtrations import (
    FiltrationKind,
    check_filtration_property,
    filtration_member,
    integral_closure,
    normally_torsion_free,
)
from videal.ideals import (
    from_exps,
    ideal,
    intersect_all,
    power,
    product,
    sum_ideals,
    unit_ideal,
)
from videal.lp import newton_member
from videal.randgen import random_ideal
from videal.rings import make_ring, mono

R2 = make_ring("R", ["x", "y"])
R3 = make_ring("R", ["x", "y", "z"])

TRIANGLE = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1), mono(R3, x=1, z=1)])


def gens_str(a):
    return {str(g) for g in a.gens}


# ---------------------------------------------------------------------------
# Newton membership, the LP oracle and the power-membership oracle
# ---------------------------------------------------------------------------

def test_newton_midpoint():
    result = newton_member((1, 1), [(2, 0), (0, 2)])
    assert result.member
    assert result.facet is None
    assert lp_newton_member((1, 1), [(2, 0), (0, 2)]) == (True, (Fraction(1, 2), Fraction(1, 2)))


def test_newton_outside():
    result = newton_member((1, 0), [(2, 0), (0, 2)])
    assert not result.member
    assert result.facet == ((1, 1), 2)
    assert lp_newton_member((1, 0), [(2, 0), (0, 2)]) == (False, None)


def test_newton_vertex():
    result = newton_member((2, 0), [(2, 0), (0, 2)])
    assert result.member
    assert result.facet is None
    assert lp_newton_member((2, 0), [(2, 0), (0, 2)]) == (True, (Fraction(1), Fraction(0)))


def test_newton_dimension_mismatch():
    with pytest.raises(VidealError):
        newton_member((1, 1, 1), [(2, 0)])


def test_power_membership_oracle_examples():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    assert power_membership_oracle((1, 1), a, 2)  # (xy)^2 = x^2 * y^2
    assert power_membership_oracle((2, 0), a, 1)
    assert not power_membership_oracle((1, 0), a, 3)


def test_certificate_bounds_oracle_power():
    assert newton_member((1, 1), [(2, 0), (0, 2)]).member
    member, certificate = lp_newton_member((1, 1), [(2, 0), (0, 2)])
    assert member
    m = certificate_denominator_lcm(certificate)
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


def test_closure_of_the_zeroth_power_is_the_unit_ideal():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=3)])
    assert integral_closure(a, 0) == unit_ideal(R2)
    assert integral_closure(a, 0) == filtration_member("intclos", a, 0) == power(a, 0)


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
    member, certificate = lp_newton_member(point, a.exps())
    assert result.member == member
    if member:
        m = certificate_denominator_lcm(certificate)
        assert power_membership_oracle(point, a, m)
    else:
        w, d = result.facet
        assert sum(wi * pi for wi, pi in zip(w, point)) < d
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
    facets = lp._newton_facets(gens)
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
        assert inside == newton_member(point, gens).member == lp_newton_member(point, gens)[0]


def test_closure_check_catches_a_bad_facet(monkeypatch):
    # A double description that raises one facet's constant past the
    # generators it is tight on: lp's certificate must reject it before
    # either reader sees it.  No other test uses these generators, so the
    # facet memo has no entry for them, and a raise caches nothing.
    facets = lp._double_description

    def raised_first(gens):
        (w, d), *rest = facets(gens)
        return ((w, d + 1), *rest)

    monkeypatch.setattr(lp, "_double_description", raised_first)
    a = ideal(R2, [mono(R2, x=9, y=2), mono(R2, x=2, y=9)])
    with pytest.raises(InternalError, match="cuts off a generator"):
        newton_member((5, 5), a.exps())
    with pytest.raises(InternalError, match="cuts off a generator"):
        filtrations.integral_closure.__wrapped__(a, 2)


def test_closure_check_catches_a_dropped_point(monkeypatch):
    # (x^2, y^2)^2 is not closed, so its closure is enumerated; x^2*y^2
    # generates the power, and a scan that loses it must be caught.
    points = filtrations._minimal_points
    monkeypatch.setattr(filtrations, "_minimal_points",
                        lambda facets, bounds: [u for u in points(facets, bounds) if u != (2, 2)])
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    with pytest.raises(InternalError, match=r"integral closure of \(x\^4, x\^2\*y\^2, y\^4\) "
                                            r"does not contain \(x\^4, x\^2\*y\^2, y\^4\)"):
        filtrations.integral_closure.__wrapped__(a, 2)


def test_closed_powers_skip_the_lattice_point_scan(monkeypatch):
    calls = []
    points = filtrations._minimal_points
    monkeypatch.setattr(filtrations, "_minimal_points",
                        lambda facets, bounds: calls.append(bounds) or points(facets, bounds))
    maximal = ideal(R2, [mono(R2, x=1), mono(R2, y=1)])
    path = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1)])
    closed = [(TRIANGLE, 1), (path, 1), (ideal(R2, [mono(R2, x=1, y=1)]), 1)]
    closed += [(maximal, k) for k in range(1, 5)]
    for a, k in closed:
        # A closed power is the ordinary member itself, not an equal copy.
        assert filtrations.integral_closure.__wrapped__(a, k) is filtration_member("ordinary", a, k)
    assert calls == []
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    assert filtrations.integral_closure.__wrapped__(a, 2) == power(maximal, 4)
    assert calls == [[4, 4]]


# Seed 1187 draws a closed ideal whose square is not closed: the midpoint
# x^4*y^3*z^2 of x^5*y^3*z and x^3*y^3*z^3 joins the closure of the square.
# It is the only such ideal among the first 3,000 seeds of
# random_ideal(rng, R3, 6, 3), and the first 2,000 of
# random_ideal(rng, R3, 4, 3) hold none.
CLOSED_WITH_OPEN_SQUARE = random_ideal(random.Random(1187), R3, 6, 3)


def test_closed_ideal_with_a_square_that_is_not_closed():
    a = CLOSED_WITH_OPEN_SQUARE
    assert str(a) == "(x^3*y, x^2*z^2, x^2*y^2*z, x*y^3*z)"
    assert integral_closure(a) is a
    closed = integral_closure(a, 2)
    assert closed == box_scan_integral_closure(power(a, 2))
    assert set(closed.exps()) - set(power(a, 2).exps()) == {(4, 3, 2)}


def closed_power_verdicts(a, k):
    """The corner test's verdict on a^k, the mask criterion's, and the
    box-scan oracle's (whether its closure of a^k is a^k)."""
    pk = power(a, k)
    facets = [(w, k * d) for w, d in lp._newton_facets(a.exps())]
    corners, _, supports = corner_tuples(pk)
    return (decomposition._is_closed(pk, facets), facet_mask_is_closed(facets, corners, supports),
            box_scan_integral_closure(pk) == pk)


def test_closed_power_verdict_matches_the_box_scan_oracle():
    # The corner test says closed exactly when the oracle's closure of a^k
    # is a^k, on seeded 3- and 4-variable ideals, closed and not.  z^2 *
    # (x^2, y^2) is not closed (x*y*z^2 joins it), and only its corner
    # (2, 2, top) tells: its point (1, 1, M) meets the facet z >= 2, which
    # holds there only when M reaches the largest facet constant, 2.
    rng = random.Random(35)
    R4 = make_ring("R", ["x", "y", "z", "w"])
    cases = [(CLOSED_WITH_OPEN_SQUARE, 1), (CLOSED_WITH_OPEN_SQUARE, 2), (TRIANGLE, 2)]
    cases += [(ideal(R3, [mono(R3, x=2, z=2), mono(R3, y=2, z=2)]), 1)]
    cases += [(random_ideal(rng, R3, 5, 3), k) for k in (1, 2) for _ in range(12)]
    cases += [(random_ideal(rng, R4, 4, 3), 1) for _ in range(8)]
    cases += [(random_ideal(rng, R4, 4, 1, squarefree=True), 2) for _ in range(4)]
    verdicts = []
    for a, k in cases:
        verdict, mask, oracle = closed_power_verdicts(a, k)
        assert verdict == mask == oracle, (str(a), k)
        verdicts.append(verdict)
    assert verdicts[:4] == [True, False, True, False]
    assert 5 < verdicts.count(True) < len(verdicts) - 5


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_gens=5, max_exp=3, max_vars=4), st.integers(1, 3))
def test_closed_power_verdict_matches_the_mask_criterion(a, k):
    verdict, mask, oracle = closed_power_verdicts(a, k)
    assert verdict == mask == oracle


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
    facets = [(w, k * d) for w, d in lp._newton_facets(a.exps())]
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
    facets = lp._newton_facets(cube.exps())
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
    # Ass((x^2, xy)) = {(x), (x, y)}, and a^k is (x^k) met with k components
    # of support (x, y): symb-ass keeps them all and returns a^k itself, while
    # symb-min keeps only (x^k).
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    assert [p.var_names for p in associated_primes(a)] == [("x",), ("x", "y")]
    met = []

    def recording_intersect_corners(corners, top, n):
        met.append(tuple(unpack_exps(corners, n, lane_width(top))))
        return intersect_corners(corners, top, n)

    intersect_corners = decomposition._intersect_corners
    # The intersect-back check of a^k's corners also meets corners: run it
    # first, on a memo that holds no member yet.
    decomposition._decomposition.cache_clear()
    for k in (1, 2, 3):
        decomposition._decomposition(power(a, k))
    monkeypatch.setattr(decomposition, "_intersect_corners", recording_intersect_corners)
    filtration_member.cache_clear()
    for k in (1, 2, 3):
        member = filtration_member(FiltrationKind.SYMBOLIC_ASS, a, k)
        assert member is filtration_member(FiltrationKind.ORDINARY, a, k)
        assert member == power(a, k)
        assert member == all_primes_symbolic_power(FiltrationKind.SYMBOLIC_ASS, a, k)
    assert met == []
    for k in (1, 2, 3):
        member = filtration_member(FiltrationKind.SYMBOLIC_MIN, a, k)
        assert member == ideal(R2, [mono(R2, x=k)])
        assert member == all_primes_symbolic_power(FiltrationKind.SYMBOLIC_MIN, a, k)
    # Per k: one meet, of the kept corner of a^k (top 2k + 1), builds (x^k);
    # building the member sweeps no corner set.
    assert met == [((k, 2 * k + 1),) for k in (1, 2, 3)]


def _assert_the_member_inherits_its_corners(kind, a, k):
    """Builds the k-th member of a on cold corner, table and member memos
    and reads its witness table, recording every corner sweep.  A member
    other than a^k is swept on its own generators, and its corners are the
    corners of a^k it keeps, with a^k's top replaced by its own: a subset
    of an antichain is an antichain, and every finite entry b_i of a kept
    corner is the i-th exponent of a minimal generator of the meet
    (x^(b - 1) lies outside it and x_i x^(b - 1) inside), so it stays
    below the member's top."""
    swept = []

    def recording_corners(gens, top, n):
        swept.append(tuple(unpack_exps(gens, n, lane_width(top))))
        return corners(gens, top, n)

    corners = decomposition._corners
    decomposition._decomposition.cache_clear()
    filtration_member.cache_clear()
    with patch.object(decomposition, "_corners", recording_corners):
        member = filtration_member(kind, a, k)
        decomposition._witnesses(member)
    ordinary = power(a, k)
    assert set(swept) <= {a.exps(), ordinary.exps(), member.exps()}
    if member is filtration_member(FiltrationKind.ORDINARY, a, k):
        return
    assert member.exps() in swept
    primes = associated_primes(a) if kind is FiltrationKind.SYMBOLIC_ASS else minimal_primes(a)
    masks = [sum(1 << i for i in p.indices) for p in primes]
    power_corners, power_top, power_supports = corner_tuples(ordinary)
    own, top, supports = corner_tuples(member)
    assert top == max(map(max, member.exps())) + 1 <= power_top
    expected = {
        tuple(top if e == power_top else e for e in b): s
        for b, s in zip(power_corners, power_supports)
        if any(s | m == m for m in masks)
    }
    assert len(own) == len(expected) < len(power_corners)
    assert dict(zip(own, supports)) == expected


@settings(max_examples=80, deadline=None)
@given(
    small_ideals(max_vars=4),
    st.sampled_from([FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN]),
    st.integers(1, 3),
)
def test_a_symbolic_member_inherits_the_corners_of_a_cold_sweep(a, kind, k):
    _assert_the_member_inherits_its_corners(kind, a, k)


@pytest.mark.parametrize("kind", [FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN])
@pytest.mark.parametrize("seed", [13, 16])
def test_a_symbolic_member_inherits_its_corners_on_4x4_powers(seed, kind):
    """(I+J)^(3) for the seeded 4+4 pairs with 8 generators of exponent at
    most 3 per side."""
    rng = random.Random(seed)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    _assert_the_member_inherits_its_corners(kind, join_ideals(i, j), 3)


def _assert_the_member_is_the_power_iff_every_component_is_kept(kind, a, k):
    """The member is the ordinary member itself exactly when every
    support of a^k, as a bit mask, lies inside the mask of a kept prime,
    and it is the localized symbolic power either way."""
    primes = associated_primes(a) if kind is FiltrationKind.SYMBOLIC_ASS else minimal_primes(a)
    masks = [sum(1 << i for i in p.indices) for p in primes]
    supports = [sum(1 << i for i in q.indices) for q in associated_primes(power(a, k))]
    every_kept = all(any(s | m == m for m in masks) for s in supports)
    member = filtration_member(kind, a, k)
    assert (member is filtration_member(FiltrationKind.ORDINARY, a, k)) == every_kept
    assert member == localized_symbolic_power(kind, a, k)


@settings(max_examples=200, deadline=None)
@given(
    small_ideals(max_vars=4),
    st.sampled_from([FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN]),
    st.integers(1, 3),
)
def test_symbolic_power_matches_the_localized_oracle(a, kind, k):
    _assert_the_member_is_the_power_iff_every_component_is_kept(kind, a, k)


@settings(max_examples=150, deadline=None)
@given(
    small_ideals(max_vars=2, name="A", prefix="x"),
    small_ideals(max_vars=2, name="B", prefix="y"),
    st.sampled_from([FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN]),
    st.integers(1, 3),
)
def test_symbolic_power_of_a_joined_pair_matches_the_localized_oracle(i, j, kind, k):
    # The direct side of a verdict takes symbolic powers of I + J in the joined ring.
    _assert_the_member_is_the_power_iff_every_component_is_kept(kind, join_ideals(i, j), k)


def _raising_read(*args):
    raise AssertionError("a corner record was read")


@pytest.mark.parametrize("kind", [FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN])
def test_a_member_that_keeps_every_component_reads_no_record(kind, monkeypatch):
    """(xy, yz) = (y) ∩ (x, z) is square-free and normally
    torsion-free, so Ass(a^k) = Ass(a) = Min(a) for every k, and both
    symbolic members are a^k itself, decided from the keys of a^k's
    witness table with no record read.  The decompositions are built
    before the patch, so that only the members are built under it."""
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1)])
    assert normally_torsion_free(a, 3)
    for k in (1, 2, 3):
        decomposition._decomposition(power(a, k))
    monkeypatch.setattr(decomposition, "_read", _raising_read)
    filtration_member.cache_clear()
    for k in (1, 2, 3):
        assert filtration_member(kind, a, k) is filtration_member(FiltrationKind.ORDINARY, a, k)


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_vars=4))
def test_symbolic_ass_at_one_reads_no_record(a):
    # Ass(a^1) is Ass(a): every key of the table is a kept prime's own.
    associated_primes(a)
    filtration_member.cache_clear()
    with patch.object(decomposition, "_read", _raising_read):
        assert filtration_member(FiltrationKind.SYMBOLIC_ASS, a, 1) is filtration_member(
            FiltrationKind.ORDINARY, a, 1
        )


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


def test_a_kind_given_by_its_value_reports_the_member_in_a_property_check():
    """A kind's value string gives the report of the enum member, and an
    unknown string is refused by the member lookups."""
    report = check_filtration_property("symb-min", TRIANGLE, 2, 4)
    assert report.kind is FiltrationKind.SYMBOLIC_MIN
    assert report == check_filtration_property(FiltrationKind.SYMBOLIC_MIN, TRIANGLE, 2, 4)
    with pytest.raises(VidealError, match="unknown filtration kind 'bogus'"):
        check_filtration_property("bogus", TRIANGLE, 2, 4)


def test_a_kind_prints_as_its_value():
    assert str(FiltrationKind.SYMBOLIC_MIN) == "symb-min"
    assert f"{FiltrationKind.INTEGRAL_CLOSURE}" == "intclos"


def test_property_check_integral_closure():
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    report = check_filtration_property(FiltrationKind.INTEGRAL_CLOSURE, a, 2, 5)
    assert report.passed


@settings(max_examples=100, deadline=None)
@given(small_ideals(), st.sampled_from(list(FiltrationKind)), st.integers(1, 3), st.integers(0, 5))
def test_property_check_matches_the_colon_ideal_enumeration(a, kind, k, cap):
    report = check_filtration_property(kind, a, k, cap)
    witnesses, violations = enumerated_property_check(kind, a, k, cap)
    assert report.witnesses == witnesses
    assert report.violations == violations
    assert report.passed == (not violations)


@settings(max_examples=60, deadline=None)
@given(small_ideals(max_exp=2), st.sampled_from(list(FiltrationKind)), st.integers(3, 7))
def test_property_check_matches_the_enumeration_past_the_clamp(a, kind, cap):
    """At k = 1 no exponent of the member exceeds a's largest, at most 2:
    a symbolic member meets some of a's corners, and the closure's
    generators lie in the box of a's exponents.  So the cap passes top in
    every variable, and the packed rule clamps those coordinates of f;
    w, a variable of no generator, is projected away."""
    ring = make_ring("R", list(a.ring.vars) + ["w"])
    padded = from_exps(ring, [u + (0,) for u in a.exps()])
    report = check_filtration_property(kind, padded, 1, cap)
    witnesses, violations = enumerated_property_check(kind, padded, 1, cap)
    assert max(map(max, filtration_member(kind, padded, 1).exps())) < cap
    assert report.witnesses == witnesses
    assert report.violations == violations


def test_property_check_refuses_a_negative_cap():
    with pytest.raises(VidealError, match="degree cap of the drop-by-one check must be at least 0"):
        check_filtration_property(FiltrationKind.ORDINARY, TRIANGLE, 1, -1)


def test_property_check_counts_the_monomials_up_to_the_cap(monkeypatch):
    # C(3 + d, d) monomials of degree at most d in 3 variables: 10 up to
    # degree 2, 20 up to degree 3.
    monkeypatch.setattr(filtrations, "MAX_PROPERTY_MONOMIALS", 10)
    assert check_filtration_property(FiltrationKind.ORDINARY, TRIANGLE, 1, 2).passed
    with pytest.raises(VidealError, match="more than 10 monomials"):
        check_filtration_property(FiltrationKind.ORDINARY, TRIANGLE, 1, 3)


def test_ntf_path_true_triangle_false():
    path = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1)])
    assert normally_torsion_free(path, 3)
    assert not normally_torsion_free(TRIANGLE, 3)
    assert normally_torsion_free(ideal(R2, [mono(R2, x=1)]), 5)


@pytest.mark.parametrize("k_max", [1, 2, 5])
def test_ntf_builds_the_powers_as_one_running_product(k_max, monkeypatch):
    """k_max - 1 products reach a^k_max, each power one more product than
    the last and equal to a^k; for the triangle, whose square gains the
    maximal prime, the check stops at the square."""
    path = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1)])
    for a, holds in ((path, True), (TRIANGLE, k_max < 2)):
        built = []

        def counted(b, c):
            built.append(product(b, c))
            return built[-1]

        monkeypatch.setattr(filtrations, "ideal_product", counted)
        assert normally_torsion_free(a, k_max) == holds
        assert built == [power(a, k) for k in range(2, k_max + 1 if holds else 3)]


def test_ntf_rejects_non_squarefree():
    with pytest.raises(VidealError):
        normally_torsion_free(ideal(R2, [mono(R2, x=2)]), 2)


def test_triangle_square_gains_maximal_prime():
    square = power(TRIANGLE, 2)
    names = {p.var_names for p in associated_primes(square)}
    assert ("x", "y", "z") in names


def test_a_negative_filtration_index_is_refused():
    for kind in FiltrationKind:
        with pytest.raises(VidealError, match="negative filtration index -1"):
            filtration_member(kind, TRIANGLE, -1)


def test_memo_invisible_for_string_kinds():
    # FiltrationKind is a str enum, so its value and the member share a memo
    # slot; a string first must not leave an answer the enum call would get.
    ring = make_ring("A", ["x", "y"])
    a = ideal(ring, [mono(ring, x=1, y=1)])
    filtration_member.cache_clear()
    assert filtration_member("ordinary", a, 2) == power(a, 2)
    assert filtration_member(FiltrationKind.ORDINARY, a, 2) == power(a, 2)
    for k in (0, 2):
        with pytest.raises(VidealError, match="unknown filtration kind 'bogus'"):
            filtration_member("bogus", a, k)


def test_a_float_power_is_refused_and_leaves_the_intern_all_ints():
    """Unchecked, integral_closure(a, 2.0) would read a^2 from the warm
    memo of filtration_member(ORD, a, 2) and intern the generators
    (3.0, 1) and (1.0, 3), so a later int ideal with those generators
    would print through the float tuples (on a cold memo: a bare
    TypeError).  Once the int closure is memoized, 2.0 is an equal key
    and reads it."""
    a = ideal(R2, [mono(R2, x=2), mono(R2, y=2)])
    for warm in (False, True):
        clear_memos()
        if warm:
            filtration_member(FiltrationKind.ORDINARY, a, 2)
        with pytest.raises(VidealError, match=r"^k must be an int, got 2\.0$"):
            integral_closure(a, 2.0)
        assert str(ideal(R2, [mono(R2, x=3, y=1)])) == "(x^3*y)"
        closure = integral_closure(a, 2)
        assert closure.exps() == ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
        assert all(type(e) is int for u in closure.exps() for e in u)
        assert integral_closure(a, 2.0) is closure


RA, RB = make_ring("A", ["x"]), make_ring("B", ["y"])
A1, B1 = ideal(RA, [mono(RA, x=2)]), ideal(RB, [mono(RB, y=1)])
ORD = FiltrationKind.ORDINARY


@pytest.mark.parametrize("bad", [2.0, True, "2", None])
@pytest.mark.parametrize("name, call", [
    pytest.param("k", lambda k: power(A1, k), id="power"),
    pytest.param("k", lambda k: filtration_member(ORD, A1, k), id="filtration_member"),
    pytest.param("k", lambda k: integral_closure(A1, k), id="integral_closure"),
    pytest.param("k", lambda k: direct_term(ORD, A1, B1, k), id="direct_term"),
    pytest.param("k", lambda k: verify_expansion(ORD, A1, B1, k), id="verify_expansion"),
    pytest.param("k", lambda k: verify_theorem(ORD, A1, B1, k), id="verify_theorem"),
    pytest.param("k", lambda k: check_filtration_property(ORD, A1, k, 3), id="check_property_k"),
    pytest.param("deg_cap", lambda cap: check_filtration_property(ORD, A1, 1, cap),
                 id="check_property_deg_cap"),
    pytest.param("k_max", lambda k: normally_torsion_free(B1, k), id="normally_torsion_free"),
])
def test_a_number_that_is_not_an_int_is_refused_by_name(name, call, bad):
    """Every public number argument is refused, by name, unless its type
    is exactly int: 2.0 and True equal and hash like 2 and 1, so they
    would reach the memos and the intern.  From cold memos: a memoized
    member checks only on a miss, and a warm one answers an equal key."""
    clear_memos()
    with pytest.raises(VidealError) as caught:
        call(bad)
    assert str(caught.value) == f"{name} must be an int, got {bad!r}"
