import random
import time
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_ideals
from oracles import (
    brute_force_ass,
    clear_memos,
    colon_ideal_certifies,
    corner_tuples,
    dominance_corners,
    lane_width,
    minimal_primes_by_containment,
    pack_exps,
    packed_colon_prime,
    packed_membership_certifies,
    pairwise_lcm_intersection,
    scan_witnesses,
    splitting_decomposition,
    tuple_colon_prime,
    tuple_membership_certifies,
    unpack_exps,
)
from videal import decomposition
from videal.decomposition import (
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
)
from videal.errors import ImproperIdealError, InternalError
from videal.expansion import join_ideals, verify_theorem
from videal.filtrations import FiltrationKind, check_filtration_property, filtration_member
from videal.ideals import (
    PrimeSupport,
    colon_monomial,
    from_exps,
    ideal,
    intersect,
    intersect_all,
    power,
    prime_support,
    sum_ideals,
    unit_ideal,
    zero_ideal,
)
from videal.lp import _newton_facets
from videal.randgen import random_ideal, random_pair
from videal.rings import make_ring, mono
from videal.vnumbers import local_v, v_number

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
        assert any(set(q.indices) <= set(p.indices) for q in mins)


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
    """A bound top and 1-10 corners over at most 6 variables, with entries
    in 0..top (top: no generator in that variable)."""
    t = draw(st.integers(1, 6))
    top = draw(st.integers(1, 4))
    corner = st.lists(st.integers(0, top), min_size=t, max_size=t).map(tuple)
    return draw(st.lists(corner, min_size=1, max_size=10)), top


# Tops at the edges of a lane of top.bit_length() + 1 bits, and one above 10^6.
LANE_EDGE_TOPS = sorted({t for m in range(1, 7) for t in (2**m - 1, 2**m, 2**m + 1)} | {10**6 + 3})


@st.composite
def lane_edge_families(draw):
    """A top at a lane edge and 1-5 corners over at most 64 variables, each
    with at most 3 entries below top (the meet stays small)."""
    t = draw(st.integers(1, 64))
    top = draw(st.sampled_from(LANE_EDGE_TOPS))
    entries = st.dictionaries(st.integers(0, t - 1), st.integers(0, top), max_size=3)
    corners = [
        tuple(finite.get(i, top) for i in range(t))
        for finite in draw(st.lists(entries, min_size=1, max_size=5))
    ]
    return corners, top


@settings(max_examples=300, deadline=None)
@given(st.one_of(corner_families(), lane_edge_families()))
def test_intersect_corners_matches_pairwise_lcms(family):
    """The meet sweep is both the corner step (on reflected generators) and
    the intersect-back check, so this test's pairwise lcms are the guard
    that shares no code with either.  The lane-edge families put lane
    values at top = 2^m - 1, 2^m and 2^m + 1, next to the guard bit."""
    corners, top = family
    t = len(corners[0])
    meet = ((0,) * t,)
    for b in corners:
        powers = [(0,) * i + (e,) + (0,) * (t - i - 1) for i, e in enumerate(b) if e < top]
        meet = pairwise_lcm_intersection(meet, powers)
    width = lane_width(top)
    packed = decomposition._intersect_corners(pack_exps(corners, width), top, t)
    assert sorted(unpack_exps(packed, t, width)) == sorted(meet)


@settings(max_examples=300, deadline=None)
@given(st.one_of(corner_families(), lane_edge_families()), st.data())
def test_intersect_corners_gives_the_same_set_in_any_order(family, data):
    """The corner step meets in sweep order, and the intersect-back check
    and ``_components_inside`` in decreasing packed order: the meet, a
    duplicate-free antichain, is one set whatever the order."""
    corners, top = family
    t = len(corners[0])
    packed = pack_exps(corners, lane_width(top))
    expected = decomposition._intersect_corners(packed, top, t)
    assert len(set(expected)) == len(expected)
    for order in (sorted(packed, reverse=True), data.draw(st.permutations(packed))):
        meet = decomposition._intersect_corners(order, top, t)
        assert len(meet) == len(expected) and set(meet) == set(expected)


def _assert_corners_match_the_dominance_step(a, top=None):
    gens = a.exps()
    top = top or max(map(max, gens)) + 1
    n = len(gens[0])
    width = lane_width(top)
    corners = unpack_exps(decomposition._corners(pack_exps(gens, width), top, n), n, width)
    assert len(set(corners)) == len(corners)
    assert set(corners) == set(dominance_corners(gens, top))


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_vars=5, max_exp=4, max_gens=6))
def test_the_reflected_meet_matches_the_dominance_corner_step(a):
    _assert_corners_match_the_dominance_step(a)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_reflected_meet_matches_the_dominance_corner_step_at_lane_edges(data):
    """Up to 5 generators over at most 64 variables, each with at most 3
    positive exponents, below a top at a lane edge."""
    t = data.draw(st.integers(1, 64))
    top = data.draw(st.sampled_from(LANE_EDGE_TOPS[1:]))
    entries = st.dictionaries(st.integers(0, t - 1), st.integers(1, top - 1), min_size=1, max_size=3)
    a = from_exps(make_ring("R", [f"x{i}" for i in range(t)]), [
        tuple(powers.get(i, 0) for i in range(t))
        for powers in data.draw(st.lists(entries, min_size=1, max_size=5))
    ])
    _assert_corners_match_the_dominance_step(a, top)


def test_the_reflected_meet_matches_the_dominance_corner_step_on_small_powers():
    """(I+J)^k for k <= 3 of seeded 3+3 pairs with up to 4 generators of
    exponent at most 3 per side."""
    rng = random.Random(21)
    for _ in range(100):
        joined = join_ideals(*random_pair(rng, 3, 4, 3))
        for k in (1, 2, 3):
            _assert_corners_match_the_dominance_step(power(joined, k))


@pytest.mark.parametrize("seed", [13, 16])
def test_the_reflected_meet_matches_the_dominance_corner_step_on_4x4_powers(seed):
    """(I+J)^3 for the seeded 4+4 pairs with 8 generators of exponent at
    most 3 per side: about 500 corners each."""
    rng = random.Random(seed)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    _assert_corners_match_the_dominance_step(power(join_ideals(i, j), 3))


def _assert_the_stored_corners_are_the_sweeps(a):
    """The corner set memoized for a, unpacked, is the corners the sweep
    returned for G(a) while building it, in sweep order, and the keys of
    the witness table, the only record of the supports, are the corners'
    distinct supports."""
    swept = []
    corners = decomposition._corners

    def recording_corners(gens, top, n):
        found = corners(gens, top, n)
        swept.append((unpack_exps(found, n, lane_width(top)), top))
        return found

    decomposition._decomposition.cache_clear()
    with patch.object(decomposition, "_corners", recording_corners):
        stored, top, supports = corner_tuples(a)
    assert swept == [(stored, top)]
    keys = [sum(1 << i for i in indices) for indices in decomposition._witnesses(a)]
    assert len(keys) == len(set(supports)) and set(keys) == set(supports)
    return stored


@settings(max_examples=200, deadline=None)
@given(small_ideals(max_vars=5, max_exp=4, max_gens=6))
def test_the_memoized_supports_match_the_packed_corners(a):
    _assert_the_stored_corners_are_the_sweeps(a)


def test_the_packed_corner_set_round_trips_on_a_4x4_power():
    """(I+J)^6 for the seed-13 4+4 pair with 8 generators of exponent at
    most 3 per side, and an ideal in 12 variables, whose corners take
    six bytes each."""
    rng = random.Random(13)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    assert len(_assert_the_stored_corners_are_the_sweeps(power(join_ideals(i, j), 6))) == 3591
    wide = random_ideal(random.Random(13), make_ring("W", [f"w{n}" for n in range(12)]), 6, 3)
    assert len(_assert_the_stored_corners_are_the_sweeps(wide)) > 1


def test_intersect_back_check_catches_a_dropped_corner(monkeypatch):
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=2, z=1), mono(R3, x=2, z=2)])
    assert len(irreducible_decomposition(a)) > 1
    corners = decomposition._corners
    monkeypatch.setattr(decomposition, "_corners", lambda gens, top, n: corners(gens, top, n)[1:])
    # The first call memoized the checked corners; the check runs on a cold memo.
    decomposition._decomposition.cache_clear()
    with pytest.raises(InternalError, match="does not intersect back"):
        irreducible_decomposition(a)


def test_irreducible_decomposition_reads_the_memoized_corners(monkeypatch):
    corners = decomposition._corners
    calls = []

    def counted(gens, top, n):
        calls.append(tuple(unpack_exps(gens, n, lane_width(top))))
        return corners(gens, top, n)

    monkeypatch.setattr(decomposition, "_corners", counted)
    decomposition._decomposition.cache_clear()
    a = ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=2, z=1), mono(R3, x=2, z=2)])
    first = irreducible_decomposition(a)
    assert len(first) > 1
    assert irreducible_decomposition(a) == first
    assert calls == [a.exps()]


def _certify_with_colon_check(monkeypatch, check, error, message, attr="_colon_prime"):
    """Run Ass, v and local_v on cold caches with the witness table's colon
    check attr replaced by check; each must raise error. (x^2, x*y) has
    Ass {(x), (x, y)}; its table is searched from (x)."""
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    queries = (associated_primes, v_number, lambda a: local_v(a, prime_support(R2, ["x", "y"])))
    monkeypatch.setattr(decomposition, attr, check)
    for query in queries:
        decomposition._decomposition.cache_clear()
        associated_primes.cache_clear()
        with pytest.raises(error, match=message):
            query(a)


def test_ass_certification_does_not_relabel_unrelated_errors(monkeypatch):
    def unrelated(gens, f, guard):
        raise RuntimeError("unrelated")

    _certify_with_colon_check(monkeypatch, unrelated, RuntimeError, "unrelated")


def test_ass_certification_reports_a_missing_witness_as_internal(monkeypatch):
    _certify_with_colon_check(monkeypatch, lambda gens, f, guard: 0,
                              InternalError, r"no colon witness for \(x\) in Ass")


def test_ass_certification_reaches_every_reader(monkeypatch):
    # The membership certificate disagrees with the colon rule: every reader must see it.
    _certify_with_colon_check(monkeypatch, lambda gens, f, hit, guard, top: False, InternalError,
                              r"witness certification failed for \(x\) in Ass",
                              attr="_membership_certifies")


def _assert_membership_matches_the_colon_ideal(a, rng):
    """The membership certificate against the colon ideal on every entry
    of a's witness table: the witness, each of its shifts by +-e_i, each
    other associated prime's support and one random support.  Returns the
    number of checks."""
    gens = a.exps()
    n = a.ring.nvars
    table = decomposition._witnesses(a)
    checks = 0
    for indices, report in table.items():
        f = report.witness.exp
        cases = [(f, other) for other in table]
        cases.append((f, tuple(sorted(rng.sample(range(n), rng.randint(1, n))))))
        for i in range(n):
            cases.append((f[:i] + (f[i] + 1,) + f[i + 1:], indices))
            if f[i]:
                cases.append((f[:i] + (f[i] - 1,) + f[i + 1:], indices))
        for g, support in cases:
            expected = colon_ideal_certifies(a, g, support)
            assert packed_membership_certifies(gens, g, support) == expected, (
                str(a), g, support)
        checks += len(cases)
    return checks


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_vars=5, max_exp=4, max_gens=6), st.randoms(use_true_random=False))
def test_the_membership_certificate_matches_the_colon_ideal(a, rng):
    _assert_membership_matches_the_colon_ideal(a, rng)


@pytest.mark.parametrize("seed", [13, 16])
def test_the_membership_certificate_matches_the_colon_ideal_on_4x4_powers(seed):
    """(I+J)^k, k <= 3, for the seeded 4+4 pairs with 8 generators of
    exponent at most 3 per side."""
    rng = random.Random(seed)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    joined = join_ideals(i, j)
    assert sum(_assert_membership_matches_the_colon_ideal(power(joined, k), rng)
               for k in (1, 2, 3)) > 1000


@st.composite
def lane_edge_colons(draw):
    """Up to 5 generators in up to 6 variables whose largest exponent is
    top - 1, top at a lane edge, and an f whose coordinates are drawn from
    the edges of the rule: u_i - 1, u_i and u_i + 1 for a generator u,
    0, top - 1, and values at or above top, which the packed rule clamps."""
    n = draw(st.integers(1, 6))
    top = draw(st.sampled_from(LANE_EDGE_TOPS[1:]))
    entries = st.integers(0, top - 1)
    gens = draw(st.lists(st.tuples(*[entries] * n), min_size=1, max_size=5))
    j = draw(st.integers(0, n - 1))
    gens[0] = gens[0][:j] + (top - 1,) + gens[0][j + 1:]
    f = []
    for i in range(n):
        u = draw(st.sampled_from(gens))
        f.append(draw(st.sampled_from([
            max(u[i] - 1, 0), u[i], u[i] + 1, 0, top - 1, top, top + draw(st.integers(1, 2 * top)),
        ])))
    indices = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return tuple(gens), tuple(f), indices


@settings(max_examples=500, deadline=None)
@given(lane_edge_colons())
def test_the_packed_rules_match_the_tuple_rules_at_lane_edges(case):
    """The packed colon rule and membership certificate against their
    coordinate-by-coordinate forms, on f clamped below top."""
    gens, f, indices = case
    assert packed_colon_prime(gens, f) == tuple_colon_prime(gens, f)
    assert packed_membership_certifies(gens, f, indices) == tuple_membership_certifies(gens, f, indices)


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_vars=5, max_exp=4, max_gens=6), st.data())
def test_the_packed_rules_match_the_tuple_rules_on_witnesses(a, data):
    """Every witness of a's table, a shift of it by -e_i, and a random
    monomial, under both colon rules and both membership certificates."""
    gens = a.exps()
    n = a.ring.nvars
    for indices, report in decomposition._witnesses(a).items():
        f = report.witness.exp
        i = data.draw(st.integers(0, n - 1))
        shifted = f[:i] + (max(f[i] - 1, 0),) + f[i + 1:]
        other = data.draw(st.tuples(*[st.integers(0, 6)] * n))
        assert packed_colon_prime(gens, f) == tuple_colon_prime(gens, f) == indices
        for g in (f, shifted, other):
            assert packed_colon_prime(gens, g) == tuple_colon_prime(gens, g)
            assert packed_membership_certifies(gens, g, indices) == (
                tuple_membership_certifies(gens, g, indices))


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_vars=5, max_exp=4, max_gens=6))
def test_minimal_primes_match_the_containment_scan(a):
    assert minimal_primes(a) == minimal_primes_by_containment(a)


def test_minimal_primes_match_the_containment_scan_on_small_powers():
    """(I+J)^k for k <= 3 of seeded 3+3 pairs: embedded primes abound."""
    rng = random.Random(29)
    embedded = 0
    for _ in range(60):
        joined = join_ideals(*random_pair(rng, 3, 4, 3))
        for k in (1, 2, 3):
            b = power(joined, k)
            assert minimal_primes(b) == minimal_primes_by_containment(b)
            embedded += len(minimal_primes(b)) < len(associated_primes(b))
    assert embedded > 20


def _assert_components_inside(a, primes):
    """``_components_inside`` meets the components of a whose prime lies
    inside one of the primes, as the pairwise-lcm meet of those of
    ``irreducible_decomposition`` does, and returns a itself exactly when
    it drops none: an irredundant decomposition less a component meets to
    a larger ideal.  Returns the number of components dropped."""
    kept = [set(p.indices) for p in primes]
    components = irreducible_decomposition(a)
    inside = [c.ideal for c in components if any(set(c.prime.indices) <= q for q in kept)]
    member = decomposition._components_inside(a, primes)
    assert member == intersect_all(inside, a.ring)
    assert (member is a) == (len(inside) == len(components))
    return len(components) - len(inside)


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_vars=4), st.integers(1, 3), st.data())
def test_components_inside_matches_the_component_oracle(b, k, data):
    """On b^k, k <= 3, for a random nonempty set of primes, to which Ass(b)
    is added half the time, so that most components are kept."""
    n = b.ring.nvars
    drawn = data.draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=3))
    primes = [PrimeSupport(b.ring, tuple(sorted(s))) for s in drawn]
    if data.draw(st.booleans()):
        primes += associated_primes(b)
    _assert_components_inside(power(b, k), primes)


R4 = make_ring("R", ["x", "y", "z", "w"])


@pytest.mark.parametrize("case", ["equal", "inside", "dropped"])
def test_components_inside_keeps_and_drops_by_support(case):
    """Symbolic-ass squares, one per outcome.  (xy, yz) = (y) ∩ (x, z) is
    normally torsion-free: every support of its square is a prime of
    Ass.  The square of (x y^2 z, x z^2 w, y z w^2, x^2 y z w), whose Ass
    holds the maximal ideal, has the embedded supports (x, y, w) and
    (y, z, w), kept because they lie strictly inside it.  The square of
    (xy, yz, xz) has the support (x, y, z), inside none of the three
    primes of Ass, and its component is dropped."""
    b = {
        "equal": ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1)]),
        "inside": ideal(R4, [mono(R4, x=1, y=2, z=1), mono(R4, x=1, z=2, w=1),
                             mono(R4, y=1, z=1, w=2), mono(R4, x=2, y=1, z=1, w=1)]),
        "dropped": ideal(R3, [mono(R3, x=1, y=1), mono(R3, y=1, z=1), mono(R3, x=1, z=1)]),
    }[case]
    a = power(b, 2)
    kept = {p.indices for p in associated_primes(b)}
    beyond = set(decomposition._witnesses(a)) - kept
    assert bool(beyond) == (case != "equal")
    assert _assert_components_inside(a, associated_primes(b)) == {"equal": 0, "inside": 0, "dropped": 1}[case]


def test_witness_table_is_read_only():
    a = ideal(R2, [mono(R2, x=2), mono(R2, x=1, y=1)])
    table = decomposition._witnesses(a)
    with pytest.raises(TypeError):
        table[(0,)] = None
    assert decomposition._witnesses(a) is table


def _table(witnesses):
    return {indices: (report.degree, report.witness.exp) for indices, report in witnesses.items()}


@settings(max_examples=80, deadline=None)
@given(small_ideals(max_vars=4, max_exp=3, max_gens=5), st.data())
def test_the_raise_search_always_has_a_coordinate_outside_p(a, data):
    """When P is every variable, f0 = b0 - 1 lies in the component of every
    corner but b0's (a corner above f0 is above b0, and the corners are an
    antichain), so the hard mask of b0 is 0 and its root is a leaf of the
    raise search, which needs no coordinate outside P.  The mask is the
    AND over P of the corners with b_i >= b0_i, less the AND of those with
    b_i <= b0_i, built here from ``_corner_masks``.
    Checked on the masks of a plus a pure power of each variable, whose
    only associated prime is the maximal ideal, of a met with those
    powers, where the maximal ideal sits beside a's primes, and of a; each
    table must also match the scan it replaced."""
    n = a.ring.nvars
    powers = from_exps(a.ring, [
        (0,) * i + (data.draw(st.integers(1, 4)),) + (0,) * (n - i - 1) for i in range(n)
    ])
    joined = sum_ideals(a, powers)
    assert list(scan_witnesses(joined)) == [tuple(range(n))]
    for b in (joined, intersect(a, powers), a):
        corners, top, _ = corner_tuples(b)
        ge, le = decomposition._corner_masks(corners, top)
        for b0 in corners:
            if all(e < top for e in b0):
                above = below = -1
                for i in range(n):
                    above &= ge[i][b0[i]]
                    below &= le[i][b0[i]]
                assert above & ~below == 0
        assert _table(decomposition._decomposition.__wrapped__(b)[2]) == scan_witnesses(b)


@settings(max_examples=300, deadline=None)
@given(small_ideals(max_vars=5, max_exp=4, max_gens=6))
def test_the_mask_kernel_matches_the_corner_scan(a):
    assert _table(decomposition._decomposition.__wrapped__(a)[2]) == scan_witnesses(a)


@pytest.mark.parametrize("seed", range(1, 9))
def test_the_mask_kernel_matches_the_corner_scan_on_4x4_powers(seed):
    """(I+J)^k for seeded 4+4 pairs with up to 8 generators of exponent at
    most 3 per side: up to a few hundred corners at k = 3."""
    rng = random.Random(seed)
    i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
    j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
    joined = join_ideals(i, j)
    for k in (1, 2, 3):
        b = power(joined, k)
        assert _table(decomposition._decomposition.__wrapped__(b)[2]) == scan_witnesses(b)


def test_the_witness_tables_of_4x4_powers_build_within_a_budget():
    """(I+J)^k for the seed-13 4+4 pair at k = 4 and 5, and the seed-16
    pair at k = 4, with 1,059 to 2,039 corners: the three witness tables
    build in well under a second with the dead/forced branch order, and
    take tens of seconds without it.  The corners come from the sweep
    outside the timed region, so that only ``_witness_table`` is timed."""
    inputs = []
    for seed, ks in ((13, (4, 5)), (16, (4,))):
        rng = random.Random(seed)
        i = random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 8, 3)
        j = random_ideal(rng, make_ring("B", ["y1", "y2", "y3", "y4"]), 8, 3)
        for k in ks:
            b = power(join_ideals(i, j), k)
            gens = b.exps()
            n = len(gens[0])
            top = max(map(max, gens)) + 1
            width = top.bit_length() + 1
            packed = decomposition._pack(gens, width)
            corners = decomposition._unpack(decomposition._corners(packed, top, n), n, width)
            inputs.append((b, packed, corners, top))
    start = time.perf_counter()
    for args in inputs:
        decomposition._witness_table(*args)
    assert time.perf_counter() - start < 2.0


def test_a_tie_between_least_raises_goes_to_the_lexicographically_greatest():
    """(x^2, x*y, x*z) = (x) meet (x^2, y, z).  For P = (x), f = 1 is not in
    the component (x^2, y, z), and raising y or z alone meets it, both of
    degree 1.  The canonical witness is y, the lexicographically greater
    raise, whichever of the two the branch and bound reaches first."""
    a = ideal(R3, [mono(R3, x=2), mono(R3, x=1, y=1), mono(R3, x=1, z=1)])
    for f in (mono(R3, y=1), mono(R3, z=1)):
        assert colon_monomial(a, f) == prime_support(R3, ["x"]).as_ideal()
    report = decomposition._decomposition.__wrapped__(a)[2][(0,)]
    assert (report.degree, str(report.witness)) == (1, "y")
    assert scan_witnesses(a)[(0,)] == (1, (0, 1, 0))


def _by_value(primes):
    return {p: p for p in primes}


def test_the_supports_derived_for_one_prime_are_one_object():
    """I = (x*y, x*z) and I' = (x^2, x*y), I' over a copy of I's ring
    rebuilt by value, share the associated prime (x).  Every support the
    library derives for a prime, whichever ideal and ring copy it comes
    from, is the object that ``associated_primes`` returned for it: they
    are all built by ``ideals._shared``."""
    clear_memos()
    ring = make_ring("A", ["x", "y", "z"])
    copy = make_ring("A", ["x", "y", "z"])
    assert copy == ring and copy is not ring
    i = ideal(ring, [mono(ring, x=1, y=1), mono(ring, x=1, z=1)])
    i2 = ideal(copy, [mono(copy, x=2), mono(copy, x=1, y=1)])
    b = make_ring("B", ["u", "v"])
    j = ideal(b, [mono(b, u=2), mono(b, u=1, v=1)])
    ass_i, ass_i2, ass_j = (_by_value(associated_primes(a)) for a in (i, i2, j))
    x = prime_support(ring, ["x"])
    assert ass_i[x] is ass_i2[x] is x
    assert prime_support(copy, ["z", "y"]) is ass_i[prime_support(ring, ["y", "z"])]
    for a, ass in ((i, ass_i), (i2, ass_i2), (j, ass_j)):
        for component in irreducible_decomposition(a):
            assert ass[component.prime] is component.prime
    for a, ass in ((i, ass_i), (i2, ass_i2)):
        rows = verify_theorem(FiltrationKind.ORDINARY, a, j, 1).rows
        assert rows
        for row in rows:
            assert ass[row.p] is row.p and ass_j[row.q] is row.q
    witnesses = check_filtration_property(FiltrationKind.ORDINARY, i2, 1, 3).witnesses
    assert {p for _, p in witnesses} == set(ass_i2)
    for _, p in witnesses:
        assert ass_i2[p] is p


def _one_object_per_value(values) -> bool:
    return len({id(v) for v in values}) == len(set(values))


@settings(max_examples=60, deadline=None)
@given(small_ideals(name="A"), small_ideals(name="B", prefix="y"), st.integers(1, 2))
def test_the_values_reached_are_one_object_per_value(i, j, k):
    """Across Ass, the components, prime_support, the drop-by-one
    witnesses, the members, the Newton facets and the theorem rows of two
    ideals, one of them also over a copy of its ring rebuilt by value,
    each kind that ``ideals._shared`` interns has as many objects as
    distinct values: supports, generator exponent tuples, witness-table
    Monomials, RhsResults and facets.  The memos start cold and the inputs
    are rebuilt from fresh tuples, so no value reached was interned before
    an eviction."""
    clear_memos()
    i, j = (from_exps(a.ring, [tuple(list(e)) for e in a.exps()]) for a in (i, j))
    copy = from_exps(make_ring(i.ring.name, i.ring.vars), i.exps())
    supports = [p for a in (i, copy, j) for p in associated_primes(a)]
    supports += [c.prime for a in (i, copy, j) for c in irreducible_decomposition(a)]
    supports += [prime_support(copy.ring, p.var_names) for p in associated_primes(i)]
    supports += [p for _, p in check_filtration_property(FiltrationKind.ORDINARY, i, k, 2).witnesses]
    ideals = [i, copy, j]
    rows = []
    for kind in (FiltrationKind.ORDINARY, FiltrationKind.SYMBOLIC_ASS,
                 FiltrationKind.INTEGRAL_CLOSURE):
        report = verify_theorem(kind, i, j, k)
        rows += report.rows
        ideals += [report.expansion.direct, report.expansion.expanded]
        ideals += [filtration_member(kind, a, m) for a in (i, j) for m in range(1, k + 1)]
    supports += [p for row in rows for p in (row.prime, row.p, row.q)]
    assert _one_object_per_value(supports)
    assert _one_object_per_value([e for a in ideals for e in a.exps()])
    witnesses = [row.lhs_witness for row in rows] + [v_number(a).witness for a in ideals]
    assert _one_object_per_value(witnesses)
    assert _one_object_per_value([row.rhs for row in rows if row.rhs is not None])
    assert _one_object_per_value([f for a in (i, copy, j) for f in _newton_facets(a.exps())])
