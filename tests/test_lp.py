"""Newton-polyhedron membership by integer facets (``videal.lp``), and the
exact-rational LP oracle it is cross-checked against (``oracles.maximize``).
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exponent_vectors
from oracles import lp_newton_member, maximize
from videal.errors import InternalError, VidealError
from videal.lp import newton_member

F = Fraction


def test_single_variable_bound():
    opt, x, duals = maximize([[F(1)]], [F(2)], [F(1)])
    assert opt == 2
    assert x == [F(2)]
    assert duals == [F(1)]


def test_two_variables_two_constraints():
    # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6
    opt, x, duals = maximize(
        [[F(1), F(2)], [F(3), F(1)]], [F(4), F(6)], [F(1), F(1)]
    )
    assert opt == F(14, 5)
    assert x == [F(8, 5), F(6, 5)]
    # Duals certify optimality: y.A >= c and y.b equals the optimum.
    assert duals[0] * 1 + duals[1] * 3 >= 1
    assert duals[0] * 2 + duals[1] * 1 >= 1
    assert duals[0] * 4 + duals[1] * 6 == opt


def test_degenerate_rhs_zero():
    # b contains zeros; Bland's rule must still terminate.
    opt, x, _ = maximize(
        [[F(1), F(0)], [F(1), F(1)]], [F(0), F(3)], [F(1), F(1)]
    )
    assert opt == 3
    assert x[0] == 0


def test_zero_objective():
    opt, x, duals = maximize([[F(1)]], [F(5)], [F(0)])
    assert opt == 0
    assert duals == [F(0)]


def test_exactness_with_awkward_fractions():
    opt, x, _ = maximize([[F(1, 3)]], [F(1, 7)], [F(1)])
    assert opt == F(3, 7)


def dot(w, u) -> int:
    return sum(map(mul, w, u))


def test_zero_generator_makes_the_whole_orthant():
    assert newton_member((0, 0), [(0, 0)]) == (True, None)
    assert newton_member((0, 3), [(2, 2), (0, 0)]) == (True, None)
    # The LP oracle is undefined here: its objective is unbounded.
    with pytest.raises(InternalError, match="unbounded"):
        lp_newton_member((0, 0), [(0, 0)])


@pytest.mark.parametrize("point, gens", [
    ((-1, 2), [(1, 0)]),
    ((0, -1), [(0, 0)]),
    ((1, 1), [(2, -1), (0, 2)]),
])
def test_negative_exponent_is_input_error(point, gens):
    with pytest.raises(VidealError, match="nonnegative") as caught:
        newton_member(point, gens)
    assert not isinstance(caught.value, InternalError)


def test_empty_generators_are_input_error():
    with pytest.raises(VidealError, match="at least one generator"):
        newton_member((1, 1), [])


def test_the_violated_facet_is_returned():
    # NP((x^4*y, y^3)) is cut out by u_y >= 1 and u_x + 2 u_y >= 6; a
    # repeated and a dominated generator change neither.
    for gens in ([(4, 1), (0, 3)], [(5, 3), (4, 1), (0, 3), (4, 1)]):
        for point in [(0, 0), (6, 0), (1, 2), (2, 2), (0, 3), (9, 1)]:
            member, facet = newton_member(point, gens)
            assert member == (point[1] >= 1 and point[0] + 2 * point[1] >= 6), point
            if member:
                assert facet is None
            else:
                w, d = facet
                assert dot(w, point) < d
                assert (w, d) in [((0, 1), 1), ((1, 2), 6)]


@st.composite
def generator_lists(draw):
    """Nonzero exponent vectors with repeats and dominated members, in
    any order: the LP oracle is defined on every one of them."""
    t = draw(st.integers(1, 4))
    base = draw(st.lists(exponent_vectors(t, 3), min_size=1, max_size=4))
    extra = []
    for v in base:
        if draw(st.booleans()):
            extra.append(v)
        if draw(st.booleans()):
            extra.append(tuple(e + draw(st.integers(0, 2)) for e in v))
    return draw(st.permutations(base + extra))


@settings(max_examples=150, deadline=None)
@given(generator_lists(), st.data())
def test_newton_member_agrees_with_the_lp_oracle(gens, data):
    # Points in the exponent box and up to two steps beyond it.
    bounds = [max(column) + 2 for column in zip(*gens)]
    for _ in range(8):
        point = tuple(data.draw(st.integers(0, b)) for b in bounds)
        member, facet = newton_member(point, gens)
        assert member == lp_newton_member(point, gens)[0]
        if member:
            assert facet is None
        else:
            w, d = facet
            assert dot(w, point) < d
            assert all(dot(w, v) >= d for v in gens)
