"""Newton-polyhedron membership by integer facets (``videal.lp``), and the
exact-rational LP oracle it is cross-checked against (``oracles.maximize``).
"""

import ast
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exponent_vectors
from oracles import clear_memos, lp_newton_member, maximize
from videal.errors import InternalError, VidealError
from videal.lp import _first_violated, _newton_facets, newton_member

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src" / "videal"


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


@pytest.mark.parametrize("point, gens", [
    ((1, 1), [(2.0, 3)]),
    ((1.0, 1), [(2, 3)]),
    ((1, 1), [(2, 3), (True, 0)]),
])
def test_a_coordinate_that_is_not_an_int_is_input_error(point, gens):
    """Unchecked, newton_member((1, 1), [(2.0, 3)]) would intern the
    facet ((1, 0), 2.0), which the facets of the int ideal (x^2*y^3)
    would then share."""
    clear_memos()
    with pytest.raises(VidealError, match="^newton_member's point and generators must have int"):
        newton_member(point, gens)
    facets = _newton_facets(((2, 3),))
    assert facets == (((1, 0), 2), ((0, 1), 3))
    assert all(type(e) is int for w, d in facets for e in (*w, d))


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


def test_first_violated_returns_the_first_failing_facet_in_facet_order():
    facets = (((1, 0), 2), ((0, 1), 3), ((1, 1), 4))
    # On the first two facets (w.u == d) and above the third: none fails.
    assert _first_violated(facets, (2, 3)) is None
    assert _first_violated(facets, [2, 3]) is None
    # (1, 2) fails all three and (2, 1) the last two: the first in order is returned.
    assert _first_violated(facets, (1, 2)) == ((1, 0), 2)
    assert _first_violated(facets, (2, 1)) == ((0, 1), 3)
    assert _first_violated(facets, (3, 0)) == ((0, 1), 3)
    assert _first_violated(facets[::-1], (1, 2)) == ((1, 1), 4)
    assert _first_violated((), (0, 0)) is None


def _is_facet_comparison(node: ast.AST) -> bool:
    """``sum(map(mul, w, u)) < d``: a dot product compared with a facet's constant."""
    left = getattr(node, "left", None)
    return (
        isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.Lt)
        and isinstance(left, ast.Call) and getattr(left.func, "id", None) == "sum"
        and len(left.args) == 1 and isinstance(left.args[0], ast.Call)
        and getattr(left.args[0].func, "id", None) == "map"
        and getattr(left.args[0].args[0], "id", None) == "mul"
    )


def test_one_function_tests_a_point_against_the_facets():
    """The certificate, ``newton_member`` and ``decomposition._is_closed``
    all call ``lp._first_violated``: it holds the library's only
    comparison of a facet's dot product with its constant.  Read from the
    sources, so it covers paths no test runs; the subtractions of
    ``_double_description`` and ``filtrations._minimal_points`` are not
    comparisons."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            found += [(path.stem, getattr(top, "name", "<module>"))
                      for node in ast.walk(top) if _is_facet_comparison(node)]
        if path.stem == "decomposition":
            assert not any(isinstance(node, ast.ImportFrom) and node.module == "operator"
                           and "mul" in [alias.name for alias in node.names] for node in ast.walk(tree))
    assert found == [("lp", "_first_violated")]
    # The pattern does match the loops it replaced.
    assert _is_facet_comparison(ast.parse("sum(map(mul, w, u)) < d", mode="eval").body)


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
