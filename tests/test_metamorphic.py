"""Metamorphic relations of the min-formula verdict: invariances that
need no oracle, so they check the verifier at any size.

- Swapping I and J keeps every row's lhs and rhs value, swaps its split
  parts P and Q, and maps each achieving depth d to k - 1 - d: depth d
  pairs I_{k-d} with J_{d+1}, and depth k - 1 - d of (J, I) pairs
  J_{d+1} with I_{k-d}.
- Permuting the variables within a summand keeps every row, keyed by the
  variable names of its prime.
- Adding a variable that no generator uses keeps every row: no
  associated prime contains it.

Each relation changes the lane order, the sweep order and the packed
layout that every kernel reads, so a bug that indexes the wrong lane
shows as a disagreement (Chen et al., "Metamorphic testing: a review of
challenges and opportunities", ACM Comput. Surv. 2018).  The witnesses
and ``v_direct_prime`` are left out of the comparison: the canonical
tie-break between witnesses, and between primes of equal v-number,
follows the variable order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_ideals
from videal.expansion import verify_theorem
from videal.filtrations import FiltrationKind
from videal.ideals import MonomialIdeal, from_exps
from videal.rings import make_ring


def _facts(report, swapped: bool = False):
    """What a relation keeps of a verdict: the expansion verdict, ok, the
    global values, and per prime (by its variable names) the split parts'
    names, the lhs and the rhs with its achieving depths, read back to
    the unswapped order when the summands were swapped."""
    k = report.k
    rows = {}
    for row in report.rows:
        p, q = frozenset(row.p.var_names), frozenset(row.q.var_names)
        rhs = row.rhs and (row.rhs.value, row.rhs.achieved)
        if swapped:
            p, q = q, p
            rhs = rhs and (rhs[0], tuple(sorted(k - 1 - d for d in rhs[1])))
        rows[frozenset(row.prime.var_names)] = (p, q, row.lhs, rhs)
    assert len(rows) == len(report.rows)
    return (report.expansion.expansion_holds, report.ok, report.v_direct,
            report.v_formula, rows)


def _permuted(a: MonomialIdeal, order: list[int]) -> MonomialIdeal:
    """a over its ring's variables listed in the given order."""
    ring = make_ring(a.ring.name, [a.ring.vars[t] for t in order])
    return from_exps(ring, [tuple([e[t] for t in order]) for e in a.exps()])


def _widened(a: MonomialIdeal, at: int) -> MonomialIdeal:
    """a over its ring with an unused variable inserted at position at."""
    vars = list(a.ring.vars)
    ring = make_ring(a.ring.name, vars[:at] + ["unused"] + vars[at:])
    return from_exps(ring, [e[:at] + (0,) + e[at:] for e in a.exps()])


@settings(max_examples=200, deadline=None)
@given(small_ideals(name="A"), small_ideals(name="B", prefix="y"), st.integers(1, 2),
       st.booleans(), st.data())
def test_verdicts_keep_their_facts_under_swap_permutation_and_an_unused_variable(
        i, j, k, on_i, data):
    order = data.draw(st.permutations(range((i if on_i else j).ring.nvars)))
    at = data.draw(st.integers(0, (i if on_i else j).ring.nvars))
    if on_i:
        permuted, widened = (_permuted(i, order), j), (_widened(i, at), j)
    else:
        permuted, widened = (i, _permuted(j, order)), (i, _widened(j, at))
    for kind in FiltrationKind:
        facts = _facts(verify_theorem(kind, i, j, k))
        assert _facts(verify_theorem(kind, j, i, k), swapped=True) == facts
        assert _facts(verify_theorem(kind, *permuted, k)) == facts
        assert _facts(verify_theorem(kind, *widened, k)) == facts
