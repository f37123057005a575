"""Concurrent callers get the same answers as a single caller.

The memo caches are cleared before each threaded run, so the threads
compute (and race to fill) the same entries instead of reading answers
computed beforehand.  CLI runs race too: each run renders its verdicts
once in a map of its own, so runs that share verdicts share no output.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import clear_memos, corner_tuples, unpack_corner_set
from videal.cli import run_text
from videal.decomposition import _decomposition, associated_primes
from videal.expansion import _verdict, join_ideals, verify_theorem
from videal.decomposition import irreducible_decomposition
from videal.filtrations import (
    FiltrationKind,
    check_filtration_property,
    filtration_member,
    integral_closure,
)
from videal.ideals import _shared, prime_support
from videal.lp import _newton_facets
from videal.randgen import random_ideal, random_pair
from videal.vnumbers import v_number
from videal.rings import make_ring

THREADS = 6
SYMBOLIC = (FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN)
KINDS = (FiltrationKind.ORDINARY,) + SYMBOLIC


def _work(pair, k, kinds=KINDS):
    i, j = pair
    reports = tuple(verify_theorem(kind, i, j, k) for kind in kinds)
    return associated_primes(i), associated_primes(j), reports


def _race(fn, calls):
    """fn(*args) for each args in calls, on THREADS threads and cold memos."""
    clear_memos()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(fn, *args) for args in calls]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(previous)


def _run_threaded(tasks, kinds=KINDS):
    return _race(_work, [(pair, k, kinds) for pair, k in tasks])


def _pairs(seed, count):
    rng = random.Random(seed)
    return [(random_pair(rng), rng.randint(1, 2)) for _ in range(count)]


def test_threads_sharing_ideals_agree_with_one_caller():
    tasks = _pairs(41, 6) * THREADS
    clear_memos()
    expected = [_work(pair, k) for pair, k in tasks]
    assert _run_threaded(tasks) == expected
    # Some of the reports the threads returned were served by a verdict
    # another thread or kind had filled.
    assert _verdict.cache_info().hits > 0


def test_threads_on_distinct_ideals_agree_with_one_caller():
    tasks = _pairs(42, 6 * THREADS)
    clear_memos()
    expected = [_work(pair, k) for pair, k in tasks]
    assert _run_threaded(tasks) == expected


def test_threads_closing_powers_agree_with_one_caller():
    """intclos verdicts on cold caches race to fill the closure and facet
    memos, and return what one caller gets."""
    kinds = (FiltrationKind.INTEGRAL_CLOSURE,)
    tasks = _pairs(44, 6) * THREADS
    clear_memos()
    expected = [_work(pair, k, kinds) for pair, k in tasks]
    assert _run_threaded(tasks, kinds) == expected
    assert integral_closure.cache_info().currsize > 0
    assert _newton_facets.cache_info().currsize > 0


def _ladder_pairs(seed, count):
    """3+3 pairs with up to 4 generators of exponent at most 3, and k in
    2..3: many of their symbolic members differ from the ordinary ones."""
    rng = random.Random(seed)
    ring_a = make_ring("A", ["x1", "x2", "x3"])
    ring_b = make_ring("B", ["y1", "y2", "y3"])
    return [((random_ideal(rng, ring_a, 4, 3), random_ideal(rng, ring_b, 4, 3)),
             rng.randint(2, 3)) for _ in range(count)]


def test_threads_build_member_corners_as_one_caller_would():
    """After threads race over symbolic verdicts on cold caches, every
    memoized corner set and witness table of a symbolic member equals a
    serial cold build."""
    distinct = _ladder_pairs(43, 6)
    clear_memos()
    expected = [_work(pair, k) for pair, k in distinct]
    assert _run_threaded(distinct * THREADS) == expected * THREADS
    misses = _decomposition.cache_info().misses
    members = 0
    for (i, j), k in distinct:
        summands = [(a, h) for a in (i, j) for h in range(1, k + 1)]
        for kind in SYMBOLIC:
            for a, h in summands + [(join_ideals(i, j), k)]:
                member = filtration_member(kind, a, h)
                if member == filtration_member(FiltrationKind.ORDINARY, a, h):
                    continue
                members += 1
                corners, top, supports = corner_tuples(member)
                built = _decomposition.__wrapped__(member)
                cold, cold_top, cold_supports = unpack_corner_set(built, member.ring.nvars)
                assert top == cold_top and len(corners) == len(cold)
                assert dict(zip(corners, supports)) == dict(zip(cold, cold_supports))
                assert _decomposition(member)[2] == built[2]
    # Every set and table read was the one the threads memoized.
    assert _decomposition.cache_info().misses == misses
    assert members >= 10


def _interned_values(a, j):
    """The reports of a that hold interned values: Ass(a), the components,
    the v-number (a witness-table Monomial), the drop-by-one witnesses of
    a^2 up to degree 3 with their primes, ``prime_support`` of each
    associated prime, the ordinary verdict of (a, j) at k = 2 (its rows'
    RhsResults and split parts, and the generator tuples of its members),
    the second symbolic power by Min(a), the closure of a^2 and the facets
    of the Newton polyhedron of a."""
    ass = associated_primes(a)
    return (ass, irreducible_decomposition(a), v_number(a),
            check_filtration_property(FiltrationKind.ORDINARY, a, 2, 3).witnesses,
            tuple(prime_support(a.ring, p.var_names) for p in ass),
            verify_theorem(FiltrationKind.ORDINARY, a, j, 2),
            filtration_member(FiltrationKind.SYMBOLIC_MIN, a, 2), integral_closure(a, 2),
            _newton_facets(a.exps()))


def test_threads_interning_shared_values_agree_with_one_caller():
    """Threads race on the cold intern (``ideals._shared``, which
    ``clear_memos`` finds and empties with the rest) while they build the
    tables, members, verdicts and facets of ideals that share values, each
    ideal over its own copy of one ring.  Every report equals one caller's
    by value only: two threads that miss together may each build an equal
    value.  The intern ends holding as many values as one caller's run
    left in it: the threads intern the same values, each once."""
    rng = random.Random(47)
    ideals = [random_ideal(rng, make_ring("A", ["x1", "x2", "x3", "x4"]), 5, 3)
              for _ in range(16)]
    j = random_ideal(rng, make_ring("B", ["y1", "y2"]), 2, 2)
    clear_memos()
    expected = [_interned_values(a, j) for a in ideals]
    interned = _shared.cache_info().currsize
    ass = [p for reports in expected for p in reports[0]]
    assert len(set(ass)) < len(ass)
    rhs = [row.rhs for reports in expected for row in reports[5].rows]
    assert len(set(rhs)) < len(rhs)
    calls = [(a, j) for a in ideals] * THREADS
    assert _race(_interned_values, calls) == expected * THREADS
    assert _shared.cache_info().currsize == interned


CLI_THREADS = 8


def _session(pair, k):
    """A session shaped like a --fuzz draw: both v-numbers, then the
    theorem for every kind at k."""
    i, j = pair
    return "\n".join([
        f"ring A = [{', '.join(i.ring.vars)}]; ring B = [{', '.join(j.ring.vars)}];",
        f"ideal I in A = {i}; ideal J in B = {j};",
        "vnum I; vnum J;",
        *(f"verify-theorem kind={kind.value} k={k} I J;" for kind in FiltrationKind),
    ])


def _run_sessions_threaded(texts, fmt):
    clear_memos()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(CLI_THREADS) as pool:
            futures = [pool.submit(run_text, text, fmt) for text in texts]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("shared", [True, False], ids=["same-sessions", "distinct-sessions"])
def test_threads_running_sessions_agree_with_one_caller(shared, fmt):
    """Eight threads run sessions on cold memos, the same few sessions
    over and over or each its own; every (code, lines) is what a single
    caller gets."""
    tasks = _pairs(45, 4) * CLI_THREADS if shared else _pairs(46, 4 * CLI_THREADS)
    texts = [_session(pair, k) for pair, k in tasks]
    clear_memos()
    expected = [run_text(text, fmt) for text in texts]
    assert all(code in (0, 1) for code, _ in expected)
    assert _run_sessions_threaded(texts, fmt) == expected
