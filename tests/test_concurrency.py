"""Concurrent callers get the same answers as a single caller.

The memo caches are cleared before each threaded run, so the threads
compute (and race to fill) the same entries instead of reading answers
computed beforehand.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from oracles import corner_tuples, unpack_corner_set
from videal.decomposition import _corner_set, _witnesses, associated_primes
from videal.expansion import _verdict, join_ideals, verify_theorem
from videal.filtrations import FiltrationKind, filtration_member, integral_closure
from videal.lp import _newton_facets
from videal.randgen import random_ideal, random_pair
from videal.rings import make_ring

THREADS = 6
SYMBOLIC = (FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN)
KINDS = (FiltrationKind.ORDINARY,) + SYMBOLIC


def _clear_caches():
    for cached in (_corner_set, _witnesses, associated_primes, filtration_member,
                   integral_closure, _newton_facets, _verdict):
        cached.cache_clear()


def _work(pair, k):
    i, j = pair
    reports = tuple(verify_theorem(kind, i, j, k) for kind in KINDS)
    return associated_primes(i), associated_primes(j), reports


def _run_threaded(tasks):
    _clear_caches()
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(_work, pair, k) for pair, k in tasks]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(previous)


def _pairs(seed, count):
    rng = random.Random(seed)
    return [(random_pair(rng), rng.randint(1, 2)) for _ in range(count)]


def test_threads_sharing_ideals_agree_with_one_caller():
    tasks = _pairs(41, 6) * THREADS
    _clear_caches()
    expected = [_work(pair, k) for pair, k in tasks]
    assert _run_threaded(tasks) == expected
    # Some of the reports the threads returned were served by a verdict
    # another thread or kind had filled.
    assert _verdict.cache_info().hits > 0


def test_threads_on_distinct_ideals_agree_with_one_caller():
    tasks = _pairs(42, 6 * THREADS)
    _clear_caches()
    expected = [_work(pair, k) for pair, k in tasks]
    assert _run_threaded(tasks) == expected


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
    memoized corner set of a symbolic member equals a serial cold sweep."""
    distinct = _ladder_pairs(43, 6)
    _clear_caches()
    expected = [_work(pair, k) for pair, k in distinct]
    assert _run_threaded(distinct * THREADS) == expected * THREADS
    misses = _corner_set.cache_info().misses
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
                cold, cold_top, cold_supports = unpack_corner_set(
                    _corner_set.__wrapped__(member), member.ring.nvars)
                assert top == cold_top and len(corners) == len(cold)
                assert dict(zip(corners, supports)) == dict(zip(cold, cold_supports))
    # Every set read was the one the threads memoized.
    assert _corner_set.cache_info().misses == misses
    assert members >= 10
