"""Concurrent callers get the same answers as a single caller.

The memo caches are cleared before each threaded run, so the threads
compute (and race to fill) the same entries instead of reading answers
computed beforehand.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from videal.decomposition import _corner_set, _witnesses, associated_primes
from videal.expansion import verify_theorem
from videal.filtrations import FiltrationKind, filtration_member, integral_closure
from videal.lp import _newton_facets
from videal.randgen import random_pair

THREADS = 6
KINDS = (FiltrationKind.ORDINARY, FiltrationKind.SYMBOLIC_ASS, FiltrationKind.SYMBOLIC_MIN)


def _clear_caches():
    for cached in (_corner_set, _witnesses, associated_primes, filtration_member,
                   integral_closure, _newton_facets):
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


def test_threads_on_distinct_ideals_agree_with_one_caller():
    tasks = _pairs(42, 6 * THREADS)
    _clear_caches()
    expected = [_work(pair, k) for pair, k in tasks]
    assert _run_threaded(tasks) == expected
