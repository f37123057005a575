"""A fixed pure-Python reference task that measures the machine's speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.8x over
minutes while the code under test stays the same.  A worker pass runs a
slice of this task between operations about every PROBE_S seconds, in the
same process, and the pass's timings are scaled by

    speed = NOMINAL_SLICE_S / trimmed mean(slice seconds of the pass)

so that they read as on a machine that runs one slice in NOMINAL_SLICE_S.
The task lives in the benchmark, not in videal, so a change to videal
cannot change it; a change that makes videal slower still reads slower.

The task does what videal's hot path does, on its own data: tuples of
small exponents, componentwise max and min, divisibility tests, set and
dict traffic, sorting and short function calls.
"""

import random
import statistics
from time import perf_counter

# Slice time on a 2-core Intel Xeon VM, CPython 3.11, in a calm spell.
NOMINAL_SLICE_S = 0.025
TRIM = 0.1  # share of slices dropped at each end when averaging them

_rng = random.Random(20240608)
_SETS = [[tuple(_rng.randint(0, 3) for _ in range(6)) for _ in range(40)]
         for _ in range(12)]


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(exps) -> list:
    exps = sorted(set(exps), key=sum)
    kept: list = []
    for e in exps:
        if not any(_divides(g, e) for g in kept):
            kept.append(e)
    return kept


def _task(exps) -> int:
    gens = _minimalize(exps)
    lcms = [tuple(max(x, y) for x, y in zip(a, b)) for a in gens for b in gens]
    table: dict = {}
    for e in lcms:
        table[e] = table.get(e, 0) + 1
    inter = _minimalize(table)
    gcds = {tuple(min(x, y) for x, y in zip(a, b)) for a in inter for b in gens}
    return len(inter) + len(gcds) + sum(table.values())


def one_slice() -> int:
    """One slice of fixed work; returns a checksum so none of it is skipped."""
    return sum(_task(exps) for exps in _SETS)


def timed_slice() -> float:
    start = perf_counter()
    one_slice()
    return perf_counter() - start


def speed(slices: list[float]) -> float:
    """Machine speed relative to nominal: below 1 on a slow machine.

    The mean of the slices, without the fastest and slowest TRIM of
    them, follows the share of time the host spends in slow spells the
    way the operations' total time does; a median would jump between
    the fast and slow spells' slice times."""
    drop = int(len(slices) * TRIM)
    kept = sorted(slices)[drop:len(slices) - drop]
    return NOMINAL_SLICE_S / statistics.fmean(kept)
