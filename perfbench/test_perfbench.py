"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

They are not part of the repository's tier-1 suite (pytest collects only
tests/ by default).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracer import Tracer, snapshot_attributes  # noqa: E402
from videal import FiltrationKind, make_ring, power, verify_theorem  # noqa: E402
from videal.decomposition import associated_primes  # noqa: E402
from videal.ideals import from_exps  # noqa: E402
from workloads import WORKLOADS, Op, Plan, Workload, build_plan  # noqa: E402

COUNTS = ("decomposition.components", "filtrations.box_points")


def traced_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "traced",
         "--workload", workload, "--seed", str(seed)],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    runs = [traced_pass(workload, 7) for _ in range(2)]
    counts = [
        {name: value for name, (value, _) in run["layers"].items()
         if name.endswith(".calls") or name in COUNTS}
        for run in runs
    ]
    assert all(run["correct"] and run["failed"] == 0 for run in runs)
    assert counts[0] == counts[1]
    assert counts[0]["ideals.from_exps.calls"] > 0
    assert counts[0]["vnumbers.local_v.calls"] > 0


def _closure_pair():
    a = make_ring("A", ["x1", "x2"])
    b = make_ring("B", ["y1"])
    return from_exps(a, [(1, 1)]), from_exps(b, [(2,)])


def test_tracer_restores_every_attribute():
    before = snapshot_attributes()
    i, j = _closure_pair()
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            assert snapshot_attributes() != before
            verify_theorem(FiltrationKind.INTEGRAL_CLOSURE, i, j, 2)
            1 / 0
    assert snapshot_attributes() == before
    metrics = tracer.metrics()
    assert metrics["expansion.direct_s"][0] > 0
    assert metrics["filtrations.box_points"][0] > 0
    assert metrics["lp.maximize.calls"][0] > 0


def test_hang_guard_is_not_relabelled_by_videal():
    assert not issubclass(worker.OpTimeout, Exception)
    ring = make_ring("S", [f"x{n}" for n in range(8)])
    big = power(from_exps(ring, [(1, 1, 0, 0, 2, 0, 1, 0), (0, 2, 1, 1, 0, 0, 0, 1),
                                 (1, 0, 2, 0, 0, 1, 1, 1), (0, 0, 0, 2, 1, 2, 0, 1)]), 3)
    plan = Plan([Op(lambda: associated_primes(big), lambda r: (True, ""))], 1)
    started = time.perf_counter()
    _, results, _, _ = worker.run_ops(plan, time.perf_counter() + 0.2)
    assert results == [worker.TIMEOUT]
    assert time.perf_counter() - started < 5


def test_cold_start_check_fails_when_a_cache_is_warm():
    ring = make_ring("A", ["x", "y"])
    associated_primes(from_exps(ring, [(2, 0), (1, 1)]))
    with pytest.raises(RuntimeError, match="associated_primes"):
        worker.assert_cold()


def _toy_workload(strata: int, width: int) -> Workload:
    """Units are random floats, ranked by their own value."""
    return Workload(strata=strata, slice_units=width, prefix_rounds=2, rounds_per_s=1.0,
                    draw=lambda rng: rng.random(), predictor=lambda unit: unit,
                    expand=lambda unit: [Op(lambda unit=unit: unit, lambda r: (True, ""))])


def test_rounds_take_one_unit_per_stratum_and_prefixes_agree():
    workload = _toy_workload(4, 8)
    full = [op.call() for op in build_plan(workload, 5, 8).ops]
    short = [op.call() for op in build_plan(workload, 5, 3).ops]
    assert full[:len(short)] == short
    assert len(set(full)) == len(full) == 32  # every pool unit once in 8 rounds
    ranked = sorted(full)
    for r in range(8):
        strata = sorted(ranked.index(unit) // 8 for unit in full[4 * r:4 * r + 4])
        assert strata == [0, 1, 2, 3]


def test_machine_speed_ignores_outlying_slices():
    import reference

    nominal = reference.NOMINAL_SLICE_S
    slices = [2 * nominal] * 18 + [nominal / 10, 50 * nominal]
    assert reference.speed(slices) == pytest.approx(0.5)
