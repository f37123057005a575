"""One benchmark pass in a fresh interpreter, so the memo caches start cold.

    python3 perfbench/worker.py MODE --workload W --seed N [--seconds T] [--budget B]

Modes:
  setup   import videal, build the seeded plan, report the set-up time
  timed   set up, then run a fixed number of whole rounds in a closed loop
          (about T seconds of work at the rate measured when the benchmark
          was added; see workloads.py)
  plain   set up, then run the prefix rounds only (untraced)
  traced  as plain, with every videal layer traced
  record  write the prefix digests of the given seeds (--seeds 0-39) into
          digests.json; for maintainers, after a change that alters verdicts

Between operations, every pass except setup runs a slice of the
reference task (reference.py) about every PROBE_S seconds and reports
the machine speed they give, with its timings unscaled and scaled.

Prints one JSON object on its last line of standard output.  Every pass
stops starting operations B seconds after it began; an operation still
running at that point, or after OP_GUARD_S seconds, is stopped and
counted as failed.
"""

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import reference

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SCHEMA = ROOT / "schemas" / "output.schema.json"
OP_GUARD_S = 60.0
PROBE_S = 0.3       # operation time between two reference slices
TIMEOUT = object()
sys.path.insert(0, str(ROOT / "src"))


class OpTimeout(BaseException):
    """Raised by the hang guard.  It derives from BaseException so that
    videal's own ``except Exception`` handlers cannot catch it:
    ``associated_primes`` would relabel it as a missing colon witness."""


def _alarm(signum, frame):
    raise OpTimeout


def set_up(workload_name: str, seed: int, seconds: float | None):
    """Imports videal and builds the plan of a timed run of ``seconds``,
    or of the prefix when ``seconds`` is None; returns (workload, plan,
    seconds spent)."""
    from workloads import WORKLOADS, build_plan

    workload = WORKLOADS[workload_name]
    rounds = workload.prefix_rounds if seconds is None else workload.timed_rounds(seconds)
    plan = build_plan(workload, seed, rounds)
    return workload, plan, time.perf_counter() - START


def assert_cold() -> None:
    """Fails loudly if a memo cache is warm before timing starts."""
    from videal.decomposition import associated_primes
    from videal.filtrations import filtration_member, integral_closure

    warm = [f.__name__ for f in (associated_primes, filtration_member, integral_closure)
            if f.cache_info().currsize]
    if warm:
        raise RuntimeError(f"memo caches are warm before timing: {', '.join(warm)}")


def run_ops(plan, deadline: float, probe_s: float = 0.0):
    """Runs the operations of the plan in a closed loop, one at a time,
    starting none after ``deadline`` (a perf_counter value).  With
    ``probe_s`` > 0, a reference slice runs between two operations once
    ``probe_s`` seconds have passed since the last one, outside the
    operations' timings; so the slices sample the pass evenly in time.

    Returns (per-operation seconds, results, wall seconds of the
    operations, reference slice seconds); a result is TIMEOUT or the
    exception raised when the operation did not return.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    times: list[float] = []
    results: list = []
    slices: list[float] = []
    start = probed = time.perf_counter()
    try:
        for op in plan.ops:
            if probe_s and time.perf_counter() - probed >= probe_s:
                slices.append(reference.timed_slice())
                probed = time.perf_counter()
            now = time.perf_counter()
            if now >= deadline:
                break
            try:
                signal.setitimer(signal.ITIMER_REAL, min(OP_GUARD_S, deadline - now))
                try:
                    result = op.call()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                result = TIMEOUT
            except Exception as exc:  # an operation that raises is a failed operation
                result = exc
            times.append(time.perf_counter() - now)
            results.append(result)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return times, results, time.perf_counter() - start - sum(slices), slices


def evaluate(workload, plan, results) -> tuple[int, int, list[str]]:
    """Checks every result outside the timed region.

    Returns (completed, failed, prefix records).  A result fails if its
    operation did not return, if its verdict check fails, or (sweep-small)
    if a JSON line does not validate against the output schema.
    """
    valid = None
    if workload.validates_schema:
        from jsonschema import Draft7Validator

        validator = Draft7Validator(json.loads(SCHEMA.read_text()))
        verdicts: dict[str, bool] = {}  # validation costs ~2 ms a line; lines repeat

        def valid(line: str) -> bool:
            if line not in verdicts:
                verdicts[line] = validator.is_valid(json.loads(line))
            return verdicts[line]
    completed = failed = 0
    records = []
    for n, result in enumerate(results):
        if result is TIMEOUT or isinstance(result, Exception):
            ok, record = False, "timeout" if result is TIMEOUT else repr(result)
            print(f"operation {n} did not return: {record}", file=sys.stderr)
        else:
            completed += 1
            ok, record = plan.ops[n].check(result)
            if ok and valid is not None:
                ok = all(valid(line) for line in result[1])
            if not ok:
                print(f"operation {n} failed its check:\n{record}", file=sys.stderr)
        failed += not ok
        if n < plan.prefix_ops:
            records.append(record)
    return completed, failed, records


def digest_ok(workload_name: str, seed: int, records, prefix_ops: int) -> bool:
    """The prefix ran in full and its digest matches the recorded one.

    Seeds without a recorded digest pass this check with a note."""
    from workloads import digest

    if len(records) < prefix_ops:
        print(f"prefix incomplete: {len(records)} of {prefix_ops}", file=sys.stderr)
        return False
    recorded = json.loads(DIGESTS.read_text()).get(workload_name, {}).get(str(seed))
    if recorded is None:
        print(f"no recorded digest for {workload_name} seed {seed}", file=sys.stderr)
        return True
    if recorded != digest(records):
        print(f"digest mismatch for {workload_name} seed {seed}", file=sys.stderr)
        return False
    return True


def one_pass(args) -> dict:
    timed = args.mode in ("setup", "timed")
    workload, plan, setup_s = set_up(args.workload, args.seed, args.seconds if timed else None)
    if args.mode == "setup":
        return {"setup_s": setup_s}
    assert_cold()
    deadline = START + args.budget
    if args.mode == "traced":
        from tracer import Tracer

        with Tracer() as tracer:
            times, results, wall, slices = run_ops(plan, deadline, PROBE_S)
    else:
        times, results, wall, slices = run_ops(plan, deadline, PROBE_S)
    # ru_maxrss is in KiB on Linux; read before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    completed, failed, records = evaluate(workload, plan, results)
    speed = reference.speed(slices) if slices else 1.0
    out = {
        "setup_s": setup_s,
        "attempted": len(results),
        "completed": completed,
        "failed": failed,
        "correct": failed == 0 and digest_ok(args.workload, args.seed, records, plan.prefix_ops),
        "speed": speed,
        "wall_s": wall,
        "scaled_wall_s": wall * speed,
        "raw_ops_per_s": completed / wall,
        "raw_op_p50_ms": 1e3 * statistics.median(times),
        "raw_op_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": peak_rss_mb,
    }
    out["ops_per_s"] = out["raw_ops_per_s"] / speed
    out["op_p50_ms"] = out["raw_op_p50_ms"] * speed
    out["op_p90_ms"] = out["raw_op_p90_ms"] * speed
    if args.mode == "traced":
        out["layers"] = {name: list(v) for name, v in tracer.metrics().items()}
    return out


def record(args) -> dict:
    """Writes prefix digests for a range of seeds (in one process: the
    verdicts do not depend on cache state)."""
    from workloads import digest

    lo, hi = (int(x) for x in args.seeds.split("-"))
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = table.setdefault(args.workload, {})
    for seed in range(lo, hi + 1):
        workload, plan, _ = set_up(args.workload, seed, None)
        _, results, _, _ = run_ops(plan, float("inf"))
        completed, failed, records = evaluate(workload, plan, results)
        if failed:
            raise RuntimeError(f"seed {seed}: {failed} failed operations; not recording")
        entry[str(seed)] = digest(records)
        print(f"{args.workload} seed {seed}: {entry[str(seed)]}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return {"recorded": hi - lo + 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "timed", "plain", "traced", "record"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--budget", type=float, default=150.0)
    parser.add_argument("--seeds", default="0-39")
    args = parser.parse_args()
    out = record(args) if args.mode == "record" else one_pass(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
