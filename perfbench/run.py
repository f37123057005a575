"""videal benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout; videal is imported from ./src.
Every pass runs in a fresh interpreter (perfbench/worker.py), so the
memo caches start cold, as they do for each CLI invocation.

--trace 0  SETUP_PROBES set-up-only passes, then one timed pass of a fixed
           number of rounds (about T seconds at the rate in workloads.py);
           prints the end-to-end metrics.
--trace 1  the prefix rounds once untraced and once traced; prints the
           per-layer metrics and trace_overhead (traced / untraced time).

Times are scaled to a nominal machine speed, measured by the reference
task that every pass runs between rounds (perfbench/reference.py), so
that the host's drifting speed does not read as a change in videal.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Any
pass that fails to run makes this script exit 1 without that line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2
END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"))
DEADLINE_S = 170.0   # every pass of one invocation ends within this
PLAIN_SHARE = 0.3    # of the remaining time, for the untraced pass of --trace 1


class PassFailed(Exception):
    pass


def run_pass(mode: str, args, deadline: float, budget: float | None = None) -> dict:
    """Runs one worker pass; its last stdout line is its JSON result."""
    remaining = deadline - time.monotonic()
    budget = remaining - 5.0 if budget is None else budget
    if budget <= 0:
        raise PassFailed(f"no time left for the {mode} pass")
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--budget", str(budget)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass overran the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    passes = [run_pass("setup", args, deadline) for _ in range(SETUP_PROBES)]
    timed = run_pass("timed", args, deadline)
    passes.append(timed)
    speed = timed["speed"]
    metrics = {name: (timed[name], unit) for name, unit in END_TO_END}
    metrics["setup_s"] = (statistics.median(p["setup_s"] for p in passes) * speed, "s")
    failed_share = timed["failed"] / timed["attempted"]
    print(f"# {args.workload} seed {args.seed}: {timed['attempted']} operations "
          f"in {timed['wall_s']:.2f} s, closed loop, one caller")
    print(f"# machine speed {speed:.4f} of nominal; unscaled: "
          f"ops_per_s {timed['raw_ops_per_s']:.4f} 1/s, op_p50_ms {timed['raw_op_p50_ms']:.4f} ms, "
          f"op_p90_ms {timed['raw_op_p90_ms']:.4f} ms, setup_s "
          f"{statistics.median(p['setup_s'] for p in passes):.4f} s")
    print(f"failed_share {failed_share:.4f} ratio")
    return timed, metrics


def traced(args, deadline: float) -> tuple[dict, dict]:
    budget = PLAIN_SHARE * (deadline - time.monotonic())
    plain = run_pass("plain", args, deadline, budget)
    trace = run_pass("traced", args, deadline)
    if trace["attempted"] != plain["attempted"]:
        raise PassFailed("the traced and untraced passes ran different operations")
    metrics = {name: (value * trace["speed"] if unit == "s" else value, unit)
               for name, (value, unit) in trace["layers"].items()}
    metrics["trace_overhead"] = (
        trace["scaled_wall_s"] / plain["scaled_wall_s"], "ratio")
    print(f"# {args.workload} seed {args.seed}: {trace['attempted']} operations traced "
          f"in {trace['wall_s']:.2f} s, untraced in {plain['wall_s']:.2f} s")
    trace["correct"] = trace["correct"] and plain["correct"]
    trace["failed"] = max(trace["failed"], plain["failed"])
    return trace, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="videal benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["sweep-small", "ladder-decomp", "ladder-intclos"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "videal" / "__init__.py").is_file():
        print(f"no videal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        result, metrics = (traced if args.trace else end_to_end)(args, deadline)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
