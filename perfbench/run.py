"""End-to-end benchmark of ``hftnetview``: one workload per invocation.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is driven only from
outside: fresh ``python -m repro`` processes for the CLI workloads, one
``serve --port 0`` process under an open-loop generator for
``serve-read``.  ``--trace 0`` prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` runs the traced twin (``traced.py``)
beside the plain program and prints every per-layer metric instead.
Readable lines come first; the last line of stdout is the JSON result.
The run exits non-zero without a result when the checkout holds no
program, when a step fails, or when the run leaves the checkout changed.

    python3 perfbench/run.py --workload serve-read --steady 5

is the steadiness mode: it runs the workload five times with seeds 1..5
and prints, for each end-to-end metric, the median, the quartiles and
their spread against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import plan
import workloads
from procs import RUN_ROOT, BenchError, checkout_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "cli-cold": lambda ctx: workloads.cli_workload(ctx, warm=False),
    "cli-warm": lambda ctx: workloads.cli_workload(ctx, warm=True),
    "serve-read": workloads.serve_workload,
}


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise BenchError(f"no program under {ROOT / 'src'}")
    expected = [m["name"] for m in _benchmark()["per_layer" if trace else "end_to_end"]]
    before = checkout_digest(ROOT)
    private = ROOT / RUN_ROOT / f"{workload}-{os.getpid()}"
    private.mkdir(parents=True)
    try:
        ctx = workloads.Context(ROOT, private, seed, seconds, trace)
        outcome = WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(private, ignore_errors=True)
        try:
            (ROOT / RUN_ROOT).rmdir()
        except OSError:
            pass
    if checkout_digest(ROOT) != before:
        raise BenchError("the run left the checkout changed")
    if sorted(outcome.metrics) != sorted(expected):
        missing = sorted(set(expected) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(expected))
        raise BenchError(f"metric set mismatch: missing {missing}, extra {extra}")
    for line in outcome.lines:
        print(line)
    for name in expected:
        value, unit = outcome.metrics[name]
        print(f"{name:34s} {value:14.6f} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in expected
        },
    }


def steady(workload: str, runs: int, first_seed: int, seconds: float) -> int:
    """Run ``workload`` ``runs`` times and report each metric's spread."""
    values: dict[str, list[float]] = {}
    for seed in range(first_seed, first_seed + runs):
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=300)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in _benchmark()["end_to_end"]:
        mid, q1, q3, width = plan.spread(values[metric["name"]])
        print(
            f"{metric['name']:16s} {mid:12.5g} {q1:12.5g} {q3:12.5g} "
            f"{width:8.2%} {metric['bound']:6.0%}"
            + ("" if width <= metric["bound"] else "  OVER")
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run the workload N times and report spreads")
    args = parser.parse_args(argv)
    # Servers stop on SIGINT.  A signal ignored here (as in a background
    # job) would stay ignored in every child; a handled one resets.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # SIGTERM unwinds like an interrupt, so every started process is
    # stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        seconds = args.seconds or _benchmark()["run_seconds"]
        if args.steady:
            return steady(args.workload, args.steady, args.seed, seconds)
        result = run_once(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
