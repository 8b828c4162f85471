"""Measures what the Tracer adds to a round of one workload.

    python3 bench/run.py --workload wide-pair --seed 0 --seconds 1 --trace 0
    PYTHONPATH=src python3 bench/overhead.py --workload wide-pair \\
        --data .bench_work/wide-pair-seed0/data --pairs 8

The first command writes the inputs.  This script then runs, in one process,
one warm-up round and `--pairs` pairs of rounds, each an untraced round
next to a traced one (which goes first alternates), and prints the median
of the per-pair differences in seconds and as a share of the untraced
round.  Pairing rounds a few seconds apart cancels some of the drift in
machine speed that separate runs suffer from.  It also times a traced
no-op call against a plain one in a tight loop, and multiplies that cost
per span by the spans of a round.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import tempfile
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, clear_memo_caches


def timed_round(workload, tracer=None) -> float:
    workload.clear()
    clear_memo_caches()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    started = time.perf_counter()
    workload.round()
    wall = time.perf_counter() - started
    if tracer is not None:
        tracer.uninstall()
    return wall


def span_cost(calls: int = 50_000, repeats: int = 5) -> float:
    """Fastest seconds per traced no-op call beyond a plain one."""

    class Owner:
        @staticmethod
        def noop(*args):
            return None

    def fastest(tracer=None) -> float:
        best = float("inf")
        for _ in range(repeats):
            if tracer is not None:
                # called inside a span, like every wrapped call in a round
                tracer.reset()
                tracer.spans.append(["pipeline.run", 0.0, 0.0, -1])
            started = time.perf_counter()
            for _ in range(calls):
                Owner.noop(1)
            best = min(best, time.perf_counter() - started)
        return best

    plain = fastest()
    tracer = Tracer()
    tracer.wrap(Owner, "noop", "bench.noop")
    tracer._stack().append(0)
    traced = fastest(tracer)
    tracer.uninstall()
    return (traced - plain) / calls


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=8)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as out:
        workload = WORKLOADS[args.workload](args.data, Path(out), args.seed)
        tracer = Tracer()
        timed_round(workload)
        plain, traced, spans = [], [], 0
        for i in range(args.pairs):
            if i % 2:
                traced.append(timed_round(workload, tracer))
                plain.append(timed_round(workload))
            else:
                plain.append(timed_round(workload))
                traced.append(timed_round(workload, tracer))
            spans = len(tracer.spans)
        if workload.failed:
            raise SystemExit(f"{workload.failed} operations failed")

    shares = [(t - p) / p for p, t in zip(plain, traced)]
    per_span = span_cost()
    print(
        f"{args.workload}: {per_span * 1e6:.2f} us per span in a tight loop, "
        f"{per_span * spans:.4f} s per round ({per_span * spans / statistics.median(plain) * 100:.2f} %)"
    )
    print(
        f"{args.workload}: {spans} spans per round, untraced median "
        f"{statistics.median(plain):.3f} s, traced median {statistics.median(traced):.3f} s, "
        f"median paired difference {statistics.median(t - p for p, t in zip(plain, traced)):+.4f} s "
        f"({statistics.median(shares) * 100:+.2f} %), paired differences from "
        f"{min(shares) * 100:+.1f} to {max(shares) * 100:+.1f} %"
    )


if __name__ == "__main__":
    main()
