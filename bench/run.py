"""colmatch benchmark: one command, seeded inputs, checked outputs.

    python3 bench/run.py --workload wide-pair --seed 0 --seconds 20 --trace 0

Run from the root of a colmatch checkout.  It generates the workload's
inputs from --seed under .bench_work/, runs the workload in a child process
(bench/workloads.py) for --seconds, then times SETUP_RUNS fresh
interpreters that import colmatch.cli and build its parser.  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

SETUP_RUNS = 5
CHILD_TIMEOUT_SECONDS = 150
SETUP_PROBE = (
    "import sys\n"
    "import colmatch.cli\n"
    "colmatch.cli.build_parser()\n"
    "print(len(sys.modules), sum(1 for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    return env


def measure_setup():
    """Median seconds for a fresh interpreter to import colmatch.cli and build its parser."""
    seconds = []
    counts = None
    for _ in range(SETUP_RUNS):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds.append(time.perf_counter() - started)
        counts = [int(x) for x in done.stdout.split()]
    return statistics.median(seconds), counts


def run_workload(args, data: Path, out: Path) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", args.workload,
            "--data", str(data),
            "--out", str(out),
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_SECONDS,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "colmatch" / "__init__.py").is_file():
        print(f"error: no colmatch sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    data, out = work / "data", work / "out"
    started = time.perf_counter()
    gen.generate(args.workload, args.seed, data)
    generated = time.perf_counter()
    report = run_workload(args, data, out)
    ran = time.perf_counter()
    setup_s, (modules, scipy_modules) = measure_setup()
    print(
        f"{args.workload} seed {args.seed}: inputs {generated - started:.1f} s, "
        f"workload {ran - generated:.1f} s (warm-up {report['warmup_wall_s']:.2f} s, "
        f"{report['rounds']} timed rounds, median {statistics.median(report['wall_s']):.3f} s), "
        f"set-up probes {time.perf_counter() - ran:.1f} s, {report['checks_passed']} checks passed",
        file=sys.stderr,
    )

    for failure in report["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        # a layer the workload does not run has no spans or counts: it reads 0
        measured = {
            **report["layers"],
            "cli.modules_loaded": modules,
            "cli.scipy_modules": scipy_modules,
        }
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": setup_s,
            "wall_s": statistics.median(report["wall_s"]),
            # 0 only when every pair operation failed, and the run is then not correct
            "pair_p50_s": statistics.median(report["pair_s"]) if report["pair_s"] else 0.0,
            "peak_rss_mb": report["peak_rss_mb"],
            "mrr": report["mrr"],
            "recall_at_gt": report["recall_at_gt"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {
                "correct": not report["check_failures"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
