"""Thread pool against one thread: ``run_benchmark(jobs=2)`` vs ``jobs=1``.

    python3 perfbench/jobs.py --seed 1 --seconds 20

Runs the sessions-many-docs rounds, alternating one round with ``jobs=1``
and one with ``jobs=2``, and prints sessions per second for each setting.
The sessions are pure Python on scripted gateways, so this measures what
threads gain under the interpreter lock.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from run import HERE, OUT, ROOT

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from speed import SpeedLog  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="jobs-", dir=OUT))
    try:
        wl = workloads.build("sessions-many-docs", args.seed, work)
        wl.set_up(SpeedLog())
        failures = workloads.Failures()
        totals = {1: [0, 0.0], 2: [0, 0.0]}
        wl.run_round(0, failures, None)  # warm-up
        index, deadline = 1, perf_counter() + args.seconds
        while perf_counter() < deadline or index < 3:
            jobs = 1 + index % 2
            done = wl.run_round(index, failures, None, jobs=jobs)
            totals[jobs][0] += done.tasks
            totals[jobs][1] += done.wall_seconds
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for jobs, (tasks, seconds) in totals.items():
        print(f"jobs={jobs}: {tasks / seconds:.1f} sessions/s over {tasks} sessions")
    print(f"jobs=2 / jobs=1 = {(totals[2][0] / totals[2][1]) / (totals[1][0] / totals[1][1]):.3f}"
          f"; failed {failures.count}")
    return 1 if failures.count else 0


if __name__ == "__main__":
    sys.exit(main())
