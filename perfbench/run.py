"""Offline benchmark of the autofeedback pipeline.

    python3 perfbench/run.py --workload sessions-large-doc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Without ``--workload`` every workload runs, each in its own process. With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics instead. Details of every run (per-path session times,
every layer's counters, unscaled CPU and wall times, failure reasons) go to
``perfbench/out/``. Times are CPU time of the process, reported at the
reference speed of the probe in ``speed.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_INTERVAL_S = 2.0  # time set-up again after this long
MIN_SETUPS = 5
MIN_TASKS = 200  # measured tasks per run at least, so that p95 has ten beyond it
WINDOW_S = 1.0  # throughput is the median over windows of this many CPU seconds


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 5) by the inclusive method."""
    return statistics.quantiles(values, n=20, method="inclusive")[q // 5 - 1]


def _windows(rounds: list) -> list[list]:
    """Consecutive rounds grouped into windows of at least ``WINDOW_S`` CPU
    seconds; a short last window is folded into the one before."""
    windows, current, seconds = [], [], 0.0
    for r in rounds:
        current.append(r)
        seconds += r.seconds
        if seconds >= WINDOW_S:
            windows.append(current)
            current, seconds = [], 0.0
    if current:
        if windows:
            current = windows.pop() + current
        windows.append(current)
    return windows


def _scaled_task_ms(r, speed) -> list[float]:
    return [ms / speed.slowdown(start, end) for (start, end), ms in zip(r.task_span, r.task_ms)]


def _scale(r, speed) -> float:
    """Reference-speed time over measured time for round *r*, weighted by
    its tasks' times; it also scales the round's time outside the tasks."""
    return sum(_scaled_task_ms(r, speed)) / sum(r.task_ms)


def _tasks_per_s(rounds: list, speed) -> float:
    return sum(r.tasks for r in rounds) / sum(r.seconds * _scale(r, speed) for r in rounds)


def _end_to_end(rounds: list, setups: list[float], speed) -> dict[str, float]:
    latencies = [ms for r in rounds for ms in _scaled_task_ms(r, speed)]
    return {
        "tasks_per_s": statistics.median(_tasks_per_s(w, speed) for w in _windows(rounds)),
        "task_ms_p50": _quantile(latencies, 50),
        "task_ms_p95": _quantile(latencies, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(traced: list, setup: dict, speed) -> dict[str, float]:
    """Time per task over every traced round, each scaled like the round;
    counts per task from the first traced round, so that they repeat exactly
    for a seed; the set-up layers per set-up."""
    tasks = sum(r.tasks for r, _ in traced)
    scales = [_scale(r, speed) for r, _ in traced]
    first_round, first = traced[0]
    out = {}
    for name in first:
        total = sum(stats[name][1] * k for (_, stats), k in zip(traced, scales))
        self_time = sum(stats[name][2] * k for (_, stats), k in zip(traced, scales))
        out[f"{name}.ms"] = 1e3 * total / tasks
        out[f"{name}.self_ms"] = 1e3 * self_time / tasks
        out[f"{name}.calls"] = first[name][0] / first_round.tasks
    for name in ("doc_model.load_document", "retrieval.default_similarity"):
        out[f"{name}.ms"] = 1e3 * setup[name]
    return out


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "autofeedback" / "__init__.py").is_file():
        print(f"error: no autofeedback package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import autofeedback
    import tracing
    import workloads
    from speed import SpeedLog

    if Path(autofeedback.__file__).resolve().parent != src / "autofeedback":
        print(f"error: imported autofeedback from {autofeedback.__file__}", file=sys.stderr)
        return 2
    wanted = _spec()["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, work)
        failures = workloads.Failures()
        speed = SpeedLog()
        setups = [wl.set_up(speed)]  # (CPU, scaled) seconds
        tracer = tracing.Tracer() if args.trace else None
        attempted = 0
        plain, traced = [], []  # measured rounds; traced ones with their stats
        last_setup = start = perf_counter()
        index = 0
        # Round 0 warms up and is not measured; with tracing, odd rounds are
        # traced and even ones give the untraced time they are compared with.
        # Set-up is timed again every few seconds, spread over the run like
        # the rounds; the extra set-ups are discarded. A run that other
        # processes slow down runs on until it holds MIN_TASKS tasks.
        measured = 0
        while (
            index < (3 if args.trace else 2)
            or perf_counter() - start < args.seconds
            or measured < MIN_TASKS
        ):
            if perf_counter() - last_setup >= SETUP_INTERVAL_S:
                setups.append(workloads.timed_set_up(wl.doc_paths, speed)[1:])
                last_setup = perf_counter()
            is_traced = bool(args.trace) and index % 2 == 1
            if is_traced:
                before = tracer.snapshot()
                tracer.install()
            try:
                done = wl.run_round(index, failures, speed)
            finally:
                if is_traced:
                    tracer.uninstall()
            attempted += done.ops
            if is_traced:
                traced.append((done, tracing.delta(tracer.snapshot(), before)))
            elif index > 0:
                plain.append(done)
                measured += done.tasks
            index += 1
        while len(setups) < MIN_SETUPS:
            setups.append(workloads.timed_set_up(wl.doc_paths, speed)[1:])

        if args.trace:
            before = tracer.snapshot()
            tracer.install()
            try:
                speed.probe(force=True)
                t0 = perf_counter()
                workloads.set_up(wl.doc_paths)
                t1 = perf_counter()
                speed.probe(force=True)
            finally:
                tracer.uninstall()
            slowdown = speed.slowdown(t0, t1)
            setup_layers = {
                name: stat[1] / slowdown
                for name, stat in tracing.delta(tracer.snapshot(), before).items()
            }
            values = _per_layer(traced, setup_layers, speed)
            values.update(wl.cost)
            ratio = _tasks_per_s(plain, speed) / _tasks_per_s([r for r, _ in traced], speed)
            values["tracing.overhead_pct"] = 100.0 * (ratio - 1.0)
        else:
            values = _end_to_end(plain, [scaled for _, scaled in setups], speed)

        by_path: dict[str, list[float]] = {}
        for r in plain:
            for path, ms in zip(r.paths, _scaled_task_ms(r, speed)):
                by_path.setdefault(path, []).append(ms)
        paths = {p: statistics.median(v) for p, v in sorted(by_path.items())}
        result = {
            "correct": failures.count == 0,
            "attempted": attempted,
            "failed": failures.count,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
            },
        }
        cpu_ms = [ms for r in plain for ms in r.task_ms]
        wall_ms = [(end - start) * 1e3 for r in plain for start, end in r.task_span]
        detail = dict(
            result, workload=args.workload, seed=args.seed, trace=args.trace,
            rounds=index, all_values=values, path_median_ms=paths, cost=wl.cost,
            speed=speed.summary(), setup_seconds_cpu_scaled=setups,
            unscaled=dict(
                tasks_per_cpu_s=sum(r.tasks for r in plain) / sum(r.seconds for r in plain),
                task_cpu_ms_p50=_quantile(cpu_ms, 50), task_cpu_ms_p95=_quantile(cpu_ms, 95),
                task_wall_ms_p50=_quantile(wall_ms, 50), task_wall_ms_p95=_quantile(wall_ms, 95),
            ),
            failures=failures.reasons,
        )
        name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
        (OUT / name).write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for reason in failures.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload}: attempted {attempted}, failed {failures.count},"
          f" {index} rounds")
    for m in wanted:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        for key, value in wl.cost.items():
            print(f"  ({key} = {value:.6g})")
        for path, ms in paths.items():
            print(f"  (median {path} task = {ms:.4g} ms)")
        print(f"  (unscaled: {detail['unscaled']})")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in _spec()["workloads"]]:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for key, metric in last["metrics"].items():
            summary["metrics"][f"{workload}/{key}"] = metric
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
