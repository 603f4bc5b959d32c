"""Machine-speed probe, run next to every timed piece of work.

Every time this benchmark reports is CPU time of its process
(``time.process_time``), not wall time. The loop is one thread that never
waits on anything outside the process, so the two differ only by the time
the process sat ready while another process or virtual CPU held the core.
On the shared 2-core host this benchmark was built on, that waiting comes
in bursts: with two busy loops competing, the wall-clock p95 of a 12-API
session went from 3.9 to 7.1-7.7 ms while its CPU p95 moved by under 3 %.

CPU time still drifts with the machine's own speed, by up to 2x from one
second to the next and sometimes over a whole run. So every timing is
paired with a short fixed probe (tokenising, dict and string work and a
small numpy reduction, like the pipeline's own hot paths) run right next to
it, and is reported scaled to the probe's reference time:
``reported = measured * REFERENCE_MS / local probe time``. The probe is the
benchmark's own code, so a change to the program cannot move it; unscaled
CPU and wall times are kept in the detail file of each run.
"""

from __future__ import annotations

import bisect
import json
import re
import statistics
from time import perf_counter, process_time

import numpy as np

# The probe's median CPU time between tasks on this host; reported times
# are close to its usual times.
REFERENCE_MS = 0.4
MIN_GAP_S = 0.02  # at most one probe per this many wall seconds
MARGIN_S = 0.05  # probes this close (wall seconds) to a piece of work also describe it

_SPLIT = re.compile(r"[^a-z0-9]+")
_TEXT = " ".join(f"Word{i % 89} term_{i % 31} item-{i}." for i in range(60)).lower()


def _probe_work() -> None:
    counts: dict[str, int] = {}
    for token in _SPLIT.split(_TEXT):
        if token:
            counts[token] = counts.get(token, 0) + 1
    weights = {t: c * 1.5 for t, c in counts.items()}
    sum(w * weights.get(t, 0.0) for t, w in counts.items())
    vector = np.zeros(1500)
    vector[: len(weights)] = list(weights.values())
    np.linalg.norm(vector)
    json.dumps(weights)


class SpeedLog:
    """Probe results over a run, and the slowdown they imply at any time.
    Probes are placed by ``perf_counter`` and timed by ``process_time``."""

    def __init__(self):
        self._times: list[float] = []
        self._ms: list[float] = []
        self.spent_s = 0.0  # CPU seconds the probes themselves took

    def probe(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and self._times and now - self._times[-1] < MIN_GAP_S:
            return
        cpu = process_time()
        _probe_work()
        elapsed = process_time() - cpu
        self._times.append(now)
        self._ms.append(elapsed * 1e3)
        self.spent_s += elapsed

    def slowdown(self, start: float, end: float) -> float:
        """Median CPU time of the probes within ``MARGIN_S`` of the wall
        interval [start, end], and at least of the last one before and the
        first one after it, over the reference time."""
        lo = min(
            bisect.bisect_left(self._times, start - MARGIN_S),
            max(bisect.bisect_right(self._times, start) - 1, 0),
        )
        hi = max(
            bisect.bisect_right(self._times, end + MARGIN_S),
            bisect.bisect_left(self._times, end) + 1,
        )
        return statistics.median(self._ms[lo:hi]) / REFERENCE_MS

    def summary(self) -> dict[str, float]:
        return {
            "probes": len(self._ms),
            "median_ms": statistics.median(self._ms),
            "min_ms": min(self._ms),
        }
