"""Aggregate evaluation: accuracy, interaction overhead, process
correctness, error distribution, and rater-agreement statistics."""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyInputError, LengthMismatchError, TooShortError, ZeroAccuracyError
from .static_scanner import ErrorType

__all__ = [
    "BenchmarkReport",
    "accuracy",
    "overhead",
    "process_correctness",
    "error_distribution",
    "error_distribution_percentages",
    "spearman",
    "population_variance",
]


def accuracy(satisfied: Sequence[bool]) -> float:
    """Percentage of tasks whose result met the requirement, one flag a task."""
    if not satisfied:
        raise EmptyInputError("no results to aggregate")
    return 100.0 * sum(satisfied) / len(satisfied)


def overhead(mean_tokens: float, accuracy_pct: float) -> float:
    """Average tokens spent per point of accuracy."""
    if accuracy_pct <= 0:
        raise ZeroAccuracyError("overhead is undefined at zero accuracy")
    return mean_tokens / accuracy_pct


def process_correctness(executed: Sequence[Sequence[str]], truth: Sequence[str]) -> float:
    """Percentage of tasks whose executed request sequence was optimal: the
    task executed its canonically serialized ground truth and nothing else."""
    if len(executed) != len(truth):
        raise LengthMismatchError("executed and truth differ in length")
    if not executed:
        raise EmptyInputError("no results to aggregate")
    hits = sum(1 for e, t in zip(executed, truth) if list(e) == [t])
    return 100.0 * hits / len(executed)


def error_distribution(classifications: Iterable[ErrorType]) -> dict[ErrorType, int]:
    """Count classifications per error type (clean requests included)."""
    return dict(Counter(classifications))


def error_distribution_percentages(
    histogram: dict[ErrorType, int]
) -> dict[ErrorType, float]:
    """Share of each error type among the non-clean classifications."""
    total = sum(c for t, c in histogram.items() if t is not ErrorType.NONE)
    if total == 0:
        return {}
    return {
        t: 100.0 * c / total
        for t, c in histogram.items()
        if t is not ErrorType.NONE
    }


def _average_ranks(xs: Sequence[float]) -> list[float]:
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties, clamped to [-1, 1]:
    the Pearson correlation of the rank vectors. Degenerate constant inputs
    yield 0.0.
    """
    if len(xs) != len(ys):
        raise LengthMismatchError("score vectors differ in length")
    n = len(xs)
    if n < 2:
        raise TooShortError("need at least two observations")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return min(1.0, max(-1.0, cov / (var_x * var_y) ** 0.5))


def population_variance(scores: Sequence[float]) -> float:
    """Variance with the divide-by-n convention."""
    if not scores:
        raise EmptyInputError("no scores")
    return statistics.pvariance(scores)


@dataclass(frozen=True)
class BenchmarkReport:
    """One benchmark summary row plus the error histogram behind it."""

    n_tasks: int
    accuracy_pct: float
    process_correctness_pct: float | None
    mean_tokens: float
    overhead: float | None
    error_histogram: dict[ErrorType, int]

    def to_json(self) -> str:
        payload = {
            "n_tasks": self.n_tasks,
            "accuracy_pct": round(self.accuracy_pct, 2),
            "process_correctness_pct": (
                round(self.process_correctness_pct, 2)
                if self.process_correctness_pct is not None
                else None
            ),
            "mean_tokens": round(self.mean_tokens, 2),
            "overhead": round(self.overhead, 2) if self.overhead is not None else None,
            "error_histogram": {
                t.value: c for t, c in sorted(
                    self.error_histogram.items(), key=lambda item: item[0].value
                )
            },
        }
        return json.dumps(payload, indent=2)

    def to_table(self) -> str:
        overhead_text = f"{self.overhead:.2f}" if self.overhead is not None else "-"
        process_text = (
            f"{self.process_correctness_pct:.2f}"
            if self.process_correctness_pct is not None
            else "-"
        )
        header = f"{'tasks':>8} {'avg tokens':>12} {'accuracy %':>12} {'process %':>11} {'overhead':>10}"
        row = (
            f"{self.n_tasks:>8} {self.mean_tokens:>12.2f} {self.accuracy_pct:>12.2f}"
            f" {process_text:>11} {overhead_text:>10}"
        )
        return header + "\n" + row
