import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autofeedback import (
    ErrorType,
    accuracy,
    error_distribution,
    overhead,
    population_variance,
    process_correctness,
    spearman,
)
from autofeedback.errors import (
    EmptyInputError,
    LengthMismatchError,
    TooShortError,
    ZeroAccuracyError,
)
from autofeedback.metrics import BenchmarkReport, error_distribution_percentages

from oracles import oracle_spearman


def test_accuracy_ratio():
    assert accuracy([True] * 7 + [False] * 3) == pytest.approx(70.0)
    assert accuracy([True, True]) == 100.0
    assert accuracy([False]) == 0.0


def test_accuracy_empty_raises():
    with pytest.raises(EmptyInputError):
        accuracy([])


def test_accuracy_permutation_invariant():
    flags = [True, False, True, True, False]
    rng = random.Random(3)
    for _ in range(5):
        shuffled = flags[:]
        rng.shuffle(shuffled)
        assert accuracy(shuffled) == accuracy(flags)


def test_overhead_reproduces_reported_rows():
    assert overhead(919.45, 70.69) == pytest.approx(13.01, abs=0.01)
    assert overhead(1338.03, 75.00) == pytest.approx(17.84, abs=0.01)
    assert overhead(100, 100) == 1.0


def test_overhead_zero_accuracy_raises():
    with pytest.raises(ZeroAccuracyError):
        overhead(500, 0.0)


def test_overhead_decreasing_in_accuracy():
    values = [overhead(1000.0, a) for a in (10, 25, 50, 75, 100)]
    assert values == sorted(values, reverse=True)


def test_process_correctness_exact():
    executed = [["f(a=1)"], ["g(b=2)"], ["f(a=1)", "f(a=1)"]]
    truth = ["f(a=1)", "g(b=2)", "f(a=1)"]
    assert process_correctness(executed, truth) == pytest.approx(100 * 2 / 3)


def test_process_correctness_lists_of_different_lengths_raise():
    with pytest.raises(LengthMismatchError):
        process_correctness([["f(a=1)"], ["f(a=1)"]], ["f(a=1)"])


def test_process_correctness_extra_call_not_counted():
    executed = [["redundant()", "f(a=1)"]]
    truth = ["f(a=1)"]
    assert process_correctness(executed, truth) == 0.0


def test_process_correctness_empty_raises():
    with pytest.raises(EmptyInputError):
        process_correctness([], [])


def test_process_correctness_permutation_invariant():
    executed = [["a()"], ["b()"], ["c()"], ["d()"]]
    truth = ["a()", "x()", "c()", "y()"]
    baseline = process_correctness(executed, truth)
    rng = random.Random(17)
    order = list(range(4))
    for _ in range(5):
        rng.shuffle(order)
        got = process_correctness(
            [executed[i] for i in order], [truth[i] for i in order]
        )
        assert got == baseline


def test_error_distribution_counts():
    got = error_distribution([ErrorType.E1, ErrorType.E1, ErrorType.E2_1])
    assert got == {ErrorType.E1: 2, ErrorType.E2_1: 1}


def test_error_distribution_all_none():
    hist = error_distribution([ErrorType.NONE, ErrorType.NONE])
    assert error_distribution_percentages(hist) == {}


def test_error_distribution_percentages_sum_to_100():
    labels = [
        ErrorType.E1, ErrorType.E2_1, ErrorType.E2_2, ErrorType.E2_3,
        ErrorType.E3_1, ErrorType.E3_2, ErrorType.E4_1, ErrorType.E4_OTHER,
        ErrorType.NONE,
    ]
    pct = error_distribution_percentages(error_distribution(labels))
    assert len(pct) == 8
    assert sum(pct.values()) == pytest.approx(100.0)


def test_spearman_identity_and_reversal_exact():
    assert spearman([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == 1.0
    assert spearman([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == -1.0


def test_spearman_single_swap_matches_oracle():
    got = spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4])
    assert got == pytest.approx(0.9, abs=1e-9)
    assert got == pytest.approx(
        oracle_spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4]), abs=1e-12
    )


def test_spearman_handles_ties_with_average_ranks():
    # ranks of xs: [1.5, 1.5, 3]; ranks of ys: [1, 2, 3]
    got = spearman([2, 2, 5], [1, 2, 3])
    assert -1.0 <= got <= 1.0
    assert got == pytest.approx(0.8660254037844387, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(LengthMismatchError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(TooShortError):
        spearman([1], [2])


@given(
    st.lists(
        st.integers(min_value=-10**6, max_value=10**6),
        min_size=2, max_size=20, unique=True,
    )
)
def test_spearman_monotone_transform_invariant(xs):
    assert spearman(xs, xs) == 1.0
    cubed = [x**3 for x in xs]  # strictly monotone, rank-preserving
    assert spearman(xs, cubed) == 1.0
    assert spearman(xs, [-x for x in xs]) == -1.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
             min_size=2, max_size=12),
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
             min_size=2, max_size=12),
)
def test_spearman_bounded(xs, ys):
    n = min(len(xs), len(ys))
    rho = spearman(xs[:n], ys[:n])
    assert -1.0 <= rho <= 1.0


@given(st.data())
def test_spearman_equals_the_d_squared_oracle_without_ties(data):
    n = data.draw(st.integers(min_value=2, max_value=60))
    distinct = st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=n, max_size=n, unique=True,
    )
    xs, ys = data.draw(distinct), data.draw(distinct)
    assert spearman(xs, ys) == pytest.approx(oracle_spearman(xs, ys), abs=1e-12)


def test_population_variance_reported_values():
    assert population_variance([1, 0, 0]) == pytest.approx(0.2222, abs=1e-4)
    assert population_variance([1, 1, 0]) == pytest.approx(0.2222, abs=1e-4)
    assert population_variance([3, 3, 3]) == 0.0


def test_population_variance_empty_raises():
    with pytest.raises(EmptyInputError):
        population_variance([])


def test_report_serialization_round():
    report = BenchmarkReport(
        n_tasks=10,
        accuracy_pct=70.0,
        process_correctness_pct=None,
        mean_tokens=919.45,
        overhead=13.0068,
        error_histogram={ErrorType.E1: 2, ErrorType.NONE: 8},
    )
    text = report.to_json()
    assert '"accuracy_pct": 70.0' in text
    assert '"overhead": 13.01' in text
    table = report.to_table()
    assert "accuracy %" in table and "70.00" in table
