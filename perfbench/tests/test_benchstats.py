"""Self-tests for the benchmark's order statistics."""

import statistics

import numpy as np
import pytest

from perfbench import benchstats
from perfbench.common import FAILED_FLOOR, failed_frac, overhead_frac


def test_median_odd_and_even():
    assert benchstats.median([3, 1, 2]) == 2
    assert benchstats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        benchstats.median([])


def test_quartiles_match_statistics_quantiles():
    values = list(range(1, 11))
    q1, q2, q3 = benchstats.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert benchstats.iqr(values) == 5.5
    assert list(benchstats.quartiles(values)) == statistics.quantiles(values, n=4)


def test_quartiles_of_constant_and_single_samples():
    assert benchstats.iqr([0.5] * 10) == 0.0
    assert benchstats.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("p", [0, 10, 50, 90, 95, 99, 100])
def test_percentile_matches_numpy_linear(p):
    values = np.random.default_rng(0).exponential(size=137)
    assert benchstats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_percentile_small_sample():
    assert benchstats.percentile([1, 2, 3, 4], 50) == 2.5
    assert benchstats.percentile([5], 95) == 5


@pytest.mark.parametrize(
    "n, p, beyond",
    [(200, 95, 10), (190, 95, 10), (180, 95, 9), (800, 95, 40), (800, 99, 8),
     (1000, 99, 10), (20, 50, 10), (19, 50, 9), (0, 50, 0)],
)
def test_samples_beyond_a_percentile(n, p, beyond):
    assert benchstats.samples_beyond(n, p) == beyond
    assert benchstats.percentile_supported(n, p) == (beyond >= benchstats.MIN_TAIL_SAMPLES)


def test_samples_beyond_counts_sorted_positions_above_the_rank():
    for n in (20, 57, 199, 800):
        for p in (50, 90, 95, 99):
            rank = p / 100 * (n - 1)
            assert benchstats.samples_beyond(n, p) == sum(1 for i in range(n) if i > rank)


def test_failed_frac_is_never_zero_and_ignores_run_length():
    assert failed_frac(0, 17) == failed_frac(0, 800) == FAILED_FLOOR > 0
    assert failed_frac(1, 800) == pytest.approx(1 / 800 + FAILED_FLOOR)
    assert failed_frac(2, 40) == pytest.approx(failed_frac(40, 800))


def test_overhead_frac_cancels_linear_drift():
    base = [2.0 - 0.05 * i for i in range(20)]
    flags = [i % 2 == 0 for i in range(20)]
    durations = [b * (1.1 if f else 1.0) for b, f in zip(base, flags)]
    assert overhead_frac(durations, flags) == pytest.approx(0.1, abs=1e-3)
    assert overhead_frac(durations, [False] * 20) == 0.0

