"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest -q perfbench
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measure import (  # noqa: E402
    non_dominated,
    percentile,
    tail_percentile,
    time_to_accuracy,
    walk_mean_ok,
    walk_steps_variance,
)
from tracer import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, percent",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, percent):
    samples = list(range(1, n + 1))
    got = tail_percentile(samples)
    if percent is None:
        assert got is None
        return
    q, value, count = got
    assert (q, count) == (percent, n)
    assert n - value >= 10  # samples 1..n: exactly n - value lie above it
    assert value == percentile(samples, round(q * 10))


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 3, 2, 4], 500) == 3
    assert percentile(list(range(1, 201)), 950) == 190
    assert percentile([7.0], 999) == 7.0
    with pytest.raises(ValueError):
        percentile([], 500)


def test_time_to_accuracy():
    # 2 s gave a 5% standard error; 10% needs a quarter of the work
    assert time_to_accuracy(2.0, 0.05, 1.0) == pytest.approx(0.5)
    assert time_to_accuracy(3.0, 0.1, 1.0) == pytest.approx(3.0)
    # four times the work halves the error: the answer does not change
    assert time_to_accuracy(8.0, 0.025, 1.0) == pytest.approx(time_to_accuracy(2.0, 0.05, 1.0))
    with pytest.raises(ValueError):
        time_to_accuracy(1.0, 0.1, 0.0)


def test_walk_variance_matches_exact_distribution():
    for m in range(1, 6):
        # distribution of the hitting time of +/-m by dynamic programming
        probs = {0: 1.0}
        mean = second = 0.0
        for step in range(1, 4000):
            nxt = {}
            for x, p in probs.items():
                for y in (x - 1, x + 1):
                    if abs(y) == m:
                        mean += step * p / 2
                        second += step * step * p / 2
                    else:
                        nxt[y] = nxt.get(y, 0.0) + p / 2
            probs = nxt
        assert mean == pytest.approx(m * m, rel=1e-9)
        assert second - mean * mean == pytest.approx(walk_steps_variance(m), rel=1e-9)


def test_walk_mean_check():
    sigma = math.sqrt(walk_steps_variance(4) / 20000)
    assert walk_mean_ok(4, 20000, 16.0)
    assert walk_mean_ok(4, 20000, 16.0 + 4.9 * sigma)
    assert not walk_mean_ok(4, 20000, 16.0 - 5.1 * sigma)
    assert walk_mean_ok(1, 10, 1.0) and not walk_mean_ok(1, 10, 1.1)


def test_non_dominated():
    assert non_dominated([(1e-3, 1.0), (1e-4, 2.0), (1e-5, 5.0)])
    assert not non_dominated([(1e-3, 1.0), (1e-4, 2.0), (1e-4, 3.0)])
    assert not non_dominated([(1e-3, 2.0), (1e-4, 1.0)])


def test_self_times_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("other_root", 20.0, 21.0, -1),
    ]
    leaves = {(3, "leaf"): (4, 2.0, 1.5), (0, "leaf"): (1, 0.5, 0.5)}
    own = self_times(spans, leaves)
    assert own == pytest.approx([10 - 3 - 4 - 0.5, 3 - 1, 1, 4 - 1.5, 1])
    # self times and leaf self times partition the root durations
    assert sum(own) + 1.5 + 0.5 == pytest.approx(10 + 1)


def test_tracer_partitions_a_real_query_and_restores_bindings():
    from ftrot import analytics, bench, cli, codes, schemes

    originals = (cli.main, codes.get_code, schemes.get_code, schemes.iter_plans,
                 bench.iter_plans, analytics.success_rate)
    argv = ["bench", "--methods", "ours,rs,coh", "--distill-costs", "bundled",
            "--theta-l", "2pi/2^6", "--d-values", "3,5", "--k-max", "3", "--m-max", "4"]
    with Tracer() as tracer:
        assert cli.main is not originals[0]
        assert schemes.get_code is codes.get_code is not originals[1]
        assert bench.iter_plans is schemes.iter_plans is not originals[3]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    assert (cli.main, codes.get_code, schemes.get_code, schemes.iter_plans,
            bench.iter_plans, analytics.success_rate) == originals

    names = [rec[0] for rec in tracer.spans]
    assert names[0] == "cli.main" and names.count("codes.get_code") == 2
    assert {"bench.pareto_report", "bench.pareto_front", "bench.rs_curve",
            "bench.coh_curve"} <= set(names)
    assert tracer.plans == 2 * 3 * 4
    own = self_times(tracer.spans, tracer.leaves)
    leaf_self = sum(v[2] for v in tracer.leaves.values())
    root = tracer.spans[0]
    assert sum(own) + leaf_self == pytest.approx(root[2] - root[1], rel=1e-9)
    assert min(own) >= 0
    summary = tracer.summary(ops=1)
    assert summary["schemes.plans"] == 24
    assert summary["codes.get_code.calls"] == 2
    assert summary["analytics.calls"] > 0
