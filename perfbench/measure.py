"""Pure helpers of the benchmark: percentiles, accuracy cost, output checks.

Nothing here imports ftrot, so the helpers can be tested on their own
(``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

# Candidate tail percentiles in per-mille, highest first.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)


def percentile(samples: Sequence[float], q_permille: int) -> float:
    """Nearest-rank percentile: the sample at rank ceil(q * n / 1000)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q_permille <= 1000:
        raise ValueError("q_permille must be in (0, 1000]")
    ordered = sorted(samples)
    rank = -(-q_permille * len(ordered) // 1000)
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float], min_beyond: int = 10
) -> tuple[float, float, int] | None:
    """Highest percentile of TAIL_LADDER with at least `min_beyond`
    samples ranked above it, as (percent, value, n).

    Returns None when even the median has fewer samples beyond it.
    """
    n = len(samples)
    for q in TAIL_LADDER:
        rank = -(-q * n // 1000)
        if n and n - rank >= min_beyond:
            return q / 10.0, percentile(samples, q), n
    return None


def time_to_accuracy(wall_s: float, stderr: float, mean: float, rel: float = 0.10) -> float:
    """Seconds needed for an estimate with relative standard error `rel`.

    A Monte Carlo standard error falls as 1/sqrt(work), so a run that
    reached `stderr` on `mean` in `wall_s` seconds needs
    wall_s * (stderr / mean / rel)^2 seconds to reach `rel`.
    """
    if wall_s <= 0 or stderr < 0 or mean <= 0 or rel <= 0:
        raise ValueError("need wall_s > 0, stderr >= 0, mean > 0, rel > 0")
    return wall_s * (stderr / mean / rel) ** 2


def walk_steps_variance(m: int) -> float:
    """Variance of the hitting time of +/-m for a fair +/-1 walk from 0."""
    return (2 * m**4 - 2 * m**2) / 3.0


def walk_mean_ok(m: int, walks: int, mean_steps: float, z: float = 5.0) -> bool:
    """True when a sampled mean hitting time lies within z sigma of m^2."""
    if walks < 1:
        raise ValueError("walks must be >= 1")
    sigma = math.sqrt(walk_steps_variance(m) / walks)
    return abs(mean_steps - m * m) <= z * sigma


def non_dominated(points: Iterable[tuple[float, float]]) -> bool:
    """True when no (error, cost) point is matched or beaten on both axes
    by another, strictly on at least one."""
    pts = list(points)
    for i, (ea, ca) in enumerate(pts):
        for j, (eb, cb) in enumerate(pts):
            if i != j and eb <= ea and cb <= ca and (eb < ea or cb < ca):
                return False
    return True
