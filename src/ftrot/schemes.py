"""Gate schemes built on post-selected rotation states, with costs.

Three composition mechanisms:

* teleportation random walk: applying a rotation state teleports the
  data by +/-theta_step at random; repeat-until-success reaches a
  target m * theta_step after m^2 expected steps;
* GHZ parallel rotation: k rotation states applied through a k-qubit
  GHZ state act as one rotation by k * theta_step, at the price of all
  k preparations succeeding at once (p_s^-k expected attempts);
* scaffolding: grid search over (d, k, m) composing both, choosing the
  base physical angle so the walk target m * k * theta_L(base) equals
  the requested logical angle.

Costs are expected space-time volumes in d^3 qubit-cycle units.  The
accounting covers preparation only; consuming the final state into the
data patch is common to every method and excluded.  One attempt holds a
rotated-code patch of 2d^2-1 physical qubits (data plus ancillas) for
r+1 cycles (init+rotation, then r detection rounds), see
`attempt_cost`; retries multiply it, and each GHZ merge leg and each
walk teleportation is one logical CNOT worth 2 d^3.

The plan grid is searched over d in D_VALUES, k in 1..K_MAX and m in
1..M_MAX unless a caller narrows it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import analytics
from .analytics import NoiseModel
from .codes import StabilizerCode, get_code, require_rotation
from .mcsim import _check_seed, _philox_batches

__all__ = [
    "D_VALUES",
    "K_MAX",
    "M_MAX",
    "attempt_cost",
    "ScaffoldPlan",
    "WalkStats",
    "InfeasibleError",
    "walk_expected_steps",
    "simulate_walk",
    "ghz_expected_attempts",
    "iter_plans",
    "scaffold_optimize",
]

D_VALUES = (3, 5, 7)
K_MAX = 9
M_MAX = 64

_TELEPORT_STEP_COST = 2.0
_GHZ_MERGE_COST_PER_LEG = 2.0

_WALK_BATCH = 1 << 14


def walk_expected_steps(m: int) -> int:
    """Expected steps of a fair +/-1 walk from 0 to hit +/-m: m^2.

    This is the origin entry of the absorption system
    E[x] = 1 + (E[x-1] + E[x+1])/2 with E[+/-m] = 0.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return m * m


@dataclass(frozen=True)
class WalkStats:
    m: int
    n_walks: int
    mean_steps: float
    std_steps: float
    plus_fraction: float
    minus_fraction: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "walks": self.n_walks,
            "mean_steps": self.mean_steps,
            "std_steps": self.std_steps,
            "expected_steps": walk_expected_steps(self.m),
            "plus_fraction": self.plus_fraction,
            "minus_fraction": self.minus_fraction,
            "seed": self.seed,
            "stream": 2,
        }


def _walk_cdf(m: int) -> np.ndarray:
    """P(T <= t), t = 1, 2, ..., T the first time a fair +/-1 walk from 0 hits +/-m."""
    live = np.zeros(2 * m + 1)
    live[m] = left = 1.0
    cdf = []
    while left >= 2.0**-54:  # below a double uniform's resolution: cdf ends at 1.0
        live = np.convolve(live, (0.5, 0.0, 0.5), mode="same")
        live[0] = live[-1] = 0.0  # the ends absorb
        left = min(left, float(live.sum()))
        cdf.append(1.0 - left)
    return np.array(cdf)


def simulate_walk(m: int, n_walks: int, seed: int) -> WalkStats:
    """Sample the teleportation walk; records the terminal sign.

    A +m terminal needs no fix-up; -m costs one Pauli-X correction.
    Batch i draws from Philox key (seed, i), seed in [0, 2^64): one
    uniform per walk for its length T by inverse CDF, then one per walk
    for its sign, a fair coin independent of T (stream 2).
    """
    if not 1 <= m <= M_MAX or n_walks < 1:
        raise ValueError(f"need 1 <= m <= {M_MAX} and n_walks >= 1")
    _check_seed(seed)
    cdf = _walk_cdf(m)

    def batch(rng: np.random.Generator, size: int) -> tuple[int, int, int]:
        steps = np.searchsorted(cdf, rng.random(size), side="right") + 1
        plus = np.count_nonzero(rng.random(size) < 0.5)
        return plus, int(steps.sum()), int(steps @ steps)

    plus, s1, s2 = map(sum, zip(*_philox_batches(seed, n_walks, _WALK_BATCH, batch)))
    var = (n_walks * s2 - s1 * s1) / (n_walks * (n_walks - 1)) if n_walks > 1 else 0.0
    return WalkStats(
        m=m,
        n_walks=n_walks,
        mean_steps=s1 / n_walks,
        std_steps=math.sqrt(var),
        plus_fraction=plus / n_walks,
        minus_fraction=1.0 - plus / n_walks,
        seed=seed,
    )


def ghz_expected_attempts(p_s: float, m: int) -> float:
    """Expected attempts until m parallel preparations all succeed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if p_s <= 0.0:
        raise ValueError("p_s = 0: expected attempts diverge")
    if p_s > 1.0:
        raise ValueError("p_s must be a probability")
    return p_s ** (-m)


def attempt_cost(d: int, r: int) -> float:
    """One preparation attempt, in d^3 units: 2d^2-1 qubits for r+1 cycles."""
    return (2 * d * d - 1) * (r + 1) / d**3


@dataclass(frozen=True)
class ScaffoldPlan:
    d: int
    k: int
    m: int
    theta_base: float
    theta_l_target: float
    expected_cost: float
    predicted_error: float
    breakdown: dict
    walk_steps_expected: int
    ghz_attempts_expected: float

    def to_dict(self) -> dict:
        return asdict(self)


class InfeasibleError(Exception):
    """No plan meets the error ceiling; carries the closest plan."""

    def __init__(self, message: str, best_plan: ScaffoldPlan):
        super().__init__(message)
        self.best_plan = best_plan


def _base_state(
    step_angle: float, code: StabilizerCode, noise: NoiseModel
) -> tuple[float, float, float] | None:
    """Physical angle, success rate and accepted error of the state whose
    logical angle is step_angle, or None when no such state exists."""
    if not 0.0 < step_angle < math.pi:
        return None
    # invert the accepted-angle chain: theta_L(base) = step_angle
    theta_base = 2.0 * math.atan(math.tan(step_angle / 2.0) ** (1.0 / code.d))
    cfg = analytics.RotationConfig(theta=theta_base, d=code.d, **vars(noise))
    p_s = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
    if p_s <= 0.0:
        return None
    return theta_base, p_s, analytics.accepted_error_model(cfg, code.error_multiplicities)


def _make_plan(
    theta_l_target: float,
    d: int,
    k: int,
    m: int,
    attempt: float,
    state: tuple[float, float, float],
) -> ScaffoldPlan:
    theta_base, p_s, eps_base = state
    walk_steps = walk_expected_steps(m)
    attempts = ghz_expected_attempts(p_s, k)
    prep = walk_steps * attempts * k * attempt
    merge = walk_steps * attempts * k * _GHZ_MERGE_COST_PER_LEG if k >= 2 else 0.0
    teleport = walk_steps * _TELEPORT_STEP_COST if m >= 2 else 0.0
    breakdown = {
        "prep_attempts": prep,
        "ghz_merges": merge,
        "walk_teleports": teleport,
    }
    return ScaffoldPlan(
        d=d,
        k=k,
        m=m,
        theta_base=theta_base,
        theta_l_target=theta_l_target,
        expected_cost=prep + merge + teleport,
        predicted_error=walk_steps * k * eps_base,
        breakdown=breakdown,
        walk_steps_expected=walk_steps,
        ghz_attempts_expected=attempts,
    )


def iter_plans(
    theta_l_target: float,
    code_family: str,
    noise: NoiseModel,
    *,
    d_values: tuple[int, ...] = D_VALUES,
    k_max: int = K_MAX,
    m_max: int = M_MAX,
) -> Iterator[ScaffoldPlan]:
    """All candidate plans on the (d, k, m) grid.

    Errors compose linearly across the walk_steps * k consumed states
    (rates are far below 1 in every regime the grid reaches).  Cells
    with the same d and k * m consume the same state, so each state is
    worked out once.  A cell is skipped when its state does not exist
    or has p_s = 0, and when its GHZ attempt count or expected cost
    overflows a float: such a cell is as hopeless as p_s = 0.  A code
    that `require_rotation` refuses raises ValueError.
    """
    if theta_l_target <= 0.0:
        raise ValueError("theta_l_target must be positive")
    for d in d_values:
        code = get_code(code_family, d)
        require_rotation(code)
        attempt = attempt_cost(d, noise.r)
        states: dict[int, tuple[float, float, float] | None] = {}
        for k in range(1, k_max + 1):
            for m in range(1, m_max + 1):
                if k * m not in states:
                    states[k * m] = _base_state(theta_l_target / (k * m), code, noise)
                state = states[k * m]
                if state is None:
                    continue
                try:
                    plan = _make_plan(theta_l_target, d, k, m, attempt, state)
                except OverflowError:
                    continue
                if math.isfinite(plan.expected_cost):
                    yield plan


def scaffold_optimize(
    theta_l_target: float,
    code_family: str,
    noise: NoiseModel,
    *,
    error_ceiling: float | None = None,
    **grid,
) -> ScaffoldPlan:
    """Cheapest plan hitting theta_l_target, optionally under an error
    ceiling.  Ties break toward lower predicted error, then smaller d,
    then smaller m, then smaller k (a total order, so the result does
    not depend on enumeration order).  `grid` (d_values, k_max, m_max)
    goes to `iter_plans` unchanged."""
    plans = list(iter_plans(theta_l_target, code_family, noise, **grid))
    if not plans:
        raise ValueError("empty grid: no representable plan")

    if error_ceiling is not None:
        feasible = [p for p in plans if p.predicted_error <= error_ceiling]
        if not feasible:
            best = min(plans, key=lambda p: (p.predicted_error, p.expected_cost, p.d, p.m, p.k))
            raise InfeasibleError(
                f"no plan reaches error ceiling {error_ceiling:.3g}; best achieves "
                f"{best.predicted_error:.3g} at cost {best.expected_cost:.3g}",
                best_plan=best,
            )
        plans = feasible
    return min(plans, key=lambda p: (p.expected_cost, p.predicted_error, p.d, p.m, p.k))
