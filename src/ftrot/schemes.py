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
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from . import analytics
from .analytics import NoiseModel
from .codes import get_code, require_rotation
from .mcsim import _philox_batches

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
            "stream": 3,
        }


def _walk_geometric_p(m: int) -> np.ndarray:
    """p_j = sin^2((2j-1) pi / 2m), j = 1..floor(m/2), of T = (m mod 2) + 2 sum_j G_j."""
    return np.sin(np.arange(1, m, 2) * (np.pi / (2 * m))) ** 2


def simulate_walk(m: int, n_walks: int, seed: int) -> WalkStats:
    """Sample the teleportation walk; records the terminal sign.

    A +m terminal needs no fix-up; -m costs one Pauli-X correction.
    The hitting time T of +/-m has E[s^T] = 1/T_m(1/s), T_m the
    Chebyshev polynomial, whose roots +/-cos((2j-1) pi / 2m) pair up:
    T = (m mod 2) + 2 sum_j G_j over independent G_j ~ Geometric(p_j)
    on {1, 2, ...}, p_j from `_walk_geometric_p`.  Batch i draws from
    Philox key (seed, i), seed in [0, 2^64): one (walks, floor(m/2))
    block of G_j, then one uniform per walk for its sign, a fair coin
    independent of T (stream 3).  m <= M_MAX, the planner's walk grid.
    """
    if not 1 <= m <= M_MAX or n_walks < 1:
        raise ValueError(f"need 1 <= m <= {M_MAX} and n_walks >= 1")
    p = _walk_geometric_p(m)

    def batch(rng: np.random.Generator, size: int) -> tuple[int, int, int]:
        steps = m % 2 + 2 * rng.geometric(p, (size, p.size)).sum(axis=1)
        plus = np.count_nonzero(rng.random(size) < 0.5)
        return plus, int(steps.sum()), int(steps @ steps)

    plus = s1 = s2 = 0
    for batch_plus, batch_s1, batch_s2 in _philox_batches(seed, n_walks, _WALK_BATCH, batch):
        plus, s1, s2 = plus + batch_plus, s1 + batch_s1, s2 + batch_s2
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


def attempt_cost(d: int, r: int) -> float:
    """One preparation attempt, in d^3 units: 2d^2-1 qubits for r+1 cycles."""
    return (2 * d * d - 1) * (r + 1) / d**3


class ScaffoldPlan(NamedTuple):
    """The record of one (d, k, m) plan, built only for a plan that
    `scaffold_optimize` returns or that `InfeasibleError` carries; the
    grid walk itself yields plain tuples (see `iter_plans`).  A named
    tuple keeps it immutable and gives `to_dict` its field order.
    """

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
        return {**self._asdict(), "breakdown": dict(self.breakdown)}


class InfeasibleError(Exception):
    """No plan meets the error ceiling; carries the closest plan."""

    def __init__(self, message: str, best_plan: ScaffoldPlan):
        super().__init__(message)
        self.best_plan = best_plan


def _base_state(
    step_angle: float, d: int, p_s_in: float, rates: tuple[float, ...]
) -> tuple[float, float, float] | None:
    """Physical angle, success rate and accepted error of the state whose
    logical angle is step_angle, or None when no such state exists.

    p_s_in and rates are `analytics.substrate_success` and
    `analytics.class_rates` (class 0 first) of the code and noise; one
    `analytics.model_terms` call gives p_s and the error, the bits of
    `success_rate(...).p_s` and `accepted_error_model(...)`, without a
    RotationConfig per state.
    """
    if not 0.0 < step_angle < math.pi:
        return None
    # invert the accepted-angle chain: theta_L(base) = step_angle
    theta_base = 2.0 * math.atan(math.tan(step_angle / 2.0) ** (1.0 / d))
    _, _, _, error, accepted = analytics.model_terms(theta_base, d, rates)
    p_s = p_s_in * accepted
    if p_s <= 0.0:
        return None
    return theta_base, p_s, error


def iter_plans(
    theta_l_target: float,
    code_family: str,
    noise: NoiseModel,
    *,
    d_values: tuple[int, ...] = D_VALUES,
    k_max: int = K_MAX,
    m_max: int = M_MAX,
) -> Iterator[tuple]:
    """All candidate cells of the (d, k, m) grid, in (d, k, m) order.

    Each cell is one plain tuple (predicted_error, expected_cost, d, k,
    m, theta_base, attempts, prep, merge, teleport): attempts is the
    GHZ attempt count, and prep, merge and teleport are the three parts
    of the cost.  Callers select on these tuples, and a `ScaffoldPlan`
    is built only for a plan that is returned (`_record`).

    Errors compose linearly across the walk_steps * k consumed states
    (rates are far below 1 in every regime the grid reaches).  Cells
    with the same d and k * m consume the same state, so each state is
    worked out once.  A cell is skipped when its state does not exist
    or has p_s = 0, and when its GHZ attempt count or expected cost
    overflows a float: such a cell is as hopeless as p_s = 0.  A code
    that `require_rotation` refuses raises ValueError.

    A cell's walk takes m^2 steps (`walk_expected_steps`, inlined here)
    and its GHZ stage p_s^-k attempts.
    """
    if theta_l_target <= 0.0:
        raise ValueError("theta_l_target must be positive")
    for d in d_values:
        code = get_code(code_family, d)
        require_rotation(code)
        attempt = attempt_cost(d, noise.r)
        p_s_in = analytics.substrate_success(noise, code.n, len(code.stabilizers))
        rates = analytics.class_rates(noise, code.error_multiplicities)
        states: dict[int, tuple[float, float, float] | None] = {}
        for k in range(1, k_max + 1):
            for m in range(1, m_max + 1):
                km = k * m
                if km not in states:
                    states[km] = _base_state(theta_l_target / km, d, p_s_in, rates)
                state = states[km]
                if state is None:
                    continue
                theta_base, p_s, eps_base = state
                walk_steps = m * m
                try:
                    attempts = p_s ** -k
                except OverflowError:
                    continue
                legs = walk_steps * attempts * k
                prep = legs * attempt
                merge = legs * _GHZ_MERGE_COST_PER_LEG if k >= 2 else 0.0
                teleport = walk_steps * _TELEPORT_STEP_COST if m >= 2 else 0.0
                cost = prep + merge + teleport
                if math.isfinite(cost):
                    yield (walk_steps * k * eps_base, cost, d, k, m, theta_base,
                           attempts, prep, merge, teleport)


def _record(cell: tuple, theta_l_target: float) -> ScaffoldPlan:
    """The `ScaffoldPlan` of one `iter_plans` cell."""
    error, cost, d, k, m, theta_base, attempts, prep, merge, teleport = cell
    return ScaffoldPlan(
        d, k, m, theta_base, theta_l_target, cost, error,
        {"prep_attempts": prep, "ghz_merges": merge, "walk_teleports": teleport},
        m * m, attempts,
    )


# selection keys over iter_plans' cells: (cost, error, d, m, k) and
# (error, cost, d, m, k), each a total order on the grid
_CHEAPEST = itemgetter(1, 0, 2, 4, 3)
_MOST_ACCURATE = itemgetter(0, 1, 2, 4, 3)


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
    cells = list(iter_plans(theta_l_target, code_family, noise, **grid))
    if not cells:
        raise ValueError("empty grid: no representable plan")

    if error_ceiling is not None:
        feasible = [cell for cell in cells if cell[0] <= error_ceiling]
        if not feasible:
            best = _record(min(cells, key=_MOST_ACCURATE), theta_l_target)
            raise InfeasibleError(
                f"no plan reaches error ceiling {error_ceiling:.3g}; best achieves "
                f"{best.predicted_error:.3g} at cost {best.expected_cost:.3g}",
                best_plan=best,
            )
        cells = feasible
    return _record(min(cells, key=_CHEAPEST), theta_l_target)
