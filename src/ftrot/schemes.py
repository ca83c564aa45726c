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
accounting covers preparation only (attempt qubits x cycles, retries,
GHZ merges, walk teleportations); consuming the final state into the
data patch is common to every method and excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import analytics
from .analytics import NoiseModel
from .codes import StabilizerCode, get_code
from .mcsim import _philox_batches

__all__ = [
    "CostModelParams",
    "ScaffoldPlan",
    "WalkStats",
    "InfeasibleError",
    "walk_expected_steps",
    "simulate_walk",
    "ghz_expected_attempts",
    "prep_expected_cost",
    "iter_plans",
    "scaffold_optimize",
]

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
        }


def simulate_walk(m: int, n_walks: int, seed: int) -> WalkStats:
    """Monte-Carlo the teleportation walk; records the terminal sign.

    A +m terminal needs no fix-up; -m costs one Pauli-X correction.
    Batches draw from Philox substreams keyed (seed, batch index), so
    the result is deterministic for a given (seed, n_walks).
    """
    if m < 1 or n_walks < 1:
        raise ValueError("m and n_walks must be >= 1")
    step_cap = 1000 * m * m + 1000

    def batch(rng: np.random.Generator, size: int) -> tuple[int, np.ndarray]:
        pos = np.zeros(size, dtype=np.int32)
        steps = np.zeros(size, dtype=np.int64)
        active = np.ones(size, dtype=bool)
        for _ in range(step_cap):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            moves = np.where(rng.random(idx.size) < 0.5, -1, 1).astype(np.int32)
            pos[idx] += moves
            steps[idx] += 1
            done = np.abs(pos[idx]) >= m
            active[idx[done]] = False
        else:
            raise RuntimeError(f"walk exceeded {step_cap} steps")
        return int((pos == m).sum()), steps

    results = _philox_batches(seed, n_walks, _WALK_BATCH, batch)
    plus = sum(r[0] for r in results)
    all_steps = np.concatenate([r[1] for r in results])
    return WalkStats(
        m=m,
        n_walks=n_walks,
        mean_steps=float(all_steps.mean()),
        std_steps=float(all_steps.std(ddof=1)) if n_walks > 1 else 0.0,
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


@dataclass(frozen=True)
class CostModelParams:
    """Space-time accounting knobs, all in d^3 qubit-cycle units.

    Defaults: a rotated-code patch holds 2d^2-1 physical qubits (data
    plus ancillas) and one attempt spans r+1 cycles (init+rotation,
    then r detection rounds); a teleportation step is one logical CNOT
    worth 2 d^3; each GHZ merge leg likewise 2 d^3.
    """

    d: int
    prep_attempt_qubits: int
    prep_attempt_cycles: int
    teleport_step_cost: float = 2.0
    ghz_merge_cost_per_leg: float = 2.0
    unit: str = "d^3 qubit-cycles"

    @classmethod
    def defaults(cls, d: int, r: int) -> "CostModelParams":
        return cls(d=d, prep_attempt_qubits=2 * d * d - 1, prep_attempt_cycles=r + 1)

    def __post_init__(self) -> None:
        if min(self.d, self.prep_attempt_qubits, self.prep_attempt_cycles) < 1:
            raise ValueError("cost parameters must be positive")
        if self.teleport_step_cost <= 0 or self.ghz_merge_cost_per_leg <= 0:
            raise ValueError("cost parameters must be positive")

    @property
    def attempt_cost(self) -> float:
        """One preparation attempt, in d^3 units."""
        return self.prep_attempt_qubits * self.prep_attempt_cycles / self.d ** 3


def prep_expected_cost(
    code: StabilizerCode,
    theta: float,
    noise: NoiseModel,
    cost: CostModelParams | None = None,
) -> float:
    """Expected cost of one accepted preparation: attempt cost / p_s."""
    if cost is None:
        cost = CostModelParams.defaults(code.d, noise.r)
    if cost.d != code.d:
        raise ValueError("cost model distance does not match code")
    cfg = analytics.RotationConfig(theta=theta, d=code.d, **vars(noise))
    p_s = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
    if p_s < 1e-300:
        raise ValueError(
            f"success rate underflow (p_s = {p_s:.3g}); expected cost diverges"
        )
    return cost.attempt_cost / p_s


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
        return {
            "d": self.d,
            "k": self.k,
            "m": self.m,
            "theta_base": self.theta_base,
            "theta_l_target": self.theta_l_target,
            "expected_cost": self.expected_cost,
            "predicted_error": self.predicted_error,
            "breakdown": dict(self.breakdown),
            "walk_steps_expected": self.walk_steps_expected,
            "ghz_attempts_expected": self.ghz_attempts_expected,
        }


class InfeasibleError(Exception):
    """No plan meets the error ceiling; carries the closest plan."""

    def __init__(self, message: str, best_plan: ScaffoldPlan):
        super().__init__(message)
        self.best_plan = best_plan


def _make_plan(
    theta_l_target: float,
    code: StabilizerCode,
    noise: NoiseModel,
    k: int,
    m: int,
    cost: CostModelParams,
) -> ScaffoldPlan | None:
    d = code.d
    step_angle = theta_l_target / (m * k)
    if not 0.0 < step_angle < math.pi:
        return None
    # invert the accepted-angle chain: theta_L(base) = target/(m k)
    theta_base = 2.0 * math.atan(math.tan(step_angle / 2.0) ** (1.0 / d))
    cfg = analytics.RotationConfig(theta=theta_base, d=d, **vars(noise))
    p_s = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
    if p_s <= 0.0:
        return None

    walk_steps = walk_expected_steps(m)
    attempts = ghz_expected_attempts(p_s, k)
    prep = walk_steps * attempts * k * cost.attempt_cost
    merge = (
        walk_steps * attempts * k * cost.ghz_merge_cost_per_leg if k >= 2 else 0.0
    )
    teleport = walk_steps * cost.teleport_step_cost if m >= 2 else 0.0
    breakdown = {
        "prep_attempts": prep,
        "ghz_merges": merge,
        "walk_teleports": teleport,
    }

    eps_base = analytics.incoherent_error_first_order(
        cfg, code.error_multiplicities.first_order
    ) + analytics.readout_error(cfg, code.error_multiplicities.readout_combos)
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
    d_values: tuple[int, ...] = (3, 5, 7),
    k_max: int = 9,
    m_max: int = 64,
    cost_model: Callable[[int], CostModelParams] | None = None,
) -> Iterator[ScaffoldPlan]:
    """All candidate plans on the (d, k, m) grid.

    Errors compose linearly across the walk_steps * k consumed states
    (rates are far below 1 in every regime the grid reaches).
    """
    if theta_l_target <= 0.0:
        raise ValueError("theta_l_target must be positive")
    for d in d_values:
        code = get_code(code_family, d)
        cost = (
            cost_model(d) if cost_model is not None
            else CostModelParams.defaults(d, noise.r)
        )
        for k in range(1, k_max + 1):
            for m in range(1, m_max + 1):
                plan = _make_plan(theta_l_target, code, noise, k, m, cost)
                if plan is not None:
                    yield plan


def scaffold_optimize(
    theta_l_target: float,
    code_family: str,
    noise: NoiseModel,
    *,
    d_values: tuple[int, ...] = (3, 5, 7),
    k_max: int = 9,
    m_max: int = 64,
    error_ceiling: float | None = None,
    cost_model: Callable[[int], CostModelParams] | None = None,
) -> ScaffoldPlan:
    """Cheapest plan hitting theta_l_target, optionally under an error
    ceiling.  Ties break toward lower predicted error, then smaller d,
    then smaller m, then smaller k (a total order, so the result does
    not depend on enumeration order)."""
    plans = list(
        iter_plans(
            theta_l_target,
            code_family,
            noise,
            d_values=d_values,
            k_max=k_max,
            m_max=m_max,
            cost_model=cost_model,
        )
    )
    if not plans:
        raise ValueError("empty grid: no representable plan")

    def order(p: ScaffoldPlan) -> tuple:
        return (p.expected_cost, p.predicted_error, p.d, p.m, p.k)

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
    return min(plans, key=order)
