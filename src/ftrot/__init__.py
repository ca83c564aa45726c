"""Fault-tolerant preparation of arbitrary-angle Z-rotation states.

Transversal physical rotations on a stabilizer code, post-selected on
clean syndromes, yield a logical rotation state whose residual errors
fall off steeply with the code distance.  The package models that
protocol end to end: code constructions (`codes`), closed-form error
and success-rate formulas (`analytics`), a vectorized Monte-Carlo
engine (`mcsim`), composition of prepared states into arbitrary
targets (`schemes`), and cost comparisons against Clifford+T synthesis
baselines (`bench`), all behind one CLI (`ftrot`).
"""

from .analytics import (
    NoiseModel,
    RotationConfig,
    accepted_error_model,
    branch_angle,
    branch_infidelity,
    coherent_angle_std,
    logical_angle,
    success_rate,
)
from .bench import CostPoint, DistillCostTable, pareto_report
from .codes import StabilizerCode, get_code, list_codes, validate
from .mcsim import McStats, estimate
from .pauli import PauliString, commutes
from .schemes import (
    InfeasibleError,
    ScaffoldPlan,
    attempt_cost,
    scaffold_optimize,
    simulate_walk,
    walk_expected_steps,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PauliString",
    "commutes",
    "StabilizerCode",
    "get_code",
    "list_codes",
    "validate",
    "RotationConfig",
    "logical_angle",
    "branch_angle",
    "branch_infidelity",
    "accepted_error_model",
    "success_rate",
    "coherent_angle_std",
    "NoiseModel",
    "McStats",
    "estimate",
    "ScaffoldPlan",
    "InfeasibleError",
    "walk_expected_steps",
    "simulate_walk",
    "attempt_cost",
    "scaffold_optimize",
    "CostPoint",
    "DistillCostTable",
    "pareto_report",
]
