"""Resource-overhead comparison: scaffolded rotation states vs two
Clifford+T baselines (Ross-Selinger synthesis and parity-check
synthesis up the Clifford hierarchy).

Costs are space-time volumes in d^3 qubit-cycle units.  T-state
distillation costs are external inputs loaded from a JSON table with a
mandatory provenance string; a bundled illustrative table ships with
the package.  Lookup is by exact p_in, and each entry at that rate
gives one baseline point; entries are never interpolated, and a rate
the table does not list is an error, not an estimate.  The baselines'
gate costs are fixed weights (`rs_clifford_cost`, `COH_COSTS`), and
their rows carry no code distance, so the `d` column stays empty.

Baseline error accounting follows the source comparison: both
baselines count only the infidelity of the distilled T states they
consume (the synthesis approximation angle is chosen a decade below
the target and ignored).  The `error_kind` column carries this caveat
so downstream consumers can annotate it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .analytics import NoiseModel
from .schemes import iter_plans

__all__ = [
    "DistillCostTable",
    "DistillEntry",
    "CostPoint",
    "RS_GATE_COUNTS",
    "COH_COSTS",
    "rs_t_count",
    "rs_clifford_cost",
    "rs_curve",
    "coh_error_step",
    "coh_ladder",
    "coh_curve",
    "our_method_curve",
    "pareto_front",
    "pareto_report",
    "REPORT_COLUMNS",
]


# (H count, S count, T count) of the synthesized circuits at the three
# reference angles, accuracy one decade below the angle.
RS_GATE_COUNTS: dict[str, tuple[int, int, int]] = {
    "2pi/2^4": (15, 2, 14),
    "2pi/2^7": (23, 2, 22),
    "2pi/2^10": (30, 1, 30),
}

# Clifford costs of one parity-check attempt in the hierarchy ladder:
# success/fail rows, state prep, T injection, and the quoted average
# (success+prep+inject and fail+prep+inject averaged at p=1/2).  The
# reuse row is a flag, not a cost: -1 marks the 2-theta recycling
# variant as not modeled here.
COH_COSTS: dict[str, float] = {
    "success": 165.0,
    "fail": 181.0,
    "prep": 6.0,
    "reuse": -1.0,
    "t_inject": 8.0,
    "average": 187.0,
}


def rs_t_count(theta_eps: float) -> int:
    """T count to synthesize a rotation to accuracy theta_eps.

    Uses the information-theoretic scaling 3 log2(1/eps) rounded to
    the nearest integer.
    """
    if not 0.0 < theta_eps < 1.0:
        raise ValueError("theta_eps must be in (0, 1)")
    return round(3.0 * math.log2(1.0 / theta_eps))


def rs_clifford_cost(
    theta_label: str | None = None,
    counts: tuple[int, int, int] | None = None,
) -> float:
    """Circuit cost h*1 + s*6 + t*5 for a tabulated angle or raw counts:
    per-gate space-time costs in d^3 units of H, S and T consumption."""
    if counts is None:
        if theta_label is None or theta_label not in RS_GATE_COUNTS:
            raise KeyError(
                f"no gate counts for {theta_label!r}; known labels: "
                f"{sorted(RS_GATE_COUNTS)} (or pass counts=)"
            )
        counts = RS_GATE_COUNTS[theta_label]
    h, s, t = counts
    return h * 1.0 + s * 6.0 + t * 5.0


@dataclass(frozen=True)
class DistillEntry:
    p_in: float
    out_error: float
    cost: float
    protocol: str


@dataclass(frozen=True)
class DistillCostTable:
    provenance: str
    entries: tuple[DistillEntry, ...]

    def __post_init__(self) -> None:
        if not self.provenance.strip():
            raise ValueError("distillation table requires a provenance string")
        for e in self.entries:
            # written so that NaN fails every comparison
            if not (0 < e.cost < math.inf and 0 < e.out_error < 1 and 0 < e.p_in < 1):
                raise ValueError(f"invalid distillation entry {e}")
        ordered = tuple(sorted(self.entries, key=lambda e: e.out_error))
        object.__setattr__(self, "entries", ordered)

    @classmethod
    def from_dict(cls, data: dict) -> "DistillCostTable":
        ents = tuple(
            DistillEntry(
                p_in=float(e["p_in"]),
                out_error=float(e["out_error"]),
                cost=float(e["cost"]),
                protocol=str(e.get("protocol", "")),
            )
            for e in data["entries"]
        )
        return cls(provenance=str(data.get("provenance", "")), entries=ents)

    @classmethod
    def load(cls, path: str) -> "DistillCostTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def bundled(cls) -> "DistillCostTable":
        text = resources.files("ftrot.data").joinpath("distill_costs.json").read_text()
        return cls.from_dict(json.loads(text))

    def at_p_in(self, p_in: float) -> tuple[DistillEntry, ...]:
        hits = tuple(
            e for e in self.entries if math.isclose(e.p_in, p_in, rel_tol=1e-9)
        )
        if not hits:
            known = sorted({e.p_in for e in self.entries})
            raise LookupError(
                f"no distillation entries at p_in={p_in:g}; table covers {known}"
            )
        return hits


@dataclass(frozen=True)
class CostPoint:
    method: str
    logical_error: float
    cost_d3: float
    d: int | None = None
    theta: float | None = None
    k: int | None = None
    m: int | None = None
    error_kind: str = "incoherent"

    def __post_init__(self) -> None:
        if not (0 < self.logical_error < math.inf and 0 < self.cost_d3 < math.inf):
            raise ValueError("cost points need finite positive coordinates")


def rs_curve(
    theta_l: float,
    distill: DistillCostTable,
    include_clifford: bool = True,
    *,
    p_in: float,
) -> list[CostPoint]:
    """One synthesis cost point per distillation entry at this p_in:
    n_T T states of that entry, with theta_eps a decade below the
    target angle, plus the circuit's Clifford cost if included."""
    entries = distill.at_p_in(p_in)
    n_t = rs_t_count(theta_l / 10.0)
    clifford = 0.0
    if include_clifford:
        # table angles only (no key matches a non-dyadic angle);
        # elsewhere reuse the T count as the H count scale (one H per T
        # layer) plus one S
        label = f"2pi/2^{_dyadic_level(theta_l)}"
        clifford = rs_clifford_cost(counts=RS_GATE_COUNTS.get(label, (n_t, 1, n_t)))
    return [
        CostPoint(
            method="rs",
            logical_error=n_t * e.out_error,
            cost_d3=n_t * e.cost + clifford,
            error_kind="incoherent-t-only",
        )
        for e in entries
    ]


def coh_error_step(eps_t: float, eps_l1: float, eps_l: float) -> float:
    """Output infidelity of one parity-check rung."""
    for x in (eps_t, eps_l1, eps_l):
        if not 0.0 <= x < 1.0:
            raise ValueError("rates must lie in [0, 1)")
    return 8.0 * eps_t * eps_t + eps_l1 * eps_l1 + 0.25 * eps_l


def coh_ladder(target_level: int, eps_t: float, *, t_state_cost: float = 0.0) -> dict:
    """Climb the hierarchy from level 4 to target_level.

    Each rung checks a raw level-(l+1) candidate (error eps_t) against
    the level-l state, burning 8 T states per attempt.  The
    pivotal-rotation teleport succeeds with probability 1/2; a failure
    aborts the rung and restarts it on fresh ancillae, so every consumed
    input is billed per attempt and the expected attempt count is 2.
    The level-3 resource is the T state itself (error eps_t, cost
    t_state_cost).
    """
    if target_level < 4:
        raise ValueError("ladder starts at level 4")
    expected_attempts = 2.0
    err = eps_t
    cost = t_state_cost
    for level in range(4, target_level + 1):
        err = coh_error_step(eps_t, eps_t, err)
        cost = expected_attempts * (
            COH_COSTS["average"] + COH_COSTS["t_inject"] * t_state_cost + cost
        )
    return {"error": err, "cost": cost}


def coh_curve(theta_l: float, distill: DistillCostTable, *, p_in: float) -> list[CostPoint]:
    """One ladder climb per distillation entry; target level from the
    angle, which must be 2pi/2^level for an integer level >= 4."""
    level = _dyadic_level(theta_l)
    if level is None or level < 4:
        raise ValueError(
            "parity-check synthesis targets angles 2pi/2^level with level >= 4"
        )
    points = []
    for e in distill.at_p_in(p_in):
        res = coh_ladder(level, e.out_error, t_state_cost=e.cost)
        points.append(
            CostPoint(
                method="coh",
                logical_error=res["error"],
                cost_d3=res["cost"],
                error_kind="incoherent-t-only",
            )
        )
    return points


def pareto_front(points: Iterable[CostPoint]) -> list[CostPoint]:
    """Non-dominated subset, sorted by decreasing error (cost then
    nondecreasing)."""
    ordered = sorted(points, key=lambda p: (p.logical_error, p.cost_d3))
    front: list[CostPoint] = []
    best_cost = math.inf
    # scan from lowest error up; a point enters if it is cheaper than
    # everything with equal-or-lower error
    for p in ordered:
        if p.cost_d3 < best_cost:
            front.append(p)
            best_cost = p.cost_d3
    front.reverse()
    return front


def our_method_curve(
    theta_l: float, code_family: str, noise: NoiseModel, **grid
) -> list[CostPoint]:
    """Pareto front of the scaffold grid for this target angle; `grid`
    (d_values, k_max, m_max) goes to `iter_plans` unchanged.  A grid
    with no plan is an error, not an empty curve."""
    points = [
        CostPoint(
            method="ours",
            logical_error=plan.predicted_error,
            cost_d3=plan.expected_cost,
            d=plan.d,
            theta=plan.theta_base,
            k=plan.k,
            m=plan.m,
            error_kind="incoherent",
        )
        for plan in iter_plans(theta_l, code_family, noise, **grid)
    ]
    if not points:
        raise ValueError("empty grid: no representable plan")
    return pareto_front(points)


def _dyadic_level(theta: float) -> int | None:
    """The integer k with theta = 2pi/2^k (to 1e-9 in k), else None."""
    if theta <= 0:
        return None
    k_f = math.log2(math.tau / theta)
    k = round(k_f)
    return k if math.isclose(k_f, k, abs_tol=1e-9) else None


REPORT_COLUMNS = (
    "method",
    "logical_error",
    "cost_d3",
    "d",
    "theta",
    "k",
    "m",
    "error_kind",
)


def pareto_report(
    methods: Sequence[str],
    theta_l_target: float,
    noise: NoiseModel,
    *,
    code_family: str = "surface",
    distill: DistillCostTable | None = None,
    include_clifford: bool = True,
    **grid,
) -> list[dict]:
    """Merged per-method cost curves as flat rows, one dict per point.

    Methods are emitted in the order given; within a method, rows run
    from high error to low.  Baselines require a distillation table;
    refusing to default one keeps external inputs explicit.  A table
    without a baseline, or include_clifford=False without "rs", is
    refused too: no method would read it.  `grid` (d_values, k_max,
    m_max) goes to `iter_plans` for "ours".
    """
    known = {"ours", "rs", "coh"}
    unknown = [m for m in methods if m not in known]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(known)}")
    if not methods or len(set(methods)) != len(methods):
        raise ValueError(f"methods must be a non-empty list without repeats, got {list(methods)}")
    needs_table = [m for m in methods if m in ("rs", "coh")]
    if needs_table and distill is None:
        raise ValueError(
            f"methods {needs_table} need a distillation cost table "
            "(--distill-costs or DistillCostTable)"
        )
    if distill is not None and not needs_table:
        raise ValueError(f"methods {list(methods)} read no distillation table (--distill-costs)")
    if not include_clifford and "rs" not in methods:
        raise ValueError(f"methods {list(methods)} read no Clifford setting (--no-clifford)")

    rows: list[dict] = []
    for method in methods:
        if method == "ours":
            points = our_method_curve(theta_l_target, code_family, noise, **grid)
        elif method == "rs":
            points = rs_curve(
                theta_l_target, distill, include_clifford=include_clifford, p_in=noise.p_in
            )
        else:
            points = coh_curve(theta_l_target, distill, p_in=noise.p_in)
        points = sorted(points, key=lambda p: (-p.logical_error, p.cost_d3))
        rows.extend({c: getattr(p, c) for c in REPORT_COLUMNS} for p in points)
    return rows
