"""Closed-form model of post-selected transversal-rotation preparation.

A physical rotation exp(i(theta/2)Z) applied to every qubit in the
support of a weight-d logical Z splits the encoded state into branch
pairs labelled by bit-strings b, with amplitudes

    u_b = cos^{d-|b|}(theta/2) * (i sin(theta/2))^{|b|}.

Error detection keeps only the pair {b, bbar}; the surviving state is a
logical Z rotation whose angle depends only on the weight class
m = min(|b|, d-|b|).  This module collects the resulting closed forms:
the accepted logical angle, the per-branch angles, the one
accepted-error model (through third order: every accepted set of at
most three data faults and readout flips, plus r-fold readout masking
from r = 4 on, over the accepted share), success rates over the same
fault sets and coherent-noise spread.  Every code that
`codes.require_rotation` accepts goes through the same forms; a code
enters only through its support weight and the check masks derived
from its checks (`codes.Multiplicities`).

The model is one rate vector and one function: `class_rates(noise,
mult)` gives the accepted fault-set rate of each weight class, class 0
first, once per (code, noise), from the Monte Carlo engine's own
weighted table (`codes.fault_set_rates`); `model_terms(theta, d,
rates)` is the one evaluation per angle, of the error and the accepted
share alike.  Together they are the engine's exact law of the trials
with at most three faults.  `accepted_error_model`, `success_rate`,
``analyze`` and the planner's base states read it.

Conventions (fixed package-wide): angles in radians; the rotation is
cos + i*sin*Z per qubit; branch angles are reported in the frame where
the codespace branch (m = 0) rotates by +logical_angle for theta in
(0, pi).  Powers like sin^{2(d-1)} are evaluated in the log domain when
they would otherwise underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .codes import Multiplicities, code_of_size, event_odds, fault_set_rates

__all__ = [
    "NoiseModel",
    "RotationConfig",
    "SuccessRate",
    "logical_angle",
    "branch_angle",
    "branch_infidelity",
    "accepted_error_model",
    "class_rates",
    "model_terms",
    "success_rate",
    "substrate_success",
    "coherent_angle_std",
]


class _DefaultReadoutFlip(float):
    """A readout_flip worked out from p_in rather than set by a caller."""


@dataclass(frozen=True)
class NoiseModel:
    """Phenomenological noise: depolarizing p_in per data qubit per
    cycle, plus an independent outcome flip per stabilizer per cycle
    (default 2p_in/3, which folds ancilla Z/Y errors into the readout).

    The one noise description shared by the closed forms and the
    Monte-Carlo engine, so both always see the same readout_flip.  The
    default stays tied to p_in: ``dataclasses.replace(noise, p_in=...)``
    works it out again, while a readout_flip set by the caller is kept.
    """

    p_in: float
    r: int = 1
    readout_flip: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_in < 1.0:
            raise ValueError(f"p_in must be in [0, 1), got {self.p_in}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.readout_flip is None or type(self.readout_flip) is _DefaultReadoutFlip:
            object.__setattr__(
                self, "readout_flip", _DefaultReadoutFlip(2.0 * self.p_in / 3.0)
            )
        if not 0.0 <= self.readout_flip < 1.0:
            raise ValueError("readout_flip must be in [0, 1)")


@dataclass(frozen=True, kw_only=True)
class RotationConfig(NoiseModel):
    """Parameters of one preparation attempt: a NoiseModel plus

    theta: physical rotation angle, radians, in [0, pi].
    d: support weight of the logical Z (code distance for the
       odd-distance families).

    Build one for a noise object `noise` with
    RotationConfig(theta=..., d=..., **vars(noise)).
    """

    theta: float
    d: int
    p_in: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


class SuccessRate(NamedTuple):
    p_s: float
    p_s_in: float
    p_s_coh: float


def _log(x: float) -> float:
    """math.log, with log 0 = -inf (a zero sine or tangent at theta = 0)."""
    return math.log(x) if x else -math.inf


def _pow_log(log_base: float, exponent: float) -> float:
    """base**exponent for exponent >= 0 as exp(exponent * log(base)),
    given log(base); exactly 1.0 at exponent 0, also for base 0.

    math.pow underflows to 0.0 the same way, so the two routes agree
    wherever direct evaluation is representable; the log route is kept
    as the single code path for the large-exponent formulas, and taking
    the log once lets one angle share it across several powers.
    """
    return math.exp(exponent * log_base) if exponent else 1.0


def _stable_pow(base: float, exponent: float) -> float:
    """base**exponent (exponent >= 0) via `_pow_log`."""
    return _pow_log(_log(base), exponent)


def _branch_angle(log_t: float, d: int, m: int) -> float:
    """branch_angle of weight class m for theta < pi, given log tan(theta/2).

    Near pi, tan^{d-2m} can pass the float range (d >= 27 within 1e-12
    of pi); the angle is then 2*atan(+/-inf) = +/-pi, as at pi itself.
    """
    sign = -1.0 if m % 2 else 1.0
    try:
        t = _pow_log(log_t, d - 2 * m)
    except OverflowError:
        t = math.inf
    return 2.0 * math.atan(sign * t)


def model_terms(theta: float, d: int, rates: tuple[float, ...]) -> tuple[float, ...]:
    """The one evaluation of the model at angle theta and support
    weight d, given the class rates of a code and noise (`class_rates`,
    class 0 first): the plain tuple (p_s_coh, pair, infid, error,
    accepted).

    p_s_coh = cos^{2d} + sin^{2d}, the weight-1 branch-pair weight
    pair = sin^2 cos^{2(d-1)} + sin^{2(d-1)} cos^2 (half-angles
    implied) and infid = branch_infidelity(1, d, theta) take log cos,
    log sin and log tan once and every power by `_pow_log`, so they
    have the bits of the per-power `_stable_pow` route.  The error sums
    the class-1 product rates[1] * pair * infid and, for each class
    m >= 2 of nonzero rate, rate times its pair weight s^{2m} c^{2(d-m)}
    + s^{2(d-m)} c^{2m} times infid(m).  That product is (s c)^{2(d-m)}
    (s^{2m} - (-1)^m c^{2m})^2 / p_s_coh (half-angles implied): no
    tangent, so nothing overflows near pi, and no difference of two
    angles near pi cancels.

    The sum is divided once by the accepted share p_s / p_s_in, the
    weight of every accepted trial, faulty ones included: p_s_coh plus
    each class's rate times its pair weight, class 0's being p_s_coh;
    with every rate 0 it is p_s_coh, bit for bit.
    """
    half = theta / 2.0
    s = math.sin(half)
    c = math.cos(half)
    log_s, log_c = _log(s), _log(c)
    pair = s * s * _pow_log(log_c, 2 * (d - 1)) + _pow_log(log_s, 2 * (d - 1)) * c * c
    p_s_coh = _pow_log(log_c, 2 * d) + _pow_log(log_s, 2 * d)
    if theta == math.pi:
        infid = branch_infidelity(1, d, theta)
    else:
        log_t = _log(math.tan(half))
        phi = _branch_angle(log_t, d, min(1, d - 1))
        infid = math.sin((_branch_angle(log_t, d, 0) - phi) / 2.0) ** 2
    error = rates[1] * pair * infid
    accepted = p_s_coh + (rates[0] * p_s_coh + rates[1] * pair)
    if len(rates) > 2:
        s2, c2, sc2 = s * s, c * c, (s * c) ** 2
        s2m, c2m = s2, c2
        for m in range(2, len(rates)):
            s2m *= s2
            c2m *= c2
            if rates[m]:
                cross = s2m - c2m if m % 2 == 0 else s2m + c2m
                error += rates[m] * (sc2 ** (d - m) * cross * cross / p_s_coh)
                accepted += rates[m] * (s2m * c2 ** (d - m) + s2 ** (d - m) * c2m)
    return p_s_coh, pair, infid, error / accepted, accepted


def logical_angle(theta: float, d: int) -> float:
    """Accepted logical rotation angle for support weight d.

    Equals 2*asin(sin^d / sqrt(cos^{2d} + sin^{2d})) (half-angles
    implied), or equivalently 2*atan(tan^d(theta/2)), which is the
    numerically stable form used here.  Monotone nondecreasing on
    [0, pi] with fixed points 0, pi/2 (d odd), and pi: the angle of
    the codespace branch pair, `branch_angle(0, d, theta)`.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return branch_angle(0, d, theta)


def branch_angle(b_weight: int, d: int, theta: float) -> float:
    """Logical rotation angle of the branch pair with weight class m.

    The two branch amplitudes u_b, u_bbar give a rotation by
    2*atan((-1)^m * tan^{d-2m}(theta/2)) with m = min(w, d-w), in the
    frame anchored so branch_angle(0, d, theta) = +logical_angle.
    Weight classes w and d-w describe the same branch pair.
    """
    if not 0 <= b_weight <= d:
        raise ValueError(f"b_weight must be in [0, {d}], got {b_weight}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must be in [0, pi], got {theta}")
    m = min(b_weight, d - b_weight)
    if theta == math.pi:
        return (-1.0 if m % 2 else 1.0) * math.pi
    return _branch_angle(_log(math.tan(theta / 2.0)), d, m)


def branch_infidelity(b_weight: int, d: int, theta: float,
                      theta_l_target: float | None = None) -> float:
    """sin^2((theta_L_target - branch_angle)/2) for one weight class.

    The default target is the accepted angle of the same (theta, d), so
    the codespace class m=0 has infidelity exactly 0.
    """
    if theta_l_target is None:
        theta_l_target = logical_angle(theta, d)
    phi = branch_angle(b_weight, d, theta)
    return math.sin((theta_l_target - phi) / 2.0) ** 2


def accepted_error_model(cfg: RotationConfig, mult: Multiplicities) -> float:
    """Prediction of the Monte-Carlo mean infidelity through third order.

    A fault set (data faults and readout flips over r cycles) that
    leaves the same syndrome in every cycle, equal to the syndrome of
    some branch strings, is accepted with those strings; the accepted
    state is then off by branch_angle(m) of their class m: the set's
    signatures (`codes.slot_events`) XOR to 0.  The model sums every
    such set of at most three locations and, from r = 4 on, the r-fold
    readout masking path, each weighted by its rate (`class_rates`), the
    probability of its branch pairs and their class infidelity, and
    divides by the accepted share, in which `success_rate` counts the
    same sets.  Sets of four or more locations are left out, the r-fold
    masking set alone excepted.
    """
    return model_terms(cfg.theta, cfg.d, class_rates(cfg, mult))[3]


def class_rates(noise: NoiseModel, mult: Multiplicities) -> tuple[float, ...]:
    """Rate of the accepted fault sets per weight class m = 0..d//2,
    class 0 first: P(a set's events and no other, accepted in class m)
    over P0 (no event at all) and the class-m pair weight, summed over
    the sets.

    Class 0's sets are accepted with the branch pair {0, 1^d}: they add
    to the acceptance but not to the error (on the phase-flip code every
    X fault is one).  The sets of one to three events are
    `codes.fault_set_rates`, the table and weighting that the Monte Carlo
    engine reads: a = (p_in/3)/(1-p_in) per data fault and g = f/(1-f)
    per flip at readout_flip f.  They hold the first-order paths (the
    flip paths in class 1 and, for r <= 3, the masking flips: one at
    r = 1, a pair at r = 2, three at r = 3).  For r >= 4 the r-fold
    masking set has more than three events and is added alone: g^r in
    class 1 for each support position whose branch column is a single
    check, as one flip per cycle on that check hides it.
    """
    rates = fault_set_rates(mult, noise.r, 0, noise.p_in, noise.readout_flip).tolist()
    if noise.r >= 4:
        g = event_odds(noise.p_in, noise.readout_flip)[1]
        single = sum(column.bit_count() == 1 for column in mult.branch_columns)
        rates[1] += single * _stable_pow(g, noise.r)
    return tuple(rates)


def success_rate(cfg: RotationConfig, n_qubits: int, n_stabilizers: int) -> SuccessRate:
    """Acceptance probability, with its substrate and coherent parts.

    p_s_in from `substrate_success` is the chance of no fault at all;
    p_s_coh = cos^{2d} + sin^{2d} is the trivial branch pair's weight.
    p_s = p_s_in (p_s_coh + M), where the accepted-fault mass M sums the
    fault sets of `accepted_error_model`, class 0 included, each at its
    rate times the weight of its branch pairs (`model_terms`), read
    from the check masks of the registered code of this size
    (`codes.code_of_size`); with no such code M = 0.
    """
    p_s_in = substrate_success(cfg, n_qubits, n_stabilizers)
    code = code_of_size(n_qubits, n_stabilizers, cfg.d)
    rates = class_rates(cfg, code.error_multiplicities) if code else (0.0, 0.0)
    p_s_coh, _, _, _, accepted = model_terms(cfg.theta, cfg.d, rates)
    return SuccessRate(p_s=p_s_in * accepted, p_s_in=p_s_in, p_s_coh=p_s_coh)


def substrate_success(noise: NoiseModel, n_qubits: int, n_stabilizers: int) -> float:
    """p_s_in = (1-p_in)^{r n} (1-readout_flip)^{r n_stab}: no substrate
    error on any qubit and no readout flip on any check over r cycles."""
    if n_qubits < 1 or n_stabilizers < 0:
        raise ValueError("invalid qubit/stabilizer counts")
    return (
        _stable_pow(1.0 - noise.p_in, noise.r * n_qubits)
        * _stable_pow(1.0 - noise.readout_flip, noise.r * n_stabilizers)
    )


def coherent_angle_std(d: int, theta_l0: float, sigma_frac: float) -> float:
    """Standard deviation of the logical angle under coherent noise.

    sqrt(d) * theta_L0 * sigma_frac with sigma_frac = sigma_theta /
    theta: d independent per-qubit angle errors add in quadrature, each
    entering the logical angle at first order through its fractional
    size.  Valid in the small-angle regime (theta_L0 << 1).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if theta_l0 < 0 or sigma_frac < 0:
        raise ValueError("inputs must be non-negative")
    return math.sqrt(d) * theta_l0 * sigma_frac
