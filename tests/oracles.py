"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute-force and route-independent from
the package: dense state vectors and matrices, float linear algebra,
direct enumeration, and a scalar one-trial-at-a-time preparation
engine that the vectorized `mcsim` engine is checked against.  Kept
slow and obvious.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ftrot import analytics
from ftrot.analytics import NoiseModel, RotationConfig, _stable_pow
from ftrot.codes import StabilizerCode, syndrome
from ftrot.pauli import PauliString


def statevector_branch_angles(d: int, theta: float) -> list[float]:
    """Logical rotation angle of every branch weight class, by brute force.

    Applies exp(-i theta/2 Z) per qubit to the amplitude of each basis
    string of d qubits starting from the uniform superposition.  A
    branch is the pair {b, complement}; in the post-selected sector
    the logical basis states are the sum and difference of the pair
    members (frame-corrected with the minimum-weight pattern), so the
    branch amplitudes map to a qubit whose Bloch vector gives the
    rotation angle geometrically: equatorial classes rotate about the
    logical Z axis, the remaining (even d - 2w) classes tilt in the
    x-z plane.  The global frame is fixed by making the weight-0
    class positive, which pins the relative signs of all others.
    """
    amps = np.zeros(1 << d, dtype=complex)
    for idx in range(1 << d):
        w = bin(idx).count("1")
        # R_z|+> per qubit: cos(t/2)|+> - i sin(t/2)|->; the |b|
        # flipped qubits each carry -i sin(t/2)
        amps[idx] = (math.cos(theta / 2) ** (d - w)) * ((-1j * math.sin(theta / 2)) ** w)

    def raw_angle(weight: int) -> float:
        w_ref = min(weight, d - weight)  # minimum-weight frame correction
        b = (1 << w_ref) - 1
        bbar = ((1 << d) - 1) ^ b
        q = amps[bbar] / amps[b]
        a0, a1 = 1.0 + q, 1.0 - q  # sector-logical amplitudes, unnormalized
        norm = abs(a0) ** 2 + abs(a1) ** 2
        cross = a0.conjugate() * a1
        x = 2.0 * cross.real / norm
        y = 2.0 * cross.imag / norm
        z = (abs(a0) ** 2 - abs(a1) ** 2) / norm
        if min(abs(y), abs(z)) > 1e-9:
            raise AssertionError(f"branch state off both rotation planes: {(x, y, z)}")
        return math.atan2(y - z, x)

    raw = [raw_angle(w) for w in range(d + 1)]
    anchor = 1.0 if raw[0] >= 0 else -1.0
    return [anchor * phi for phi in raw]


_M_I = np.eye(2, dtype=complex)
_M_X = np.array([[0, 1], [1, 0]], dtype=complex)
_M_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_M_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_MATS = {"I": _M_I, "X": _M_X, "Y": _M_Y, "Z": _M_Z}


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label like '-iXZY' (kron in qubit order)."""
    phase = 1.0 + 0.0j
    body = label
    for prefix, value in (("-i", -1j), ("+i", 1j), ("-", -1.0), ("+", 1.0)):
        if label.startswith(prefix):
            phase = value
            body = label[len(prefix):]
            break
    out = np.array([[phase]], dtype=complex)
    for ch in body:
        out = np.kron(out, _MATS[ch])
    return out


def matrices_commute(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.allclose(a @ b, b @ a))


def walk_expected_steps_float(m: int) -> float:
    """Mean absorption time at the origin via a float linear solve."""
    size = 2 * m - 1
    a = np.zeros((size, size))
    for i in range(size):
        a[i, i] = 1.0
        if i > 0:
            a[i, i - 1] = -0.5
        if i + 1 < size:
            a[i, i + 1] = -0.5
    return float(np.linalg.solve(a, np.ones(size))[m - 1])


def walk_hit_pmf_by_paths(m: int, t_max: int) -> np.ndarray:
    """P(T = t), t = 1..t_max, for T the first time a fair +/-1 walk from
    0 hits +/-m, by counting all 2^t_max equally likely step strings."""
    paths = np.arange(1 << t_max)[:, None] >> np.arange(t_max) & 1
    hit = np.abs(np.cumsum(2 * paths - 1, axis=1)) >= m
    first = np.argmax(hit, axis=1)[hit.any(axis=1)]
    return np.bincount(first, minlength=t_max) / float(1 << t_max)


def walk_survival_spectral(m: int, t: np.ndarray) -> np.ndarray:
    """P(T > t) for the same walk, from the eigenvalues cos(pi j / 2m) of
    the interior chain (Feller vol. 1, ch. XIV.5):
    (1/m) sum over odd j < 2m of (-1)^((j-1)/2) cot(pi j / 4m) cos(pi j / 2m)^t."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for j in range(1, 2 * m, 2):
        sign = -1.0 if j % 4 == 3 else 1.0
        total += sign / math.tan(math.pi * j / (4 * m)) * math.cos(math.pi * j / (2 * m)) ** t
    return total / m


def gaussian_logical_angle_std(
    d: int, theta: float, sigma_theta: float, n_samples: int, seed: int
) -> float:
    """Sampling reference for the accepted-angle jitter.

    Per sample, each qubit angle gets an independent Gaussian offset
    and the exact product map gives the accepted logical angle.
    """
    rng = np.random.default_rng(seed)
    deltas = rng.normal(0.0, sigma_theta, size=(n_samples, d))
    prod = np.prod(np.tan((theta + deltas) / 2.0), axis=1)
    angles = 2.0 * np.arctan(prod)
    return float(np.std(angles, ddof=1))


def multi_rotation_incoherent(m: int, cfg: RotationConfig, d_prime: int) -> float:
    """Total incoherent error of m sequential rotations hitting the
    same target angle, each at physical angle theta / m^{1/d}.

    m * d' * (p/3) * sin^{2(d-1)}(theta/(2 m^{1/d})) * cos^2(...):
    splitting a rotation reduces the per-step angle slowly enough that
    the total scales as m^{-(1-2/d)} (the error-time trade-off).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    scaled = cfg.theta / (2.0 * _stable_pow(float(m), 1.0 / cfg.d))
    s = math.sin(scaled)
    c = math.cos(scaled)
    return (
        m
        * d_prime
        * (cfg.p_in / 3.0)
        * _stable_pow(s, 2 * (cfg.d - 1))
        * c
        * c
    )


def multi_rotation_coherent_std(m: int, d: int, sigma_frac: float) -> float:
    """Fractional coherent spread after m split rotations: sqrt(d/m) * sigma_frac."""
    if m < 1 or d < 1:
        raise ValueError("m and d must be >= 1")
    if sigma_frac < 0:
        raise ValueError("sigma_frac must be non-negative")
    return math.sqrt(d / m) * sigma_frac


def first_order_multiplicity(code) -> tuple[int, int]:
    """Count single-Pauli channels accepted via a weight-1 branch swap.

    A single error E on one qubit is accepted exactly when some branch
    pattern of weight one over the rotation support flips the same set
    of stabilizer readings E does; the sampled pattern then mislabels
    the output branch.  Returns (count, readout-channel count): the
    readout channels are the weight-1 patterns whose reading signature
    is a single stabilizer, which one persistent readout flip can fake.
    """
    support = sorted(code.z_support)
    flips = 0
    for q in range(code.n):
        for p in ("X", "Y", "Z"):
            label = "".join(p if i == q else "I" for i in range(code.n))
            err_x, err_z = _label_bits(label)
            for s in support:
                pat = 1 << s
                if all(
                    _anticommutes(g.x, g.z, err_x, err_z) == _parity(g.x & pat)
                    for g in code.stabilizers
                ):
                    flips += 1
                    break
    readout = sum(
        1
        for s in support
        if sum(_parity(g.x & (1 << s)) for g in code.stabilizers) == 1
    )
    return flips, readout


def _label_bits(label: str) -> tuple[int, int]:
    x = z = 0
    for i, ch in enumerate(label):
        if ch in "XY":
            x |= 1 << i
        if ch in "ZY":
            z |= 1 << i
    return x, z


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def _anticommutes(gx: int, gz: int, ex: int, ez: int) -> int:
    return (_parity(gx & ez) + _parity(gz & ex)) & 1


def logical_angle_reference(theta: float, d: int) -> float:
    """asin form of the accepted angle, evaluated independently."""
    s = math.sin(theta / 2.0) ** d
    c = math.cos(theta / 2.0) ** d
    return 2.0 * math.asin(s / math.hypot(s, c))


def rotation_terms_per_power(theta: float, d: int) -> tuple[float, float, float]:
    """p_s_coh, weight-1 pair weight and infid(1), with each power taken
    on its own as exp(e * log(base)) and the angles through tan(theta/2)
    again for each: the reference for the first three fields of
    `analytics.model_terms`, the model's one evaluation, which shares
    one log per base and must match it bit for bit."""

    def power(base: float, e: int) -> float:
        if base == 0.0:
            return 0.0 if e > 0 else 1.0
        return math.exp(e * math.log(base)) if e else 1.0

    s = math.sin(theta / 2.0)
    c = math.cos(theta / 2.0)
    pair = s * s * power(c, 2 * (d - 1)) + power(s, 2 * (d - 1)) * c * c
    p_s_coh = power(c, 2 * d) + power(s, 2 * d)
    m = min(1, d - 1)
    sign = -1.0 if m % 2 else 1.0
    if theta == math.pi:
        theta_l, phi = math.pi, sign * math.pi
    else:
        theta_l = 2.0 * math.atan(power(math.tan(theta / 2.0), d))
        phi = 2.0 * math.atan(sign * power(math.tan(theta / 2.0), d - 2 * m))
    return p_s_coh, pair, math.sin((theta_l - phi) / 2.0) ** 2


def logical_angle_small(theta: float, d: int) -> float:
    """Small-angle form 2*(theta/2)**d of the accepted logical angle."""
    return 2.0 * (theta / 2.0) ** d


def filter_coefficients(theta: float, d: int, sign: int = 1) -> tuple[float, float]:
    """Amplitude pair of the even-distance weak filter.

    For even d the projected transversal rotation is not a rotation but
    a filter: c0 = cos^d(theta/2) - sin^d(theta/2) on |0_L> and
    c1 = cos^d + sin^d on |1_L>, damping |0_L> relative to |1_L>.
    `sign` = -1 encodes the opposite (-1)^{d/2} convention and swaps
    the roles.  `codes.require_rotation` refuses such codes; this form
    pins why.
    """
    if d < 2 or d % 2:
        raise ValueError("filter_coefficients requires even d >= 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c = math.cos(theta / 2.0) ** d
    s = math.sin(theta / 2.0) ** d
    c0, c1 = c - s, c + s
    if sign == -1:
        c0, c1 = c1, c0
    return (c0, c1)


def compact_error_first_order(cfg, mult) -> float:
    """The compact published first-order error, readout masking included.

    (m1 (p_in/3) + combos q^r) sin^{2(d-1)}(theta/2) / cos(theta/2) with
    m1 = mult.first_order, combos = mult.readout_combos and q the
    readout flip: the small-angle form that
    `analytics.accepted_error_model` refines with the exact branch-pair
    factors and the (1-p_in)^{-1} conditioning of the flip path.
    """
    s = math.sin(cfg.theta / 2.0)
    c = math.cos(cfg.theta / 2.0)
    rate = mult.first_order * cfg.p_in / 3.0 + mult.readout_combos * cfg.readout_flip ** cfg.r
    return rate * s ** (2 * (cfg.d - 1)) / c


@dataclass(frozen=True)
class TrialOutcome:
    accepted: bool
    branch_weight: int
    infidelity_sample: float | None


def sample_branch(d: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Branch string b: each bit independently 1 w.p. sin^2(theta/2)."""
    s2 = math.sin(theta / 2.0) ** 2
    return (rng.random(d) < s2).astype(np.uint8)


def sample_depolarizing(n: int, p_in: float, rng: np.random.Generator) -> PauliString:
    """One depolarizing draw on n qubits: I w.p. 1-p, else X/Y/Z w.p. p/3.

    A single uniform per qubit selects the slice: [0, p/3) -> X,
    [p/3, 2p/3) -> Y, [2p/3, p) -> Z.  The vectorized engine uses the
    identical mapping.
    """
    v = rng.random(n)
    x = z = 0
    for q in range(n):
        if v[q] < 2.0 * p_in / 3.0:
            x |= 1 << q
        if p_in / 3.0 <= v[q] < p_in:
            z |= 1 << q
    return PauliString(n, x, z)


def run_prep_trial(
    code: StabilizerCode,
    theta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
    inject_z: int | None = None,
) -> TrialOutcome:
    """One preparation trial, written for readability over speed.

    `inject_z` deterministically adds a Z error on the given qubit in
    the first cycle (used to isolate single error paths).  The branch
    weight class is taken from the sampled b: on acceptance the
    surviving pair is {b, bbar}, and the residual frame is a Pauli
    layer this model does not track.  Meaningful for the codes
    `mcsim.estimate` accepts.
    """
    d = code.d
    b = sample_branch(d, theta, rng)
    bz = 0
    for i, q in enumerate(code.z_support):
        bz |= int(b[i]) << q

    frame = PauliString.identity(code.n)
    accepted = True
    for cycle in range(noise.r):
        err = sample_depolarizing(code.n, noise.p_in, rng)
        frame = frame * err
        if cycle == 0 and inject_z is not None:
            frame = frame * PauliString.single_z(code.n, inject_z)
        true_bits = syndrome(PauliString(code.n, frame.x, frame.z ^ bz), code)
        flips = rng.random(len(true_bits)) < noise.readout_flip
        if any(bit ^ int(f) for bit, f in zip(true_bits, flips)):
            accepted = False
            break

    w = int(b.sum())
    m = min(w, d - w)
    infid = analytics.branch_infidelity(m, d, theta) if accepted else None
    return TrialOutcome(accepted=accepted, branch_weight=m, infidelity_sample=infid)


def branch_syndromes(code: StabilizerCode) -> dict[tuple[int, ...], list[int]]:
    """Syndrome of Z^b for every branch string b over the support, by
    brute force over all 2^d strings: syndrome -> weights of its strings."""
    out: dict[tuple[int, ...], list[int]] = {}
    support = code.z_support
    for b in range(1 << len(support)):
        z = 0
        for i, q in enumerate(support):
            if b >> i & 1:
                z |= 1 << q
        out.setdefault(syndrome(PauliString(code.n, 0, z), code), []).append(bin(b).count("1"))
    return out


def fault_set_counts(code: StabilizerCode, r: int) -> list[list[int]]:
    """Accepted fault sets of at most two locations over r cycles, walked
    one set at a time: counts[m][kind] for class m = 0..d//2, kind
    0..4 = (data), (flip), (data, data), (data, flip), (flip, flip).

    A location is a data fault (qubit, cycle, X/Y/Z) or a readout flip
    (check, cycle); two data faults on one qubit in one cycle are not a
    set.  Per cycle the Pauli frame takes that cycle's faults, the
    syndrome comes from `codes.syndrome`, and the cycle's flips are
    XORed in.  A set counts when every cycle reads the same syndrome and
    some branch string has it; it adds its branch pairs per class.
    """
    n_chk = len(code.stabilizers)
    branches = branch_syndromes(code)
    locations = [("data", q, t, p) for t in range(r) for q in range(code.n) for p in "XYZ"]
    locations += [("flip", i, t, None) for t in range(r) for i in range(n_chk)]
    counts = [[0] * 5 for _ in range(code.d // 2 + 1)]

    def tally(fault_set) -> None:
        data = [loc for loc in fault_set if loc[0] == "data"]
        if len({(q, t) for _, q, t, _ in data}) < len(data):
            return
        frame = PauliString.identity(code.n)
        readings = set()
        for t in range(r):
            for _, q, tq, p in data:
                if tq == t:
                    label = "".join(p if i == q else "I" for i in range(code.n))
                    frame = frame * PauliString.from_label(label)
            bits = list(syndrome(frame, code))
            for kind, i, tf, _ in fault_set:
                if kind == "flip" and tf == t:
                    bits[i] ^= 1
            readings.add(tuple(bits))
        if len(readings) != 1:
            return
        weights = branches.get(readings.pop(), [])
        n_flip = len(fault_set) - len(data)
        kind = {(1, 0): 0, (0, 1): 1, (2, 0): 2, (1, 1): 3, (0, 2): 4}[(len(data), n_flip)]
        for w in weights:
            m = min(w, code.d - w)
            if w == m:  # one string of each pair {b, bbar}
                counts[m][kind] += 1

    for a, first in enumerate(locations):
        tally([first])
        for second in locations[a + 1:]:
            tally([first, second])
    return counts


def exact_class_probabilities(
    code: StabilizerCode, theta: float, noise: NoiseModel, inject_z: int | None = None
) -> np.ndarray:
    """P(accepted in class m) of one trial, m = 0..d//2, for r <= 2, with
    no sampling: the exact distribution of (s_1, s_1 ^ s_2), the first
    cycle's reading and its change in the second, built one fault
    location at a time.

    A data fault in cycle 1 (or the injected Z) enters s_1 and persists,
    so only a cycle-2 fault changes the reading; a flip enters its own
    cycle's reading alone.  A trial is accepted when the change is 0 and
    s_1 is some branch string's syndrome; it then lands in each class
    with that syndrome's branch weight.  The state has 2^(r x checks)
    entries, so this suits codes with few checks.
    """
    if noise.r > 2:
        raise ValueError("exact_class_probabilities walks r <= 2 cycles")
    n_chk = len(code.stabilizers)

    def mask(pauli: PauliString) -> int:
        return sum(bit << i for i, bit in enumerate(syndrome(pauli, code)))

    def single(q: int, p: str) -> PauliString:
        return PauliString.from_label("".join(p if i == q else "I" for i in range(code.n)))

    dist = np.zeros(1 << noise.r * n_chk)
    dist[0 if inject_z is None else mask(PauliString.single_z(code.n, inject_z))] = 1.0
    index = np.arange(dist.size)
    p, f = noise.p_in, noise.readout_flip
    for cycle in range(noise.r):
        for q in range(code.n):
            moved = sum(dist[index ^ mask(single(q, label)) << cycle * n_chk] for label in "XYZ")
            dist = (1.0 - p) * dist + p / 3.0 * moved
        for i in range(n_chk):
            # the reading of this cycle and, from the first, the change
            flip = 1 << i + cycle * n_chk | (1 << i + n_chk if noise.r == 2 else 0)
            dist = (1.0 - f) * dist + f * dist[index ^ flip]

    s2 = math.sin(theta / 2.0) ** 2
    out = np.zeros(code.d // 2 + 1)
    for bits, weights in branch_syndromes(code).items():
        reading = sum(bit << i for i, bit in enumerate(bits))
        for w in weights:
            out[min(w, code.d - w)] += dist[reading] * s2**w * (1.0 - s2) ** (code.d - w)
    return out
