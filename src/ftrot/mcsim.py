"""Monte-Carlo simulation of noisy post-selected state preparation.

The protocol under test: rotate every support qubit of the logical Z,
then run r cycles of stabilizer readout and discard the state when any
observed bit is nonzero.  Because the rotation only ever creates
Z-type branch operators on the support, a trial is fully described by

  * the sampled branch string b (each bit 1 w.p. sin^2(theta/2)),
  * a persistent Pauli error frame accumulating depolarizing noise,
  * per-cycle readout flips on each stabilizer outcome.

A trial is accepted when, in every cycle, the syndrome of
frame * Z^b with readout flips applied is all-zero.  Accepted trials
land in the branch weight class m = min(|b|, d-|b|), whose infidelity
against the target angle is a closed form; the estimator averages it.

Noise is sparse at the rates of interest, so a batch draws only the
faults that occur: data-qubit hits and readout flips are exact
Bernoulli samples over flat index spaces, and only the trials they
touch are evaluated cycle by cycle.  A trial that nothing touches is
judged from its branch string alone.

Determinism: `_philox_batches` is the one place the contract is
implemented, for `estimate`, `coherent_mc` and `schemes.simulate_walk`.
Work is partitioned into fixed-size batches, batch i drawing from a
counter-based Philox stream keyed by (seed, i), seed in [0, 2^64).
All reductions are integer counts, so results are bit-identical for a
given (seed, n_trials, batch_size, stream) regardless of thread count.
`estimate` records the stream version as `params["stream"]`.  Stream 2
draws, per batch:

  1. the branch uniforms, shape (trials, d);
  2. for each cycle in turn, the data-hit count, the hit positions over
     the flat (trial, qubit) index, and one X/Y/Z kind per hit;
  3. for each cycle in turn, the readout-flip count and the flip
     positions over the flat (trial, check) index.

The noise description, `NoiseModel`, lives in `analytics` and is
re-exported here.  A scalar one-trial-at-a-time reference engine lives
in the test suite (`tests/oracles.py`).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import analytics
from .analytics import NoiseModel
from .codes import StabilizerCode, require_rotation

DEFAULT_BATCH_SIZE = 1 << 16

__all__ = [
    "NoiseModel",
    "McStats",
    "CoherentStats",
    "RareEventWarning",
    "estimate",
    "coherent_mc",
]


class RareEventWarning(UserWarning):
    """Fewer than 10 accepted weight-1 trials are expected at the requested N,
    too few to resolve the predicted error rate."""


@dataclass(frozen=True)
class McStats:
    trials: int
    accepted: int
    acceptance_rate: float
    acceptance_stderr: float
    mean_infidelity: float | None
    infidelity_stderr: float | None
    branch_histogram: tuple[int, ...]
    seed: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CoherentStats:
    mean_theta_l: float
    std_theta_l: float
    n_samples: int
    seed: int


def _worker_count(threads: int, n_batches: int) -> int:
    """Threads to start: never more than the batches or the cpus."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return min(threads, n_batches, os.cpu_count() or 1)


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not a Philox key word, [0, 2^64)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def _philox_batches(
    seed: int,
    n: int,
    batch_size: int,
    fn: Callable[[np.random.Generator, int], object],
    threads: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list:
    """fn(rng, size) over the batch partition of n items, in batch order.

    Batch i holds batch_size items (the last one the remainder) and
    draws from Philox key (seed, i); the partition depends only on
    (n, batch_size), so the results do not depend on `threads`.
    `progress(i + 1, n_batches)` is called once per finished batch.
    """
    _check_seed(seed)
    n_batches = (n + batch_size - 1) // batch_size
    workers = _worker_count(threads, n_batches)

    def run(i: int):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        out = fn(rng, min(batch_size, n - i * batch_size))
        if progress is not None:
            progress(i + 1, n_batches)
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(n_batches)))
    return [run(i) for i in range(n_batches)]


def _stabilizer_plan(code: StabilizerCode) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per generator: (frame rows, branch columns).

    A frame holds a Pauli's Z part in rows 0..n-1 and its X part in
    rows n..2n-1, so a generator's reading is the XOR over its X
    support followed by n + its Z support: the symplectic product
    (Aaronson & Gottesman, PRA 70, 052328 (2004); Gidney, Quantum 5,
    497 (2021)).  Its branch columns are the positions of the rotation
    support inside its X support, where a branch Z anticommutes with it.
    """
    require_rotation(code)
    n = code.n
    support_pos = {q: i for i, q in enumerate(code.z_support)}
    plan = []
    for p in code.stabilizers:
        xs = [q for q in p.support if p.x >> q & 1]
        zs = [n + q for q in p.support if p.z >> q & 1]
        bcols = [support_pos[q] for q in xs if q in support_pos]
        plan.append((np.array(xs + zs, dtype=np.intp), np.array(bcols, dtype=np.intp)))
    return plan


def _sparse_hits(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Hit positions of an i.i.d. Bernoulli(p) mask over range(total).

    Exact: the hit count is Binomial(total, p), and given the count the
    hits are a uniform subset of that size.  Draws the count, then the
    positions; at low p the cost scales with the hits, not with total.
    """
    return rng.choice(total, rng.binomial(total, p), replace=False)


def _data_hits(
    rng: np.random.Generator, total: int, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depolarizing faults over range(total): (positions, x bits, z bits).

    Each hit is X, Y or Z with probability 1/3, from one uniform integer
    per hit drawn after the positions.
    """
    pos = _sparse_hits(rng, total, p)
    kind = rng.integers(0, 3, size=pos.size)  # 0 X, 1 Y, 2 Z
    return pos, kind != 2, kind != 0


def _run_batch(
    code: StabilizerCode,
    plan: list[tuple[np.ndarray, np.ndarray]],
    theta: float,
    noise: NoiseModel,
    inject_z: int | None,
    rng: np.random.Generator,
    size: int,
) -> tuple[int, np.ndarray]:
    """Simulate one batch; returns (accepted count, branch histogram).

    Draw order per batch (stream 2) is part of the determinism contract:
      1. branch uniforms, shape (size, d);
      2. for each cycle, data faults over the flat (trial, qubit)
         index: the hit count, the positions, then one X/Y/Z kind per
         hit;
      3. for each cycle, readout flips over the flat (trial, check)
         index: the flip count, then the positions.
    A trial with no fault and no flip sees the syndrome of Z^b (times
    the injected Z) in every cycle, so it is judged from b alone.  Only
    the touched trials get a frame, which accumulates their hits cycle
    by cycle.
    """
    n, n_chk, d = code.n, len(plan), code.d
    s2 = math.sin(theta / 2.0) ** 2

    # branch bits as (support qubit, trial) rows
    b = (rng.random((size, d)) < s2).T.copy()
    hits = [_data_hits(rng, size * n, noise.p_in) for _ in range(noise.r)]
    flips = [_sparse_hits(rng, size * n_chk, noise.readout_flip) for _ in range(noise.r)]

    ok = np.ones(size, dtype=bool)
    for rows, bcols in plan:
        injected = inject_z is not None and inject_z in rows
        if bcols.size or injected:
            ok &= np.bitwise_xor.reduce(b[bcols], axis=0) == injected

    is_touched = np.zeros(size, dtype=bool)
    for (pos, _, _), flip in zip(hits, flips):
        is_touched[pos // n] = True
        is_touched[flip // n_chk] = True
    touched = np.flatnonzero(is_touched)
    local = np.empty(size, dtype=np.intp)
    local[touched] = np.arange(touched.size)
    # the frame is (Z rows then X rows, touched trial), so a check's
    # parity reduces over whole rows; it carries over cycles, so memory
    # does not grow with r
    frame = np.zeros((2 * n, touched.size), dtype=bool)
    frame[list(code.z_support)] = b[:, touched]
    if inject_z is not None:
        frame[inject_z] ^= True
    ok_touched = np.ones(touched.size, dtype=bool)
    for (pos, hx, hz), flip in zip(hits, flips):
        trial, qubit = np.divmod(pos, n)
        frame[qubit, local[trial]] ^= hz
        frame[n + qubit, local[trial]] ^= hx
        trial, check = np.divmod(flip, n_chk)
        ro = np.zeros((n_chk, touched.size), dtype=bool)
        ro[check, local[trial]] = True
        for i, (rows, _) in enumerate(plan):
            ok_touched &= np.bitwise_xor.reduce(frame[rows], axis=0) == ro[i]
    ok[touched] = ok_touched

    w = b.sum(axis=0, dtype=np.int32)
    m = np.minimum(w, d - w)
    hist = np.array([np.count_nonzero(ok & (m == c)) for c in range(d // 2 + 1)])
    return int(hist.sum()), hist


def estimate(
    code: StabilizerCode,
    theta: float,
    theta_l_target: float | None,
    noise: NoiseModel,
    n_trials: int,
    seed: int,
    *,
    threads: int = 1,
    batch_size: int = DEFAULT_BATCH_SIZE,
    inject_z: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> McStats:
    """Estimate acceptance and mean accepted infidelity over n_trials.

    The batch partition depends only on (n_trials, batch_size), and
    batch i draws from Philox key (seed, i), so the result is
    bit-identical across thread counts.  theta_l_target defaults to
    the accepted angle of (theta, d), making the m=0 class exact-zero.
    """
    plan = _stabilizer_plan(code)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_seed(seed)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if inject_z is not None and not 0 <= inject_z < code.n:
        raise ValueError("inject_z out of range")

    d = code.d
    if theta_l_target is None:
        theta_l_target = analytics.logical_angle(theta, d)
    values = np.array(
        [
            analytics.branch_infidelity(m, d, theta, theta_l_target)
            for m in range(d // 2 + 1)
        ]
    )

    infid1 = analytics.branch_infidelity(1, d, theta)
    if inject_z is None and noise.p_in > 0 and infid1 > 0:
        cfg = analytics.RotationConfig(theta=theta, d=d, **vars(noise))
        predicted = analytics.accepted_error_model(cfg, code.error_multiplicities)
        p_s = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
        # the model is (weight-1 share of accepted trials) * infid(1)
        expected_events = predicted / infid1 * p_s * n_trials
        if expected_events < 10.0:
            warnings.warn(
                RareEventWarning(
                    f"expected about {expected_events:.2f} accepted weight-1 trials "
                    f"at N={n_trials} (analytic rate {predicted:.3g}); "
                    "the infidelity estimate will be noise-dominated"
                ),
                stacklevel=2,
            )

    results = _philox_batches(
        seed,
        n_trials,
        batch_size,
        lambda rng, size: _run_batch(code, plan, theta, noise, inject_z, rng, size),
        threads,
        progress,
    )
    accepted = sum(r[0] for r in results)
    hist = np.sum([r[1] for r in results], axis=0, dtype=np.int64)

    rate = accepted / n_trials
    rate_err = math.sqrt(rate * (1.0 - rate) / n_trials)
    if accepted > 0:
        mean_inf = float(hist @ values) / accepted
        var = float(hist @ (values - mean_inf) ** 2) / accepted
        inf_err = math.sqrt(var / accepted)
    else:
        mean_inf = None
        inf_err = None

    params = {
        "code": code.name,
        "d": d,
        "n": code.n,
        "theta": theta,
        "theta_l_target": theta_l_target,
        "p_in": noise.p_in,
        "readout_flip": noise.readout_flip,
        "r": noise.r,
        "batch_size": batch_size,
        "stream": 2,
        "inject_z": inject_z,
    }
    return McStats(
        trials=n_trials,
        accepted=accepted,
        acceptance_rate=rate,
        acceptance_stderr=rate_err,
        mean_infidelity=mean_inf,
        infidelity_stderr=inf_err,
        branch_histogram=tuple(int(c) for c in hist),
        seed=seed,
        params=params,
    )


def coherent_mc(
    d: int,
    theta: float,
    sigma_theta: float,
    n_samples: int,
    seed: int,
) -> CoherentStats:
    """Sample the logical angle under per-qubit Gaussian angle noise.

    Each sample draws d angle offsets N(0, sigma^2) and evaluates the
    exact product form theta_L = 2 atan(prod_i tan((theta+dtheta_i)/2)).
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        angles = theta + sigma_theta * rng.standard_normal((size, d))
        return 2.0 * np.arctan(np.prod(np.tan(angles / 2.0), axis=1))

    # one batch keyed (seed, 0)
    (theta_l,) = _philox_batches(seed, n_samples, n_samples, sample)
    return CoherentStats(
        mean_theta_l=float(theta_l.mean()),
        std_theta_l=float(theta_l.std(ddof=1)),
        n_samples=n_samples,
        seed=seed,
    )
