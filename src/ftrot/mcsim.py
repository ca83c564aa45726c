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
accepted exactly when its branch string lies in A_0, the strings whose
syndrome is the injected Z's (0 without one), and noise is independent
of b; so the class counts of all untouched trials of a batch are one
multinomial draw, and branch strings are drawn for touched trials only.

Determinism: `_philox_batches` is the one place the contract is
implemented, for `estimate`, `coherent_mc` and `schemes.simulate_walk`.
Work is partitioned into fixed-size batches, batch i drawing from a
counter-based Philox stream keyed by (seed, i), seed in [0, 2^64).
All reductions are integer counts, so results are bit-identical for a
given (seed, n_trials, batch_size, stream) regardless of thread count.
`estimate` records the stream version as `params["stream"]`; the
teleportation walk's "stream" (also 3) is a separate key of the `walk`
payload and versions that sampler alone.  Stream 3 draws, per batch:

  1. for each cycle in turn, the data-hit count, the hit positions over
     the flat (trial, qubit) index, and one X/Y/Z kind per hit;
  2. for each cycle in turn, the readout-flip count and the flip
     positions over the flat (trial, check) index;
  3. the class counts of the u untouched trials, multinomial(u, q) with
     q_m = P(b in A_0, class m) for m = 0..d//2 and q_reject last;
  4. the branch uniforms of the touched trials, shape (d, touched).

Stream 2 drew the branch uniforms of every trial, shape (trials, d),
first and then items 1 and 2.

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
from .codes import StabilizerCode, _bits, branch_coset, require_rotation

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


def _stabilizer_plan(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    """Every generator's frame rows, concatenated, and where each
    generator's rows start.

    A frame holds a Pauli's Z part in rows 0..n-1 and its X part in
    rows n..2n-1, so a generator's reading is the XOR over its X
    support followed by n + its Z support: the symplectic product
    (Aaronson & Gottesman, PRA 70, 052328 (2004); Gidney, Quantum 5,
    497 (2021)).
    """
    require_rotation(code)
    n = code.n
    per_check = [[*_bits(p.x), *(n + q for q in _bits(p.z))] for p in code.stabilizers]
    rows = np.array([row for check in per_check for row in check], dtype=np.intp)
    starts = np.cumsum([0] + [len(check) for check in per_check[:-1]])
    return rows, starts


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


def _untouched_classes(code: StabilizerCode, theta: float, inject_z: int | None) -> np.ndarray:
    """Class probabilities of a trial that no fault or flip touches:
    P(accepted in class m) for m = 0..d//2, then P(rejected).

    Such a trial reads the syndrome of Z^b (times the injected Z) in
    every cycle, so it is accepted exactly when H_b b equals the
    injected Z's syndrome: b in A_0, the coset that `codes.branch_coset`
    counts by weight ({0, 1^d} without `inject_z`).
    """
    mult = code.error_multiplicities
    d = code.d
    # the check mask of Z on qubit q is its third channel (X, Y, Z)
    injected = 0 if inject_z is None else mult.channels[3 * inject_z + 2]
    counts = branch_coset(mult.branch_columns, injected)
    q = np.zeros(d // 2 + 2)
    if counts is not None:
        s2 = math.sin(theta / 2.0) ** 2
        for w, count in enumerate(counts):
            q[min(w, d - w)] += count * s2**w * (1.0 - s2) ** (d - w)
    q[-1] = max(0.0, 1.0 - q[:-1].sum())
    return q


def _run_batch(
    code: StabilizerCode,
    rows: np.ndarray,
    starts: np.ndarray,
    untouched: np.ndarray,
    theta: float,
    noise: NoiseModel,
    inject_z: int | None,
    rng: np.random.Generator,
    size: int,
) -> tuple[int, np.ndarray]:
    """Simulate one batch; returns (accepted count, branch histogram).

    `rows` and `starts` are `_stabilizer_plan`: every generator's frame
    rows, generator i's starting at starts[i];
    `untouched` is `_untouched_classes`.  Draw order per batch
    (stream 3) is part of the determinism contract:
      1. for each cycle, data faults over the flat (trial, qubit)
         index: the hit count, the positions, then one X/Y/Z kind per
         hit;
      2. for each cycle, readout flips over the flat (trial, check)
         index: the flip count, then the positions;
      3. the class counts of the u trials that nothing touched, as one
         multinomial(u, untouched);
      4. the branch uniforms of the touched trials, shape (d, touched):
         one row per support position, trials in ascending order.
    Only the touched trials get a frame, which starts as Z^b (times the
    injected Z) and accumulates their hits cycle by cycle.
    """
    n, n_chk, d = code.n, starts.size, code.d
    hits = [_data_hits(rng, size * n, noise.p_in) for _ in range(noise.r)]
    flips = [_sparse_hits(rng, size * n_chk, noise.readout_flip) for _ in range(noise.r)]
    is_touched = np.zeros(size, dtype=bool)
    for (pos, _, _), flip in zip(hits, flips):
        is_touched[pos // n] = True
        is_touched[flip // n_chk] = True
    touched = np.flatnonzero(is_touched)
    local = np.empty(size, dtype=np.intp)
    local[touched] = np.arange(touched.size)
    hist = rng.multinomial(size - touched.size, untouched)[:-1]
    # branch bits as (support position, touched trial) rows
    b = rng.random((d, touched.size)) < math.sin(theta / 2.0) ** 2

    # the frame is (Z rows then X rows, touched trial), padded to whole
    # 64-bit words, so a check's parity is an XOR over the packed words
    # of its rows; it carries over cycles, so memory does not grow with r
    width = -(-touched.size // 64) * 64
    frame = np.zeros((2 * n, width), dtype=bool)
    frame[list(code.z_support), :touched.size] = b
    if inject_z is not None:
        frame[inject_z] ^= True
    ok = np.full(width // 64, ~np.uint64(0), dtype="<u8")
    for (pos, hx, hz), flip in zip(hits, flips):
        trial, qubit = np.divmod(pos, n)
        frame[qubit, local[trial]] ^= hz
        frame[n + qubit, local[trial]] ^= hx
        flipped = np.zeros((n_chk, width), dtype=bool)
        trial, check = np.divmod(flip, n_chk)
        flipped[check, local[trial]] = True
        reading = np.bitwise_xor.reduceat(_words(frame)[rows], starts, axis=0)
        ok &= ~np.bitwise_or.reduce(reading ^ _words(flipped), axis=0)
    ok = np.unpackbits(ok.view(np.uint8), count=touched.size, bitorder="little").view(bool)

    w = b[:, ok].sum(axis=0)
    hist += np.bincount(np.minimum(w, d - w), minlength=d // 2 + 1)
    return int(hist.sum()), hist


def _words(bits: np.ndarray) -> np.ndarray:
    """Rows of bools, a multiple of 64 long, as rows of uint64 words:
    element t at bit t % 64 of word t // 64."""
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


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
    rows, starts = _stabilizer_plan(code)
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

    if inject_z is None:
        rates = analytics.class_rates(noise, code.error_multiplicities)
        terms = analytics.model_terms(theta, d, rates)
        p_s_in = analytics.substrate_success(noise, code.n, len(code.stabilizers))
        # the model's accepted weight-1 trials: class 1's rate times its pair weight
        expected_events = p_s_in * rates[1] * terms.pair * n_trials
        if 0.0 < expected_events < 10.0 and terms.infid > 0.0:
            warnings.warn(
                RareEventWarning(
                    f"expected about {expected_events:.2f} accepted weight-1 trials "
                    f"at N={n_trials} (analytic rate {terms.error:.3g}); "
                    "the infidelity estimate will be noise-dominated"
                ),
                stacklevel=2,
            )

    untouched = _untouched_classes(code, theta, inject_z)
    results = _philox_batches(
        seed,
        n_trials,
        batch_size,
        lambda rng, size: _run_batch(
            code, rows, starts, untouched, theta, noise, inject_z, rng, size
        ),
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
        "stream": 3,
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
