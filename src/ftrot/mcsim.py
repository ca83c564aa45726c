"""Monte-Carlo simulation of noisy post-selected state preparation.

The protocol under test: rotate every support qubit of the logical Z,
then run r cycles of stabilizer readout and discard the state when any
observed bit is nonzero.  Because the rotation only ever creates
Z-type branch operators on the support, a trial is fully described by

  * the sampled branch string b (each bit 1 w.p. sin^2(theta/2)),
  * the depolarizing faults on the data qubits, which persist,
  * per-cycle readout flips on each stabilizer outcome.

Write s_c for what cycle c reads from the faults and flips alone (and
the injected Z, if any).  The branch string adds H_b b, the syndrome
of Z^b, to every cycle, so a trial is accepted exactly when
s_1 = ... = s_r = s and H_b b = s: s lies in the span of the branch
columns, and b in the coset of strings with that syndrome.  Accepted
trials land in the branch weight class m = min(|b|, d-|b|), whose
infidelity against the target angle is a closed form; the estimator
averages it.

Noise is sparse at the rates of interest, so a batch draws only the
faults that occur: data-qubit hits and readout flips are exact
Bernoulli samples over flat index spaces, and only the trials they
touch are evaluated, as check-mask words.  Noise is independent of b,
so given the noise the class counts of the n_s trials that read s in
every cycle are one multinomial draw over s's coset; a trial that
nothing touches reads the injected Z's syndrome.  No branch string is
drawn.

Determinism: `_philox_batches` is the one place the contract is
implemented, for `estimate`, `coherent_mc` and `schemes.simulate_walk`.
Work is partitioned into fixed-size batches, batch i drawing from a
counter-based Philox stream keyed by (seed, i), seed in [0, 2^64).
All reductions are integer counts, so results are bit-identical for a
given (seed, n_trials, batch_size, stream) regardless of thread count.
`estimate` records the stream version as `params["stream"]`; the
teleportation walk's "stream" is a separate key of the `walk` payload
and versions that sampler alone.  Stream 4 draws, per batch:

  1. for each cycle in turn, the data-hit count, the hit positions over
     the flat (trial, qubit) index, and one X/Y/Z kind per hit;
  2. for each cycle in turn, the readout-flip count and the flip
     positions over the flat (trial, check) index;
  3. for each syndrome s that some trial reads in every cycle and that
     lies in the span of the branch columns, in ascending order of its
     coset representative b0 (`codes._reduce`), the class counts of
     those n_s trials as multinomial(n_s, q(s)), with q_m = P(H_b b = s,
     class m) for m = 0..d//2 and the rejection probability last.

Stream 3 drew items 1 and 2, one multinomial for the untouched trials
only, and then a branch string for each touched trial; stream 2 drew
the branch uniforms of every trial first.

The noise description, `NoiseModel`, lives in `analytics` and is
re-exported here.  A scalar one-trial-at-a-time reference engine lives
in the test suite (`tests/oracles.py`).
"""

from __future__ import annotations

import collections
import functools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import analytics
from .analytics import NoiseModel
from .codes import StabilizerCode, _branch_basis, _coset_counts, _reduce, require_rotation

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
) -> Iterator:
    """Yield fn(rng, size) over the batch partition of n items, in batch order.

    Batch i holds batch_size items (the last one the remainder) and
    draws from Philox key (seed, i); the partition depends only on
    (n, batch_size), so the results do not depend on `threads`.
    `progress(i + 1, n_batches)` is called once per finished batch.
    At most two batches per worker are in flight, so a caller that
    folds the results as they come holds memory that does not grow
    with n.
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

    if workers == 1:
        yield from map(run, range(n_batches))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: collections.deque = collections.deque()
        for i in range(n_batches):
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(run, i))
        while pending:
            yield pending.popleft().result()


def _sparse_hits(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Hit positions of an i.i.d. Bernoulli(p) mask over range(total).

    Exact: the hit count is Binomial(total, p), and given the count the
    hits are a uniform subset of that size.  Draws the count, then the
    positions; at low p the cost scales with the hits, not with total.
    """
    return rng.choice(total, rng.binomial(total, p), replace=False)


def _data_hits(rng: np.random.Generator, total: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Depolarizing faults over range(total): (positions, kinds).

    Each hit is X, Y or Z (kind 0, 1, 2) with probability 1/3, from one
    uniform integer per hit drawn after the positions.
    """
    pos = _sparse_hits(rng, total, p)
    return pos, rng.integers(0, 3, size=pos.size)


def _coset_classes(code: StabilizerCode, theta: float, b0: int) -> np.ndarray:
    """Class probabilities of a trial that reads branch string b0's
    syndrome in every cycle: P(accepted in class m) for m = 0..d//2,
    then P(rejected).

    Such a trial is accepted exactly when its branch string lies in
    b0's coset, which `codes._coset_counts` counts by weight ({0, 1^d}
    for b0 = 0).
    """
    d = code.d
    s2 = math.sin(theta / 2.0) ** 2
    q = np.zeros(d // 2 + 2)
    for w, count in enumerate(_coset_counts(code.error_multiplicities.branch_columns, b0)):
        q[min(w, d - w)] += count * s2**w * (1.0 - s2) ** (d - w)
    q[-1] = max(0.0, 1.0 - q[:-1].sum())
    return q


def _word_column(mask: int, width: int) -> np.ndarray:
    """A bit mask as a (width, 1) column of 64-bit words: bit i is bit
    i % 64 of word i // 64."""
    return np.array([[mask >> 64 * w & (1 << 64) - 1] for w in range(width)], dtype=np.uint64)


def _starts(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted array a begins."""
    starts = np.ones(a.size, dtype=bool)
    starts[1:] = a[1:] != a[:-1]
    return starts


def _run_batch(
    code: StabilizerCode,
    table: np.ndarray,
    injected: int,
    classes: Callable[[int], np.ndarray],
    noise: NoiseModel,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Simulate one batch; returns its branch class histogram.

    Syndromes are held in echelon form, as words of `rest << d | b0`
    with (rest, b0) = `codes._reduce` against the branch columns'
    echelon rows.  The reduction is linear, so the XOR of the forms of
    a trial's faults and flips is the form of its syndrome s: s lies in
    the span of the branch columns when rest = 0, and b0 is then a
    branch string of syndrome s, which names s's coset.  `table` holds
    every location's form as a (width, locations) column of words: the
    3n single-qubit channels (qubit-major, X Y Z), then the checks'
    readout flips.  `injected` is the injected Z's form (0 without
    one), and `classes(b0)` is `_coset_classes` of b0.  Draw order
    per batch (stream 4) is part of the determinism contract:
      1. for each cycle, data faults over the flat (trial, qubit)
         index: the hit count, the positions, then one X/Y/Z kind per
         hit;
      2. for each cycle, readout flips over the flat (trial, check)
         index: the flip count, then the positions;
      3. for each b0 that some trial reaches, in ascending order, the
         class counts of its n_b0 trials, multinomial(n_b0, classes(b0)).
    The trials that nothing touched read the injected Z's syndrome.
    """
    n, n_chk, r, d = code.n, len(code.stabilizers), noise.r, code.d
    width = table.shape[0]
    hits = [_data_hits(rng, size * n, noise.p_in) for _ in range(r)]
    flips = [_sparse_hits(rng, size * n_chk, noise.readout_flip) for _ in range(r)]

    # every fault and flip as (row, trial, location): cycle c's data
    # faults in row c, its flips in row r + c.  Arrays are freed or
    # updated in place as the batch goes, which keeps its peak memory
    # small enough for the allocator to reuse the same pages every batch
    trial, qubit = np.divmod(np.concatenate([pos for pos, _ in hits]), n)
    flip_trial, check = np.divmod(np.concatenate(flips), n_chk)
    trial = np.concatenate([trial, flip_trial])
    loc = np.concatenate([3 * qubit + np.concatenate([kind for _, kind in hits]), 3 * n + check])
    row = np.repeat(np.arange(2 * r), [pos.size for pos, _ in hits] + [flip.size for flip in flips])
    del hits, flips, qubit, flip_trial, check

    # number the touched trials: sort the events by trial, each event's
    # index riding in the low bits of its sort key
    shift = trial.size.bit_length()
    trial <<= shift
    trial |= np.arange(trial.size)
    trial.sort()
    ids = np.cumsum(_starts(trial >> shift)) - 1
    touched = int(ids[-1]) + 1 if ids.size else 0
    trial &= (1 << shift) - 1
    local = np.empty_like(ids)
    local[trial] = ids
    del trial, ids

    # the touched trials' forms, (row, word, trial): a data fault is
    # seen from its cycle on and a flip in its cycle only, so a trial
    # reads the same syndrome in every cycle when each cycle's faults
    # cancel its own flips and the last cycle's
    forms = np.zeros(2 * r * width * touched, dtype=np.uint64)
    slot = np.arange(width)[:, None] + row * width
    slot *= touched
    slot += local
    np.bitwise_xor.at(forms, slot, table.take(loc, axis=1))
    data, flipped = forms.reshape(2, r, width, touched)
    same = ~(data[1:] ^ flipped[1:] ^ flipped[:-1]).any(axis=(0, 1))
    syndrome = np.compress(same, data[0] ^ flipped[0], axis=1) ^ _word_column(injected, width)
    spanned = (syndrome[0] < np.uint64(1 << d)) & ~syndrome[1:].any(axis=0)
    b0 = np.sort(syndrome[0, spanned])
    first = np.flatnonzero(_starts(b0))
    tally = dict(zip(b0[first].tolist(), np.diff(first, append=b0.size).tolist()))
    if size > touched and injected < 1 << d:
        tally[injected] = tally.get(injected, 0) + size - touched

    hist = np.zeros(d // 2 + 2, dtype=np.int64)
    for b in sorted(tally):
        hist += rng.multinomial(tally[b], classes(b))
    return hist[:-1]


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
    require_rotation(code)
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

    mult = code.error_multiplicities
    n_chk = len(code.stabilizers)
    rows = _branch_basis(mult.branch_columns)[0]

    def form(mask: int) -> int:
        rest, b0 = _reduce(rows, mask)
        return rest << d | b0

    # every location's syndrome in that form: the single-qubit channels,
    # then the readout flips
    locations = [*mult.channels, *(1 << i for i in range(n_chk))]
    width = -(-(n_chk + d) // 64)
    table = np.hstack([_word_column(form(m), width) for m in locations])
    # the check mask of Z on qubit q is its third channel (X, Y, Z)
    injected = form(0 if inject_z is None else mult.channels[3 * inject_z + 2])

    classes = functools.cache(functools.partial(_coset_classes, code, theta))

    hist = np.zeros(d // 2 + 1, dtype=np.int64)
    for batch in _philox_batches(
        seed,
        n_trials,
        batch_size,
        lambda rng, size: _run_batch(
            code, table, injected, classes, noise, rng, size
        ),
        threads,
        progress,
    ):
        hist += batch
    accepted = int(hist.sum())

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
        "stream": 4,
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
