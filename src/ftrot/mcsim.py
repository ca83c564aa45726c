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

Noise is sparse at the rates of interest, so most trials hold no fault,
one, two or three.  Their outcomes are exact: `codes.fault_set_rates`,
the weighted per-class table of the sets of at most three events that
the model reads too, gives once per (code, noise, injected Z) the
probability that a trial holds at most three faults and is accepted in
class m, as per-class counts times pair weights, and a batch draws the
classes of all such trials at once.  Only the few that hold four or
more are evaluated, as check-mask words, a chunk of at most 2^20
(cycle, trial) words at a time.  Noise is independent of b, so given
the noise the class counts of the n_s trials that read s in every cycle
are one multinomial draw over s's coset.  No branch string is drawn.

Determinism: `_philox_batches` is the one place the contract is
implemented, for `estimate` and `schemes.simulate_walk`.
Work is partitioned into fixed-size batches, batch i drawing from a
counter-based Philox stream keyed by (seed, i), seed in [0, 2^64).
All reductions are integer counts, so results are bit-identical for a
given (seed, n_trials, batch_size, stream) regardless of thread count.
`estimate` records the stream version as `params["stream"]`; the
teleportation walk's "stream" is a separate key of the `walk` payload
and versions that sampler alone.  A batch's Bernoulli slots, in a
fixed order, are the data slots (cycle, qubit) at p_in, then the flip
slots (cycle, check) at readout_flip.  Stream 9 draws, per batch:

  1. the class counts of the trials with at most three faults, and the
     count n4 of those with four or more, as one multinomial(size,
     (Q_0, ..., Q_{d//2}, P4+, rest)), where Q_m = P(at most three
     faults, accepted in class m) and the rest is rejected;
  2. the n4 trials, in chunks of at most `_READ_CELLS` // (2 r) trials
     (`_READ_CELLS` = 2^20), each chunk drawing in turn: a (4, n) block
     of uniforms, whose rows pick by `_inverse_cdf` each trial's first
     fault's slot J, then its second's, K > J, its third's, L > K, and
     its fourth's, M > L; then a (4, n) block of the four's X/Y/Z
     kinds, J's row first; then the data faults over the flat (trial,
     data slot) index (the gaps between hits by `_sparse_hits`, then
     one kind per hit), and the flips over the flat (trial, flip slot)
     index (the gaps), of which only those after the trial's M are
     kept;
  3. for each b0 that some of the n4 trials reach, in ascending order,
     the class counts of its n_b0 trials as multinomial(n_b0, q(b0))
     (`_coset_classes`), with q_m(b0) = P(b in b0's coset, class m) for
     m = 0..d//2 and the rejection probability last.

Step 1 is exact: a trial with at most three faults reads b0 with a
known probability and then lands in class m with probability q_m(b0),
independently of every other trial, so the class counts of all such
trials are one multinomial over the mixture.  An event e is a data
fault of one kind, with odds o_e = (p_in/3)/(1 - p_in), or a readout
flip, o_e = f/(1 - f) at readout_flip f.  A set of events on distinct
slots weighs P0 prod o_e, with P0 = prod(1 - p_i).  So Q_m is the
per-class count, P0 times the class-m branch pairs of the accepted sets
of at most three events, each weighted by its odds
(`codes.fault_set_rates`, and the empty set), times the pair weight
s^m (1 - s)^(d - m) + s^(d - m) (1 - s)^m with s = sin^2(theta/2).  With
w_j = p_j prod_{i<j}(1 - p_i) the probability that the first fault is
at slot j and o_j = p_j / (1 - p_j), the tails chain is T_1 = the tails
of w and T_{t+1} = the tails of o_j T_t[j+1]: T_t[k] is P(no fault
before k, t or more from k on), since o_j T_t[j+1] turns the (1 - p_j)
in T_t[j+1] into p_j and so is P(first fault at j, t or more after it).
P4+ = T_4[0], a sum of positive terms.  J is drawn with weights
o_j T_3[j+1], K given J with o_k T_2[k+1] over k > J, L given K with
o_l T_1[l+1] over l > K, and M given L with w_m over m > L.  The slots
after M are independent of where the first four faults are, so they
are plain Bernoulli, and the flat draw restricted to them is exact.
The trials are independent, so a chunk's draws hold only its own
trials.

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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import analytics
from .analytics import NoiseModel
from .codes import Multiplicities, StabilizerCode, _coset_counts, fault_set_rates
from .codes import require_rotation, slot_events

DEFAULT_BATCH_SIZE = 1 << 18
_READ_CELLS = 1 << 20  # the most (row, trial) words one `_readings` call holds
MAX_SLOTS = 1 << 18  # the most fault slots, r (n + checks), that `estimate` plans
RARE_SHARE = 0.01  # a class's share of the exact mean from which its rarity warns

__all__ = [
    "NoiseModel",
    "McStats",
    "RareEventWarning",
    "estimate",
]


class RareEventWarning(UserWarning):
    """A weight class that holds at least `RARE_SHARE` of the exact mean
    infidelity expects fewer than 10 accepted trials at the requested N,
    too few to resolve its part of the mean."""


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
    """Hit positions, ascending, of an i.i.d. Bernoulli(p) mask over
    range(total).

    Exact: the first hit and each gap to the next are i.i.d.
    Geometric(p) on {1, 2, ...}.  The gaps are drawn in blocks of the
    expected number of hits left plus six standard deviations, until
    they pass the end, so time and memory scale with the hits, not with
    total.
    """
    blocks, last = [], -1
    while p > 0.0 and last < total - 1:
        mean = (total - 1 - last) * p
        gaps = rng.geometric(p, int(mean + 6.0 * math.sqrt(mean) + 16.0))
        # a gap capped at total + 1 still passes the end, and the cap
        # keeps the sums inside int64
        np.cumsum(np.minimum(gaps, total + 1, out=gaps), out=gaps)
        gaps += last
        blocks.append(gaps)
        last = int(gaps[-1])
    hits = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return hits[: np.searchsorted(hits, total)]


def _data_hits(rng: np.random.Generator, total: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Depolarizing faults over range(total): (positions, kinds).

    Each hit is X, Y or Z (kind 0, 1, 2) with probability 1/3, from one
    uniform integer per hit drawn after the positions.
    """
    pos = _sparse_hits(rng, total, p)
    return pos, rng.integers(0, 3, size=pos.size)


def _pair_weights(theta: float, d: int) -> np.ndarray:
    """P(b) + P(complement of b) for a branch string b of weight m =
    0..d//2, each bit 1 with probability s = sin^2(theta/2):
    s^m (1 - s)^(d - m) + s^(d - m) (1 - s)^m."""
    s = math.sin(theta / 2.0) ** 2
    m = np.arange(d // 2 + 1)
    return s**m * (1.0 - s) ** (d - m) + s ** (d - m) * (1.0 - s) ** m


def _coset_classes(columns: tuple[int, ...], theta: float, b0: int) -> np.ndarray:
    """Class probabilities of a trial that reads branch string b0's
    syndrome in every cycle, for the code with these branch columns:
    P(accepted in class m) for m = 0..d//2, then P(rejected).

    Such a trial is accepted exactly when its branch string lies in
    b0's coset, which `codes._coset_counts` counts by weight ({0, 1^d}
    for b0 = 0).  The coset is closed under complement, as 1^d lies in
    the kernel for every code that `codes.require_rotation` accepts, so
    class m is the count of weight m times the pair weight.
    """
    d = len(columns)
    q = np.multiply(_coset_counts(columns, b0)[: d // 2 + 1], _pair_weights(theta, d))
    return np.append(q, max(0.0, 1.0 - q.sum()))


def _word_column(mask: int, width: int) -> np.ndarray:
    """A bit mask as a (width, 1) column of 64-bit words: bit i is bit
    i % 64 of word i // 64."""
    return np.array([[mask >> 64 * w & (1 << 64) - 1] for w in range(width)], dtype=np.uint64)


class _Plan(NamedTuple):
    """What every batch of one (code, noise, injected Z) reads; see `_plan`.

    A slot is one of a trial's Bernoulli locations: the data slots
    (cycle, qubit) at p_in, then the flip slots (cycle, check) at
    readout_flip.  A tail array holds, for each slot k and for one past
    the last, the summed weight of slot k and every later slot.
    """

    table: np.ndarray  # (width, 3n + checks): every location's form, see `_readings`
    injected: np.ndarray  # (width,): the injected Z's form as words, 0 without one
    row: np.ndarray  # (slots,): the slot's cycle, plus r for a flip slot
    loc: np.ndarray  # (slots, 3): the slot's location for kind X, Y, Z
    n_data: int  # data slots, r n
    noise: NoiseModel
    d: int
    few: np.ndarray  # (d//2 + 1,): P(at most three faults, accepted in class m) / the pair weight
    # (4, slots + 1): T_4, T_3, T_2, T_1, where T_t[k] = P(no fault before
    # slot k, t or more from k on); P4+ = tails[0, 0], and row i draws
    # the (i + 1)-th fault of a trial with four or more
    tails: np.ndarray


def _readings(
    plan: _Plan, trial: np.ndarray, slot: np.ndarray, kind: np.ndarray, n_trials: int
) -> np.ndarray:
    """The coset representative b0 that each of n_trials trials reads in
    every cycle, or -1 where the trial is rejected.  Event i is a fault
    of trial `trial[i]` at `slot[i]`, of X/Y/Z kind `kind[i]` (any kind
    for a flip slot); the events are all of the trials' faults.

    Syndromes are held in echelon form, as words of `rest << d | b0`
    with (rest, b0) = `codes._reduce` against the branch columns'
    echelon rows.  The reduction is linear, so the XOR of the forms of
    a trial's faults and flips is the form of its syndrome s: s lies in
    the span of the branch columns when rest = 0, and b0 is then a
    branch string of syndrome s, which names s's coset.  `plan.table`
    holds every location's form as a (width, locations) column of
    words: the 3n single-qubit channels (qubit-major, X Y Z), then the
    checks' readout flips.
    """
    r = plan.noise.r
    index = plan.row[slot]
    index *= n_trials
    index += trial
    loc = plan.loc[slot, kind]
    kept = np.ones(n_trials, dtype=bool)
    # one word at a time, so that memory grows with the events and the
    # trials, not with their product with the width.  A trial's forms
    # are (row, trial): a data fault is seen from its cycle on and a
    # flip in its cycle only, so a trial reads the same syndrome in
    # every cycle when each cycle's faults cancel its own flips and the
    # last cycle's
    for word, (table, inj) in enumerate(zip(plan.table, plan.injected)):
        forms = np.zeros(2 * r * n_trials, dtype=np.uint64)
        np.bitwise_xor.at(forms, index, table.take(loc))
        data, flipped = forms.reshape(2, r, n_trials)
        kept &= ~(data[1:] ^ flipped[1:] ^ flipped[:-1]).any(axis=0)
        syndrome = data[0] ^ flipped[0] ^ inj
        if word:
            kept &= syndrome == 0
        else:
            b0 = syndrome
    kept &= b0 < np.uint64(1 << plan.d)
    return np.where(kept, b0.astype(np.int64), -1)


def _inverse_cdf(tail: np.ndarray, start: int | np.ndarray, u: np.ndarray) -> np.ndarray:
    """The slot k >= start that each uniform u in [0, 1) picks, with
    probability weight_k / tail[start], where tail[k] is the weight of
    slot k and every later slot and tail[-1] = 0.

    k is the last slot with tail[k] >= (1 - u) tail[start].  However it
    rounds, 1 - u lies in (0, 1], so that bound lies in (0, tail[start]]
    and tail[k + 1] is below it: k has positive weight, is not below
    start and lies before the end.
    """
    return np.searchsorted(-tail, -(1.0 - u) * tail[start], side="right") - 1


@functools.lru_cache(maxsize=16)
def _plan(mult: Multiplicities, noise: NoiseModel, inject_z: int | None) -> _Plan:
    """The `_Plan` of the code with the check masks `mult`
    (`codes.Multiplicities`), under `noise`, with a Z injected on qubit
    `inject_z` in the first cycle.  A location's form is `rest << d |
    b0` of its event in `codes.slot_events` over one cycle, where an
    event's signature is its remainder (`codes._reduce`) alone.  Cached
    by value, as `codes._fault_set_counts` is; its arrays are read-only,
    because every caller shares them."""
    channels, columns, n_checks = mult
    n, d, r = len(channels) // 3, len(columns), noise.r
    forms = [sig << d | b0 for sig, b0 in zip(*slot_events(mult, 1))]
    width = -(-(n_checks + d) // 64)
    table = np.hstack([_word_column(form, width) for form in forms])
    # Z on qubit q is its third channel (X, Y, Z)
    injected = 0 if inject_z is None else forms[3 * inject_z + 2]

    n_data, n_flip = r * n, r * n_checks
    qubit, check = np.arange(n_data) % n, np.arange(n_flip) % n_checks
    row = np.concatenate([np.arange(n_data) // n, r + np.arange(n_flip) // n_checks])
    loc = np.vstack([3 * qubit[:, None] + np.arange(3), np.repeat(3 * n + check[:, None], 3, 1)])

    # w_j = p_j prod_{i<j}(1 - p_i), the first fault at j, and the odds
    # o_j = p_j / (1 - p_j): o_j T_t[j + 1] is the first fault at j with
    # t or more after it, since o_j turns the (1 - p_j) in T_t[j + 1]
    # into p_j
    p = np.repeat([noise.p_in, noise.readout_flip], [n_data, n_flip])
    keep = np.log1p(-p)
    before = np.cumsum(keep)
    odds = p / (1.0 - p)

    def tails(weight: np.ndarray) -> np.ndarray:
        return np.append(np.cumsum(weight[::-1])[::-1], 0.0)

    chain = [tails(p * np.exp(before - keep))]
    for _ in range(3):
        chain.append(tails(odds * chain[-1][1:]))

    # a set of up to three events weighs P0 times its events' odds
    # (`codes.fault_set_rates`, per class over the accepted sets).  The
    # empty set reads the Z's own syndrome, accepted when that lies in
    # the branch span
    sets = fault_set_rates(mult, r, injected, noise.p_in, noise.readout_flip)
    empty = _coset_counts(columns, injected)[: d // 2 + 1] if injected < 1 << d else 0.0
    few = math.exp(before[-1]) * (empty + sets)
    words = _word_column(injected, width)[:, 0]
    plan = _Plan(table, words, row, loc, n_data, noise, d, few, np.array(chain[::-1]))
    for array in plan:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return plan


def _batch_law(plan: _Plan, theta: float) -> np.ndarray:
    """The probabilities of a batch's first draw: q_m = P(at most three
    faults, accepted in class m) for m = 0..d//2, then P4+, then a
    last entry that the multinomial reads as the rest, the rejected
    trials with at most three faults.

    q_m = `plan.few`[m] times the pair weight of class m: every accepted
    set's coset is closed under complement (`_coset_classes`), so it
    holds its strings of class m as pairs {b, complement of b}.
    """
    # P4+ may round past 1, which the multinomial refuses
    return np.append(plan.few * _pair_weights(theta, plan.d), [min(plan.tails[0, 0], 1.0), 0.0])


def _run_batch(
    plan: _Plan,
    classes: Callable[[int], np.ndarray],
    law: np.ndarray,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Simulate one batch; returns its branch class histogram.

    `classes(b0)` is `_coset_classes` of b0 and `law` is
    `_batch_law(plan, theta)`.  The draws follow stream 9's order, part
    of the determinism contract, as the module docstring states it.
    """
    counts = rng.multinomial(size, law)
    hist, n4 = counts[:-2], int(counts[-2])
    if not n4:
        return hist
    # `_readings` holds 2 r words per trial; the trials are independent,
    # so each chunk draws and reads its own
    per_chunk = max(1, _READ_CELLS // (2 * plan.noise.r))
    n_data, n_flip = plan.n_data, plan.row.size - plan.n_data
    levels = len(plan.tails)
    readings = []
    for lo in range(0, n4, per_chunk):
        n = min(per_chunk, n4 - lo)
        u = rng.random((levels, n))
        first = np.empty((levels, n), dtype=np.int64)
        start = 0
        for level, tail in enumerate(plan.tails):
            first[level] = _inverse_cdf(tail, start, u[level])
            start = first[level] + 1
        kinds = rng.integers(0, 3, size=(levels, n))
        pos, kind = _data_hits(rng, n * n_data, plan.noise.p_in)
        flips = _sparse_hits(rng, n * n_flip, plan.noise.readout_flip)
        trial = np.concatenate([np.tile(np.arange(n), levels), pos // n_data, flips // n_flip])
        slot = np.concatenate([first.ravel(), pos % n_data, n_data + flips % n_flip])
        kind = np.concatenate([kinds.ravel(), kind, np.zeros_like(flips)])
        # the slots after a trial's fourth fault are plain Bernoulli, so
        # the flat draw's faults there are that trial's remaining faults
        keep = slot > first[-1][trial]
        keep[: levels * n] = True
        readings.append(_readings(plan, trial[keep], slot[keep], kind[keep], n))

    b0s, count = np.unique(np.concatenate(readings), return_counts=True)
    for b0, n_b0 in zip(b0s.tolist(), count.tolist()):
        if b0 >= 0:
            hist += rng.multinomial(n_b0, classes(b0))[:-1]
    return hist


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
    slots = noise.r * (code.n + len(code.stabilizers))
    if slots > MAX_SLOTS:
        raise ValueError(f"r = {noise.r} gives {slots} fault slots, above {MAX_SLOTS}")

    d = code.d
    if theta_l_target is None:
        theta_l_target = analytics.logical_angle(theta, d)
    values = np.array(
        [
            analytics.branch_infidelity(m, d, theta, theta_l_target)
            for m in range(d // 2 + 1)
        ]
    )

    mult = code.error_multiplicities
    plan = _plan(mult, noise, inject_z)
    classes = functools.partial(_coset_classes, mult.branch_columns, theta)
    law = _batch_law(plan, theta)
    # each class's part of the exact mean, that of the trials with at
    # most three faults, and its expected accepted trials
    part = law[:-2] * values
    expected = law[:-2] * n_trials
    rare = np.flatnonzero((part >= RARE_SHARE * part.sum()) & (part > 0.0) & (expected < 10.0))
    if rare.size:
        m = int(rare[np.argmax(part[rare])])
        warnings.warn(
            RareEventWarning(
                f"expected about {expected[m]:.3g} accepted weight-{m} trials at N={n_trials}, "
                f"{part[m] / part.sum():.0%} of the exact mean {part.sum() / law[:-2].sum():.3g}; "
                "the infidelity estimate will be noise-dominated"
            ),
            stacklevel=2,
        )

    hist = np.zeros(d // 2 + 1, dtype=np.int64)
    for batch in _philox_batches(
        seed,
        n_trials,
        batch_size,
        functools.partial(_run_batch, plan, classes, law),
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
        "stream": 9,
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
