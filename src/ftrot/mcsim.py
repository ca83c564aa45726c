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

Noise is sparse at the rates of interest, so most trials hold no fault
or exactly one.  A batch splits its trials by fault count with their
true weights and evaluates, as check-mask words, only the few that
hold two or more; the single-fault trials take their outcome from a
table built once per (code, noise).  Noise is independent of b, so
given the noise the class counts of the n_s trials that read s in
every cycle are one multinomial draw over s's coset; a trial with no
fault reads the injected Z's syndrome.  No branch string is drawn.

Determinism: `_philox_batches` is the one place the contract is
implemented, for `estimate`, `coherent_mc` and `schemes.simulate_walk`.
Work is partitioned into fixed-size batches, batch i drawing from a
counter-based Philox stream keyed by (seed, i), seed in [0, 2^64).
All reductions are integer counts, so results are bit-identical for a
given (seed, n_trials, batch_size, stream) regardless of thread count.
`estimate` records the stream version as `params["stream"]`; the
teleportation walk's "stream" is a separate key of the `walk` payload
and versions that sampler alone.  A batch's Bernoulli slots, in a
fixed order, are the data slots (cycle, qubit) at p_in, then the flip
slots (cycle, check) at readout_flip.  Stream 5 draws, per batch:

  1. the trials with no fault, exactly one and two or more, as one
     multinomial(size, (P0, P1, P2+));
  2. the outcomes of the n1 single-fault trials, as one
     multinomial(n1, g) over the single-fault groups: rejected first,
     then each coset representative b0 (`codes._reduce`) ascending;
  3. for the n2 multi-fault trials: one uniform each for the first
     fault's slot J, then one each for the second's, K > J; then the
     X/Y/Z kinds of both, J's first; then the data faults over the flat
     (trial, data slot) index (the gaps between hits, then one kind per
     hit), and the flips over the flat (trial, flip slot) index (the
     gaps), of which only those after the trial's K are kept;
  4. for each b0 that some trial reaches, in ascending order, the class
     counts of its n_b0 trials as multinomial(n_b0, q(b0)), with q_m =
     P(b in b0's coset, class m) for m = 0..d//2 and the rejection
     probability last.

With w_j = p_j prod_{i<j}(1 - p_i) the probability that the first
fault is at slot j and h_j = 1 - prod_{i>j}(1 - p_i) that another
follows, P0 = prod(1 - p_i), P1 = sum w_j (1 - h_j) and P2+ =
sum w_j h_j.  J is drawn with weights w_j h_j, and K given J with
weights w_k over k > J.  The slots after K are independent of where
the first two faults are, so they are plain Bernoulli, and the flat
draw restricted to them is exact.  Stream 4 drew every trial's faults
and flips over the flat (trial, qubit) and (trial, check) indices and
evaluated every touched trial; stream 3 also drew a branch string for
each touched trial, and stream 2 the branch uniforms of every trial.

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
from .codes import StabilizerCode, _branch_basis, _coset_counts, _reduce, require_rotation

DEFAULT_BATCH_SIZE = 1 << 18

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


class _Plan(NamedTuple):
    """What every batch of one (code, noise, injected Z) reads; see `_plan`.

    A slot is one of a trial's Bernoulli locations: the data slots
    (cycle, qubit) at p_in, then the flip slots (cycle, check) at
    readout_flip.  A tail array holds, for each slot k and for one past
    the last, the summed weight of slot k and every later slot.
    """

    table: np.ndarray  # (width, 3n + checks): every location's form, see `_readings`
    injected: int  # the injected Z's form, 0 without one
    row: np.ndarray  # (slots,): the slot's cycle, plus r for a flip slot
    loc: np.ndarray  # (slots, 3): the slot's location for kind X, Y, Z
    n_data: int  # data slots, r n
    noise: NoiseModel
    d: int
    strata: np.ndarray  # (P0, P1, P2+)
    single_b0: np.ndarray  # the single-fault groups: -1 (rejected), then b0 ascending
    single_p: np.ndarray  # each group's probability given exactly one fault
    first: np.ndarray  # (slots + 1,): tails of w_j h_j, the first of two or more faults
    second: np.ndarray  # (slots + 1,): tails of w_k, the fault after it


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
    injected = _word_column(plan.injected, plan.table.shape[0])[:, 0]
    for word, (table, inj) in enumerate(zip(plan.table, injected)):
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
def _plan(
    channels: tuple[int, ...],
    columns: tuple[int, ...],
    n_checks: int,
    noise: NoiseModel,
    inject_z: int | None,
) -> _Plan:
    """The `_Plan` of the code whose channels and branch columns have
    these check masks (`codes.Multiplicities`), under `noise`, with a Z
    injected on qubit `inject_z` in the first cycle.  Cached by value,
    as `codes._branch_basis` is; its arrays are read-only, because
    every caller shares them."""
    n, d, r = len(channels) // 3, len(columns), noise.r
    rows = _branch_basis(columns)[0]

    def form(mask: int) -> int:
        rest, b0 = _reduce(rows, mask)
        return rest << d | b0

    width = -(-(n_checks + d) // 64)
    locations = [*channels, *(1 << i for i in range(n_checks))]
    table = np.hstack([_word_column(form(m), width) for m in locations])
    # the check mask of Z on qubit q is its third channel (X, Y, Z)
    injected = form(0 if inject_z is None else channels[3 * inject_z + 2])

    n_data, n_flip = r * n, r * n_checks
    qubit, check = np.arange(n_data) % n, np.arange(n_flip) % n_checks
    row = np.concatenate([np.arange(n_data) // n, r + np.arange(n_flip) // n_checks])
    loc = np.vstack([3 * qubit[:, None] + np.arange(3), np.repeat(3 * n + check[:, None], 3, 1)])

    # w_j = p_j prod_{i<j}(1 - p_i), the first fault at j; times
    # prod_{i>j}(1 - p_i) = 1 - h_j it is the only one
    p = np.repeat([noise.p_in, noise.readout_flip], [n_data, n_flip])
    keep = np.log1p(-p)
    before = np.cumsum(keep)
    after = np.append(np.cumsum(keep[:0:-1])[::-1], 0.0)
    w = p * np.exp(before - keep)
    single = w * np.exp(after)
    multi = w * -np.expm1(after)
    strata = np.array([math.exp(before[-1]), single.sum(), multi.sum()])

    def tails(weight: np.ndarray) -> np.ndarray:
        return np.append(np.cumsum(weight[::-1])[::-1], 0.0)

    plan = _Plan(table, injected, row, loc, n_data, noise, d, strata,
                 None, None, tails(multi), tails(w))
    # every single fault as its own one-event trial, a data slot once per kind
    slot = np.repeat(np.arange(n_data + n_flip), np.repeat([3, 1], [n_data, n_flip]))
    kind = np.concatenate([np.tile(np.arange(3), n_data), np.zeros(n_flip, dtype=int)])
    b0, group = np.unique(
        _readings(plan, np.arange(slot.size), slot, kind, slot.size), return_inverse=True
    )
    prob = np.bincount(group, weights=single[slot] / np.where(slot < n_data, 3, 1))
    plan = plan._replace(single_b0=b0, single_p=prob / prob.sum() if prob.any() else prob)
    for array in plan:
        if isinstance(array, np.ndarray):
            array.setflags(write=False)
    return plan


def _run_batch(
    plan: _Plan,
    classes: Callable[[int], np.ndarray],
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Simulate one batch; returns its branch class histogram.

    `classes(b0)` is `_coset_classes` of b0.  Draw order per batch
    (stream 5) is part of the determinism contract:
      1. the counts of trials with no fault, one fault and two or more,
         (n0, n1, n2) = multinomial(size, plan.strata);
      2. the single-fault trials' groups, multinomial(n1, plan.single_p);
      3. if n2 > 0: a (2, n2) block of uniforms, whose rows pick each
         trial's first fault J and then its second K by `_inverse_cdf`;
         a (2, n2) block of X/Y/Z kinds, J's row first; the data faults
         over the flat (trial, data slot) index: the gaps between hits
         (`_sparse_hits`), then one kind per hit; the flips over the flat
         (trial, flip slot) index: the gaps.  Of the last two, the
         faults after the trial's K are kept;
      4. for each b0 that some trial reaches, in ascending order, the
         class counts of its n_b0 trials, multinomial(n_b0, classes(b0)).
    The n0 trials with no fault read the injected Z's syndrome.
    """
    n0, n1, n2 = rng.multinomial(size, plan.strata).tolist()
    tally = collections.Counter(
        dict(zip(plan.single_b0.tolist(), rng.multinomial(n1, plan.single_p).tolist()))
    )
    tally[plan.injected if plan.injected < 1 << plan.d else -1] += n0

    if n2:
        u = rng.random((2, n2))
        first = _inverse_cdf(plan.first, 0, u[0])
        second = _inverse_cdf(plan.second, first + 1, u[1])
        kinds = rng.integers(0, 3, size=(2, n2))
        n_data, n_flip = plan.n_data, plan.row.size - plan.n_data
        pos, kind = _data_hits(rng, n2 * n_data, plan.noise.p_in)
        flips = _sparse_hits(rng, n2 * n_flip, plan.noise.readout_flip)
        trial = np.concatenate([np.tile(np.arange(n2), 2), pos // n_data, flips // n_flip])
        slot = np.concatenate([first, second, pos % n_data, n_data + flips % n_flip])
        kind = np.concatenate([kinds.ravel(), kind, np.zeros_like(flips)])
        del pos, flips
        # the slots after a trial's second fault are plain Bernoulli, so
        # the flat draw's faults there are that trial's remaining faults.
        # One array at a time, to keep the batch's peak memory low
        keep = slot > second[trial]
        keep[: 2 * n2] = True
        trial = trial[keep]
        slot = slot[keep]
        kind = kind[keep]
        b0, count = np.unique(_readings(plan, trial, slot, kind, n2), return_counts=True)
        tally.update(dict(zip(b0.tolist(), count.tolist())))

    hist = np.zeros(plan.d // 2 + 2, dtype=np.int64)
    for b in sorted(tally):
        if b >= 0 and tally[b]:
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
    plan = _plan(mult.channels, mult.branch_columns, mult.n_checks, noise, inject_z)
    classes = functools.cache(functools.partial(_coset_classes, code, theta))

    hist = np.zeros(d // 2 + 1, dtype=np.int64)
    for batch in _philox_batches(
        seed,
        n_trials,
        batch_size,
        functools.partial(_run_batch, plan, classes),
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
        "stream": 5,
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
