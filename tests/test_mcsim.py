import dataclasses
import functools
import math
import os
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from ftrot import analytics, codes, mcsim
from ftrot.mcsim import NoiseModel, RareEventWarning

import oracles


@pytest.fixture(scope="module")
def surface3():
    return codes.get_code("surface", d=3)


def oracle_stats(code, theta, noise, n, rng, inject_z=None):
    """(rate, rate stderr, mean infidelity, its stderr) of n scalar trials."""
    outs = [oracles.run_prep_trial(code, theta, noise, rng, inject_z) for _ in range(n)]
    vals = [o.infidelity_sample for o in outs if o.accepted]
    rate = len(vals) / n
    mean = sum(vals) / len(vals)
    mean_err = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals) ** 2)
    return rate, math.sqrt(rate * (1 - rate) / n), mean, mean_err


def pulls(oracle, st):
    """Oracle-vs-engine z of the acceptance rate and of the mean infidelity."""
    rate, rate_err, mean, mean_err = oracle
    z_rate = abs(rate - st.acceptance_rate) / math.hypot(rate_err, st.acceptance_stderr)
    z_mean = abs(mean - st.mean_infidelity) / math.hypot(mean_err, st.infidelity_stderr)
    return z_rate, z_mean


class TestNoiseModel:
    def test_defaults(self):
        nm = NoiseModel(p_in=3e-3)
        assert nm.r == 1
        assert nm.readout_flip == pytest.approx(2e-3, rel=1e-15)

    def test_explicit_readout(self):
        nm = NoiseModel(p_in=1e-3, readout_flip=0.0)
        assert nm.readout_flip == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p_in=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(p_in=1.0)
        with pytest.raises(ValueError):
            NoiseModel(p_in=0.1, r=0)
        with pytest.raises(ValueError):
            NoiseModel(p_in=0.1, readout_flip=1.5)

    def test_one_noise_model(self):
        assert mcsim.NoiseModel is analytics.NoiseModel
        assert issubclass(analytics.RotationConfig, NoiseModel)


class TestSamplers:
    def test_branch_bit_rate(self):
        rng = np.random.Generator(np.random.Philox(key=[1, 0]))
        theta = 0.9
        n = 200_000
        hits = sum(int(oracles.sample_branch(5, theta, rng).sum()) for _ in range(n // 5))
        rate = hits / n
        s2 = math.sin(theta / 2) ** 2
        assert abs(rate - s2) < 3 * math.sqrt(s2 * (1 - s2) / n)

    def test_depolarizing_rates(self):
        rng = np.random.Generator(np.random.Philox(key=[2, 0]))
        n, p = 60_000, 0.3
        err = oracles.sample_depolarizing(n, p, rng)
        nx = ny = nz = 0
        for q in range(n):
            xb, zb = (err.x >> q) & 1, (err.z >> q) & 1
            nx += xb & ~zb & 1
            ny += xb & zb
            nz += zb & ~xb & 1
        sigma = math.sqrt((p / 3) * (1 - p / 3) / n)
        for cnt in (nx, ny, nz):
            assert abs(cnt / n - p / 3) < 4 * sigma

    def test_depolarizing_zero(self):
        rng = np.random.default_rng(0)
        err = oracles.sample_depolarizing(9, 0.0, rng)
        assert err.x == 0 and err.z == 0


class TestSparseHits:
    """The engine's exact Bernoulli sampler: count, positions, memory, kinds."""

    def test_zero_rate_gives_no_hits(self):
        rng = np.random.Generator(np.random.Philox(key=[30, 0]))
        assert mcsim._sparse_hits(rng, 10**7, 0.0).size == 0
        pos, kind = mcsim._data_hits(rng, 10**7, 0.0)
        assert pos.size == kind.size == 0

    def test_count_is_binomial(self):
        # at p=0.3 a Poisson count would have variance 600, not 420
        rng = np.random.Generator(np.random.Philox(key=[31, 0]))
        total, p, draws = 2_000, 0.3, 4_000
        counts = np.array([mcsim._sparse_hits(rng, total, p).size for _ in range(draws)])
        mean, var = total * p, total * p * (1 - p)
        assert abs(counts.mean() - mean) < 4 * math.sqrt(var / draws)
        assert abs(counts.var(ddof=1) - var) < 4 * var * math.sqrt(2 / (draws - 1))

    def test_positions_distinct_and_uniform(self):
        rng = np.random.Generator(np.random.Philox(key=[32, 0]))
        total, bins = 1 << 16, 16
        seen = np.zeros(bins, dtype=np.int64)
        for _ in range(200):
            pos = mcsim._sparse_hits(rng, total, 0.01)
            assert np.unique(pos).size == pos.size
            assert pos.min() >= 0 and pos.max() < total
            seen += np.bincount(pos // (total // bins), minlength=bins)
        expected = seen.sum() / bins
        chi2 = float(((seen - expected) ** 2 / expected).sum())
        assert chi2 < 44.3, chi2  # 1e-4 upper tail of chi-square, 15 dof

    def test_every_position_hit_at_rate_p(self):
        # the first and the last position as well: a gap counted from
        # the wrong end would never hit position 0 or total - 1
        rng = np.random.Generator(np.random.Philox(key=[35, 0]))
        total, p, draws = 8, 0.3, 20_000
        seen = np.zeros(total, dtype=np.int64)
        for _ in range(draws):
            seen += np.bincount(mcsim._sparse_hits(rng, total, p), minlength=total)
        sigma = math.sqrt(draws * p * (1 - p))
        assert (abs(seen - draws * p) < 4 * sigma).all(), seen

    def test_memory_grows_with_hits_not_total(self):
        # 2^24 positions at p = 0.05: about 839,000 hits, 6.4 MiB as
        # int64, where an array over every position would take 128 MiB
        rng = np.random.Generator(np.random.Philox(key=[34, 0]))
        tracemalloc.start()
        try:
            pos = mcsim._sparse_hits(rng, 1 << 24, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * pos.nbytes, (peak, pos.nbytes)
        assert (np.diff(pos) > 0).all() and 0 <= pos[0] and pos[-1] < 1 << 24

    def test_kinds_are_a_third_each(self):
        rng = np.random.Generator(np.random.Philox(key=[33, 0]))
        _, kind = mcsim._data_hits(rng, 1 << 20, 0.05)
        n = kind.size
        counts = np.bincount(kind, minlength=3)
        assert counts.size == 3  # 0 X, 1 Y, 2 Z
        sigma = math.sqrt(n / 3 * (2 / 3))
        for count in counts:
            assert abs(count - n / 3) < 4 * sigma


# the engine draws the classes of the trials that read one syndrome
# in every cycle from that syndrome's coset; each setting stresses
# one kind of trial.  Trials with no fault: mostly-clean.  Accepted
# trials with faults: readout flips masking a branch syndrome
# (readout-only; r = 1 for single flips), the phase-flip code's X
# faults, whose syndrome is 0, and an injected Z.  high-noise puts
# about 0.6 % (surface) and 0.08 % (perfect) of the trials with faults
# among those with four or more, the only ones simulated; every trial
# with at most three faults draws its class from the plan's table.  The
# perfect code's generators mix X and Z on one qubit.
ORACLE_NOISES = [
    (NoiseModel(p_in=2e-3, r=2), False, "mostly-clean"),
    (NoiseModel(p_in=0.0, r=2, readout_flip=0.05), False, "readout-only"),
    (NoiseModel(p_in=0.0, r=1, readout_flip=0.05), False, "readout-only-r1"),
    (NoiseModel(p_in=1e-2, r=2), True, "inject-z-with-noise"),
]
ORACLE_CODES = [("surface", 3, "surface3"), ("perfect", None, "perfect"),
                ("phase-flip", 3, "phase-flip3")]


class TestRunPrepTrial:
    def test_noiseless_acceptance_is_branch_filter(self, surface3):
        # even without substrate noise the checks see the branch bits,
        # so only signature-zero branches (b = 0 or all-ones) survive
        rng = np.random.Generator(np.random.Philox(key=[3, 0]))
        nm = NoiseModel(p_in=0.0)
        theta = 0.7
        outs = [oracles.run_prep_trial(surface3, theta, nm, rng) for _ in range(2_000)]
        acc = [o for o in outs if o.accepted]
        assert acc and len(acc) < len(outs)
        assert all(o.branch_weight == 0 for o in acc)
        assert all(o.infidelity_sample == 0.0 for o in acc)
        s2 = math.sin(theta / 2) ** 2
        p_coh = (1 - s2) ** 3 + s2 ** 3
        n = len(outs)
        assert abs(len(acc) / n - p_coh) < 4 * math.sqrt(p_coh * (1 - p_coh) / n)

    def test_rejected_trials_have_no_sample(self, surface3):
        rng = np.random.Generator(np.random.Philox(key=[4, 0]))
        nm = NoiseModel(p_in=0.05, r=2)
        outs = [oracles.run_prep_trial(surface3, 0.7, nm, rng) for _ in range(500)]
        rejected = [o for o in outs if not o.accepted]
        assert rejected, "p_in=0.05 over two cycles should reject some trials"
        assert all(o.infidelity_sample is None for o in rejected)

    def test_scalar_agrees_with_vectorized(self, surface3):
        # independent code paths, statistical comparison only
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        nm = NoiseModel(p_in=0.02, r=1)
        oracle = oracle_stats(surface3, 0.8, nm, 30_000, rng)
        vec = mcsim.estimate(surface3, 0.8, None, nm, 400_000, seed=6, threads=4)
        z_rate, z_mean = pulls(oracle, vec)
        assert z_rate < 4.0, z_rate
        assert z_mean < 4.0, z_mean

    @pytest.mark.parametrize(
        "name, d, noise, inject",
        [
            pytest.param(name, d, noise, inject, id=f"{code_id}-{noise_id}")
            for name, d, code_id in ORACLE_CODES
            for noise, inject, noise_id in ORACLE_NOISES
        ]
        + [
            pytest.param(name, d, NoiseModel(p_in=2e-2, r=2), False, id=f"{code_id}-high-noise")
            for name, d, code_id in ORACLE_CODES[:2]
        ],
    )
    def test_sparse_engine_matches_oracle(self, name, d, noise, inject):
        code = codes.get_code(name, d)
        inject_z = code.z_support[1] if inject else None
        rng = np.random.Generator(np.random.Philox(key=[8, 0]))
        oracle = oracle_stats(code, 0.8, noise, 30_000, rng, inject_z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            st = mcsim.estimate(code, 0.8, None, noise, 1_000_000, seed=9, inject_z=inject_z)
        z_rate, z_mean = pulls(oracle, st)
        assert z_rate < 4.0, z_rate
        assert z_mean < 4.0, z_mean


class TestExactLaw:
    """The engine against the exact class probabilities of
    `oracles.exact_class_probabilities`, at noise where most trials with
    faults hold two or more.  The seed was picked once and is frozen."""

    # Z on the support (its second qubit) reads a branch syndrome; Z on
    # the surface code's qubit 1, off the support, reads none, so a trial
    # is accepted only where a fault's signature cancels the Z's
    @pytest.mark.parametrize(
        "name, d, noise, inject",
        [
            pytest.param(name, d, noise, inject, id=f"{code_id}-{noise_id}")
            for name, d, code_id in [("surface", 3, "surface3"), ("perfect", None, "perfect")]
            for noise, inject, noise_id in [
                (NoiseModel(p_in=5e-2, r=2), None, "heavy"),
                (NoiseModel(p_in=5e-2, r=2), "support", "heavy-inject-z"),
                (NoiseModel(p_in=0.0, r=1, readout_flip=0.3), None, "heavy-readout-r1"),
            ]
        ]
        + [pytest.param("surface", 3, NoiseModel(p_in=5e-2, r=2), 1,
                        id="surface3-heavy-inject-z-off-support")],
    )
    def test_engine_matches_exact_law(self, name, d, noise, inject):
        code = codes.get_code(name, d)
        inject_z = code.z_support[1] if inject == "support" else inject
        want = oracles.exact_class_probabilities(code, 0.8, noise, inject_z)
        n = 4_000_000
        st = mcsim.estimate(code, 0.8, None, noise, n, seed=3, inject_z=inject_z)
        got = np.array(st.branch_histogram) / n
        for q, p in [*zip(got, want), (got.sum(), want.sum())]:
            assert abs(q - p) < 4 * math.sqrt(p * (1 - p) / n), (got, want)

    def test_chunked_engine_matches_exact_law(self, monkeypatch):
        # the trials with four or more faults, about 5 % here, drawn and
        # read 7 at a time: the chunk boundaries are part of the draw
        # order, and the law must not depend on them
        code = codes.get_code("surface", 3)
        noise = NoiseModel(p_in=5e-2, r=2)
        monkeypatch.setattr(mcsim, "_READ_CELLS", 2 * noise.r * 7)
        want = oracles.exact_class_probabilities(code, 0.8, noise, None)
        n = 400_000
        st = mcsim.estimate(code, 0.8, None, noise, n, seed=3)
        got = np.array(st.branch_histogram) / n
        for q, p in [*zip(got, want), (got.sum(), want.sum())]:
            assert abs(q - p) < 4 * math.sqrt(p * (1 - p) / n), (got, want)


class TestPlan:
    """The plan against closed forms and the scalar walk: its chain of
    tails, P4+ among them, against the slot odds, the table of the
    trials with at most two faults against the walk over every set of
    one and two fault locations, walked once per (code, r), and the slot
    draws at the ends of their ranges.  The sets of three events are
    checked against the walk in `test_codes.py`."""

    @staticmethod
    def plan(code, noise):
        mult = code.error_multiplicities
        return mcsim._plan(mult, noise, None)

    @staticmethod
    def slot_odds(code, noise):
        """(P0, o, g, data slots, flip slots): o = p/(1-p) and g = f/(1-f)."""
        r, p, f = noise.r, noise.p_in, noise.readout_flip
        data, flips = r * code.n, r * len(code.stabilizers)
        return (1 - p) ** data * (1 - f) ** flips, p / (1 - p), f / (1 - f), data, flips

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize(
        "name, d", [("surface", 3), ("surface", 5), ("phase-flip", 5), ("perfect", None)]
    )
    def test_strata_and_single_faults(self, name, d, r):
        # P4+ against 1 - P0 - P1 - P2 - P3 and against the sum over the
        # sets of four or more slots, each weighted P0 times their odds;
        # the chain's other heads, P3+, P2+ and P1+, the same way
        code = codes.get_code(name, d)
        noise = NoiseModel(p_in=2e-3, r=r)
        p0, o, g, data, flips = self.slot_odds(code, noise)

        def exactly(k):  # P0 e_k over the slot odds
            return p0 * sum(math.comb(data, i) * o**i * math.comb(flips, k - i) * g ** (k - i)
                            for i in range(max(0, k - flips), min(k, data) + 1))

        tails = self.plan(code, noise).tails
        assert tails.shape == (4, data + flips + 1) and (tails[:, -1] == 0).all()
        for level, at_least in enumerate((4, 3, 2, 1)):
            head = tails[level, 0]
            assert head == pytest.approx(1 - math.fsum(map(exactly, range(at_least))), rel=1e-12)
            assert head == pytest.approx(
                math.fsum(exactly(k) for k in range(at_least, data + flips + 1)), rel=1e-12)

    @pytest.mark.parametrize(
        "name, d, r, inject",
        [
            pytest.param(name, d, r, None, id=f"{name}-{d}-{r}")
            for name, d in [("surface", 3), ("surface", 5), ("phase-flip", 5), ("perfect", None)]
            for r in (1, 2, 3)
        ]
        + [
            pytest.param(name, d, r, inject, id=f"{name}-{d}-{r}-z-{inject}")
            for name, d in [("surface", 3), ("perfect", None)]
            for r in (1, 2)
            for inject in ("support", "off-support")
        ],
    )
    def test_two_fault_stratum(self, name, d, r, inject):
        # P(at most three faults, accepted in class m) from the table, less
        # the table's sets of three weighted P0 o o o, against P0 on the
        # no-fault trials' branch syndrome 0, plus the walk's one-fault
        # sets weighted P0 o and its two-fault sets P0 o o, with o =
        # (p/3)/(1-p) for a data fault's kind.  With a Z injected on a
        # support qubit (a branch syndrome) or off the support (none), the
        # walk's frame starts with the Z, and its empty set is counted too
        code = codes.get_code(name, d)
        inject_z = None
        if inject is not None:
            off_support = [q for q in range(code.n) if q not in code.z_support]
            inject_z = code.z_support[1] if inject == "support" else off_support[0]
        noise = NoiseModel(p_in=2e-3, r=r)
        p0, _, g, _, _ = self.slot_odds(code, noise)
        a = noise.p_in / 3 / (1 - noise.p_in)
        mult = code.error_multiplicities
        plan = mcsim._plan(mult, noise, inject_z)
        theta = 0.8
        got = mcsim._batch_law(plan, theta)
        assert got[-2] == plan.tails[0, 0] and got[-1] == 0.0
        s2, c2 = math.sin(theta / 2) ** 2, math.cos(theta / 2) ** 2
        walk = oracles.fault_set_counts(code, noise.r, inject_z)
        empty = [int(m == 0) if inject_z is None else counts[5] for m, counts in enumerate(walk)]
        target = 0
        if inject_z is not None:  # the Z's form, `_reduce`'s rest << d | b0
            rows = codes._branch_basis(mult.branch_columns)[0]
            rest, b0 = codes._reduce(rows, mult.channels[3 * inject_z + 2])
            target = rest << code.d | b0
        triples = codes._fault_set_counts(mult, noise.r, target)
        want = np.array([
            (empty[m] + counts[0] * a + counts[1] * g
             + counts[2] * a * a + counts[3] * a * g + counts[4] * g * g
             + np.dot(triples[m][5:], (a**3, a * a * g, a * g * g, g**3))) * p0
            * (s2**m * c2 ** (code.d - m) + s2 ** (code.d - m) * c2**m)
            for m, counts in enumerate(walk)
        ])
        assert want[1] > 0 and all(any(row[5:]) for row in triples)
        assert got[:-2] == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(p_in=1e-3, r=2, readout_flip=0.0), NoiseModel(p_in=0.0, r=2, readout_flip=1e-3)],
        ids=["zero-tail", "zero-head"],
    )
    def test_inverse_cdf_edges(self, surface3, noise):
        # a run of zero-weight slots at either end; uniforms 0 and the
        # largest double below 1 pick, at each of the four draws of a trial
        # with four or more faults, the first slot of positive weight from
        # the slot after the last draw, and the last one that leaves room
        # for the faults still to come: J < K < L < M
        plan = self.plan(surface3, noise)
        slots = plan.row.size
        positive = np.flatnonzero(np.repeat([noise.p_in, noise.readout_flip],
                                            [plan.n_data, slots - plan.n_data]))
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        levels = len(plan.tails)

        def draw(level, start):
            tail = plan.tails[level]
            picked = mcsim._inverse_cdf(tail, np.full(2, start), u)
            assert picked.tolist() == [start if level else positive[0],
                                       positive[level - levels]], (level, start)
            assert (tail[picked] > tail[picked + 1]).all()
            if level + 1 < levels:
                for j in picked.tolist():
                    draw(level + 1, j + 1)

        draw(0, 0)


@pytest.mark.parametrize(
    "name, d", [(name, d) for name in ("surface", "phase-flip") for d in (3, 5, 7)]
    + [("perfect", None)]
)
def test_plan_forms_are_the_reduction_of_every_location(name, d):
    # the plan's table and injected Z's words against a route of their
    # own: each location's check mask reduced against the branch
    # columns' echelon rows, as rest << d | b0.  The locations are the 3n
    # single-qubit channels, qubit-major X Y Z, then the checks' readout
    # flips; the Z on qubit q is its third channel, for every q
    code = codes.get_code(name, d)
    mult = code.error_multiplicities
    rows = codes._branch_basis(mult.branch_columns)[0]
    width = -(-(mult.n_checks + code.d) // 64)

    def words(mask):
        rest, b0 = codes._reduce(rows, mask)
        form = rest << code.d | b0
        return [form >> 64 * w & (1 << 64) - 1 for w in range(width)]

    noise = NoiseModel(p_in=1e-3, r=1)
    plan = mcsim._plan(mult, noise, None)
    locations = [*mult.channels, *(1 << i for i in range(mult.n_checks))]
    assert plan.table.T.tolist() == [words(mask) for mask in locations]
    assert plan.injected.tolist() == words(0)
    for q in range(code.n):
        injected = mcsim._plan(mult, noise, q).injected
        assert injected.tolist() == words(mult.channels[3 * q + 2]), q


class TestUntouchedClasses:
    """The class probabilities of the trials that read one syndrome, against
    all 2^d strings."""

    @staticmethod
    def brute_force(code, theta, syndrome):
        s2 = math.sin(theta / 2) ** 2
        q = np.zeros(code.d // 2 + 2)
        for b in range(1 << code.d):
            z = 0
            for i, qubit in enumerate(code.z_support):
                z ^= (b >> i & 1) << qubit
            bits = oracles.syndrome(oracles.PauliString(code.n, 0, z), code)
            w = bin(b).count("1")
            prob = s2**w * (1 - s2) ** (code.d - w)
            if sum(bit << i for i, bit in enumerate(bits)) == syndrome:
                q[min(w, code.d - w)] += prob
            else:
                q[-1] += prob
        return q

    @pytest.mark.parametrize(
        "name, d", [("surface", 3), ("surface", 5), ("phase-flip", 5), ("perfect", None)]
    )
    def test_against_every_branch_string(self, name, d):
        # every branch syndrome (0 among them), each single channel's
        # syndrome (the injected Zs among them) and each readout flip's.
        # The engine names a syndrome by its reduction (rest, b0) against
        # the branch columns, and reads its classes from b0 when rest = 0
        code = codes.get_code(name, d)
        mult = code.error_multiplicities
        rows = codes._branch_basis(mult.branch_columns)[0]
        branch = {0}
        for col in mult.branch_columns:
            branch |= {s ^ col for s in branch}
        flips = [1 << i for i in range(len(code.stabilizers))]
        for syndrome in sorted(branch | set(mult.channels) | set(flips)):
            want = self.brute_force(code, 0.7, syndrome)
            rest, b0 = codes._reduce(rows, syndrome)
            assert (rest == 0) == (syndrome in branch), syndrome
            if rest:
                assert not want[:-1].any()
                continue
            got = mcsim._coset_classes(mult.branch_columns, 0.7, b0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), syndrome
            assert got.sum() == pytest.approx(1.0, rel=1e-15)


class TestEstimate:
    NM = NoiseModel(p_in=1e-3, r=2)

    def test_golden_run(self, surface3):
        # 18.7 accepted weight-1 trials expected (20 seen): no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            st = mcsim.estimate(surface3, 0.5, None, self.NM, 200_000, seed=11, threads=4)
        assert st.accepted == 161063
        assert st.acceptance_rate == pytest.approx(0.805315, abs=1e-12)
        assert st.mean_infidelity == pytest.approx(8.621623520183926e-06, rel=1e-12, abs=0)
        assert st.branch_histogram == (161043, 20)
        assert st.seed == 11
        assert st.params["stream"] == 9

    def test_thread_count_invariance(self, surface3):
        import warnings

        # 25 batches: at least 3 per worker for every thread count here
        kw = dict(code=surface3, theta=0.5, theta_l_target=None, noise=self.NM,
                  batch_size=1 << 13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            a = mcsim.estimate(**kw, n_trials=200_000, seed=11, threads=1)
            b = mcsim.estimate(**kw, n_trials=200_000, seed=11, threads=4)
            c = mcsim.estimate(**kw, n_trials=200_000, seed=11, threads=7)
            e = mcsim.estimate(**kw, n_trials=200_000, seed=11, threads=2)
        assert a.to_dict() == b.to_dict() == c.to_dict() == e.to_dict()

    def test_seed_changes_result(self, surface3):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            a = mcsim.estimate(surface3, 0.5, None, self.NM, 50_000, seed=1)
            b = mcsim.estimate(surface3, 0.5, None, self.NM, 50_000, seed=2)
        assert a.accepted != b.accepted

    def test_acceptance_matches_model(self, surface3):
        import warnings

        cfg = analytics.RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)
        ps = analytics.success_rate(cfg, surface3.n, len(surface3.stabilizers)).p_s
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            st = mcsim.estimate(surface3, 0.5, None, self.NM, 400_000, seed=21, threads=4)
        assert abs(st.acceptance_rate - ps) < 3 * st.acceptance_stderr

    def test_acceptance_counts_the_accepted_faults(self, surface3):
        # at 1e8 trials the stderr is 4.9e-5 of p_s, and p_s's
        # accepted-fault mass is 1.20e-4 of p_s_in p_s_coh (2.4 sigma);
        # the seed was picked once and is frozen
        import warnings

        cfg = analytics.RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)
        sr = analytics.success_rate(cfg, surface3.n, len(surface3.stabilizers))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            st = mcsim.estimate(surface3, 0.5, None, self.NM, 100_000_000, seed=7)
        print(f"z = {(st.acceptance_rate - sr.p_s) / st.acceptance_stderr:+.2f}, "
              f"{(st.acceptance_rate - sr.p_s_in * sr.p_s_coh) / st.acceptance_stderr:+.2f} "
              "against p_s_in p_s_coh")
        assert abs(st.acceptance_rate - sr.p_s) < 3 * st.acceptance_stderr

    def test_injected_z_isolates_single_branch(self, surface3):
        mid = surface3.z_support[1]
        st = mcsim.estimate(
            surface3,
            0.5,
            None,
            NoiseModel(p_in=0.0, r=1),
            50_000,
            seed=3,
            inject_z=mid,
        )
        # only b in {e_mid, complement} passes the checks, so every
        # accepted trial sits in the weight-1 class and the mean is the
        # closed form with zero variance
        assert st.branch_histogram[0] == 0
        assert st.mean_infidelity == analytics.branch_infidelity(1, 3, 0.5)
        assert st.infidelity_stderr == 0.0
        s2, c2 = math.sin(0.25) ** 2, math.cos(0.25) ** 2
        assert abs(st.acceptance_rate - s2 * c2) < 4 * st.acceptance_stderr

    def test_injected_z_run_does_not_warn(self, surface3):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            mcsim.estimate(
                surface3,
                0.5,
                None,
                NoiseModel(p_in=1e-3, r=1),
                2_000,
                seed=3,
                inject_z=surface3.z_support[0],
            )

    def test_batch_size_changes_partition(self, surface3):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            a = mcsim.estimate(surface3, 0.5, None, self.NM, 200_000, seed=11)
            b = mcsim.estimate(
                surface3, 0.5, None, self.NM, 200_000, seed=11, batch_size=7777
            )
        assert a.accepted != b.accepted  # different stream layout, same law

    def test_readout_flip_override_reaches_model(self, surface3):
        # the model must see the same readout-flip rate as the engine
        noise = NoiseModel(p_in=1e-3, r=2, readout_flip=0.05)
        cfg = analytics.RotationConfig(theta=0.5, d=3, **vars(noise))
        assert cfg.readout_flip == 0.05
        ps = analytics.success_rate(cfg, surface3.n, len(surface3.stabilizers)).p_s
        # 3.62 accepted weight-1 trials expected, so it warns
        warns = pytest.warns(RareEventWarning, match="expected about 3.62 accepted weight-1")
        with warns as record:
            st = mcsim.estimate(surface3, 0.5, None, noise, 20_000, seed=11)
        assert abs(st.acceptance_rate - ps) < 4 * st.acceptance_stderr
        # both weight a flip by f/(1-f); the warning's exact mean also
        # holds the sets of three faults, which the model leaves out
        rate = float(re.search(r"exact mean (\S+);", str(record[0].message)).group(1))
        model = analytics.accepted_error_model(cfg, surface3.error_multiplicities)
        assert model / rate == pytest.approx(1.0, abs=2e-3), model / rate
        assert rate == pytest.approx(3.51e-5, rel=1e-3)

    # the golden setting expects 9.33e-5 accepted weight-1 trials per
    # trial (class 1 of the engine's exact law, all of its mean), so the
    # warning threshold of 10 sits at N = 107,146
    def test_warns_below_ten_weight1_trials(self, surface3):
        with pytest.warns(RareEventWarning, match="expected about 9.33 accepted weight-1"):
            mcsim.estimate(surface3, 0.5, None, self.NM, 100_000, seed=11)

    def test_quiet_from_ten_weight1_trials(self, surface3):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            mcsim.estimate(surface3, 0.5, None, self.NM, 110_000, seed=11)

    def test_quiet_where_weight1_is_exact(self, surface3):
        # at theta = 0 every class has infidelity 0: nothing to resolve
        assert analytics.branch_infidelity(1, 3, 0.0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            mcsim.estimate(surface3, 0.0, None, self.NM, 1_000, seed=11)

    def test_warns_on_a_rare_class_that_holds_the_mean(self, monkeypatch):
        # surface d = 7, theta 0.357: class 3 holds 20 % of the exact mean
        # and expects 0.087 accepted trials in 4e9; class 2 holds 3.7 % and
        # expects 15.  The run itself is skipped: the warning comes first
        monkeypatch.setattr(mcsim, "_philox_batches", lambda *args: iter(()))
        code = codes.get_code("surface", 7)
        text = r"expected about 0\.087 accepted weight-3 trials at N=4000000000, 20%"
        with pytest.warns(RareEventWarning, match=text):
            mcsim.estimate(code, 0.357, None, self.NM, 4_000_000_000, seed=77)

    def test_quiet_at_the_benchmark_setting(self):
        # surface d = 5, theta 0.8, 2^19 trials: class 1 expects 89
        # accepted trials, and class 2 holds 0.56 % of the exact mean
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            mcsim.estimate(codes.get_code("surface", 5), 0.8, None, self.NM, 1 << 19, seed=1)

    def test_readout_only_noise_warns(self, surface3):
        # readout flips alone feed class 1 through r-fold masking: 2.80
        # accepted weight-1 trials expected at 20,000 trials
        noise = NoiseModel(p_in=0.0, r=2, readout_flip=0.05)
        with pytest.warns(RareEventWarning, match="expected about 2.8 accepted weight-1"):
            mcsim.estimate(surface3, 0.5, None, noise, 20_000, seed=11)
        # without noise no fault set reaches class 1: nothing expected
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            mcsim.estimate(surface3, 0.5, None, NoiseModel(p_in=0.0), 1_000, seed=11)

    @pytest.mark.parametrize(
        "theta,target", [(4.0, None), (-0.1, 0.1), (math.nan, None)]
    )
    def test_theta_outside_domain_refused_before_warning(self, surface3, theta, target):
        # 1,000 trials at p_in=1e-3 would warn; the bad angle stops first
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            with pytest.raises(ValueError, match=r"theta must be in \[0, pi\]"):
                mcsim.estimate(surface3, theta, target, self.NM, 1_000, seed=1)

    def test_simulability_is_structural(self, surface3):
        custom = dataclasses.replace(surface3, name="custom")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            a = mcsim.estimate(surface3, 0.5, None, self.NM, 20_000, seed=11).to_dict()
            b = mcsim.estimate(custom, 0.5, None, self.NM, 20_000, seed=11).to_dict()
        assert b["params"].pop("code") == "custom"
        assert a["params"].pop("code") == "surface"
        assert a == b

    def test_unsupported_code(self):
        # weight-2 logical Z: the projected rotation is a filter
        with pytest.raises(ValueError, match="'four-qubit' gives no rotation state"):
            mcsim.estimate(
                codes.get_code("four-qubit"), 0.5, None, NoiseModel(p_in=0.0), 1_000, seed=1
            )

    def test_validation(self, surface3):
        with pytest.raises(ValueError):
            mcsim.estimate(surface3, 0.5, None, self.NM, 0, seed=1)
        with pytest.raises(ValueError, match="threads"):
            mcsim.estimate(surface3, 0.5, None, NoiseModel(p_in=0.0), 10, seed=1, threads=0)
        with pytest.raises(ValueError):
            mcsim.estimate(surface3, 0.5, None, self.NM, 10, seed=1, batch_size=0)
        with pytest.raises(ValueError):
            mcsim.estimate(surface3, 0.5, None, self.NM, 10, seed=1, inject_z=99)

    def test_bad_threads_rejected_before_warning(self, surface3):
        # 1,000 trials at p_in=1e-3 would warn; the bad option stops first
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            with pytest.raises(ValueError, match="threads must be >= 1"):
                mcsim.estimate(surface3, 0.5, None, self.NM, 1_000, seed=1, threads=0)

    def test_slot_count_bounded_before_planning(self, surface3, monkeypatch):
        # r cycles give r (n + checks) fault slots; up to MAX_SLOTS the
        # run is planned, past it refused before any plan is built
        class Planned(Exception):
            pass

        def plan(*args):
            raise Planned

        monkeypatch.setattr(mcsim, "_plan", plan)
        r_max = mcsim.MAX_SLOTS // (surface3.n + len(surface3.stabilizers))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            with pytest.raises(Planned):
                mcsim.estimate(surface3, 0.5, None, NoiseModel(p_in=1e-3, r=r_max), 1, seed=1)
            for r in (r_max + 1, 10_000_000):
                with pytest.raises(ValueError, match="fault slots"):
                    mcsim.estimate(surface3, 0.5, None, NoiseModel(p_in=1e-3, r=r), 1, seed=1)

    def test_trials_certain_to_hold_two_faults(self, surface3):
        # at r = 3,000 a trial holds about 43 faults, and P2+ sums to
        # 1 + 6e-15, which the strata multinomial must still take
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RareEventWarning)
            st = mcsim.estimate(surface3, 0.5, None, NoiseModel(p_in=1e-3, r=3_000), 64, seed=1)
        assert (st.trials, st.accepted) == (64, 0)

    def test_phase_flip_matches_error_model(self):
        # Y on a support qubit has Z's X-check signature, so the model
        # must count 2d first-order channels (with d it is 8 sigma low)
        code = codes.get_code("phase-flip", 3)
        noise = NoiseModel(p_in=5e-3, r=2)
        cfg = analytics.RotationConfig(theta=0.5, d=3, **vars(noise))
        model = analytics.accepted_error_model(cfg, code.error_multiplicities)
        st = mcsim.estimate(code, 0.5, None, noise, 500_000, seed=5, threads=1)
        assert abs(st.mean_infidelity - model) < 4 * st.infidelity_stderr

    def test_model_normalizes_by_the_accepted_share(self):
        # every X fault on the phase-flip code has zero syndrome and is
        # accepted in class 0, 4.1 % of the accepted trials here; a model
        # normalized by the clean branch-pair weight p_s_coh alone reads
        # z = -5.2 at this seed.  The seed was picked once and is frozen
        code = codes.get_code("phase-flip", 5)
        noise = NoiseModel(p_in=1e-2, r=2)
        cfg = analytics.RotationConfig(theta=0.8, d=5, **vars(noise))
        model = analytics.accepted_error_model(cfg, code.error_multiplicities)
        st = mcsim.estimate(code, 0.8, None, noise, 20_000_000, seed=2811)
        z = (st.mean_infidelity - model) / st.infidelity_stderr
        assert abs(z) <= 3.0, z

    def test_perfect_code_matches_error_model(self):
        # mixed X/Z generators; about 2,500 accepted weight-1 trials
        code = codes.get_code("perfect")
        noise = NoiseModel(p_in=1e-3, r=2)
        cfg = analytics.RotationConfig(theta=0.8, d=3, **vars(noise))
        model = analytics.accepted_error_model(cfg, code.error_multiplicities)
        st = mcsim.estimate(code, 0.8, None, noise, 20_000_000, seed=5, threads=2)
        assert abs(st.mean_infidelity - model) < 4 * st.infidelity_stderr

    def test_second_order_sets_resolved(self):
        # surface d=5, r=2: two-fault sets into the weight-2 class put the
        # model 11.5 % above its first-order part here.  4e7 trials resolve
        # that gap at about 7 sigma; the full model must hold within 3.
        # The seed was picked once and is frozen.
        code = codes.get_code("surface", 5)
        noise = NoiseModel(p_in=1e-2, r=2)
        cfg = analytics.RotationConfig(theta=0.6, d=5, **vars(noise))
        full = code.error_multiplicities
        model = analytics.accepted_error_model(cfg, full)
        first_order = oracles.first_order_error(cfg, oracles.first_order_multiplicity(code))
        st = mcsim.estimate(code, 0.6, None, noise, 40_000_000, seed=17, threads=2)
        z_model = (st.mean_infidelity - model) / st.infidelity_stderr
        z_first = (st.mean_infidelity - first_order) / st.infidelity_stderr
        assert abs(z_model) < 3.0, z_model
        assert z_first > 4.0, z_first

    def test_two_word_syndromes(self):
        # surface d=9 has 80 checks, so a syndrome spans two 64-bit words;
        # flips on checks 64-79 must reject as the others do.  The seed was
        # picked once and is frozen.
        code = codes.get_code("surface", 9)
        noise = NoiseModel(p_in=1e-3, r=2, readout_flip=1e-3)
        cfg = analytics.RotationConfig(theta=0.8, d=9, **vars(noise))
        p_s = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
        st = mcsim.estimate(code, 0.8, None, noise, 1_000_000, seed=29)
        z = (st.acceptance_rate - p_s) / st.acceptance_stderr
        assert abs(z) < 4.0, z

    def test_to_dict_schema(self, surface3):
        st = mcsim.estimate(
            surface3, 0.5, None, NoiseModel(p_in=0.0), 1_000, seed=5
        )
        d = st.to_dict()
        assert set(d) == {
            "trials",
            "accepted",
            "acceptance_rate",
            "acceptance_stderr",
            "mean_infidelity",
            "infidelity_stderr",
            "branch_histogram",
            "seed",
            "params",
        }
        assert d["params"]["code"] == "surface"
        assert d["params"]["theta_l_target"] == analytics.logical_angle(0.5, 3)

    def test_progress_callback(self, surface3):
        seen = []
        mcsim.estimate(
            surface3,
            0.5,
            None,
            NoiseModel(p_in=0.0),
            30_000,
            seed=5,
            batch_size=10_000,
            progress=lambda i, n: seen.append((i, n)),
        )
        assert sorted(seen) == [(1, 3), (2, 3), (3, 3)]


class TestMultiFaultChunks:
    """`_run_batch` draws and reads its trials with four or more faults
    in chunks of at most `_READ_CELLS` (row, trial) words."""

    @staticmethod
    def run_batch(code, noise, size):
        """The batch, and the count n4 of its trials with four or more
        faults, which its first draw gives."""
        mult = code.error_multiplicities
        plan = mcsim._plan(mult, noise, None)
        classes = functools.partial(mcsim._coset_classes, mult.branch_columns, 0.8)
        law = mcsim._batch_law(plan, 0.8)

        def rng():
            return np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))

        n4 = int(rng().multinomial(size, law)[-2])
        return lambda: mcsim._run_batch(plan, classes, law, rng(), size), n4

    def test_chunks_read_what_one_call_reads(self, surface3, monkeypatch):
        # about 2,560 of 4,096 trials hold four or more faults; with
        # chunks of 7 trials every `_readings` call reads at most 7, and
        # the calls together read each of the n4 trials once
        noise = NoiseModel(p_in=3e-2, r=10)
        readings = mcsim._readings
        seen = []

        def spy(plan, trial, slot, kind, n_trials):
            assert trial.size == 0 or 0 <= trial.min() and trial.max() < n_trials
            seen.append(readings(plan, trial, slot, kind, n_trials))
            return seen[-1]

        monkeypatch.setattr(mcsim, "_readings", spy)
        monkeypatch.setattr(mcsim, "_READ_CELLS", 2 * noise.r * 7)
        run, n4 = self.run_batch(surface3, noise, 4096)
        hist = run()
        assert n4 > 2_000 and max(b0.size for b0 in seen) == 7
        assert sum(b0.size for b0 in seen) == n4 and len(seen) == -(-n4 // 7)
        assert 0 < hist.sum() < 4096

    def test_flat_draws_kept_only_after_the_fourth_fault(self, surface3, monkeypatch):
        # data faults only, so M is a data slot, and the flat draw hits a
        # trial's M slot in about 10 % of the trials with four or more
        # faults.  Every call holds each trial's J < K < L < M first, then
        # only flat-draw faults on slots past that trial's M
        noise = NoiseModel(p_in=1e-1, r=4, readout_flip=0.0)
        readings = mcsim._readings
        later = []

        def spy(plan, trial, slot, kind, n_trials):
            assert (trial[: 4 * n_trials] == np.tile(np.arange(n_trials), 4)).all()
            j, k, l, m = slot[: 4 * n_trials].reshape(4, n_trials)
            assert (j < k).all() and (k < l).all() and (l < m).all()
            assert (slot[4 * n_trials:] > m[trial[4 * n_trials:]]).all()
            later.append(trial.size - 4 * n_trials)
            return readings(plan, trial, slot, kind, n_trials)

        monkeypatch.setattr(mcsim, "_readings", spy)
        monkeypatch.setattr(mcsim, "_READ_CELLS", 2 * noise.r * 256)
        run, n4 = self.run_batch(surface3, noise, 4096)
        run()
        assert n4 > 1_500 and len(later) == -(-n4 // 256) and sum(later) > 0

    def test_reached_b0s_draw_in_ascending_order(self, surface3, monkeypatch):
        # the class draws of the b0s that the simulated trials reach come
        # in ascending b0 order, each once; at p_in = 0.1, r = 1 they
        # reach several
        coset_classes = mcsim._coset_classes
        drawn = []

        def spy(columns, theta, b0):
            drawn.append(b0)
            return coset_classes(columns, theta, b0)

        monkeypatch.setattr(mcsim, "_coset_classes", spy)
        run, n4 = self.run_batch(surface3, NoiseModel(p_in=1e-1, r=1), 1 << 14)
        run()
        assert n4 > 500 and len(drawn) > 1 and drawn == sorted(set(drawn))

    @staticmethod
    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_batch_memory_does_not_grow_with_r(self):
        # one 2^18-trial batch at surface d = 5, p_in = 1e-3, r = 100:
        # about 92 % of its trials hold two or more faults, and reading
        # them in one call held 2 r words per trial, about 600 MiB
        run, _ = self.run_batch(codes.get_code("surface", 5), NoiseModel(p_in=1e-3, r=100), 1 << 18)
        peak = self.peak(run)
        assert peak <= 128 << 20, peak / 2**20

    def test_batch_memory_does_not_grow_with_faults(self, surface3):
        # one 2^16-trial batch at r = 4,000, about 57 faults per trial:
        # drawing every trial's faults before reading any held about 150 MiB
        run, n3 = self.run_batch(surface3, NoiseModel(p_in=1e-3, r=4_000), 1 << 16)
        peak = self.peak(run)
        assert n3 == 1 << 16 and peak <= 32 << 20, peak / 2**20


class TestPhiloxBatches:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_draws_are_the_keyed_philox_streams(self, threads):
        # batch i must draw what Philox(key=[seed, i]) draws, however the
        # batches fall on the threads, through the 32-bit and the 64-bit
        # paths, up to the largest seed
        def fn(rng, size):
            return rng.random(size), rng.integers(0, 3, size=size, dtype=np.int32)

        for seed in (0, 1, (1 << 64) - 1):
            for i, (u, k) in enumerate(mcsim._philox_batches(seed, 40, 5, fn, threads)):
                key = np.array([seed, i], dtype=np.uint64)
                want = np.random.Generator(np.random.Philox(key=key))
                assert (u == want.random(5)).all(), (seed, i)
                assert (k == want.integers(0, 3, size=5, dtype=np.int32)).all(), (seed, i)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_memory_does_not_grow_with_batches(self, threads):
        # each batch returns 1 KiB; a caller that folds the results as
        # they come must hold the same peak for 2,000 batches as for
        # 8,000 (a list of every result would add about 6 MiB)
        def peak(n_batches):
            tracemalloc.start()
            try:
                total = 0
                for out in mcsim._philox_batches(
                    1, n_batches, 1, lambda rng, size: np.zeros(128), threads
                ):
                    total += out.size
                assert total == 128 * n_batches
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(8_000)
        assert large < small + 256 * 1024, (small, large)

    def test_partition(self):
        out = list(mcsim._philox_batches(5, 50, 3, lambda rng, size: size, threads=2))
        assert out == [3] * 16 + [2]

    def test_results_in_batch_order(self):
        # earlier batches sleep longer, so with two workers later batches
        # finish first.  Results still come in batch order and match one
        # thread's, and no batch starts more than 2 x workers batches
        # ahead of the one being handed back
        n = 16
        workers = mcsim._worker_count(2, n)
        started, finished = [], []

        def fn(rng, size):
            i = int(rng.bit_generator.state["state"]["key"][1])
            started.append(i)
            time.sleep((n - i) * 2e-3)
            finished.append(i)
            return i, int(rng.integers(1 << 62))

        out = []
        for result in mcsim._philox_batches(5, n, 1, fn, threads=2):
            assert max(started) < len(out) + 2 * workers, (started, len(out))
            out.append(result)
        assert [i for i, _ in out] == list(range(n))
        if workers > 1:
            assert finished != sorted(finished)
        assert out == list(mcsim._philox_batches(5, n, 1, fn, threads=1))


class TestWorkerCount:
    # a pure function, so the clamp is checked without starting threads
    def test_clamped_to_batches_and_cpus(self):
        cpus = os.cpu_count() or 1
        assert mcsim._worker_count(1, 1526) == 1
        assert mcsim._worker_count(10**6, 1526) == min(cpus, 1526)
        assert mcsim._worker_count(64, 3) == min(cpus, 3)
        assert mcsim._worker_count(4, 1) == 1

    def test_rejects_non_positive(self):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                mcsim._worker_count(threads, 4)


class TestCoherentMc:
    def test_std_matches_linearized_formula(self):
        st = oracles.coherent_mc(5, 0.1, 0.001, 100_000, seed=7)
        pred = analytics.coherent_angle_std(5, analytics.logical_angle(0.1, 5), 0.01)
        assert abs(st.std_theta_l / pred - 1.0) < 0.02
        assert st.mean_theta_l == pytest.approx(
            analytics.logical_angle(0.1, 5), rel=5e-3
        )

    def test_deterministic(self):
        a = oracles.coherent_mc(3, 0.4, 0.004, 10_000, seed=9)
        b = oracles.coherent_mc(3, 0.4, 0.004, 10_000, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            oracles.coherent_mc(3, 0.4, 0.004, 1, seed=9)
