import dataclasses
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
# about a quarter of the trials with faults on the multi-fault path.
# The perfect code's generators mix X and Z on one qubit.
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

    @pytest.mark.parametrize(
        "noise, inject",
        [
            pytest.param(NoiseModel(p_in=5e-2, r=2), False, id="heavy"),
            pytest.param(NoiseModel(p_in=5e-2, r=2), True, id="heavy-inject-z"),
            pytest.param(NoiseModel(p_in=0.0, r=1, readout_flip=0.3), False, id="heavy-readout-r1"),
        ],
    )
    @pytest.mark.parametrize(
        "name, d", [("surface", 3), ("perfect", None)], ids=["surface3", "perfect"]
    )
    def test_engine_matches_exact_law(self, name, d, noise, inject):
        code = codes.get_code(name, d)
        inject_z = code.z_support[1] if inject else None
        want = oracles.exact_class_probabilities(code, 0.8, noise, inject_z)
        n = 4_000_000
        st = mcsim.estimate(code, 0.8, None, noise, n, seed=3, inject_z=inject_z)
        got = np.array(st.branch_histogram) / n
        for q, p in [*zip(got, want), (got.sum(), want.sum())]:
            assert abs(q - p) < 4 * math.sqrt(p * (1 - p) / n), (got, want)


class TestPlan:
    """The fault-count strata and the single-fault table against closed
    forms and the scalar walk over single faults, and the slot draws at
    the ends of their ranges."""

    @staticmethod
    def plan(code, noise):
        mult = code.error_multiplicities
        return mcsim._plan(mult.channels, mult.branch_columns, mult.n_checks, noise, None)

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize(
        "name, d", [("surface", 3), ("surface", 5), ("phase-flip", 5), ("perfect", None)]
    )
    def test_strata_and_single_faults(self, name, d, r):
        code = codes.get_code(name, d)
        noise = NoiseModel(p_in=2e-3, r=r)
        p, f = noise.p_in, noise.readout_flip
        data, flips = r * code.n, r * len(code.stabilizers)
        plan = self.plan(code, noise)
        p0 = (1 - p) ** data * (1 - f) ** flips
        p1 = data * p / (1 - p) * p0 + flips * f / (1 - f) * p0
        assert plan.strata[0] == pytest.approx(p0, rel=1e-12)
        assert plan.strata[1] == pytest.approx(p1, rel=1e-12)
        assert plan.strata.sum() == pytest.approx(1.0, rel=1e-12)

        # P(exactly one fault, accepted in class m), from the table and
        # from the walk over every single fault location
        theta = 0.8
        got = sum(
            prob * mcsim._coset_classes(code, theta, b0)[:-1]
            for b0, prob in zip(plan.single_b0.tolist(), plan.single_p)
            if b0 >= 0
        ) * plan.strata[1]
        s2, c2 = math.sin(theta / 2) ** 2, math.cos(theta / 2) ** 2
        want = np.array([
            (counts[0] * p / 3 / (1 - p) + counts[1] * f / (1 - f)) * p0
            * (s2**m * c2 ** (code.d - m) + s2 ** (code.d - m) * c2**m)
            for m, counts in enumerate(oracles.fault_set_counts(code, r))
        ])
        assert want[1] > 0
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "noise",
        [NoiseModel(p_in=1e-3, r=2, readout_flip=0.0), NoiseModel(p_in=0.0, r=2, readout_flip=1e-3)],
        ids=["zero-tail", "zero-head"],
    )
    def test_inverse_cdf_edges(self, surface3, noise):
        # a run of zero-weight slots at either end; uniforms 0 and the
        # largest double below 1 pick the first and the last slot of
        # positive weight, and the second fault lies after the first
        plan = self.plan(surface3, noise)
        slots = plan.row.size
        positive = np.flatnonzero(np.repeat([noise.p_in, noise.readout_flip],
                                            [plan.n_data, slots - plan.n_data]))
        u = np.array([0.0, np.nextafter(1.0, 0.0)])
        first = mcsim._inverse_cdf(plan.first, 0, u)
        assert first.tolist() == [positive[0], positive[-2]]
        for j in first.tolist():
            second = mcsim._inverse_cdf(plan.second, np.full(2, j + 1), u)
            assert second.tolist() == [j + 1, positive[-1]]
        assert (plan.first[first] > plan.first[first + 1]).all()


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
            bits = codes.syndrome(oracles.PauliString(code.n, 0, z), code)
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
            got = mcsim._coset_classes(code, 0.7, b0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), syndrome
            assert got.sum() == pytest.approx(1.0, rel=1e-15)


class TestEstimate:
    NM = NoiseModel(p_in=1e-3, r=2)

    def test_golden_run(self, surface3):
        # 18.7 accepted weight-1 trials expected (17 seen): no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RareEventWarning)
            st = mcsim.estimate(surface3, 0.5, None, self.NM, 200_000, seed=11, threads=4)
        assert st.accepted == 160676
        assert st.acceptance_rate == pytest.approx(0.80338, abs=1e-12)
        assert st.mean_infidelity == pytest.approx(7.346030936024522e-06, rel=1e-12, abs=0)
        assert st.branch_histogram == (160659, 17)
        assert st.seed == 11
        assert st.params["stream"] == 5

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
        # 3.3 accepted weight-1 trials expected, so it warns
        with pytest.warns(RareEventWarning) as record:
            st = mcsim.estimate(surface3, 0.5, None, noise, 20_000, seed=11)
        assert abs(st.acceptance_rate - ps) < 4 * st.acceptance_stderr
        rate = float(re.search(r"analytic rate (\S+)\)", str(record[0].message)).group(1))
        assert rate == pytest.approx(
            analytics.accepted_error_model(cfg, surface3.error_multiplicities), rel=1e-2
        )
        assert rate == pytest.approx(3.2e-5, rel=0.05)

    # the golden setting expects 9.33e-5 accepted weight-1 trials per
    # trial (the class-1 part of the model), so the warning threshold of
    # 10 sits at N = 107,147
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

    def test_readout_only_noise_warns(self, surface3):
        # readout flips alone feed class 1 through r-fold masking: 2.53
        # accepted weight-1 trials expected at 20,000 trials
        noise = NoiseModel(p_in=0.0, r=2, readout_flip=0.05)
        with pytest.warns(RareEventWarning, match="expected about 2.53 accepted weight-1"):
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

    def test_phase_flip_matches_error_model(self):
        # Y on a support qubit has Z's X-check signature, so the model
        # must count 2d first-order channels (with d it is 8 sigma low)
        code = codes.get_code("phase-flip", 3)
        noise = NoiseModel(p_in=5e-3, r=2)
        cfg = analytics.RotationConfig(theta=0.5, d=3, **vars(noise))
        model = analytics.accepted_error_model(cfg, code.error_multiplicities)
        st = mcsim.estimate(code, 0.5, None, noise, 500_000, seed=5, threads=1)
        assert abs(st.mean_infidelity - model) < 4 * st.infidelity_stderr

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
        first_order = analytics.accepted_error_model(cfg, codes.Multiplicities(
            full.flip_projection, full.secondary_flip, full.readout_combos))
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


class TestPhiloxBatches:
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
        st = mcsim.coherent_mc(5, 0.1, 0.001, 100_000, seed=7)
        pred = analytics.coherent_angle_std(5, analytics.logical_angle(0.1, 5), 0.01)
        assert abs(st.std_theta_l / pred - 1.0) < 0.02
        assert st.mean_theta_l == pytest.approx(
            analytics.logical_angle(0.1, 5), rel=5e-3
        )

    def test_deterministic(self):
        a = mcsim.coherent_mc(3, 0.4, 0.004, 10_000, seed=9)
        b = mcsim.coherent_mc(3, 0.4, 0.004, 10_000, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            mcsim.coherent_mc(3, 0.4, 0.004, 1, seed=9)
