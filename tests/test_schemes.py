import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot import analytics, codes, schemes
from ftrot.mcsim import NoiseModel
from ftrot.schemes import InfeasibleError

from oracles import walk_expected_steps_float, walk_hit_pmf_by_paths, walk_survival_spectral


class TestWalkExpectedSteps:
    def test_quadratic_closed_form(self):
        for m in range(1, 65):
            assert schemes.walk_expected_steps(m) == m * m

    def test_matches_linear_solve_oracle(self):
        for m in (1, 2, 3, 5, 8, 13, 21):
            assert schemes.walk_expected_steps(m) == pytest.approx(
                walk_expected_steps_float(m), rel=1e-9
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            schemes.walk_expected_steps(0)


class TestWalkTable:
    """`_walk_cdf` against path counting, the spectral form and the moments."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_path_enumeration(self, m):
        pmf = np.zeros(16)
        table = np.diff(schemes._walk_cdf(m), prepend=0.0)[:16]
        pmf[: table.size] = table
        np.testing.assert_allclose(pmf, walk_hit_pmf_by_paths(m, 16), rtol=0, atol=1e-15)

    def test_moments_and_tail_up_to_m_max(self):
        for m in range(1, schemes.M_MAX + 1):
            cdf = schemes._walk_cdf(m)
            t = np.arange(1, cdf.size + 1)
            pmf = np.diff(cdf, prepend=0.0)
            mean = pmf @ t
            assert cdf[-1] == 1.0 and np.all(pmf >= 0.0)
            assert mean == pytest.approx(m * m, rel=1e-9)
            assert pmf @ (t * t) - mean**2 == pytest.approx(
                2 * m * m * (m * m - 1) / 3, rel=1e-9, abs=1e-9
            )
            # the mass the table leaves out, and the table at about 500 t
            assert walk_survival_spectral(m, cdf.size) < 2.0**-53
            every = t[:: -(-cdf.size // 500)]
            np.testing.assert_allclose(
                1.0 - cdf[every - 1], walk_survival_spectral(m, every), rtol=0, atol=1e-12
            )


class TestSimulateWalk:
    def test_deterministic(self):
        a = schemes.simulate_walk(3, 20_000, seed=4)
        b = schemes.simulate_walk(3, 20_000, seed=4)
        assert a == b
        assert schemes.simulate_walk(3, 20_000, seed=5) != a

    def test_mean_within_band(self):
        # Var(T) for m=3 is exactly 48, from the second-moment linear
        # system; the 3-sigma band on the mean of N walks follows
        n = 200_000
        stats = schemes.simulate_walk(3, n, seed=12)
        sigma_mean = math.sqrt(48.0) / math.sqrt(n)
        assert abs(stats.mean_steps - 9.0) < 3 * sigma_mean
        assert abs(stats.std_steps - math.sqrt(48.0)) < 0.1

    def test_m1_is_single_step(self):
        stats = schemes.simulate_walk(1, 1_000, seed=1)
        assert stats.mean_steps == 1.0
        assert stats.std_steps == 0.0
        assert stats.plus_fraction + stats.minus_fraction == pytest.approx(1.0)

    def test_exit_sides_balanced(self):
        stats = schemes.simulate_walk(4, 100_000, seed=8)
        # symmetric walk from the midpoint: each exit w.p. 1/2
        assert abs(stats.plus_fraction - 0.5) < 3 * math.sqrt(0.25 / 100_000)

    def test_to_dict(self):
        d = schemes.simulate_walk(2, 5_000, seed=3).to_dict()
        assert d["m"] == 2
        assert d["expected_steps"] == 4
        assert d["seed"] == 3
        assert d["walks"] == 5_000

    def test_validation(self):
        with pytest.raises(ValueError):
            schemes.simulate_walk(0, 100, seed=1)
        with pytest.raises(ValueError):
            schemes.simulate_walk(3, 0, seed=1)

    def test_refuses_m_above_m_max_and_seeds_outside_64_bits(self):
        with pytest.raises(ValueError, match="m <= 64"):
            schemes.simulate_walk(schemes.M_MAX + 1, 100, seed=1)
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                schemes.simulate_walk(3, 100, seed=seed)


class TestGhzAttempts:
    def test_values(self):
        assert schemes.ghz_expected_attempts(1.0, 5) == 1.0
        assert schemes.ghz_expected_attempts(0.5, 2) == 4.0
        assert schemes.ghz_expected_attempts(0.8, 1) == pytest.approx(1.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="diverge"):
            schemes.ghz_expected_attempts(0.0, 2)
        with pytest.raises(ValueError):
            schemes.ghz_expected_attempts(1.5, 2)
        with pytest.raises(ValueError):
            schemes.ghz_expected_attempts(0.5, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=9),
    )
    def test_monotone_in_m(self, p_s, m):
        assert schemes.ghz_expected_attempts(p_s, m + 1) >= schemes.ghz_expected_attempts(
            p_s, m
        )


class TestCostModel:
    def test_defaults(self):
        # 2d^2-1 = 17 qubits for r+1 = 3 cycles, in d^3 = 27 units
        assert schemes.attempt_cost(3, 2) == 17 * 3 / 27

    def test_prep_expected_cost(self):
        # the (d, k = m = 1) plan prices one accepted state: attempt cost / p_s
        code = codes.get_code("surface", d=3)
        theta_l = analytics.logical_angle(0.5, 3)
        noise = NoiseModel(p_in=0.0, r=2)
        (plan,) = schemes.iter_plans(theta_l, "surface", noise, d_values=(3,), k_max=1, m_max=1)
        cfg = analytics.RotationConfig(theta=plan.theta_base, d=3, p_in=0.0, r=2)
        p_coh = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s_coh
        assert plan.expected_cost == pytest.approx(schemes.attempt_cost(3, 2) / p_coh)


class TestScaffold:
    TARGET = math.tau / (1 << 10)
    NOISE = NoiseModel(p_in=1e-3, r=2)

    def test_frozen_optimum(self):
        plan = schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE)
        assert (plan.d, plan.k, plan.m) == (5, 1, 1)
        assert plan.theta_base == pytest.approx(0.6090818542976749, rel=1e-12)
        assert plan.expected_cost == pytest.approx(2.0446394994823125, rel=1e-12)
        assert plan.predicted_error == pytest.approx(
            2.6876008040666354e-07, rel=1e-12, abs=0
        )

    def test_predicted_error_is_the_accepted_error_model(self):
        def model_error(plan):
            code = codes.get_code("surface", plan.d)
            cfg = analytics.RotationConfig(theta=plan.theta_base, d=plan.d, **vars(self.NOISE))
            eps = analytics.accepted_error_model(cfg, code.error_multiplicities)
            return plan.walk_steps_expected * plan.k * eps

        plans = list(
            schemes.iter_plans(
                self.TARGET, "surface", self.NOISE, d_values=(3, 5), k_max=4, m_max=6
            )
        )
        assert len(plans) == 2 * 4 * 6
        for plan in plans:
            assert plan.predicted_error == pytest.approx(model_error(plan), rel=1e-12, abs=0)
        # the ceiling binds on the model's error, not on a lower estimate
        plan = schemes.scaffold_optimize(
            self.TARGET, "surface", self.NOISE, error_ceiling=1e-7
        )
        assert plan.predicted_error == pytest.approx(model_error(plan), rel=1e-12, abs=0)
        assert model_error(plan) <= 1e-7
        assert (plan.d, plan.k, plan.m) == (5, 5, 1)

    def test_breakdown_sums_to_total(self):
        for plan in schemes.iter_plans(
            self.TARGET, "surface", self.NOISE, d_values=(3, 5), k_max=3, m_max=5
        ):
            assert plan.expected_cost == pytest.approx(
                sum(plan.breakdown.values()), rel=1e-12
            )
            if plan.k == 1:
                assert plan.breakdown["ghz_merges"] == 0.0
            if plan.m == 1:
                assert plan.breakdown["walk_teleports"] == 0.0

    def test_step_angle_inversion(self):
        # accepted angle of theta_base recovers target/(m k)
        for plan in schemes.iter_plans(
            self.TARGET, "surface", self.NOISE, d_values=(3,), k_max=2, m_max=3
        ):
            assert analytics.logical_angle(plan.theta_base, plan.d) == pytest.approx(
                self.TARGET / (plan.m * plan.k), rel=1e-12
            )

    def test_enumeration_order_does_not_matter(self):
        a = schemes.scaffold_optimize(
            self.TARGET, "surface", self.NOISE, d_values=(3, 5, 7)
        )
        b = schemes.scaffold_optimize(
            self.TARGET, "surface", self.NOISE, d_values=(7, 5, 3)
        )
        assert a == b

    def test_error_ceiling_filters(self):
        loose = schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE)
        tight = schemes.scaffold_optimize(
            self.TARGET,
            "surface",
            self.NOISE,
            error_ceiling=loose.predicted_error / 5.0,
        )
        assert tight.predicted_error <= loose.predicted_error / 5.0
        assert tight.expected_cost >= loose.expected_cost

    def test_infeasible_carries_best_plan(self):
        with pytest.raises(InfeasibleError) as exc:
            schemes.scaffold_optimize(
                self.TARGET, "surface", self.NOISE, error_ceiling=1e-30
            )
        best = exc.value.best_plan
        assert isinstance(best, schemes.ScaffoldPlan)
        all_plans = list(schemes.iter_plans(self.TARGET, "surface", self.NOISE))
        assert best.predicted_error == min(p.predicted_error for p in all_plans)

    def test_to_dict_round_trip(self):
        plan = schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE)
        d = plan.to_dict()
        assert d["d"] == plan.d and d["theta_base"] == plan.theta_base
        assert d["breakdown"] == plan.breakdown
        assert d["walk_steps_expected"] == 1

    def test_bad_target(self):
        with pytest.raises(ValueError):
            schemes.scaffold_optimize(-0.1, "surface", self.NOISE)
        with pytest.raises(ValueError):
            list(schemes.iter_plans(0.0, "surface", self.NOISE))

    def test_large_target_shrinks_grid(self):
        # step angle must stay below pi, so k=m=1 with target > pi is
        # unrepresentable but larger splits still work
        plans = list(
            schemes.iter_plans(
                3.5, "surface", self.NOISE, d_values=(3,), k_max=2, m_max=2
            )
        )
        assert plans
        assert all(p.theta_l_target / (p.m * p.k) < math.pi for p in plans)
        assert not any(p.m == 1 and p.k == 1 for p in plans)
