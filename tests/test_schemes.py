import contextlib
import io
import math

import numpy as np
import pytest

from ftrot import analytics, bench, cli, codes, schemes
from ftrot.mcsim import NoiseModel
from ftrot.schemes import InfeasibleError

from oracles import (
    first_order_multiplicity,
    first_order_rates,
    our_curve_by_records,
    plan_records,
    scaffold_by_records,
    walk_expected_steps_float,
    walk_hit_pmf_by_paths,
    walk_survival_spectral,
)


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


def geometric_sum_pmf(m: int, t_max: int) -> np.ndarray:
    """P(T = t), t = 0..t_max, of T = (m mod 2) + 2 sum_j G_j with
    G_j ~ Geometric(p_j) on {1, 2, ...}; exact, since each G_j >= 1
    makes the terms past t_max irrelevant below it."""
    pmf = np.zeros(t_max + 1)
    pmf[m % 2] = 1.0
    k = np.arange(1, t_max // 2 + 1)
    for p in schemes._walk_geometric_p(m):
        g = np.zeros(t_max + 1)
        g[2 * k] = p * (1.0 - p) ** (k - 1)
        pmf = np.convolve(pmf, g)[: t_max + 1]
    return pmf


class TestWalkLaw:
    """The geometric-sum law of the hitting time against path counting,
    the spectral form and the moments."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_path_enumeration(self, m):
        assert schemes._walk_geometric_p(m).size == m // 2
        np.testing.assert_allclose(
            geometric_sum_pmf(m, 16)[1:], walk_hit_pmf_by_paths(m, 16), rtol=0, atol=1e-15
        )

    def test_moments_up_to_m_max(self):
        for m in range(1, schemes.M_MAX + 1):
            p = schemes._walk_geometric_p(m)
            mean = m % 2 + 2.0 * np.sum(1.0 / p)
            var = 4.0 * np.sum((1.0 - p) / p**2)
            assert mean == pytest.approx(m * m, rel=1e-12)
            assert var == pytest.approx(2 * m * m * (m * m - 1) / 3, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [7, 16])
    def test_tail_matches_spectral_form(self, m):
        t = np.arange(8 * m * m + 1)
        np.testing.assert_allclose(
            1.0 - np.cumsum(geometric_sum_pmf(m, t[-1])),
            walk_survival_spectral(m, t),
            rtol=0,
            atol=1e-12,
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


class TestCostModel:
    def test_defaults(self):
        # 2d^2-1 = 17 qubits for r+1 = 3 cycles, in d^3 = 27 units
        assert schemes.attempt_cost(3, 2) == 17 * 3 / 27

    def test_prep_expected_cost(self):
        # the (d, k = m = 1) plan prices one accepted state: attempt cost / p_s
        code = codes.get_code("surface", d=3)
        theta_l = analytics.logical_angle(0.5, 3)
        noise = NoiseModel(p_in=0.0, r=2)
        (plan,) = plan_records(theta_l, "surface", noise, d_values=(3,), k_max=1, m_max=1)
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
        assert plan.expected_cost == pytest.approx(2.0441541399581316, rel=1e-12)
        assert plan.predicted_error == pytest.approx(
            2.7207121313095265e-07, rel=1e-12, abs=0
        )

    def test_predicted_error_is_the_accepted_error_model(self):
        def model_error(plan):
            code = codes.get_code("surface", plan.d)
            cfg = analytics.RotationConfig(theta=plan.theta_base, d=plan.d, **vars(self.NOISE))
            eps = analytics.accepted_error_model(cfg, code.error_multiplicities)
            return plan.walk_steps_expected * plan.k * eps

        plans = plan_records(
            self.TARGET, "surface", self.NOISE, d_values=(3, 5), k_max=4, m_max=6
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

    @pytest.mark.parametrize("d", [3, 5])
    def test_split_rotation_trade_off(self, d):
        # m states at theta_L / m: the first-order part of the planner's
        # total error m * eps falls as m^-(1-2/d), over test_08's
        # m = 10..1000 (the weight-2 class flattens the full model's
        # slope at d = 5)
        code = codes.get_code("surface", d)
        p_s_in = analytics.substrate_success(self.NOISE, code.n, len(code.stabilizers))
        rates = first_order_rates(self.NOISE, first_order_multiplicity(code))
        theta_l = analytics.logical_angle(0.5, d)
        ms = np.unique(np.round(np.logspace(1, 3, 25)).astype(int))
        eps = [m * schemes._base_state(theta_l / m, d, p_s_in, rates)[2] for m in ms]
        slope = float(np.polyfit(np.log(ms), np.log(eps), 1)[0])
        assert abs(slope / -(1.0 - 2.0 / d) - 1.0) < 0.05

    @pytest.mark.parametrize(
        "family,d", [("surface", 3), ("surface", 7), ("phase-flip", 5), ("perfect", None)]
    )
    def test_base_states_are_the_public_model_bit_for_bit(self, family, d):
        # the planner shares p_s_in and the class rates (class 0's too)
        # across a code's states; p_s and the error must still be
        # success_rate's and accepted_error_model's own bits
        code = codes.get_code(family, d)
        for noise in (self.NOISE, NoiseModel(p_in=1e-4, r=3),
                      NoiseModel(p_in=2e-2, r=1, readout_flip=1e-3)):
            p_s_in = analytics.substrate_success(noise, code.n, len(code.stabilizers))
            rates = analytics.class_rates(noise, code.error_multiplicities)
            for step in [math.ldexp(math.tau, -k) for k in range(2, 60)] + [0.3, 2.5, 3.1]:
                theta_base, p_s, eps = schemes._base_state(step, code.d, p_s_in, rates)
                cfg = analytics.RotationConfig(theta=theta_base, d=code.d, **vars(noise))
                assert p_s == analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
                assert eps == analytics.accepted_error_model(cfg, code.error_multiplicities)

    def test_breakdown_sums_to_total(self):
        for plan in plan_records(
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
        for plan in plan_records(
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
        all_plans = plan_records(self.TARGET, "surface", self.NOISE)
        assert best.predicted_error == min(p.predicted_error for p in all_plans)

    def test_to_dict_round_trip(self):
        plan = schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE)
        d = plan.to_dict()
        assert d["d"] == plan.d and d["theta_base"] == plan.theta_base
        assert d["breakdown"] == plan.breakdown
        assert d["walk_steps_expected"] == 1

    def test_plan_record_is_immutable_with_fixed_keys(self):
        plan = schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE)
        with pytest.raises(AttributeError):
            plan.d = 3
        d = plan.to_dict()
        assert list(d) == [
            "d", "k", "m", "theta_base", "theta_l_target", "expected_cost",
            "predicted_error", "breakdown", "walk_steps_expected", "ghz_attempts_expected",
        ]
        assert list(d["breakdown"]) == ["prep_attempts", "ghz_merges", "walk_teleports"]
        d["breakdown"]["ghz_merges"] = -1.0
        assert plan.breakdown["ghz_merges"] == 0.0

    def test_bad_target(self):
        with pytest.raises(ValueError):
            schemes.scaffold_optimize(-0.1, "surface", self.NOISE)
        with pytest.raises(ValueError):
            list(schemes.iter_plans(0.0, "surface", self.NOISE))

    def test_large_target_shrinks_grid(self):
        # step angle must stay below pi, so k=m=1 with target > pi is
        # unrepresentable but larger splits still work
        plans = plan_records(3.5, "surface", self.NOISE, d_values=(3,), k_max=2, m_max=2)
        assert plans
        assert all(p.theta_l_target / (p.m * p.k) < math.pi for p in plans)
        assert not any(p.m == 1 and p.k == 1 for p in plans)

    def test_scaffold_builds_one_record(self, monkeypatch):
        built = []
        plan_class = schemes.ScaffoldPlan

        def counting_plan(*args, **kwargs):
            built.append(1)
            return plan_class(*args, **kwargs)

        monkeypatch.setattr(schemes, "ScaffoldPlan", counting_plan)
        schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE)
        assert len(built) == 1
        schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE, error_ceiling=1e-7)
        assert len(built) == 2
        with pytest.raises(InfeasibleError):
            schemes.scaffold_optimize(self.TARGET, "surface", self.NOISE, error_ceiling=1e-30)
        assert len(built) == 3


# (code family, noise, grid): the default surface grid holds d = 3, 5, 7
SELECTION_CASES = [
    ("surface", NoiseModel(p_in=1e-3, r=2), {}),
    ("perfect", NoiseModel(p_in=1e-3, r=2), {"d_values": (3,)}),
    ("phase-flip", NoiseModel(p_in=1e-3, r=2), {"d_values": (3, 5)}),
    ("surface", NoiseModel(p_in=1e-3, r=1), {}),
    ("surface", NoiseModel(p_in=1e-3, r=3), {}),
    ("surface", NoiseModel(p_in=1e-4, r=2), {"d_values": (3, 5), "k_max": 3, "m_max": 8}),
    ("surface", NoiseModel(p_in=1e-3, r=2), {"d_values": (7, 5, 3)}),
]


@pytest.mark.parametrize(
    "family,noise,grid", SELECTION_CASES,
    ids=["surface", "perfect", "phase-flip-3-5", "r1", "r3", "narrow", "d-7-5-3"],
)
def test_selection_matches_a_record_per_cell(family, noise, grid):
    # the planner selects on plain tuples with C-level keys; a record per
    # cell selected with Python keys must give the same plans and fronts
    for level in range(4, 15):
        target = math.tau / 2**level
        free = scaffold_by_records(target, family, noise, **grid)
        assert schemes.scaffold_optimize(target, family, noise, **grid) == free
        lowest = min(p.predicted_error for p in plan_records(target, family, noise, **grid))
        assert lowest < free.predicted_error
        binding = math.sqrt(lowest * free.predicted_error)
        tight = scaffold_by_records(target, family, noise, error_ceiling=binding, **grid)
        assert tight != free
        assert schemes.scaffold_optimize(
            target, family, noise, error_ceiling=binding, **grid
        ) == tight
        with pytest.raises(InfeasibleError) as want:
            scaffold_by_records(target, family, noise, error_ceiling=lowest / 2, **grid)
        with pytest.raises(InfeasibleError) as got:
            schemes.scaffold_optimize(target, family, noise, error_ceiling=lowest / 2, **grid)
        assert got.value.best_plan == want.value.best_plan
        assert str(got.value) == str(want.value)
        assert bench.our_method_curve(target, family, noise, **grid) == our_curve_by_records(
            target, family, noise, **grid
        )


@pytest.mark.parametrize("d_values", [(3, 5, 7), (7, 5, 3)])
def test_zero_error_refusal_names_the_first_cell(d_values):
    # at p_in = 0 every cell has error 0; the first one in walk order is named
    noise = NoiseModel(p_in=0.0, r=2)
    with pytest.raises(ValueError) as want:
        our_curve_by_records(math.tau / 2**10, "surface", noise, d_values=d_values)
    with pytest.raises(ValueError) as got:
        bench.our_method_curve(math.tau / 2**10, "surface", noise, d_values=d_values)
    assert str(got.value) == str(want.value)
    assert f"({d_values[0]}, 1, 1)" in str(got.value)


def full_walk(theta_l_target, family, noise, *, error_ceiling=None, **grid):
    """`scaffold_optimize` as a selection over every cell of the
    uncapped walk: the planner that the capped walk must agree with."""
    cells = list(schemes.iter_plans(theta_l_target, family, noise, **grid))
    if not cells:
        raise ValueError("empty grid: no representable plan")
    feasible = [c for c in cells if error_ceiling is None or c[0] <= error_ceiling]
    if not feasible:
        best = schemes._record(min(cells, key=schemes._MOST_ACCURATE), theta_l_target)
        raise InfeasibleError(
            f"no plan reaches error ceiling {error_ceiling:.3g}; best achieves "
            f"{best.predicted_error:.3g} at cost {best.expected_cost:.3g}",
            best_plan=best,
        )
    return schemes._record(min(feasible, key=schemes._CHEAPEST), theta_l_target)


PRUNE_P_IN = (0.0, 1e-4, 1e-3, 1e-2)
# at 2pi/2^14, p_in 1e-3 and ceiling 1e-9 the cheapest plan, (7, 2, 1),
# lies in the row after the first row the cap cut at d = 7
PRUNE_TARGETS = [math.tau / 2**k for k in (1, 2, 4, 6, 8, 10, 12, 14, 16)] + [0.3, 3.1]
# (code family, r, error ceiling, grid)
PRUNE_CASES = {
    "free": ("surface", 2, None, {}),
    **{f"ceiling-{c:g}": ("surface", 2, c, {}) for c in (1e-3, 1e-5, 1e-7, 1e-9, 0.0)},
    "r3": ("surface", 3, None, {}),
    "r1-ceiling-1e-6": ("surface", 1, 1e-6, {}),
    "d-5-3": ("surface", 2, None, {"d_values": (5, 3)}),
    "narrow": ("surface", 2, None, {"k_max": 3, "m_max": 7}),
    "perfect": ("perfect", 2, None, {"d_values": (3,)}),
}


@pytest.mark.parametrize("case", sorted(PRUNE_CASES))
def test_pruned_planner_matches_the_full_walk(case):
    # the walk capped at the cheapest feasible cost skips only dearer
    # cells, so plans, ties and refusals are those of the whole grid
    family, r, ceiling, grid = PRUNE_CASES[case]
    for p_in in PRUNE_P_IN:
        noise = NoiseModel(p_in=p_in, r=r)
        for target in PRUNE_TARGETS:
            try:
                want = full_walk(target, family, noise, error_ceiling=ceiling, **grid)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError) as got:
                    schemes.scaffold_optimize(target, family, noise, error_ceiling=ceiling, **grid)
                assert str(got.value) == str(exc)
                assert got.value.best_plan == exc.best_plan
            else:
                got = schemes.scaffold_optimize(target, family, noise, error_ceiling=ceiling, **grid)
                assert got == want


@pytest.mark.parametrize(
    "family,d_values",
    [("surface", (3, 5, 7)), ("perfect", (3,)), ("phase-flip", (3, 5, 7, 9))],
)
def test_cost_floor_is_below_every_cost(family, d_values):
    # the floor prices one GHZ attempt; p_s <= 1 means no cell costs less
    for p_in in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
        for r in (1, 2, 3):
            noise = NoiseModel(p_in=p_in, r=r)
            attempt = {d: schemes.attempt_cost(d, r) for d in d_values}
            for level in (1, 2, 4, 8, 12, 16):
                for cell in schemes.iter_plans(math.tau / 2**level, family, noise,
                                               d_values=d_values):
                    _, cost, d, k, m = cell[:5]
                    assert schemes._cost_floor(m, k, attempt[d]) <= cost, cell


def test_pruned_scaffold_works_out_few_states(monkeypatch):
    # the cheapest plan at 2pi/2^10 is (5, 1, 1); past each d's (d, 1, 1)
    # state the cap ends every row before its first state is worked out,
    # where the whole grid holds 888
    base_state, calls = schemes._base_state, []

    def counting(*args):
        calls.append(args)
        return base_state(*args)

    monkeypatch.setattr(schemes, "_base_state", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scaffold", "--theta-l", "2pi/2^10", "--p-in", "1e-3"]) == 0
    assert 1 <= len(calls) <= 3
