import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot import analytics, codes, mcsim
from ftrot.analytics import NoiseModel, RotationConfig
from ftrot.codes import get_code

from oracles import (
    compact_error_first_order,
    fault_set_counts,
    filter_coefficients,
    first_order_error,
    first_order_multiplicity,
    first_order_rates,
    gaussian_logical_angle_std,
    logical_angle_reference,
    logical_angle_small,
    multi_rotation_coherent_std,
    multi_rotation_incoherent,
    pauli_matrix,
    rotation_terms_per_power,
    statevector_branch_angles,
)

angles = st.floats(min_value=1e-6, max_value=math.pi - 1e-6)
SURFACE_3 = get_code("surface", 3)
odd_d = st.sampled_from([1, 3, 5, 7, 9])


class TestRotationConfig:
    def test_validation(self):
        RotationConfig(theta=0.5, d=3)
        with pytest.raises(ValueError):
            RotationConfig(theta=-0.1, d=3)
        with pytest.raises(ValueError):
            RotationConfig(theta=4.0, d=3)
        with pytest.raises(ValueError):
            RotationConfig(theta=0.5, d=0)
        with pytest.raises(ValueError):
            RotationConfig(theta=0.5, d=3, p_in=1.0)
        with pytest.raises(ValueError):
            RotationConfig(theta=0.5, d=3, r=0)
        with pytest.raises(ValueError):
            RotationConfig(theta=0.5, d=3, readout_flip=1.0)

    def test_readout_flip_default(self):
        cfg = RotationConfig(theta=0.5, d=3, p_in=3e-3)
        assert cfg.readout_flip == pytest.approx(2e-3, rel=1e-15)

    def test_readout_flip_default_follows_p_in_through_replace(self):
        moved = dataclasses.replace(NoiseModel(p_in=1e-3), p_in=3e-3)
        assert moved.readout_flip == pytest.approx(2e-3, rel=1e-15, abs=0)
        cfg = dataclasses.replace(RotationConfig(theta=0.5, d=3, p_in=1e-3), p_in=3e-3)
        assert cfg.readout_flip == pytest.approx(2e-3, rel=1e-15, abs=0)
        # a rate the caller set is kept
        kept = dataclasses.replace(NoiseModel(p_in=1e-3, readout_flip=0.05), p_in=3e-3)
        assert kept.readout_flip == 0.05


class TestLogicalAngle:
    def test_fixed_points(self):
        for d in (1, 3, 5, 7, 9):
            assert analytics.logical_angle(math.pi / 2, d) == pytest.approx(
                math.pi / 2, abs=1e-12
            )
        for theta in (0.0, 0.1, 0.5, 1.0, 3.0):
            assert analytics.logical_angle(theta, 1) == pytest.approx(theta, abs=1e-12)
        assert analytics.logical_angle(0.0, 5) == 0.0
        assert analytics.logical_angle(math.pi, 5) == pytest.approx(math.pi, abs=1e-12)

    def test_derived_value(self):
        # asin-form arithmetic gives 2.0201e-3; small-angle form 2(theta/2)^d = 2.0e-3
        assert analytics.logical_angle(0.2, 3) == pytest.approx(
            0.0020201469163225716, abs=1e-15
        )
        assert logical_angle_small(0.2, 3) == pytest.approx(2.0e-3, abs=1e-12)

    def test_matches_asin_reference(self):
        # the asin form loses precision as cos^d underflows near pi,
        # hence the split tolerance
        for d in (1, 3, 5, 7):
            for theta in np.linspace(0.01, 2.5, 40):
                assert analytics.logical_angle(float(theta), d) == pytest.approx(
                    logical_angle_reference(float(theta), d), abs=1e-12
                )

    @settings(max_examples=200, deadline=None)
    @given(angles, angles, odd_d)
    def test_monotone(self, t1, t2, d):
        lo, hi = sorted((t1, t2))
        assert analytics.logical_angle(lo, d) <= analytics.logical_angle(hi, d) + 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            analytics.logical_angle(-0.1, 3)
        with pytest.raises(ValueError):
            analytics.logical_angle(0.5, 0)


class TestBranchAngle:
    def test_matches_statevector_oracle(self):
        worst = 0.0
        for d in range(1, 6):
            for theta in np.linspace(0.05, 3.0, 20):
                ref = statevector_branch_angles(d, float(theta))
                for w in range(d + 1):
                    got = analytics.branch_angle(w, d, float(theta))
                    worst = max(worst, abs(got - ref[w]))
        assert worst < 1e-12, worst

    def test_weight_zero_is_logical_angle(self):
        for d in (1, 3, 5):
            for theta in (0.1, 0.5, 1.2):
                assert analytics.branch_angle(0, d, theta) == analytics.logical_angle(
                    theta, d
                )

    def test_complement_symmetry(self):
        for d in (2, 3, 4, 5):
            for w in range(d + 1):
                assert analytics.branch_angle(w, d, 0.7) == pytest.approx(
                    analytics.branch_angle(d - w, d, 0.7), abs=1e-15
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            analytics.branch_angle(4, 3, 0.5)
        with pytest.raises(ValueError):
            analytics.branch_angle(-1, 3, 0.5)

    def test_branch_infidelity_zero_on_codespace(self):
        assert analytics.branch_infidelity(0, 3, 0.5) == 0.0
        assert analytics.branch_infidelity(1, 3, 0.5) == pytest.approx(
            0.06943122745156918, abs=1e-15
        )


class TestIncoherentError:
    """The substrate-flip path of the one accepted-error model."""

    CFG = RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2, readout_flip=0.0)

    def test_derived_value(self):
        # m1 (p/3)/(1-p) * pair probability * weight-1 branch infidelity
        # over the accepted share p_s_coh + rate * pair, with the branch
        # angles from the state-vector oracle
        s2, c2 = math.sin(0.25) ** 2, math.cos(0.25) ** 2
        phi = statevector_branch_angles(3, 0.5)
        infid = math.sin((phi[0] - phi[1]) / 2) ** 2
        rate, pair = 3 * (1e-3 / 3) / (1 - 1e-3), s2 * c2**2 + s2**2 * c2
        expected = rate * pair * infid / (c2**3 + s2**3 + rate * pair)
        got = first_order_error(self.CFG, (3, 0, 0))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_log_domain_stability(self):
        # far below the scale of every input the model stays positive
        cfg = RotationConfig(theta=1e-3, d=9, p_in=1e-3)
        val = first_order_error(cfg, (9, 0, 0))
        assert val == pytest.approx(4.582227334990474e-56, rel=1e-12, abs=0)


class TestReadout:
    """The r-fold readout-masking path of the one accepted-error model:
    with a clean substrate (p_in = 0) the model is that path alone."""

    MULT = (3, 2, 2)
    Q = 2e-3 / 3

    def readout_only(self, r: int, q: float = Q) -> float:
        cfg = RotationConfig(theta=0.5, d=3, p_in=0.0, r=r, readout_flip=q)
        return first_order_error(cfg, self.MULT)

    def masking(self, r: int, q: float = Q) -> tuple[float, float]:
        """The masking rate readout g^r, g = q / (1 - q), and the
        accepted share p_s_coh + rate * pair that the error divides by."""
        p_s_coh, pair, _ = rotation_terms_per_power(0.5, 3)
        rate = 2 * (q / (1 - q)) ** r
        return rate, p_s_coh + rate * pair

    def test_r_ratio(self):
        (rate_1, accepted_1), (rate_2, accepted_2) = self.masking(1), self.masking(2)
        assert self.readout_only(2) / self.readout_only(1) == pytest.approx(
            rate_2 / rate_1 * accepted_1 / accepted_2, rel=1e-12
        )

    def test_uses_readout_flip_override(self):
        ratio = self.readout_only(2, q=0.05) / self.readout_only(2)
        (rate, accepted), (rate_q, accepted_q) = self.masking(2, 0.05), self.masking(2)
        assert ratio == pytest.approx(rate / rate_q * accepted_q / accepted, rel=1e-12)

    def test_monotone_decay(self):
        vals = [self.readout_only(r) for r in range(1, 8)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_below_first_order_at_paper_point(self):
        flips_only = RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2, readout_flip=0.0)
        assert 0 < self.readout_only(2) < first_order_error(flips_only, self.MULT)


class TestAcceptedErrorModel:
    def test_frozen_surface_point(self):
        cfg = RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)
        got = first_order_error(cfg, (3, 2, 2))
        assert got == pytest.approx(8.045893069220633e-06, rel=1e-12, abs=0)

    def test_zero_noise_zero(self):
        cfg = RotationConfig(theta=0.5, d=3, p_in=0.0, r=2)
        assert first_order_error(cfg, (3, 2, 2)) == 0.0

    @pytest.mark.parametrize(
        "family,d",
        [("surface", 3), ("surface", 5), ("surface", 7), ("phase-flip", 5), ("perfect", None)],
    )
    def test_small_angle_limit_is_compact_form(self, family, d):
        # the first-order part keeps the exact branch-pair factors and
        # divides the flip path by (1 - p_in); as theta -> 0 only that
        # factor remains.  The first-order rates alone give that part
        # (at this angle the weight-2 class is 5.9e3 times it at
        # surface d = 5)
        code = get_code(family, d)
        cfg = RotationConfig(theta=1e-3, d=code.d, p_in=1e-3, r=2)
        counts = first_order_multiplicity(code)
        ratio = compact_error_first_order(cfg, counts) / first_order_error(cfg, counts)
        assert ratio == pytest.approx(1 - 1e-3, abs=5e-6)


class TestRotationTerms:
    def test_match_per_power_route_bit_for_bit(self):
        # the shared logs must not move one bit of any term: edges, the
        # planner's small angles and random angles, odd and even d
        rng = np.random.default_rng(15)
        thetas = [0.0, -0.0, math.pi, math.nextafter(math.pi, 0.0), 1e-300, 5e-324, 0.5]
        thetas += [math.ldexp(math.tau, -k) for k in range(2, 40)]
        thetas += list(rng.uniform(0.0, math.pi, 500))
        for d in range(1, 16):
            for theta in thetas:
                terms = analytics.model_terms(theta, d, (0.0, 0.0))
                assert terms[:3] == rotation_terms_per_power(theta, d)

    def test_powers_past_the_float_range_give_pi(self):
        # tan^27 of half an angle 1e-12 short of pi overflows a float;
        # the angles are then +/-pi, as at pi itself, not an OverflowError
        theta = 3.141592653588
        assert analytics.logical_angle(theta, 27) == math.pi
        assert analytics.branch_angle(1, 27, theta) == -math.pi
        cfg = RotationConfig(theta=theta, d=27, p_in=1e-3)
        assert analytics.success_rate(cfg, 10, 9).p_s_coh == 1.0
        assert 0.0 < first_order_error(cfg, (3, 2, 2)) < 1e-50

    def test_higher_classes_are_pair_weight_times_infidelity(self):
        # the closed form (s c)^{2(d-m)} (s^{2m} - (-1)^m c^{2m})^2 / p_s_coh
        # against the pair weight times branch_infidelity, away from pi
        # where the arctangent route loses digits; one class at a time,
        # over the accepted share p_s_coh + its pair weight
        for d in (3, 5, 7, 9, 15):
            for theta in (0.05, 0.3, 0.609, 1.0, 1.5, 2.0):
                s, c = math.sin(theta / 2), math.cos(theta / 2)
                for m in range(2, d // 2 + 1):
                    rates = tuple(1.0 if i == m else 0.0 for i in range(m + 1))
                    p_s_coh, _, _, error, _ = analytics.model_terms(theta, d, rates)
                    weight = s ** (2 * m) * c ** (2 * (d - m)) + s ** (2 * (d - m)) * c ** (2 * m)
                    expected = (weight * analytics.branch_infidelity(m, d, theta)
                                / (p_s_coh + weight))
                    assert error == pytest.approx(expected, rel=1e-9), (d, theta, m)

    def test_public_model_is_built_from_them(self):
        # the first-order part: its rates hold no fault sets, so the
        # model is the weight-1 product alone
        code = get_code("surface", 5)
        noise = NoiseModel(p_in=1e-3, r=2)
        p_s_coh, pair, infid = rotation_terms_per_power(0.7, 5)
        hidden, rate = first_order_rates(noise, first_order_multiplicity(code))
        assert hidden == 0.0
        p_s_in = analytics.substrate_success(noise, code.n, len(code.stabilizers))
        terms = analytics.model_terms(0.7, 5, (hidden, rate))
        assert terms[3] == (
            rate * pair * infid / (p_s_coh + rate * pair)
        )
        # its accepted-fault mass is those paths alone
        assert (p_s_in * terms[4], p_s_in, terms[0]) == (
            p_s_in * (p_s_coh + rate * pair), p_s_in, p_s_coh
        )


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name, d", [("surface", 3), ("surface", 5), ("surface", 7),
                                     ("phase-flip", 3), ("phase-flip", 5), ("perfect", None)])
def test_model_is_the_exact_law_of_three_faults(name, d, r):
    # the Monte Carlo engine's exact law of the trials with at most three
    # faults, built here from the integer table: a set of events weighs
    # P0 times its odds, a = (p_in/3)/(1 - p_in) per data fault and
    # g = f/(1 - f) per flip, and the empty set is the coset of branch
    # syndrome 0; class m then takes its pair weight.  The model's error
    # is that law's mean infidelity, and its acceptance the law over P0.
    # At r = 3 the r-fold readout masking is a set of three in the table.
    # Nearer pi than 3.0 the reference's arctangent route loses digits
    code = get_code(name, d)
    mult = code.error_multiplicities
    table = codes._fault_set_counts(mult, r, 0)
    empty = codes._coset_counts(mult.branch_columns, 0)[: code.d // 2 + 1]
    for noise in (NoiseModel(p_in=1e-3, r=r), NoiseModel(p_in=1e-2, r=r),
                  NoiseModel(p_in=1e-3, r=r, readout_flip=0.05)):
        a = noise.p_in / 3 / (1 - noise.p_in)
        g = noise.readout_flip / (1 - noise.readout_flip)
        odds = [a, g, a * a, a * g, g * g, a**3, a * a * g, a * g * g, g**3]
        rates = np.add(empty, np.array(table, dtype=float) @ odds)
        for theta in (0.01, 0.1, 0.357, 0.8, 2.0, 3.0):
            law = rates * mcsim._pair_weights(theta, code.d)
            infid = [analytics.branch_infidelity(m, code.d, theta) for m in range(code.d // 2 + 1)]
            cfg = RotationConfig(theta=theta, d=code.d, **vars(noise))
            error = analytics.accepted_error_model(cfg, mult)
            assert error == pytest.approx(law @ infid / law.sum(), rel=1e-12, abs=0), theta
            sr = analytics.success_rate(cfg, code.n, len(code.stabilizers))
            assert sr.p_s / sr.p_s_in == pytest.approx(law.sum(), rel=1e-12, abs=0), theta


@pytest.mark.parametrize("r", [4, 8, 12])
@pytest.mark.parametrize("name, d", [("surface", 3), ("surface", 5), ("surface", 7),
                                     ("phase-flip", 3), ("phase-flip", 5), ("perfect", None)])
def test_masking_term_is_the_readout_count(name, d, r):
    # from r = 4 on the r-fold readout masking set has more than three
    # events, so the model adds it to class 1 on top of the table of sets
    # of at most three: g^r, g = f / (1 - f), per readout channel, counted
    # here by the oracle from the stabilizers.  A large readout flip keeps
    # g^r above the rounding of the table's class-1 rate
    code = get_code(name, d)
    mult = code.error_multiplicities
    readout = first_order_multiplicity(code)[2]
    for noise in (NoiseModel(p_in=0.0, r=r, readout_flip=0.3),
                  NoiseModel(p_in=1e-3, r=r, readout_flip=0.3)):
        g = noise.readout_flip / (1 - noise.readout_flip)
        table = codes.fault_set_rates(mult, r, 0, noise.p_in, noise.readout_flip)
        extra = np.subtract(analytics.class_rates(noise, mult), table)
        assert np.all(np.delete(extra, 1) == 0.0)
        assert extra[1] == pytest.approx(readout * g**r, rel=1e-12, abs=0)


def test_model_and_engine_share_one_table():
    # the model's class rates and the engine's plan at one (code, r)
    # read one cached fault-set table
    codes._fault_set_counts.cache_clear()
    mcsim._plan.cache_clear()
    noise = NoiseModel(p_in=1e-3, r=2)
    mult = get_code("surface", 5).error_multiplicities
    analytics.class_rates(noise, mult)
    mcsim._plan(mult, noise, inject_z=None, theta=0.8)
    assert codes._fault_set_counts.cache_info().currsize == 1


class TestSuccessRate:
    def test_trivial(self):
        cfg = RotationConfig(theta=0.0, d=3, p_in=0.0)
        assert analytics.success_rate(cfg, 9, 8) == (1.0, 1.0, 1.0)

    def test_coherent_quarter(self):
        cfg = RotationConfig(theta=math.pi / 2, d=3, p_in=0.0)
        assert analytics.success_rate(cfg, 9, 8).p_s_coh == pytest.approx(
            0.25, abs=1e-15
        )

    def test_frozen_surface_point(self):
        cfg = RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)
        sr = analytics.success_rate(cfg, 9, 8)
        assert sr.p_s_in == pytest.approx(0.971728115894225, rel=1e-12)
        assert sr.p_s_coh == pytest.approx(0.8276133647005521, rel=1e-12)
        # 9 qubits, 8 checks and d = 3 are the surface code's sizes, so
        # p_s holds its accepted-fault mass: 1.20e-4 of the product
        rates = analytics.class_rates(cfg, SURFACE_3.error_multiplicities)
        assert sr.p_s == sr.p_s_in * analytics.model_terms(0.5, 3, rates)[4]
        assert sr.p_s == pytest.approx(0.8043113774697442, rel=1e-12)

    @pytest.mark.parametrize("n_qubits, n_stabilizers", [(0, 8), (9, -1)])
    def test_substrate_refuses_bad_counts(self, n_qubits, n_stabilizers):
        with pytest.raises(ValueError):
            analytics.substrate_success(NoiseModel(p_in=1e-3), n_qubits, n_stabilizers)

    def test_unregistered_size_keeps_the_product(self):
        # no registered code has 10 qubits and 9 checks at d = 3
        cfg = RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)
        assert codes.code_of_size(9, 8, 3).name == "surface"
        assert codes.code_of_size(10, 9, 3) is None
        sr = analytics.success_rate(cfg, 10, 9)
        assert sr.p_s == sr.p_s_in * sr.p_s_coh

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("name, d", [("surface", 3), ("phase-flip", 3), ("perfect", None)])
    def test_accepted_mass_is_the_walk_over_every_set(self, name, d, r):
        # p_s / p_s_in - p_s_coh against the sets of at most three
        # locations that the scalar walk accepts, each at its rate times
        # its class's pair weight, plus the r-fold readout masking once
        # it has more than three locations; a set weighs the product of
        # its odds, a per data fault and g = q / (1 - q) per flip
        code = get_code(name, d)
        readout = first_order_multiplicity(code)[2]
        noise = NoiseModel(p_in=2e-3, r=r)
        a = (noise.p_in / 3.0) / (1.0 - noise.p_in)
        g = noise.readout_flip / (1.0 - noise.readout_flip)
        weights = (a, g, a * a, a * g, g * g, a**3, a * a * g, a * g * g, g**3)
        walk = fault_set_counts(code, r, order=3)
        for theta in (0.3, 0.8, 2.0):
            cfg = RotationConfig(theta=theta, d=code.d, **vars(noise))
            s2, c2 = math.sin(theta / 2) ** 2, math.cos(theta / 2) ** 2
            pair_1 = s2 * c2 ** (code.d - 1) + s2 ** (code.d - 1) * c2
            mass = readout * g**r * pair_1 if r > 3 else 0.0
            for m, counts in enumerate(walk):
                pair = s2**m * c2 ** (code.d - m) + s2 ** (code.d - m) * c2**m
                mass += pair * sum(c * w for c, w in zip(counts, weights))
            sr = analytics.success_rate(cfg, code.n, len(code.stabilizers))
            assert sr.p_s / sr.p_s_in - sr.p_s_coh == pytest.approx(mass, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        angles,
        st.floats(min_value=0.0, max_value=0.01),
        st.integers(min_value=1, max_value=4),
    )
    def test_probability_bounds(self, theta, p_in, r):
        cfg = RotationConfig(theta=theta, d=3, p_in=p_in, r=r)
        sr = analytics.success_rate(cfg, 9, 8)
        for v in sr:
            assert 0.0 <= v <= 1.0
        rates = analytics.class_rates(cfg, SURFACE_3.error_multiplicities)
        assert sr.p_s == sr.p_s_in * analytics.model_terms(theta, 3, rates)[4]
        assert sr.p_s >= sr.p_s_in * sr.p_s_coh


class TestCoherent:
    def test_trivial_and_sqrt4(self):
        assert analytics.coherent_angle_std(3, 0.5, 0.0) == 0.0
        assert analytics.coherent_angle_std(4, 0.123, 0.01) == pytest.approx(
            2 * 0.123 * 0.01, rel=1e-15
        )

    def test_frozen_example(self):
        assert analytics.coherent_angle_std(5, 1e-3, 0.01) == pytest.approx(
            2.2360679774997898e-05, rel=1e-12
        )

    @pytest.mark.parametrize("d, theta_l0, sigma_frac", [(0, 0.5, 0.01), (3, -0.5, 0.01),
                                                         (3, 0.5, -0.01)])
    def test_refuses_bad_inputs(self, d, theta_l0, sigma_frac):
        with pytest.raises(ValueError):
            analytics.coherent_angle_std(d, theta_l0, sigma_frac)

    def test_matches_gaussian_sampling_oracle(self):
        theta, d, sigma_frac = 0.1, 5, 0.01
        theta_l0 = analytics.logical_angle(theta, d)
        predicted = analytics.coherent_angle_std(d, theta_l0, sigma_frac)
        sampled = gaussian_logical_angle_std(
            d, theta, sigma_frac * theta, n_samples=100_000, seed=3
        )
        assert abs(sampled / predicted - 1.0) < 0.02


class TestMultiRotation:
    """The oracle's flip-only split-rotation model, the reference of
    `test_08`; the planner ranks with `schemes._base_state`."""

    CFG = RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)

    def test_m1_reduces_to_one_shot(self):
        got = multi_rotation_incoherent(1, self.CFG, 3)
        want = 3 * (1e-3 / 3) * math.sin(0.25) ** 4 * math.cos(0.25) ** 2
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_ratio_example(self):
        cfg = RotationConfig(theta=0.2, d=3, p_in=1e-3)
        ratio = multi_rotation_incoherent(
            100, cfg, 3
        ) / multi_rotation_incoherent(1, cfg, 3)
        assert ratio == pytest.approx(0.21889901681276538, rel=1e-12)
        assert abs(ratio / 100 ** (-1 / 3) - 1.0) < 0.05

    def test_scaling_exponent(self):
        ms = np.unique(np.round(np.logspace(1, 3, 25)).astype(int))
        eps = [multi_rotation_incoherent(int(m), self.CFG, 3) for m in ms]
        slope = np.polyfit(np.log(ms), np.log(eps), 1)[0]
        assert abs(abs(slope) - (1 - 2 / 3)) < 0.05 * (1 - 2 / 3)

    def test_error_time_product_nearly_flat_at_large_d(self):
        # error falls like m^-(1-2/d) while time grows like m, so the
        # product scales as m^(2/d): nearly constant at d = 25
        cfg = RotationConfig(theta=0.1, d=25, p_in=1e-3)
        prods = [
            m * multi_rotation_incoherent(m, cfg, 25) for m in (10, 1000)
        ]
        assert max(prods) / min(prods) < 100 ** (2 / 25) * 1.05

    def test_coherent_fractional(self):
        assert multi_rotation_coherent_std(3, 3, 0.01) == pytest.approx(0.01)
        assert multi_rotation_coherent_std(12, 3, 0.01) == pytest.approx(0.005)
        assert multi_rotation_coherent_std(20, 5, 0.01) == pytest.approx(
            0.005, rel=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=9))
    def test_coherent_inverse_sqrt_m(self, m, d):
        # std * sqrt(m) is m-independent
        v = multi_rotation_coherent_std(m, d, 0.01)
        assert v * math.sqrt(m) == pytest.approx(math.sqrt(d) * 0.01, rel=1e-12)


class TestFilterCoefficients:
    """The oracle's even-weight filter, the reason `require_rotation`
    refuses the four-qubit code."""

    def test_identity_at_zero(self):
        assert filter_coefficients(0.0, 2) == (1.0, 1.0)

    def test_full_filter(self):
        c0, c1 = filter_coefficients(math.pi / 2, 2)
        assert c0 == pytest.approx(0.0, abs=1e-15)
        assert c1 == pytest.approx(1.0, rel=1e-15)

    def test_odd_d_unsupported(self):
        with pytest.raises(ValueError):
            filter_coefficients(0.5, 3)

    def test_sign_swaps_roles(self):
        c0, c1 = filter_coefficients(0.4, 4, sign=1)
        d0, d1 = filter_coefficients(0.4, 4, sign=-1)
        assert (c0, c1) == (d1, d0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=math.pi / 2))
    def test_amplification_ordering(self, theta):
        c0, c1 = filter_coefficients(theta, 2)
        assert c1 * c1 - c0 * c0 >= -1e-15


class TestPerCodeVariants:
    def test_four_qubit_angle_matches_branch_oracle(self):
        # the weight-2 map of the generic form equals oracle class 0 of
        # d = 2; that number is not a rotation angle (see below)
        for theta in (0.2, 0.7, 1.3):
            ref = statevector_branch_angles(2, theta)[0]
            assert analytics.logical_angle(theta, 2) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("name", ["four-qubit", "perfect"])
    def test_projected_rotation(self, name):
        # with dense matrices, P R P = a P + b Z_L P: b is real for the
        # weight-2 logical Z (a filter) and imaginary for weight 3 (a
        # rotation by the accepted angle)
        code = get_code(name)
        theta = 0.5
        dim = 1 << code.n
        proj = np.eye(dim, dtype=complex)
        for g in code.stabilizers:
            proj = proj @ (np.eye(dim) + pauli_matrix(g.label())) / 2
        rot = np.eye(dim, dtype=complex)
        for q in code.z_support:
            z_q = pauli_matrix("".join("Z" if i == q else "I" for i in range(code.n)))
            rot = rot @ (math.cos(theta / 2) * np.eye(dim) + 1j * math.sin(theta / 2) * z_q)
        zl = pauli_matrix(code.logical_z.label())
        prp = proj @ rot @ proj
        a = np.trace(prp) / np.trace(proj)
        b = np.trace(zl @ prp) / np.trace(proj)
        assert np.abs(prp - a * proj - b * zl @ proj).max() < 1e-12
        assert abs(a.imag) < 1e-12
        if name == "four-qubit":
            assert abs(b.imag) < 1e-12
            # a + b acts on Z_L = +1, a - b on Z_L = -1
            assert (a + b).real == pytest.approx(filter_coefficients(theta, 2)[0], abs=1e-12)
            assert (a - b).real == pytest.approx(filter_coefficients(theta, 2)[1], abs=1e-12)
        else:
            assert abs(b.real) < 1e-12
            assert 2 * math.atan2(abs(b), a.real) == pytest.approx(
                analytics.logical_angle(theta, 3), abs=1e-12
            )
