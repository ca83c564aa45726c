import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot import bench
from ftrot.bench import (
    COH_COSTS,
    CostPoint,
    DistillCostTable,
    DistillEntry,
    coh_error_step,
    coh_ladder,
    pareto_front,
    rs_clifford_cost,
    rs_t_count,
)
from ftrot.mcsim import NoiseModel


@pytest.fixture(scope="module")
def table():
    return DistillCostTable.bundled()


class TestRsPrimitives:
    def test_clifford_costs_tabulated(self):
        assert rs_clifford_cost("2pi/2^4") == 97.0
        assert rs_clifford_cost("2pi/2^7") == 145.0
        assert rs_clifford_cost("2pi/2^10") == 186.0

    def test_clifford_cost_identity(self):
        for label, (h, s, t) in bench.RS_GATE_COUNTS.items():
            assert rs_clifford_cost(label) == h + 6 * s + 5 * t

    def test_clifford_unknown_label(self):
        with pytest.raises(KeyError):
            rs_clifford_cost("2pi/2^5")
        assert rs_clifford_cost(counts=(1, 1, 1)) == 12.0

    def test_t_count_values(self):
        assert rs_t_count(math.tau / 2 ** 4 / 10) == 14
        assert rs_t_count(math.tau / 2 ** 7 / 10) == 23
        assert rs_t_count(math.tau / 2 ** 10 / 10) == 32
        assert rs_t_count(0.5) == 3

    def test_t_count_near_tabled_sequences(self):
        got = [rs_t_count(math.tau / 2 ** k / 10) for k in (4, 7, 10)]
        for g, ref in zip(got, (14, 22, 30)):
            assert abs(g - ref) <= 3

    def test_t_count_domain(self):
        with pytest.raises(ValueError):
            rs_t_count(0.0)
        with pytest.raises(ValueError):
            rs_t_count(1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1e-12, max_value=0.9),
        st.floats(min_value=1e-12, max_value=0.9),
    )
    def test_t_count_nonincreasing_in_eps(self, a, b):
        lo, hi = sorted((a, b))
        assert rs_t_count(lo) >= rs_t_count(hi)


class TestCohPrimitives:
    def test_cost_constants_echo(self):
        assert COH_COSTS == {
            "success": 165.0,
            "fail": 181.0,
            "prep": 6.0,
            "reuse": -1.0,
            "t_inject": 8.0,
            "average": 187.0,
        }
        # average = mean of success and fail branches, each carrying
        # prep and T-injection overhead
        succ = COH_COSTS["success"] + COH_COSTS["prep"] + COH_COSTS["t_inject"]
        fail = COH_COSTS["fail"] + COH_COSTS["prep"] + COH_COSTS["t_inject"]
        assert COH_COSTS["average"] == (succ + fail) / 2

    def test_error_step_exact(self):
        assert coh_error_step(1e-4, 1e-4, 0.0) == 9e-8
        assert coh_error_step(0.0, 0.0, 4e-7) == 1e-7

    def test_error_step_domain(self):
        with pytest.raises(ValueError):
            coh_error_step(-1e-4, 0.0, 0.0)
        with pytest.raises(ValueError):
            coh_error_step(0.0, 1.0, 0.0)

    def test_error_step_contracts_below_fixed_point(self):
        # below 1/32 on all inputs the rung never amplifies the worst rate
        grid = (1e-6, 1e-4, 1e-3, 1.0 / 32 - 1e-9)
        for a in grid:
            for b in grid:
                for c in grid:
                    assert coh_error_step(a, b, c) <= max(a, b, c)

    def test_ladder_single_rung(self):
        out = coh_ladder(4, 1e-4)
        assert out["error"] == coh_error_step(1e-4, 1e-4, 1e-4)
        assert [lv["level"] for lv in out["levels"]] == [3, 4]

    def test_ladder_frozen_cost(self):
        out = coh_ladder(4, 1e-4, t_state_cost=12.6)
        assert out["cost"] == pytest.approx(2 * (187.0 + 8 * 12.6 + 12.6), rel=1e-12)

    def test_ladder_recursion_matches_hand_chain(self):
        eps = 1e-4
        err, cost = eps, 0.0
        for _ in range(4, 11):
            err = 8 * eps * eps + eps * eps + 0.25 * err
            cost = 2 * (187.0 + cost)
        out = coh_ladder(10, eps)
        assert out["error"] == pytest.approx(err, rel=1e-12)
        assert out["cost"] == pytest.approx(cost, rel=1e-12)

    def test_ladder_error_saturates(self):
        # fixed point of e -> 9 eps^2 + e/4 is 12 eps^2
        eps = 1e-4
        deep = coh_ladder(30, eps)["error"]
        assert deep == pytest.approx(12.0 * eps * eps, rel=1e-6)

    def test_ladder_domain(self):
        with pytest.raises(ValueError):
            coh_ladder(3, 1e-4)


class TestDistillTable:
    def test_bundled_shape(self, table):
        assert "Litinski" in table.provenance
        assert len(table.at_p_in(1e-3)) == 6
        assert len(table.at_p_in(1e-4)) == 5
        errs = [e.out_error for e in table.entries]
        assert errs == sorted(errs)

    def test_at_p_in_missing(self, table):
        with pytest.raises(LookupError, match="table covers"):
            table.at_p_in(5e-5)

    def test_entry_at_exact_only(self, table):
        e = table.entry_at(1e-3, 4.5e-8)
        assert e.cost == pytest.approx(12.6)
        assert "15-to-1" in e.protocol
        with pytest.raises(LookupError, match="refused"):
            table.entry_at(1e-3, 5e-8)

    def test_provenance_required(self):
        with pytest.raises(ValueError, match="provenance"):
            DistillCostTable(provenance="  ", entries=())

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            DistillCostTable(
                provenance="x",
                entries=(DistillEntry(p_in=1e-3, out_error=0.0, cost=1.0, protocol=""),),
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cost", math.nan),
            ("cost", math.inf),
            ("out_error", math.nan),
            ("out_error", 1.0),
            ("p_in", math.nan),
        ],
    )
    def test_from_dict_rejects_non_finite(self, field, value):
        entry = {"p_in": 1e-3, "out_error": 1e-8, "cost": 10.0, field: value}
        with pytest.raises(ValueError, match="invalid distillation entry"):
            DistillCostTable.from_dict({"provenance": "x", "entries": [entry]})

    def test_load_round_trip(self, table, tmp_path):
        p = tmp_path / "t.json"
        p.write_text(
            json.dumps(
                {
                    "provenance": table.provenance,
                    "entries": [
                        {
                            "p_in": e.p_in,
                            "out_error": e.out_error,
                            "cost": e.cost,
                            "protocol": e.protocol,
                        }
                        for e in table.entries
                    ],
                }
            )
        )
        assert DistillCostTable.load(str(p)) == table


class TestRsTotal:
    def test_single_entry_forms(self, table):
        theta = math.tau / 2 ** 10
        entry = table.entry_at(1e-3, 4.5e-8)
        pt = bench.rs_total(theta, table, p_in=1e-3, t_state_error=4.5e-8)
        n_t = rs_t_count(theta / 10)
        assert pt.logical_error == n_t * entry.out_error
        assert pt.cost_d3 == pytest.approx(n_t * entry.cost + 186.0)
        assert pt.error_kind == "incoherent-t-only"
        assert pt.params_echo["n_t"] == n_t

    def test_no_clifford(self, table):
        theta = math.tau / 2 ** 10
        entry = table.entry_at(1e-3, 4.5e-8)
        pt = bench.rs_total(
            theta, table, include_clifford=False, p_in=1e-3, t_state_error=4.5e-8
        )
        assert pt.cost_d3 == rs_t_count(theta / 10) * entry.cost

    def test_untabled_angle_fallback(self, table):
        pt = bench.rs_total(0.01, table, p_in=1e-3, t_state_error=4.5e-8)
        n_t = rs_t_count(0.001)
        assert pt.cost_d3 == pytest.approx(
            n_t * 12.6 + rs_clifford_cost(counts=(n_t, 1, n_t))
        )

    def test_ambiguous_entry_refused(self, table):
        with pytest.raises(ValueError, match="t_state_error"):
            bench.rs_total(math.tau / 2 ** 10, table, p_in=1e-3)

    def test_curve_one_point_per_entry(self, table):
        pts = bench.rs_curve(math.tau / 2 ** 10, table, p_in=1e-4)
        assert len(pts) == 5
        assert all(p.method == "rs" for p in pts)


class TestParetoFront:
    def test_known_front(self):
        pts = [
            CostPoint("x", 1e-3, 10.0),
            CostPoint("x", 1e-4, 5.0),  # dominates the first
            CostPoint("x", 1e-5, 50.0),
            CostPoint("x", 1e-5, 60.0),  # duplicate error, pricier
        ]
        front = pareto_front(pts)
        assert [(p.logical_error, p.cost_d3) for p in front] == [
            (1e-4, 5.0),
            (1e-5, 50.0),
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-12, max_value=0.1),
                st.floats(min_value=1e-3, max_value=1e6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_no_domination_and_shape(self, coords):
        pts = [CostPoint("x", e, c) for e, c in coords]
        front = pareto_front(pts)
        assert front
        for f in front:
            assert not any(
                (p.logical_error <= f.logical_error and p.cost_d3 < f.cost_d3)
                or (p.logical_error < f.logical_error and p.cost_d3 <= f.cost_d3)
                for p in pts
            )
        errs = [f.logical_error for f in front]
        costs = [f.cost_d3 for f in front]
        assert errs == sorted(errs, reverse=True)
        assert costs == sorted(costs)


class TestOurCurveAndReport:
    NOISE = NoiseModel(p_in=1e-3, r=2)
    TARGET = math.tau / (1 << 10)

    def test_our_curve_is_front(self):
        pts = bench.our_method_curve(
            self.TARGET, "surface", self.NOISE, d_values=(3, 5), k_max=3, m_max=8
        )
        assert pts
        assert pts == pareto_front(pts)
        assert all(p.method == "ours" and p.error_kind == "incoherent" for p in pts)

    def test_report_ours_only_without_table(self):
        rows = bench.pareto_report(
            ["ours"], self.TARGET, self.NOISE, d_values=(3,), k_max=2, m_max=4
        )
        assert rows
        assert set(rows[0]) == set(bench.REPORT_COLUMNS)

    def test_report_baselines_need_table(self):
        with pytest.raises(ValueError, match="distill"):
            bench.pareto_report(["ours", "rs"], self.TARGET, self.NOISE)

    def test_report_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            bench.pareto_report(["ours", "magic"], self.TARGET, self.NOISE)

    def test_report_full(self, table):
        rows = bench.pareto_report(
            ["ours", "rs", "coh"],
            self.TARGET,
            self.NOISE,
            distill=table,
            d_values=(3, 5),
            k_max=3,
            m_max=8,
        )
        methods = [r["method"] for r in rows]
        assert methods == sorted(methods, key=["ours", "rs", "coh"].index)
        assert {"ours", "rs", "coh"} == set(methods)
        for method in ("ours", "rs", "coh"):
            errs = [r["logical_error"] for r in rows if r["method"] == method]
            assert errs == sorted(errs, reverse=True)

    def test_coh_curve_rejects_non_dyadic(self, table):
        with pytest.raises(ValueError, match="2pi/2"):
            bench.coh_curve(0.5, table, p_in=1e-3)

    def test_cost_point_validation(self):
        with pytest.raises(ValueError):
            CostPoint("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            CostPoint("x", 1e-6, -1.0)
        for error, cost in ((math.nan, 1.0), (1e-6, math.nan), (math.inf, 1.0), (1e-6, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                CostPoint("x", error, cost)
