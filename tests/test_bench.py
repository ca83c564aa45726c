import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftrot import bench, cli, schemes
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
        (entry,) = [e for e in table.at_p_in(1e-3) if e.out_error == 4.5e-8]
        assert entry.cost == pytest.approx(12.6)
        assert "15-to-1" in entry.protocol

    def test_at_p_in_missing(self, table):
        with pytest.raises(LookupError, match="table covers"):
            table.at_p_in(5e-5)

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

    @pytest.mark.parametrize(
        "data,part",
        [
            ([1, 2], "'entries' list"),
            ({"provenance": "x", "entries": 5}, "'entries' list"),
            ({"provenance": "x", "entries": ["a"]}, "invalid distillation entry 'a'"),
            ({"provenance": "x", "entries": [{"p_in": [1], "out_error": 1e-8, "cost": 10.0}]},
             "invalid distillation entry"),
            ({"provenance": None, "entries": []}, "provenance must be a string"),
        ],
    )
    def test_from_dict_rejects_malformed(self, data, part):
        with pytest.raises(ValueError, match=re.escape(part)):
            DistillCostTable.from_dict(data)

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
    """Synthesis totals: one `rs_curve` point per table entry."""

    @staticmethod
    def entry_and_point(table, points):
        """The 1e-3 entry with out_error 4.5e-8 and its point; rs_curve
        emits one point per `at_p_in` entry, in the table's order."""
        entries = table.at_p_in(1e-3)
        (i,) = [i for i, e in enumerate(entries) if e.out_error == 4.5e-8]
        assert len(points) == len(entries)
        return entries[i], points[i]

    def test_single_entry_forms(self, table):
        theta = math.tau / 2 ** 10
        entry, pt = self.entry_and_point(table, bench.rs_curve(theta, table, p_in=1e-3))
        n_t = rs_t_count(theta / 10)
        assert pt.logical_error == n_t * entry.out_error
        assert pt.cost_d3 == pytest.approx(n_t * entry.cost + 186.0)
        assert pt.error_kind == "incoherent-t-only"

    def test_no_clifford(self, table):
        theta = math.tau / 2 ** 10
        pts = bench.rs_curve(theta, table, include_clifford=False, p_in=1e-3)
        entry, pt = self.entry_and_point(table, pts)
        assert pt.cost_d3 == rs_t_count(theta / 10) * entry.cost

    def test_untabled_angle_fallback(self, table):
        _, pt = self.entry_and_point(table, bench.rs_curve(0.01, table, p_in=1e-3))
        n_t = rs_t_count(0.001)
        assert pt.cost_d3 == pytest.approx(
            n_t * 12.6 + rs_clifford_cost(counts=(n_t, 1, n_t))
        )

    def test_curve_one_point_per_entry(self, table):
        pts = bench.rs_curve(math.tau / 2 ** 10, table, p_in=1e-4)
        assert len(pts) == 5
        assert all(p.method == "rs" for p in pts)


class TestGoldenBaselineRows:
    """Every rs and coh report row, pinned exactly, with the bundled table.

    2pi/2^10 takes the tabulated Clifford counts, 2pi/2^12 the fallback
    (n_T, 1, n_T).  Rows run from high error to low, as reported.
    """

    # (level, p_in) -> rs rows (logical_error, cost_d3 with Clifford
    # costs, cost_d3 T states only)
    RS = {
        (10, 1e-3): [
            (1.44e-06, 589.2, 403.2),
            (4.48e-09, 11715.6, 11529.6),
            (8.32e-10, 15232.4, 15046.4),
            (8.64e-11, 5373.2, 5187.2),
            (1.056e-12, 7994.0, 7808.0),
            (1.44e-18, 19427.6, 19241.6),
        ],
        (10, 1e-4): [
            (1.408e-06, 399.44, 213.44),
            (2.976e-08, 489.04, 303.04),
            (6.08e-10, 1090.6399999999999, 904.64),
            (7.68e-14, 21757.2, 21571.2),
            (2.016e-23, 18554.0, 18368.0),
        ],
        (12, 1e-3): [
            (1.71e-06, 712.8, 478.8),
            (5.320000000000001e-09, 13925.4, 13691.4),
            (9.880000000000001e-10, 18101.6, 17867.6),
            (1.0259999999999999e-10, 6393.8, 6159.8),
            (1.254e-12, 9506.0, 9272.0),
            (1.7100000000000001e-18, 23083.399999999998, 22849.399999999998),
        ],
        (12, 1e-4): [
            (1.6719999999999998e-06, 487.46000000000004, 253.46),
            (3.534e-08, 593.86, 359.86),
            (7.22e-10, 1308.26, 1074.26),
            (9.119999999999999e-14, 25849.8, 25615.8),
            (2.3939999999999998e-23, 22046.0, 21812.0),
        ],
    }

    # (level, p_in) -> coh rows (logical_error, cost_d3); the Clifford
    # flag does not reach this baseline
    COH = {
        (10, 1e-3): [
            (2.770880548095703e-12, 74714.00000000001),
            (8.545157060644531e-15, 825746.0000000001),
            (1.5869221740048829e-15, 1063130.0),
            (1.6479500934966063e-16, 397633.99999999994),
            (2.0141601693172023e-18, 574538.0),
            (2.7465820312500243e-24, 1346306.0),
        ],
        (10, 1e-4): [
            (2.70877745703125e-12, 61905.20000000001),
            (5.677307347902832e-14, 67953.2),
            (1.1596723004855957e-15, 108561.2),
            (1.4648437506911577e-19, 1503554.0000000002),
            (3.84521484375e-29, 1287338.0),
        ],
        (12, 1e-3): [
            (1.9596128425598143e-13, 300582.80000000005),
            (5.342928162902832e-16, 3321400.4000000004),
            (9.919024087530518e-17, 4276211.600000001),
            (1.029977009685379e-17, 1599438.7999999998),
            (1.2588502283357514e-19, 2310986.0),
            (1.716613769531493e-25, 5415208.399999999),
        ],
        (12, 1e-4): [
            (1.9107859106445313e-13, 249062.96000000005),
            (3.55804721743927e-15, 273389.36),
            (7.248358003034973e-17, 436723.76),
            (9.155273506619736e-21, 6047694.800000001),
            (2.40325927734375e-30, 5178026.0),
        ],
    }

    @classmethod
    def expected(cls, level, p_in, include_clifford):
        rs = [
            ("rs", err, cost if include_clifford else t_only, "incoherent-t-only")
            for err, cost, t_only in cls.RS[level, p_in]
        ]
        coh = [("coh", err, cost, "incoherent-t-only") for err, cost in cls.COH[level, p_in]]
        return rs + coh

    @staticmethod
    def pinned(rows):
        return [(r["method"], r["logical_error"], r["cost_d3"], r["error_kind"]) for r in rows]

    @pytest.mark.parametrize("include_clifford", [True, False])
    @pytest.mark.parametrize("p_in", [1e-3, 1e-4])
    @pytest.mark.parametrize("level", [10, 12])
    def test_rows_exact(self, table, level, p_in, include_clifford):
        rows = bench.pareto_report(
            ["rs", "coh"],
            math.tau / 2 ** level,
            NoiseModel(p_in=p_in),
            distill=table,
            include_clifford=include_clifford,
        )
        # plain == on floats: abs=0, rel=0
        assert self.pinned(rows) == self.expected(level, p_in, include_clifford)
        assert all(r[c] is None for r in rows for c in ("d", "theta", "k", "m"))

    def test_cli_no_clifford_json(self, capsys):
        argv = ["bench", "--theta-l", "2pi/2^10", "--methods", "rs,coh",
                "--distill-costs", "bundled", "--no-clifford", "--format", "json"]
        assert cli.main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert self.pinned(rows) == self.expected(10, 1e-3, False)


class TestParetoFront:
    def test_known_front(self):
        pts = [
            (1e-3, 10.0, "x"),
            (1e-4, 5.0, "x"),  # dominates the first
            (1e-5, 50.0, "x"),
            (1e-5, 60.0, "x"),  # duplicate error, pricier
        ]
        front = pareto_front(pts)
        assert [(p[0], p[1]) for p in front] == [
            (1e-4, 5.0),
            (1e-5, 50.0),
        ]

    def test_tuples_and_ties_keep_the_order_given(self):
        # the tuples themselves enter, whatever follows (error, cost); of
        # equal coordinates the first one given enters
        coords = [(1e-3, 10.0), (1e-4, 5.0), (1e-5, 50.0), (1e-5, 60.0), (1e-4, 5.0)]
        tags = range(len(coords), 0, -1)
        cells = [(e, c, tag) for (e, c), tag in zip(coords, tags)]
        assert pareto_front(cells) == [(1e-4, 5.0, 4), (1e-5, 50.0, 3)]
        pts = [(e, c, CostPoint(str(tag), e, c)) for (e, c), tag in zip(coords, tags)]
        assert pareto_front(pts) == [pts[1], pts[2]]

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
        pts = [(e, c, "x") for e, c in coords]
        front = pareto_front(pts)
        assert front
        for f in front:
            assert not any(
                (p[0] <= f[0] and p[1] < f[1]) or (p[0] < f[0] and p[1] <= f[1])
                for p in pts
            )
        errs = [f[0] for f in front]
        costs = [f[1] for f in front]
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
        coords = [(p.logical_error, p.cost_d3, p) for p in pts]
        assert coords == pareto_front(coords)
        assert all(p.method == "ours" and p.error_kind == "incoherent" for p in pts)

    def test_our_curve_builds_cost_points_for_the_front_only(self, monkeypatch):
        built = []

        def counting_cost_point(*args, **kwargs):
            built.append(1)
            return CostPoint(*args, **kwargs)

        monkeypatch.setattr(bench, "CostPoint", counting_cost_point)
        front = bench.our_method_curve(self.TARGET, "surface", self.NOISE)
        plans = list(schemes.iter_plans(self.TARGET, "surface", self.NOISE))
        assert len(built) == len(front) < len(plans)

    def test_report_ours_only_without_table(self):
        rows = bench.pareto_report(
            ["ours"], self.TARGET, self.NOISE, d_values=(3,), k_max=2, m_max=4
        )
        assert rows
        assert set(rows[0]) == set(bench.REPORT_COLUMNS)

    def test_report_baselines_need_table(self):
        with pytest.raises(ValueError, match="distill"):
            bench.pareto_report(["ours", "rs"], self.TARGET, self.NOISE)

    def test_report_refuses_settings_no_method_reads(self, table):
        with pytest.raises(ValueError, match="no distillation table"):
            bench.pareto_report(["ours"], self.TARGET, self.NOISE, distill=table)
        with pytest.raises(ValueError, match="no Clifford setting"):
            bench.pareto_report(
                ["ours", "coh"], self.TARGET, self.NOISE, distill=table, include_clifford=False
            )

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
        # 0 and negative angles included: no level, not a division by zero
        for theta in (0.5, math.tau / 2 ** 3, 0.0, -1.0):
            with pytest.raises(ValueError, match="2pi/2"):
                bench.coh_curve(theta, table, p_in=1e-3)

    @pytest.mark.parametrize("methods", [[], ["ours", "ours"], ["rs", "coh", "rs"]])
    def test_report_refuses_empty_or_repeated_methods(self, table, methods):
        with pytest.raises(ValueError, match="repeats"):
            bench.pareto_report(methods, self.TARGET, self.NOISE, distill=table)

    def test_cost_point_validation(self):
        with pytest.raises(ValueError):
            CostPoint("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            CostPoint("x", 1e-6, -1.0)
        for error, cost in ((math.nan, 1.0), (1e-6, math.nan), (math.inf, 1.0), (1e-6, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                CostPoint("x", error, cost)
