import argparse
import importlib.metadata
import json
import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ftrot import analytics, bench, cli, codes, schemes
from ftrot.codes import Multiplicities
from ftrot.mcsim import NoiseModel


def run_main(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def refusal(name):
    """The one stderr line every command prints for a code that
    `codes.require_rotation` refuses."""
    with pytest.raises(ValueError) as exc:
        codes.require_rotation(codes.get_code(name))
    return f"error: {exc.value}\n"


class TestParsing:
    def test_dyadic_literal_is_exact(self):
        assert cli.parse_angle("2pi/2^10") == math.tau / (1 << 10)
        assert cli.parse_angle(" 2pi/2^4 ") == math.tau / 16

    def test_float_angles(self):
        assert cli.parse_angle("0.5") == 0.5
        assert cli.parse_angle("1e-3") == 1e-3

    def test_bad_angle(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle("2pi/3^4")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle("half")

    def test_theta_range(self):
        assert cli.parse_theta_range("0.1:0.3:3") == pytest.approx([0.1, 0.2, 0.3])
        assert cli.parse_theta_range("0.1:0.9:1") == [0.1]
        assert cli.parse_theta_range("0.7") == [0.7]
        assert cli.parse_theta_range("2pi/2^4") == [math.tau / 16]

    def test_bad_range(self):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_theta_range("0.1:0.3")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_theta_range("0.1:0.3:0")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_theta_range("a:b:3")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "infinity"])
    def test_non_finite_angles(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle(text)
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_theta_range(f"{text}:0.3:3")
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_theta_range(f"0.1:{text}:3")

    def test_huge_dyadic_exponent_is_zero_not_overflow(self):
        assert cli.parse_angle("2pi/2^2000") == 0.0

    def test_sweep_size_is_bounded(self, capsys):
        steps = cli.MAX_THETA_STEPS
        assert len(cli.parse_theta_range(f"0.1:0.2:{steps}")) == steps
        # refused before any list is built
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--theta", "0.1:0.2:100000000"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    BASE = {
        "analyze": ["analyze", "--theta", "0.5"],
        "simulate": ["simulate", "--theta", "0.5", "--trials", "10", "--seed", "1"],
        "scaffold": ["scaffold", "--theta-l", "2pi/2^10"],
        "bench": ["bench", "--theta-l", "2pi/2^10"],
    }

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("analyze", "--theta", "nan"),
            ("analyze", "--theta", "0.1:inf:3"),
            ("analyze", "--sigma", "nan"),
            ("analyze", "--sigma", "inf"),
            ("analyze", "--p-in", "nan"),
            ("simulate", "--theta", "inf"),
            ("simulate", "--theta-l-target", "nan"),
            ("simulate", "--readout-flip", "nan"),
            ("scaffold", "--theta-l", "nan"),
            ("scaffold", "--error-ceiling", "nan"),
            ("scaffold", "--error-ceiling", "inf"),
            ("bench", "--theta-l", "-inf"),
        ],
    )
    def test_non_finite_flag_exits_2(self, capsys, command, flag, value):
        # the later occurrence of a repeated flag wins
        with pytest.raises(SystemExit) as exc:
            cli.main(self.BASE[command] + [f"{flag}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestFlagsRead:
    """Each command accepts only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--theta", "0.5", "--trials", "10", "--seed", "1", "--format", "csv"],
            ["walk", "--m", "2", "--walks", "10", "--seed", "1", "--format", "csv"],
            ["scaffold", "--theta-l", "2pi/2^10", "--format", "csv"],
            ["codes", "validate", "perfect", "--format", "csv"],
            ["codes", "list", "surface"],
            ["codes", "list", "--d", "9"],
        ],
        ids=["simulate-format", "walk-format", "scaffold-format", "validate-format",
             "list-code", "list-d"],
    )
    def test_unread_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    def test_option_strings_are_pinned(self):
        def commands(parser):
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return sub.choices

        def options(parser):
            return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}

        top = commands(cli.build_parser())
        found = {name: options(p) for name, p in top.items() if name != "codes"}
        found.update({f"codes {name}": options(p) for name, p in commands(top["codes"]).items()})
        noise = {"--p-in", "--r"}
        grid = {"--d-values", "--k-max", "--m-max"}
        assert found == {
            "codes list": {"--format", "--out"},
            "codes validate": {"--d", "--out"},
            "analyze": {"--code", "--d", "--theta", "--sigma", "--format", "--out"} | noise,
            "simulate": {"--code", "--d", "--theta", "--trials", "--seed", "--threads",
                         "--theta-l-target", "--readout-flip", "--inject-z", "--out"} | noise,
            "walk": {"--m", "--walks", "--seed", "--out"},
            "scaffold": {"--theta-l", "--code", "--error-ceiling", "--out"} | noise | grid,
            "bench": {"--theta-l", "--methods", "--code", "--distill-costs", "--no-clifford",
                      "--format", "--out"} | noise | grid,
        }


class TestCodesCommand:
    def test_list_json(self, capsys):
        rc, out, _ = run_main(["codes", "list"], capsys)
        assert rc == 0
        rows = json.loads(out)
        assert [r["name"] for r in rows] == [
            "phase-flip",
            "surface",
            "four-qubit",
            "perfect",
        ]
        assert all(set(r) == {"name", "parametrized", "description"} for r in rows)

    def test_list_csv(self, capsys):
        rc, out, _ = run_main(["codes", "list", "--format", "csv"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "name,parametrized,description"
        assert len(lines) == 5

    def test_validate_ok(self, capsys):
        rc, out, _ = run_main(["codes", "validate", "surface", "--d", "3"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["distance"] == 3
        assert payload["failures"] == []

    def test_validate_bad_distance(self, capsys):
        rc, _, err = run_main(["codes", "validate", "surface", "--d", "4"], capsys)
        assert rc == 2
        assert "error:" in err

    def test_validate_needs_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["codes", "validate"])
        assert exc.value.code == 2


class TestAnalyzeCommand:
    def test_negative_sigma(self, capsys):
        rc, out, err = run_main(["analyze", "--theta", "0.5", "--sigma", "-0.1"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_csv_header_and_sweep(self, capsys):
        rc, out, _ = run_main(["analyze", "--theta", "0.2:0.8:4"], capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(cli.ANALYZE_COLUMNS)
        assert len(lines) == 5

    def test_json_matches_library(self, capsys):
        rc, out, _ = run_main(
            ["analyze", "--theta", "0.5", "--format", "json"], capsys
        )
        assert rc == 0
        rows = json.loads(out)
        assert len(rows) == 1
        cfg = analytics.RotationConfig(theta=0.5, d=3, p_in=1e-3, r=2)
        # surface d=3 counts 5 first-order channels (Z on the 3 support
        # qubits plus Z on the off-support qubits 3 and 5) and 2 readout
        # channels, so the column reflects the code, not bare d
        assert rows[0]["eps"] == pytest.approx(
            analytics.accepted_error_model(cfg, Multiplicities(3, 2, 2)), rel=1e-12, abs=0
        )
        assert rows[0]["theta_L"] == pytest.approx(
            analytics.logical_angle(0.5, 3), rel=1e-12
        )

    def test_zero_noise_zeros(self, capsys):
        rc, out, _ = run_main(
            ["analyze", "--theta", "0.5", "--p-in", "0", "--format", "json"], capsys
        )
        rows = json.loads(out)
        assert rows[0]["eps"] == 0.0
        assert rows[0]["p_s_in"] == 1.0

    @pytest.mark.parametrize("family,d", [("four-qubit", 2), ("perfect", 3)])
    def test_fixed_code_needs_no_d(self, capsys, family, d):
        rc, out, err = run_main(
            ["analyze", "--code", family, "--theta", "0.5", "--format", "json"], capsys
        )
        if family == "four-qubit":
            # weight-2 logical Z: the projected rotation is a filter
            assert (rc, out, err) == (2, "", refusal(family))
            return
        assert rc == 0, err
        code = codes.get_code(family)
        cfg = analytics.RotationConfig(theta=0.5, d=d, p_in=1e-3, r=2)
        assert json.loads(out)[0]["eps"] == pytest.approx(
            analytics.accepted_error_model(cfg, code.error_multiplicities), rel=1e-12, abs=0
        )

    def test_non_finite_value_is_refused_not_nulled(self, capsys):
        # sigma/theta overflows: JSON has no spelling for the result
        rc, out, err = run_main(
            ["analyze", "--theta", "1e-5", "--sigma", "1e308", "--format", "json"], capsys
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_sigma_column(self, capsys):
        rc, out, _ = run_main(
            ["analyze", "--theta", "0.5", "--sigma", "0.005", "--format", "json"],
            capsys,
        )
        rows = json.loads(out)
        assert rows[0]["coherent_std"] == pytest.approx(
            analytics.coherent_angle_std(
                3, analytics.logical_angle(0.5, 3), 0.005 / 0.5
            ),
            rel=1e-12,
        )


@pytest.mark.filterwarnings("ignore::ftrot.mcsim.RareEventWarning")
class TestSimulateCommand:
    ARGS = [
        "simulate",
        "--theta",
        "0.5",
        "--trials",
        "20000",
        "--seed",
        "11",
    ]

    def test_output_schema_and_timing_line(self, capsys):
        rc, out, err = run_main(self.ARGS + ["--threads", "2"], capsys)
        assert rc == 0
        assert "simulate: 20000 trials" in err
        payload = json.loads(out)
        assert payload["trials"] == 20000
        assert payload["seed"] == 11
        assert payload["params"]["code"] == "surface"

    def test_byte_identical_across_threads(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rc1, _, _ = run_main(self.ARGS + ["--threads", "1", "--out", str(a)], capsys)
        rc2, _, _ = run_main(self.ARGS + ["--threads", "4", "--out", str(b)], capsys)
        assert rc1 == rc2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_rerun(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_main(self.ARGS + ["--out", str(a)], capsys)
        run_main(self.ARGS + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_inject_z(self, capsys):
        rc, out, _ = run_main(
            [
                "simulate",
                "--theta",
                "0.5",
                "--trials",
                "5000",
                "--seed",
                "3",
                "--p-in",
                "0",
                "--inject-z",
                "4",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["branch_histogram"][0] == 0
        assert payload["mean_infidelity"] == pytest.approx(
            analytics.branch_infidelity(1, 3, 0.5), rel=1e-12
        )

    def test_fixed_code_gets_structural_message(self, capsys):
        rc, out, err = run_main(
            ["simulate", "--code", "four-qubit", "--theta", "0.5", "--trials", "10",
             "--seed", "1"],
            capsys,
        )
        assert (rc, out, err) == (2, "", refusal("four-qubit"))
        assert "fixed d" not in err

    def test_bad_trials(self, capsys):
        rc, _, err = run_main(
            ["simulate", "--theta", "0.5", "--trials", "0", "--seed", "1"], capsys
        )
        assert rc == 2
        assert "error:" in err

    def test_bad_threads(self, capsys):
        rc, _, err = run_main(self.ARGS + ["--threads", "0"], capsys)
        assert rc == 2
        assert "threads must be >= 1" in err
        # in a fresh process so the warning would reach stderr unfiltered
        proc = subprocess.run(
            [sys.executable, "-m", "ftrot.cli"] + self.ARGS + ["--threads", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "threads must be >= 1" in proc.stderr
        assert "RareEventWarning" not in proc.stderr

    def test_fresh_seed_recorded(self, capsys):
        rc, out, _ = run_main(
            ["simulate", "--theta", "0.5", "--trials", "1000"], capsys
        )
        assert rc == 0
        payload = json.loads(out)
        assert isinstance(payload["seed"], int) and payload["seed"] >= 0


class TestWalkCommand:
    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["walk", "--m", "3", "--walks", "10000", "--seed", "7"]
        run_main(argv + ["--out", str(a)], capsys)
        run_main(argv + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["expected_steps"] == 9
        assert payload["m"] == 3
        assert payload["stream"] == 2

    @pytest.mark.parametrize("m", ["0", "65"])
    def test_m_outside_1_to_m_max_exits_2(self, capsys, m):
        rc, out, err = run_main(["walk", "--m", m, "--walks", "10", "--seed", "1"], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestSeedRange:
    """A seed is a Philox key word, [0, 2^64): outside it nothing runs,
    and the seeds from 2^63 on each get their own stream."""

    COMMANDS = {
        "walk": ["walk", "--m", "3", "--walks", "2000"],
        "simulate": ["simulate", "--theta", "0.5", "--trials", "2000"],
    }

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize("command", ["walk", "simulate"])
    def test_out_of_range_exits_2(self, capsys, command, seed):
        # simulate at 2000 trials would warn; the refusal comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_main(self.COMMANDS[command] + ["--seed", str(seed)], capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: seed must be in [0, 2^64), got {seed}\n"

    @pytest.mark.filterwarnings("ignore::ftrot.mcsim.RareEventWarning")
    @pytest.mark.parametrize("command", ["walk", "simulate"])
    def test_high_seeds_do_not_alias(self, capsys, command):
        payloads = []
        for seed in ((1 << 63) + 1, (1 << 63) + 1000):
            rc, out, _ = run_main(self.COMMANDS[command] + ["--seed", str(seed)], capsys)
            assert rc == 0
            payload = json.loads(out)
            assert payload.pop("seed") == seed
            payloads.append(payload)
        assert payloads[0] != payloads[1]


class TestScaffoldCommand:
    def test_plan_payload(self, capsys):
        rc, out, _ = run_main(["scaffold", "--theta-l", "2pi/2^10"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["infeasible"] is False
        plan = payload["plan"]
        ref = schemes.scaffold_optimize(
            math.tau / (1 << 10), "surface", NoiseModel(p_in=1e-3, r=2)
        )
        assert plan["d"] == ref.d and plan["k"] == ref.k and plan["m"] == ref.m
        assert plan["expected_cost"] == pytest.approx(ref.expected_cost, rel=1e-12)
        assert sum(plan["breakdown"].values()) == pytest.approx(
            plan["expected_cost"], rel=1e-12
        )
        assert payload["bounds"] == {"d_values": [3, 5, 7], "k_max": 9, "m_max": 64}

    def test_infeasible_exit_code(self, capsys):
        rc, out, _ = run_main(
            ["scaffold", "--theta-l", "2pi/2^10", "--error-ceiling", "1e-30"], capsys
        )
        assert rc == 3
        payload = json.loads(out)
        assert payload["infeasible"] is True
        assert "best_plan" in payload and payload["best_plan"]["d"] in (3, 5, 7)

    def test_custom_grid(self, capsys):
        rc, out, _ = run_main(
            [
                "scaffold",
                "--theta-l",
                "0.01",
                "--d-values",
                "3",
                "--k-max",
                "2",
                "--m-max",
                "4",
            ],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["plan"]["d"] == 3
        assert payload["plan"]["k"] <= 2 and payload["plan"]["m"] <= 4


class TestBenchCommand:
    def test_ours_only_csv(self, capsys):
        rc, out, _ = run_main(
            [
                "bench",
                "--theta-l",
                "2pi/2^10",
                "--d-values",
                "3",
                "--k-max",
                "2",
                "--m-max",
                "8",
            ],
            capsys,
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(bench.REPORT_COLUMNS)
        assert all(line.split(",")[0] == "ours" for line in lines[1:])

    def test_full_report_bundled(self, capsys):
        rc, out, _ = run_main(
            [
                "bench",
                "--theta-l",
                "2pi/2^10",
                "--methods",
                "ours,rs,coh",
                "--distill-costs",
                "bundled",
                "--format",
                "json",
                "--d-values",
                "3,5",
                "--k-max",
                "3",
                "--m-max",
                "8",
            ],
            capsys,
        )
        assert rc == 0
        rows = json.loads(out)
        assert {r["method"] for r in rows} == {"ours", "rs", "coh"}

    @pytest.mark.parametrize("methods", [",", "ours,ours", "rs,coh,rs"])
    def test_empty_or_repeated_methods_exit_2(self, capsys, methods):
        rc, out, err = run_main(
            ["bench", "--theta-l", "2pi/2^10", "--methods", methods,
             "--distill-costs", "bundled"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert "repeats" in err

    def test_baseline_without_table(self, capsys):
        rc, _, err = run_main(
            ["bench", "--theta-l", "2pi/2^10", "--methods", "rs"], capsys
        )
        assert rc == 2
        assert "distill" in err

    def test_unknown_method(self, capsys):
        rc, _, err = run_main(
            ["bench", "--theta-l", "2pi/2^10", "--methods", "magic"], capsys
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--methods", "ours", "--no-clifford", "--distill-costs", "bundled"],
            ["--methods", "ours", "--distill-costs", "bundled"],
            ["--methods", "ours", "--no-clifford"],
            ["--methods", "ours,coh", "--no-clifford", "--distill-costs", "bundled"],
        ],
        ids=["ours-both", "ours-table", "ours-clifford", "coh-clifford"],
    )
    def test_flag_no_method_reads_exits_2(self, capsys, flags):
        rc, out, err = run_main(["bench", "--theta-l", "2pi/2^10"] + flags, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: methods") and err.count("\n") == 1


class TestGridFlags:
    # the grid is checked at the boundary, also where no method reads it
    @pytest.mark.parametrize(
        "command",
        [
            ["scaffold"],
            ["bench", "--methods", "ours"],
            ["bench", "--methods", "rs,coh", "--distill-costs", "bundled"],
        ],
        ids=["scaffold", "bench-ours", "bench-baselines"],
    )
    @pytest.mark.parametrize(
        "flag",
        [["--k-max", "-5"], ["--m-max", "0"], ["--d-values", "4"]],
        ids=["k-max", "m-max", "d-values"],
    )
    def test_bad_grid_exits_2(self, capsys, command, flag):
        rc, out, err = run_main(command + ["--theta-l", "2pi/2^7"] + flag, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ")


class TestPlannerGrid:
    @pytest.mark.parametrize("command", ["scaffold", "bench"])
    @pytest.mark.parametrize(
        "noise",
        [["--p-in", "0.5"], ["--r", "10000"]],
        ids=["p_in-0.5", "r-10000"],
    )
    def test_overflowing_cells_are_skipped(self, capsys, command, noise):
        # some cells need more GHZ attempts (p_s^-k) than a float holds
        rc, out, err = run_main([command, "--theta-l", "2pi/2^10"] + noise, capsys)
        assert rc == 0, err
        if command == "scaffold":
            costs = [json.loads(out)["plan"]["expected_cost"]]
        else:
            costs = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert costs and all(math.isfinite(c) for c in costs)

    # one cell: r = 145 overflows p_s^-1, r = 142 overflows its cost
    @pytest.mark.parametrize("command", ["scaffold", "bench"])
    @pytest.mark.parametrize("r", ["145", "142"])
    def test_grid_without_finite_cell_exits_2(self, capsys, command, r):
        rc, out, err = run_main(
            [command, "--theta-l", "2pi/2^10", "--p-in", "0.3", "--r", r,
             "--d-values", "3", "--k-max", "1", "--m-max", "1"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert "empty grid" in err

    @pytest.mark.parametrize("command", ["scaffold", "bench"])
    @pytest.mark.parametrize("family,d", [("four-qubit", 2), ("perfect", 3)])
    def test_fixed_code_grid_defaults_to_own_d(self, capsys, command, family, d):
        argv = [command, "--theta-l", "2pi/2^8", "--code", family]
        rc, out, err = run_main(argv, capsys)
        if family == "four-qubit":
            assert (rc, out, err) == (2, "", refusal(family))
            return
        assert rc == 0, err
        assert run_main(argv + ["--d-values", str(d)], capsys) == (0, out, "")


class TestBadPaths:
    """A path that cannot be read or written exits 2 with one error
    line, before the command computes anything."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the computation started")

        monkeypatch.setattr(schemes, "scaffold_optimize", fail)
        monkeypatch.setattr(bench, "pareto_report", fail)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_distill_costs(self, capsys, tmp_path, no_work, kind):
        path = tmp_path / "missing.json" if kind == "missing" else tmp_path
        rc, out, err = run_main(
            ["bench", "--theta-l", "2pi/2^10", "--methods", "rs",
             "--distill-costs", str(path)],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["scaffold", "bench"])
    @pytest.mark.parametrize("kind", ["missing-dir", "directory"])
    def test_out(self, capsys, tmp_path, no_work, command, kind):
        path = tmp_path / "missing" / "x.json" if kind == "missing-dir" else tmp_path
        rc, out, err = run_main([command, "--theta-l", "2pi/2^10", "--out", str(path)], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


class TestEntryPoint:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "ftrot.cli", "analyze", "--theta", "0.5"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == ",".join(cli.ANALYZE_COLUMNS)

    def test_console_script(self):
        """pyproject.toml wires the `ftrot` command to `cli.main`. The
        script itself exists only after an install, so this runs the
        declared target the way pip's generated wrapper does."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["ftrot"] == "ftrot.cli:main"
        ep = importlib.metadata.EntryPoint(
            name="ftrot", value=scripts["ftrot"], group="console_scripts"
        )
        assert callable(ep.load())
        wrapper = (
            f"import sys; from {ep.module} import {ep.attr}; "
            f"sys.exit({ep.attr}())"
        )
        out = subprocess.run(
            [sys.executable, "-c", wrapper, "codes", "list", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.startswith("name,parametrized,description")

    @pytest.mark.skipif(
        shutil.which("ftrot") is None,
        reason="the ftrot console script is on PATH only after pip install",
    )
    def test_installed_console_script(self):
        out = subprocess.run(
            ["ftrot", "codes", "list", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.startswith("name,parametrized,description")
