"""Command-line driver: seeded batch runs emitting CSV or JSON.

Exit codes: 0 success, 1 validation failure (codes validate), 2 usage
error (an unreadable input file or an unwritable --out included), 3
infeasible or diverged computation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
import time
import types

from . import analytics, bench, codes, mcsim, schemes

ANALYZE_COLUMNS = (
    "theta",
    "theta_L",
    "eps",
    "p_s",
    "p_s_in",
    "p_s_coh",
    "coherent_std",
)

_ANGLE_LITERAL = re.compile(r"2pi/2\^(\d+)")

# Largest 'start:stop:steps' sweep; far beyond any useful plot, small
# enough that the list of angles is never a memory problem.
MAX_THETA_STEPS = 10**5

_D_HELP = "distance (default: 3 for parametrized families, the code's own for fixed codes)"


def finite_float(text: str) -> float:
    """float(text), refusing NaN and +/-inf with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def parse_angle(text: str) -> float:
    """Finite float radians, or the exact dyadic literal '2pi/2^k'."""
    text = text.strip()
    m = _ANGLE_LITERAL.fullmatch(text)
    if m:
        return math.ldexp(math.tau, -int(m.group(1)))
    try:
        return finite_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad angle {text!r}: expected radians or 2pi/2^k"
        ) from None


def parse_theta_range(text: str) -> list[float]:
    """'start:stop:steps' sweep, or a single angle."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"bad range {text!r}: want start:stop:steps")
        try:
            start, stop = finite_float(parts[0]), finite_float(parts[1])
            steps = int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range {text!r}") from None
        if not 1 <= steps <= MAX_THETA_STEPS:
            raise argparse.ArgumentTypeError(f"steps must be in [1, {MAX_THETA_STEPS}]")
        if steps == 1:
            return [start]
        return [start + i * (stop - start) / (steps - 1) for i in range(steps)]
    return [parse_angle(text)]


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1


def _emit(payload, fmt: str, out: str | None, columns=None) -> None:
    """Serialize deterministically; rows need a column tuple for CSV."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
        writer.writeheader()
        for row in payload:
            writer.writerow(row)
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_out(path: str | None) -> None:
    """Refuse an --out path that cannot be a file, before any work runs."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {path!r}: no directory {parent!r}")
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory")


def cmd_codes_list(args) -> int:
    rows = [
        {
            "name": name,
            "parametrized": codes.is_parametrized(name),
            "description": codes.CODE_DESCRIPTIONS[name],
        }
        for name in codes.list_codes()
    ]
    _emit(rows, args.format, args.out, columns=("name", "parametrized", "description"))
    return 0


def cmd_codes_validate(args) -> int:
    code = codes.get_code(args.code, args.d)
    report = codes.validate(code)
    payload = {
        "code": code.name,
        "n": code.n,
        "k": code.k,
        "d": code.d,
        "ok": report.ok,
        "failures": list(report.failures),
        "distance": report.distance,
    }
    _emit(payload, "json", args.out)
    return 0 if report.ok else 1


def cmd_analyze(args) -> int:
    if args.sigma < 0.0:
        raise ValueError("--sigma must be non-negative")
    code = _code(args)
    codes.require_rotation(code)
    noise = analytics.NoiseModel(p_in=args.p_in, r=args.r)
    p_s_in = analytics.substrate_success(noise, code.n, len(code.stabilizers))
    rates = analytics.class_rates(noise, code.error_multiplicities)
    rows = []
    for theta in args.theta:
        theta_l = analytics.logical_angle(theta, code.d)
        if theta > 0.0 and args.sigma > 0.0:
            coh = analytics.coherent_angle_std(code.d, theta_l, args.sigma / theta)
        else:
            coh = 0.0
        p_s_coh, _, _, eps, accepted = analytics.model_terms(theta, code.d, rates)
        rows.append(
            {
                "theta": theta,
                "theta_L": theta_l,
                "eps": eps,
                "p_s": p_s_in * accepted,
                "p_s_in": p_s_in,
                "p_s_coh": p_s_coh,
                "coherent_std": coh,
            }
        )
    _emit(rows, args.format, args.out, columns=ANALYZE_COLUMNS)
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    code = _code(args)
    noise = analytics.NoiseModel(p_in=args.p_in, r=args.r, readout_flip=args.readout_flip)
    seed = args.seed if args.seed is not None else _fresh_seed()
    t0 = time.monotonic()
    stats = mcsim.estimate(
        code,
        args.theta,
        args.theta_l_target,
        noise,
        args.trials,
        seed,
        threads=args.threads,
        inject_z=args.inject_z,
    )
    print(
        f"simulate: {args.trials} trials in {time.monotonic() - t0:.1f}s "
        f"(acceptance {stats.acceptance_rate:.4f})",
        file=sys.stderr,
    )
    _emit(stats.to_dict(), "json", args.out)
    return 0


def cmd_walk(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    stats = schemes.simulate_walk(args.m, args.walks, seed)
    _emit(stats.to_dict(), "json", args.out)
    return 0


def cmd_scaffold(args) -> int:
    noise = analytics.NoiseModel(p_in=args.p_in, r=args.r)
    bounds = _grid(args)
    try:
        plan = schemes.scaffold_optimize(
            args.theta_l, args.code, noise, error_ceiling=args.error_ceiling, **bounds
        )
    except schemes.InfeasibleError as exc:
        payload = {
            "infeasible": True,
            "message": str(exc),
            "noise": {"p_in": args.p_in, "r": args.r},
            "bounds": bounds,
            "best_plan": exc.best_plan.to_dict(),
        }
        _emit(payload, "json", args.out)
        return 3
    payload = {
        "infeasible": False,
        "noise": {"p_in": args.p_in, "r": args.r},
        "bounds": bounds,
        "plan": plan.to_dict(),
    }
    _emit(payload, "json", args.out)
    return 0


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    given = [f"--{d.replace('_', '-')}" for d in args.planner if getattr(args, d) is not None]
    if given and "ours" not in methods:
        raise ValueError(f"methods {methods} read no planner flags ({', '.join(given)})")
    for dest, default in args.planner.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    grid = _grid(args) if "ours" in methods else {}
    distill = None
    if args.distill_costs is not None:
        if args.distill_costs == "bundled":
            distill = bench.DistillCostTable.bundled()
        else:
            distill = bench.DistillCostTable.load(args.distill_costs)
    rows = bench.pareto_report(
        methods,
        args.theta_l,
        analytics.NoiseModel(p_in=args.p_in, r=args.r),
        code_family=args.code,
        distill=distill,
        include_clifford=not args.no_clifford,
        **grid,
    )
    _emit(rows, args.format, args.out, columns=bench.REPORT_COLUMNS)
    return 0


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _code(args) -> codes.StabilizerCode:
    """The --code/--d pair; an unset --d is 3 for the parametrized
    families and the code's own distance for the fixed ones."""
    d = args.d
    if d is None and codes.is_parametrized(args.code):
        d = 3
    return codes.get_code(args.code, d)


def _add_output_flags(p: argparse.ArgumentParser, default_format: str | None = None) -> None:
    """--out for every command; --format only for the tabular payloads,
    which pass their default format."""
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    if default_format is not None:
        p.add_argument(
            "--format", choices=("csv", "json"), default=default_format,
            help=f"output format (default: {default_format})",
        )


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-in", type=finite_float, default=1e-3, help="depolarizing rate per qubit per cycle")
    p.add_argument("--r", type=int, default=2, help="detection cycles")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--d-values", type=_csv_ints, default=None,
        help=f"comma list of distances (default: {','.join(map(str, schemes.D_VALUES))} "
        "for parametrized families, the code's own for fixed codes)",
    )
    p.add_argument("--k-max", type=int, default=schemes.K_MAX)
    p.add_argument("--m-max", type=int, default=schemes.M_MAX)


def _grid(args) -> dict:
    """The grid flags, checked here whichever methods will read them; an
    unset --d-values is D_VALUES for the parametrized families and the
    code's own distance for the fixed ones."""
    for flag, value, top in (("--k-max", args.k_max, schemes.K_MAX),
                             ("--m-max", args.m_max, schemes.M_MAX)):
        if not 1 <= value <= top:
            raise ValueError(f"{flag} must be in [1, {top}], got {value}")
    d_values = args.d_values
    if d_values is None:
        if codes.is_parametrized(args.code):
            d_values = schemes.D_VALUES
        else:
            d_values = (codes.get_code(args.code).d,)
    for d in d_values:
        codes.check_distance(args.code, d)
    return {"d_values": d_values, "k_max": args.k_max, "m_max": args.m_max}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftrot",
        description="Post-selected rotation-state preparation: analytics, "
        "Monte Carlo, composition schemes, and resource benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    codes_sub = sub.add_parser(
        "codes", help="list registered codes or validate one"
    ).add_subparsers(dest="action", required=True)
    p = codes_sub.add_parser("list", help="registered codes")
    _add_output_flags(p, "json")
    p.set_defaults(func=cmd_codes_list)
    p = codes_sub.add_parser("validate", help="re-derive one code's structure")
    p.add_argument("code", help="code name")
    p.add_argument("--d", type=int, default=None, help="distance for parametrized families")
    _add_output_flags(p)
    p.set_defaults(func=cmd_codes_validate)

    p = sub.add_parser("analyze", help="closed-form error and success-rate sweep")
    p.add_argument("--code", default="surface")
    p.add_argument("--d", type=int, default=None, help=_D_HELP)
    p.add_argument(
        "--theta", type=parse_theta_range, required=True,
        help="angle sweep start:stop:steps, a float, or 2pi/2^k",
    )
    _add_noise_flags(p)
    p.add_argument("--sigma", type=finite_float, default=0.0, help="per-qubit coherent angle std (radians)")
    _add_output_flags(p, "csv")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo preparation trials")
    p.add_argument("--code", default="surface")
    p.add_argument("--d", type=int, default=None, help=_D_HELP)
    p.add_argument("--theta", type=parse_angle, required=True)
    _add_noise_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed in [0, 2^64) (generated and recorded if omitted)")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (default 1: a batch holds the interpreter lock, "
                        "so a second thread runs slower); does not affect results")
    p.add_argument("--theta-l-target", type=parse_angle, default=None,
                   help="reference angle for infidelity (default: the accepted logical angle)")
    p.add_argument("--readout-flip", type=finite_float, default=None,
                   help="override per-stabilizer readout flip probability (default 2*p_in/3)")
    p.add_argument("--inject-z", type=int, default=None, metavar="QUBIT",
                   help="deterministically inject one Z on this qubit each trial")
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("walk", help="teleportation random-walk Monte Carlo")
    p.add_argument("--m", type=int, required=True,
                   help=f"walk target in steps, 1..{schemes.M_MAX}")
    p.add_argument("--walks", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed in [0, 2^64) (generated and recorded if omitted)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("scaffold", help="optimize a (d, k, m) composition plan")
    p.add_argument("--theta-l", type=parse_angle, required=True, help="target logical angle")
    p.add_argument("--code", default="surface")
    _add_noise_flags(p)
    _add_grid_flags(p)
    p.add_argument("--error-ceiling", type=finite_float, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_scaffold)

    p = sub.add_parser("bench", help="cost-vs-error comparison table")
    p.add_argument("--theta-l", type=parse_angle, required=True)
    p.add_argument("--methods", default="ours", help="comma list from ours,rs,coh")
    p.add_argument("--code", default="surface")
    _add_noise_flags(p)
    p.add_argument("--distill-costs", default=None, metavar="PATH",
                   help="distillation table JSON, or 'bundled'")
    p.add_argument("--no-clifford", action="store_true",
                   help="count T-state costs only in the synthesis baseline")
    _add_grid_flags(p)
    _add_output_flags(p, "csv")
    # only "ours" reads the planner's flags: they start unset, so that
    # cmd_bench can refuse them, and it fills in these defaults; every
    # parse shares the mapping, so it is read-only
    planner = {dest: p.get_default(dest) for dest in ("code", "r", "d_values", "k_max", "m_max")}
    p.set_defaults(func=cmd_bench, planner=types.MappingProxyType(planner),
                   **dict.fromkeys(planner))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it unchanged, and
    building it costs about as much as a `walk` query."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
