"""ftrot benchmark: one workload, one seed, one result line.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is the ftrot source tree under ./src; nothing is installed.
With --trace 0 the run measures the end-to-end metrics with tracing
off.  With --trace 1 it runs the same operations twice, first untraced
for S/2 seconds and then traced, and reports the per-layer metrics and
the tracing overhead; the spans are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it carries
the provenance, each metric's sample count, the tail percentile the
sample count supports and the pooled output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = 7
# Reported in the detail line but not gated in BENCHMARK.json: on a
# machine whose speed switches state every few seconds, a run's median
# latency follows whichever state held most of the run (see README.md).
UNGATED_UNITS = {"query_p50_ms": "ms"}

perf = time.perf_counter


def run_probe(workload: str) -> dict:
    """Set-up time of one fresh interpreter (see probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(wl, acc: dict, seconds: float, n_ops: int | None = None,
            probes: list | None = None) -> tuple[int, int]:
    """Closed loop over operations 0, 1, ...: either exactly `n_ops`, or
    whole passes until `seconds` have gone and the workload has enough
    samples.  With `probes`, PROBES set-up probes are spread evenly over
    the `seconds`, each between two operations, so that set-up time is
    sampled across the run like the operations are.  Returns (attempted,
    failed)."""
    start = perf()
    i = failed = 0
    while True:
        elapsed = perf() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i % wl.ops_per_pass == 0 and elapsed >= seconds and wl.enough(acc):
            break
        if probes is not None and len(probes) < PROBES and elapsed >= len(probes) * seconds / PROBES:
            probes.append(run_probe(wl.name))
            wl.warmup()  # the probe evicted this process's caches
        if not wl.op(i, acc):
            failed += 1
        i += 1
    return i, failed


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, so a result names its program
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    pkg = SRC / "ftrot"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(pkg)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(wl, seed: int) -> dict:
    import numpy
    import ftrot
    from ftrot import mcsim

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ftrot": ftrot.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "default_batch_size": mcsim.DEFAULT_BATCH_SIZE,
        "partition": wl.partition(),
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ftrot" / "__init__.py").is_file():
        print(f"error: no ftrot source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ftrot

    if not Path(ftrot.__file__).resolve().is_relative_to(SRC):
        print(f"error: ftrot imported from {ftrot.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from measure import tail_percentile
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warmup()

    acc = wl.new_acc()
    budget = args.seconds / 2 if args.trace else args.seconds
    probes: list[dict] = []
    attempted, failed = run_ops(wl, acc, budget, probes=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(probes) < PROBES:
        probes.append(run_probe(wl.name))
    checks = wl.checks(acc)
    e2e = wl.e2e(acc)
    e2e["setup_s"] = (median([p["import_s"] + p["first_op_s"] for p in probes]), len(probes))
    e2e["peak_rss_mb"] = (peak_rss_mb, 1)
    units = dict(UNGATED_UNITS, **declared["end_to_end"])
    metrics = {name: {"value": v, "unit": units[name], "n": n} for name, (v, n) in e2e.items()}
    tail = tail_percentile(wl.latencies(acc))
    details = {"tail_latency": {"percent": tail[0], "ms": tail[1] * 1e3, "n": tail[2]}
               if tail else None}
    kind = "end_to_end"

    if args.trace:
        kind = "per_layer"
        traced = wl.new_acc()
        with Tracer() as tracer:
            ops, traced_failed = run_ops(wl, traced, 0.0, n_ops=attempted)
        attempted += ops
        failed += traced_failed
        for name, result in wl.checks(traced).items():
            checks[f"traced.{name}"] = result
        layer = tracer.summary(ops)
        layer.update(wl.layer(traced, ops))
        layer["setup.import_s"] = median([p["import_s"] for p in probes])
        layer["setup.first_op_s"] = median([p["first_op_s"] for p in probes])
        layer["schemes.walk_expected_steps.cold_ms"] = (
            median([p["cold_ms"] for p in probes]) if "cold_ms" in probes[0] else 0.0
        )
        layer["trace.overhead_frac"] = traced["busy"] / acc["busy"] - 1.0
        details["untraced"] = metrics
        metrics = {name: {"value": value, "unit": declared[kind][name], "n": ops}
                   for name, value in layer.items()}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace_{args.workload}_{args.seed}.json")

    if set(metrics) - set(UNGATED_UNITS) != set(declared[kind]):
        print(f"error: {kind} metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(declared[kind])}", file=sys.stderr)
        return 1
    correct = failed == 0 and all(ok for ok, _ in checks.values())
    details.update(
        workload=args.workload,
        trace=args.trace,
        provenance=provenance(wl, args.seed),
        metrics=metrics,
        checks={name: {"ok": ok, **detail} for name, (ok, detail) in checks.items()},
        failed_frac=failed / attempted,
    )
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in declared[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
