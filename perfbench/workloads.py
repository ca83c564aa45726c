"""The benchmark's workloads: their operations, output checks and metrics.

Every workload is closed-loop: one client in one process issues an
operation only after the previous one returned.  Operation i derives
its inputs from (workload, seed, i) alone, so a run can be replayed
operation for operation (the traced run does this).

Each workload offers
  warmup()            one small operation, also timed by the set-up probe;
  new_acc()           a fresh accumulator for one pass over operations;
  op(i, acc)          run operation i, record its timing, return its check;
  enough(acc)         whether the pass holds enough samples to stop;
  checks(acc)         pooled output checks, name -> (ok, detail);
  e2e(acc)            end-to-end metrics, name -> (value, samples);
  layer(acc, ops)     per-layer figures the workload itself observes;
  partition()         provenance of the work split.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
import warnings
from statistics import median

import numpy as np

from ftrot import analytics, bench, cli, codes, mcsim, schemes
from measure import non_dominated, percentile, time_to_accuracy, walk_mean_ok

perf = time.perf_counter


# Throughput figures divide the work of one pass (an MC call, or one
# plan_grid pass of 43 queries) by the 90th-percentile pass time: the
# rate sustained in nine passes out of ten.  On a shared machine whose
# speed switches between a fast and a slow state every ten seconds or
# so, this upper percentile varies less from run to run than the median
# does, because nearly every run contains slow passes.
SUSTAINED = 900


def sustained(pass_times) -> float:
    return percentile(list(pass_times), SUSTAINED)


def accuracy_cost(op_s: float, estimates: list[tuple[float, float]]) -> float:
    """Seconds to a 10%-accurate estimate: the median over operations of
    time_to_accuracy(op_s, stderr, mean), so that one operation's rare
    heavy outcome (an accepted weight-2 event at d=5) does not swing it."""
    return median([time_to_accuracy(op_s, stderr, mean) for stderr, mean in estimates])


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends only on `parts`."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class McWorkload:
    """Repeated single-thread `mcsim.estimate` calls of 2^19 trials on the
    surface code.  After the timed calls, one call of four batches runs
    with 1 and with 2 threads on one seed: the payloads must be identical,
    and the ratio of their times is the thread speed-up.
    """

    trials = 1 << 19
    ops_per_pass = 1
    min_weight1 = 500

    def __init__(self, name: str, d: int, theta: float, p_in: float, seed: int) -> None:
        self.name = name
        self.d = d
        self.theta = theta
        self.seed = seed
        self.noise = mcsim.NoiseModel(p_in=p_in, r=2)
        theta_l = analytics.logical_angle(theta, d)
        self.values = np.array(
            [analytics.branch_infidelity(m, d, theta, theta_l) for m in range(d // 2 + 1)]
        )

    def _estimate(self, trials: int, seed: int, threads: int = 1):
        # at d=5 one call expects fewer than 10 accepted-error events, so
        # estimate warns; the run pools many calls
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", mcsim.RareEventWarning)
            code = codes.get_code("surface", self.d)
            return mcsim.estimate(code, self.theta, None, self.noise, trials, seed,
                                  threads=threads)

    def warmup(self) -> dict:
        # one full-size batch, so the timed calls find their arrays'
        # memory already mapped
        self._estimate(mcsim.DEFAULT_BATCH_SIZE, 0)
        return {}

    def new_acc(self) -> dict:
        return {
            "calls": [],
            "busy": 0.0,
            "hist": np.zeros(self.d // 2 + 1, dtype=np.int64),
            "accepted": 0,
            "estimates": [],
            "trials": 0,
        }

    def op(self, i: int, acc: dict) -> bool:
        start = perf()
        stats = self._estimate(self.trials, derive_seed(self.name, self.seed, i))
        elapsed = perf() - start
        acc["calls"].append(elapsed)
        acc["busy"] += elapsed
        hist = np.array(stats.branch_histogram, dtype=np.int64)
        acc["hist"] += hist
        acc["accepted"] += stats.accepted
        acc["trials"] += stats.trials
        mean, stderr = self._infidelity(hist, stats.accepted)
        if mean > 0:
            acc["estimates"].append((stderr, mean))
        return stats.accepted == int(hist.sum())

    def enough(self, acc: dict) -> bool:
        return len(acc["calls"]) >= 5 and acc["hist"][1] >= self.min_weight1

    def _infidelity(self, hist: np.ndarray, accepted: int) -> tuple[float, float]:
        mean = float(hist @ self.values) / accepted
        var = float(hist @ (self.values - mean) ** 2) / accepted
        return mean, math.sqrt(var / accepted)

    def checks(self, acc: dict) -> dict:
        """Pooled checks, and the thread check, whose speed-up is stored
        in `acc` for `layer`."""
        code = codes.get_code("surface", self.d)
        cfg = analytics.RotationConfig(theta=self.theta, d=self.d,
                                       p_in=self.noise.p_in, r=self.noise.r)
        model = analytics.accepted_error_model(cfg, code.error_multiplicities)
        p_s = analytics.success_rate(cfg, code.n, len(code.stabilizers)).p_s
        mean, stderr = self._infidelity(acc["hist"], acc["accepted"])
        ratio = mean / model
        z = (mean - model) / stderr
        acceptance = acc["accepted"] / acc["trials"] / p_s - 1.0

        seed = derive_seed(self.name, self.seed, "threads")
        payloads, times = [], []
        for threads in (1, 2):
            start = perf()
            payloads.append(self._estimate(4 * mcsim.DEFAULT_BATCH_SIZE, seed, threads).to_dict())
            times.append(perf() - start)
        acc["thread_speedup"] = times[0] / times[1]
        return {
            "infidelity_vs_model": (0.5 <= ratio <= 2.0 and abs(z) <= 5.0,
                                    {"ratio": ratio, "z": z, "histogram": acc["hist"].tolist()}),
            "acceptance_vs_model": (abs(acceptance) <= 0.01,
                                    {"relative_gap": acceptance}),
            "thread_invariance": (payloads[0] == payloads[1], {"seconds": times}),
        }

    def e2e(self, acc: dict) -> dict:
        calls = acc["calls"]
        n = len(calls)
        call_s = percentile(calls, SUSTAINED)
        return {
            "mtrials_per_s": (self.trials / call_s / 1e6, n),
            "time_to_10pct_s": (accuracy_cost(call_s, acc["estimates"]), n),
            "query_p50_ms": (median(calls) * 1e3, n),
            "query_p95_ms": (percentile(calls, 950) * 1e3, n),
            "queries_per_s": (1.0 / call_s, n),
        }

    def latencies(self, acc: dict) -> list[float]:
        return acc["calls"]

    def layer(self, acc: dict, ops: int) -> dict:
        return {
            "mcsim.thread_speedup": acc["thread_speedup"],
            "mcsim.accept_ratio": acc["accepted"] / acc["trials"],
            "mcsim.weight1_events": int(acc["hist"][1]) / ops,
        }

    def partition(self) -> dict:
        size = mcsim.DEFAULT_BATCH_SIZE
        n_batches = -(-self.trials // size)
        return {
            "trials_per_call": self.trials,
            "batch_size": size,
            "batches_per_call": n_batches,
            "last_batch": self.trials - size * (n_batches - 1),
            "threads": 1,
            "thread_check": {"trials": 4 * size, "threads": [1, 2]},
        }


class PlanGridWorkload:
    """In-process CLI planning queries over the default (d, k, m) grid.

    One pass holds `scaffold` and `bench` for target angles 2pi/2^k,
    k = 4..12, at the two rates the bundled distillation table covers,
    plus `walk` for m = 2..8; the seed fixes the order within each pass
    and the walk seeds.
    """

    name = "plan_grid"
    rates = ("1e-4", "1e-3")
    levels = range(4, 13)
    walk_ms = range(2, 9)
    walks = 20000
    min_queries = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.queries = [
            (kind, level, rate)
            for rate in self.rates
            for level in self.levels
            for kind in ("scaffold", "bench")
        ] + [("walk", m, None) for m in self.walk_ms]
        self.ops_per_pass = len(self.queries)
        self.table = bench.DistillCostTable.bundled()
        self._order: tuple[int, list] = (-1, [])

    def warmup(self) -> dict:
        start = perf()
        for m in range(1, 65):
            schemes.walk_expected_steps(m)
        cold_ms = (perf() - start) * 1e3
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["scaffold", "--theta-l", "2pi/2^4"])
        return {"cold_ms": cold_ms}

    def new_acc(self) -> dict:
        return {"lat": [], "busy": 0.0, "pass_s": {}, "walk_pass_s": {},
                "walk_s": {m: [] for m in self.walk_ms},
                "walk_estimates": {m: [] for m in self.walk_ms}}

    def _argv(self, pass_index: int, query: tuple) -> list[str]:
        kind, level, rate = query
        if kind == "walk":
            seed = derive_seed(self.name, self.seed, pass_index, level)
            return ["walk", "--m", str(level), "--walks", str(self.walks), "--seed", str(seed)]
        angle = ["--theta-l", f"2pi/2^{level}", "--p-in", rate]
        if kind == "scaffold":
            return ["scaffold"] + angle
        return ["bench", "--methods", "ours,rs,coh", "--distill-costs", "bundled"] + angle

    def op(self, i: int, acc: dict) -> bool:
        pass_index, pos = divmod(i, self.ops_per_pass)
        if self._order[0] != pass_index:
            order = list(self.queries)
            random.Random(derive_seed(self.name, self.seed, pass_index)).shuffle(order)
            self._order = (pass_index, order)
        query = self._order[1][pos]
        argv = self._argv(pass_index, query)
        buf = io.StringIO()
        start = perf()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        elapsed = perf() - start
        acc["lat"].append(elapsed)
        acc["busy"] += elapsed
        acc["pass_s"][pass_index] = acc["pass_s"].get(pass_index, 0.0) + elapsed
        if code != 0:
            return False
        try:
            return self._check(query, buf.getvalue(), acc, elapsed, pass_index)
        except (ValueError, KeyError, TypeError):
            return False

    def _check(self, query: tuple, text: str, acc: dict, elapsed: float, pass_index: int) -> bool:
        kind, level, rate = query
        if kind == "walk":
            out = json.loads(text)
            acc["walk_pass_s"][pass_index] = acc["walk_pass_s"].get(pass_index, 0.0) + elapsed
            acc["walk_s"][level].append(elapsed)
            stderr = out["std_steps"] / math.sqrt(out["walks"])
            acc["walk_estimates"][level].append((stderr, out["mean_steps"]))
            return out["m"] == level and walk_mean_ok(level, out["walks"], out["mean_steps"])
        target = math.tau / 2**level
        if kind == "scaffold":
            plan = json.loads(text)["plan"]
            composed = plan["m"] * plan["k"] * analytics.logical_angle(plan["theta_base"], plan["d"])
            return (math.isclose(plan["theta_l_target"], target, rel_tol=1e-12)
                    and math.isclose(composed, target, rel_tol=1e-9))
        rows = list(csv.DictReader(io.StringIO(text)))
        by_method: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            point = (float(row["logical_error"]), float(row["cost_d3"]))
            if not (point[0] > 0 and point[1] > 0):
                return False
            by_method.setdefault(row["method"], []).append(point)
        if set(by_method) != {"ours", "rs", "coh"} or not non_dominated(by_method["ours"]):
            return False
        # rs and coh rows are one point per distillation entry at this
        # rate (not a Pareto front), ordered from high error to low
        entries = len(self.table.at_p_in(float(rate)))
        for method in ("rs", "coh"):
            errors = [e for e, _ in by_method[method]]
            if len(errors) != entries or errors != sorted(errors, reverse=True):
                return False
        return True

    def enough(self, acc: dict) -> bool:
        return len(acc["lat"]) >= self.min_queries

    def checks(self, acc: dict) -> dict:
        return {}

    def e2e(self, acc: dict) -> dict:
        lat = acc["lat"]
        n = len(lat)
        passes = len(acc["pass_s"])
        walks_per_pass = self.walks * len(self.walk_ms)
        return {
            "mtrials_per_s": (walks_per_pass / sustained(acc["walk_pass_s"].values()) / 1e6,
                              passes),
            "time_to_10pct_s": (sum(accuracy_cost(sustained(acc["walk_s"][m]),
                                                  acc["walk_estimates"][m])
                                    for m in self.walk_ms), passes),
            "query_p50_ms": (median(lat) * 1e3, n),
            "query_p95_ms": (percentile(lat, 950) * 1e3, n),
            "queries_per_s": (self.ops_per_pass / sustained(acc["pass_s"].values()), passes),
        }

    def latencies(self, acc: dict) -> list[float]:
        return acc["lat"]

    def layer(self, acc: dict, ops: int) -> dict:
        return {"mcsim.thread_speedup": 0.0, "mcsim.accept_ratio": 0.0,
                "mcsim.weight1_events": 0.0}

    def partition(self) -> dict:
        return {"walks_per_query": self.walks, "walk_batch": schemes._WALK_BATCH,
                "queries_per_pass": self.ops_per_pass}


WORKLOADS = {
    "mc_d5_lowp": lambda seed: McWorkload("mc_d5_lowp", 5, 0.8, 1e-3, seed),
    "plan_grid": PlanGridWorkload,
}
