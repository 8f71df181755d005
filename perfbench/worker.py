"""One measuring process of the benchmark; run.py starts it.

    worker.py measure ROOT SCENARIO SEEDS SECONDS OUT
    worker.py trace   ROOT SCENARIO SEEDS SECONDS OUT KERNEL_SEED

``measure`` calls ``runner.run_scenario`` untraced, again and again for
SECONDS.  ``trace`` times the GF kernel, then alternates untraced and
traced calls for SECONDS.  caspr is imported from ROOT/src and nowhere
else.  The result is one JSON object on the last line of stdout.

Every call is checked: link conservation is re-checked with a raising
check (the simulator's own uses ``assert``), every per-seed summary row
must hold recovered_1rtt <= recovered_any <= direct_lost, the pooled
row must equal the sum of the seed rows, and all calls in one process
must write byte-identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import calib
import kernel
import tracer

SUMMED = ("sent", "direct_lost", "recovered_1rtt", "recovered_any", "nacks_sent",
          "dc1_egress_bytes", "dc2_egress_recovery_bytes", "dc2_egress_ctrl_bytes")


class CheckFailed(RuntimeError):
    """A run's output broke a property every run must hold."""


def check_origin(src: str) -> None:
    """Raise unless the imported caspr is the one under src."""
    import caspr
    where = os.path.realpath(os.path.dirname(caspr.__file__))
    if where != os.path.realpath(os.path.join(src, "caspr")):
        raise ImportError(f"caspr imported from {where}, not from {src}")


def load(root: str, scenario_name: str):
    """Import caspr from ROOT/src and load the scenario."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from caspr import gf256, runner, scenario
    check_origin(src)
    return gf256, runner, scenario, scenario.load(scenario.bundled_path(scenario_name))


def raising_conservation(original):
    def check_conservation(sim):
        original(sim)
        for link in sim.links.values():
            if link.sent_count != (link.delivered_count + link.dropped_count
                                   + link.inflight_count):
                raise CheckFailed(f"link {link.name}: packet count not conserved")
            if link.sent_bytes != (link.delivered_bytes + link.dropped_bytes
                                   + link.inflight_bytes):
                raise CheckFailed(f"link {link.name}: bytes not conserved")
    return check_conservation


def check_summary(path: str) -> tuple[list[str], dict]:
    """Problems found in summary.csv, and the pooled simulated outcomes."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    seed_rows = [r for r in rows if r["seed"] != "all"]
    pooled = [r for r in rows if r["seed"] == "all"]
    if len(pooled) != 1 or not seed_rows:
        return ["summary.csv lacks one pooled row and at least one seed row"], {}
    pooled = pooled[0]
    problems = []
    for r in seed_rows:
        if not int(r["recovered_1rtt"]) <= int(r["recovered_any"]) <= int(r["direct_lost"]):
            problems.append(f"seed {r['seed']}: not recovered_1rtt <= recovered_any"
                            " <= direct_lost")
    for col in SUMMED:
        if sum(int(r[col]) for r in seed_rows) != int(pooled[col]):
            problems.append(f"pooled {col} is not the sum of the seed rows")
    # every workload loses and recovers packets, so none of these divide
    # by zero or read an empty cell unless the run is broken
    sent, lost = int(pooled["sent"]), int(pooled["direct_lost"])
    cloud = sum(int(pooled[c]) for c in SUMMED[-3:])
    outcomes = {
        "sent": sent,
        "recovery_rate": int(pooled["recovered_1rtt"]) / lost,
        "p95_recovery_rtt": float(pooled["p95_ratio"]),
        "within_half_rtt_frac": float(pooled["within_half_rtt_frac"]),
        "cloud_bytes_per_pkt": cloud / sent,
        "nacks_per_loss": int(pooled["nacks_sent"]) / lost,
    }
    return problems, outcomes


def one_call(runner, cfg, seeds: list[int], out_dir: str) -> dict:
    """One timed run_scenario call, its artifact digests and its checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    runner.run_scenario(cfg, out_dir, seeds)
    wall = time.perf_counter() - t0
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    problems, outcomes = check_summary(os.path.join(out_dir, "summary.csv"))
    shutil.rmtree(out_dir)
    return {"wall_s": wall, "digests": digests, "problems": problems,
            "outcomes": outcomes}


class Calls:
    """Runs timed calls and keeps score.

    A seed run fails if its call raises, breaks a check, or writes
    artifacts that differ from the first call's.

    Each call is bracketed by runs of the calibration loop (calib.py),
    and with ``sample_inside`` one more runs before each seed the call
    simulates in this process.  ``scaled_s`` is the call's wall time
    without those loops, divided by their mean slowdown.
    """

    def __init__(self, runner, cfg, seeds, out_dir):
        self.runner, self.cfg, self.seeds, self.out_dir = runner, cfg, seeds, out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests = None

    def run(self, patch_factory=None, sample_inside=True) -> dict | None:
        self.attempted += len(self.seeds)
        slowdowns = [calib.slowdown()]
        inside_s = [0.0]

        def sampling(fn):
            def run_seed(*args, **kwargs):
                t0 = time.perf_counter()
                slowdowns.append(calib.slowdown())
                inside_s[0] += time.perf_counter() - t0
                return fn(*args, **kwargs)
            return run_seed

        try:
            with tracer.Patch() as patch:
                patch.set("caspr.netsim", "Simulator.check_conservation",
                          raising_conservation)
                if sample_inside:
                    patch.set("caspr.runner", "run_seed", sampling)
                if patch_factory is not None:
                    patch_factory(patch)
                call = one_call(self.runner, self.cfg, self.seeds, self.out_dir)
        except Exception:
            self.failed += len(self.seeds)
            self.errors.append(traceback.format_exc())
            return None
        slowdowns.append(calib.slowdown())
        call["slowdown"] = statistics.fmean(slowdowns)
        call["scaled_s"] = (call["wall_s"] - inside_s[0]) / call["slowdown"]
        problems = list(call["problems"])
        if self.digests is None:
            self.digests = call["digests"]
        elif call["digests"] != self.digests:
            problems.append("artifacts differ from the first call's")
        if problems:
            self.failed += len(self.seeds)
            self.errors.extend(problems)
        return call

    def budget_left(self, start: float, seconds: float, last: float) -> bool:
        return not self.errors and time.perf_counter() - start + last <= seconds


def env_block(gf256) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "use_numba": bool(gf256.USE_NUMBA), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(root, scenario_name, seeds, seconds, out_dir) -> dict:
    gf256, runner, _, cfg = load(root, scenario_name)
    calls = Calls(runner, cfg, seeds, out_dir)
    start = time.perf_counter()
    done = []
    while True:
        call = calls.run()
        if call is None:
            break
        done.append(call)
        if not calls.budget_left(start, seconds, call["wall_s"]):
            break
    return {"env": env_block(gf256), "attempted": calls.attempted,
            "failed": calls.failed, "errors": calls.errors,
            "digests": calls.digests, "peak_rss_mb": peak_rss_mb(),
            "wall_s": [c["wall_s"] for c in done],
            "scaled_s": [c["scaled_s"] for c in done],
            "sent": done[0]["outcomes"]["sent"] if done else 0,
            "outcomes": [c["outcomes"] for c in done]}


def trace(root, scenario_name, seeds, seconds, out_dir, kernel_seed) -> dict:
    start = time.perf_counter()
    gf256, runner, scenario, cfg = load(root, scenario_name)
    path = scenario.bundled_path(scenario_name)
    before = calib.slowdown()
    load_s = []
    for _ in range(5):
        t0 = time.perf_counter()
        scenario.load(path)
        load_s.append(time.perf_counter() - t0)
    kernel_us = kernel.bench(gf256, kernel_seed, repeats=200)
    slowdown = (before + calib.slowdown()) / 2

    calls = Calls(runner, cfg, seeds, out_dir)
    untraced, traced = [], []
    while True:
        plain = calls.run()
        spans = tracer.Tracer()
        wrapped = calls.run(lambda patch: tracer.install(patch, spans), sample_inside=False)
        if plain is None or wrapped is None:
            break
        untraced.append(plain)
        snapshot = spans.snapshot()
        for v in snapshot.values():
            v["self_s"] /= wrapped["slowdown"]
        traced.append((wrapped, snapshot))
        if not calls.budget_left(start, seconds, plain["wall_s"] + wrapped["wall_s"]):
            break
    span_sets = [s for _, s in traced]
    if any({n: v["calls"] for n, v in s.items()}
           != {n: v["calls"] for n, v in span_sets[0].items()} for s in span_sets):
        calls.failed = calls.attempted
        calls.errors.append("span call counts differ between traced calls")
    return {"env": env_block(gf256), "attempted": calls.attempted,
            "failed": calls.failed, "errors": calls.errors,
            "digests": calls.digests,
            "scenario_load_s": statistics.median(load_s) / slowdown,
            "kernel_us": {k: us / slowdown for k, us in kernel_us.items()},
            "untraced_wall_s": [c["wall_s"] for c in untraced],
            "untraced_scaled_s": [c["scaled_s"] for c in untraced],
            "traced_wall_s": [c["wall_s"] for c, _ in traced],
            "traced_scaled_s": [c["scaled_s"] for c, _ in traced],
            "spans": span_sets,
            "sent": untraced[0]["outcomes"]["sent"] if untraced else 0}


def main(argv: list[str]) -> None:
    mode, root, scenario_name, *rest = argv
    if mode == "measure":
        seeds, seconds, out_dir = rest
        result = measure(root, scenario_name, json.loads(seeds), float(seconds), out_dir)
    elif mode == "trace":
        seeds, seconds, out_dir, kernel_seed = rest
        result = trace(root, scenario_name, json.loads(seeds), float(seconds),
                       out_dir, int(kernel_seed))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
