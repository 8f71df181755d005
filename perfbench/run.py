"""caspr's benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cbr20 --seed 1 --seconds 27 --trace 0

Run from the root of a checkout; caspr is imported from its ``src``.
Every measurement happens in a fresh child process (coldstart.py,
worker.py), one core busy at a time and no numeric library threads.

--trace 0 reports the end-to-end metrics: host speed of
``runner.run_scenario`` (simulated packets per host second), cold
set-up time, peak RSS, and the simulated outcomes of the run.
--trace 1 reports the per-layer metrics: self time and call counts of
spans wrapped around each caspr module's entry points, the tracing
overhead, and per-shape GF kernel timings.

The simulator's inputs are the workload's scenario and seed list, fixed
below, so the simulated outcomes are exact and comparable across runs.
--seed orders the seed list (pooled outcomes do not depend on order)
and seeds the kernel timing's random matrices.

The last line of stdout is {"correct", "attempted", "failed",
"metrics"}; the line before it records the environment, the artifact
digests and the raw samples.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name: (bundled scenario, simulator seeds); README.md says why each
WORKLOADS = {
    "cbr20": ("coding_overhead_20flows", list(range(1, 11))),
    "wide_area": ("wide_area_cbr", [11, 12]),
    "skype": ("skype_analog", [5]),
    "bursty": ("short_flow_nack_economy", [21]),
}
SETUP_RUNS = 7
TIME_LIMIT_S = 170
NAME = re.compile(r"[A-Za-z0-9_.-]+")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMBA_NUM_THREADS": "1"}

OUTCOMES = ["recovery_rate", "p95_recovery_rtt", "within_half_rtt_frac",
            "cloud_bytes_per_pkt", "nacks_per_loss"]


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def child(deadline: Deadline, script: str, *args) -> dict:
    """Run script with args in a fresh process; its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *map(str, args)],
        capture_output=True, text=True, timeout=deadline.left(),
        env={**os.environ, **THREAD_ENV}, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[dict], res: dict) -> dict:
    values = {
        "sim_pkts_per_s": res["sent"] / statistics.median(res["scaled_s"]),
        "setup_s": statistics.median(s["setup_s"] / s["slowdown"] for s in setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    values.update({k: res["outcomes"][0][k] for k in OUTCOMES})
    return values


def per_layer(res: dict) -> dict:
    spans = res["spans"]
    values = {}
    for name in spans[0]:
        values[f"{name}.calls"] = spans[0][name]["calls"]
        values[f"{name}.self_s"] = statistics.median(s[name]["self_s"] for s in spans)
    values["runner.build_s"] = values.pop("runner.build.self_s")
    del values["runner.build.calls"], values["runner.scenario.calls"]
    first = spans[0]
    handlers = [n for n in first if n.endswith((".on_message", ".on_timer"))]
    values["netsim.events"] = sum(first[n]["calls"] for n in handlers)
    values["netsim.timers_per_pkt"] = (
        sum(first[n]["calls"] for n in handlers if n.endswith(".on_timer")) / res["sent"])
    decode = first["codec.decode"]
    values["codec.decode.ok_frac"] = (
        (decode["calls"] - decode["raised"]) / decode["calls"] if decode["calls"] else 1.0)
    values["gf256.matmul.bytes"] = first["gf256.matmul"]["size"]
    values["runner.sent_pkts"] = res["sent"]
    values["scenario.load_s"] = res["scenario_load_s"]
    traced = statistics.median(res["traced_scaled_s"])
    untraced = statistics.median(res["untraced_scaled_s"])
    self_sum = statistics.median(sum(v["self_s"] for v in s.values()) for s in spans)
    values["trace.wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.unattributed_frac"] = 1.0 - self_sum / traced
    for key, us in res["kernel_us"].items():
        values[f"gf256.kernel.{key}"] = us
    return values


def declared(trace: bool) -> dict[str, str]:
    """{metric name: unit} for this mode, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "caspr", "runner.py")):
        print(f"no caspr sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    import selftest
    selftest.run()
    units = declared(bool(args.trace))

    deadline = Deadline(TIME_LIMIT_S)
    load_start = os.getloadavg()
    scenario_name, seeds = WORKLOADS[args.workload]
    seeds = list(seeds)
    random.Random(args.seed).shuffle(seeds)
    out_base = os.path.join(HERE, "_out")
    os.makedirs(out_base, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_base)
    try:
        if args.trace:
            res = child(deadline, "worker.py", "trace", ROOT, scenario_name, json.dumps(seeds),
                         args.seconds, os.path.join(out_dir, "run"), args.seed)
            values = per_layer(res) if not res["errors"] else {}
        else:
            setups = [child(deadline, "coldstart.py", ROOT, scenario_name)
                      for _ in range(SETUP_RUNS)]
            res = child(deadline, "worker.py", "measure", ROOT, scenario_name, json.dumps(seeds),
                         args.seconds, os.path.join(out_dir, "run"))
            values = end_to_end(setups, res) if not res["errors"] else {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    correct = not res["errors"]
    if correct and set(values) != set(units):
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    bad_names = [n for n in values if not NAME.fullmatch(n)]
    if bad_names:
        raise SystemExit(f"metric names outside [A-Za-z0-9_.-]+: {bad_names}")

    env = {**res["env"], "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    report = {"workload": args.workload, "scenario": scenario_name, "seeds": seeds,
              "seed": args.seed, "trace": args.trace, "env": env,
              "digests": res["digests"], "errors": res["errors"],
              "samples": {k: res[k] for k in res if k.endswith(("wall_s", "scaled_s"))}}
    print(json.dumps({"report": report}))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
