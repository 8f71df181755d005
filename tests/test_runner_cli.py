"""End-to-end runs of tiny scenarios plus the CLI surface."""

import copy
import csv
import gc
import json
import os
import signal
import subprocess
import sys
import weakref

import pytest
import yaml

from _stub import unit_scenario
from test_ahead import assert_reaped
from caspr import egress, endpoint, ingress, metrics, netsim, runner, scenario, wire
from caspr.cli import main
from caspr.runner import InvariantViolation, run_scenario, run_seed
from caspr.scenario import validate

TINY = {
    "name": "tiny",
    "duration_s": 4.0,
    "cooldown_s": 1.0,
    "seeds": [1, 2],
    "topology": {
        "direct": {"delay_ms": 40.0,
                   "loss": {"kind": "bernoulli", "p": 0.02}},
        "access": {"delay_ms": 5.0},
        "inter_dc": {"delay_ms": 15.0},
        "recovery": {"delay_ms": 6.0},
    },
    "flows": {"count": 3, "packet_size": 120, "interval_ms": 10.0,
              "on_s": 2.5, "stagger_ms": 3.0},
    "coding": {"k_max": 3, "parity_cross": 2},
}


def tiny(**changes):
    doc = copy.deepcopy(TINY)
    doc.update(changes)
    return validate(doc)


def lossless(**changes):
    doc = copy.deepcopy(TINY)
    del doc["topology"]["direct"]["loss"]
    doc.update(changes)
    return validate(doc)


def test_lossy_run_recovers_and_accounts(tmp_path):
    m = run_seed(tiny(), seed=1)
    assert m.sent == 3 * 300  # continuous until stop at duration - cooldown
    assert 0 < m.lost < 100
    assert m.recovered_any <= m.lost
    assert m.recovery_rate > 0.5
    assert m.dc1_egress_bytes > 0
    assert m.dc2_egress_recovery_bytes > 0
    assert m.counters["nacks_sent"] > 0


def test_lossless_run_moves_no_recovery_bytes():
    m = run_seed(lossless(), seed=1)
    assert m.lost == 0
    assert m.recovery_rate == 1.0
    assert m.dc2_egress_recovery_bytes == 0
    # end of session: one frontier probe per flow, confirmed not-a-loss
    assert m.counters["nacks_sent"] == 3
    assert m.counters["confirm_no"] == 3
    assert m.counters["failed_silent"] == 0
    # coding still ran; parity crossed the inter-DC link
    assert m.dc1_egress_bytes > 0


# ROADMAP open item 1: under fixed_small, an idle flow's timer NACKs turn
# DC2 proactive on a lossless run, so run_seed's end-of-run check raises
# "lossless run moved ... recovery bytes out of DC2".  The fix drops the mark.
@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="ROADMAP open item 1: proactive mode on an idle flow")
def test_idle_fixed_small_flow_moves_no_recovery_bytes():
    cfg = scenario.load(scenario.bundled_path("skype_analog"),
                        ["topology.direct.loss.p=0", "detector.kind=fixed_small",
                         "duration_s=5", "cooldown_s=1"])
    m = run_seed(cfg, 5)
    assert m.dc2_egress_recovery_bytes == 0


def test_flows_past_the_first_group_code_only_within_their_group(monkeypatch):
    # every bundled scenario has one group (flows.count == k_max); here
    # k_max 3 splits seven flows into {0, 1, 2}, {3, 4, 5} and a lone {6}
    cfg = unit_scenario("flows.count=7", "coding.k_max=3", "duration_s=3",
                        "cooldown_s=0.5", "flows.on_s=5",
                        "topology.direct.loss={kind: bernoulli, p: 0.05}")
    cross = []
    send = netsim.SimEnv.send

    def tap(env, link_name, msg):
        if link_name == scenario.INTER_DC_LINK and msg.cross:
            cross.append({f for f, _, _ in msg.members})
        send(env, link_name, msg)

    monkeypatch.setattr(netsim.SimEnv, "send", tap)
    m = run_seed(cfg, cfg.seeds[0])
    assert {frozenset(f // 3 for f in flows) for flows in cross} == {
        frozenset({0}), frozenset({1})}
    assert not any(6 in flows for flows in cross)
    # the lone flow's packets never find a partner, so they are evicted
    assert m.counters["evictions"] > 0
    assert m.recovered_any == m.lost > 0


def run_watched(monkeypatch, cfg, at_check=None, trace_path=None):
    """run_seed, plus the simulator and run log it built.  at_check(sim)
    runs at check_conservation time, before run_seed lets go of the
    nodes; its result is kept as seen["at_check"]."""
    seen = {}
    check = netsim.Simulator.check_conservation
    analyze = metrics.analyze_run

    def keep_sim(sim):
        seen["sim"] = sim
        if at_check is not None:
            seen["at_check"] = at_check(sim)
        check(sim)

    def keep_log(cfg, seed, run_log, links):
        seen["log"] = run_log
        return analyze(cfg, seed, run_log, links)

    monkeypatch.setattr(netsim.Simulator, "check_conservation", keep_sim)
    monkeypatch.setattr(metrics, "analyze_run", keep_log)
    m = run_seed(cfg, cfg.seeds[0], trace_path)
    return m, seen


def ledger_entries(log):
    """Every entry of every container the run log holds."""
    return (len(log.losses) + len(log.counters)
            + sum(len(losses) for losses in log.losses.values()))


def test_lossless_run_leaves_no_per_packet_ledger_entries(monkeypatch):
    m, seen = run_watched(monkeypatch, lossless(duration_s=30.0))
    log, sim = seen["log"], seen["sim"]
    assert m.sent == 3 * 2900 and m.lost == 0
    assert [sim.links[f"s{i}>r{i}"].sent_count for i in range(3)] == [2900] * 3
    assert log.losses == {0: {}, 1: {}, 2: {}}
    # a record per flow and per counter name, none per packet
    assert ledger_entries(log) <= len(log.losses) + len(metrics.COUNTER_COLS)


def test_lossless_run_makes_no_ledger_call_per_packet(monkeypatch):
    calls = []

    def spied(name, method):
        def call(log, *args, **kwargs):
            calls.append(name)
            return method(log, *args, **kwargs)
        return call

    for name, method in list(vars(metrics.RunLog).items()):
        if callable(method) and not name.startswith("_"):
            monkeypatch.setattr(metrics.RunLog, name, spied(name, method))
    m, seen = run_watched(monkeypatch, lossless())
    assert m.sent == 3 * 300 and m.lost == 0
    # the protocol pieces bump their counters, and that is all
    assert set(calls) == {"bump"}
    assert seen["log"].losses == {0: {}, 1: {}, 2: {}}


def test_lossy_run_leaves_one_ledger_record_per_direct_drop(monkeypatch, tmp_path):
    trace = tmp_path / "trace.jsonl"
    m, seen = run_watched(monkeypatch, tiny(duration_s=30.0), trace_path=str(trace))
    log = seen["log"]
    # (seq, send time) of each drop, in the order the trace saw the
    # direct links drop them
    dropped = {}
    for line in trace.read_text().splitlines():
        rec = json.loads(line)
        flow = rec.get("flow")
        if rec["outcome"] == "dropped" and rec["link"] == f"s{flow}>r{flow}":
            dropped.setdefault(flow, []).append((rec["seq"], rec["ts"]))
    for i, losses in log.losses.items():
        ledger = [(s, loss.send_ts) for s, loss in losses.items()]
        assert ledger == dropped.get(i, [])
    losses = [loss for flow in log.losses.values() for loss in flow.values()]
    assert len(losses) == m.lost > 0
    assert sum(loss.recovered_ts is not None for loss in losses) == m.recovered_any > 0
    assert ledger_entries(log) <= len(log.losses) + len(metrics.COUNTER_COLS) + m.lost


def live_state(sim):
    """The largest live count of each per-run container, over the
    receivers and the egress."""
    receivers = [node for node in sim.nodes.values()
                 if isinstance(node, endpoint.Receiver)]
    (dc2,) = [node for node in sim.nodes.values()
              if isinstance(node, egress.EgressRecovery)]
    return {
        "cache": max(len(r.cache) for r in receivers),
        "holes": max(len(r.holes) for r in receivers),
        "held": max(len(r.held) for r in receivers),
        "store": len(dc2.store),
        "covers": len(dc2.cross_of) + len(dc2.in_of),
        "orphans": len(dc2.orphans),
    }


def test_run_state_is_bounded_by_the_recovery_horizon(monkeypatch):
    # senders stop 0.1 s before the end, so the stores are still full
    # when the run is checked
    slack = 4
    for duration_s in (4.0, 12.0):
        cfg = scenario.load(scenario.bundled_path("skype_analog"),
                            [f"duration_s={duration_s}", "cooldown_s=0.1"])
        flows = cfg.flows
        # one flow's packets, and the batches of all flows, per horizon
        cached = cfg.horizon_us // flows.interval_us
        stored = cached * flows.count // cfg.coding.k_max
        bound = {"cache": cached + slack, "holes": slack, "held": slack,
                 "store": stored + slack,
                 "covers": (stored + slack) * cfg.coding.k_max,
                 "orphans": slack}
        m, seen = run_watched(monkeypatch, cfg, live_state)
        state = seen["at_check"]
        # live, not drained: a horizon of packets, most of a horizon of batches
        assert state["cache"] >= cached and state["store"] >= stored // 2
        for name, n in state.items():
            assert n <= bound[name], (duration_s, name, n, bound[name])
        log, sim = seen["log"], seen["sim"]
        drops = sum(sim.links[f"s{i}>r{i}"].dropped_count for i in range(flows.count))
        assert ledger_entries(log) - len(log.losses) - len(log.counters) == m.lost == drops > 0


def test_run_seed_frees_its_simulation_without_the_cyclic_gc(monkeypatch):
    built = []

    class Recorded(netsim.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(netsim, "Simulator", Recorded)
    gc.collect()
    gc.disable()
    try:
        run_seed(tiny(), seed=1)
        assert len(built) == 1
        assert built[0]() is None, "the run outlives run_seed until a GC pass"
    finally:
        gc.enable()


@pytest.mark.parametrize("name, duration_s", [
    ("short_flow_nack_economy", 6), ("straggler_ab", 4)])
def test_every_send_and_timer_goes_through_the_traced_entry_points(
        monkeypatch, name, duration_s):
    # perfbench times the event path by wrapping SimEnv.send,
    # SimEnv.schedule and wire.wire_size; a node or loop that sent or
    # pushed around them would hide its cost from those spans
    calls = dict.fromkeys(["send", "schedule", "wire_size", "at", "on_timer"], 0)
    sims = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    class Recorded(netsim.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(netsim, "Simulator", Recorded)
    monkeypatch.setattr(Recorded, "at", counted("at", Recorded.at))
    monkeypatch.setattr(netsim.SimEnv, "send", counted("send", netsim.SimEnv.send))
    monkeypatch.setattr(netsim.SimEnv, "schedule",
                        counted("schedule", netsim.SimEnv.schedule))
    monkeypatch.setattr(wire, "wire_size", counted("wire_size", wire.wire_size))
    for cls in (endpoint.Sender, endpoint.Receiver, ingress.IngressCoder,
                egress.EgressRecovery):
        monkeypatch.setattr(cls, "on_timer", counted("on_timer", cls.on_timer))
    # long enough past the senders' stop that every timer fires and
    # every packet lands before the run ends
    cfg = scenario.load(scenario.bundled_path(name), [f"duration_s={duration_s}"])
    run_seed(cfg, cfg.seeds[0])
    links = sims[0].links.values()
    assert not any(link.inflight_count for link in links)
    assert calls["send"] == sum(link.sent_count for link in links) > 0
    assert calls["wire_size"] == calls["send"]
    assert calls["schedule"] + calls["at"] == calls["on_timer"] > calls["at"] > 0


def test_run_scenario_writes_artifact_set(tmp_path):
    out = tmp_path / "r"
    runs = run_scenario(tiny(), str(out))
    assert len(runs) == 2
    for name in ("summary.csv", "episodes.csv", "fec_whatif.csv",
                 "cost.csv", "summary.txt"):
        assert (out / name).stat().st_size > 0
    with (out / "summary.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert [r["seed"] for r in rows] == ["1", "2", "all"]


def test_run_scenario_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(tiny(), str(a))
    run_scenario(tiny(), str(b))
    for name in ("summary.csv", "episodes.csv", "fec_whatif.csv", "cost.csv",
                 "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_scenario_rejects_repeated_seeds(tmp_path):
    with pytest.raises(ValueError, match="repeat"):
        run_scenario(tiny(), str(tmp_path / "r"), seeds=[4, 4])
    assert not (tmp_path / "r").exists()


# -- seeds in worker processes -------------------------------------------------


def workers(monkeypatch, n):
    """Run every multi-seed call below on n processes, whatever the CPU count."""
    monkeypatch.setattr(runner, "_worker_count", lambda n_seeds: min(n_seeds, n))


def test_worker_count_follows_usable_cpus_and_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert [runner._worker_count(n) for n in (1, 3, 10)] == [1, 3, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert runner._worker_count(10) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert runner._worker_count(10) == 3
    monkeypatch.delattr(os, "fork")
    assert runner._worker_count(10) == 1


def test_pooled_and_serial_runs_write_identical_files(tmp_path, monkeypatch):
    cfg = tiny(seeds=[3, 1, 2])
    workers(monkeypatch, 2)
    run_scenario(cfg, str(tmp_path / "pooled"), trace=True)
    workers(monkeypatch, 1)
    run_scenario(cfg, str(tmp_path / "serial"), trace=True)
    names = sorted(os.listdir(tmp_path / "serial"))
    assert names == ["cost.csv", "episodes.csv", "fec_whatif.csv", "summary.csv",
                     "summary.txt", "trace-seed1.jsonl", "trace-seed2.jsonl",
                     "trace-seed3.jsonl"]
    assert sorted(os.listdir(tmp_path / "pooled")) == names
    for name in names:
        assert ((tmp_path / "pooled" / name).read_bytes()
                == (tmp_path / "serial" / name).read_bytes()), name


def break_conservation_at_seed(monkeypatch, seed):
    """The real conservation check fails in the simulation of one seed."""
    original = netsim.Simulator.check_conservation

    def check_conservation(sim):
        if sim.master_seed == seed:
            sim.links["dc1>dc2"].sent_bytes += 1
        original(sim)

    monkeypatch.setattr(netsim.Simulator, "check_conservation", check_conservation)


def test_worker_exception_keeps_type_and_message(tmp_path, monkeypatch):
    workers(monkeypatch, 2)
    break_conservation_at_seed(monkeypatch, 2)
    with pytest.raises(InvariantViolation) as info:
        run_scenario(tiny(), str(tmp_path / "r"))
    assert type(info.value) is InvariantViolation
    assert str(info.value) == "link dc1>dc2: bytes not conserved"
    assert_reaped()


@pytest.mark.parametrize("dying", [1, 3])  # a worker's first seed, or its second
def test_a_worker_that_dies_without_its_metrics_raises(tmp_path, monkeypatch, dying):
    # seeds 1 and 3 go to the first of two workers, seed 2 to the second;
    # a dead worker must neither hang the call nor outlive it
    workers(monkeypatch, 2)
    original = runner.run_seed

    def run_seed(cfg, seed, trace_path=None):
        if seed == dying:
            os._exit(3)
        return original(cfg, seed, trace_path)

    def hung(signum, frame):
        raise TimeoutError("run_scenario still waits on a dead worker")

    monkeypatch.setattr(runner, "run_seed", run_seed)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="ended without its result"):
            run_scenario(tiny(seeds=[1, 2, 3]), str(tmp_path / "r"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_reaped()


def test_cli_run_exits_1_on_invariant_violation_in_a_worker(tmp_path, monkeypatch, capsys):
    workers(monkeypatch, 2)
    break_conservation_at_seed(monkeypatch, 1)
    rc = main(["run", write_tiny(tmp_path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert ("invariant violated: link dc1>dc2: bytes not conserved"
            in capsys.readouterr().err)


def test_replaced_run_seed_closure_runs_in_the_workers(tmp_path, monkeypatch):
    # the benchmark's pattern: a local closure, which cannot be pickled,
    # replaces runner.run_seed for the length of a call
    workers(monkeypatch, 2)
    original = runner.run_seed
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()

    def run_seed(cfg, seed, trace_path=None):
        (pid_dir / str(seed)).write_text(str(os.getpid()))
        return original(cfg, seed, trace_path)

    monkeypatch.setattr(runner, "run_seed", run_seed)
    runs = run_scenario(tiny(), str(tmp_path / "r"))
    assert [m.seed for m in runs] == [1, 2]
    pids = {int((pid_dir / s).read_text()) for s in ("1", "2")}
    assert os.getpid() not in pids


def test_trace_artifact(tmp_path):
    out = tmp_path / "t"
    run_scenario(tiny(), str(out), seeds=[1], trace=True)
    trace = out / "trace-seed1.jsonl"
    assert trace.exists()
    with trace.open() as f:
        first = f.readline()
    assert first.startswith("{")


# -- CLI ----------------------------------------------------------------------


def write_tiny(tmp_path, doc=None):
    p = tmp_path / "tiny.yaml"
    p.write_text(yaml.safe_dump(doc or TINY))
    return str(p)


def test_cli_run_and_output(tmp_path, capsys):
    rc = main(["run", write_tiny(tmp_path), "--seed", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "scenario tiny: 1 seed(s)" in text
    assert "artifacts in" in text
    assert (tmp_path / "out" / "summary.csv").exists()


def test_cli_run_resolves_bundled_names(tmp_path, capsys):
    rc = main(["validate", "straggler_ab"])
    assert rc == 0
    assert "straggler_ab: OK" in capsys.readouterr().out


def test_cli_set_override_reaches_the_run(tmp_path, capsys):
    rc = main(["run", write_tiny(tmp_path), "--seed", "1",
               "--out", str(tmp_path / "o"),
               "--set", "topology.direct.loss={kind: bernoulli, p: 0}"])
    assert rc == 0
    with (tmp_path / "o" / "summary.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert all(r["direct_lost"] == "0" for r in rows)
    assert all(r["dc2_egress_recovery_bytes"] == "0" for r in rows)


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    doc = copy.deepcopy(TINY)
    doc["coding"]["k_max"] = 1
    rc = main(["validate", write_tiny(tmp_path, doc)])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ["coding.k_max=40", "coding.parity_cross=4"],
    ["flows.count=2.0"],
    ["seeds=[4, 4]"],
    ["seeds.x=1"],
    ["seeds.7=1"],
])
def test_cli_run_rejects_overrides_the_run_cannot_use(tmp_path, capsys, overrides):
    sets = [arg for o in overrides for arg in ("--set", o)]
    rc = main(["run", "selective_duplication", "--out", str(tmp_path / "o"), *sets])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_validate_rejects_unreadable_files(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.yaml"
    not_utf8.write_bytes(b"name: caf\xe9\n")
    for path in (tmp_path, not_utf8):
        rc = main(["validate", str(path)])
        assert rc == 2
        assert "scenario error" in capsys.readouterr().err


def test_cli_unknown_scenario_name(capsys):
    rc = main(["run", "no_such_thing"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no scenario file" in err and "wide_area_cbr" in err


def test_cli_scenarios_lists_bundled(capsys):
    rc = main(["scenarios"])
    assert rc == 0
    names = capsys.readouterr().out.split()
    assert "outage_vs_fec" in names and "skype_analog" in names


def test_cli_compare_table(tmp_path, capsys):
    f = write_tiny(tmp_path)
    main(["run", f, "--seed", "1", "--out", str(tmp_path / "a")])
    main(["run", f, "--seed", "2", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    rc = main(["compare", str(tmp_path / "a"), str(tmp_path / "b")])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split()[0] == "metric"
    assert any(l.startswith("recovery_rate") for l in lines)
    assert any(l.startswith("dc1_egress_bytes") for l in lines)


def test_cli_compare_rejects_foreign_schema(tmp_path, capsys):
    d = tmp_path / "x"
    d.mkdir()
    (d / "summary.csv").write_text("schema,seed\nother.thing/9,all\n")
    rc = main(["compare", str(d)])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_compare_rejects_summary_without_schema_column(tmp_path, capsys):
    d = tmp_path / "x"
    d.mkdir()
    (d / "summary.csv").write_text("scenario,seed\ntiny,all\n")
    rc = main(["compare", str(d)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and "does not match" in err


def test_cli_compare_requires_pooled_row(tmp_path, capsys):
    d = tmp_path / "y"
    d.mkdir()
    (d / "summary.csv").write_text("schema,seed\ncaspr.summary/1,1\n")
    rc = main(["compare", str(d)])
    assert rc == 2
    assert "no pooled" in capsys.readouterr().err


def test_cli_compare_rejects_a_header_only_summary(tmp_path, capsys):
    d = tmp_path / "y"
    d.mkdir()
    (d / "summary.csv").write_text("schema,seed\n")
    rc = main(["compare", str(d)])
    assert rc == 2
    assert "summary.csv is empty" in capsys.readouterr().err


def test_cli_compare_missing_dir(tmp_path, capsys):
    rc = main(["compare", str(tmp_path / "absent")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


NUMPY_BLOCKED_RUN = """
import importlib.util, os, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
sys.modules["dataclasses"] = None  # and so does any import of dataclasses
sys.modules["yaml"] = None  # and of PyYAML
import caspr.cli, caspr.runner
from caspr import codec, scenario
# two workers whatever the host: the one-seed runs split, the two-seed
# run pools its seeds
caspr.runner._worker_count = lambda n_seeds: min(n_seeds, 2)
run = ["run", "short_flow_nack_economy", "--seed", "21", "--set", "duration_s=5"]
rc = caspr.cli.main([*run, "--out", "out"])
decode_matrices = codec._decode_matrix.cache_info().misses
cfg = scenario.load(scenario.bundled_path("short_flow_nack_economy"),
                    ["duration_s=3", "cooldown_s=1"])
pooled = [m.seed for m in caspr.runner.run_scenario(cfg, "pooled", [21, 22])]
# taken before this script imports json for its own output
loaded = [m for m in sys.modules if sys.modules[m] is not None]
traced_rc = caspr.cli.main([*run, "--out", "traced", "--trace"])
# derive_rng needs hashlib (and OpenSSL) only where the builtin SHA-256 is missing
unwanted = {"numpy", "json", "inspect", "yaml", "multiprocessing", "concurrent"}
if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
    unwanted.add("hashlib")
import json, threading
print(json.dumps({"rc": rc, "traced_rc": traced_rc, "decode_matrices": decode_matrices,
                  "pooled": pooled, "threads": threading.active_count(),
                  "files": sorted(os.listdir("out")),
                  "traced_files": sorted(os.listdir("traced")),
                  "unwanted": sorted(m for m in loaded if m.split(".")[0] in unwanted)}))
"""


def test_a_run_never_imports_numpy(tmp_path):
    # numpy serves only the benchmark's gf256.gf_matmul wrapper; the CLI,
    # the runner and a run that decodes (so builds decode matrices) and
    # writes its CSVs must work with numpy unimportable.  A cold start
    # also skips dataclasses (which pulls in inspect), PyYAML (scenario
    # files parse in caspr.scenario), hashlib where the builtin SHA-256
    # exists and, without --trace, json; a traced run imports json and
    # writes its trace.  A split or pooled run forks through caspr.ahead,
    # with no multiprocessing, concurrent.futures or thread
    src = os.path.dirname(os.path.dirname(runner.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_RUN], cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == got["traced_rc"] == 0
    assert got["decode_matrices"] > 0
    assert got["pooled"] == [21, 22]
    assert got["threads"] == 1
    assert {"summary.csv", "episodes.csv", "fec_whatif.csv", "cost.csv"} <= set(got["files"])
    assert got["unwanted"] == []
    assert set(got["traced_files"]) == set(got["files"]) | {"trace-seed21.jsonl"}
