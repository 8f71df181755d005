"""Simulator determinism, the scenario's loss processes on links, byte
conservation."""

from __future__ import annotations

import gc
import heapq
import io
import json
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caspr import netsim, wire
from caspr.netsim import Simulator, derive_rng
from caspr.scenario import BernoulliLoss, GilbertElliottLoss, GoogleBurstLoss, validate


class Recorder:
    """Node that logs everything it sees and can echo on a timer."""

    def __init__(self):
        self.messages = []
        self.timers = []

    def on_message(self, msg, link_name):
        self.messages.append((self.env.now, link_name, msg))

    def on_timer(self, token):
        self.timers.append((self.env.now, token))


class Chatter:
    """Sends n data packets on a fixed cadence when its timer fires."""

    def __init__(self, link, n, gap_us):
        self.link = link
        self.n = n
        self.gap_us = gap_us
        self.sent = 0

    def on_message(self, msg, link_name):
        pass

    def on_timer(self, token):
        if self.sent < self.n:
            self.env.send(self.link, wire.DataPacket(1, self.sent, self.env.now))
            self.sent += 1
            self.env.schedule(self.gap_us, token)


def build(seed=1, drop=None, delay_us=1000, jitter_us=0, trace=None):
    sim = Simulator(seed, trace_file=trace)
    a, b = Chatter("a>b", 50, 100), Recorder()
    sim.add_node("a", a)
    sim.add_node("b", b)
    sim.add_link("a>b", "a", "b", delay_us=delay_us, jitter_us=jitter_us, drop=drop)
    sim.at(0, "a", ("tick",))
    return sim, a, b


def test_lossless_link_delivers_everything_in_order():
    sim, _, b = build()
    sim.run(1_000_000)
    assert [m.seq for _, _, m in b.messages] == list(range(50))
    assert all(t == 1000 + 100 * i for i, (t, _, _) in enumerate(b.messages))
    sim.check_conservation()


def test_bernoulli_zero_and_one():
    # p = 0 gives no drop function at all: the link draws nothing
    assert BernoulliLoss(p=0.0).dropper(random.Random(1)) is None
    sim, _, b = build(drop=BernoulliLoss(p=0.0).dropper(random.Random(1)))
    sim.run(1_000_000)
    assert len(b.messages) == 50

    sim2, _, b2 = build(drop=BernoulliLoss(p=1.0).dropper(random.Random(1)))
    sim2.run(1_000_000)
    assert not b2.messages
    assert sim2.links["a>b"].dropped_count == 50
    sim2.check_conservation()


def dropped_seqs(link):
    """The seqs the link drops from now on, in drop order."""
    seqs = []
    link.on_drop = lambda msg, now: seqs.append(msg.seq)
    return seqs


def one_flow(loss=None, outages=()):
    """A validated one-flow scenario with this direct loss and outages."""
    links = {name: {"delay_ms": 1.0} for name in ("direct", "access", "inter_dc", "recovery")}
    if loss:
        links["direct"]["loss"] = loss
    return validate({"name": "one", "duration_s": 1.0, "cooldown_s": 0.0, "seeds": [1],
                     "topology": links, "outages": list(outages),
                     "flows": {"count": 1, "packet_size": 8, "interval_ms": 0.1,
                               "on_s": 1.0},
                     "coding": {"k_max": 2, "parity_cross": 1}})


# flow 0's outage in [1000, 2000) us
OUTAGE = [{"flow": 0, "start_s": 0.001, "end_s": 0.002}]


def test_scheduled_outage_window():
    # packets go out at t = 0, 100, 200, ...; outage in [1000, 2000)
    cfg = one_flow(outages=OUTAGE)
    assert cfg.outages_us(0) == [(1000, 2000)]
    sim, _, b = build(drop=cfg.direct_dropper(0, random.Random(1)))
    dropped = dropped_seqs(sim.links["a>b"])
    sim.run(1_000_000)
    sent_times = [100 * i for i in range(50)]
    expect_kept = [t for t in sent_times if not 1000 <= t < 2000]
    assert [t - 1000 for t, _, _ in b.messages] == expect_kept
    # seq i goes out at t = 100 i: exactly the sends inside the window drop
    assert dropped == list(range(10, 20))


def test_the_direct_loss_draws_inside_an_outage():
    # the loss process draws on every send, in the window too, so the
    # drops after the window are those of the same seed without it
    def dropped(outages):
        cfg = one_flow({"kind": "bernoulli", "p": 0.3}, outages)
        sim, _, _ = build(drop=cfg.direct_dropper(0, random.Random(8)))
        seqs = dropped_seqs(sim.links["a>b"])
        sim.run(1_000_000)
        return seqs

    plain, with_outage = dropped(()), dropped(OUTAGE)
    assert set(range(10, 20)) <= set(with_outage)
    after = [s for s in plain if s >= 20]
    assert after and [s for s in with_outage if s >= 20] == after
    assert [s for s in with_outage if s < 10] == [s for s in plain if s < 10]


def test_google_burst_mean_burst_length():
    # frozen Monte Carlo oracle: at p_cont = 0.5 the mean burst length
    # must come out 2.0 +/- 0.05 over one million sends
    drop = GoogleBurstLoss(p_first=0.01, p_cont=0.5).dropper(random.Random(123))
    bursts = []
    run = 0
    for _ in range(1_000_000):
        if drop(0):
            run += 1
        elif run:
            bursts.append(run)
            run = 0
    mean = sum(bursts) / len(bursts)
    assert abs(mean - 2.0) < 0.05
    # overall loss rate is p_first / (p_first + 1 - p_cont) at stationarity
    total_lost = sum(bursts) + run
    assert abs(total_lost / 1_000_000 - 0.01 / 0.51) < 0.002


def test_gilbert_elliott_states():
    good = GilbertElliottLoss(p_good_bad=0.0, p_bad_good=0.0, loss_good=0.0,
                              loss_bad=1.0).dropper(random.Random(5))
    assert not any(good(0) for _ in range(100))  # stuck in GOOD, lossless
    bad = GilbertElliottLoss(p_good_bad=1.0, p_bad_good=0.0, loss_good=0.0,
                             loss_bad=1.0).dropper(random.Random(5))
    bad(0)  # first packet drawn in GOOD, then flips to BAD forever
    assert all(bad(0) for _ in range(100))


def test_composite_any_drop():
    # a send drops if the outage or the loss process drops it
    sends = range(0, 5000, 100)
    always = one_flow({"kind": "bernoulli", "p": 1.0}, OUTAGE).direct_dropper(0, random.Random(1))
    assert all(always(t) for t in sends)
    # Gilbert-Elliott stuck in GOOD draws on every send and never drops
    stuck = {"kind": "gilbert_elliott", "p_good_bad": 0, "p_bad_good": 0,
             "loss_good": 0, "loss_bad": 1}
    never = one_flow(stuck, OUTAGE).direct_dropper(0, random.Random(2))
    assert [t for t in sends if never(t)] == list(range(1000, 2000, 100))


def test_jitter_bounds_and_determinism():
    sim, _, b = build(seed=9, delay_us=1000, jitter_us=200)
    sim.run(1_000_000)
    delays = [t - 100 * i - 1000 for i, (t, _, _) in enumerate(b.messages)]
    assert all(-200 <= d <= 200 for d in delays)
    assert any(d != 0 for d in delays)

    sim2, _, b2 = build(seed=9, delay_us=1000, jitter_us=200)
    sim2.run(1_000_000)
    assert [t for t, _, _ in b2.messages] == [t for t, _, _ in b.messages]


# jitters whose span 2j + 1 sits just below (2**k - 1) and just above
# (2**k + 1) a power of two, where the rejection loop's bit count changes
EDGE_JITTERS = [j for k in range(1, 16) for j in (2 ** (k - 1) - 1, 2 ** (k - 1)) if j]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       jitter=st.one_of(st.sampled_from(EDGE_JITTERS), st.integers(1, 100_000)))
def test_jitter_draws_are_randint_draws(seed, jitter):
    # SimEnv.send writes out the getrandbits loop behind randint(-j, j); a
    # different draw would move every jittered arrival in the artifacts
    trace = io.StringIO()
    sim = Simulator(0, trace_file=trace)
    env = sim.add_node("a", Recorder())
    sim.add_node("b", Recorder())
    link = sim.add_link("a>b", "a", "b", delay_us=jitter, jitter_us=jitter)
    link.getrandbits = random.Random(seed).getrandbits
    sim._freeze()
    for _ in range(40):
        env.send("a>b", wire.Ack(1, 0, 0))
    offsets = [json.loads(line)["arrive_ts"] - jitter
               for line in trace.getvalue().splitlines()]
    ref = random.Random(seed)
    assert offsets == [ref.randint(-jitter, jitter) for _ in range(40)]


def test_jitter_larger_than_delay_rejected():
    sim = Simulator(1)
    with pytest.raises(ValueError):
        sim.add_link("x>y", "x", "y", delay_us=100, jitter_us=200)


def test_per_link_streams_independent():
    # changing one link's seed scope must not move another link's draws:
    # drop pattern on "direct" is identical whether or not "cloud" exists
    def direct_drops(with_cloud):
        sim = Simulator(77)
        a, b = Recorder(), Recorder()
        sim.add_node("a", a)
        sim.add_node("b", b)
        drop = BernoulliLoss(p=0.3).dropper(sim.loss_rng("direct"))
        dropped = dropped_seqs(sim.add_link("direct", "a", "b", delay_us=10, drop=drop))
        if with_cloud:
            sim.add_node("c", Recorder())
            sim.add_link("cloud", "a", "c", delay_us=10,
                         drop=BernoulliLoss(p=0.9).dropper(sim.loss_rng("cloud")))
        env = a.env
        sim._freeze()
        for i in range(200):
            env.send("direct", wire.DataPacket(1, i, 0))
            if with_cloud:
                env.send("cloud", wire.DataPacket(1, i, 0))
        return dropped

    assert direct_drops(False) == direct_drops(True)


def test_node_insertion_order_invariance():
    def run(order):
        sim = Simulator(3)
        nodes = {name: Chatter(f"{name}>z", 20, 100) for name in ("a", "b", "c")}
        z = Recorder()
        for name in order:
            sim.add_node(name, nodes[name])
        sim.add_node("z", z)
        for name in ("a", "b", "c"):
            sim.add_link(f"{name}>z", name, "z", delay_us=500, jitter_us=100)
        for name in ("a", "b", "c"):
            sim.at(0, name, ("tick",))
        sim.run(1_000_000)
        return [(t, ln) for t, ln, _ in z.messages]

    assert run(["a", "b", "c"]) == run(["c", "a", "b"]) == run(["b", "c", "a"])


def test_same_seed_same_trace_bytes():
    def trace_once():
        buf = io.StringIO()
        drop = BernoulliLoss(p=0.2).dropper(derive_rng(42, "link", "a>b", "loss"))
        sim, _, _ = build(seed=42, drop=drop, trace=buf)
        sim.run(1_000_000)
        return buf.getvalue()

    assert trace_once() == trace_once()


def test_empty_topology_run_is_a_noop():
    sim = Simulator(0)
    sim.run(1_000)
    assert sim.now == 1_000
    sim.check_conservation()


TAMPERED_RUN = """
from caspr import netsim
assert False, "this child must run with asserts stripped"
sim = netsim.Simulator(0)
sim.add_link("a>b", "a", "b", delay_us=10)
sim.links["a>b"].{counter} += 1
try:
    sim.check_conservation()
except netsim.InvariantViolation as e:
    print("raised:", e)
"""


@pytest.mark.parametrize("counter", ["sent_count", "sent_bytes"])
def test_conservation_check_survives_python_O(counter):
    src = os.path.dirname(os.path.dirname(netsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_RUN.format(counter=counter)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: link a>b"), proc.stdout


def test_unknown_link_send_raises():
    sim = Simulator(0)
    env = sim.add_node("a", Recorder())
    sim._freeze()
    with pytest.raises(ValueError):
        env.send("nope", wire.Ack(1, 0, 0))


def test_negative_delay_schedule_rejected():
    sim = Simulator(0)
    r = Recorder()
    sim.add_node("a", r)
    sim._freeze()
    with pytest.raises(ValueError):
        r.env.schedule(-5, ("x",))


def test_duplicate_names_rejected():
    sim = Simulator(0)
    sim.add_node("a", Recorder())
    with pytest.raises(ValueError):
        sim.add_node("a", Recorder())
    sim.add_link("l", "a", "a", delay_us=1)
    with pytest.raises(ValueError):
        sim.add_link("l", "a", "a", delay_us=1)
    with pytest.raises(ValueError):
        sim.add_node("l", Recorder())


def test_link_to_unknown_node_rejected_at_freeze():
    # each link binds its destination's on_message when the topology freezes
    sim = Simulator(0)
    sim.add_node("a", Recorder())
    sim.add_link("a>b", "a", "b", delay_us=1)
    with pytest.raises(ValueError, match="unknown node 'b'"):
        sim.run(10)


def test_link_from_unknown_node_rejected_at_freeze():
    # each link is bound to its source's env when the topology freezes
    sim = Simulator(0)
    sim.add_node("b", Recorder())
    sim.add_link("a>b", "a", "b", delay_us=1)
    with pytest.raises(ValueError, match="unknown node 'a'"):
        sim.run(10)


def test_a_node_sends_only_on_its_own_links():
    sim = Simulator(0)
    a, b = Recorder(), Recorder()
    sim.add_node("a", a)
    sim.add_node("b", b)
    sim.add_link("a>b", "a", "b", delay_us=1)
    sim._freeze()
    with pytest.raises(ValueError, match="node 'b' has no link 'a>b'"):
        b.env.send("a>b", wire.DataPacket(1, 0, 0))
    a.env.send("a>b", wire.DataPacket(1, 0, 0))
    sim.run(10)
    assert [(t, ln) for t, ln, _ in b.messages] == [(1, "a>b")]
    assert sim.links["a>b"].sent_count == 1


def test_topology_is_fixed_once_frozen():
    sim = Simulator(0)
    sim.add_node("a", Recorder())
    sim.run(0)
    with pytest.raises(RuntimeError, match="frozen"):
        sim.add_node("b", Recorder())
    with pytest.raises(RuntimeError, match="frozen"):
        sim.add_link("a>a", "a", "a", delay_us=1)
    with pytest.raises(RuntimeError, match="frozen"):
        sim.at(5, "a", ("tick",))


def test_prestart_timer_for_unknown_node_rejected_at_freeze():
    sim = Simulator(0)
    sim.add_node("a", Recorder())
    sim.at(0, "b", ("tick",))
    with pytest.raises(ValueError, match="unknown node 'b'"):
        sim.run(10)


def test_negative_link_delay_rejected():
    sim = Simulator(1)
    with pytest.raises(ValueError, match="negative delay"):
        sim.add_link("x>y", "x", "y", delay_us=-1)


def test_derive_rng_stable_and_scoped():
    a = derive_rng(1, "link", "x", "loss").random()
    b = derive_rng(1, "link", "x", "loss").random()
    c = derive_rng(1, "link", "x", "jitter").random()
    d = derive_rng(2, "link", "x", "loss").random()
    assert a == b
    assert a != c
    assert a != d


def test_derive_rng_draws_are_pinned():
    # the seed of every stream is the first 8 bytes of a SHA-256; these
    # draws were recorded when the digest came from hashlib, so any
    # SHA-256 implementation must reproduce them
    loss = derive_rng(1, "link", "s0>r0", "loss")
    node = derive_rng(7, "node", "dc2")
    assert [loss.random() for _ in range(3)] == [
        0.6007495184928177, 0.6958971939830471, 0.19159194216255648]
    assert [node.random() for _ in range(3)] == [
        0.8728824928565142, 0.4508194516562709, 0.4497591346602965]


def test_conservation_counts_the_pending_deliveries():
    # sends at t = 0, 100, ..., 2000 arrive 1000 us later: mid-run, the
    # eleven sent by t = 1000 are delivered and ten are pending
    sim, _, b = build()
    sim.run(2_000)
    sim.check_conservation()
    link = sim.links["a>b"]
    pending = [ev for ev in sim._heap if len(ev) == 6]
    assert link.inflight_count == len(pending) == 10
    assert link.inflight_bytes == sum(ev[5] for ev in pending) > 0
    assert link.delivered_count == len(b.messages) == 11
    sim.run(1_000_000)
    sim.check_conservation()
    assert (link.inflight_count, link.inflight_bytes) == (0, 0)


def test_conservation_catches_a_delivery_lost_from_the_heap():
    sim, _, _ = build()
    sim.run(2_000)
    heap = sim._heap
    heap.remove(next(ev for ev in heap if len(ev) == 6))
    heapq.heapify(heap)
    with pytest.raises(netsim.InvariantViolation, match="link a>b: packet count"):
        sim.check_conservation()


class Logger:
    """Node that appends what it sees to a log shared across nodes."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def on_message(self, msg, link_name):
        self.log.append((self.env.now, "deliver", link_name))

    def on_timer(self, token):
        self.log.append((self.env.now, "timer", self.name, token))


def test_one_nodes_same_instant_timers_fire_in_schedule_order():
    log = []
    sim = Simulator(0)
    a = Logger("a", log)
    sim.add_node("a", a)
    sim._freeze()
    # tokens that sort the other way round: the heap must never compare them
    for token in [("z",), ("b",), ("m",)]:
        a.env.schedule(10, token)
    sim.run(10)
    assert [entry[3] for entry in log] == [("z",), ("b",), ("m",)]


def test_same_instant_events_fire_in_origin_order():
    # origins are numbered at freeze: nodes by name, then links by name;
    # a timer and a delivery due together fire in that order, whatever
    # the order they were added or scheduled in
    log = []
    sim = Simulator(0)
    nodes = {name: Logger(name, log) for name in ("b", "a")}
    for name, node in nodes.items():
        sim.add_node(name, node)
    sim.add_link("b>a", "b", "a", delay_us=100)
    sim.add_link("a>b", "a", "b", delay_us=100)
    sim._freeze()
    nodes["b"].env.send("b>a", wire.Ack(1, 0, 0))
    nodes["a"].env.send("a>b", wire.Ack(1, 0, 0))
    nodes["b"].env.schedule(100, ("t",))
    nodes["a"].env.schedule(100, ("t",))
    sim.run(100)
    assert log == [(100, "timer", "a", ("t",)), (100, "timer", "b", ("t",)),
                   (100, "deliver", "a>b"), (100, "deliver", "b>a")]


def test_prestart_timers_fire_in_sorted_order():
    log = []
    sim = Simulator(0)
    for name in ("b", "a"):
        sim.add_node(name, Logger(name, log))
    sim.at(50, "a", ("z",))
    sim.at(50, "b", ("a",))
    sim.at(50, "a", ("y",))
    sim.at(10, "b", ("w",))
    sim.run(100)
    assert log == [(10, "timer", "b", ("w",)), (50, "timer", "a", ("y",)),
                   (50, "timer", "a", ("z",)), (50, "timer", "b", ("a",))]


def run_and_drop(close):
    """Weakref to a finished two-node run whose every name is dropped."""
    sim, a, b = build()
    sim.run(1_000_000)
    if close:
        sim.close()
        # the links and their counters outlive close
        assert sim.links["a>b"].delivered_count == len(b.messages) == 50
    ref = weakref.ref(sim)
    del sim, a, b
    return ref


def test_close_frees_the_simulation_without_the_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        # bound handlers keep an unclosed run in a cycle ...
        assert run_and_drop(close=False)() is not None
        # ... that close() breaks
        assert run_and_drop(close=True)() is None
    finally:
        gc.enable()


def test_events_due_at_the_end_of_a_run_still_run():
    # sends at t = 0, 100, ... arrive 1000 us later, timers every 100 us
    sim, a, b = build()
    sim.run(1_000)
    assert [t for t, _, _ in b.messages] == [1_000]
    assert a.sent == 11 and sim.now == 1_000


def assert_no_marker(sim):
    """Every pending event is a node's timer or a link's delivery."""
    links = set(map(id, sim.links.values()))
    assert all(len(ev) == 4 or id(ev[3]) in links for ev in sim._heap)


def test_no_marker_outlives_a_run_or_counts_as_in_flight():
    sim, _, _ = build(jitter_us=300)
    link = sim.links["a>b"]
    for until_us in (1_000, 2_050, 2_050, 3_333, 1_000_000):
        sim.run(until_us)
        assert_no_marker(sim)
        sim.check_conservation()
        assert link.inflight_count == sum(len(ev) == 6 for ev in sim._heap)


def test_a_run_in_steps_traces_what_one_run_traces():
    def trace(stops):
        buf = io.StringIO()
        drop = BernoulliLoss(p=0.2).dropper(derive_rng(42, "link", "a>b", "loss"))
        sim, _, _ = build(seed=42, drop=drop, jitter_us=300, trace=buf)
        for until_us in stops:
            sim.run(until_us)
        return buf.getvalue()

    assert trace([1_000, 2_345, 2_345, 1_000_000]) == trace([1_000_000])
