"""Whole-run properties over random small scenarios, and the wire format
and the summary's counter columns checked against every message the
bundled scenarios send and every counter they bump.

The random scenarios vary loss kind, outages, batch width, parity,
duplication, detector and flow count.  Every run must hold four
properties: no delivery of a corrupt or unsent packet, byte and packet
conservation on every link, recovered_1rtt <= recovered_any <= lost,
and not one recovery byte out of DC2 when the direct paths lost nothing.
Each receiver's hole map must also match what it never delivered, and
its payload cache must stay in time order inside its TTL and count cap.
After every message DC2 handles, its store must hold no expired batch,
and its cover maps must index exactly the stored batches.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from _stub import tap_deliveries
from hypothesis import given, settings
from hypothesis import strategies as st

from caspr import egress, endpoint, metrics, netsim, wire
from caspr.endpoint import Receiver
from caspr.runner import run_seed
from caspr.scenario import bundled_names, bundled_path, flow_links, load, validate

LOSSES = {
    "none": None,
    "bernoulli": {"kind": "bernoulli", "p": 0.04},
    "gilbert_elliott": {"kind": "gilbert_elliott", "p_good_bad": 0.03,
                        "p_bad_good": 0.3, "loss_good": 0.0, "loss_bad": 0.7},
    "google_burst": {"kind": "google_burst", "p_first": 0.03, "p_cont": 0.5},
}


@st.composite
def small_scenarios(draw):
    flows = draw(st.integers(1, 5))
    in_block = draw(st.sampled_from([0, 3, 5]))
    doc = {
        "name": "prop",
        "duration_s": 2.0,
        "cooldown_s": 0.5,
        "seeds": [draw(st.integers(0, 1000))],
        "topology": {
            "direct": {"delay_ms": 40.0, "jitter_ms": draw(st.sampled_from([0.0, 1.0]))},
            "access": {"delay_ms": 5.0, "jitter_ms": 0.5},
            "inter_dc": {"delay_ms": 15.0, "jitter_ms": 0.5},
            "recovery": {"delay_ms": 6.0, "jitter_ms": 0.5},
        },
        "flows": {"count": flows, "packet_size": draw(st.sampled_from([0, 40, 300])),
                  "interval_ms": 10.0,
                  "on_s": draw(st.sampled_from([0.3, 1.5])),
                  "off_mean_s": draw(st.sampled_from([0.0, 0.2])),
                  "stagger_ms": 1.0,
                  "duplication": draw(st.sampled_from(["full", "selective"]))},
        "coding": {"k_max": draw(st.integers(2, 6)),
                   "parity_cross": draw(st.integers(1, 3)),
                   "in_block": in_block,
                   "parity_in": draw(st.integers(1, 2)) if in_block else 0},
        "detector": {"kind": draw(st.sampled_from(["two_state", "fixed_small"]))},
    }
    loss = LOSSES[draw(st.sampled_from(sorted(LOSSES)))]
    if loss:
        doc["topology"]["direct"]["loss"] = loss
    if draw(st.booleans()):
        doc["outages"] = [{"flow": draw(st.integers(0, flows - 1)),
                           "start_s": 0.4, "end_s": 0.9}]
    return validate(doc)


def check_holes(recv, delivered):
    """The hole map holds, in seq order from the frontier on, exactly the
    seqs up to max_seen that the receiver never delivered: delivered
    lists its deliveries as (seq, ts, recovered) rows."""
    keys = list(recv.holes)
    assert keys == sorted(keys) and all(s >= recv.frontier for s in keys)
    got = {seq for seq, _, _ in delivered}
    never = set(range(recv.frontier, recv.max_seen + 1)) - got
    assert {s for s in keys if s <= recv.max_seen} == never, recv.name


def check_cache(recv):
    """The payload cache is in time order, spans at most the recovery
    horizon and holds at most CACHE_PACKETS entries."""
    stamps = list(recv.cache.values())
    assert stamps == sorted(stamps), recv.name
    assert not stamps or stamps[-1] - stamps[0] <= recv.horizon_us, recv.name
    assert len(stamps) <= endpoint.CACHE_PACKETS, recv.name


def run_observed(cfg):
    """run_seed, plus the simulator it built and every send and delivery
    of its flows, as ``deliveries[flow]`` rows of (seq, ts, recovered)
    and ``flows[flow].send_ts`` maps.  Sends are read off the direct
    links, deliveries off the receivers.  Each receiver's hole map and
    cache are checked at the end of the run, before run_seed lets go of
    the nodes."""
    seen = {}
    flows = range(cfg.flows.count)
    sends = {f: {} for f in flows}
    deliveries = {f: [] for f in flows}
    check, send = netsim.Simulator.check_conservation, netsim.SimEnv.send

    def keep_sim(sim):
        seen["sim"] = sim
        receivers = [node for node in sim.nodes.values()
                     if isinstance(node, Receiver)]
        assert len(receivers) == cfg.flows.count
        for recv in receivers:
            check_holes(recv, deliveries[recv.flow_id])
            check_cache(recv)
        check(sim)

    def send_spied(env, link_name, msg):
        if type(msg) is wire.DataPacket and link_name == flow_links(msg.flow_id).direct:
            sends[msg.flow_id][msg.seq] = env.now
        send(env, link_name, msg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netsim.Simulator, "check_conservation", keep_sim)
        mp.setattr(netsim.SimEnv, "send", send_spied)
        mp.setattr(Receiver, "_on_data", tap_deliveries(Receiver._on_data, deliveries))
        m = run_seed(cfg, cfg.seeds[0])
    return m, seen["sim"], SimpleNamespace(
        deliveries=deliveries,
        flows={f: SimpleNamespace(send_ts=sent) for f, sent in sends.items()})


# derandomize seeds the examples from this test's source, so an edit to
# its body draws a different set of 100 scenarios
@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_scenarios())
def test_random_runs_hold_the_run_invariants(cfg):
    m, sim, log = run_observed(cfg)
    # a corrupt payload raises inside the receiver; beyond that, every
    # delivered packet was sent and is delivered once
    for flow_id, rows in log.deliveries.items():
        seqs = [seq for seq, _, _ in rows]
        assert len(seqs) == len(set(seqs))
        assert set(seqs) <= set(log.flows[flow_id].send_ts)
    for link in sim.links.values():
        assert link.sent_count == (link.delivered_count + link.dropped_count
                                   + link.inflight_count), link.name
        assert link.sent_bytes == (link.delivered_bytes + link.dropped_bytes
                                   + link.inflight_bytes), link.name
    assert m.recovered_1rtt <= m.recovered_any <= m.lost
    if m.lost == 0:
        assert m.dc2_egress_recovery_bytes == 0


def run_spying_dc2(cfg, on_message=None):
    """run_seed with DC2 watched: ``on_message(dc2)`` after each message
    DC2 handles, and the kinds of the timers DC2 schedules, of those its
    on_timer runs and of those still pending when the run ends."""
    seen = {"scheduled": Counter(), "fired": Counter(), "pending": Counter()}
    handle, timer = egress.EgressRecovery.on_message, egress.EgressRecovery.on_timer
    schedule, check = netsim.SimEnv.schedule, netsim.Simulator.check_conservation

    def handle_spied(dc2, msg, link_name):
        handle(dc2, msg, link_name)
        if on_message is not None:
            on_message(dc2)

    def timer_spied(dc2, token):
        seen["fired"][token[0]] += 1
        timer(dc2, token)

    def schedule_spied(env, delay_us, token):
        if env.name == "dc2":
            seen["scheduled"][token[0]] += 1
        schedule(env, delay_us, token)

    def check_spied(sim):
        idx = sim.nodes["dc2"].env._idx
        seen["pending"].update(ev[3][0] for ev in sim._heap if ev[1] == idx)
        check(sim)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(egress.EgressRecovery, "on_message", handle_spied)
        mp.setattr(egress.EgressRecovery, "on_timer", timer_spied)
        mp.setattr(netsim.SimEnv, "schedule", schedule_spied)
        mp.setattr(netsim.Simulator, "check_conservation", check_spied)
        run_seed(cfg, cfg.seeds[0])
    return seen


def check_store(dc2):
    """Past each message, DC2 holds no batch past its expiry, and its two
    cover maps index exactly the stored batches: each entry of a stored
    batch maps, in the map of the batch's kind, to that batch."""
    now = dc2.env.now
    assert all(batch.expires_at > now for batch in dc2.store.values()), now
    indexed = {True: 0, False: 0}
    for batch in dc2.store.values():
        covers = dc2.cross_of if batch.cross else dc2.in_of
        assert all(covers.get(e) is batch for e in batch.entries), now
        indexed[batch.cross] += len(batch.entries)
    # as many keys as stored entries: no entry of one batch was
    # overwritten by another batch of the same kind
    assert (len(dc2.cross_of), len(dc2.in_of)) == (indexed[True], indexed[False]), now
    assert all(dc2.store.get(b.batch_id) is b
               for covers in (dc2.cross_of, dc2.in_of) for b in covers.values()), now


@settings(max_examples=100, derandomize=True, deadline=None)
@given(small_scenarios())
def test_dc2_store_holds_only_unexpired_indexed_batches(cfg):
    try:
        run_spying_dc2(cfg, check_store)
    except netsim.InvariantViolation as e:
        # ROADMAP open item 1: an idle fixed_small flow can turn DC2
        # proactive on a lossless run, and run_seed's end-of-run check
        # says so; the store was checked at every message before that
        assert "lossless run moved" in str(e) and cfg.detector.kind == "fixed_small"


def test_dc2_arms_no_timer_per_stored_batch():
    cfg = load(bundled_path("wide_area_cbr"), ["duration_s=3.0", "cooldown_s=0.5"])
    seen = run_spying_dc2(cfg)
    assert set(seen["scheduled"]) <= {"task", "boundary", "orphan"}, seen["scheduled"]
    # every timer DC2 arms either ran or was still pending at the end
    assert seen["fired"] + seen["pending"] == seen["scheduled"]
    assert seen["fired"]["task"] > 0


def short_bundled(name):
    """The bundled scenario cut to five seconds, its first outage inside them."""
    overrides = ["duration_s=5.0", "cooldown_s=1.0"]
    if load(bundled_path(name)).outages:
        overrides += ["outages.0.start_s=0.5", "outages.0.end_s=1.5"]
    return load(bundled_path(name), overrides)


@pytest.fixture(scope="module")
def bundled_cuts():
    """Each bundled scenario's short cut, run at its first seed with every
    sent message checked against the wire: the message types sent, and
    the runs' metrics."""
    send = netsim.SimEnv.send
    types = set()

    def send_checked(env, link_name, msg):
        buf = wire.serialize(msg)
        assert len(buf) == wire.wire_size(msg), msg
        types.add(wire.TYPE_NAMES[buf[1]])  # the header's pkt_type
        if isinstance(msg, wire.CoopResponse) and msg.payload is None:
            types.add("COOP_RESP negative")
        send(env, link_name, msg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netsim.SimEnv, "send", send_checked)
        runs = []
        for name in bundled_names():
            cfg = short_bundled(name)
            runs.append(run_seed(cfg, cfg.seeds[0]))
    return types, runs


def test_every_sent_message_serializes_at_its_wire_size(bundled_cuts):
    types, _ = bundled_cuts
    # the short runs still send every packet type, both coop answers included
    assert types == set(wire.TYPE_NAMES.values()) | {"COOP_RESP negative"}


def test_every_bumped_counter_is_a_summary_column(bundled_cuts):
    # summary.csv writes the COUNTER_COLS columns only, so a counter
    # bumped under any other name would never reach it
    _, runs = bundled_cuts
    bumped = set().union(*(m.counters for m in runs))
    assert bumped <= set(metrics.COUNTER_COLS), bumped - set(metrics.COUNTER_COLS)
