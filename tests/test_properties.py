"""Whole-run properties over random small scenarios, and the wire format
checked against every message the bundled scenarios send.

The random scenarios vary loss kind, outages, batch width, parity,
duplication, detector and flow count.  Every run must hold four
properties: no delivery of a corrupt or unsent packet, byte and packet
conservation on every link, recovered_1rtt <= recovered_any <= lost,
and not one recovery byte out of DC2 when the direct paths lost nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caspr import metrics, netsim, wire
from caspr.runner import run_seed
from caspr.scenario import bundled_names, bundled_path, load, validate

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


def run_observed(cfg):
    """run_seed, plus the simulator and run log it built."""
    seen = {}
    check = netsim.Simulator.check_conservation
    analyze = metrics.analyze_run

    def keep_sim(sim):
        seen["sim"] = sim
        check(sim)

    def keep_log(*args, **kwargs):
        seen["log"] = args[4]
        return analyze(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netsim.Simulator, "check_conservation", keep_sim)
        mp.setattr(metrics, "analyze_run", keep_log)
        m = run_seed(cfg, cfg.seeds[0])
    return m, seen["sim"], seen["log"]


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


def short_bundled(name):
    """The bundled scenario cut to five seconds, its first outage inside them."""
    overrides = ["duration_s=5.0", "cooldown_s=1.0"]
    if load(bundled_path(name)).outages:
        overrides += ["outages.0.start_s=0.5", "outages.0.end_s=1.5"]
    return load(bundled_path(name), overrides)


def test_every_sent_message_round_trips_the_wire(monkeypatch):
    send = netsim.Simulator._send
    types = set()

    def send_checked(sim, link_name, msg):
        buf = wire.serialize(msg)
        assert wire.deserialize(buf) == msg, msg
        assert len(buf) == wire.wire_size(msg), msg
        types.add(wire.TYPE_NAMES[buf[1]])  # the header's pkt_type
        if isinstance(msg, wire.CoopResponse) and msg.payload is None:
            types.add("COOP_RESP negative")
        send(sim, link_name, msg)

    monkeypatch.setattr(netsim.Simulator, "_send", send_checked)
    for name in bundled_names():
        cfg = short_bundled(name)
        run_seed(cfg, cfg.seeds[0])
    # the short runs still send every packet type, both coop answers included
    assert types == set(wire.TYPE_NAMES.values()) | {"COOP_RESP negative"}
