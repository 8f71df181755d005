"""Small loss patterns near a flow's end, as plain scenarios.

Three flows of 40 B packets every 10 ms for 1.2 s (seqs 0-119, flow f
sending seq s at f ms + 10 s ms) cross-code in batches of one packet
per flow with one parity, with no in-stream coding, no jitter and no
random loss.  An outage window that spans one send time drops exactly
that packet, so each case names its losses as windows and needs no
hook in the simulator.  A loss is decodable when its cross batch holds
no more direct-path losses than parity; the cloud links are lossless,
so DC2 can rebuild every decodable loss.  Batch membership and send
times are read off ``ingress.encode_batch``, and each loss's fate off
the run's ledger.

The same flows sent in on/off bursts end a burst with a packet that,
like a flow's last, no later arrival reveals lost until the next burst.
"""

import functools

import pytest

from caspr import ingress, metrics
from caspr.netsim import InvariantViolation
from caspr.runner import run_seed
from caspr.scenario import validate

TAIL = {
    "name": "tail",
    "duration_s": 1.5,
    "cooldown_s": 0.3,
    "seeds": [0],
    "topology": {
        "direct": {"delay_ms": 40.0},
        "access": {"delay_ms": 5.0},
        "inter_dc": {"delay_ms": 15.0},
        "recovery": {"delay_ms": 6.0},
    },
    "flows": {"count": 3, "packet_size": 40, "interval_ms": 10.0,
              "on_s": 1.2, "stagger_ms": 1.0},
    "coding": {"k_max": 3, "parity_cross": 1, "in_block": 0, "parity_in": 0},
}

LAST_SEQ = 119


def drop(flow, send_us):
    """An outage window that drops only flow's packet sent at send_us."""
    return {"flow": flow, "start_s": send_us / 1e6, "end_s": (send_us + 500) / 1e6}


def lose(*drops):
    """Outage windows that drop exactly seq s of flow f, for each (f, s)."""
    return [drop(flow, 1000 * (flow + 10 * seq)) for flow, seq in drops]


def stuck_hole(offset):
    """Flows 0 and 1 lose seq offset (one batch, two losses, one parity:
    not decodable, so flow 0's frontier sticks there), then flow 0 loses
    its last packet, alone in its batch."""
    return lose((0, offset), (1, offset), (0, LAST_SEQ))


def spied_run(doc):
    """run_seed on the scenario doc; returns the metrics, the cross batches
    as lists of (flow, seq) with a {(flow, seq): send time} map, and the
    run's losses by flow and seq."""
    cfg = validate(doc)
    batches, sent, seen = [], {}, {}
    encode, analyze = ingress.encode_batch, metrics.analyze_run

    def encode_spied(batch_id, sources, num_parity, cross, send_ts_us):
        if cross:
            batches.append([(pkt.flow_id, pkt.seq) for pkt in sources])
            sent.update(((pkt.flow_id, pkt.seq), pkt.send_ts_us) for pkt in sources)
        return encode(batch_id, sources, num_parity, cross, send_ts_us)

    def keep_log(cfg, seed, run_log, links):
        seen["log"] = run_log
        return analyze(cfg, seed, run_log, links)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingress, "encode_batch", encode_spied)
        mp.setattr(metrics, "analyze_run", keep_log)
        m = run_seed(cfg, cfg.seeds[0])
    return m, batches, sent, seen["log"].losses


def run_case(outages, detector="two_state"):
    """run_seed on TAIL with the given outages; returns the metrics and
    the decodable losses that were never recovered, as (flow, seq)."""
    m, batches, _, losses = spied_run(
        {**TAIL, "outages": outages, "detector": {"kind": detector}})
    # every flow sends the same seqs, so each batch is one seq of each flow
    assert batches and all(sorted(flow for flow, _ in batch) == [0, 1, 2]
                           for batch in batches)
    lost = {(flow, seq) for flow, seqs in losses.items() for seq in seqs}
    decodable = {entry for batch in batches for entry in batch if entry in lost
                 and sum(e in lost for e in batch) <= TAIL["coding"]["parity_cross"]}
    missed = sorted(entry for entry in decodable
                    if losses[entry[0]][entry[1]].recovered_ts is None)
    return m, missed


ITEM_11 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP open item 11: a flow's last packet is NACKed only "
           "after its parity left DC2's store, while a hole holds the frontier")


@ITEM_11
def test_last_packet_behind_a_stuck_hole_is_recovered():
    m, missed = run_case(stuck_hole(110))
    assert (m.sent, m.lost) == (360, 3)
    assert missed == []


@ITEM_11
def test_every_stuck_hole_offset_near_the_tail_recovers_the_last_packet():
    missing = [offset for offset in range(80, LAST_SEQ)
               if run_case(stuck_hole(offset))[1]]
    assert missing == [], f"last packet missed at stuck-hole offsets {missing}"


@pytest.mark.parametrize("detector", [
    "two_state",
    pytest.param("fixed_small", marks=pytest.mark.xfail(
        strict=True, raises=InvariantViolation,
        reason="ROADMAP open item 1: an idle flow's timer NACKs turn DC2 proactive")),
])
def test_lossless_control_moves_no_recovery_bytes(detector):
    # run_seed itself raises when a lossless run moves recovery bytes
    m, missed = run_case([], detector)
    assert (m.sent, m.lost, missed) == (360, 0, [])
    assert m.dc2_egress_recovery_bytes == 0


# -- on/off bursts ------------------------------------------------------------
# With on_s 0.3 each flow sends bursts of 30 packets, so seqs 29, 59, 89,
# ... end one, and off periods drawn from the flow's random stream
# separate them: send times and batches come from a lossless run.  A
# packet that DC1 flushes alone is in no cross batch, and has no send
# time here; no case below drops one.

BURST = 30


def onoff(off_mean_s):
    flows = {**TAIL["flows"], "on_s": 0.3, "off_mean_s": off_mean_s}
    return {**TAIL, "duration_s": 3.0, "flows": flows}


@functools.lru_cache(maxsize=None)
def lossless_onoff(off_mean_s):
    _, batches, sent, _ = spied_run(onoff(off_mean_s))
    return batches, sent


def burst_end_missed(off_mean_s, flow, end, d):
    """Flow loses end - d with its batch partner from another flow (not
    decodable, so the hole sticks), then end, the last packet of a burst;
    returns whether end, alone lost in its batch, went unrecovered."""
    # a broken case fails outright, so the xfails below hold only misses
    batches, sent = lossless_onoff(off_mean_s)
    hole, last = (flow, end - d), (flow, end)
    hole_batch = next(batch for batch in batches if hole in batch)
    partner = next(e for e in hole_batch if e[0] != flow)
    if end % BURST != BURST - 1 or not any(f == flow and s > end for f, s in sent):
        pytest.fail(f"{last} does not end a burst")
    if {hole, partner} & set(next(batch for batch in batches if last in batch)):
        pytest.fail(f"{last} is not decodable")
    drops = [hole, partner, last]
    _, _, _, losses = spied_run(
        {**onoff(off_mean_s), "outages": [drop(f, sent[f, s]) for f, s in drops]})
    if {(f, s) for f, seqs in losses.items() for s in seqs} != set(drops):
        pytest.fail(f"the outages did not drop exactly {drops}")
    return losses[flow][end].recovered_ts is None


# what a sweep over every burst end, d in 1-23 and off_mean_s 0.15, 0.3
# and 0.6 missed: 4 of 621 cases, none at 0.6
BURST_END_MISSES = [(0.3, 0, 59, 14), (0.15, 1, 89, 1), (0.15, 1, 89, 9), (0.15, 1, 89, 17)]
PROACTIVE_GUESS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP open items 11 and 1: the partner flow's proactive guess "
           "marks its member of the burst end's batch lost, so the burst end "
           "is NACKed into a batch with two unknowns and one parity")


@pytest.mark.parametrize("off_mean_s,flow,end,d", [
    pytest.param(*case, id="off{}-flow{}-seq{}-d{}".format(*case)) for case in BURST_END_MISSES])
@PROACTIVE_GUESS
def test_burst_end_behind_a_stuck_hole_is_recovered(off_mean_s, flow, end, d):
    assert not burst_end_missed(off_mean_s, flow, end, d)


def test_burst_ends_behind_a_stuck_hole_recover_with_long_off_periods():
    # the control: every burst end at off_mean_s 0.6, at the offsets
    # that miss above
    _, sent = lossless_onoff(0.6)
    cases = [(f, end, d) for f, end in sent if end % BURST == BURST - 1
             and any(g == f and s > end for g, s in sent)
             for d in (1, 9, 14, 17) if (f, end - d) in sent]
    assert len(cases) == 21
    assert [case for case in cases if burst_end_missed(0.6, *case)] == []
