"""Small loss patterns near a flow's end, as plain scenarios.

Three flows of 40 B packets every 10 ms for 1.2 s (seqs 0-119, flow f
sending seq s at f ms + 10 s ms) cross-code in batches of one packet
per flow with one parity, with no in-stream coding, no jitter and no
random loss.  An outage window that spans one send time drops exactly
that packet, so each case names its losses as windows and needs no
hook in the simulator.  A loss is decodable when its cross batch holds
no more direct-path losses than parity; the cloud links are lossless,
so DC2 can rebuild every decodable loss.  Batch membership is read off
``ingress.encode_batch``, and each loss's fate off the run's ledger.
"""

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


def lose(*drops):
    """Outage windows that drop exactly seq s of flow f, for each (f, s)."""
    windows = []
    for flow, seq in drops:
        start_ms = flow + 10 * seq
        windows.append({"flow": flow, "start_s": start_ms / 1000,
                        "end_s": (start_ms + 0.5) / 1000})
    return windows


def stuck_hole(offset):
    """Flows 0 and 1 lose seq offset (one batch, two losses, one parity:
    not decodable, so flow 0's frontier sticks there), then flow 0 loses
    its last packet, alone in its batch."""
    return lose((0, offset), (1, offset), (0, LAST_SEQ))


def run_case(outages, detector="two_state"):
    """run_seed on TAIL with the given outages; returns the metrics and
    the decodable losses that were never recovered, as (flow, seq)."""
    cfg = validate({**TAIL, "outages": outages, "detector": {"kind": detector}})
    batches, seen = [], {}
    encode, analyze = ingress.encode_batch, metrics.analyze_run

    def encode_spied(batch_id, sources, num_parity, cross, send_ts_us):
        if cross:
            batches.append([(pkt.flow_id, pkt.seq) for pkt in sources])
        return encode(batch_id, sources, num_parity, cross, send_ts_us)

    def keep_log(cfg, seed, run_log, links):
        seen["log"] = run_log
        return analyze(cfg, seed, run_log, links)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingress, "encode_batch", encode_spied)
        mp.setattr(metrics, "analyze_run", keep_log)
        m = run_seed(cfg, cfg.seeds[0])
    # every flow sends the same seqs, so each batch is one seq of each flow
    assert batches and all(sorted(flow for flow, _ in batch) == [0, 1, 2]
                           for batch in batches)
    losses = seen["log"].losses
    lost = {(flow, seq) for flow, seqs in losses.items() for seq in seqs}
    decodable = {entry for batch in batches for entry in batch if entry in lost
                 and sum(e in lost for e in batch) <= cfg.coding.parity_cross}
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
