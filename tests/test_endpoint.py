"""Sender pacing and duplication, receiver detection and serving."""

import pytest

from _stub import StubEnv
from caspr import endpoint
from caspr.codec import SourceSymbol, encode_batch
from caspr.endpoint import (
    DetectorConfig,
    MAX_HELD_BLOCKS,
    Receiver,
    ReceiverConfig,
    Sender,
    SenderConfig,
    payload_bytes,
)
from caspr.metrics import RunLog
from caspr.wire import (
    Ack,
    CTRL_CONFIRM_QUERY,
    CTRL_CONFIRM_RESP,
    CoopRequest,
    CoopResponse,
    Ctrl,
    DataPacket,
    FLAG_SELECTIVE_DUP,
    Nack,
    coded_from_parity,
)


def test_payload_bytes_shape():
    assert payload_bytes(1, 2, 0) == b""
    assert len(payload_bytes(1, 2, 7)) == 7
    assert len(payload_bytes(1, 2, 1200)) == 1200
    assert payload_bytes(1, 2, 64) == payload_bytes(1, 2, 64)
    assert payload_bytes(1, 2, 64) != payload_bytes(1, 3, 64)
    assert payload_bytes(1, 2, 64) != payload_bytes(2, 2, 64)


# -- sender -------------------------------------------------------------------


def make_sender(**kw):
    defaults = dict(flow_id=0, packet_size=64, interval_us=10_000,
                    direct_link="s0>r0", dup_link="s0>dc1",
                    on_us=50_000, off_mean_us=0)
    defaults.update(kw)
    log = RunLog()
    sender = Sender("s0", SenderConfig(**defaults), log)
    env = StubEnv()
    env.attach(sender)
    env.schedule(sender.config.start_us, ("burst",))
    return sender, env, log


def test_cbr_full_duplication():
    sender, env, log = make_sender()
    env.run_until(49_999)
    direct = env.on("s0>r0")
    dup = env.on("s0>dc1")
    assert [p.seq for p in direct] == list(range(5))
    assert [p.send_ts_us for p in direct] == [0, 10_000, 20_000, 30_000, 40_000]
    assert dup == direct
    assert all(p.payload == payload_bytes(0, p.seq, 64) for p in direct)
    assert list(log.flows[0].send_ts.items()) == [(s, s * 10_000) for s in range(5)]


def test_seq_continues_across_bursts():
    sender, env, log = make_sender(on_us=30_000, off_mean_us=100_000)
    env.run_until(2_000_000)
    seqs = [p.seq for p in env.on("s0>r0")]
    assert seqs == list(range(len(seqs)))
    assert len(seqs) > 6  # several bursts happened
    ts = [p.send_ts_us for p in env.on("s0>r0")]
    # bursts are separated by more than the base interval
    assert max(b - a for a, b in zip(ts, ts[1:])) > 10_000


def test_selective_duplication_marks_and_limits():
    sender, env, log = make_sender(duplication="selective",
                                   selective_first_n=2,
                                   on_us=50_000, off_mean_us=50_000)
    env.run_until(300_000)
    direct = env.on("s0>r0")
    dup = env.on("s0>dc1")
    assert len(direct) >= 10
    assert all(p.flags & FLAG_SELECTIVE_DUP for p in dup)
    dup_seqs = {p.seq for p in dup}
    flagged = {p.seq for p in direct if p.flags & FLAG_SELECTIVE_DUP}
    assert dup_seqs == flagged
    # exactly the first two packets of each burst are marked
    bursts = []
    last_t = None
    for p in direct:
        if last_t is None or p.send_ts_us - last_t > 10_000:
            bursts.append([])
        bursts[-1].append(p)
        last_t = p.send_ts_us
    for burst in bursts:
        assert all(p.flags & FLAG_SELECTIVE_DUP for p in burst[:2])
        assert not any(p.flags & FLAG_SELECTIVE_DUP for p in burst[2:])


def test_sender_stop_time():
    sender, env, log = make_sender(on_us=10_000_000, stop_us=35_000)
    env.run_until(1_000_000)
    assert [p.seq for p in env.on("s0>r0")] == [0, 1, 2, 3]


# -- receiver -----------------------------------------------------------------


DET = DetectorConfig(kind="two_state", small_timeout_us=25_000,
                     long_timeout_us=150_000, burst_factor=4.0,
                     nominal_gap_us=10_000, giveup_after=8)


def make_receiver(det=DET, **kw):
    defaults = dict(flow_id=0, direct_link="s0>r0",
                    dc2_data_link="r0>dc2", dc2_ctrl_link="r0>dc2:ctrl",
                    detector=det, reorder_grace_us=0,
                    renack_after_us=150_000, cache_packets=64,
                    cache_ttl_us=600_000)
    defaults.update(kw)
    log = RunLog()
    log.register_flow(0, 64)
    recv = Receiver("r0", ReceiverConfig(**defaults), log)
    env = StubEnv()
    env.attach(recv)
    return recv, env, log


def data(flow, seq, ts=0, size=64):
    return DataPacket(flow_id=flow, seq=seq, send_ts_us=ts,
                      payload=payload_bytes(flow, seq, size))


def deliver_direct(recv, env, flow, seq, t):
    env.now = t
    recv.on_message(data(flow, seq), f"s{flow}>r0")


def nacks_on(env):
    return [m for m in env.on("r0>dc2") if isinstance(m, Nack)]


def test_in_order_delivery_no_nacks():
    recv, env, log = make_receiver()
    for seq in range(5):
        deliver_direct(recv, env, 0, seq, seq * 10_000)
    assert log.deliveries[0] == [(s, s * 10_000, False) for s in range(5)]
    assert nacks_on(env) == []
    assert log.counters["nacks_sent"] == 0


def test_gap_nacks_missing_range():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 4, 40_000)
    sent = nacks_on(env)
    assert len(sent) == 1
    assert sent[0].entries == ((0, 1), (0, 2), (0, 3))
    assert log.counters["gap_nacks"] == 1


def test_reorder_grace_swallows_reordering():
    recv, env, log = make_receiver(reorder_grace_us=5_000)
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 2, 10_000)  # 1 is late, not lost
    deliver_direct(recv, env, 0, 1, 12_000)
    env.run_until(30_000)
    assert nacks_on(env) == []
    # a real hole still gets NACKed after the grace
    deliver_direct(recv, env, 0, 5, 40_000)
    env.run_until(46_000)
    sent = nacks_on(env)
    assert len(sent) == 1 and sent[0].entries == ((0, 3), (0, 4))


def test_burst_timer_fires_small_then_goes_idle():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 1, 10_000)
    env.run_until(10_000 + 25_000)
    sent = nacks_on(env)
    assert len(sent) == 1
    assert sent[0].entries == ((0, 2),)
    assert log.counters["timer_nacks"] == 1
    # next timer is the long one: nothing more for a while
    env.run_until(10_000 + 25_000 + 149_000)
    assert len(nacks_on(env)) == 1
    env.run_until(10_000 + 25_000 + 151_000)
    assert len(nacks_on(env)) == 2


def test_fixed_detector_keeps_firing_fast():
    det = DetectorConfig(kind="fixed_small", small_timeout_us=25_000,
                         long_timeout_us=150_000, giveup_after=8)
    recv, env, log = make_receiver(det=det, renack_after_us=0)
    deliver_direct(recv, env, 0, 0, 0)
    env.run_until(200_000)
    assert log.counters["timer_nacks"] == 8  # give-up cap, all 25ms apart


def test_giveup_parks_until_next_arrival():
    recv, env, log = make_receiver(renack_after_us=0,
                                   abandon_after_us=10_000_000)
    deliver_direct(recv, env, 0, 0, 0)
    env.run_until(3_000_000)
    timer_count = log.counters["timer_nacks"]
    assert timer_count == 8
    before = len(nacks_on(env))
    env.run_until(6_000_000)
    assert len(nacks_on(env)) == before  # parked
    deliver_direct(recv, env, 0, 1, 6_000_000)
    env.run_until(6_200_000)
    assert log.counters["timer_nacks"] > timer_count


def test_stale_hole_abandoned_and_frontier_slides():
    recv, env, log = make_receiver(abandon_after_us=100_000)
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 2, 10_000)   # NACK for 1
    deliver_direct(recv, env, 0, 3, 20_000)
    deliver_direct(recv, env, 0, 4, 30_000)
    assert [m.entries for m in nacks_on(env)] == [((0, 1),)]
    # past the horizon the hole stops being chased and stops
    # blocking the frontier
    deliver_direct(recv, env, 0, 5, 120_000)
    assert [m.entries for m in nacks_on(env)] == [((0, 1),)]
    assert log.counters["abandoned_holes"] == 1
    assert recv.frontier == 6
    # fresh holes are still reported
    deliver_direct(recv, env, 0, 7, 130_000)
    assert nacks_on(env)[-1].entries == ((0, 6),)


def test_renack_window_suppresses_repeats():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 2, 10_000)  # NACK for 1
    deliver_direct(recv, env, 0, 4, 20_000)  # NACK for 3 only: 1 is fresh
    sent = nacks_on(env)
    assert [m.entries for m in sent] == [((0, 1),), ((0, 3),)]
    # after the window expires the still-missing seq is NACKed again
    env.now = 200_000
    recv.on_message(data(0, 6), "s0>r0")
    entries = [e for m in nacks_on(env)[2:] for e in m.entries]
    assert (0, 1) in entries and (0, 5) in entries


def test_recovered_delivery_marked_and_no_ack():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    env.now = 20_000
    recv.on_message(data(0, 1), "dc2>r0")
    assert log.deliveries[0][-1] == (1, 20_000, True)
    assert not any(isinstance(m, Ack) for m in env.on("r0>dc2"))


def test_ack_sent_on_direct_arrival_after_nacks():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 2, 10_000)
    assert log.counters["nacks_sent"] == 1
    deliver_direct(recv, env, 0, 3, 20_000)
    acks = [m for m in env.on("r0>dc2") if isinstance(m, Ack)]
    assert len(acks) == 1 and acks[0].flow_id == 0
    # streak reset: further direct arrivals stay silent
    deliver_direct(recv, env, 0, 4, 30_000)
    assert len([m for m in env.on("r0>dc2") if isinstance(m, Ack)]) == 1


def test_duplicate_arrivals_counted_once():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 0, 5_000)
    env.now = 6_000
    recv.on_message(data(0, 0), "dc2>r0")
    assert len(log.deliveries[0]) == 1
    assert log.counters["dup_arrivals"] == 2


def test_corrupt_payload_raises():
    recv, env, log = make_receiver()
    bad = DataPacket(flow_id=0, seq=0, send_ts_us=0, payload=b"\x00" * 64)
    with pytest.raises(RuntimeError):
        recv.on_message(bad, "s0>r0")


def test_coop_request_served_from_cache():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    env.now = 1_000
    recv.on_message(CoopRequest(entries=((0, 0), (0, 9))), "dc2>r0")
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    # the cached entry answers at once; seq 9 is newer than anything seen,
    # so the answer is held in case the packet is merely still in flight
    assert len(resps) == 1
    assert resps[0].entry == (0, 0)
    assert resps[0].payload == payload_bytes(0, 0, 64)
    assert log.counters["coop_resps_pos"] == 1
    assert log.counters["coop_resps_neg"] == 0
    env.run_until(1_000 + 9 * 10_000 + DET.small_timeout_us)
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert len(resps) == 2
    assert resps[1].entry == (0, 9) and resps[1].payload is None
    assert log.counters["coop_resps_neg"] == 1


def test_coop_request_ahead_of_direct_path_waits_for_arrival():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    env.now = 1_000
    recv.on_message(CoopRequest(entries=((0, 1),)), "dc2>r0")
    assert [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)] == []
    deliver_direct(recv, env, 0, 1, 5_000)
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert len(resps) == 1
    assert resps[0].entry == (0, 1)
    assert resps[0].payload == payload_bytes(0, 1, 64)
    assert log.counters["coop_resps_pos"] == 1
    # the hold timer finds nothing left to answer
    env.run_until(500_000)
    assert log.counters["coop_resps_neg"] == 0


def test_straggler_delays_responses():
    recv, env, log = make_receiver(straggler_delay_us=400_000)
    deliver_direct(recv, env, 0, 0, 0)
    recv.on_message(CoopRequest(entries=((0, 0),)), "dc2>r0")
    assert not [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    env.run_until(400_001)
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert len(resps) == 1 and resps[0].payload is not None


def test_cache_eviction_turns_answers_negative():
    recv, env, log = make_receiver(cache_packets=4)
    for seq in range(8):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(CoopRequest(entries=((0, 0), (0, 7))), "dc2>r0")
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert resps[0].payload is None      # evicted
    assert resps[1].payload is not None  # still cached


def test_confirm_query_answers():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 3, 10_000)
    # seq 1 missing and later data arrived: a real loss
    recv.on_message(Ctrl(kind=CTRL_CONFIRM_QUERY, flow_id=0, seq=1), "dc2>r0:ctrl")
    # seq 0 was delivered: not a loss
    recv.on_message(Ctrl(kind=CTRL_CONFIRM_QUERY, flow_id=0, seq=0), "dc2>r0:ctrl")
    # seq 9 missing but nothing beyond it ever arrived: flow likely ended
    recv.on_message(Ctrl(kind=CTRL_CONFIRM_QUERY, flow_id=0, seq=9), "dc2>r0:ctrl")
    resps = [m for m in env.on("r0>dc2:ctrl")
             if isinstance(m, Ctrl) and m.kind == CTRL_CONFIRM_RESP]
    assert [(m.seq, m.arg) for m in resps] == [(1, 1), (0, 0), (9, 0)]
    assert recv.parked  # end-of-flow answer parks the detector
    assert log.counters["confirm_yes"] == 1
    assert log.counters["confirm_no"] == 2


def test_in_stream_parity_completes_block():
    recv, env, log = make_receiver()
    size = 64
    syms = [SourceSymbol(0, s, payload_bytes(0, s, size)) for s in range(5)]
    parity = [coded_from_parity(p, cross=False)
              for p in encode_batch(11, syms, 1)]
    for seq in (0, 1, 3, 4):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    env.now = 30_000
    recv.on_message(parity[0], "dc2>r0")
    delivered = dict((s, (t, r)) for s, t, r in log.deliveries[0])
    assert delivered[2] == (30_000, True)
    assert recv.frontier == 5


def test_parity_for_complete_block_discarded():
    recv, env, log = make_receiver()
    syms = [SourceSymbol(0, s, payload_bytes(0, s, 64)) for s in range(5)]
    parity = [coded_from_parity(p, cross=False)
              for p in encode_batch(11, syms, 1)]
    for seq in range(5):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(parity[0], "dc2>r0")
    assert log.counters["discarded_parity"] == 1
    assert not recv.held


def test_insufficient_parity_held_until_data_arrives():
    recv, env, log = make_receiver()
    syms = [SourceSymbol(0, s, payload_bytes(0, s, 64)) for s in range(5)]
    parity = [coded_from_parity(p, cross=False)
              for p in encode_batch(11, syms, 1)]
    for seq in (0, 1, 2):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(parity[0], "dc2>r0")  # two missing, one parity: hold
    assert 11 in recv.held
    # one of the missing two shows up recovered; block now decodable
    env.now = 40_000
    recv.on_message(data(0, 3), "dc2>r0")
    delivered = {s for s, _, _ in log.deliveries[0]}
    assert delivered == {0, 1, 2, 3, 4}


def in_block(batch_id, seqs, num_parity=1):
    syms = [SourceSymbol(0, s, payload_bytes(0, s, 64)) for s in seqs]
    return [coded_from_parity(p, cross=False)
            for p in encode_batch(batch_id, syms, num_parity)]


def test_runaway_gap_slides_frontier(monkeypatch):
    monkeypatch.setattr(endpoint, "MAX_TRACKED_GAP", 16)
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    peak = 0
    for seq in range(2, 19):  # seq 1 never comes
        deliver_direct(recv, env, 0, seq, seq * 1_000)
        peak = max(peak, len(recv.beyond))
    assert peak == 16
    # the hole at 1 is forgotten, everything that arrived is behind the frontier
    assert recv.frontier == 19 and not recv.beyond
    deliver_direct(recv, env, 0, 1, 20_000)
    assert log.counters["dup_arrivals"] == 1


def test_nack_bookkeeping_pruned_below_frontier(monkeypatch):
    monkeypatch.setattr(endpoint, "MAX_TRACKED_GAP", 8)
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    peak = 0
    for i in range(40):
        # every other packet is lost, NACKed and then repaired
        deliver_direct(recv, env, 0, 2 * i + 2, (2 * i + 2) * 1_000)
        peak = max(peak, len(recv.nacked_at), len(recv.first_nacked))
        env.now += 500
        recv.on_message(data(0, 2 * i + 1), "dc2>r0")
    assert log.counters["gap_nacks"] == 40
    assert recv.frontier == 81
    assert peak == 4 * 8


def test_held_blocks_capped_oldest_first():
    recv, env, log = make_receiver()
    blocks = MAX_HELD_BLOCKS + 8
    peak = 0
    for b in range(blocks):
        # two members missing, one parity: every block waits
        recv.on_message(in_block(b, (10 * b + 1, 10 * b + 2))[0], "dc2>r0")
        peak = max(peak, len(recv.held))
    assert peak == MAX_HELD_BLOCKS
    assert list(recv.held) == list(range(8, blocks))


def test_retry_skips_block_removed_by_nested_retry():
    # hand-built overlapping blocks (the ingress never builds these):
    # seq 1 lets block 20 decode seq 2, whose delivery completes block
    # 21 inside the nested retry before the outer loop reaches it
    recv, env, log = make_receiver()
    for seq in (0, 3):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(in_block(20, (1, 2))[0], "dc2>r0")
    recv.on_message(in_block(21, (1, 2, 3))[0], "dc2>r0")
    assert list(recv.held) == [20, 21]
    deliver_direct(recv, env, 0, 1, 10_000)
    assert not recv.held
    assert log.counters["discarded_parity"] == 1
    assert [(s, r) for s, _, r in log.deliveries[0]] == [
        (0, False), (3, False), (1, False), (2, True)]
