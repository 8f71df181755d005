"""Sender pacing and duplication, receiver detection and serving."""

import statistics
from types import MethodType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _stub import StubEnv, tap_deliveries, unit_scenario
from caspr import endpoint, runner, scenario
from caspr.codec import encode_batch
from caspr.endpoint import (
    MAX_HELD_BLOCKS,
    Receiver,
    Sender,
    payload_bytes,
)
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
)
from caspr.metrics import RunLog


def test_payload_bytes_shape():
    assert payload_bytes(1, 2, 0) == b""
    assert len(payload_bytes(1, 2, 7)) == 7
    assert len(payload_bytes(1, 2, 1200)) == 1200
    assert payload_bytes(1, 2, 64) == payload_bytes(1, 2, 64)
    assert payload_bytes(1, 2, 64) != payload_bytes(1, 3, 64)
    assert payload_bytes(1, 2, 64) != payload_bytes(2, 2, 64)


def written_out_payload(flow, seq, size):
    """The body built step by step: a head of two 8-byte big-endian
    fields, then the byte ramp from an offset set by flow and seq."""
    if size <= 0:
        return b""
    head = flow.to_bytes(8, "big") + seq.to_bytes(8, "big")
    if size <= 16:
        return head[:size]
    off = (flow * 131 + seq * 17) % 256
    return head + (bytes(range(256)) * 257)[off:off + size - 16]


def test_payload_bytes_matches_the_written_out_build(monkeypatch):
    # a fresh table, so the 16 MB one for 65,503 B goes with the test
    monkeypatch.setattr(endpoint, "_BODIES", {})
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1), (3, 77), (7, 2**40 - 1),
             (2**40, 2**40 + 1), (2**40 + 3, 0)]
    for size in [*range(18), 199, 200, 201, 1_199, 1_200, 1_201, 65_503]:
        for flow, seq in pairs:
            body = payload_bytes(flow, seq, size)
            assert type(body) is bytes and len(body) == size, (flow, seq, size)
            assert body == written_out_payload(flow, seq, size), (flow, seq, size)


# -- sender -------------------------------------------------------------------


def make_sender(*sets):
    """Flow 0's sender over unit_scenario(*sets): 64 B every 10 ms in
    50 ms bursts, full duplication, stopping at 10**12 us."""
    sender = Sender(0, unit_scenario(*sets))
    env = StubEnv()
    env.attach(sender)
    env.schedule(sender.start_us, ("burst",))
    return sender, env


def test_cbr_full_duplication():
    sender, env = make_sender()
    env.run_until(49_999)
    direct = env.on("s0>r0")
    dup = env.on("s0>dc1")
    assert [p.seq for p in direct] == list(range(5))
    assert [p.send_ts_us for p in direct] == [0, 10_000, 20_000, 30_000, 40_000]
    assert dup == direct
    assert all(p.payload == payload_bytes(0, p.seq, 64) for p in direct)
    assert [(p.seq, t) for link, p, t in env.sent if link == "s0>r0"] == [
        (s, s * 10_000) for s in range(5)]
    assert len(env.on("s0>r0")) == 5


def test_seq_continues_across_bursts():
    sender, env = make_sender("flows.on_s=0.03", "flows.off_mean_s=0.1")
    env.run_until(2_000_000)
    seqs = [p.seq for p in env.on("s0>r0")]
    assert seqs == list(range(len(seqs)))
    assert len(seqs) > 6  # several bursts happened
    ts = [p.send_ts_us for p in env.on("s0>r0")]
    # bursts are separated by more than the base interval
    assert max(b - a for a, b in zip(ts, ts[1:])) > 10_000


def test_selective_duplication_marks_and_limits():
    sender, env = make_sender("flows.duplication=selective",
                                   "flows.selective_first_n=2",
                                   "flows.off_mean_s=0.05")
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
    sender, env = make_sender("flows.on_s=10")
    sender.stop_us = 35_000  # inside the first burst, unlike any valid scenario
    env.run_until(1_000_000)
    assert [p.seq for p in env.on("s0>r0")] == [0, 1, 2, 3]


def test_nodes_name_themselves_and_their_links_by_flow():
    cfg = unit_scenario("flows.count=4", "flows.stagger_ms=2")
    sender = Sender(3, cfg)
    assert (sender.name, sender.direct_link, sender.dup_link) == ("s3", "s3>r3", "s3>dc1")
    assert sender.start_us == 6_000  # three 2 ms staggers
    recv = Receiver(3, cfg, RunLog(4))
    assert (recv.name, recv.direct_link, recv.data_link, recv.ctrl_link) == (
        "r3", "s3>r3", "r3>dc2", "r3>dc2:ctrl")


# -- receiver -----------------------------------------------------------------


def test_only_the_straggler_receiver_holds_its_responses():
    cfg = unit_scenario("flows.count=3", "straggler={receiver: 1, delay_ms: 400}")
    delays = [Receiver(i, cfg, RunLog(3)).straggler_delay_us for i in range(3)]
    assert delays == [0, 400_000, 0]


def make_receiver(*sets):
    """Flow 0's receiver over unit_scenario(*sets): two-state detector
    with a 150 ms idle timeout and a 10 ms nominal gap, no reorder
    grace, a 150 ms re-NACK window, a 600 ms horizon, no straggler.
    log holds its run log's counters, and its first deliveries as
    ``deliveries[0]`` rows of (seq, ts, recovered)."""
    cfg = unit_scenario(*sets)
    run_log = RunLog(cfg.flows.count)
    recv = Receiver(0, cfg, run_log)
    log = SimpleNamespace(counters=run_log.counters, deliveries={0: []})
    recv._on_data = MethodType(tap_deliveries(Receiver._on_data, log.deliveries), recv)
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
    recv, env, log = make_receiver("topology.direct.jitter_ms=2.5")  # 5 ms grace
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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 150_000), max_size=endpoint.GAP_WINDOW))
def test_gap_estimate_is_the_median_of_the_window(gaps):
    # written out to skip statistics.median's per-call overhead; the
    # value must stay the same, odd and even windows alike
    recv, _, _ = make_receiver()
    recv.gaps.extend(gaps)
    want = statistics.median(gaps) if gaps else 10_000  # the flow's interval
    got = recv._gap_estimate()
    assert got == want and type(got) is type(want)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["two_state", "fixed_small"]),
       st.lists(st.integers(1, 400_000), min_size=1, max_size=60))
def test_detector_mode_follows_the_burst_rule_on_every_arrival(kind, gaps):
    # a reference detector that recomputes the burst threshold, as
    # statistics.median of the window, on every arrival; long gaps let
    # det timers fire, drop it to idle and, for fixed_small, park it
    recv, env, _ = make_receiver(f"detector.kind={kind}")
    small, long, nominal = endpoint.SMALL_TIMEOUT_US, 150_000, 10_000
    mode, window, last, unanswered, due = endpoint.IDLE_STATE, [], None, 0, None

    def timeout():
        return small if kind == "fixed_small" or mode == endpoint.BURST else long

    t = 0
    for seq, gap in enumerate(gaps):
        t += gap
        while due is not None and due <= t:
            mode = endpoint.IDLE_STATE
            unanswered += 1
            due = due + timeout() if unanswered < endpoint.GIVEUP_AFTER else None
        env.run_until(t)
        deliver_direct(recv, env, 0, seq, t)
        if last is None:
            mode = endpoint.BURST
        else:
            if t - last < long:
                window = (window + [t - last])[-endpoint.GAP_WINDOW:]
            median = statistics.median(window) if window else nominal
            if t - last < endpoint.BURST_FACTOR * median:
                mode = endpoint.BURST
        last, unanswered, due = t, 0, t + timeout()
        assert recv.mode == mode
        assert list(recv.gaps) == window
        armed = [at for at, tok in env.pending() if tok == ("det", recv.timer_gen)]
        assert armed == [due]


def test_skype_computes_the_burst_threshold_only_for_idle_arrivals(monkeypatch):
    # a detector already in a burst stays there whatever the gap, so the
    # median of its window is due only when an arrival finds it idle, not
    # once per packet
    threshold, note = Receiver._burst_threshold, Receiver._note_arrival
    computed, idle_arrivals = [], []

    def counted_threshold(self):
        computed.append(self.flow_id)
        return threshold(self)

    def counted_note(self, now):
        if self.mode != endpoint.BURST:
            idle_arrivals.append(now)
        note(self, now)

    monkeypatch.setattr(Receiver, "_burst_threshold", counted_threshold)
    monkeypatch.setattr(Receiver, "_note_arrival", counted_note)
    cfg = scenario.load(scenario.bundled_path("skype_analog"),
                        ["duration_s=5", "cooldown_s=1"])
    assert runner.run_seed(cfg, 5).sent > 1000
    assert idle_arrivals
    assert len(computed) <= len(idle_arrivals)


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
    recv, env, log = make_receiver("detector.kind=fixed_small")
    recv.renack_after_us = 0
    deliver_direct(recv, env, 0, 0, 0)
    env.run_until(200_000)
    assert log.counters["timer_nacks"] == 8  # give-up cap, all 25ms apart


def test_giveup_parks_until_next_arrival():
    recv, env, log = make_receiver()
    recv.renack_after_us = 0
    recv.horizon_us = 10_000_000
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
    recv, env, log = make_receiver()
    recv.horizon_us = 100_000
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


def test_ack_carries_the_frontier_the_receiver_still_owes():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 1, 10_000)  # seq 0 lost: gap NACK
    deliver_direct(recv, env, 0, 2, 20_000)  # direct path alive: ACK
    env.now = 30_000
    recv.on_message(data(0, 0), "dc2>r0")    # repaired: frontier 3
    deliver_direct(recv, env, 0, 5, 50_000)  # 3 and 4 lost: gap NACK
    deliver_direct(recv, env, 0, 6, 60_000)
    # nothing was delivered below the first ACK's frontier, so it must
    # not claim seq 0; the second settles everything below 3
    acks = [m for m in env.on("r0>dc2") if isinstance(m, Ack)]
    assert acks == [Ack(0, 0, 20_000), Ack(0, 3, 60_000)]


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
    env.run_until(1_000 + 9 * 10_000 + endpoint.SMALL_TIMEOUT_US)
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
    recv, env, log = make_receiver("straggler={receiver: 0, delay_ms: 400}")
    deliver_direct(recv, env, 0, 0, 0)
    recv.on_message(CoopRequest(entries=((0, 0),)), "dc2>r0")
    assert not [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    env.run_until(400_001)
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert len(resps) == 1 and resps[0].payload is not None


def test_cache_eviction_turns_answers_negative(monkeypatch):
    monkeypatch.setattr(endpoint, "CACHE_PACKETS", 4)
    recv, env, log = make_receiver()
    for seq in range(8):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(CoopRequest(entries=((0, 0), (0, 7))), "dc2>r0")
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert resps[0].payload is None      # evicted
    assert resps[1].payload is not None  # still cached


def test_cache_serves_up_to_its_ttl_and_evicts_past_it():
    recv, env, log = make_receiver()
    recv.horizon_us = 100_000
    deliver_direct(recv, env, 0, 0, 0)
    deliver_direct(recv, env, 0, 1, 1_000)
    # seq 0 is exactly horizon_us old: still served
    env.now = 100_000
    recv.on_message(CoopRequest(entries=((0, 0),)), "dc2>r0")
    resps = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert resps[0].payload == payload_bytes(0, 0, 64)
    # the next store comes when seq 0 is horizon_us + 1 old and seq 1
    # exactly horizon_us old: seq 0 goes, seq 1 stays
    deliver_direct(recv, env, 0, 2, 101_000)
    assert list(recv.cache) == [1, 2]


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
    syms = [DataPacket(0, s, 0, payload_bytes(0, s, size)) for s in range(5)]
    parity = encode_batch(11, syms, 1, False, 0)
    for seq in (0, 1, 3, 4):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    env.now = 30_000
    recv.on_message(parity[0], "dc2>r0")
    delivered = dict((s, (t, r)) for s, t, r in log.deliveries[0])
    assert delivered[2] == (30_000, True)
    assert recv.frontier == 5


def test_parity_for_complete_block_discarded():
    recv, env, log = make_receiver()
    syms = [DataPacket(0, s, 0, payload_bytes(0, s, 64)) for s in range(5)]
    parity = encode_batch(11, syms, 1, False, 0)
    for seq in range(5):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(parity[0], "dc2>r0")
    assert log.counters["discarded_parity"] == 1
    assert not recv.held


def test_insufficient_parity_held_until_data_arrives():
    recv, env, log = make_receiver()
    syms = [DataPacket(0, s, 0, payload_bytes(0, s, 64)) for s in range(5)]
    parity = encode_batch(11, syms, 1, False, 0)
    for seq in (0, 1, 2):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    recv.on_message(parity[0], "dc2>r0")  # two missing, one parity: hold
    assert 11 in recv.held
    # one of the missing two shows up recovered; block now decodable
    env.now = 40_000
    recv.on_message(data(0, 3), "dc2>r0")
    delivered = {s for s, _, _ in log.deliveries[0]}
    assert delivered == {0, 1, 2, 3, 4}


def test_cache_keeps_stamps_and_builds_payloads_only_to_serve(monkeypatch):
    recv, env, log = make_receiver()
    built, decoded_from = [], []
    monkeypatch.setattr(endpoint, "payload_bytes",
                        lambda *a: built.append(a) or payload_bytes(*a))
    decode = endpoint.decode_batch
    monkeypatch.setattr(endpoint, "decode_batch",
                        lambda present, parity: decoded_from.append(dict(present))
                        or decode(present, parity))
    for seq in (0, 1):
        deliver_direct(recv, env, 0, seq, seq * 1_000)
    assert dict(recv.cache) == {0: 0, 1: 1_000}
    # three of five members missing, one parity: held, and nothing built
    built.clear()
    env.now = 2_000
    recv.on_message(in_block(11, range(5))[0], "dc2>r0")
    assert 11 in recv.held and built == []
    # an arrival while the block is still short builds only its own check
    deliver_direct(recv, env, 0, 2, 3_000)
    assert 11 in recv.held and built == [(0, 2, 64)]
    # a cooperative answer is the rebuilt ground truth
    built.clear()
    env.now = 4_000
    recv.on_message(CoopRequest(entries=((0, 1),)), "dc2>r0")
    [resp] = [m for m in env.on("r0>dc2") if isinstance(m, CoopResponse)]
    assert resp.payload == payload_bytes(0, 1, 64) and built == [(0, 1, 64)]
    # seq 3 completes the block: its four cached members are rebuilt for
    # the decode, and the decoded seq 4 passes the delivery check
    deliver_direct(recv, env, 0, 3, 5_000)
    assert decoded_from == [{(0, s): payload_bytes(0, s, 64) for s in range(4)}]
    assert not recv.held and recv.frontier == 5
    assert log.deliveries[0][-1] == (4, 5_000, True)


def in_block(batch_id, seqs, num_parity=1):
    syms = [DataPacket(0, s, 0, payload_bytes(0, s, 64)) for s in seqs]
    return encode_batch(batch_id, syms, num_parity, False, 0)


def test_runaway_gap_slides_frontier(monkeypatch):
    monkeypatch.setattr(endpoint, "MAX_TRACKED_GAP", 16)
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    peak = 0
    for seq in range(2, 42, 2):  # every odd seq is lost: one hole per arrival
        deliver_direct(recv, env, 0, seq, seq * 1_000)
        peak = max(peak, len(recv.holes))
    assert peak == 16
    # the four oldest holes are forgotten; the oldest kept one is the frontier
    assert list(recv.holes) == list(range(9, 41, 2))
    assert recv.frontier == 9
    deliver_direct(recv, env, 0, 1, 50_000)
    assert log.counters["dup_arrivals"] == 1


def test_nack_bookkeeping_pruned_below_frontier():
    recv, env, log = make_receiver()
    deliver_direct(recv, env, 0, 0, 0)
    peak = 0
    for i in range(40):
        # every other packet is lost, NACKed and then repaired
        deliver_direct(recv, env, 0, 2 * i + 2, (2 * i + 2) * 1_000)
        peak = max(peak, len(recv.holes))
        env.now += 500
        recv.on_message(data(0, 2 * i + 1), "dc2>r0")
    assert log.counters["gap_nacks"] == 40
    assert recv.frontier == 81
    # a repaired hole takes its NACK times with it
    assert peak == 1 and not recv.holes


def test_standing_hole_is_one_entry_and_renacked_by_window():
    recv, env, log = make_receiver()
    recv.horizon_us = 10**9
    deliver_direct(recv, env, 0, 0, 0)
    peak = 0
    for seq in range(2, 4_002):  # seq 1 never comes
        deliver_direct(recv, env, 0, seq, seq * 1_000)
        peak = max(peak, len(recv.holes))
    assert peak == 1 and list(recv.holes) == [1]
    assert recv.frontier == 1 and recv.max_seen == 4_001
    # the hole is NACKed on its first sighting, then once per re-NACK window
    assert log.counters["gap_nacks"] == 27
    assert {m.entries for m in nacks_on(env)} == {((0, 1),)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["next", "jump", "hole", "old", "timer"]),
                          st.integers(0, 63), st.booleans(), st.integers(0, 40_000)),
                max_size=60))
def test_receiver_bookkeeping_matches_a_delivered_set_model(steps):
    # the reference keeps the delivered seqs as a set and derives the
    # holes from it on every step: everything from the frontier to
    # max_seen not yet delivered, plus a frontier past max_seen that a
    # timer NACK named.  Horizon abandonment is kept out, so the runaway
    # trim is the only way a hole is given up.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(endpoint, "MAX_TRACKED_GAP", 5)
        recv, env, log = make_receiver()
        recv.horizon_us = 10**12
        window = recv.renack_after_us
        delivered, nacked = [], {}  # delivery order; hole -> last NACK time
        frontier, max_seen, unanswered = 0, -1, 0

        def holes():
            gaps = [s for s in range(frontier, max_seen + 1) if s not in delivered]
            return gaps + sorted(s for s in nacked if s > max_seen and s >= frontier)

        t = 0
        for kind, n, recovered, dt in steps:
            t += dt
            env.now = t
            env.clear_sent()
            want = []
            if kind == "timer":
                recv.on_timer(("det", recv.timer_gen))
                if unanswered < endpoint.GIVEUP_AFTER:
                    unanswered += 1
                    nacked[frontier] = t
                    want.append((frontier,))
            else:
                hs = holes()
                seq = {"next": max_seen + 1, "jump": max_seen + 2 + n % 6,
                       "hole": hs[n % len(hs)] if hs else max_seen + 1,
                       "old": n % (max_seen + 2)}[kind]
                recv.on_message(data(0, seq), "dc2>r0" if recovered else "s0>r0")
                unanswered = 0
                if seq >= frontier and seq not in delivered:
                    delivered.append(seq)
                    if seq > max_seen:
                        max_seen = seq
                        excess = len(holes()) - endpoint.MAX_TRACKED_GAP
                        if excess > 0:
                            frontier = holes()[excess]
                    hs = holes()
                    frontier = hs[0] if hs else max(frontier, max_seen + 1)
                    todo = [s for s in hs
                            if s < seq and t - nacked.get(s, t - window) >= window]
                    for s in todo:
                        nacked[s] = t
                    if todo:
                        want.append(tuple(todo))
            assert (recv.frontier, recv.max_seen) == (frontier, max_seen)
            assert list(recv.holes) == holes()
            assert [m.entries for m in nacks_on(env)] == [
                tuple((0, s) for s in w) for w in want]
        assert [s for s, _, _ in log.deliveries[0]] == delivered


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
