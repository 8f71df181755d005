"""Recovery-engine behavior: task lifecycle, cheapest-path choice,
boundary confirmation, proactive mode."""

import pytest

from _stub import StubEnv
from caspr.codec import SourceSymbol, encode_batch
from caspr.egress import EgressConfig, EgressRecovery
from caspr.endpoint import payload_bytes
from caspr.metrics import RunLog
from caspr.wire import (
    Ack,
    CTRL_CONFIRM_QUERY,
    CTRL_CONFIRM_RESP,
    CodedPacket,
    CoopRequest,
    CoopResponse,
    Ctrl,
    DataPacket,
    Nack,
    coded_from_parity,
)

RTT = 150_000
CFG = EgressConfig(deadline_us=RTT, boundary_wait_us=75_000,
                   store_ttl_us=4 * RTT, proactive_after=3)


def make_engine(n_receivers=4, config=CFG):
    log = RunLog()
    eng = EgressRecovery("dc2", config, log)
    env = StubEnv()
    env.attach(eng)
    for i in range(n_receivers):
        eng.register_receiver(f"r{i}", i, data_link=f"dc2>r{i}",
                              ctrl_link=f"dc2>r{i}:ctrl")
    return eng, env, log


def cross_parities(batch_id, flows, seq=0, num_parity=2, size=32):
    syms = [SourceSymbol(f, seq, payload_bytes(f, seq, size)) for f in flows]
    return [coded_from_parity(p, cross=True)
            for p in encode_batch(batch_id, syms, num_parity)]


def in_parities(batch_id, flow, seqs, num_parity=1, size=32):
    syms = [SourceSymbol(flow, s, payload_bytes(flow, s, size)) for s in seqs]
    return [coded_from_parity(p, cross=False)
            for p in encode_batch(batch_id, syms, num_parity)]


def nack(flow, *seqs):
    return Nack(flow_id=flow, entries=tuple((flow, s) for s in seqs))


def test_nack_opens_task_and_fans_out_requests():
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3]):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    reqs = [(l, m) for l, m, _ in env.sent if isinstance(m, CoopRequest)]
    assert [l for l, _ in reqs] == ["dc2>r0", "dc2>r1", "dc2>r3"]
    assert all(m.entries == ((i, 0),) for (_, m), i in zip(reqs, [0, 1, 3]))
    assert log.counters["tasks_opened"] == 1
    assert log.counters["coop_reqs"] == 3


def test_responses_trigger_decode_and_targeted_send():
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3], num_parity=2):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    env.clear_sent()
    # three helpers answer; one positive response + 2 parity is already
    # enough once only two members stay unknown
    eng.on_message(CoopResponse(entry=(0, 0), payload=payload_bytes(0, 0, 32)),
                   "r0>dc2")
    eng.on_message(CoopResponse(entry=(1, 0), payload=payload_bytes(1, 0, 32)),
                   "r1>dc2")
    datas = [(l, m) for l, m, _ in env.sent if isinstance(m, DataPacket)]
    assert datas == [("dc2>r2", datas[0][1])]
    assert datas[0][1].flow_id == 2 and datas[0][1].seq == 0
    assert datas[0][1].payload == payload_bytes(2, 0, 32)
    assert log.counters["tasks_decoded"] == 1
    # the other unknown member (flow 3) was decoded but never sent
    assert not any(m.flow_id == 3 for _, m in datas)


def test_second_nack_served_from_decode_cache():
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3], num_parity=2):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    for f in (0, 1):
        eng.on_message(CoopResponse(entry=(f, 0), payload=payload_bytes(f, 0, 32)),
                       "helpers")
    env.clear_sent()
    eng.on_message(nack(3, 0), "r3>dc2")
    datas = [(l, m) for l, m, _ in env.sent if isinstance(m, DataPacket)]
    assert [l for l, _ in datas] == ["dc2>r3"]
    assert log.counters["cache_resends"] == 1
    assert log.counters["tasks_opened"] == 1  # no second task


def test_in_stream_forwarding_exactly_needed():
    eng, env, log = make_engine(n_receivers=1)
    parities = in_parities(5, 0, range(5), num_parity=2)
    for p in parities:
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(0, 2), "r0>dc2")
    sent = [m for l, m, _ in env.sent if isinstance(m, CodedPacket)]
    assert len(sent) == 1 and sent[0].parity_index == 0
    # a second loss in the same block pulls exactly one more symbol
    eng.on_message(nack(0, 4), "r0>dc2")
    sent = [m for l, m, _ in env.sent if isinstance(m, CodedPacket)]
    assert len(sent) == 2
    assert log.counters["in_forwards"] == 2
    assert log.counters["tasks_opened"] == 0


def test_in_stream_shortfall_falls_back_to_cross():
    eng, env, log = make_engine()
    for p in in_parities(5, 0, range(5), num_parity=1):
        eng.on_message(p, "dc1>dc2")
    for p in cross_parities(9, [0, 1, 2, 3], seq=2):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(0, 1), "r0>dc2")  # first loss: forwarded
    assert log.counters["in_forwards"] == 1
    eng.on_message(nack(0, 2), "r0>dc2")  # second loss: 1 parity < 2 lost
    assert log.counters["in_forwards"] == 1
    assert log.counters["tasks_opened"] == 1
    reqs = [m for _, m, _ in env.sent if isinstance(m, CoopRequest)]
    assert len(reqs) == 3


def test_task_deadline_fails_silent_and_drops_late_responses():
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3], num_parity=1):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    env.run_until(RTT + 1)
    assert log.counters["failed_silent"] == 1
    env.clear_sent()
    eng.on_message(CoopResponse(entry=(0, 0), payload=payload_bytes(0, 0, 32)),
                   "r0>dc2")
    eng.on_message(CoopResponse(entry=(1, 0), payload=payload_bytes(1, 0, 32)),
                   "r1>dc2")
    eng.on_message(CoopResponse(entry=(3, 0), payload=payload_bytes(3, 0, 32)),
                   "r3>dc2")
    assert not any(isinstance(m, DataPacket) for _, m, _ in env.sent)
    assert log.counters["late_resps"] == 3


def test_negative_responses_block_decode_until_parity_suffices():
    eng, env, log = make_engine()
    both = cross_parities(7, [0, 1, 2, 3], num_parity=2)
    eng.on_message(both[0], "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    eng.on_message(CoopResponse(entry=(0, 0), payload=None), "r0>dc2")
    eng.on_message(CoopResponse(entry=(1, 0), payload=payload_bytes(1, 0, 32)),
                   "r1>dc2")
    eng.on_message(CoopResponse(entry=(3, 0), payload=payload_bytes(3, 0, 32)),
                   "r3>dc2")
    # helper 0 lost its packet too: two unknowns, one parity, no decode
    assert log.counters["tasks_decoded"] == 0
    eng.on_message(both[1], "dc1>dc2")
    assert log.counters["tasks_decoded"] == 1
    datas = [(l, m) for l, m, _ in env.sent if isinstance(m, DataPacket)]
    assert [(l, m.flow_id) for l, m in datas] == [("dc2>r2", 2)]


def test_uncovered_nack_waits_then_queries_receiver():
    eng, env, log = make_engine()
    eng.on_message(nack(1, 5), "r1>dc2")
    assert not env.sent  # nothing to do yet, parity may be in flight
    env.run_until(CFG.boundary_wait_us)
    queries = [(l, m) for l, m, _ in env.sent
               if isinstance(m, Ctrl) and m.kind == CTRL_CONFIRM_QUERY]
    assert [(l, m.flow_id, m.seq) for l, m in queries] == [("dc2>r1:ctrl", 1, 5)]
    # receiver says the packet was never sent: entry is dropped quietly
    eng.on_message(Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=1, seq=5, arg=0),
                   "r1>dc2:ctrl")
    env.run_until(RTT + 1)
    assert log.counters["suppressed"] == 1
    assert log.counters["failed_silent"] == 0


def test_unanswered_orphan_fails_silent():
    eng, env, log = make_engine()
    eng.on_message(nack(1, 5), "r1>dc2")
    env.run_until(RTT + 1)
    assert log.counters["failed_silent"] == 1
    assert log.counters["confirm_queries"] == 1


def test_confirmed_real_loss_keeps_waiting_for_parity():
    eng, env, log = make_engine()
    eng.on_message(nack(1, 5), "r1>dc2")
    env.run_until(CFG.boundary_wait_us)
    eng.on_message(Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=1, seq=5, arg=1),
                   "r1>dc2:ctrl")
    assert eng.orphans[(1, 5)].confirmed is True
    # parity shows up late but before the deadline: recovery starts
    for p in cross_parities(3, [0, 1, 2, 3], seq=5):
        eng.on_message(p, "dc1>dc2")
    assert log.counters["tasks_opened"] == 1
    env.run_until(RTT + 1)
    assert log.counters["failed_silent"] == 0  # task itself may still run


def test_parity_arrival_resolves_orphan_before_boundary():
    eng, env, log = make_engine()
    eng.on_message(nack(2, 0), "r2>dc2")
    for p in cross_parities(7, [0, 1, 2, 3]):
        eng.on_message(p, "dc1>dc2")
    assert log.counters["tasks_opened"] == 1
    env.run_until(RTT + 1)
    assert log.counters["confirm_queries"] == 0


def test_proactive_mode_after_three_unacked_nacks():
    eng, env, log = make_engine()
    for seq in (10, 11, 12):
        eng.on_message(nack(2, seq), "r2>dc2")
    env.clear_sent()
    for p in cross_parities(20, [0, 1, 2, 3], seq=13):
        eng.on_message(p, "dc1>dc2")
    # no NACK for seq 13, yet recovery starts for receiver r2's entry
    assert log.counters["proactive_entries"] == 1
    assert any(isinstance(m, CoopRequest) for _, m, _ in env.sent)
    # an ACK flips it back off
    eng.on_message(Ack(flow_id=2, cum_seq=13), "r2>dc2")
    env.clear_sent()
    for p in cross_parities(21, [0, 1, 2, 3], seq=14):
        eng.on_message(p, "dc1>dc2")
    assert log.counters["proactive_entries"] == 1
    assert not env.sent


def test_proactive_flip_sweeps_already_stored_parity():
    eng, env, log = make_engine()
    for p in cross_parities(9, [0, 1, 2, 3], seq=40):
        eng.on_message(p, "dc1>dc2")
    env.clear_sent()
    # three NACKs for entries nothing covers still flip r2 proactive,
    # and the flip must reach back into parity stored before it
    for _ in range(3):
        eng.on_message(nack(2, 100), "r2>dc2")
    assert log.counters["proactive_entries"] == 1
    reqs = [(l, m) for l, m, _ in env.sent if isinstance(m, CoopRequest)]
    assert [l for l, _ in reqs] == ["dc2>r0", "dc2>r1", "dc2>r3"]
    assert all(m.entries == ((i, 40),) for (_, m), i in zip(reqs, [0, 1, 3]))


def test_store_ttl_evicts_batches():
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3]):
        eng.on_message(p, "dc1>dc2")
    assert 7 in eng.store
    env.run_until(CFG.store_ttl_us + 1)
    assert 7 not in eng.store
    assert eng.by_entry == {}
    # a NACK afterwards walks the orphan path
    eng.on_message(nack(2, 0), "r2>dc2")
    assert (2, 0) in eng.orphans


def test_duplicate_parity_index_ignored():
    eng, env, log = make_engine()
    p = cross_parities(7, [0, 1, 2, 3])[0]
    eng.on_message(p, "dc1>dc2")
    eng.on_message(p, "dc1>dc2")
    assert len(eng.store[7].parity) == 1


def test_unknown_flow_nack_ignored():
    eng, env, log = make_engine(n_receivers=2)
    eng.on_message(nack(9, 0), "x")
    assert not env.sent and not eng.orphans


def test_duplicate_receiver_registration_rejected():
    eng, env, log = make_engine(n_receivers=1)
    with pytest.raises(ValueError):
        eng.register_receiver("r0", 5, "a", "b")
    with pytest.raises(ValueError):
        eng.register_receiver("r9", 0, "a", "b")


def test_in_stream_parity_arriving_after_nack_is_forwarded():
    # parity_in 2: the first symbol covers the first loss at once; the
    # second loss waits for the second symbol and leaves with it
    eng, env, log = make_engine(n_receivers=1)
    first, second = in_parities(5, 0, range(5), num_parity=2)
    eng.on_message(first, "dc1>dc2")
    eng.on_message(nack(0, 1, 3), "r0>dc2")
    assert [m.parity_index for m in env.on("dc2>r0")] == [0]
    eng.on_message(second, "dc1>dc2")
    assert [m.parity_index for m in env.on("dc2>r0")] == [0, 1]
    assert log.counters["in_forwards"] == 2


def test_in_stream_forwarding_waits_while_losses_outnumber_parity():
    # three losses, two symbols: the second symbol alone cannot repair
    # the two losses the first one left, so it stays in the store
    eng, env, log = make_engine(n_receivers=1)
    first, second = in_parities(5, 0, range(5), num_parity=2)
    eng.on_message(first, "dc1>dc2")
    eng.on_message(nack(0, 1, 2, 3), "r0>dc2")
    eng.on_message(second, "dc1>dc2")
    assert [m.parity_index for m in env.on("dc2>r0")] == [0]
    assert log.counters["in_forwards"] == 1
    assert eng.store[5].forwarded == {0}


def test_parity_after_decode_is_not_decoded_again():
    eng, env, log = make_engine()
    first, second = cross_parities(7, [0, 1, 2, 3], num_parity=2)
    eng.on_message(first, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    for f in (0, 1, 3):
        eng.on_message(CoopResponse(entry=(f, 0), payload=payload_bytes(f, 0, 32)),
                       f"r{f}>dc2")
    assert log.counters["tasks_decoded"] == 1
    eng.on_message(second, "dc1>dc2")
    assert log.counters["tasks_decoded"] == 1
    datas = [m for m in env.on("dc2>r2") if isinstance(m, DataPacket)]
    assert [(m.flow_id, m.seq) for m in datas] == [(2, 0)]


@pytest.mark.parametrize("deadline_us", [RTT, 8 * RTT])
def test_unrecovered_entry_fails_silent_once(deadline_us):
    # whichever of the task deadline and the store TTL comes first ends
    # the task; the later one finds nothing left to count
    config = EgressConfig(deadline_us=deadline_us, boundary_wait_us=75_000,
                          store_ttl_us=4 * RTT, proactive_after=3)
    eng, env, log = make_engine(config=config)
    for p in cross_parities(7, [0, 1, 2, 3], num_parity=1):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    env.run_until(min(deadline_us, 4 * RTT) + 1)
    assert log.counters["failed_silent"] == 1
    env.run_until(8 * RTT + 1)
    assert 7 not in eng.store
    assert log.counters["failed_silent"] == 1
