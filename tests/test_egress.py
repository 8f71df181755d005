"""Recovery-engine behavior: task lifecycle, cheapest-path choice,
boundary confirmation, proactive mode."""

import pytest

from _stub import StubEnv, unit_scenario
from caspr.codec import encode_batch
from caspr.egress import EgressRecovery
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
)

RTT = 150_000


def make_engine(n_receivers=4, deadline_us=None):
    """DC2 over unit_scenario() with one flow per receiver: a one-RTT
    (150 ms) deadline, a 75 ms boundary wait and a 600 ms horizon, so a
    batch stored at time t expires at t + 600 ms.
    Claims are admitted with no wait for the direct path, which no valid
    scenario gives; a deadline_us other than the RTT is not one either."""
    cfg = unit_scenario(f"flows.count={n_receivers}")
    log = RunLog(n_receivers)
    eng = EgressRecovery(cfg, log)
    eng.claim_owd_us = 0
    if deadline_us is not None:
        eng.deadline_us = deadline_us
    env = StubEnv()
    env.attach(eng)
    return eng, env, log


def cross_parities(batch_id, flows, seq=0, num_parity=2, size=32, sent_us=0):
    """Parity of a cross batch whose members were all sent at 0 and which
    left DC1 at ``sent_us``."""
    syms = [DataPacket(f, seq, 0, payload_bytes(f, seq, size)) for f in flows]
    return encode_batch(batch_id, syms, num_parity, True, sent_us)


def in_parities(batch_id, flow, seqs, num_parity=1, size=32):
    syms = [DataPacket(flow, s, 0, payload_bytes(flow, s, size)) for s in seqs]
    return encode_batch(batch_id, syms, num_parity, False, 0)


def nack(flow, *seqs):
    return Nack(flow_id=flow, entries=tuple((flow, s) for s in seqs))


def test_coop_requests_leave_in_link_name_order_one_entry_each():
    eng, env, log = make_engine(n_receivers=12)
    for p in cross_parities(7, range(12), seq=3):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(5, 3), "r5>dc2")
    reqs = [(l, m) for l, m, _ in env.sent if isinstance(m, CoopRequest)]
    links = [f"dc2>r{i}" for i in range(12) if i != 5]
    # string order: dc2>r10 and dc2>r11 come before dc2>r2
    assert [l for l, _ in reqs] == sorted(links)
    assert [l for l, _ in reqs][:4] == ["dc2>r0", "dc2>r1", "dc2>r10", "dc2>r11"]
    assert [m.entries for l, m in reqs] == [((int(l[5:]), 3),) for l in sorted(links)]
    assert log.counters["coop_reqs"] == 11


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
    env.run_until(eng.boundary_wait_us)
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


def test_a_superseded_claims_timers_leave_the_next_claim_alone():
    # the receiver denies the first claim at 75 ms and claims the same
    # entry again at 100 ms: the first claim's orphan timer (150 ms)
    # must not end the second, whose own timers run 175 ms and 250 ms
    eng, env, log = make_engine()
    eng.on_message(nack(1, 5), "r1>dc2")
    env.run_until(eng.boundary_wait_us)
    eng.on_message(Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=1, seq=5, arg=0),
                   "r1>dc2:ctrl")
    assert log.counters["suppressed"] == 1 and eng.orphans == {}
    env.run_until(100_000)
    eng.on_message(nack(1, 5), "r1>dc2")
    env.run_until(RTT)
    assert (1, 5) in eng.orphans
    assert log.counters["failed_silent"] == 0
    env.run_until(175_000)
    queries = [m.send_ts_us for m in env.on("dc2>r1:ctrl")]
    assert queries == [75_000, 175_000]
    env.run_until(250_000 - 1)
    assert log.counters["failed_silent"] == 0
    env.run_until(250_000)
    assert log.counters["failed_silent"] == 1
    assert eng.orphans == {}


def test_confirmed_real_loss_keeps_waiting_for_parity():
    eng, env, log = make_engine()
    eng.on_message(nack(1, 5), "r1>dc2")
    env.run_until(eng.boundary_wait_us)
    eng.on_message(Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=1, seq=5, arg=1,
                        send_ts_us=eng.boundary_wait_us), "r1>dc2:ctrl")
    # the yes is one more claim, sent when the answer was
    assert eng.orphans[(1, 5)].claim_ts == eng.boundary_wait_us
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


def test_parity_that_cannot_vouch_for_a_claim_leaves_the_orphan_as_it_was():
    # the NACK left 10 ms after the packet was sent, inside the direct
    # path's 40 ms bound: parity covering it cannot vouch for the claim
    eng, env, log = make_engine()
    eng.claim_owd_us = 40_000
    env.run_until(10_000)
    eng.on_message(Nack(flow_id=2, entries=((2, 0),), send_ts_us=10_000), "r2>dc2")
    orphan = eng.orphans[(2, 0)]
    timers = env.pending()
    assert [tok[0] for _, tok in timers] == ["boundary", "orphan"]
    for p in cross_parities(7, [0, 1, 2, 3]):  # every member sent at 0
        eng.on_message(p, "dc1>dc2")
    assert eng.orphans == {(2, 0): orphan} and orphan.claim_ts == 10_000
    assert env.pending() == timers
    assert log.counters["tasks_opened"] == 0
    assert not env.sent
    # a receiver's yes for a hole nothing covers is a later claim on
    # the same orphan: it waits for parity, and DC2 sends nothing
    eng.on_message(nack(1, 5), "r1>dc2")
    orphan = eng.orphans[(1, 5)]
    timers = env.pending()
    eng.on_message(Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=1, seq=5, arg=1,
                        send_ts_us=10_000), "r1>dc2:ctrl")
    assert eng.orphans[(1, 5)] is orphan and orphan.claim_ts == 10_000
    assert env.pending() == timers
    assert not env.sent


def test_a_yes_inside_the_reordering_window_waits_for_a_later_nack():
    # a real loss whose yes left the receiver before the direct path's
    # 100 ms bound had passed: the yes cannot vouch for it, but the next
    # NACK, sent after the bound, must still open its repair
    eng, env, log = make_engine()
    eng.claim_owd_us = 100_000
    for p in cross_parities(7, [0, 1, 2, 3]):  # every member sent at 0
        eng.on_message(p, "dc1>dc2")
    env.run_until(10_000)
    eng.on_message(Nack(flow_id=2, entries=((2, 0),), send_ts_us=10_000), "r2>dc2")
    env.run_until(10_000 + eng.boundary_wait_us)
    assert [m.seq for m in env.on("dc2>r2:ctrl")] == [0]  # the confirm query
    env.run_until(90_000)
    eng.on_message(Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=2, seq=0, arg=1,
                        send_ts_us=90_000), "r2>dc2:ctrl")
    assert eng.orphans[(2, 0)].claim_ts == 90_000
    assert log.counters["tasks_opened"] == 0
    assert len(env.sent) == 1
    env.run_until(120_000)
    eng.on_message(Nack(flow_id=2, entries=((2, 0),), send_ts_us=120_000), "r2>dc2")
    assert eng.orphans == {}
    assert log.counters["tasks_opened"] == 1
    reqs = [l for l, m, _ in env.sent if isinstance(m, CoopRequest)]
    assert reqs == ["dc2>r0", "dc2>r1", "dc2>r3"]


def test_parity_that_left_dc1_after_a_credible_claim_vouches_for_it():
    # the packet was sent at 0 and the NACK at 50 ms, past the direct
    # path's 40 ms bound; DC1 sent the batch only at 60 ms, which says
    # nothing about whether the receiver could have had the packet
    eng, env, log = make_engine()
    eng.claim_owd_us = 40_000
    env.run_until(50_000)
    eng.on_message(Nack(flow_id=2, entries=((2, 0),), send_ts_us=50_000), "r2>dc2")
    assert eng.orphans[(2, 0)].claim_ts == 50_000
    env.run_until(80_000)
    for p in cross_parities(7, [0, 1, 2, 3], sent_us=60_000):
        eng.on_message(p, "dc1>dc2")
    assert eng.orphans == {}
    assert log.counters["tasks_opened"] == 1


def test_ack_retracts_only_the_claims_below_the_receivers_frontier():
    eng, env, log = make_engine()
    eng.on_message(nack(2, 0), "r2>dc2")
    eng.on_message(nack(2, 5), "r2>dc2")
    # a receiver that lost seq 0 ACKs with frontier 0 once the direct
    # path delivers again: that settles no claim
    eng.on_message(Ack(2, 0), "r2>dc2")
    assert set(eng.orphans) == {(2, 0), (2, 5)}
    assert log.counters["claims_retracted"] == 0
    eng.on_message(Ack(2, 5), "r2>dc2")
    assert set(eng.orphans) == {(2, 5)}
    assert log.counters["claims_retracted"] == 1


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
    eng.on_message(Ack(flow_id=2, frontier=14), "r2>dc2")
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
    # a stored batch arms no timer: DC2's first message past its expiry
    # takes it out of the store
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3]):
        eng.on_message(p, "dc1>dc2")
    assert 7 in eng.store
    assert env.pending() == []
    env.run_until(eng.horizon_us + 1)
    # a NACK afterwards finds no coverage and walks the orphan path
    eng.on_message(nack(2, 0), "r2>dc2")
    assert 7 not in eng.store
    assert eng.cross_of == {} and eng.in_of == {}
    assert (2, 0) in eng.orphans


@pytest.mark.parametrize("offset, covered", [(-1, True), (0, False)])
def test_batch_covers_nacks_until_its_expiry(offset, covered):
    # expires_at is the first instant the batch no longer covers
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3]):
        eng.on_message(p, "dc1>dc2")
    expires_at = eng.store[7].expires_at
    assert expires_at == eng.horizon_us
    env.run_until(expires_at + offset)
    eng.on_message(nack(2, 0), "r2>dc2")
    assert (7 in eng.store) == covered
    assert log.counters["tasks_opened"] == int(covered)
    assert ((2, 0) in eng.orphans) == (not covered)


def test_task_gives_up_at_its_batchs_expiry_with_no_later_event():
    # a task opened half an RTT before its batch expires would run past
    # the expiry: its timer fires at the expiry instead, so it counts
    # even when DC2 handles no message after it, as at the end of a run
    eng, env, log = make_engine()
    for p in cross_parities(7, [0, 1, 2, 3], num_parity=1):
        eng.on_message(p, "dc1>dc2")
    expires_at = eng.store[7].expires_at
    env.run_until(expires_at - RTT // 2)
    eng.on_message(nack(2, 0), "r2>dc2")
    assert env.pending() == [(expires_at, ("task", 7))]
    env.run_until(expires_at - 1)
    assert log.counters["failed_silent"] == 0
    env.run_until(expires_at)
    assert log.counters["failed_silent"] == 1
    env.run_until(expires_at + 2 * RTT)
    assert log.counters["failed_silent"] == 1


def test_duplicate_parity_index_ignored():
    eng, env, log = make_engine()
    p = cross_parities(7, [0, 1, 2, 3])[0]
    eng.on_message(p, "dc1>dc2")
    eng.on_message(p, "dc1>dc2")
    assert len(eng.store[7].parity) == 1


def test_each_flow_is_served_on_its_own_links():
    # flow i's recovery goes out on dc2>r{i}, its confirm query on dc2>r{i}:ctrl
    eng, env, log = make_engine(n_receivers=3)
    for i in range(3):
        for p in in_parities(i, i, range(5)):
            eng.on_message(p, "dc1>dc2")
        eng.on_message(nack(i, 2, 40 + i), f"r{i}>dc2")
    env.run_until(75_000)  # the boundary wait of the uncovered claims
    assert [(link, type(m)) for link, m, _ in env.sent] == [
        *((f"dc2>r{i}", CodedPacket) for i in range(3)),
        *((f"dc2>r{i}:ctrl", Ctrl) for i in range(3))]
    assert [(m.flow_id, m.seq) for _, m, _ in env.sent[3:]] == [(i, 40 + i) for i in range(3)]


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
    # whichever of the task deadline and the batch's expiry comes first
    # ends the task; the batch leaving the store later counts nothing
    eng, env, log = make_engine(deadline_us=deadline_us)
    for p in cross_parities(7, [0, 1, 2, 3], num_parity=1):
        eng.on_message(p, "dc1>dc2")
    eng.on_message(nack(2, 0), "r2>dc2")
    env.run_until(min(deadline_us, 4 * RTT) + 1)
    assert log.counters["failed_silent"] == 1
    env.run_until(8 * RTT + 1)
    eng.on_message(Ack(flow_id=3, frontier=0), "r3>dc2")  # DC2's next event
    assert 7 not in eng.store
    assert log.counters["failed_silent"] == 1
