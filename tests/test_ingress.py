"""Encoder-side behavior: queue placement, flush timers, evictions."""

import pytest

from _stub import unit_scenario
from caspr.ingress import CROSS_FLUSH_US, IN_FLUSH_US, IngressCoder
from caspr.metrics import RunLog
from caspr.wire import CodedPacket, DataPacket


class StubEnv:
    def __init__(self):
        self.now = 0
        self.sent = []       # (link, msg)
        self.timers = []     # (fire_at, token)

    def send(self, link, msg):
        self.sent.append((link, msg))

    def schedule(self, delay_us, token):
        self.timers.append((self.now + delay_us, token))


def make_coder(flows, k_max=4, parity_cross=2, **coding):
    """DC1 over unit_scenario() with ``flows`` flows; the scenario's
    coding defaults are parity_in=1, in_block=5."""
    cfg = unit_scenario(f"flows.count={flows}", f"coding.k_max={k_max}",
                        f"coding.parity_cross={parity_cross}",
                        *(f"coding.{key}={value}" for key, value in coding.items()))
    coder = IngressCoder(cfg, RunLog(flows))
    coder.env = StubEnv()
    return coder


def feed(coder, packet):
    """Hand DC1 one sender's duplicate, as its access link does."""
    coder.on_message(packet, f"s{packet.flow_id}>dc1")


def pkt(flow, seq, payload=b"x"):
    return DataPacket(flow_id=flow, seq=seq, send_ts_us=0, payload=payload)


def cross_sent(env):
    return [m for _, m in env.sent if isinstance(m, CodedPacket) and m.cross]


def cross_timers(env):
    return [(t, tok) for t, tok in env.timers if tok[0] == "xq"]


def in_sent(env):
    return [m for _, m in env.sent if isinstance(m, CodedPacket) and not m.cross]


def test_parity_carries_member_send_times_and_emit_time():
    coder = make_coder(2)
    env = coder.env
    # (sent, arrived at DC1, flow, seq); flow 1's packet was sent first
    # but arrives last, so batch order is not send-time order
    for sent, now, flow, seq in ((1_000, 1_200, 0, 0), (4_000, 4_200, 0, 1),
                                 (500, 6_700, 1, 0)):
        env.now = now
        feed(coder, DataPacket(flow, seq, sent, b"x"))
    cross = cross_sent(env)
    assert [m[:2] for m in cross[0].members] == [(0, 0), (1, 0)]
    assert [(p.send_ts_us, p.member_ts) for p in cross] == [(6_700, (1_000, 500))] * 2
    (fire_at, token), = [(t, tok) for t, tok in env.timers if tok[:2] == ("iq", 0)]
    env.now = fire_at
    coder.on_timer(token)
    assert [(p.send_ts_us, p.member_ts) for p in in_sent(env)] == [
        (1_200 + IN_FLUSH_US, (1_000, 4_000))]


@pytest.mark.parametrize("flows, sizes", [
    (1, [1]), (10, [10]), (12, [10, 2]), (25, [10, 10, 5])])
def test_group_assignment_greedy_fill(flows, sizes):
    coder = make_coder(flows, k_max=10, parity_cross=2, in_block=0)
    assert coder.name == "dc1" and coder.out_link == "dc1>dc2"
    assert coder.group_sizes == sizes
    # one packet per flow: every probe starts at queue 0 of its group,
    # and a group of two or more flows fills it and emits at once
    for f in range(flows):
        feed(coder, pkt(f, 0))
    batches = {p.batch_id: {m[0] for m in p.members} for p in cross_sent(coder.env)}
    groups = [set(range(first, first + size))
              for first, size in zip(range(0, flows, 10), sizes)]
    assert list(batches.values()) == [g for g in groups if len(g) >= 2]


def test_full_queue_emits_cross_batch():
    coder = make_coder(4)
    # one packet from each flow; all four probes start at queue 0
    for f in range(4):
        feed(coder, pkt(f, 0, bytes([f]) * 8))
    parities = cross_sent(coder.env)
    assert len(parities) == 2
    assert all(len(p.members) == 4 for p in parities)
    assert {m[:2] for m in parities[0].members} == {(f, 0) for f in range(4)}
    assert parities[0].batch_id == parities[1].batch_id
    assert {p.parity_index for p in parities} == {0, 1}


def test_queue_spread_no_flow_twice():
    coder = make_coder(4)
    # two packets per flow before any queue fills: they spread to
    # different queues, no queue ever holds a flow twice
    for seq in range(2):
        for f in range(4):
            feed(coder, pkt(f, seq))
    for q in coder.queues[0]:
        flows = [s.flow_id for s in q.symbols]
        assert len(flows) == len(set(flows))
    batches = cross_sent(coder.env)
    assert len(batches) == 4  # both rounds filled a queue of 4
    for p in batches:
        flows = [m[0] for m in p.members]
        assert len(flows) == len(set(flows))


def test_single_flow_evicts_never_emits_cross():
    coder = make_coder(1, in_block=0)
    for seq in range(20):
        feed(coder, pkt(0, seq))
    assert cross_sent(coder.env) == []
    # once all 4 queues are seeded every later packet evicts one
    assert coder.run_log.counters["evictions"] == 16


def test_timer_flushes_partial_batch():
    coder = make_coder(4)
    feed(coder, pkt(0, 0))
    feed(coder, pkt(1, 0))
    assert cross_sent(coder.env) == []
    fire_at, token = cross_timers(coder.env)[0]
    assert fire_at == CROSS_FLUSH_US
    coder.env.now = fire_at
    coder.on_timer(token)
    parities = cross_sent(coder.env)
    assert len(parities) == 2
    assert all(len(p.members) == 2 for p in parities)


def test_timer_evicts_single_packet():
    coder = make_coder(4)
    feed(coder, pkt(0, 0))
    coder.on_timer(cross_timers(coder.env)[0][1])
    assert cross_sent(coder.env) == []
    assert coder.run_log.counters["evictions"] == 1


def test_stale_timer_is_noop():
    coder = make_coder(4)
    for f in range(4):
        feed(coder, pkt(f, 0))
    emitted = len(coder.env.sent)
    # queue 0 flushed by fullness; its timer must do nothing
    coder.on_timer(cross_timers(coder.env)[0][1])
    assert len(coder.env.sent) == emitted
    assert coder.run_log.counters["evictions"] == 0


def test_in_stream_emits_at_block_boundary():
    coder = make_coder(1)
    for seq in range(5):
        feed(coder, pkt(0, seq, bytes([seq]) * 8))
    parities = in_sent(coder.env)
    assert len(parities) == 1
    assert [m[:2] for m in parities[0].members] == [(0, s) for s in range(5)]
    # next block starts clean
    for seq in range(5, 10):
        feed(coder, pkt(0, seq))
    assert len(in_sent(coder.env)) == 2


def test_in_stream_timer_flushes_short_block():
    coder = make_coder(1)
    feed(coder, pkt(0, 0))
    feed(coder, pkt(0, 1))
    in_timers = [(t, tok) for t, tok in coder.env.timers if tok[0] == "iq"]
    assert in_timers and in_timers[0][0] == IN_FLUSH_US
    coder.on_timer(in_timers[0][1])
    parities = in_sent(coder.env)
    assert len(parities) == 1
    assert len(parities[0].members) == 2


def test_in_stream_disabled():
    coder = make_coder(4, in_block=0)
    for f in range(4):
        feed(coder, pkt(f, 0))
    assert in_sent(coder.env) == []
    assert not any(tok[0] == "iq" for _, tok in coder.env.timers)


def test_batch_ids_monotone_and_distinct():
    coder = make_coder(4)
    for seq in range(10):
        for f in range(4):
            feed(coder, pkt(f, seq))
    ids = [m.batch_id for _, m in coder.env.sent if isinstance(m, CodedPacket)]
    seen = []
    for i in ids:
        if not seen or i != seen[-1]:
            seen.append(i)
    assert seen == sorted(set(seen))


def test_coding_latency_bounded_by_flush_timeout():
    # every packet leaves its queue no later than CROSS_FLUSH_US after entry
    coder = make_coder(3, k_max=6, parity_cross=1, in_block=0)
    env = coder.env
    entered = {}
    t = 0
    import heapq
    pending = []  # (fire, token)
    for seq in range(6):
        for f in range(3):
            env.now = t
            before = len(env.timers)
            feed(coder, pkt(f, seq))
            for fire, tok in env.timers[before:]:
                heapq.heappush(pending, (fire, tok))
            t += 7_000
    env.now = t + CROSS_FLUSH_US
    while pending:
        fire, tok = heapq.heappop(pending)
        env.now = fire
        coder.on_timer(tok)
    # all packets either emitted in some batch or evicted
    covered = set()
    for _, m in env.sent:
        for fid, seq, _ in m.members:
            covered.add((fid, seq))
    total = 18
    assert len(covered) + coder.run_log.counters["evictions"] == total
