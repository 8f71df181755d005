"""Application endpoints: constant-bitrate senders and loss-detecting
receivers.

Senders emit fixed-size packets on an ON/OFF schedule, every packet on
the direct path and a copy (all of them, or just the first few of each
burst under selective duplication) toward the ingress DC.  Payloads are
a cheap deterministic function of (flow, seq) so receivers can verify
every delivered byte against ground truth.  Senders never touch the
run log (the direct link reports its own drops); a receiver notes in it
only its recovered deliveries, and bumps its counters.

The receiver's loss detector is receiver-driven and two-state.  Gaps in
the arriving sequence space trigger NACKs after a short reordering
grace.  Silence triggers timer NACKs for the next expected packet: the
timer is short right after a packet arrives inside a burst (losing the
tail of a burst would otherwise go unnoticed until the next one) and
one RTT long once that first timer NACK fires, so an idle flow costs
one NACK instead of a stream of them.  A detector in a burst stays in
it until that short timer fires; an arrival that finds it idle puts it
back in a burst when its gap is under ``BURST_FACTOR`` medians of the
recent gaps, and only such an arrival consults that threshold.  Eight
unanswered timer NACKs in a row park the detector until something
arrives; a confirm query from the recovery DC answering "nothing was
lost, the flow just stopped" parks it too.

The receiver tracks its holes, not its deliveries: one map, in seq
order, of the undelivered seqs from the frontier on, each with the time
of its first and last NACK once it has been NACKed.  Only an arrival
that jumps past the next expected seq adds holes, the seqs it skipped;
an in-order one adds none.  A delivery deletes its hole, and with it
the hole's NACK history; a hole first NACKed longer ago than the
recovery horizon is dropped without a delivery.  The frontier, the
first seq neither delivered nor given up, is what an ACK carries: the
first direct arrival after unanswered NACKs sends one, and the
recovery DC drops the flow's claims below it.

Receivers cache the arrival time of each recent delivery, to answer
cooperative requests for their own packets and to decode forwarded
in-stream blocks.  The payload itself is rebuilt from (flow, seq) when
one of those asks for it; every arrival was checked against that same
ground truth, so the rebuilt bytes are the delivered ones.  The cache
is bounded twice: an entry older than the recovery horizon is never
served and is evicted at the next store, and past the count cap the
oldest entries go too.  Receivers also hold forwarded in-stream parity,
for at most the horizon, until enough of the block is present to decode
the rest; no payload is built for a block until it can decode.
"""

from __future__ import annotations

import struct
from collections import OrderedDict, deque
from itertools import islice, takewhile

from .codec import decode_batch
from .scenario import Scenario, flow_links
from .wire import (
    Ack,
    CTRL_CONFIRM_QUERY,
    CTRL_CONFIRM_RESP,
    CodedPacket,
    CoopRequest,
    CoopResponse,
    Ctrl,
    DataPacket,
    FLAG_SELECTIVE_DUP,
    Nack,
)

# holes tracked per receiver; past this the oldest are forgotten.  A 2s
# outage at 100 pps stays well inside it
MAX_TRACKED_GAP = 4096
# forwarded in-stream blocks held for decode; the oldest go first
MAX_HELD_BLOCKS = 512
# deliveries cached for cooperative requests and in-stream decodes;
# past this the oldest go
CACHE_PACKETS = 2048

_PATTERN = bytes(range(256)) * 257  # long enough for any 16-bit payload
_HEAD = struct.Struct(">QQ")  # flow, seq
# size -> (its body's pack, the 256 tails _PATTERN[off:off + size - 16]),
# built on the first body of that size: 256 * (size - 16) bytes
_BODIES: dict = {}


def payload_bytes(flow_id: int, seq: int, size: int) -> bytes:
    """Deterministic packet body, distinct per (flow, seq): the 16-byte
    head (flow, seq) then ``_PATTERN`` from an offset set by both, cut to
    ``size``.  One pack builds it."""
    body = _BODIES.get(size)
    if body is None:
        if size <= 16:
            return _HEAD.pack(flow_id, seq)[:max(size, 0)]
        tail = size - 16
        body = _BODIES[size] = (
            struct.Struct(f"{_HEAD.format}{tail}s").pack,
            [_PATTERN[off:off + tail] for off in range(256)])
    pack, tails = body
    return pack(flow_id, seq, tails[(flow_id * 131 + seq * 17) % 256])


FULL, SELECTIVE = "full", "selective"


class Sender:
    """Flow ``flow_id``'s source, node ``s{i}``."""

    def __init__(self, flow_id: int, cfg: Scenario):
        self.name = f"s{flow_id}"
        self.flow_id = flow_id
        flows = cfg.flows
        links = flow_links(flow_id)
        self.direct_link = links.direct
        self.dup_link = links.dup
        self.start_us = flow_id * flows.stagger_us
        self.stop_us = cfg.stop_us  # no packets at or after this time
        # the flow's shape, copied once from the scenario so a tick reads
        # plain attributes
        self.packet_size = flows.packet_size
        self.interval_us = flows.interval_us
        self.on_us = flows.on_us
        self.off_mean_us = flows.off_mean_us
        self.duplication = flows.duplication
        self.selective_first_n = flows.selective_first_n
        self.env = None
        self.seq = 0
        self.burst_index = 0  # position within the current burst
        self._burst_end = 0

    def on_timer(self, token) -> None:
        # every timer sends one packet: a "pkt" token the burst's next,
        # a "burst" token the first of a new burst
        env = self.env
        now = env.now
        if token[0] != "pkt":
            self.burst_index = 0
            self._burst_end = now + self.on_us
        if now >= self.stop_us:
            return
        flow_id, seq, index = self.flow_id, self.seq, self.burst_index
        duplicate = self.duplication == FULL or index < self.selective_first_n
        # only selective duplication marks the packets it copies
        flags = FLAG_SELECTIVE_DUP if duplicate and self.duplication == SELECTIVE else 0
        pkt = DataPacket(flow_id, seq, now,
                         payload_bytes(flow_id, seq, self.packet_size), flags)
        env.send(self.direct_link, pkt)
        if duplicate:
            env.send(self.dup_link, pkt)
        self.seq = seq + 1
        self.burst_index = index + 1
        interval = self.interval_us
        if now + interval < self._burst_end:
            env.schedule(interval, ("pkt",))
        else:
            off = 0
            if self.off_mean_us > 0:
                off = int(env.rng.expovariate(1.0 / self.off_mean_us))
            env.schedule(interval + off, ("burst",))


BURST, IDLE_STATE = "burst", "idle"
GAP_WINDOW = 15  # recent arrival gaps whose median is the burst gap estimate
SMALL_TIMEOUT_US = 25_000  # the detector's timeout inside a burst
BURST_FACTOR = 4.0  # an arrival gap below this many median gaps: in a burst
GIVEUP_AFTER = 8  # unanswered timer NACKs in a row that park the detector


class Receiver:
    """Flow ``flow_id``'s receiving end, node ``r{i}``."""

    def __init__(self, flow_id: int, cfg: Scenario, run_log):
        self.name = f"r{flow_id}"
        self.flow_id = flow_id
        links = flow_links(flow_id)
        self.direct_link = links.direct
        self.data_link = links.up
        self.ctrl_link = links.up_ctrl
        # the scenario, copied once so no arrival reads through it: the
        # payload size every delivery is checked against, then the
        # detector's and the recovery path's timings
        self.packet_size = cfg.flows.packet_size
        self.fixed_small = cfg.detector.kind == "fixed_small"
        self.long_timeout_us = cfg.rtt_us  # the detector's idle timeout
        self.nominal_gap_us = cfg.flows.interval_us  # gap estimate before any gap
        self.reorder_grace_us = cfg.reorder_grace_us
        self.renack_after_us = cfg.deadline_us
        self.horizon_us = cfg.horizon_us  # holes chased, payloads and blocks held this long
        strag = cfg.straggler
        # cooperative responses held this long
        self.straggler_delay_us = (strag.delay_us
                                   if strag and strag.receiver == flow_id else 0)
        self.run_log = run_log
        self.env = None
        # delivery state of the one flow this receiver terminates
        self.frontier = 0                 # everything below is delivered or given up
        self.max_seen = -1
        # undelivered seqs from the frontier on, in seq order; the value is
        # (first NACK time, last NACK time) once the seq has been NACKed
        self.holes: dict[int, tuple[int, int] | None] = {}
        # loss detector
        self.last_arrival_us: int | None = None
        self.gaps: deque = deque(maxlen=GAP_WINDOW)
        self.mode = IDLE_STATE
        self.timer_gen = 0
        self.unanswered = 0
        self.parked = False               # give-up or confirmed end of flow
        # seq -> arrival time, in time order, at most horizon_us old and
        # CACHE_PACKETS long; the payload is rebuilt when asked for.  A
        # seq is stored once, at its first delivery.  The deque holds the
        # same seqs oldest first for eviction: finding a dict's first key
        # walks past every key deleted before it
        self.cache: dict[int, int] = {}
        self._cache_order: deque = deque()
        self.held: OrderedDict = OrderedDict()   # batch_id -> held in-stream block
        self.nack_streak = 0                     # NACKs since the last ACK
        self._coop_wait: dict[int, int] = {}     # seq -> responses held for it

    # -- dispatch -----------------------------------------------------------

    def on_message(self, msg, link_name: str) -> None:
        now = self.env.now
        if isinstance(msg, DataPacket):
            self._on_data(msg, link_name != self.direct_link, now)
        elif isinstance(msg, CodedPacket):
            self._on_parity(msg, now)
        elif isinstance(msg, CoopRequest):
            self._on_coop_request(msg, now)
        elif isinstance(msg, Ctrl) and msg.kind == CTRL_CONFIRM_QUERY:
            self._on_confirm_query(msg, now)

    def on_timer(self, token) -> None:
        kind = token[0]
        if kind == "det":
            self._on_detector_timer(token[1])
        elif kind == "gap":
            self._nack_missing(token[1], "gap_nacks")
        elif kind == "resp":
            self.env.send(self.data_link, token[1])
        elif kind == "coopw":
            self._answer_waiting(token[1], None, self.env.now)

    # -- data path ------------------------------------------------------------

    def _delivered(self, seq: int) -> bool:
        return seq < self.frontier or (seq <= self.max_seen
                                       and seq not in self.holes)

    def _on_data(self, pkt: DataPacket, recovered: bool, now: int) -> None:
        seq = pkt.seq
        frontier, max_seen, holes = self.frontier, self.max_seen, self.holes
        ack_due = not recovered and self.nack_streak > 0
        if seq < frontier or (seq <= max_seen and seq not in holes):
            # already delivered: _delivered(seq), on the values just read
            if ack_due:
                self._ack_alive(now)
            self.run_log.bump("dup_arrivals")
            self._note_arrival(now)
            return
        payload = pkt.payload
        if payload != payload_bytes(pkt.flow_id, seq, self.packet_size):
            raise RuntimeError(
                f"corrupt delivery flow={pkt.flow_id} seq={seq}")
        if recovered:
            self.run_log.record_recovery(pkt.flow_id, seq, now)
        self._store(seq, now)
        if self._coop_wait:
            self._answer_waiting(seq, payload, now)
        if seq > max_seen:
            self.max_seen = seq
            if seq > max_seen + 1 and seq > frontier:
                # a forward jump: everything skipped over is a new hole;
                # a NACKed frontier past max_seen is already one and
                # keeps its NACK times.  An in-order arrival adds none.
                for s in range(max(frontier, max_seen + 1), seq):
                    holes.setdefault(s, None)
                excess = len(holes) - MAX_TRACKED_GAP
                if excess > 0:
                    # runaway gap: forget the oldest holes
                    for s in list(islice(holes, excess)):
                        del holes[s]
        missing = ()
        if holes:
            holes.pop(seq, None)
            missing = tuple(takewhile(seq.__gt__, holes))
        self._advance()
        if ack_due:
            # after the frontier move, so the ACK covers this arrival; before
            # the gap NACKs, so those count as a fresh unanswered streak
            self._ack_alive(now)
        if missing:
            if self.reorder_grace_us > 0:
                self.env.schedule(self.reorder_grace_us,
                                  ("gap", missing))
            else:
                self._nack_missing(missing, "gap_nacks")
        self._note_arrival(now)
        if self.held:
            self._retry_held(now)

    def _advance(self) -> None:
        """Move the frontier to the first hole, or past everything seen."""
        if self.holes:
            self.frontier = next(iter(self.holes))
        elif self.frontier <= self.max_seen:
            self.frontier = self.max_seen + 1

    def _ack_alive(self, now: int) -> None:
        # direct path demonstrably alive again
        self.env.send(self.data_link, Ack(self.flow_id, self.frontier, now))
        self.nack_streak = 0
        self.run_log.bump("acks_sent")

    def _note_arrival(self, now: int) -> None:
        self.parked = False
        self.unanswered = 0
        last = self.last_arrival_us
        if last is not None:
            gap = now - last
            if gap < self.long_timeout_us:
                self.gaps.append(gap)
            # only an idle detector can change mode here, so only it
            # pays for the median
            if self.mode != BURST and gap < self._burst_threshold():
                self.mode = BURST
        else:
            self.mode = BURST
        self.last_arrival_us = now
        self.timer_gen = gen = self.timer_gen + 1
        self.env.schedule(self._timeout(), ("det", gen))

    def _gap_estimate(self) -> float:
        """Median of the recent gaps, as statistics.median computes it."""
        if not self.gaps:
            return self.nominal_gap_us
        gaps = sorted(self.gaps)
        mid = len(gaps) // 2
        return gaps[mid] if len(gaps) % 2 else (gaps[mid - 1] + gaps[mid]) / 2

    def _burst_threshold(self) -> float:
        return BURST_FACTOR * self._gap_estimate()

    def _timeout(self) -> int:
        if self.fixed_small or self.mode == BURST:
            return SMALL_TIMEOUT_US
        return self.long_timeout_us

    def _on_detector_timer(self, gen: int) -> None:
        if gen != self.timer_gen or self.parked:
            return
        # a timeout is a fresh loss signal each time it fires; pacing
        # comes from the timer itself, not the re-NACK window
        self._nack_missing((self.frontier,), "timer_nacks",
                           respect_window=False)
        if self.mode == BURST:
            self.mode = IDLE_STATE
        self.unanswered += 1
        if self.unanswered >= GIVEUP_AFTER:
            self.parked = True
            return
        self.timer_gen += 1
        self.env.schedule(self._timeout(), ("det", self.timer_gen))

    def _nack_missing(self, seqs, counter: str,
                      respect_window: bool = True) -> None:
        flow_id = self.flow_id
        now = self.env.now
        todo = []
        stale = False
        for s in seqs:
            if self._delivered(s):
                continue
            times = self.holes.get(s)
            if times is not None:
                first, last = times
                if now - first >= self.horizon_us:
                    # the recovery store has forgotten this one by now;
                    # keeping the hole alive only burns NACKs
                    stale = True
                    continue
                if respect_window and now - last < self.renack_after_us:
                    continue
            todo.append(s)
        if stale:
            self._slide_abandoned(now)
        if not todo:
            return
        for s in todo:
            # a timer NACK past max_seen adds the frontier itself as a hole
            times = self.holes.get(s)
            self.holes[s] = (times[0] if times else now, now)
        for i in range(0, len(todo), 255):
            chunk = todo[i:i + 255]
            self.env.send(self.data_link,
                          Nack(flow_id=flow_id,
                               entries=tuple((flow_id, s) for s in chunk),
                               send_ts_us=now))
            self.run_log.bump("nacks_sent")
            self.run_log.bump(counter)
            self.nack_streak += 1

    def _slide_abandoned(self, now: int) -> None:
        while True:
            times = self.holes.get(self.frontier)
            if times is None or now - times[0] < self.horizon_us:
                break
            del self.holes[self.frontier]
            self.run_log.bump("abandoned_holes")
            self.frontier += 1
            self._advance()

    # -- payload cache ----------------------------------------------------------

    def _store(self, seq: int, now: int) -> None:
        cache, order = self.cache, self._cache_order
        cache[seq] = now
        order.append(seq)
        # stored in time order, so the entries _cached would refuse are a
        # prefix; the new entry itself always stays (CACHE_PACKETS >= 1)
        oldest = now - self.horizon_us
        while len(order) > CACHE_PACKETS or cache[order[0]] < oldest:
            del cache[order.popleft()]

    def _cached(self, seq: int, now: int) -> bool:
        """Whether ``seq`` arrived, is still cached and is at most the
        horizon old: then its payload can be served, rebuilt by
        payload_bytes, which every arrival was checked against."""
        stamp = self.cache.get(seq)
        return stamp is not None and now - stamp <= self.horizon_us

    # -- cooperative serving -----------------------------------------------------

    def _on_coop_request(self, msg: CoopRequest, now: int) -> None:
        for flow_id, seq in msg.entries:
            if self._cached(seq, now):
                payload = payload_bytes(flow_id, seq, self.packet_size)
                self._send_resp(CoopResponse(entry=(flow_id, seq),
                                             payload=payload, send_ts_us=now))
                continue
            if seq > self.max_seen:
                # nothing this new has arrived yet, so it is not lost, just
                # not here: proactive recovery rides the DC path, which may
                # beat the direct one.  Answer when the packet lands, or
                # after a cadence-scaled wait if it never does.
                wait = ((seq - self.max_seen) * self._gap_estimate()
                        + SMALL_TIMEOUT_US + self.reorder_grace_us)
                self._coop_wait[seq] = self._coop_wait.get(seq, 0) + 1
                self.env.schedule(int(min(wait, self.long_timeout_us)),
                                  ("coopw", seq))
                continue
            self._send_resp(CoopResponse(entry=(flow_id, seq), payload=None,
                                         send_ts_us=now))

    def _answer_waiting(self, seq: int, payload: bytes | None, now: int) -> None:
        """Answer the requests held for ``seq`` with ``payload``, None if it never came."""
        for _ in range(self._coop_wait.pop(seq, 0)):
            self._send_resp(CoopResponse(entry=(self.flow_id, seq),
                                         payload=payload, send_ts_us=now))

    def _send_resp(self, resp: CoopResponse) -> None:
        self.run_log.bump("coop_resps_neg" if resp.payload is None else "coop_resps_pos")
        if self.straggler_delay_us > 0:
            self.env.schedule(self.straggler_delay_us, ("resp", resp))
        else:
            self.env.send(self.data_link, resp)

    def _on_confirm_query(self, msg: Ctrl, now: int) -> None:
        missing = not self._delivered(msg.seq)
        really_lost = missing and self.max_seen > msg.seq
        if missing and not really_lost:
            # nothing newer ever arrived: the flow most likely just
            # stopped; stop poking the recovery path until it resumes
            self.parked = True
        self.env.send(self.ctrl_link,
                      Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=msg.flow_id,
                           seq=msg.seq, arg=1 if really_lost else 0,
                           send_ts_us=now))
        self.run_log.bump("confirm_yes" if really_lost else "confirm_no")

    # -- forwarded in-stream parity ----------------------------------------------

    def _on_parity(self, msg: CodedPacket, now: int) -> None:
        # the recovery DC forwards in-stream parity only; cross parity is
        # decoded there
        block = self.held.get(msg.batch_id)
        if block is None:
            block = {"members": msg.members, "parity": {}, "since": now}
            self.held[msg.batch_id] = block
            while len(self.held) > MAX_HELD_BLOCKS:
                self.held.popitem(last=False)
        block["parity"][msg.parity_index] = msg
        self._try_block(msg.batch_id, now)

    def _retry_held(self, now: int) -> None:
        for batch_id in list(self.held):
            self._try_block(batch_id, now)

    def _try_block(self, batch_id: int, now: int) -> None:
        block = self.held.get(batch_id)
        if block is None:
            return
        if now - block["since"] > self.horizon_us:
            del self.held[batch_id]
            return
        members = block["members"]
        have = [(f, s) for f, s, _ in members if self._cached(s, now)]
        missing = len(members) - len(have)
        if not missing:
            del self.held[batch_id]
            self.run_log.bump("discarded_parity")
            return
        if missing > len(block["parity"]):
            return
        del self.held[batch_id]
        # payloads are built only for a block that decodes
        size = self.packet_size
        present = {(f, s): payload_bytes(f, s, size) for f, s in have}
        for (f, s), payload in decode_batch(present, list(block["parity"].values())).items():
            self._on_data(DataPacket(f, s, now, payload), True, now)
