"""Application endpoints: constant-bitrate senders and loss-detecting
receivers.

Senders emit fixed-size packets on an ON/OFF schedule, every packet on
the direct path and a copy (all of them, or just the first few of each
burst under selective duplication) toward the ingress DC.  Payloads are
a cheap deterministic function of (flow, seq) so receivers can verify
every delivered byte against ground truth.

The receiver's loss detector is receiver-driven and two-state.  Gaps in
the arriving sequence space trigger NACKs after a short reordering
grace.  Silence triggers timer NACKs for the next expected packet: the
timer is short right after a packet arrives inside a burst (losing the
tail of a burst would otherwise go unnoticed until the next one) and
one RTT long once that first timer NACK fires, so an idle flow costs
one NACK instead of a stream of them.  Eight unanswered timer NACKs in
a row park the detector until something arrives; a confirm query from
the recovery DC answering "nothing was lost, the flow just stopped"
parks it too.

Receivers keep a small cache of recent payloads to answer cooperative
requests for their own packets, and they hold forwarded in-stream
parity until enough of the block is present to decode the rest.
"""

from __future__ import annotations

import statistics
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from .codec import InsufficientSymbols, SourceSymbol, decode_batch
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
    parity_from_coded,
)

# dedupe/NACK bookkeeping beyond the frontier is capped per flow; a
# 2s outage at 100 pps stays well inside this
MAX_TRACKED_GAP = 4096
# forwarded in-stream blocks held for decode; the oldest go first
MAX_HELD_BLOCKS = 512

_PATTERN = bytes(range(256)) * 257  # long enough for any 16-bit payload


def payload_bytes(flow_id: int, seq: int, size: int) -> bytes:
    """Deterministic packet body, distinct per (flow, seq)."""
    if size <= 0:
        return b""
    head = flow_id.to_bytes(8, "big") + seq.to_bytes(8, "big")
    if size <= 16:
        return head[:size]
    off = (flow_id * 131 + seq * 17) % 256
    return head + _PATTERN[off:off + size - 16]


FULL, SELECTIVE = "full", "selective"


@dataclass
class SenderConfig:
    flow_id: int
    packet_size: int
    interval_us: int
    direct_link: str
    dup_link: str
    on_us: int                    # burst duration
    off_mean_us: int = 0          # 0: back-to-back bursts (continuous)
    duplication: str = FULL
    selective_first_n: int = 1
    start_us: int = 0
    stop_us: int | None = None    # no packets at or after this time


class Sender:
    def __init__(self, name: str, config: SenderConfig, run_log):
        self.name = name
        self.config = config
        self.run_log = run_log
        self.env = None
        self.seq = 0
        self.burst_index = 0  # position within the current burst
        self._burst_end = 0
        run_log.register_flow(config.flow_id, config.packet_size)

    def on_message(self, msg, link_name: str) -> None:
        pass

    def on_timer(self, token) -> None:
        if token[0] == "burst":
            self.burst_index = 0
            self._burst_end = self.env.now + self.config.on_us
            self._tick()
        elif token[0] == "pkt":
            self._tick()

    def _tick(self) -> None:
        cfg = self.config
        now = self.env.now
        if cfg.stop_us is not None and now >= cfg.stop_us:
            return
        pkt = DataPacket(flow_id=cfg.flow_id, seq=self.seq, send_ts_us=now,
                         payload=payload_bytes(cfg.flow_id, self.seq,
                                               cfg.packet_size))
        self.run_log.record_send(cfg.flow_id, self.seq, now)
        duplicate = (cfg.duplication == FULL
                     or self.burst_index < cfg.selective_first_n)
        if cfg.duplication == SELECTIVE:
            pkt = DataPacket(flow_id=pkt.flow_id, seq=pkt.seq,
                             send_ts_us=now, payload=pkt.payload,
                             flags=FLAG_SELECTIVE_DUP if duplicate else 0)
        self.env.send(cfg.direct_link, pkt)
        if duplicate:
            self.env.send(cfg.dup_link, pkt)
        self.seq += 1
        self.burst_index += 1
        nxt = now + cfg.interval_us
        if nxt < self._burst_end:
            self.env.schedule(cfg.interval_us, ("pkt",))
        else:
            off = 0
            if cfg.off_mean_us > 0:
                off = int(self.env.rng.expovariate(1.0 / cfg.off_mean_us))
            self.env.schedule(cfg.interval_us + off, ("burst",))


@dataclass
class DetectorConfig:
    kind: str = "two_state"       # or "fixed_small"
    small_timeout_us: int = 25_000
    long_timeout_us: int = 150_000
    burst_factor: float = 4.0     # arrival gap below factor*median: in a burst
    nominal_gap_us: int = 10_000
    giveup_after: int = 8


BURST, IDLE_STATE = "burst", "idle"
GAP_WINDOW = 15  # recent arrival gaps whose median is the burst gap estimate


@dataclass
class _FlowState:
    frontier: int = 0                      # everything below is delivered
    beyond: set = field(default_factory=set)
    max_seen: int = -1
    last_arrival_us: int | None = None
    gaps: deque = field(default_factory=lambda: deque(maxlen=GAP_WINDOW))
    mode: str = IDLE_STATE
    timer_gen: int = 0
    unanswered: int = 0
    parked: bool = False                   # give-up or confirmed end of flow
    nacked_at: dict[int, int] = field(default_factory=dict)
    first_nacked: dict[int, int] = field(default_factory=dict)

    def advance(self) -> None:
        """Move the frontier past seqs that already arrived beyond it."""
        while self.frontier in self.beyond:
            self.beyond.discard(self.frontier)
            self.frontier += 1


@dataclass
class ReceiverConfig:
    flow_id: int
    direct_link: str                 # incoming direct link name
    dc2_data_link: str               # outgoing toward the recovery DC
    dc2_ctrl_link: str
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    reorder_grace_us: int = 0
    renack_after_us: int = 150_000
    cache_packets: int = 2048
    cache_ttl_us: int = 600_000
    abandon_after_us: int = 600_000  # stop chasing holes older than this
    straggler_delay_us: int = 0      # cooperative responses held this long


class Receiver:
    def __init__(self, name: str, config: ReceiverConfig, run_log):
        self.name = name
        self.config = config
        self.run_log = run_log
        self.env = None
        self.state = _FlowState()
        self.cache: OrderedDict = OrderedDict()  # (flow, seq) -> (payload, ts)
        self.held: OrderedDict = OrderedDict()   # batch_id -> held in-stream block
        self.nack_streak = 0                     # NACKs since the last ACK
        self._coop_wait: dict[tuple[int, int], int] = {}

    # -- dispatch -----------------------------------------------------------

    def on_message(self, msg, link_name: str) -> None:
        now = self.env.now
        if isinstance(msg, DataPacket):
            self._on_data(msg, recovered=link_name != self.config.direct_link,
                          now=now)
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
            self.env.send(self.config.dc2_data_link, token[1])
        elif kind == "coopw":
            _, flow_id, seq = token
            n = self._coop_wait.pop((flow_id, seq), 0)
            for _ in range(n):
                self._send_resp(CoopResponse(entry=(flow_id, seq),
                                             payload=None,
                                             send_ts_us=self.env.now),
                                positive=False)

    # -- data path ------------------------------------------------------------

    def _on_data(self, pkt: DataPacket, recovered: bool, now: int) -> None:
        state = self.state
        ack_due = not recovered and self.nack_streak > 0
        already = pkt.seq < state.frontier or pkt.seq in state.beyond
        if already:
            if ack_due:
                self._ack_alive(now)
            self.run_log.bump("dup_arrivals")
            self._note_arrival(now)
            return
        expected = payload_bytes(pkt.flow_id, pkt.seq,
                                 self.run_log.flows[pkt.flow_id].packet_size)
        if pkt.payload != expected:
            raise RuntimeError(
                f"corrupt delivery flow={pkt.flow_id} seq={pkt.seq}")
        self.run_log.record_delivery(pkt.flow_id, pkt.seq, now, recovered)
        self._store(pkt.flow_id, pkt.seq, pkt.payload, now)
        held = self._coop_wait.pop((pkt.flow_id, pkt.seq), 0)
        for _ in range(held):
            self._send_resp(CoopResponse(entry=(pkt.flow_id, pkt.seq),
                                         payload=pkt.payload, send_ts_us=now),
                            positive=True)
        state.max_seen = max(state.max_seen, pkt.seq)
        gap_start = state.frontier
        missing: list[int] = []
        if pkt.seq == state.frontier:
            state.frontier += 1
            state.advance()
        else:
            state.beyond.add(pkt.seq)
            if len(state.beyond) > MAX_TRACKED_GAP:
                # runaway gap: slide the frontier forward, forget the hole
                state.frontier = min(state.beyond)
                state.advance()
            missing = [s for s in range(gap_start, pkt.seq)
                       if s not in state.beyond]
        if ack_due:
            # after the frontier move, so cum_seq covers this arrival; before
            # the gap NACKs, so those count as a fresh unanswered streak
            self._ack_alive(now)
        if missing:
            if self.config.reorder_grace_us > 0:
                self.env.schedule(self.config.reorder_grace_us,
                                  ("gap", tuple(missing)))
            else:
                self._nack_missing(tuple(missing), "gap_nacks")
        self._note_arrival(now)
        self._retry_held(now)

    def _ack_alive(self, now: int) -> None:
        # direct path demonstrably alive again
        self.env.send(self.config.dc2_data_link,
                      Ack(flow_id=self.config.flow_id,
                          cum_seq=max(0, self.state.frontier - 1),
                          send_ts_us=now))
        self.nack_streak = 0
        self.run_log.bump("acks_sent")

    def _note_arrival(self, now: int) -> None:
        det = self.config.detector
        state = self.state
        state.parked = False
        state.unanswered = 0
        if state.last_arrival_us is not None:
            gap = now - state.last_arrival_us
            if gap < det.long_timeout_us:
                state.gaps.append(gap)
            if gap < self._burst_threshold(state):
                state.mode = BURST
        else:
            state.mode = BURST
        state.last_arrival_us = now
        state.timer_gen += 1
        self.env.schedule(self._timeout(state), ("det", state.timer_gen))

    def _gap_estimate(self, state: _FlowState) -> float:
        det = self.config.detector
        return statistics.median(state.gaps) if state.gaps else det.nominal_gap_us

    def _burst_threshold(self, state: _FlowState) -> float:
        return self.config.detector.burst_factor * self._gap_estimate(state)

    def _timeout(self, state: _FlowState) -> int:
        det = self.config.detector
        if det.kind == "fixed_small" or state.mode == BURST:
            return det.small_timeout_us
        return det.long_timeout_us

    def _on_detector_timer(self, gen: int) -> None:
        state = self.state
        det = self.config.detector
        if gen != state.timer_gen or state.parked:
            return
        # a timeout is a fresh loss signal each time it fires; pacing
        # comes from the timer itself, not the re-NACK window
        self._nack_missing((state.frontier,), "timer_nacks",
                           respect_window=False)
        if state.mode == BURST:
            state.mode = IDLE_STATE
        state.unanswered += 1
        if state.unanswered >= det.giveup_after:
            state.parked = True
            return
        state.timer_gen += 1
        self.env.schedule(self._timeout(state), ("det", state.timer_gen))

    def _nack_missing(self, seqs, counter: str,
                      respect_window: bool = True) -> None:
        state = self.state
        flow_id = self.config.flow_id
        now = self.env.now
        todo = []
        stale = False
        for s in seqs:
            if s < state.frontier or s in state.beyond:
                continue
            first = state.first_nacked.get(s)
            if (first is not None
                    and now - first >= self.config.abandon_after_us):
                # the recovery store has forgotten this one by now;
                # keeping the hole alive only burns NACKs
                stale = True
                continue
            last = state.nacked_at.get(s)
            if (respect_window and last is not None
                    and now - last < self.config.renack_after_us):
                continue
            todo.append(s)
        if stale:
            self._slide_abandoned(state, now)
        if not todo:
            return
        for s in todo:
            state.nacked_at[s] = now
            state.first_nacked.setdefault(s, now)
        if len(state.nacked_at) > 4 * MAX_TRACKED_GAP:
            for s in [s for s in state.nacked_at if s < state.frontier]:
                del state.nacked_at[s]
                state.first_nacked.pop(s, None)
        for i in range(0, len(todo), 255):
            chunk = todo[i:i + 255]
            self.env.send(self.config.dc2_data_link,
                          Nack(flow_id=flow_id,
                               entries=tuple((flow_id, s) for s in chunk),
                               send_ts_us=now))
            self.run_log.bump("nacks_sent")
            self.run_log.bump(counter)
            self.nack_streak += 1

    def _slide_abandoned(self, state: _FlowState, now: int) -> None:
        while True:
            first = state.first_nacked.get(state.frontier)
            if (first is None
                    or now - first < self.config.abandon_after_us):
                break
            state.first_nacked.pop(state.frontier, None)
            state.nacked_at.pop(state.frontier, None)
            self.run_log.bump("abandoned_holes")
            state.frontier += 1
            state.advance()

    # -- payload cache ----------------------------------------------------------

    def _store(self, flow_id: int, seq: int, payload: bytes, now: int) -> None:
        self.cache[(flow_id, seq)] = (payload, now)
        while len(self.cache) > self.config.cache_packets:
            self.cache.popitem(last=False)

    def _cached(self, flow_id: int, seq: int, now: int) -> bytes | None:
        item = self.cache.get((flow_id, seq))
        if item is None:
            return None
        payload, ts = item
        if now - ts > self.config.cache_ttl_us:
            del self.cache[(flow_id, seq)]
            return None
        return payload

    # -- cooperative serving -----------------------------------------------------

    def _on_coop_request(self, msg: CoopRequest, now: int) -> None:
        det = self.config.detector
        state = self.state
        for flow_id, seq in msg.entries:
            payload = self._cached(flow_id, seq, now)
            if payload is not None:
                self._send_resp(CoopResponse(entry=(flow_id, seq),
                                             payload=payload, send_ts_us=now),
                                positive=True)
                continue
            if seq > state.max_seen:
                # nothing this new has arrived yet, so it is not lost, just
                # not here: proactive recovery rides the DC path, which may
                # beat the direct one.  Answer when the packet lands, or
                # after a cadence-scaled wait if it never does.
                wait = ((seq - state.max_seen) * self._gap_estimate(state)
                        + det.small_timeout_us + self.config.reorder_grace_us)
                key = (flow_id, seq)
                self._coop_wait[key] = self._coop_wait.get(key, 0) + 1
                self.env.schedule(int(min(wait, det.long_timeout_us)),
                                  ("coopw", flow_id, seq))
                continue
            self._send_resp(CoopResponse(entry=(flow_id, seq), payload=None,
                                         send_ts_us=now), positive=False)

    def _send_resp(self, resp: CoopResponse, positive: bool) -> None:
        self.run_log.bump("coop_resps_pos" if positive
                          else "coop_resps_neg")
        if self.config.straggler_delay_us > 0:
            self.env.schedule(self.config.straggler_delay_us, ("resp", resp))
        else:
            self.env.send(self.config.dc2_data_link, resp)

    def _on_confirm_query(self, msg: Ctrl, now: int) -> None:
        state = self.state
        missing = (msg.seq >= state.frontier and msg.seq not in state.beyond)
        really_lost = missing and state.max_seen > msg.seq
        if missing and not really_lost:
            # nothing newer ever arrived: the flow most likely just
            # stopped; stop poking the recovery path until it resumes
            state.parked = True
        self.env.send(self.config.dc2_ctrl_link,
                      Ctrl(kind=CTRL_CONFIRM_RESP, flow_id=msg.flow_id,
                           seq=msg.seq, arg=1 if really_lost else 0,
                           send_ts_us=now))
        self.run_log.bump("confirm_yes" if really_lost else "confirm_no")

    # -- forwarded in-stream parity ----------------------------------------------

    def _on_parity(self, msg: CodedPacket, now: int) -> None:
        if msg.cross:
            return  # cross parity is decoded in the DC, never here
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
        if now - block["since"] > self.config.cache_ttl_us:
            del self.held[batch_id]
            return
        present = []
        missing = []
        for f, s, _ in block["members"]:
            payload = self._cached(f, s, now)
            if payload is not None:
                present.append(SourceSymbol(f, s, payload))
            else:
                missing.append((f, s))
        if not missing:
            del self.held[batch_id]
            self.run_log.bump("discarded_parity")
            return
        if len(missing) > len(block["parity"]):
            return
        try:
            recovered = decode_batch(
                present, [parity_from_coded(p)
                          for _, p in sorted(block["parity"].items())])
        except InsufficientSymbols:
            return
        del self.held[batch_id]
        for sym in recovered:
            self._on_data(DataPacket(flow_id=sym.flow_id, seq=sym.seq,
                                     send_ts_us=now, payload=sym.payload),
                          recovered=True, now=now)
