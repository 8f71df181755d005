"""Egress-side recovery engine living in the second datacenter.

Parity from the ingress is parked here in a TTL-bounded store, unused
unless a receiver reports loss.  On a NACK the engine picks the
cheapest path that can still make the one-RTT budget:

  1. a payload already decoded earlier is resent from cache,
  2. an in-stream batch covering the entry has its parity forwarded
     (exactly as many symbols as there are known-lost packets),
  3. otherwise the covering cross-stream batch opens a cooperative
     task: every other member receiver is asked for its packet, and
     the batch is decoded the moment the unknown count drops to the
     parity count.  Recovered payloads go out as ordinary data toward
     the NACKing receiver only.

Tasks expire one direct-path RTT after opening; whatever is still
unrecovered is counted failed-silent and late helper responses are
dropped.  A NACK with no covering parity first waits out the encoder
flush horizon (parity may be in flight), then asks the receiver to
confirm the loss is real before giving up: flows stopping right at a
batch boundary otherwise leave phantom losses behind.

A loss claim is credible only once the direct path has had its chance:
parity may vouch for a packet only if that packet's send time plus the
direct-path latency bound lies at or before the moment the NACK left
the receiver.  Burst-boundary timer probes name sequence numbers the
sender has not produced yet, or produced so recently that they are
still in flight; batch metadata carries per-member send times exactly
so such claims can be told apart from real losses, which are always
reported after the packet had time to arrive.  Inadmissible claims
stay in the orphan flow; the guard is waived once the receiver
confirms the hole is real, and a cumulative ACK retracts claims the
direct path has since satisfied.

Three NACKs from the same receiver with no ACK in between flip it to
proactive mode: newly arriving cross parity that covers the receiver
opens recovery immediately, without waiting for NACKs that a dead
direct path may not be able to provoke in time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codec import SourceSymbol, decode_batch
from .wire import (
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

IDLE, PENDING, DECODED, FAILED = "idle", "pending", "decoded", "failed"

Entry = tuple[int, int]


@dataclass
class EgressConfig:
    deadline_us: int          # cooperative-task budget, one direct RTT
    boundary_wait_us: int     # flush horizon before querying the receiver
    store_ttl_us: int
    proactive_after: int = 3  # consecutive un-ACKed NACKs
    claim_owd_us: int = 0     # direct one-way delay plus jitter bound


@dataclass(eq=False)
class StoredBatch:
    batch_id: int
    cross: bool
    members: tuple
    num_parity: int
    first_seen_us: int
    sent_ts: int = 0          # ingress transmit time, earliest parity copy
    member_sent: dict[Entry, int] = field(default_factory=dict)
    parity: dict[int, CodedPacket] = field(default_factory=dict)
    decoded: dict[Entry, bytes] = field(default_factory=dict)
    lost: set[Entry] = field(default_factory=set)
    requested: set[str] = field(default_factory=set)
    forwarded: set[int] = field(default_factory=set)
    state: str = IDLE
    entries: tuple[Entry, ...] = field(init=False)

    def __post_init__(self):
        self.entries = tuple((f, s) for f, s, _ in self.members)


@dataclass
class _Orphan:
    created_us: int
    nack_ts: int = 0          # latest claim with no admissible coverage
    confirmed: bool = False   # the receiver vouched for the hole


@dataclass
class _ReceiverPort:
    receiver_id: str
    data_link: str
    ctrl_link: str
    consec_nacks: int = 0


class EgressRecovery:
    """One DC2 node."""

    def __init__(self, name: str, config: EgressConfig, run_log):
        self.name = name
        self.config = config
        self.run_log = run_log
        self.env = None
        self.store: dict[int, StoredBatch] = {}
        self.by_entry: dict[Entry, set[int]] = {}
        self.orphans: dict[Entry, _Orphan] = {}
        self._flow_port: dict[int, _ReceiverPort] = {}  # each flow has one receiver
        self._proactive: set[int] = set()  # flows whose receiver is in proactive mode

    def register_receiver(self, receiver_id: str, flow_id: int, data_link: str,
                          ctrl_link: str) -> None:
        if any(p.receiver_id == receiver_id for p in self._flow_port.values()):
            raise ValueError(f"receiver {receiver_id} registered twice")
        if flow_id in self._flow_port:
            raise ValueError(f"flow {flow_id} already owned by "
                             f"{self._flow_port[flow_id].receiver_id}")
        self._flow_port[flow_id] = _ReceiverPort(receiver_id, data_link, ctrl_link)

    # -- dispatch ---------------------------------------------------------

    def on_message(self, msg, link_name: str) -> None:
        now = self.env.now
        if isinstance(msg, CodedPacket):
            self._on_coded(msg, now)
        elif isinstance(msg, Nack):
            self._on_nack(msg, now)
        elif isinstance(msg, Ack):
            self._on_ack(msg)
        elif isinstance(msg, CoopResponse):
            self._on_coop_response(msg, now)
        elif isinstance(msg, Ctrl) and msg.kind == CTRL_CONFIRM_RESP:
            self._on_confirm_response(msg)

    def on_timer(self, token) -> None:
        kind = token[0]
        now = self.env.now
        if kind == "ttl":
            self._expire_batch(token[1])
        elif kind == "task":
            batch = self.store.get(token[1])
            if batch is not None:
                self._give_up(batch)
        elif kind == "boundary":
            _, f, s, created = token
            orphan = self.orphans.get((f, s))
            if orphan is not None and orphan.created_us == created and not orphan.confirmed:
                port = self._flow_port[f]
                self.env.send(port.ctrl_link,
                              Ctrl(kind=CTRL_CONFIRM_QUERY, flow_id=f, seq=s,
                                   send_ts_us=self.env.now))
                self.run_log.bump("confirm_queries")
        elif kind == "orphan":
            _, f, s, created = token
            orphan = self.orphans.get((f, s))
            if orphan is not None and orphan.created_us == created:
                del self.orphans[(f, s)]
                self.run_log.bump("failed_silent")

    # -- parity intake ------------------------------------------------------

    def _on_coded(self, msg: CodedPacket, now: int) -> None:
        batch = self.store.get(msg.batch_id)
        if batch is None:
            batch = StoredBatch(msg.batch_id, msg.cross, msg.members,
                                msg.num_parity, now, sent_ts=msg.send_ts_us)
            self.store[msg.batch_id] = batch
            for e in batch.entries:
                self.by_entry.setdefault(e, set()).add(msg.batch_id)
            self.env.schedule(self.config.store_ttl_us, ("ttl", msg.batch_id))
        if msg.parity_index in batch.parity:
            return
        batch.parity[msg.parity_index] = msg
        batch.sent_ts = min(batch.sent_ts, msg.send_ts_us)
        for e, m_ts in zip(batch.entries, msg.member_ts):
            known = batch.member_sent.get(e)
            batch.member_sent[e] = m_ts if known is None else min(known, m_ts)
        # parity may resolve entries that were NACKed before coverage existed
        for e in batch.entries:
            orphan = self.orphans.get(e)
            if orphan is None:
                continue
            if orphan.confirmed:
                del self.orphans[e]
                self._recover_entry(e, now, None)
            elif self._claim_admissible(batch, e, orphan.nack_ts):
                del self.orphans[e]
                self._recover_entry(e, now, orphan.nack_ts)
        self._open_proactive(batch, self._proactive, now)
        if batch.lost:
            if batch.cross:
                self._try_decode(batch, now)
            else:
                self._forward_in_parity(batch)

    def _open_proactive(self, batch: StoredBatch, flows: set[int], now: int) -> None:
        """Open recovery for the cross batch's unclaimed entries of
        ``flows``: their dead direct path may never provoke a NACK."""
        if not (batch.cross and flows):
            return
        for e in batch.entries:
            if e[0] in flows and e not in batch.decoded and e not in batch.lost:
                self.run_log.bump("proactive_entries")
                self._recover_via_cross(batch, e, now)

    def _give_up(self, batch: StoredBatch) -> None:
        """End a pending task; what it has not decoded fails silently."""
        if batch.state == PENDING:
            batch.state = FAILED
            self.run_log.bump("failed_silent", len(batch.lost - batch.decoded.keys()))

    def _expire_batch(self, batch_id: int) -> None:
        # each batch arms one TTL timer when it is stored, and that timer
        # is the only way out of the store
        batch = self.store.pop(batch_id)
        self._give_up(batch)
        for e in batch.entries:
            ids = self.by_entry.get(e)
            if ids is not None:
                ids.discard(batch_id)
                if not ids:
                    del self.by_entry[e]

    # -- loss reports ---------------------------------------------------------

    def _on_nack(self, msg: Nack, now: int) -> None:
        port = self._flow_port.get(msg.flow_id)
        if port is None:
            return
        port.consec_nacks += 1
        if port.consec_nacks == self.config.proactive_after:
            self._proactive.add(msg.flow_id)
            # parity already in the store covers losses the dead direct
            # path can no longer provoke NACKs for; open those too
            for bid in sorted(self.store):
                self._open_proactive(self.store[bid], {msg.flow_id}, now)
        for entry in msg.entries:
            self._recover_entry(entry, now, msg.send_ts_us)

    def _on_ack(self, msg: Ack) -> None:
        port = self._flow_port[msg.flow_id]
        port.consec_nacks = 0
        self._proactive.discard(msg.flow_id)
        # everything at or below the cumulative point reached the
        # receiver (or was given up on); pending claims there are moot
        stale = [e for e in self.orphans
                 if e[0] == msg.flow_id and e[1] <= msg.cum_seq]
        for e in stale:
            del self.orphans[e]
            self.run_log.bump("claims_retracted")

    def _claim_admissible(self, batch: StoredBatch, entry: Entry,
                          nack_ts: int | None) -> bool:
        """Could the receiver have legitimately missed this entry when
        it complained?  None means the receiver already confirmed."""
        if nack_ts is None:
            return True
        if batch.sent_ts > nack_ts:
            return False
        sent = batch.member_sent.get(entry, batch.sent_ts)
        return sent + self.config.claim_owd_us <= nack_ts

    def _recover_entry(self, entry: Entry, now: int, nack_ts: int | None) -> None:
        batch_ids = sorted(b for b in self.by_entry.get(entry, ())
                           if self._claim_admissible(self.store[b], entry, nack_ts))
        if batch_ids:
            # admissible coverage takes over any pending orphan claim
            self.orphans.pop(entry, None)
        # cheapest first: cached payload beats parity forwarding beats
        # opening a cooperative decode
        for bid in batch_ids:
            batch = self.store[bid]
            if entry in batch.decoded:
                self._send_data(entry, batch.decoded[entry], now)
                self.run_log.bump("cache_resends")
                return
        in_batches = [self.store[b] for b in batch_ids if not self.store[b].cross]
        for batch in in_batches:
            batch.lost.add(entry)
            if len(batch.parity) >= len(batch.lost):
                self._forward_in_parity(batch)
                return
        cross = [self.store[b] for b in batch_ids if self.store[b].cross]
        if cross:
            self._recover_via_cross(cross[0], entry, now)
            return
        if in_batches:
            # covered, but not enough in-stream parity: the forwarded
            # symbols stand, nothing more can be done from here
            return
        claim_ts = now if nack_ts is None else nack_ts
        orphan = self.orphans.get(entry)
        if orphan is not None:
            orphan.nack_ts = max(orphan.nack_ts, claim_ts)
        else:
            orphan = _Orphan(now, claim_ts)
            self.orphans[entry] = orphan
            self.env.schedule(self.config.boundary_wait_us,
                              ("boundary", entry[0], entry[1], now))
            self.env.schedule(self.config.deadline_us,
                              ("orphan", entry[0], entry[1], now))

    def _forward_in_parity(self, batch: StoredBatch) -> None:
        needed = len(batch.lost)  # in-stream batches are never decoded in the DC
        if len(batch.parity) < needed:
            return
        port = self._flow_port[batch.members[0][0]]
        for idx in sorted(batch.parity):
            if len(batch.forwarded) >= needed:
                break
            if idx in batch.forwarded:
                continue
            batch.forwarded.add(idx)
            self.env.send(port.data_link, batch.parity[idx])
            self.run_log.bump("in_forwards")

    def _recover_via_cross(self, batch: StoredBatch, entry: Entry, now: int) -> None:
        # callers pass only undecoded entries and a DECODED batch has none,
        # so a cached resend never starts here
        batch.lost.add(entry)
        if batch.state in (DECODED, FAILED):
            return
        if batch.state == IDLE:
            # a batch leaves IDLE once, so its one task timer needs no generation
            batch.state = PENDING
            self.run_log.bump("tasks_opened")
            self.env.schedule(self.config.deadline_us, ("task", batch.batch_id))
        self._send_coop_requests(batch, now)
        self._try_decode(batch, now)

    def _send_coop_requests(self, batch: StoredBatch, now: int) -> None:
        lost_flows = {f for f, s in batch.lost}
        wanted: dict[str, list[Entry]] = {}
        for f, s, _ in batch.members:
            port = self._flow_port.get(f)
            if (port is None or f in lost_flows
                    or port.receiver_id in batch.requested
                    or (f, s) in batch.decoded):
                continue
            wanted.setdefault(port.receiver_id, []).append((f, s))
        # receiver-name order fixes the send order, and so the trace
        for rid in sorted(wanted):
            batch.requested.add(rid)
            entries = tuple(sorted(wanted[rid]))
            self.env.send(self._flow_port[entries[0][0]].data_link,
                          CoopRequest(entries=entries, send_ts_us=now))
            self.run_log.bump("coop_reqs")

    # -- helper responses -------------------------------------------------------

    def _on_coop_response(self, msg: CoopResponse, now: int) -> None:
        entry = msg.entry
        batch = None
        for bid in sorted(self.by_entry.get(entry, ())):
            b = self.store[bid]
            if b.cross:
                batch = b
                break
        if batch is None or batch.state in (DECODED, FAILED):
            self.run_log.bump("late_resps")
            return
        if msg.payload is None:
            return
        batch.decoded[entry] = msg.payload
        self._try_decode(batch, now)

    def _on_confirm_response(self, msg: Ctrl) -> None:
        entry = (msg.flow_id, msg.seq)
        orphan = self.orphans.get(entry)
        if orphan is None:
            return
        if msg.arg:
            orphan.confirmed = True
            # the receiver vouched for the hole itself, so coverage the
            # timestamp guard skipped earlier becomes fair game
            if self.by_entry.get(entry):
                del self.orphans[entry]
                self._recover_entry(entry, self.env.now, None)
        else:
            del self.orphans[entry]
            self.run_log.bump("suppressed")

    # -- decode and delivery ---------------------------------------------------

    def _try_decode(self, batch: StoredBatch, now: int) -> None:
        if batch.state != PENDING:
            return
        # the one decode gate: past it, decode_batch has parity for every unknown
        unknown = [(f, s) for f, s, _ in batch.members if (f, s) not in batch.decoded]
        if len(unknown) > len(batch.parity):
            return
        present = [SourceSymbol(f, s, batch.decoded[(f, s)])
                   for f, s, _ in batch.members if (f, s) in batch.decoded]
        for sym in decode_batch(present, list(batch.parity.values())):
            batch.decoded[(sym.flow_id, sym.seq)] = sym.payload
        batch.state = DECODED
        self.run_log.bump("tasks_decoded")
        for entry in sorted(batch.lost):
            self._send_data(entry, batch.decoded[entry], now)

    def _send_data(self, entry: Entry, payload: bytes, now: int) -> None:
        port = self._flow_port[entry[0]]
        self.env.send(port.data_link,
                      DataPacket(flow_id=entry[0], seq=entry[1],
                                 send_ts_us=now, payload=payload))
