"""Egress-side recovery engine living in the second datacenter.

Parity from the ingress is stored here, unused unless a receiver
reports loss.  A batch expires one recovery horizon after it was
stored and leaves the store at the first message the engine handles
from then on: every batch shares the one horizon, so the store is a
FIFO that expires lazily (Varghese & Lauck's timing wheels) rather
than through one timer per batch.  Between messages only a task's
timer reads the store, and it never fires after its batch's expiry.
DC1 puts a packet in at most one batch of each coding kind, so an entry
has at most one cover per kind.  Every reactive recovery (a NACK, parity
for a claim nothing covered yet, a receiver's yes to the confirm query)
enters through ``_recover_entry``, which picks the cheapest path that
can still make the one-RTT budget:

  1. a payload already decoded earlier is resent from cache,
  2. an in-stream batch covering the entry has its parity forwarded
     (exactly as many symbols as there are known-lost packets),
  3. otherwise the covering cross-stream batch opens a cooperative
     task: the receiver of every other member flow is asked for its
     one entry, in data-link-name order, and the batch is decoded the
     moment the unknown count drops to the parity count.  Recovered
     payloads go out as ordinary data toward the NACKing receiver only.

Tasks expire one direct-path RTT after opening; whatever is still
unrecovered is counted failed-silent and late helper responses are
dropped.  A NACK with no covering parity first waits out the encoder
flush horizon (parity may be in flight), then asks the receiver whether
the hole is still open; a no drops the claim: flows stopping right at a
batch boundary otherwise leave phantom losses behind.

A loss claim is credible only once the direct path has had its chance:
parity may vouch for a packet only if that packet's send time plus the
direct-path latency bound lies at or before the moment the claim left
the receiver.  Burst-boundary timer probes name sequence numbers the
sender has not produced yet, or produced so recently that they are
still in flight; batch metadata carries per-member send times exactly
so such claims can be told apart from real losses, which are always
reported after the packet had time to arrive.  A receiver's yes to the
confirm query says only that a later packet arrived, which reordering
explains too, so it is judged like a NACK sent with the answer (RACK's
reordering window, RFC 8985 section 6.2).  Inadmissible claims stay in
the orphan flow; an ACK retracts the claims below the receiver's
frontier, which the direct path has since satisfied.

Each flow has one receiver, and the engine knows a receiver only by
its flow: it reaches flow f's receiver on ``flow_links(f)``.  Three
NACKs from the same receiver with no ACK in between flip it to
proactive mode: cross parity that covers the receiver opens recovery
for its unclaimed entries without waiting for NACKs that a dead direct
path may not be able to provoke in time.  The flip opens them in every
cross batch already stored, and cross parity arriving while the mode
lasts opens them in its batch.
"""

from __future__ import annotations

from collections import deque

from .codec import decode_batch
from .scenario import FlowLinks, Scenario, flow_links
from .wire import (
    Ack,
    CTRL_CONFIRM_QUERY,
    CTRL_CONFIRM_RESP,
    CodedPacket,
    CoopRequest,
    CoopResponse,
    Ctrl,
    DataPacket,
    Entry,
    Nack,
)

IDLE, PENDING, DECODED, FAILED = "idle", "pending", "decoded", "failed"

# consecutive un-ACKed NACKs that flip a receiver to proactive mode
PROACTIVE_AFTER = 3


class StoredBatch:
    __slots__ = ("batch_id", "cross", "entries", "member_ts", "expires_at",
                 "parity", "decoded", "lost", "requested", "forwarded", "state")

    def __init__(self, batch_id: int, cross: bool, entries: tuple[Entry, ...],
                 member_ts: tuple[int, ...], expires_at: int):
        self.batch_id = batch_id
        self.cross = cross
        self.entries = entries      # (flow_id, seq) per member
        self.member_ts = member_ts  # each member's send time, aligned with entries
        self.expires_at = expires_at  # stored time + horizon; covers nothing from then on
        self.parity: dict[int, CodedPacket] = {}
        self.decoded: dict[Entry, bytes] = {}
        self.lost: set[Entry] = set()
        self.requested: set[Entry] = set()  # members asked for by their receivers
        self.forwarded: set[int] = set()
        self.state = IDLE


class _Orphan:
    """A loss claim no admissible stored parity covers yet.  Its timers
    carry it and act only while it is still the entry's claim."""
    __slots__ = ("claim_ts",)

    def __init__(self, claim_ts: int):
        self.claim_ts = claim_ts    # send time of the latest claim, NACK or yes


class EgressRecovery:
    """The one DC2 node, ``dc2``."""

    def __init__(self, cfg: Scenario, run_log):
        self.name = "dc2"
        self.deadline_us = cfg.deadline_us  # cooperative-task budget
        self.boundary_wait_us = cfg.boundary_wait_us  # before querying the receiver
        self.horizon_us = cfg.horizon_us  # how long a batch stays in the store
        # a claim waits out the direct path's one-way delay and jitter bound
        self.claim_owd_us = cfg.topology.direct.max_delay_us
        self.run_log = run_log
        self.env = None
        self.store: dict[int, StoredBatch] = {}
        # the stored batches in store order, so in expiry order too
        self._expiry: deque[StoredBatch] = deque()
        # the stored batch covering each entry, one map per coding kind:
        # DC1 puts a packet in one cross queue (or evicts it) and in one
        # in-stream queue, so no entry has a second cover of either kind
        self.cross_of: dict[Entry, StoredBatch] = {}
        self.in_of: dict[Entry, StoredBatch] = {}
        self.orphans: dict[Entry, _Orphan] = {}
        # each flow has one receiver: flow f's links and the NACKs its
        # receiver sent since its last ACK, by flow id
        self._links: list[FlowLinks] = [flow_links(f) for f in range(cfg.flows.count)]
        self._nacks_since_ack = [0] * cfg.flows.count
        self._proactive: set[int] = set()  # flows whose receiver is in proactive mode

    # -- dispatch ---------------------------------------------------------

    def on_message(self, msg, link_name: str) -> None:
        now = self.env.now
        # the store expires lazily: nothing reads it between messages
        # but the task timer, whose delay stops at its batch's expiry
        expiry = self._expiry
        while expiry and expiry[0].expires_at <= now:
            self._expire_batch(expiry.popleft())
        if isinstance(msg, CodedPacket):
            self._on_coded(msg, now)
        elif isinstance(msg, Nack):
            self._on_nack(msg, now)
        elif isinstance(msg, Ack):
            self._on_ack(msg)
        elif isinstance(msg, CoopResponse):
            self._on_coop_response(msg, now)
        elif isinstance(msg, Ctrl) and msg.kind == CTRL_CONFIRM_RESP:
            self._on_confirm_response(msg, now)

    def on_timer(self, token) -> None:
        kind = token[0]
        if kind == "task":
            batch = self.store.get(token[1])
            if batch is not None:
                self._give_up(batch)
        elif kind == "boundary":
            _, (f, s), orphan = token
            if self.orphans.get((f, s)) is orphan:
                self.env.send(self._links[f].down_ctrl,
                              Ctrl(kind=CTRL_CONFIRM_QUERY, flow_id=f, seq=s,
                                   send_ts_us=self.env.now))
                self.run_log.bump("confirm_queries")
        elif kind == "orphan":
            _, entry, orphan = token
            if self.orphans.get(entry) is orphan:
                del self.orphans[entry]
                self.run_log.bump("failed_silent")

    # -- parity intake ------------------------------------------------------

    def _on_coded(self, msg: CodedPacket, now: int) -> None:
        batch = self.store.get(msg.batch_id)
        if batch is None:
            # every copy of a batch carries the same members and their
            # send times, so the first to arrive stores them all
            batch = StoredBatch(msg.batch_id, msg.cross,
                                tuple([(f, s) for f, s, _ in msg.members]),
                                msg.member_ts, now + self.horizon_us)
            self.store[msg.batch_id] = batch
            self._expiry.append(batch)
            covers = self.cross_of if msg.cross else self.in_of
            for e in batch.entries:
                covers[e] = batch
        if msg.parity_index in batch.parity:
            return
        batch.parity[msg.parity_index] = msg
        # parity may resolve entries that were NACKed before coverage
        # existed; most batches arrive with no claim pending at all.  A
        # pending claim is inadmissible for every older cover at its
        # claim_ts (each claim and each batch re-checks it), so only this
        # batch can resolve it, and if it cannot the claim stays as it was
        orphans = self.orphans
        if orphans:
            for e in batch.entries:
                orphan = orphans.get(e)
                if orphan is not None:
                    self._recover_entry(e, now, orphan.claim_ts)
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

    def _expire_batch(self, batch: StoredBatch) -> None:
        # the expiry queue is the only way out of the store
        del self.store[batch.batch_id]
        self._give_up(batch)
        covers = self.cross_of if batch.cross else self.in_of
        for e in batch.entries:
            del covers[e]

    # -- loss reports ---------------------------------------------------------

    def _on_nack(self, msg: Nack, now: int) -> None:
        self._nacks_since_ack[msg.flow_id] += 1
        if self._nacks_since_ack[msg.flow_id] == PROACTIVE_AFTER:
            self._proactive.add(msg.flow_id)
            # parity already in the store covers losses the dead direct
            # path can no longer provoke NACKs for; open those too
            for bid in sorted(self.store):
                self._open_proactive(self.store[bid], {msg.flow_id}, now)
        for entry in msg.entries:
            self._recover_entry(entry, now, msg.send_ts_us)

    def _on_ack(self, msg: Ack) -> None:
        self._nacks_since_ack[msg.flow_id] = 0
        self._proactive.discard(msg.flow_id)
        # everything below the receiver's frontier reached it (or was
        # given up on); pending claims there are moot
        stale = [e for e in self.orphans
                 if e[0] == msg.flow_id and e[1] < msg.frontier]
        for e in stale:
            del self.orphans[e]
            self.run_log.bump("claims_retracted")

    def _cover(self, covers: dict[Entry, StoredBatch], entry: Entry,
               claim_ts: int) -> StoredBatch | None:
        """The entry's batch in ``covers``, if the direct path had delivered
        the entry by ``claim_ts`` unless it dropped it."""
        batch = covers.get(entry)
        if batch is None:
            return None
        sent = batch.member_ts[batch.entries.index(entry)]
        return batch if sent + self.claim_owd_us <= claim_ts else None

    def _recover_entry(self, entry: Entry, now: int, claim_ts: int) -> None:
        """Every reactive recovery starts here: a NACK, parity landing on
        an orphan claim and a receiver's yes alike, each claim judged at
        the time it left the receiver."""
        cross = self._cover(self.cross_of, entry, claim_ts)
        in_batch = self._cover(self.in_of, entry, claim_ts)
        if cross is None and in_batch is None:
            self._orphan(entry, claim_ts)
            return
        # admissible coverage takes over any pending orphan claim
        self.orphans.pop(entry, None)
        # cheapest first: cached payload beats parity forwarding beats
        # opening a cooperative decode
        if cross is not None and entry in cross.decoded:
            self._send_data(entry, cross.decoded[entry], now)
            self.run_log.bump("cache_resends")
            return
        if in_batch is not None:
            in_batch.lost.add(entry)
            if len(in_batch.parity) >= len(in_batch.lost):
                self._forward_in_parity(in_batch)
                return
        if cross is not None:
            self._recover_via_cross(cross, entry, now)
        # otherwise covered, but not enough in-stream parity: the
        # forwarded symbols stand, nothing more can be done from here

    def _orphan(self, entry: Entry, claim_ts: int) -> None:
        """Hold a claim no admissible parity covers yet; only the first
        claim arms the boundary and orphan timers."""
        orphan = self.orphans.get(entry)
        if orphan is not None:
            orphan.claim_ts = max(orphan.claim_ts, claim_ts)
            return
        orphan = self.orphans[entry] = _Orphan(claim_ts)
        self.env.schedule(self.boundary_wait_us, ("boundary", entry, orphan))
        self.env.schedule(self.deadline_us, ("orphan", entry, orphan))

    def _forward_in_parity(self, batch: StoredBatch) -> None:
        needed = len(batch.lost)  # in-stream batches are never decoded in the DC
        if len(batch.parity) < needed:
            return
        link = self._links[batch.entries[0][0]].down
        for idx in sorted(batch.parity):
            if len(batch.forwarded) >= needed:
                break
            if idx in batch.forwarded:
                continue
            batch.forwarded.add(idx)
            self.env.send(link, batch.parity[idx])
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
            # the batch may leave the store first; its task gives up then
            self.env.schedule(min(self.deadline_us, batch.expires_at - now),
                              ("task", batch.batch_id))
        self._send_coop_requests(batch, now)
        self._try_decode(batch, now)

    def _send_coop_requests(self, batch: StoredBatch, now: int) -> None:
        # a cross batch holds at most one entry per flow, so each helper
        # is asked for exactly one: its member, unless that one is lost
        wanted = []
        for e in batch.entries:
            if e in batch.lost or e in batch.requested or e in batch.decoded:
                continue
            wanted.append((self._links[e[0]].down, e))
        # data-link-name order fixes the send order, and so the trace
        for link, e in sorted(wanted):
            batch.requested.add(e)
            self.env.send(link, CoopRequest(entries=(e,), send_ts_us=now))
            self.run_log.bump("coop_reqs")

    # -- helper responses -------------------------------------------------------

    def _on_coop_response(self, msg: CoopResponse, now: int) -> None:
        entry = msg.entry
        batch = self.cross_of.get(entry)
        if batch is None or batch.state in (DECODED, FAILED):
            self.run_log.bump("late_resps")
            return
        if msg.payload is None:
            return
        batch.decoded[entry] = msg.payload
        self._try_decode(batch, now)

    def _on_confirm_response(self, msg: Ctrl, now: int) -> None:
        entry = (msg.flow_id, msg.seq)
        if entry not in self.orphans:
            return
        if msg.arg:
            # judged at the answer's send time, not at DC2's now: the
            # receiver saw the hole when it answered, and a packet still
            # in flight then may have landed while the answer travelled
            self._recover_entry(entry, now, msg.send_ts_us)
        else:
            del self.orphans[entry]
            self.run_log.bump("suppressed")

    # -- decode and delivery ---------------------------------------------------

    def _try_decode(self, batch: StoredBatch, now: int) -> None:
        if batch.state != PENDING:
            return
        # the one decode gate: past it, decode_batch has parity for every
        # unknown.  decoded holds only entries of this batch (helpers
        # answer for its members, decode adds the rest), so the
        # difference counts the unknowns
        if len(batch.entries) - len(batch.decoded) > len(batch.parity):
            return
        batch.decoded.update(decode_batch(batch.decoded, list(batch.parity.values())))
        batch.state = DECODED
        self.run_log.bump("tasks_decoded")
        for entry in sorted(batch.lost):
            self._send_data(entry, batch.decoded[entry], now)

    def _send_data(self, entry: Entry, payload: bytes, now: int) -> None:
        self.env.send(self._links[entry[0]].down,
                      DataPacket(flow_id=entry[0], seq=entry[1],
                                 send_ts_us=now, payload=payload))
