"""Ingress-side encoder living in the first datacenter.

Duplicated sender traffic lands here and is folded into parity two ways:
cross-stream batches mix packets from different flows, in-stream
batches cover consecutive packets of a single flow.  All parity leaves
on the one link to the egress DC.  Only parity crosses it; source
packets are dropped once they have been mixed in, which is what keeps
inter-DC egress at r = parity/k of the data volume.

The scenario fixes the flow set, so the groups are built once: flow f
is in group f // k_max.  Cross-stream placement is round-robin over
k_max open queues per flow group with the constraint that no queue
holds two packets of the same flow.  When a packet's flow is already
present everywhere, the probe wraps around to the queue it started at
and flushes it early.  Flush timers bound the coding delay for queues
that fill slowly; a generation counter on each queue turns stale timers
into no-ops, so a timer never fires on a queue that fullness already
flushed, and a live timer's queue still holds the packet that armed it.
A cross queue is flushed by one rule, ``_flush``: coded if it holds at
least two packets, otherwise its lone packet is evicted uncoded.
"""

from __future__ import annotations

from .codec import encode_batch
from .scenario import CROSS_FLUSH_US, IN_FLUSH_US, INTER_DC_LINK, Scenario
from .wire import DataPacket


class _Queue:
    __slots__ = ("symbols", "flows", "gen")

    def __init__(self):
        # the batch's source packets, in the order encode_batch binds them
        self.symbols: list[DataPacket] = []
        self.flows: set[int] = set()
        self.gen = 0

    def reset(self) -> None:
        self.symbols = []
        self.flows = set()
        self.gen += 1


class IngressCoder:
    """The one DC1 node, ``dc1``: groups flows and runs both encoders."""

    def __init__(self, cfg: Scenario, run_log):
        self.name = "dc1"
        self.coding = cfg.coding
        # read on every packet, so copied once into plain attributes
        self.k_max = self.coding.k_max
        self.in_block = self.coding.in_block  # 0: in-stream coding off
        self.run_log = run_log
        self.out_link = INTER_DC_LINK  # toward the egress DC
        self.env = None  # attached by the simulator
        n, k = cfg.flows.count, self.k_max
        # flow f is in group f // k_max, so only the last group may be short
        self.group_sizes = [min(k, n - first) for first in range(0, n, k)]
        self.queues = [[_Queue() for _ in range(k)] for _ in self.group_sizes]
        # first probe of the round-robin lands on queue 0
        self._rr = [k - 1] * n
        self._in_queues = [_Queue() for _ in range(n)]
        self._next_batch = 0

    # -- event plumbing -------------------------------------------------

    def on_message(self, msg: DataPacket, link_name: str) -> None:
        # only senders' duplicated data reaches DC1: its one inbound
        # link per flow is the sender's, and a node sends only on its own
        flow_id = msg.flow_id
        if self.in_block:
            self._push_in(flow_id, msg)
        self._push_cross(flow_id // self.k_max, flow_id, msg)

    def on_timer(self, token) -> None:
        kind = token[0]
        if kind == "xq":
            _, group, q_index, gen = token
            q = self.queues[group][q_index]
            if q.gen == gen:
                self._flush(q)
        elif kind == "iq":
            _, flow_id, gen = token
            q = self._in_queues[flow_id]
            if q.gen == gen:
                self._emit(q, cross=False)

    # -- the placement algorithm ----------------------------------------

    def _push_cross(self, group: int, flow_id: int, pkt: DataPacket) -> None:
        queues = self.queues[group]
        n = len(queues)
        idx = self._rr[flow_id] = (self._rr[flow_id] + 1) % n
        start = idx
        q = queues[idx]
        while flow_id in q.flows:
            idx = self._rr[flow_id] = (idx + 1) % n
            q = queues[idx]
            if idx == start:
                # flow is in every queue; make room in the starting one
                self._flush(q)
                break
        symbols = q.symbols
        symbols.append(pkt)
        q.flows.add(flow_id)
        count = len(symbols)
        if count == 1:
            self.env.schedule(CROSS_FLUSH_US, ("xq", group, idx, q.gen))
        if count >= 2 and count == self.group_sizes[group]:
            self._emit(q, cross=True)

    def _push_in(self, flow_id: int, pkt: DataPacket) -> None:
        q = self._in_queues[flow_id]
        q.symbols.append(pkt)
        if len(q.symbols) == 1:
            self.env.schedule(IN_FLUSH_US, ("iq", flow_id, q.gen))
        if len(q.symbols) >= self.in_block:
            self._emit(q, cross=False)

    # -- emission --------------------------------------------------------

    def _flush(self, q: _Queue) -> None:
        """Code a cross queue early, or evict its lone packet uncoded."""
        if len(q.symbols) >= 2:
            self._emit(q, cross=True)
        else:
            self.run_log.bump("evictions")
            q.reset()

    def _emit(self, q: _Queue, cross: bool) -> None:
        batch_id = self._next_batch
        self._next_batch += 1
        num_parity = self.coding.parity_cross if cross else self.coding.parity_in
        for p in encode_batch(batch_id, q.symbols, num_parity, cross, self.env.now):
            self.env.send(self.out_link, p)
        q.reset()
