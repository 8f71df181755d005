"""Minimal single-node event loop for driving protocol units in tests,
and a run log that keeps every send and delivery it is told of."""

import heapq
import random

from caspr.metrics import RunLog


class StubEnv:
    """Stands in for the simulator: captures sends, runs timers manually."""

    def __init__(self, node=None, seed=7):
        self.node = node
        self.now = 0
        self.sent = []  # (link, msg, t)
        self.rng = random.Random(seed)
        self._heap = []
        self._n = 0

    def attach(self, node):
        self.node = node
        node.env = self
        return node

    def send(self, link, msg):
        self.sent.append((link, msg, self.now))

    def schedule(self, delay_us, token):
        self._n += 1
        heapq.heappush(self._heap, (self.now + delay_us, self._n, token))

    def run_until(self, t):
        while self._heap and self._heap[0][0] <= t:
            fire, _, token = heapq.heappop(self._heap)
            self.now = fire
            self.node.on_timer(token)
        self.now = t

    def pending(self):
        return [(t, tok) for t, _, tok in sorted(self._heap)]

    def on(self, link):
        return [m for l, m, _ in self.sent if l == link]

    def clear_sent(self):
        self.sent = []


class TappedLog(RunLog):
    """A RunLog that also keeps, through its record hooks, the per-packet
    trail the ledger itself drops: ``sends[flow]`` maps seq -> send time
    in send order, ``deliveries[flow]`` lists (seq, ts, recovered) in
    delivery order."""

    def __init__(self):
        super().__init__()
        self.sends: dict[int, dict[int, int]] = {}
        self.deliveries: dict[int, list[tuple[int, int, bool]]] = {}

    def register_flow(self, flow_id, packet_size):
        super().register_flow(flow_id, packet_size)
        self.sends[flow_id] = {}
        self.deliveries[flow_id] = []

    def record_send(self, flow_id, seq, ts_us):
        self.sends[flow_id][seq] = ts_us
        super().record_send(flow_id, seq, ts_us)

    def record_delivery(self, flow_id, seq, ts_us, recovered):
        self.deliveries[flow_id].append((seq, ts_us, recovered))
        super().record_delivery(flow_id, seq, ts_us, recovered)
