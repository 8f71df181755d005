"""Minimal single-node event loop for driving protocol units in tests,
a spy on receivers' deliveries, and the one-flow scenario the protocol
units are built from."""

import heapq
import random

from caspr.scenario import apply_overrides, validate

UNIT = {
    "name": "unit",
    # less the default 2 s cooldown, senders stop at 10**12 us
    "duration_s": 1_000_002,
    "seeds": [0],
    "topology": {
        "direct": {"delay_ms": 75},
        "access": {"delay_ms": 5},
        "inter_dc": {"delay_ms": 45},
        "recovery": {"delay_ms": 5},
    },
    "flows": {"count": 1, "packet_size": 64, "interval_ms": 10, "on_s": 0.05},
    "coding": {"k_max": 4, "parity_cross": 2},
}


def unit_scenario(*sets):
    """The validated UNIT scenario, with ``path=value`` overrides as
    ``caspr run --set`` takes them.  Its RTT, repair deadline and
    detector idle timeout are 150 ms, its recovery horizon 600 ms and
    DC2's boundary wait 75 ms; the direct path has no jitter, so a
    receiver's reorder grace is 0."""
    return validate(apply_overrides(UNIT, list(sets)))


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


def tap_deliveries(on_data, deliveries):
    """Receiver._on_data, wrapped to append each first delivery of a seq
    to deliveries[flow] as (seq, ts, recovered), in delivery order: the
    per-packet trail the run log does not keep."""
    def tapped(recv, pkt, recovered, now):
        if not recv._delivered(pkt.seq):
            deliveries[recv.flow_id].append((pkt.seq, now, recovered))
        on_data(recv, pkt, recovered, now)
    return tapped
