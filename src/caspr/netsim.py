"""Deterministic discrete-event network simulator.

Virtual time is integer microseconds; nothing reads the wall clock.
Events sit in a min-heap keyed by (time, origin index, per-origin
sequence number).  Origin indices are assigned by sorting origin names
when the topology freezes, so two runs wired in different node orders
process identical event sequences: the tiebreak is a schedule counter,
just scoped per origin instead of global.

Every link owns two private random streams (loss and jitter), seeded by
hashing the master seed with the link's name, so adding or reseeding
one link never perturbs the draws of another.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from typing import IO, Protocol

from . import wire

_DELIVER = 0
_TIMER = 1


def derive_rng(master_seed: int, *scope: str) -> random.Random:
    """Independent stream for one purpose, stable across runs and platforms."""
    material = f"{master_seed}/" + "/".join(scope)
    digest = hashlib.sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class InvariantViolation(RuntimeError):
    """A run broke a property every run must hold."""


class LossModel(Protocol):
    def drop(self, now_us: int) -> bool: ...


class Bernoulli:
    """Independent loss with fixed probability."""

    def __init__(self, p: float, rng: random.Random):
        self.p = p
        self.rng = rng

    def drop(self, now_us: int) -> bool:
        if self.p <= 0.0:
            return False
        return self.rng.random() < self.p


class GilbertElliott:
    """Two-state burst model: GOOD/BAD with per-state loss rates.

    The loss draw uses the current state, then the state transitions,
    so a packet can be lost on the step that leaves GOOD.
    """

    GOOD, BAD = 0, 1

    def __init__(self, p_good_bad: float, p_bad_good: float,
                 loss_good: float, loss_bad: float, rng: random.Random):
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss = (loss_good, loss_bad)
        self.state = self.GOOD
        self.rng = rng

    def drop(self, now_us: int) -> bool:
        lost = self.rng.random() < self.loss[self.state]
        flip = self.p_good_bad if self.state == self.GOOD else self.p_bad_good
        if self.rng.random() < flip:
            self.state ^= 1
        return lost


class GoogleBurst:
    """Burst loss shaped like the wide-area measurements behind the
    defaults: a burst starts with probability p_first and each further
    packet stays lost with probability p_cont (mean burst 1/(1-p_cont),
    so 2.0 packets at the 0.5 default)."""

    def __init__(self, rng: random.Random, p_first: float = 0.01, p_cont: float = 0.5):
        self.p_first = p_first
        self.p_cont = p_cont
        self.prev_lost = False
        self.rng = rng

    def drop(self, now_us: int) -> bool:
        p = self.p_cont if self.prev_lost else self.p_first
        self.prev_lost = self.rng.random() < p
        return self.prev_lost


class ScheduledOutage:
    """Drops everything inside [start, end) windows of virtual time."""

    def __init__(self, intervals_us: list[tuple[int, int]]):
        self.intervals = sorted(intervals_us)

    def drop(self, now_us: int) -> bool:
        for start, end in self.intervals:
            if start <= now_us < end:
                return True
            if now_us < start:
                break
        return False


class Composite:
    """Drop if any child model drops.  Children still consume their
    draws in order, keeping streams aligned across configurations."""

    def __init__(self, models: list[LossModel]):
        self.models = models

    def drop(self, now_us: int) -> bool:
        dropped = False
        for m in self.models:
            if m.drop(now_us):
                dropped = True
        return dropped


class Link:
    def __init__(self, name: str, src: str, dst: str, delay_us: int,
                 jitter_us: int, loss: LossModel | None,
                 bandwidth_bps: int | None, jitter_rng: random.Random):
        if delay_us < 0 or jitter_us < 0:
            raise ValueError(f"link {name}: negative delay or jitter")
        if jitter_us > delay_us:
            raise ValueError(f"link {name}: jitter bound exceeds base delay")
        self.name = name
        self.src = src
        self.dst = dst
        self.delay_us = delay_us
        self.jitter_us = jitter_us
        self.loss = loss
        self.bandwidth_bps = bandwidth_bps
        self.jitter_rng = jitter_rng
        self.tx_free_us = 0
        self.sent_count = 0
        self.sent_bytes = 0
        self.delivered_count = 0
        self.delivered_bytes = 0
        self.dropped_count = 0
        self.dropped_bytes = 0
        self.inflight_count = 0
        self.inflight_bytes = 0
        self.drop_log: list[int] = []  # seqs of the dropped DataPackets


class Node(Protocol):
    def on_message(self, msg: wire.Message, link_name: str) -> None: ...
    def on_timer(self, token: tuple) -> None: ...


class SimEnv:
    """A node's window into the simulator."""

    def __init__(self, sim: Simulator, name: str):
        self._sim = sim
        self.name = name
        self.rng = derive_rng(sim.master_seed, "node", name)

    @property
    def now(self) -> int:
        return self._sim.now

    def send(self, link_name: str, msg: wire.Message) -> None:
        self._sim._send(link_name, msg)

    def schedule(self, delay_us: int, token: tuple) -> None:
        self._sim._schedule_timer(self.name, delay_us, token)


class Simulator:
    def __init__(self, master_seed: int, trace_file: IO[str] | None = None):
        self.master_seed = master_seed
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.trace_file = trace_file
        self._heap: list = []
        self._origin_idx: dict[str, int] = {}
        self._origin_seq: list[int] = []  # next sequence number per origin index
        self._prestart: list[tuple[int, str, tuple]] = []
        self._frozen = False

    def add_node(self, name: str, node: Node) -> SimEnv:
        if self._frozen:
            raise RuntimeError("topology is frozen")
        if name in self.nodes or name in self.links:
            raise ValueError(f"duplicate name {name!r}")
        self.nodes[name] = node
        env = SimEnv(self, name)
        node.env = env
        return env

    def add_link(self, name: str, src: str, dst: str, *, delay_us: int,
                 jitter_us: int = 0, loss: LossModel | None = None,
                 bandwidth_bps: int | None = None) -> Link:
        if self._frozen:
            raise RuntimeError("topology is frozen")
        if name in self.links or name in self.nodes:
            raise ValueError(f"duplicate name {name!r}")
        link = Link(name, src, dst, delay_us, jitter_us, loss, bandwidth_bps,
                    derive_rng(self.master_seed, "link", name, "jitter"))
        self.links[name] = link
        return link

    def loss_rng(self, link_name: str) -> random.Random:
        return derive_rng(self.master_seed, "link", link_name, "loss")

    def at(self, t_us: int, node_name: str, token: tuple) -> None:
        """Schedule a timer before the run starts."""
        if self._frozen:
            raise RuntimeError("topology is frozen")
        self._prestart.append((t_us, node_name, token))

    def _freeze(self) -> None:
        names = sorted(self.nodes) + sorted(self.links)
        self._origin_idx = {n: i for i, n in enumerate(names)}
        self._origin_seq = [0] * len(names)
        self._frozen = True
        for t_us, node_name, token in sorted(self._prestart):
            if node_name not in self.nodes:
                raise ValueError(f"unknown node {node_name!r}")
            self._push(t_us, self._origin_idx[node_name], (_TIMER, node_name, token))
        self._prestart.clear()

    def _push(self, t_us: int, idx: int, event: tuple) -> None:
        seq = self._origin_seq[idx]
        self._origin_seq[idx] = seq + 1
        heapq.heappush(self._heap, (t_us, idx, seq, event))

    def _schedule_timer(self, node_name: str, delay_us: int, token: tuple) -> None:
        if delay_us < 0:
            raise ValueError("cannot schedule into the past")
        self._push(self.now + delay_us, self._origin_idx[node_name],
                   (_TIMER, node_name, token))

    def _send(self, link_name: str, msg: wire.Message) -> None:
        link = self.links.get(link_name)
        if link is None:
            raise ValueError(f"unknown link {link_name!r}")
        size = wire.wire_size(msg)
        link.sent_count += 1
        link.sent_bytes += size
        if link.loss is not None and link.loss.drop(self.now):
            link.dropped_count += 1
            link.dropped_bytes += size
            if isinstance(msg, wire.DataPacket):
                link.drop_log.append(msg.seq)
            self._trace(link, msg, size, None)
            return
        delay = link.delay_us
        if link.jitter_us:
            # randint(a, b) is randrange(a, b + 1): the same draws, one call less
            delay += link.jitter_rng.randrange(-link.jitter_us, link.jitter_us + 1)
        queue_us = 0
        if link.bandwidth_bps:
            tx_us = (size * 8 * 1_000_000) // link.bandwidth_bps
            start = max(self.now, link.tx_free_us)
            link.tx_free_us = start + tx_us
            queue_us = (start - self.now) + tx_us
        arrive = self.now + queue_us + max(delay, 0)
        link.inflight_count += 1
        link.inflight_bytes += size
        self._push(arrive, self._origin_idx[link.name], (_DELIVER, link, msg, size))
        self._trace(link, msg, size, arrive)

    def _trace(self, link: Link, msg: wire.Message, size: int, arrive: int | None) -> None:
        if self.trace_file is None:
            return
        rec = {"ts": self.now, "link": link.name, "type": type(msg).__name__,
               "size": size,
               "outcome": "delivered" if arrive is not None else "dropped",
               "arrive_ts": arrive}
        if isinstance(msg, wire.DataPacket):
            rec["flow"] = msg.flow_id
            rec["seq"] = msg.seq
        elif isinstance(msg, wire.CodedPacket):
            rec["batch"] = msg.batch_id
        self.trace_file.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")

    def run(self, until_us: int) -> None:
        if not self._frozen:
            self._freeze()
        heap = self._heap
        while heap and heap[0][0] <= until_us:
            t, _idx, _seq, event = heapq.heappop(heap)
            self.now = t
            if event[0] == _DELIVER:
                _, link, msg, size = event
                link.inflight_count -= 1
                link.inflight_bytes -= size
                link.delivered_count += 1
                link.delivered_bytes += size
                self.nodes[link.dst].on_message(msg, link.name)
            else:
                _, node_name, token = event
                self.nodes[node_name].on_timer(token)
        self.now = until_us

    def check_conservation(self) -> None:
        """Every byte sent is delivered, dropped, or still in flight."""
        for link in self.links.values():
            if link.sent_count != (link.delivered_count + link.dropped_count
                                   + link.inflight_count):
                raise InvariantViolation(f"link {link.name}: packet count not conserved")
            if link.sent_bytes != (link.delivered_bytes + link.dropped_bytes
                                   + link.inflight_bytes):
                raise InvariantViolation(f"link {link.name}: bytes not conserved")
