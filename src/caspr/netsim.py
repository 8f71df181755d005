"""Deterministic discrete-event network simulator.

Virtual time is integer microseconds; nothing reads the wall clock.
Events sit in a min-heap of flat tuples that start ``(time, origin
index, per-origin seq, ...)``: a node's timer is ``(time, idx, seq,
token)`` and a link's delivery ``(time, idx, seq, link, msg, size)``.
Origin indices are assigned by sorting origin names when the topology
freezes, nodes first and then links, so two runs wired in different
node orders process identical event sequences: the tiebreak is a
schedule counter, just scoped per origin instead of global, and no two
entries ever compare past it.

A link defines no loss process: it takes a ``drop(now_us) -> bool``
when it is added (``scenario``'s loss records build them), or None if
it cannot drop.  ``SimEnv.send`` is the one send implementation: it
sizes the message through ``wire.wire_size``, calls the link's drop,
draws its jitter, keeps the link's sent and dropped counters and
writes the trace line; the run loop keeps the delivered ones.  Nothing
counts a message in flight as it goes: ``check_conservation`` counts
the deliveries still pending in the heap, per link, and stores them as
the link's in-flight totals, which are valid after that check.  A node
sets a timer only through ``SimEnv.schedule``; ``Simulator.at`` sets
one before the run.

Handlers are bound once, at freeze: each link keeps its destination's
``on_message``, and the simulator keeps each node's ``on_timer`` in a
list indexed by origin, so the loop looks nothing up by name.  Each
node's env is bound to the links leaving it, so a node sends only on
its own links.  Those bound methods close a cycle (node -> env ->
simulator), and ``close()`` breaks it by dropping the nodes, the
handlers and the pending events.

Every link has two private random streams, seeded by hashing the
master seed with the link's name (SHA-256), so adding or reseeding one
link never perturbs the draws of another: the jitter stream, whose
``getrandbits`` the link keeps from the start, and the loss stream,
``Simulator.loss_rng``, that the caller builds the link's drop from.

A run stops on a marker: a pseudo-link delivery due at the run's end
whose origin index follows every real one, so it pops after every
event due then, and the loop tests no time per event.

``ahead.run`` splits a run across two processes: the nodes nothing
flows back into run ahead in a forked one and stream their deliveries
to the rest.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from operator import attrgetter
from typing import IO, Callable, Protocol

from . import wire

# the interpreter's builtin SHA-256, so a cold start skips hashlib's
# OpenSSL import; hashlib only where a build lacks the builtin
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


def derive_rng(master_seed: int, *scope: str) -> random.Random:
    """Independent stream for one purpose, stable across runs and platforms."""
    material = f"{master_seed}/" + "/".join(scope)
    digest = sha256(material.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class InvariantViolation(RuntimeError):
    """A run broke a property every run must hold."""


class _StopRun(Exception):
    """Raised by the marker at a run's end."""


class _Marker:
    """The run loop's marker: a pseudo-link whose delivery stops the run.

    Its origin index follows every node's and link's, so it pops after
    every event due at its time.  ``deliver`` is a method of the class,
    so a marker in the heap holds no cycle back to what it calls."""

    __slots__ = ("delivered_count", "delivered_bytes")
    name = "marker"

    def __init__(self):
        self.delivered_count = self.delivered_bytes = 0

    def deliver(self, msg, link_name) -> None:
        raise _StopRun


class Link:
    def __init__(self, name: str, src: str, dst: str, delay_us: int,
                 jitter_us: int, drop: Callable[[int], bool] | None,
                 getrandbits: Callable[[int], int]):
        if delay_us < 0 or jitter_us < 0:
            raise ValueError(f"link {name}: negative delay or jitter")
        if jitter_us > delay_us:
            raise ValueError(f"link {name}: jitter bound exceeds base delay")
        self.name = name
        self.src = src
        self.dst = dst
        self.delay_us = delay_us
        self.jitter_us = jitter_us
        self.drop = drop  # drop(now_us) -> bool, drawn on every send; None: lossless
        self.getrandbits = getrandbits  # the jitter stream's draw
        # randint(-j, j) draws getrandbits(bits) until the value is below span
        self.jitter_span = 2 * jitter_us + 1
        self.jitter_bits = self.jitter_span.bit_length()
        self.deliver = None      # the destination's on_message, bound at freeze
        # where its deliveries go: the simulator's heap, bound at freeze
        # (ahead.run points a link leaving its group at an outbox)
        self.heap = None
        self.idx = -1        # origin index, assigned at freeze
        self.seq = count()   # per-origin tiebreak for its deliveries
        self.sent_count = 0
        self.sent_bytes = 0
        self.delivered_count = 0
        self.delivered_bytes = 0
        self.dropped_count = 0
        self.dropped_bytes = 0
        # the deliveries pending in the event heap, counted by
        # check_conservation and valid only after it
        self.inflight_count = 0
        self.inflight_bytes = 0
        self.on_drop = None  # if set, called as on_drop(msg, now) on each drop


class Node(Protocol):
    def on_message(self, msg: wire.Message, link_name: str) -> None: ...
    def on_timer(self, token: tuple) -> None: ...


class SimEnv:
    """A node's window into the simulator."""

    def __init__(self, sim: Simulator, name: str):
        self._sim = sim
        self._heap = sim._heap
        self._links: dict[str, Link] = {}  # the links leaving this node, bound at freeze
        self._idx = -1  # origin index, assigned at freeze
        self._seq = count()
        self.name = name
        self.rng = derive_rng(sim.master_seed, "node", name)

    # the simulator's clock, read without a Python frame
    now = property(attrgetter("_sim.now"))

    def send(self, link_name: str, msg: wire.Message) -> None:
        try:
            link = self._links[link_name]
        except KeyError:
            raise ValueError(f"node {self.name!r} has no link {link_name!r}") from None
        size = wire.wire_size(msg)
        link.sent_count += 1
        link.sent_bytes += size
        sim = self._sim
        now = sim.now
        drop = link.drop
        if drop is not None and drop(now):
            link.dropped_count += 1
            link.dropped_bytes += size
            if link.on_drop is not None:
                link.on_drop(msg, now)
            if sim.trace_file is not None:
                sim._trace(link, msg, size, None)
            return
        # Link rejects jitter above the delay, so arrive is never before now
        arrive = now + link.delay_us
        if link.jitter_us:
            # randint(-j, j) as CPython 3.11 draws it, without its two frames
            getrandbits = link.getrandbits
            r = getrandbits(link.jitter_bits)
            while r >= link.jitter_span:
                r = getrandbits(link.jitter_bits)
            arrive += r - link.jitter_us
        heappush(link.heap, (arrive, link.idx, next(link.seq), link, msg, size))
        if sim.trace_file is not None:
            sim._trace(link, msg, size, arrive)

    def schedule(self, delay_us: int, token: tuple) -> None:
        if delay_us < 0:
            raise ValueError("cannot schedule into the past")
        heappush(self._heap,
                 (self._sim.now + delay_us, self._idx, next(self._seq), token))


class Simulator:
    def __init__(self, master_seed: int, trace_file: IO[str] | None = None):
        self.master_seed = master_seed
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.trace_file = trace_file
        if trace_file is not None:
            # only a traced run writes JSON, so only it imports json
            import json
            self._encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        self._heap: list = []
        self._on_timer: list = []  # each node's on_timer, by origin index
        self._prestart: list[tuple[int, str, tuple]] = []
        self._markers = count()  # tiebreak of the run loop's markers
        self._frozen = False
        self._split = False  # set by ahead.run

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
                 jitter_us: int = 0, drop: Callable[[int], bool] | None = None) -> Link:
        if self._frozen:
            raise RuntimeError("topology is frozen")
        if name in self.links or name in self.nodes:
            raise ValueError(f"duplicate name {name!r}")
        link = Link(name, src, dst, delay_us, jitter_us, drop,
                    derive_rng(self.master_seed, "link", name, "jitter").getrandbits)
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
        names = sorted(self.nodes)
        for idx, name in enumerate(names):
            self.nodes[name].env._idx = idx
        self._on_timer = [self.nodes[name].on_timer for name in names]
        for idx, name in enumerate(sorted(self.links), len(names)):
            link = self.links[name]
            for end in (link.src, link.dst):
                if end not in self.nodes:
                    raise ValueError(f"link {name}: unknown node {end!r}")
            link.idx = idx
            link.deliver = self.nodes[link.dst].on_message
            link.heap = self._heap
            self.nodes[link.src].env._links[name] = link
        self._frozen = True
        for t_us, node_name, token in sorted(self._prestart):
            if node_name not in self.nodes:
                raise ValueError(f"unknown node {node_name!r}")
            env = self.nodes[node_name].env
            heappush(self._heap, (t_us, env._idx, next(env._seq), token))
        self._prestart.clear()

    def close(self) -> None:
        """Drop the nodes, their bound handlers and the pending events.

        Each node reaches the simulator through its env, so until then a
        finished run is freed only by the cyclic GC.  The links and their
        counters stay readable; the simulator cannot run again.
        """
        self.nodes.clear()
        self._on_timer = []
        self._heap.clear()
        for link in self.links.values():
            link.deliver = None

    def _trace(self, link: Link, msg: wire.Message, size: int, arrive: int | None) -> None:
        rec = {"ts": self.now, "link": link.name, "type": type(msg).__name__,
               "size": size,
               "outcome": "delivered" if arrive is not None else "dropped",
               "arrive_ts": arrive}
        if isinstance(msg, wire.DataPacket):
            rec["flow"] = msg.flow_id
            rec["seq"] = msg.seq
        elif isinstance(msg, wire.CodedPacket):
            rec["batch"] = msg.batch_id
        self.trace_file.write(self._encode(rec) + "\n")

    def run(self, until_us: int) -> None:
        """Run every event due at or before until_us."""
        self._ready()
        self._loop(until_us)

    def _ready(self) -> None:
        if not self._frozen:
            self._freeze()
        if self._split:
            raise RuntimeError("a split run cannot be continued")

    def _mark(self, t_us: int, marker: _Marker) -> None:
        heappush(self._heap, (t_us, len(self._on_timer) + len(self.links),
                              next(self._markers), marker, None, 0))

    def _loop(self, until_us: int) -> None:
        self._mark(until_us, _Marker())
        heap = self._heap
        on_timer = self._on_timer
        n_nodes = len(on_timer)  # node origins come before link origins
        try:
            while True:
                event = heappop(heap)
                self.now = event[0]
                idx = event[1]
                if idx < n_nodes:
                    on_timer[idx](event[3])
                else:
                    _, _, _, link, msg, size = event
                    link.delivered_count += 1
                    link.delivered_bytes += size
                    link.deliver(msg, link.name)
        except _StopRun:
            pass

    def check_conservation(self) -> None:
        """Every byte sent is delivered, dropped, or still in flight.

        In flight means a delivery still pending in the event heap: this
        counts those entries per link and stores the totals as the link's
        ``inflight_count`` and ``inflight_bytes`` before checking, so a
        delivery that left the heap without being delivered is caught.
        """
        links = self.links.values()
        for link in links:
            link.inflight_count = 0
            link.inflight_bytes = 0
        for event in self._heap:
            if len(event) == 6:  # a delivery; a timer is a 4-tuple
                link = event[3]
                link.inflight_count += 1
                link.inflight_bytes += event[5]
        for link in links:
            if link.sent_count != (link.delivered_count + link.dropped_count
                                   + link.inflight_count):
                raise InvariantViolation(f"link {link.name}: packet count not conserved")
            if link.sent_bytes != (link.delivered_bytes + link.dropped_bytes
                                   + link.inflight_bytes):
                raise InvariantViolation(f"link {link.name}: bytes not conserved")
