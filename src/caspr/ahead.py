"""One seed's run split across two processes.

Nothing in caspr flows back into the senders or DC1: DC1 only receives
the senders' duplicates and sends parity one way to DC2.  So that half
of a run can be simulated ahead of the rest, a conservative parallel
simulation with lookahead (Chandy and Misra, 1979; Fujimoto, 1990).
The half is derived from the links, not named: the feed-forward
``group`` is every node with no inbound link, then every node whose
inbound links all come from the group.  Its ``lookahead`` is the least
delay minus jitter of a link leaving it: a delivery the group sends at
t arrives outside it no earlier than t plus that.

``run`` forks a process that runs the group.  Every half lookahead of
simulated time, after every event due then, it sends one chunk: its
watermark (that time), the deliveries it pushed onto links leaving the
group with their (time, origin, seq) heap keys, each message as its
class and fields, and the drops on those links.  A data packet carries
its payload bytes and a parity packet its batch's parity memo, so
parity stays lazy.  This process runs the rest.  It replays each drop
through its link's ``on_drop``, and runs an event only when it is due
at most a lookahead after the last watermark read, so every event runs
in the serial order.  At the end the forked process sends the counters
of the links it sent on, its deliveries still pending, which count as
in flight for ``check_conservation``, and what its nodes bumped in the
tally Counter, then leaves through ``os._exit``.  This process reaps
it, killing it first if this side failed, and raises the other side's
error as its own.

Only a split run imports this module, so a cold start neither compiles
it nor loads pickle.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections import Counter
from heapq import heapify, heappush

from .netsim import Simulator, _Marker


def group(sim: Simulator) -> set[str]:
    """The nodes nothing flows back into: first every node with no
    inbound link, then every node whose inbound links all come from the
    group, until it stops growing."""
    sources: dict[str, set[str]] = {name: set() for name in sim.nodes}
    for link in sim.links.values():
        sources[link.dst].add(link.src)
    found: set[str] = set()
    grown = True
    while grown:
        grown = False
        for name, srcs in sources.items():
            if name not in found and srcs <= found:
                found.add(name)
                grown = True
    return found


def lookahead(sim: Simulator, nodes: set[str]) -> int:
    """The least delay minus jitter of a link leaving nodes; 0 when no
    link leaves them."""
    return min((link.delay_us - link.jitter_us for link in sim.links.values()
                if link.src in nodes and link.dst not in nodes), default=0)


def run(sim: Simulator, until_us: int, tally: Counter | None = None) -> None:
    """Run sim to until_us with its feed-forward group in a forked
    process, or all in this process if no link leaves the group with a
    positive lookahead or the platform cannot fork.

    tally is a Counter the group's nodes bump (the run log's): what they
    bump there is added to it here.  A traced run cannot split, and a
    split run cannot be continued.
    """
    if sim.trace_file is not None:
        raise ValueError("a traced run writes one trace, so it cannot split")
    nodes = group(sim)
    gap = lookahead(sim, nodes)
    if gap <= 0 or not hasattr(os, "fork"):
        sim.run(until_us)
        return
    sim._ready()
    sim._split = True
    # the origins of the events the group handles: its nodes' timers and
    # the deliveries to them
    owned = ({sim.nodes[name].env._idx for name in nodes}
             | {link.idx for link in sim.links.values() if link.dst in nodes})
    half = max(1, gap // 2)
    rfd, wfd = os.pipe()
    try:
        import fcntl
        # a skype chunk is about 57 KB: behind the default 64 KiB pipe
        # the forked process would block on nearly every one
        fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (ImportError, AttributeError, OSError):  # not Linux, or above the user's limit
        pass
    pid = os.fork()  # caspr starts no threads
    if pid == 0:
        try:
            os.close(rfd)
            with os.fdopen(wfd, "wb") as out:
                try:
                    _run_ahead(sim, until_us, nodes, owned, half, out, tally)
                except BaseException as exc:
                    # this process ends here: the error goes to the
                    # parent, which raises it
                    _post(out, _portable(exc))
        finally:
            os._exit(0)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb", buffering=1 << 16) as inp:
            _run_behind(sim, until_us, owned, gap, half, inp, tally)
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # it may be running, or blocked writing
        raise
    finally:
        os.waitpid(pid, 0)


class _Ticker(_Marker):
    """A marker that calls action() after every event due at each
    multiple of period past the current time, before until_us."""

    __slots__ = ("sim", "period", "until_us", "action")

    def __init__(self, sim: Simulator, period: int, until_us: int, action):
        super().__init__()
        self.sim = sim
        self.period = period
        self.until_us = until_us
        self.action = action
        self._next()

    def _next(self) -> None:
        t = self.sim.now + self.period
        if t < self.until_us:
            self.sim._mark(t, self)

    def deliver(self, msg, link_name) -> None:
        self._next()
        self.action()


def _post(out, obj) -> None:
    """Write obj's pickle whole, or nothing if it does not pickle."""
    out.write(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    out.flush()


def _portable(exc: BaseException) -> BaseException:
    """exc if it survives a pickle round trip, else a RuntimeError that
    names it; with this process's traceback as a note (3.11+)."""
    import traceback
    where = "in the ahead process:\n" + "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    if hasattr(exc, "add_note"):
        exc.add_note(where.rstrip())
    return exc


# the link counters the forked side keeps for the links it sends on
_COUNTERS = ("sent_count", "sent_bytes", "delivered_count", "delivered_bytes",
             "dropped_count", "dropped_bytes")


def _run_ahead(sim, until_us, nodes, owned, half, out, tally) -> None:
    """The forked side: run the group, post a chunk every half
    lookahead, and the group's counters at the end."""
    heap = sim._heap
    heap[:] = [event for event in heap if event[1] in owned]
    heapify(heap)
    outbox: list = []
    drops: list = []
    sent_on = [link for link in sim.links.values() if link.src in nodes]
    for link in sent_on:
        # from here on each counter holds what this process adds
        for name in _COUNTERS:
            setattr(link, name, 0)
        if link.dst not in nodes:
            link.heap = outbox
            if link.on_drop is not None:
                link.on_drop = lambda msg, now, idx=link.idx: drops.append((idx, msg, now))
    if tally is not None:
        tally.clear()

    def post(end=None):
        # each message as its class and fields: pickling a NamedTuple
        # costs a Python call each way
        chunk = [(t, idx, seq, type(msg), tuple(msg), size)
                 for t, idx, seq, _, msg, size in outbox]
        _post(out, (sim.now, chunk, drops, end))
        outbox.clear()
        drops.clear()

    _Ticker(sim, half, until_us, post)
    sim._loop(until_us)
    counters = [(link.idx, [getattr(link, name) for name in _COUNTERS])
                for link in sent_on]
    pending = [(e[0], e[1], e[2], e[5]) for e in heap if len(e) == 6]
    post((counters, pending, tally))


def _run_behind(sim, until_us, owned, gap, half, inp, tally) -> None:
    """This side: run the rest, each event only once every delivery due
    at or before it has been read, then merge the group's counters."""
    heap = sim._heap
    heap[:] = [event for event in heap if event[1] not in owned]
    heapify(heap)
    links = {link.idx: link for link in sim.links.values()}
    new = tuple.__new__
    watermark = sim.now - 1  # the forked side has run every event due by then
    end = None

    def read():
        nonlocal watermark, end
        try:
            msg = pickle.load(inp)
        except EOFError:
            raise RuntimeError("the ahead process ended without its result") from None
        if isinstance(msg, BaseException):
            raise msg
        watermark, chunk, drops, end = msg
        for t, idx, seq, cls, fields, size in chunk:
            heappush(heap, (t, idx, seq, links[idx], new(cls, fields), size))
        for idx, msg, t in drops:
            links[idx].on_drop(msg, t)

    def sync():
        # events up to the next tick may run once the watermark is
        # within a lookahead of it
        while watermark < min(sim.now + half, until_us) - gap:
            read()

    _Ticker(sim, half, until_us, sync)
    sync()
    sim._loop(until_us)
    while end is None:
        read()
    counters, pending, tallied = end
    for idx, counts in counters:
        link = links[idx]
        for name, n in zip(_COUNTERS, counts):
            setattr(link, name, getattr(link, name) + n)
    for t, idx, seq, size in pending:  # in flight, for check_conservation
        heappush(heap, (t, idx, seq, links[idx], None, size))
    if tally is not None:
        tally.update(tallied)
