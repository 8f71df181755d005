"""Span wrappers placed around caspr's layer boundaries from outside.

The simulator has no tracing hook of its own, so the traced run swaps
public entry points of each ``caspr`` module for wrappers that time
every call.  Spans are not kept one by one (a 20-flow scenario makes
millions); each wrapper folds its span into per-name totals as it
closes:

* ``calls``  - spans closed under the name;
* ``self_s`` - span duration minus the time covered by its child spans;
* ``raised`` - calls that ended in an exception (re-raised unchanged);
* ``size``   - an optional per-call quantity, e.g. bytes a kernel touched.

Because every span hands its whole duration to its parent, the self
times of all names add up to the duration of the outermost span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.size: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, size=None):
        """Return fn wrapped in a span called name.

        size, when given, maps the call's arguments to a number that is
        summed under the name.
        """
        self.calls.setdefault(name, 0)
        clock = self.clock
        stack = self._stack
        calls, self_s, raised, sizes = self.calls, self.self_s, self.raised, self.size

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                duration = clock() - frame[0]
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if size is not None:
                    sizes[name] += size(*args, **kwargs)

        return span

    def snapshot(self) -> dict:
        """Per-name totals as plain data: {name: {calls, self_s, raised, size}}."""
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                       "raised": self.raised[name], "size": self.size[name]}
                for name in sorted(self.calls)}


def _matmul_bytes(mat, data) -> int:
    # bytes read from the data operand plus parity bytes written
    return (mat.shape[0] + data.shape[0]) * data.shape[1]


# (module, attribute path, span name, per-call size).  Names bound with
# ``from .codec import ...`` are wrapped where they were bound; names
# looked up through their module on each call are wrapped once there.
LAYERS = [
    ("caspr.runner", "run_scenario", "runner.scenario", None),
    ("caspr.runner", "run_seed", "runner.build", None),
    ("caspr.netsim", "Simulator.run", "netsim.run", None),
    ("caspr.netsim", "Simulator.check_conservation", "netsim.conservation", None),
    ("caspr.netsim", "SimEnv.send", "netsim.send", None),
    ("caspr.netsim", "SimEnv.schedule", "netsim.schedule", None),
    ("caspr.wire", "wire_size", "wire.size", None),
    ("caspr.endpoint", "Sender.on_timer", "endpoint.sender.on_timer", None),
    ("caspr.endpoint", "Receiver.on_message", "endpoint.receiver.on_message", None),
    ("caspr.endpoint", "Receiver.on_timer", "endpoint.receiver.on_timer", None),
    ("caspr.ingress", "IngressCoder.on_message", "ingress.on_message", None),
    ("caspr.ingress", "IngressCoder.on_timer", "ingress.on_timer", None),
    ("caspr.egress", "EgressRecovery.on_message", "egress.on_message", None),
    ("caspr.egress", "EgressRecovery.on_timer", "egress.on_timer", None),
    ("caspr.ingress", "encode_batch", "codec.encode", None),
    ("caspr.egress", "decode_batch", "codec.decode", None),
    ("caspr.endpoint", "decode_batch", "codec.decode", None),
    ("caspr.gf256", "gf_matmul", "gf256.matmul", _matmul_bytes),
    ("caspr.metrics", "analyze_run", "metrics.analyze", None),
    ("caspr.metrics", "write_summary_csv", "metrics.write", None),
    ("caspr.metrics", "write_episodes_csv", "metrics.write", None),
    ("caspr.metrics", "write_fec_csv", "metrics.write", None),
    ("caspr.metrics", "write_cost_csv", "metrics.write", None),
    ("caspr.metrics", "render_summary_text", "metrics.write", None),
]


class Patch:
    """Replace attributes for the life of a with-block, then restore them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def install(patch: Patch, tracer: Tracer) -> None:
    """Wrap every entry point in LAYERS for the life of patch."""
    for module, path, name, size in LAYERS:
        patch.set(module, path,
                  lambda fn, name=name, size=size: tracer.wrap(name, fn, size))
