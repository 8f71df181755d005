"""Fast self-test of the span arithmetic and of the metric names.

run.py calls run() before every measurement; ``python3 selftest.py``
runs it alone.  Failures raise SelfTestError, so the checks also hold
under ``python -O``.
"""

from __future__ import annotations

import json
import os
import re

import kernel
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")


class SelfTestError(RuntimeError):
    pass


def _expect(got, want, what: str) -> None:
    if got != want:
        raise SelfTestError(f"{what}: got {got!r}, want {want!r}")


class _Clock:
    """A clock that moves only when told to, so spans have exact lengths."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def _nested() -> None:
    clock = _Clock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.tick(1)

    def mid():
        clock.tick(2)
        leaf_span()
        clock.tick(3)

    def top():
        clock.tick(4)
        mid_span()
        leaf_span()
        clock.tick(5)

    leaf_span = t.wrap("leaf", leaf)
    mid_span = t.wrap("mid", mid)
    t.wrap("top", top)()
    snap = t.snapshot()
    _expect({n: v["calls"] for n, v in snap.items()},
            {"leaf": 2, "mid": 1, "top": 1}, "nested calls")
    _expect({n: v["self_s"] for n, v in snap.items()},
            {"leaf": 2.0, "mid": 5.0, "top": 9.0}, "nested self times")
    _expect(sum(v["self_s"] for v in snap.values()), clock.now, "self-time sum")


def _reentrant() -> None:
    clock = _Clock()
    t = tracer.Tracer(clock)

    def countdown(n):
        clock.tick(1)
        if n:
            span(n - 1)
        clock.tick(2)

    span = t.wrap("countdown", countdown, size=lambda n: n)
    span(3)
    snap = t.snapshot()["countdown"]
    _expect(snap["calls"], 4, "re-entrant calls")
    _expect(snap["self_s"], 12.0, "re-entrant self time")
    _expect(snap["size"], 3 + 2 + 1 + 0, "re-entrant size")


def _raising() -> None:
    clock = _Clock()
    t = tracer.Tracer(clock)

    def fail():
        clock.tick(1)
        raise ValueError("expected")

    def outer():
        clock.tick(1)
        try:
            fail_span()
        except ValueError:
            pass
        clock.tick(1)

    fail_span = t.wrap("fail", fail)
    t.wrap("outer", outer)()
    snap = t.snapshot()
    _expect(snap["fail"]["raised"], 1, "raised count")
    _expect(snap["outer"]["raised"], 0, "caught exception leaks to parent")
    _expect(snap["outer"]["self_s"], 2.0, "parent self time after a raise")
    _expect(t._stack, [], "open spans after a raise")


def _patch_restores() -> None:
    before = kernel.bench
    with tracer.Patch() as patch:
        patch.set("kernel", "bench", lambda fn: None)
        _expect(kernel.bench, None, "patched attribute")
    _expect(kernel.bench, before, "restored attribute")


def _names() -> None:
    with open(SPEC) as f:
        spec = json.load(f)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    names += [f"gf256.kernel.{d}_us.{k}x{p}" for k, p in kernel.SHAPES for d in ("enc", "dec")]
    names += [name for _, _, name, _ in tracer.LAYERS]
    bad = [n for n in names if not NAME.fullmatch(n)]
    _expect(bad, [], "names outside [A-Za-z0-9_.-]+")
    declared = {m["name"] for m in spec["per_layer"]}
    missing = [n for n in names if n.startswith("gf256.kernel.") and n not in declared]
    _expect(missing, [], "kernel metrics missing from BENCHMARK.json")


def run() -> None:
    _nested()
    _reentrant()
    _raising()
    _patch_restores()
    _names()


if __name__ == "__main__":
    run()
    print("selftest ok")
