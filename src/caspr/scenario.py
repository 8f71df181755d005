"""Scenario files: the typed config tree, loading, validation, overrides.

A scenario is a YAML document describing one experiment: topology
delays and loss processes, the flow workload, the coding widths, the
detector kind, and the seed list.  Each YAML section maps to one
``Record`` subclass below, a frozen record with value equality, and
each field declares its YAML name (the attribute name), type, bounds
and default once; the name's suffix is its unit (``_ms`` or ``_s``).
Fields keep the value the YAML parsed; the ``*_us`` attributes convert
them to integer microseconds of virtual time.

Only what a workload varies is a field.  The cloud path's timings are
fixed by the design: the repair deadline and the recovery horizon (in
direct-path RTTs) and the encoder flushes are constants here, the
detector and cache ones in ``endpoint``, the proactive threshold in
``egress``.  Each timing a node needs is a ``Scenario`` property,
derived here once, and the nodes read them from the validated
scenario; the ingress reads the ``coding`` section as is, once
validation has held it to ``codec.check_envelope``.  ``flow_links``
spells each flow's link names once, and ``INTER_DC_LINK`` the one link
between the DCs, for the runner, the nodes and the analysis;
``Scenario.outages_us`` gives a flow's outage windows to the runner and
the analysis.

Each loss kind is declared once, as a record whose ``dropper(rng)``
builds the ``drop(now_us) -> bool`` a simulator link calls on every
send, drawing from the link's loss stream; ``Scenario.direct_dropper``
adds a flow's outage windows to its direct path's.

Validation is strict; unknown keys are rejected so a typo fails loudly
instead of silently running with a default.

Files and ``--set`` values are read as a strict subset of YAML, parsed
here: block mappings and sequences, one-line flow collections, plain
and quoted scalars typed as PyYAML's SafeLoader types them, and
comments.  Anything else (anchors, aliases, tags, block or multi-line
scalars, tabs, duplicate keys, scalars such as ``010``, ``1_000`` or
``.inf`` that YAML 1.1 reads as other types) raises ScenarioError with
its line number.
"""

from __future__ import annotations

import copy
import functools
import re
from importlib import resources
from typing import NamedTuple

from .codec import InvalidParams, check_envelope


class ScenarioError(Exception):
    """Invalid scenario document; message lists every problem found."""


# -- field declarations -------------------------------------------------------
# Each declarator returns a Field that holds its parser:
# parse(value, path, problems) returns the typed value, or appends
# "path: problem" lines to problems.

MISSING = object()  # a Field's default when the key is required


class Field:
    __slots__ = ("parse", "default")

    def __init__(self, parse, default=MISSING):
        self.parse = parse
        self.default = default


def _scalar(types, what, default, gt=None, ge=None, le=None):
    def parse(value, path, problems):
        # bool subclasses int, but true is not a number
        if isinstance(value, bool) or not isinstance(value, types):
            problems.append(f"{path}: {value!r} is not {what}")
        elif gt is not None and not value > gt:
            problems.append(f"{path}: {value!r} must be > {gt}")
        elif ge is not None and not value >= ge:
            problems.append(f"{path}: {value!r} must be >= {ge}")
        elif le is not None and not value <= le:
            problems.append(f"{path}: {value!r} must be <= {le}")
        return value
    return Field(parse, default)


def number(default=MISSING, **bounds):
    return _scalar((int, float), "a number", default, **bounds)


def integer(default=MISSING, **bounds):
    return _scalar(int, "an integer", default, **bounds)


def text(default=MISSING, pattern=".*"):
    def parse(value, path, problems):
        if not isinstance(value, str) or not re.search(pattern, value):
            problems.append(f"{path}: {value!r} is not a string matching {pattern!r}")
        return value
    return Field(parse, default)


def choice(*options):
    """One of the given strings; the first is the default."""
    def parse(value, path, problems):
        if not isinstance(value, str) or value not in options:
            problems.append(f"{path}: {value!r} is not one of {', '.join(options)}")
        return value
    return Field(parse, options[0])


def section(cls, default=MISSING):
    return Field(lambda value, path, problems: _build(cls, value, path, problems),
                 default)


def tagged(kinds, default=MISSING):
    """A mapping whose ``kind`` key picks the class, from {kind: cls}."""
    def parse(value, path, problems):
        if not isinstance(value, dict):
            problems.append(f"{path}: expected a mapping, got {value!r}")
            return None
        body = dict(value)
        kind = body.pop("kind", None)
        if not isinstance(kind, str) or kind not in kinds:
            problems.append(f"{path}.kind: {kind!r} is not one of {', '.join(kinds)}")
            return None
        return _build(kinds[kind], body, path, problems)
    return Field(parse, default)


def listof(item, default=MISSING, min_items=0, unique=False):
    def parse(value, path, problems):
        if not isinstance(value, list):
            problems.append(f"{path}: {value!r} is not a list")
            return None
        if len(value) < min_items:
            problems.append(f"{path}: needs at least {min_items} item(s)")
        before = len(problems)
        items = tuple(item.parse(v, f"{path}.{i}", problems)
                      for i, v in enumerate(value))
        if unique and len(problems) == before:
            repeated = sorted({v for v in items if items.count(v) > 1})
            if repeated:
                problems.append(f"{path}: {', '.join(map(str, repeated))} repeated")
        return items
    return Field(parse, default)


def _build(cls, raw, path, problems):
    """The ``cls`` instance a YAML mapping describes, or None if it has problems."""
    if not isinstance(raw, dict):
        problems.append(f"{path or '<root>'}: expected a mapping, got {raw!r}")
        return None
    before = len(problems)
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in cls.FIELDS:
            problems.append(f"{prefix}{key}: unknown key")
    values = {}
    for name, f in cls.FIELDS.items():
        if name in raw:
            values[name] = f.parse(raw[name], prefix + name, problems)
        elif f.default is MISSING:
            problems.append(f"{prefix}{name}: required key missing")
    return cls(**values) if len(problems) == before else None


class _Micros(functools.cached_property):
    """Integer microseconds of the duration field named ``source``.  The
    first read stores the value in the frozen instance, so later reads
    are plain attribute lookups, cheap enough for a per-packet path."""

    def __init__(self, source: str):
        scale = 1000 if source.endswith("_ms") else 1_000_000
        super().__init__(lambda obj: int(round(getattr(obj, source) * scale)))


class Record:
    """A frozen section of the tree.  A subclass declares its fields in
    its body with the declarators above, in YAML order, and FIELDS maps
    each field's name to its declaration.  An instance takes every field
    by keyword, a missing one from its default, and compares, hashes and
    prints by value.  Assigning or deleting an attribute raises
    AttributeError; only a ``_Micros`` stores into an instance, on its
    first read."""

    FIELDS: dict[str, Field] = {}

    def __init_subclass__(cls) -> None:
        cls.FIELDS = {name: f for name, f in vars(cls).items() if isinstance(f, Field)}
        for name in cls.FIELDS:
            delattr(cls, name)  # each instance holds its own value

    def __init__(self, **values) -> None:
        unknown = values.keys() - self.FIELDS.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__}() got unknown field(s) "
                            f"{', '.join(sorted(unknown))}")
        state = vars(self)
        for name, f in self.FIELDS.items():
            value = values.get(name, f.default)
            if value is MISSING:
                raise TypeError(f"{type(self).__name__}() missing required field {name!r}")
            state[name] = value

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


# the cloud path's timings, in direct-path RTTs: a repair is due within
# one RTT, and after the recovery horizon a loss is let go
DEADLINE_RTTS = 1
HORIZON_RTTS = 4
# how long an ingress queue may wait to fill before it is coded anyway
CROSS_FLUSH_US = 30_000
IN_FLUSH_US = 50_000


# -- the tree -----------------------------------------------------------------


class BernoulliLoss(Record):
    p: float = number(ge=0, le=1)

    def dropper(self, rng):
        if self.p <= 0.0:
            return None  # lossless: draws nothing
        p, random = self.p, rng.random
        return lambda now_us: random() < p


class GilbertElliottLoss(Record):
    """Two-state burst process, GOOD then BAD, with a loss rate per state.
    A send's loss is drawn in the current state before the state may
    flip, so a packet can be lost on the step that leaves GOOD."""

    p_good_bad: float = number(ge=0, le=1)
    p_bad_good: float = number(ge=0, le=1)
    loss_good: float = number(ge=0, le=1)
    loss_bad: float = number(ge=0, le=1)

    def dropper(self, rng):
        random = rng.random
        loss = (self.loss_good, self.loss_bad)
        flip = (self.p_good_bad, self.p_bad_good)
        state = 0  # GOOD

        def drop(now_us):
            nonlocal state
            lost = random() < loss[state]
            if random() < flip[state]:
                state ^= 1
            return lost
        return drop


class GoogleBurstLoss(Record):
    """Burst loss shaped like wide-area measurements: a burst starts with
    probability p_first and each further send stays lost with
    probability p_cont (mean burst 1/(1-p_cont), 2.0 sends at 0.5)."""

    p_first: float = number(0.01, ge=0, le=1)
    p_cont: float = number(0.5, ge=0, le=1)

    def dropper(self, rng):
        random, p_first, p_cont = rng.random, self.p_first, self.p_cont
        lost = False

        def drop(now_us):
            nonlocal lost
            lost = random() < (p_cont if lost else p_first)
            return lost
        return drop


LOSS_KINDS = {"bernoulli": BernoulliLoss, "gilbert_elliott": GilbertElliottLoss,
              "google_burst": GoogleBurstLoss}


class Link(Record):
    delay_ms: float = number(gt=0)
    jitter_ms: float = number(0.0, ge=0)
    loss: BernoulliLoss | GilbertElliottLoss | GoogleBurstLoss | None = tagged(LOSS_KINDS, None)

    delay_us = _Micros("delay_ms")
    jitter_us = _Micros("jitter_ms")

    @property
    def max_delay_us(self) -> int:
        """Largest one-way delay, jitter included."""
        return int(round((self.delay_ms + self.jitter_ms) * 1000))

    def dropper(self, rng):
        """The link's drop(now_us) -> bool, drawing from rng, or None for
        a link that cannot drop."""
        return self.loss.dropper(rng) if self.loss else None


class Topology(Record):
    direct: Link = section(Link)
    access: Link = section(Link)
    inter_dc: Link = section(Link)
    recovery: Link = section(Link)


class FlowLinks(NamedTuple):
    """Flow i's link names: ``src>dst``, with a ``:ctrl`` suffix on the
    loss-free control pair (see the drawing in ``runner``)."""

    direct: str  # s{i}>r{i}, the lossy path under test
    dup: str  # s{i}>dc1, duplicated traffic into the cloud
    up: str  # r{i}>dc2, NACKs, ACKs and cooperative traffic
    up_ctrl: str  # r{i}>dc2:ctrl
    down: str  # dc2>r{i}, recovery
    down_ctrl: str  # dc2>r{i}:ctrl


def flow_links(i: int) -> FlowLinks:
    return FlowLinks(f"s{i}>r{i}", f"s{i}>dc1", f"r{i}>dc2", f"r{i}>dc2:ctrl",
                     f"dc2>r{i}", f"dc2>r{i}:ctrl")


# the one link between the DCs, which carries only parity
INTER_DC_LINK = "dc1>dc2"


class Outage(Record):
    flow: int = integer(ge=0)
    start_s: float = number(ge=0)
    end_s: float = number(gt=0)

    start_us = _Micros("start_s")
    end_us = _Micros("end_s")


class Flows(Record):
    count: int = integer(ge=1)
    packet_size: int = integer(ge=0, le=65503)
    interval_ms: float = number(gt=0)
    on_s: float = number(gt=0)
    off_mean_s: float = number(0.0, ge=0)
    stagger_ms: float = number(0.0, ge=0)
    duplication: str = choice("full", "selective")
    selective_first_n: int = integer(1, ge=1)

    interval_us = _Micros("interval_ms")
    on_us = _Micros("on_s")
    off_mean_us = _Micros("off_mean_s")
    stagger_us = _Micros("stagger_ms")


class Coding(Record):
    k_max: int = integer(ge=2, le=251)
    parity_cross: int = integer(ge=1, le=4)
    parity_in: int = integer(1, ge=0, le=4)
    in_block: int = integer(5, ge=0, le=64)  # 0 turns in-stream coding off


class Detector(Record):
    kind: str = choice("two_state", "fixed_small")


class Straggler(Record):
    receiver: int = integer(ge=0)
    delay_ms: float = number(gt=0)

    delay_us = _Micros("delay_ms")


class Scenario(Record):
    name: str = text(pattern="^[a-z0-9_]+$")
    description: str = text("")
    duration_s: float = number(gt=0)
    cooldown_s: float = number(2.0, ge=0)
    # unique: each seed writes its own trace file, and the pooled row
    # would count a repeated seed twice
    seeds: tuple[int, ...] = listof(integer(ge=0), min_items=1, unique=True)
    topology: Topology = section(Topology)
    outages: tuple[Outage, ...] = listof(section(Outage), ())
    flows: Flows = section(Flows)
    coding: Coding = section(Coding)
    detector: Detector = section(Detector, Detector())
    straggler: Straggler | None = section(Straggler, None)

    duration_us = _Micros("duration_s")

    @property
    def stop_us(self) -> int:
        """When senders stop: the cooldown before the end is left to drain."""
        return int(round((self.duration_s - self.cooldown_s) * 1_000_000))

    def outages_us(self, flow: int) -> list[tuple[int, int]]:
        """The flow's scheduled outages, as sorted [start_us, end_us) windows."""
        return sorted((o.start_us, o.end_us) for o in self.outages if o.flow == flow)

    def direct_dropper(self, flow: int, rng):
        """The flow's direct-path drop(now_us): a send inside one of its
        outage windows drops, and so does one the direct loss process
        drops.  That process draws on every send, in a window or not, so
        its stream is the same with or without outages."""
        drop = self.topology.direct.dropper(rng)
        windows = self.outages_us(flow)
        if not windows:
            return drop

        def drop_or_outage(now_us):
            lost = drop is not None and drop(now_us)
            return lost or any(start <= now_us < end for start, end in windows)
        return drop_or_outage

    @property
    def rtt_us(self) -> int:
        return 2 * self.topology.direct.delay_us

    @property
    def deadline_us(self) -> int:
        """A repair's budget."""
        return DEADLINE_RTTS * self.rtt_us

    @property
    def horizon_us(self) -> int:
        """The recovery horizon: how long DC2 keeps parity, and receivers
        chase a hole, serve a cached payload or hold forwarded parity."""
        return HORIZON_RTTS * self.rtt_us

    @property
    def reorder_grace_us(self) -> int:
        """A receiver's wait before NACKing a gap: jitter may reorder."""
        return 2 * self.topology.direct.jitter_us

    @property
    def boundary_wait_us(self) -> int:
        """DC2's wait on an uncovered NACK before it queries the
        receiver: parity may still be queued at DC1 or in flight."""
        return CROSS_FLUSH_US + self.topology.inter_dc.delay_us


def _cross_checks(cfg: Scenario) -> list[str]:
    """Problems that span fields, on a tree whose fields are each valid."""
    problems = []
    flows = cfg.flows.count
    for i, outage in enumerate(cfg.outages):
        if outage.flow >= flows:
            problems.append(f"outages[{i}].flow {outage.flow} out of range "
                            f"(only {flows} flows)")
        if outage.end_s <= outage.start_s:
            problems.append(f"outages[{i}] is empty or reversed")
    coding = cfg.coding
    try:
        if coding.in_block and coding.parity_in < 1:
            raise InvalidParams("parity_in must be at least 1 when in_block > 0")
        check_envelope(coding.k_max, coding.parity_cross)
        if coding.in_block:
            check_envelope(coding.in_block, coding.parity_in)
    except InvalidParams as e:
        problems.append(f"coding: {e}")
    if cfg.straggler and cfg.straggler.receiver >= flows:
        problems.append(f"straggler.receiver {cfg.straggler.receiver} out of range")
    if cfg.cooldown_s >= cfg.duration_s:
        problems.append("cooldown_s must be shorter than duration_s")
    for name in cfg.topology.FIELDS:
        link = getattr(cfg.topology, name)
        if link.jitter_ms > link.delay_ms:
            problems.append(f"topology.{name}: jitter exceeds delay")
    return problems


def validate(cfg: dict) -> Scenario:
    """Validate a raw scenario dict; returns its typed tree, defaults filled."""
    problems: list[str] = []
    tree = _build(Scenario, cfg, "", problems)
    if tree is not None:
        problems = _cross_checks(tree)
    if problems:
        raise ScenarioError("\n".join(problems))
    return tree


# -- the YAML subset ----------------------------------------------------------
# Parsed here rather than by PyYAML, whose import was the largest part of a
# cold start.  What the subset accepts reads as PyYAML reads it; the rest
# raises, so no document reads differently.

# the null and bool words
_WORDS = {form: value for value, words in ((None, "~ null"), (True, "yes true on"),
                                           (False, "no false off"))
          for word in words.split() for form in (word, word.capitalize(), word.upper())}
# a plain scalar that YAML 1.1 would not read as a string: a decimal int (of
# at most 100 digits, far inside int()'s limit) or dotted float, else a
# form the subset rejects (another base, digit separators, sexagesimal,
# .inf and .nan, timestamps, the merge and value keys, and whatever else
# starts like a number)
_TYPED = re.compile(r"(?P<int>[-+]?(?:0|[1-9][0-9]{0,99})\Z)"
                    r"|(?P<float>[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?\Z)"
                    r"|[-+]?\.|[-+]?[0-9]\S*\Z|[0-9]{4}-|<<\Z|=\Z")
# a plain scalar runs to ": ", " #" or the end of the line, and inside a
# flow collection also to a flow indicator: _PLAIN[in_flow]
_PLAIN = (re.compile(r".(?:[^: ]|:(?=[^ ])| (?!#))*"),
          re.compile(r".(?:[^: ,?[\]{}]|:(?=[^ ,[\]{}])| (?!#))*"))
# a quoted scalar on one line: '' stands for ' inside single quotes, and a
# double-quoted one may hold no escape sequence
_QUOTED = re.compile(r"'((?:[^']|'')*)'|\"([^\"\\]*)\"")
# what may not start a plain scalar: anchors, aliases, tags, block scalars,
# directives, complex keys and the reserved indicators among them
_INDICATORS = "?:,[]{}#&*!|>'\"%@`"


def _is_entry(body: str) -> bool:
    return body == "-" or body.startswith("- ")


def _skip(s: str, i: int) -> int:
    return len(s) - len(s[i:].lstrip(" "))


class _YAMLParser:
    """One document of the subset: block mappings and sequences (with
    compact ``- key: value`` items), flow collections on one line, plain
    and quoted scalars, and ``#`` comments."""

    def __init__(self, text: str):
        self.lines, self.at = [], 0  # [line number, indent, text after it]
        for n, line in enumerate(text.split("\n"), 1):
            body = line.lstrip(" ")
            if not line.isprintable() or line.startswith(("---", "...")):
                self.fail("a tab, a control character or a document marker", n)
            if body[:1] not in ("", "#"):
                self.lines.append([n, len(line) - len(body), body])

    def fail(self, why: str, n: int | None = None):
        raise ScenarioError(f"YAML parse error: line {n or self.lines[self.at][0]}: {why}")

    def parse(self):
        value = self.node(self.lines[0][1]) if self.lines else None
        if self.at < len(self.lines):
            self.fail("unexpected text or indentation")
        return value

    def node(self, indent: int):
        body = self.lines[self.at][2]
        if _is_entry(body):
            return self.sequence(indent)
        return self.mapping(indent) if self.key(body) else self.value(body, 0)

    def nested(self, indent: int, entries_at_indent: bool):
        """The block node below a bare ``key:`` or ``-``, or None."""
        if self.at < len(self.lines):
            _, col, body = self.lines[self.at]
            if col > indent or entries_at_indent and col == indent and _is_entry(body):
                return self.node(col)
        return None

    def mapping(self, indent: int) -> dict:
        out = {}
        while self.at < len(self.lines) and self.lines[self.at][1] >= indent:
            _, col, body = self.lines[self.at]
            found = col == indent and self.key(body)
            if not found:
                self.fail("expected 'key: value' at the mapping's indentation")
            key, i = found
            if key in out:
                self.fail(f"duplicate key {key!r}")
            i = _skip(body, i)
            if body[i:i + 1] in ("", "#"):
                self.at += 1
                out[key] = self.nested(indent, True)
            else:
                out[key] = self.value(body, i)
        return out

    def sequence(self, indent: int) -> list:
        out = []
        while self.at < len(self.lines):
            n, col, body = self.lines[self.at]
            if col < indent or not _is_entry(body):
                break
            if col > indent:
                self.fail("unexpected indentation")
            rest = body[1:].lstrip(" ")
            if rest[:1] in ("", "#"):
                self.at += 1
                out.append(self.nested(indent, False))
            else:  # the item starts on the entry's line, at rest's column
                col += len(body) - len(rest)
                self.lines[self.at] = [n, col, rest]
                out.append(self.node(col))
        return out

    def key(self, body: str):
        """(key, index past its ':') when body opens with ``key:``."""
        if _is_entry(body):
            return None
        key, i = self.inline(body, 0, False)
        i = _skip(body, i)
        if body[i:i + 1] != ":" or body[i + 1:i + 2] not in ("", " "):
            return None
        if isinstance(key, (list, dict)):
            self.fail("a flow collection as a key")
        return key, i + 1

    def value(self, body: str, i: int):
        """The scalar or flow collection that ends the line at body[i]."""
        value, i = self.inline(body, i, False)
        i = _skip(body, i)
        if i < len(body) and body[i - 1:i + 1] != " #":
            self.fail(f"unexpected text {body[i:]!r}")
        self.at += 1
        return value

    def inline(self, s: str, i: int, in_flow: bool):
        """The flow collection or scalar at s[i], and the index past it."""
        c = s[i:i + 1]
        if c in ("[", "{"):
            return self.collection(s, i)
        if c in ("'", '"'):
            return self.quoted(s, i)
        if c in _INDICATORS or _is_entry(s[i:i + 2]):  # "" too: nothing left
            self.fail(f"unsupported YAML at {s[i:]!r}" if c else "the line ends early")
        end = _PLAIN[in_flow].match(s, i).end()
        return self.scalar(s[i:end].rstrip(" ")), end

    def collection(self, s: str, i: int):
        close = "]" if s[i] == "[" else "}"
        out = [] if close == "]" else {}
        i = _skip(s, i + 1)
        while s[i:i + 1] != close:
            value, i = self.inline(s, i, True)
            if close == "]":
                out.append(value)
            else:
                i = _skip(s, i)
                if s[i:i + 1] != ":" or isinstance(value, (list, dict)):
                    self.fail("expected 'key: value' in a flow mapping")
                if value in out:
                    self.fail(f"duplicate key {value!r}")
                i = _skip(s, i + 1)
                out[value], i = (None, i) if s[i:i + 1] in (",", "}") else self.inline(s, i, True)
            i = _skip(s, i)
            if s[i:i + 1] == ",":
                i = _skip(s, i + 1)
            elif s[i:i + 1] != close:
                self.fail(f"expected ',' or {close!r} on the same line")
        return out, i + 1

    def quoted(self, s: str, i: int):
        quoted = _QUOTED.match(s, i)
        if quoted is None:
            self.fail("an unclosed quote (a multi-line scalar?) or an escape sequence")
        single, double = quoted.groups()
        return (double if single is None else single.replace("''", "'")), quoted.end()

    def scalar(self, text: str):
        typed = None if text in _WORDS else _TYPED.match(text)
        if typed is None:
            return _WORDS.get(text, text)
        if typed.lastgroup is None:
            self.fail(f"{text!r} is neither a decimal int nor a dotted float, and "
                      "YAML 1.1 may not read it as a string; quote it if it is one")
        return (int if typed.lastgroup == "int" else float)(text)


def _list_index(items: list, key: str, path: str) -> int:
    try:
        index = int(key)
    except ValueError:
        raise ScenarioError(f"override {path!r}: list index {key!r} is not an integer")
    if not -len(items) <= index < len(items):
        raise ScenarioError(f"override {path!r}: list index {index} is out of range "
                            f"for a list of {len(items)}")
    return index


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply ``dotted.path=value`` overrides.  Each value is one line of
    the scenario files' YAML subset: a scalar, typed as in a file, or a
    flow collection such as ``[1, 2]`` or ``{kind: bernoulli, p: 0.05}``;
    what the subset rejects raises ScenarioError."""
    out = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r} is not of the form path=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        if not all(keys):
            raise ScenarioError(f"override {item!r} has an empty path segment")
        try:
            value = _YAMLParser(raw).parse()
        except ScenarioError as e:
            raise ScenarioError(f"override {item!r}: unparseable value ({e})") from None
        node = out
        for key in keys[:-1]:
            if isinstance(node, list):
                node = node[_list_index(node, key, path)]
            else:
                node = node.setdefault(key, {})
            if not isinstance(node, (dict, list)):
                raise ScenarioError(f"override {path!r} descends through a scalar")
        last = keys[-1]
        if isinstance(node, list):
            node[_list_index(node, last, path)] = value
        else:
            node[last] = value
    return out


def load(path: str, overrides: list[str] | None = None) -> Scenario:
    """Load, override, and validate a scenario file."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"cannot read {path}: {e}")
    try:
        raw = _YAMLParser(text).parse()
    except ScenarioError as e:
        raise ScenarioError(f"{path}: {e}") from None
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate(raw)


def bundled_path(name: str) -> str | None:
    """Resolve a bare scenario name against the packaged scenario set."""
    ref = resources.files("caspr") / "scenarios" / f"{name}.yaml"
    if ref.is_file():
        return str(ref)
    return None


def bundled_names() -> list[str]:
    root = resources.files("caspr") / "scenarios"
    if not root.is_dir():
        return []
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
