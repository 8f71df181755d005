"""Message formats for the recovery protocol.

Every message starts with the same 32-byte big-endian header:

    version(1) pkt_type(1) flags(2) flow_id(8) seq(8)
    send_ts_us(8) payload_len(2) ext_len(2)

followed by ``ext_len`` bytes of type-specific extension and then
``payload_len`` bytes of payload.  Coded packets carry a coded
extension::

    batch_id(8) parity_index(1) num_parity(1) member_count(1) symbol_len(2)
    then member_count * [flow_id(8) seq(8) orig_len(2)]
    then member_count * [sent_before_us(4)]

``sent_before_us`` is how long before this packet's ``send_ts_us`` the
member left its sender; the recovery store needs per-member send times
to judge whether a loss claim is old enough to be credible, and the
offset form keeps them at four bytes each.

NACK / ACK / cooperative messages use a recovery extension::

    entry_count(1) then entry_count * [flow_id(8) seq(8)]

and control messages a 9-byte ``kind(1) arg(8)`` extension, with the
header's flow/seq naming the subject packet.  An ACK has no extension:
its header seq carries the receiver's frontier, the first seq it has
neither delivered nor given up, so every seq below it is settled.

Messages are immutable, so one object may travel on several links.
Every message is a ``NamedTuple``, the cheapest immutable record to
construct.  A ``CodedPacket`` holds either its payload bytes or the
batch's one shared parity memo, which computes the payload on first
read.

``serialize`` is the one description of each layout, pinned by the
golden vectors under ``tests/data``, and ``wire_size`` its byte count
without building the bytes.  A run reads only ``wire_size``: the
simulator charges a message its size on every link it is sent on.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

VERSION = 1

DATA = 0
IN_CODED = 1
CROSS_CODED = 2
NACK = 3
ACK = 4
COOP_REQ = 5
COOP_RESP = 6
CTRL = 7

TYPE_NAMES = {
    DATA: "DATA", IN_CODED: "IN_CODED", CROSS_CODED: "CROSS_CODED",
    NACK: "NACK", ACK: "ACK", COOP_REQ: "COOP_REQ", COOP_RESP: "COOP_RESP",
    CTRL: "CTRL",
}

FLAG_SELECTIVE_DUP = 0x0001
FLAG_COOP_NEGATIVE = 0x0002

CTRL_CONFIRM_QUERY = 2
CTRL_CONFIRM_RESP = 3

_BASE = struct.Struct(">BBHQQQHH")
_CODED_FIXED = struct.Struct(">QBBBH")
_MEMBER = struct.Struct(">QQH")
_MEMBER_TS = struct.Struct(">L")
_ENTRY = struct.Struct(">QQ")
_CTRL_EXT = struct.Struct(">BQ")

HEADER_LEN = _BASE.size
if HEADER_LEN != 32:
    raise RuntimeError(f"header packs to {HEADER_LEN} bytes, not 32")


class FieldOverflow(ValueError):
    """A value does not fit its field."""


Entry = tuple[int, int]  # (flow_id, seq)
BatchMember = tuple[int, int, int]  # (flow_id, seq, original payload length)


class DataPacket(NamedTuple):
    flow_id: int
    seq: int
    send_ts_us: int
    payload: bytes = b""
    flags: int = 0


class CodedPacket(NamedTuple):
    """One parity packet of a batch.

    ``body`` holds the payload ``bytes``, or the batch's one shared
    parity memo (``codec.encode_batch`` builds its packets so): an
    object whose ``symbol_len`` is the payload length and whose
    ``row(parity_index)`` computes the payload on first read.
    ``payload`` always reads bytes; ``symbol_len`` and ``wire_size``
    never compute them.  Packets compare and hash by value, payload
    read, whichever form their body takes.
    """

    cross: bool
    batch_id: int
    parity_index: int
    num_parity: int
    members: tuple[BatchMember, ...]
    body: object  # bytes, or the batch's parity memo
    send_ts_us: int
    member_ts: tuple[int, ...]  # each member's absolute send time, aligned with members

    @property
    def payload(self) -> bytes:
        body = self.body
        return body if type(body) is bytes else body.row(self.parity_index)

    @property
    def symbol_len(self) -> int:
        """Length of ``payload``, read without computing it."""
        body = self.body
        return len(body) if type(body) is bytes else body.symbol_len

    def _value(self) -> tuple:
        return self[:5] + (self.payload,) + self[6:]

    def __eq__(self, other):
        if type(other) is not CodedPacket:
            return NotImplemented
        return self._value() == other._value()

    def __ne__(self, other):
        if type(other) is not CodedPacket:
            return NotImplemented
        return self._value() != other._value()

    def __hash__(self):
        return hash(self._value())


class Nack(NamedTuple):
    flow_id: int
    entries: tuple[Entry, ...]
    send_ts_us: int = 0


class Ack(NamedTuple):
    flow_id: int
    frontier: int  # first seq not yet delivered or given up; rides the header seq
    send_ts_us: int = 0


class CoopRequest(NamedTuple):
    entries: tuple[Entry, ...]
    send_ts_us: int = 0


class CoopResponse(NamedTuple):
    entry: Entry
    payload: bytes | None  # None means "don't have it"
    send_ts_us: int = 0


class Ctrl(NamedTuple):
    kind: int
    flow_id: int
    seq: int
    arg: int = 0
    send_ts_us: int = 0


Message = DataPacket | CodedPacket | Nack | Ack | CoopRequest | CoopResponse | Ctrl


def _check_u(value: int, bits: int, what: str) -> int:
    if not 0 <= value < (1 << bits):
        raise FieldOverflow(f"{what} {value} does not fit in {bits} bits")
    return value


def _entries_ext(entries: tuple[Entry, ...]) -> bytes:
    if not 1 <= len(entries) <= 255:
        raise FieldOverflow(f"entry count {len(entries)} out of range 1..255")
    parts = [bytes([len(entries)])]
    for flow_id, seq in entries:
        parts.append(_ENTRY.pack(_check_u(flow_id, 64, "entry flow_id"),
                                 _check_u(seq, 64, "entry seq")))
    return b"".join(parts)


def serialize(msg: Message) -> bytes:
    flags = flow_id = seq = 0
    ext = payload = b""
    if isinstance(msg, DataPacket):
        pkt_type, flags, flow_id, seq = DATA, msg.flags, msg.flow_id, msg.seq
        payload = msg.payload
    elif isinstance(msg, CodedPacket):
        if not 1 <= len(msg.members) <= 255:
            raise FieldOverflow(f"member count {len(msg.members)} out of range 1..255")
        if len(msg.member_ts) != len(msg.members):
            raise FieldOverflow(
                f"{len(msg.member_ts)} member timestamps for {len(msg.members)} members")
        parts = [_CODED_FIXED.pack(_check_u(msg.batch_id, 64, "batch_id"),
                                   _check_u(msg.parity_index, 8, "parity_index"),
                                   _check_u(msg.num_parity, 8, "num_parity"),
                                   len(msg.members),
                                   _check_u(msg.symbol_len, 16, "symbol_len"))]
        for m_flow, m_seq, orig_len in msg.members:
            parts.append(_MEMBER.pack(_check_u(m_flow, 64, "member flow_id"),
                                      _check_u(m_seq, 64, "member seq"),
                                      _check_u(orig_len, 16, "member orig_len")))
        for m_ts in msg.member_ts:
            parts.append(_MEMBER_TS.pack(
                _check_u(msg.send_ts_us - m_ts, 32, "member send offset")))
        pkt_type = CROSS_CODED if msg.cross else IN_CODED
        ext, payload = b"".join(parts), msg.payload
    elif isinstance(msg, Nack):
        pkt_type, flow_id, ext = NACK, msg.flow_id, _entries_ext(msg.entries)
    elif isinstance(msg, Ack):
        pkt_type, flow_id, seq = ACK, msg.flow_id, msg.frontier
    elif isinstance(msg, CoopRequest):
        pkt_type, ext = COOP_REQ, _entries_ext(msg.entries)
    elif isinstance(msg, CoopResponse):
        pkt_type, ext, payload = COOP_RESP, _entries_ext((msg.entry,)), msg.payload or b""
        flags = FLAG_COOP_NEGATIVE if msg.payload is None else 0
    elif isinstance(msg, Ctrl):
        pkt_type, flow_id, seq = CTRL, msg.flow_id, msg.seq
        ext = _CTRL_EXT.pack(_check_u(msg.kind, 8, "ctrl kind"),
                             _check_u(msg.arg, 64, "ctrl arg"))
    else:
        raise TypeError(f"not a wire message: {type(msg).__name__}")
    _check_u(flags, 16, "flags")
    if len(payload) > 0xFFFF:
        raise FieldOverflow(f"payload of {len(payload)} bytes exceeds 65535")
    header = _BASE.pack(VERSION, pkt_type, flags,
                        _check_u(flow_id, 64, "flow_id"),
                        _check_u(seq, 64, "seq"),
                        _check_u(msg.send_ts_us, 64, "send_ts_us"),
                        len(payload), len(ext))
    return header + ext + payload


def wire_size(msg: Message) -> int:
    """Byte count serialize() would produce, without producing it."""
    if isinstance(msg, DataPacket):
        return HEADER_LEN + len(msg.payload)
    if isinstance(msg, CodedPacket):
        return (HEADER_LEN + _CODED_FIXED.size
                + (_MEMBER.size + _MEMBER_TS.size) * len(msg.members)
                + msg.symbol_len)
    if isinstance(msg, Nack):
        return HEADER_LEN + 1 + _ENTRY.size * len(msg.entries)
    if isinstance(msg, Ack):
        return HEADER_LEN
    if isinstance(msg, CoopRequest):
        return HEADER_LEN + 1 + _ENTRY.size * len(msg.entries)
    if isinstance(msg, CoopResponse):
        return HEADER_LEN + 1 + _ENTRY.size + len(msg.payload or b"")
    if isinstance(msg, Ctrl):
        return HEADER_LEN + _CTRL_EXT.size
    raise TypeError(f"not a wire message: {type(msg).__name__}")
