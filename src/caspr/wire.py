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
header's flow/seq naming the subject packet.  Deserialization of
arbitrary bytes raises only the error types defined here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .codec import BatchMember, ParitySymbol

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
assert HEADER_LEN == 32


class WireError(Exception):
    pass


class FieldOverflow(WireError):
    pass


class Truncated(WireError):
    pass


class BadVersion(WireError):
    pass


class UnknownType(WireError):
    pass


class LengthMismatch(WireError):
    pass


Entry = tuple[int, int]  # (flow_id, seq)


@dataclass(frozen=True, slots=True)
class DataPacket:
    flow_id: int
    seq: int
    send_ts_us: int
    payload: bytes = b""
    flags: int = 0


@dataclass(frozen=True, slots=True)
class CodedPacket:
    cross: bool
    batch_id: int
    parity_index: int
    num_parity: int
    members: tuple[BatchMember, ...]
    payload: bytes
    send_ts_us: int = 0
    # absolute send time of each member, aligned with ``members``; left
    # empty it defaults to "no earlier than this packet"
    member_ts: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.member_ts:
            object.__setattr__(self, "member_ts",
                               (self.send_ts_us,) * len(self.members))


@dataclass(frozen=True, slots=True)
class Nack:
    flow_id: int
    entries: tuple[Entry, ...]
    send_ts_us: int = 0


@dataclass(frozen=True, slots=True)
class Ack:
    flow_id: int
    cum_seq: int
    send_ts_us: int = 0


@dataclass(frozen=True, slots=True)
class CoopRequest:
    entries: tuple[Entry, ...]
    send_ts_us: int = 0


@dataclass(frozen=True, slots=True)
class CoopResponse:
    entry: Entry
    payload: bytes | None  # None means "don't have it"
    send_ts_us: int = 0


@dataclass(frozen=True, slots=True)
class Ctrl:
    kind: int
    flow_id: int
    seq: int
    arg: int = 0
    send_ts_us: int = 0


Message = DataPacket | CodedPacket | Nack | Ack | CoopRequest | CoopResponse | Ctrl


def coded_from_parity(sym: ParitySymbol, cross: bool, send_ts_us: int = 0,
                      member_ts: tuple[int, ...] = ()) -> CodedPacket:
    return CodedPacket(cross, sym.batch_id, sym.parity_index, sym.num_parity,
                       sym.members, sym.payload, send_ts_us, member_ts)


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
    pkt_type, flags, flow_id, seq, ext, payload = _encode_parts(msg)
    _check_u(flags, 16, "flags")
    if len(payload) > 0xFFFF:
        raise FieldOverflow(f"payload of {len(payload)} bytes exceeds 65535")
    if len(ext) > 0xFFFF:
        raise FieldOverflow(f"extension of {len(ext)} bytes exceeds 65535")
    header = _BASE.pack(VERSION, pkt_type, flags,
                        _check_u(flow_id, 64, "flow_id"),
                        _check_u(seq, 64, "seq"),
                        _check_u(msg.send_ts_us, 64, "send_ts_us"),
                        len(payload), len(ext))
    return header + ext + payload


def _encode_parts(msg: Message):
    if isinstance(msg, DataPacket):
        return DATA, msg.flags, msg.flow_id, msg.seq, b"", msg.payload
    if isinstance(msg, CodedPacket):
        if not 1 <= len(msg.members) <= 255:
            raise FieldOverflow(f"member count {len(msg.members)} out of range 1..255")
        if len(msg.member_ts) != len(msg.members):
            raise FieldOverflow(
                f"{len(msg.member_ts)} member timestamps for {len(msg.members)} members")
        ext = [_CODED_FIXED.pack(_check_u(msg.batch_id, 64, "batch_id"),
                                 _check_u(msg.parity_index, 8, "parity_index"),
                                 _check_u(msg.num_parity, 8, "num_parity"),
                                 len(msg.members),
                                 _check_u(len(msg.payload), 16, "symbol_len"))]
        for flow_id, seq, orig_len in msg.members:
            ext.append(_MEMBER.pack(_check_u(flow_id, 64, "member flow_id"),
                                    _check_u(seq, 64, "member seq"),
                                    _check_u(orig_len, 16, "member orig_len")))
        for m_ts in msg.member_ts:
            ext.append(_MEMBER_TS.pack(
                _check_u(msg.send_ts_us - m_ts, 32, "member send offset")))
        ptype = CROSS_CODED if msg.cross else IN_CODED
        return ptype, 0, 0, 0, b"".join(ext), msg.payload
    if isinstance(msg, Nack):
        return NACK, 0, msg.flow_id, 0, _entries_ext(msg.entries), b""
    if isinstance(msg, Ack):
        return ACK, 0, msg.flow_id, msg.cum_seq, b"", b""
    if isinstance(msg, CoopRequest):
        return COOP_REQ, 0, 0, 0, _entries_ext(msg.entries), b""
    if isinstance(msg, CoopResponse):
        flags = 0 if msg.payload is not None else FLAG_COOP_NEGATIVE
        return (COOP_RESP, flags, 0, 0, _entries_ext((msg.entry,)),
                msg.payload or b"")
    if isinstance(msg, Ctrl):
        ext = _CTRL_EXT.pack(_check_u(msg.kind, 8, "ctrl kind"),
                             _check_u(msg.arg, 64, "ctrl arg"))
        return CTRL, 0, msg.flow_id, msg.seq, ext, b""
    raise TypeError(f"not a wire message: {type(msg).__name__}")


def wire_size(msg: Message) -> int:
    """Byte count serialize() would produce, without producing it."""
    if isinstance(msg, DataPacket):
        return HEADER_LEN + len(msg.payload)
    if isinstance(msg, CodedPacket):
        return (HEADER_LEN + _CODED_FIXED.size
                + (_MEMBER.size + _MEMBER_TS.size) * len(msg.members)
                + len(msg.payload))
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


def _parse_entries(ext: bytes, what: str) -> tuple[Entry, ...]:
    if len(ext) < 1:
        raise LengthMismatch(f"{what} extension missing entry count")
    count = ext[0]
    if count < 1:
        raise LengthMismatch(f"{what} entry count must be >= 1")
    if len(ext) != 1 + _ENTRY.size * count:
        raise LengthMismatch(
            f"{what} extension is {len(ext)} bytes, expected {1 + _ENTRY.size * count}")
    return tuple(_ENTRY.unpack_from(ext, 1 + _ENTRY.size * i) for i in range(count))


def deserialize(buf: bytes) -> Message:
    if len(buf) < HEADER_LEN:
        raise Truncated(f"{len(buf)} bytes is shorter than the {HEADER_LEN}-byte header")
    version, pkt_type, flags, flow_id, seq, ts, payload_len, ext_len = _BASE.unpack_from(buf)
    if version != VERSION:
        raise BadVersion(f"version {version}, expected {VERSION}")
    if pkt_type not in TYPE_NAMES:
        raise UnknownType(f"pkt_type {pkt_type}")
    total = HEADER_LEN + ext_len + payload_len
    if len(buf) < total:
        raise Truncated(f"{len(buf)} bytes but header promises {total}")
    if len(buf) > total:
        raise LengthMismatch(f"{len(buf) - total} trailing bytes")
    ext = buf[HEADER_LEN:HEADER_LEN + ext_len]
    payload = buf[HEADER_LEN + ext_len:total]

    if pkt_type == DATA:
        if ext_len:
            raise LengthMismatch("DATA must not carry an extension")
        return DataPacket(flow_id, seq, ts, payload, flags)

    if pkt_type in (IN_CODED, CROSS_CODED):
        if len(ext) < _CODED_FIXED.size:
            raise LengthMismatch("coded extension shorter than its fixed part")
        batch_id, parity_index, num_parity, member_count, symbol_len = \
            _CODED_FIXED.unpack_from(ext)
        if member_count < 1:
            raise LengthMismatch("coded member_count must be >= 1")
        want = _CODED_FIXED.size + (_MEMBER.size + _MEMBER_TS.size) * member_count
        if len(ext) != want:
            raise LengthMismatch(f"coded extension is {len(ext)} bytes, expected {want}")
        if symbol_len != payload_len:
            raise LengthMismatch(f"symbol_len {symbol_len} != payload_len {payload_len}")
        members = tuple(
            _MEMBER.unpack_from(ext, _CODED_FIXED.size + _MEMBER.size * i)
            for i in range(member_count))
        ts_base = _CODED_FIXED.size + _MEMBER.size * member_count
        member_ts = []
        for i in range(member_count):
            offset, = _MEMBER_TS.unpack_from(ext, ts_base + _MEMBER_TS.size * i)
            if offset > ts:
                raise FieldOverflow(
                    f"member send offset {offset} predates time zero")
            member_ts.append(ts - offset)
        return CodedPacket(pkt_type == CROSS_CODED, batch_id, parity_index,
                           num_parity, members, payload, ts, tuple(member_ts))

    if pkt_type == NACK:
        if payload_len:
            raise LengthMismatch("NACK must not carry a payload")
        return Nack(flow_id, _parse_entries(ext, "NACK"), ts)

    if pkt_type == ACK:
        if ext_len or payload_len:
            raise LengthMismatch("ACK carries neither extension nor payload")
        return Ack(flow_id, seq, ts)

    if pkt_type == COOP_REQ:
        if payload_len:
            raise LengthMismatch("COOP_REQ must not carry a payload")
        return CoopRequest(_parse_entries(ext, "COOP_REQ"), ts)

    if pkt_type == COOP_RESP:
        entries = _parse_entries(ext, "COOP_RESP")
        if len(entries) != 1:
            raise LengthMismatch("COOP_RESP answers exactly one entry")
        if flags & FLAG_COOP_NEGATIVE:
            if payload_len:
                raise LengthMismatch("negative COOP_RESP must not carry a payload")
            return CoopResponse(entries[0], None, ts)
        return CoopResponse(entries[0], payload, ts)

    # CTRL
    if payload_len:
        raise LengthMismatch("CTRL must not carry a payload")
    if ext_len != _CTRL_EXT.size:
        raise LengthMismatch(f"CTRL extension is {ext_len} bytes, expected {_CTRL_EXT.size}")
    kind, arg = _CTRL_EXT.unpack(ext)
    return Ctrl(kind, flow_id, seq, arg, ts)
