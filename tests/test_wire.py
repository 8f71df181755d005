"""Wire format: golden vectors, the layouts serialize writes, and wire_size."""

from __future__ import annotations

import ast
import copy
import importlib
import pickle
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caspr
import oracle_gf
from caspr import wire
from caspr.codec import encode_batch
from caspr.wire import (
    Ack,
    CodedPacket,
    CoopRequest,
    CoopResponse,
    Ctrl,
    DataPacket,
    FieldOverflow,
    Nack,
    serialize,
    wire_size,
)

DATA_DIR = Path(__file__).parent / "data"


def golden(name: str) -> bytes:
    return bytes.fromhex((DATA_DIR / name).read_text().strip())


GOLDEN_MESSAGES = {
    "golden_data_empty.hex": DataPacket(7, 1, 0),
    "golden_data_flagged.hex": DataPacket(2, 3, 0x1234, b"hi", wire.FLAG_SELECTIVE_DUP),
    "golden_nack_one_entry.hex": Nack(5, ((5, 42),), 1000),
    "golden_ack.hex": Ack(5, 41, 2000),
    "golden_cross_coded.hex": CodedPacket(
        True, 9, 0, 2, ((1, 100, 3), (2, 200, 2)), b"\xaa\xbb\xcc", 0x0102030405060708,
        (0x0102030405060708,) * 2),
    "golden_in_coded.hex": CodedPacket(False, 4, 0, 1, ((6, 10, 1),), b"\xff", 0, (0,)),
    "golden_coop_req.hex": CoopRequest(((1, 7), (1, 8)), 100),
    "golden_coop_resp.hex": CoopResponse((1, 7), b"OK", 200),
    "golden_coop_resp_negative.hex": CoopResponse((3, 77), None, 500),
    "golden_ctrl_confirm_resp.hex": Ctrl(wire.CTRL_CONFIRM_RESP, 9, 13, 1, 0),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MESSAGES))
def test_golden_serialize(name):
    assert serialize(GOLDEN_MESSAGES[name]) == golden(name)


@pytest.mark.parametrize("kind", typing.get_args(wire.Message), ids=lambda t: t.__name__)
def test_every_message_type_is_immutable(kind):
    # the sender puts one DataPacket on both its direct and its duplicate
    # link, so no receiver may change what another one reads
    # every message is a NamedTuple: its fields are read-only properties
    # and it has no __dict__ for a name no field declares
    msg = next(m for m in GOLDEN_MESSAGES.values() if type(m) is kind)
    assert isinstance(msg, tuple)
    before = serialize(msg)
    for name in msg._fields:
        with pytest.raises(AttributeError):
            setattr(msg, name, getattr(msg, name))
    with pytest.raises(AttributeError):
        msg.extra = 0
    assert serialize(msg) == before


def test_header_is_32_bytes_for_every_type():
    for name, msg in GOLDEN_MESSAGES.items():
        raw = golden(name)
        assert len(raw) >= 32
        assert raw[0] == wire.VERSION


def test_coded_extension_arithmetic():
    members = tuple((f, 10 + f, 100) for f in range(6))
    msg = CodedPacket(True, 1, 0, 2, members, bytes(100), 0, (0,) * 6)
    raw = serialize(msg)
    ext_len = int.from_bytes(raw[30:32], "big")
    assert ext_len == 13 + 6 * 18 + 6 * 4 == 145
    assert wire_size(msg) == len(raw) == 32 + 145 + 100


def test_member_ts_is_required():
    with pytest.raises(TypeError):
        CodedPacket(True, 1, 0, 1, ((3, 9, 40),), b"x", 5000)


def test_member_ts_travel_as_send_offsets():
    msg = CodedPacket(True, 8, 1, 2, ((1, 5, 10), (2, 6, 10)), b"pq",
                      send_ts_us=90_000, member_ts=(60_000, 75_500))
    raw = serialize(msg)
    # the last ext bytes, before the 2-byte payload: each member's
    # sent_before_us, how long before the packet it left its sender
    assert raw[-10:-2] == (30_000).to_bytes(4, "big") + (14_500).to_bytes(4, "big")


def test_member_ts_length_mismatch_rejected():
    msg = CodedPacket(True, 1, 0, 1, ((1, 1, 1), (2, 2, 2)), b"x",
                      send_ts_us=10, member_ts=(5,))
    with pytest.raises(FieldOverflow):
        serialize(msg)


def test_member_ts_after_packet_send_rejected():
    # a member claimed sent after the packet carrying its parity
    msg = CodedPacket(True, 1, 0, 1, ((1, 1, 1),), b"x",
                      send_ts_us=10, member_ts=(11,))
    with pytest.raises(FieldOverflow):
        serialize(msg)


entry_st = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
member_st = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
                      st.integers(0, 2**16 - 1))
ts_st = st.integers(0, 2**64 - 1)


def coded_sent_with_members(cross, batch_id, index, num_parity, members, payload, ts):
    """A CodedPacket whose members all left their senders at ``ts``."""
    return CodedPacket(cross, batch_id, index, num_parity, members, payload, ts,
                       (ts,) * len(members))

message_st = st.one_of(
    st.builds(DataPacket, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
              ts_st, st.binary(max_size=300), st.integers(0, 3)),
    st.builds(coded_sent_with_members, st.booleans(), st.integers(0, 2**64 - 1),
              st.integers(0, 255), st.integers(0, 255),
              st.lists(member_st, min_size=1, max_size=30).map(tuple),
              st.binary(max_size=300), ts_st),
    st.builds(Nack, st.integers(0, 2**64 - 1),
              st.lists(entry_st, min_size=1, max_size=50).map(tuple), ts_st),
    st.builds(Ack, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), ts_st),
    st.builds(CoopRequest, st.lists(entry_st, min_size=1, max_size=50).map(tuple), ts_st),
    st.builds(CoopResponse, entry_st, st.one_of(st.none(), st.binary(max_size=300)), ts_st),
    st.builds(Ctrl, st.integers(0, 255), st.integers(0, 2**64 - 1),
              st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), ts_st),
)


@settings(max_examples=300, derandomize=True)
@given(message_st)
def test_wire_size_matches_serialize(msg):
    assert len(serialize(msg)) == wire_size(msg)


def test_field_overflow_on_serialize():
    with pytest.raises(FieldOverflow):
        serialize(DataPacket(2**64, 0, 0))
    with pytest.raises(FieldOverflow):
        serialize(DataPacket(0, 0, 0, b"x" * 65536))
    with pytest.raises(FieldOverflow):
        serialize(Nack(1, tuple((1, i) for i in range(256)), 0))
    with pytest.raises(FieldOverflow):
        serialize(CodedPacket(True, 0, 256, 2, ((1, 1, 1),), b"", 0, (0,)))
    with pytest.raises(FieldOverflow):
        serialize(DataPacket(0, 0, -1))
    # a coded packet has 1..255 members, so its extension stays far below
    # 65535 bytes (13 + 255 * 22 = 5623)
    for n in (0, 256):
        with pytest.raises(FieldOverflow, match=f"member count {n} out of range"):
            serialize(CodedPacket(True, 0, 0, 1, ((1, 1, 1),) * n, b"x", 0, (0,) * n))


@pytest.mark.parametrize("measure", [serialize, wire_size])
def test_a_non_message_is_a_type_error(measure):
    with pytest.raises(TypeError, match="not a wire message: tuple"):
        measure((1, 2))


def caspr_imports(module) -> set[str]:
    """The caspr modules a module's source imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = ".".join(filter(None, ["caspr" if node.level else "", node.module]))
            if name == "caspr":  # from . import a, b
                found.update(f"caspr.{alias.name}" for alias in node.names)
            else:
                found.add(name)
    return {name.partition(".")[2] or name for name in found
            if name.split(".")[0] == "caspr"}


def test_wire_imports_no_other_caspr_module():
    # the wire format is the bottom layer: the codec builds wire
    # packets, so wire must not reach back into the codec or any node
    assert caspr_imports(wire) == set()


@pytest.mark.parametrize("module,allowed", [("netsim", {"wire"}), ("scenario", {"codec"})])
def test_netsim_and_scenario_import_one_caspr_module_each(module, allowed):
    # the simulator knows links, not loss processes: the scenario's loss
    # records build each link's drop, so neither module reaches the other
    assert caspr_imports(importlib.import_module(f"caspr.{module}")) == allowed


def test_coded_packet_compares_and_hashes_by_value_in_every_form():
    # a CodedPacket's body is its payload bytes or its batch's parity
    # memo; equality, hashing and serialize read the payload either way
    sources = [DataPacket(f, 10 + f, 1_000 * f, bytes([f + 1]) * (3 + f)) for f in range(3)]
    members = tuple((f, 10 + f, 3 + f) for f in range(3))
    expected = oracle_gf.encode([s.payload for s in sources], 2)[1]
    built = CodedPacket(True, 7, 1, 2, members, expected, 9_000, (0, 1_000, 2_000))

    def unread():
        return encode_batch(7, sources, 2, True, 9_000)[1]

    def read():
        pkt = unread()
        assert pkt.payload == expected
        return pkt

    forms = {
        "built": lambda: built,
        "unread": unread,
        "read": read,
        "pickled unread": lambda: pickle.loads(pickle.dumps(unread())),
        "pickled read": lambda: pickle.loads(pickle.dumps(read())),
        "copied unread": lambda: copy.copy(unread()),
        "deep-copied unread": lambda: copy.deepcopy(unread()),
        "replaced unread": lambda: unread()._replace(cross=True),
        "replaced body": lambda: unread()._replace(body=unread().body),
        "replaced payload": lambda: built._replace(body=expected),
    }
    for name, form in forms.items():
        assert type(form()) is CodedPacket, name
        assert form() == built and built == form(), name
        assert not form() != built and not built != form(), name
        assert hash(form()) == hash(built), name
        assert serialize(form()) == serialize(built), name
        assert form().symbol_len == len(expected), name
        assert form() != built._replace(parity_index=0), name
        assert form() != built._replace(body=bytes(len(expected))), name
        assert form() != encode_batch(7, sources, 2, True, 9_000)[0], name


def test_no_source_module_checks_with_a_bare_assert():
    # python -O strips assert statements, and a run's invariants must
    # hold under it too, so the package raises explicitly instead
    found = []
    for path in sorted(Path(caspr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
