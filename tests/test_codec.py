"""Codec behavior against the independent oracle and its own contract."""

from __future__ import annotations

import itertools

import pytest

import oracle_gf
from caspr import gf256
from caspr.codec import (
    CodingParams,
    EmptyBatch,
    InsufficientSymbols,
    InvalidParams,
    MetadataMismatch,
    SourceSymbol,
    decode_batch,
    encode_batch,
)


def batch(payloads, flow_base=1):
    return [SourceSymbol(flow_base + i, 100 + i, p) for i, p in enumerate(payloads)]


def test_frozen_oracle_vector_k4_p2():
    # expected bytes produced by tests/oracle_gf.py before the codec ran
    srcs = batch([b"alpha", b"br", b"charlie!", b"d"])
    parity = encode_batch(7, srcs, num_parity=2)
    assert parity[0].payload.hex() == "0476111a0d696521"
    assert parity[1].payload.hex() == "3335e9bdccb98984"
    assert parity[0].members == tuple((s.flow_id, s.seq, len(s.payload)) for s in srcs)
    assert [p.parity_index for p in parity] == [0, 1]
    assert all(p.batch_id == 7 and p.num_parity == 2 for p in parity)


def test_single_parity_is_xor_of_sources():
    payloads = [bytes([i * 7 + j for j in range(4)]) for i in range(6)]
    srcs = batch(payloads)
    (p0,) = encode_batch(1, srcs, num_parity=1)
    x = bytearray(4)
    for pl in payloads:
        for t, b in enumerate(pl):
            x[t] ^= b
    assert p0.payload == bytes(x) == bytes.fromhex("23293739")


def test_every_erasure_pattern_matches_oracle():
    # exhaustive over k <= 6, p <= 2, all erasure subsets up to size p
    for k in range(1, 7):
        payloads = [bytes([(k * 13 + i * 3 + t) % 256 for t in range(9)]) for i in range(k)]
        srcs = batch(payloads)
        for p in (1, 2):
            parity = encode_batch(0, srcs, num_parity=p)
            for lost_n in range(1, p + 1):
                if lost_n > k:
                    continue
                for lost in itertools.combinations(range(k), lost_n):
                    present = [s for i, s in enumerate(srcs) if i not in lost]
                    use_parity = parity[:lost_n]
                    got = decode_batch(present, use_parity)
                    expect = oracle_gf.reconstruct(
                        k, p,
                        {i: payloads[i] for i in range(k) if i not in lost},
                        {pp.parity_index: pp.payload for pp in use_parity},
                    )
                    assert [g.payload for g in got] == [expect[i] for i in lost]
                    assert [(g.flow_id, g.seq) for g in got] == [
                        (srcs[i].flow_id, srcs[i].seq) for i in lost]


def test_codec_products_go_through_the_kernel(monkeypatch):
    # perfbench times the codec's field arithmetic by wrapping
    # gf256.gf_matmul; a product computed anywhere else would be invisible
    kernel = gf256.gf_matmul
    shapes = []

    def counted(mat, data):
        shapes.append((mat.shape, data.shape))
        return kernel(mat, data)

    monkeypatch.setattr(gf256, "gf_matmul", counted)
    srcs = batch([b"alpha", b"br", b"charlie!", b"d"])
    parity = encode_batch(7, srcs, num_parity=2)
    assert shapes == [((2, 4), (4, 8))]
    shapes.clear()
    assert decode_batch([srcs[0], srcs[2], srcs[3]], parity) == [srcs[1]]
    # the known sources' contribution to parity row 0, then the 1x1 solve
    assert shapes == [((1, 3), (3, 8)), ((1, 1), (1, 8))]


def test_round_trip_all_supported_widths():
    # one erasure pattern per (k, p) across the full validated envelope
    for k in range(2, 11):
        payloads = [bytes([(i * 31 + t) % 256 for t in range(33)]) for i in range(k)]
        srcs = batch(payloads)
        for p in range(1, 5):
            parity = encode_batch(3, srcs, num_parity=p)
            lost = list(range(min(p, k)))
            present = [s for i, s in enumerate(srcs) if i not in lost]
            got = decode_batch(present, parity[:len(lost)])
            assert [g.payload for g in got] == [payloads[i] for i in lost]


def test_decode_prefers_any_parity_subset():
    srcs = batch([bytes([i] * 5) for i in range(8)])
    parity = encode_batch(0, srcs, num_parity=3)
    present = srcs[2:]
    for pick in itertools.combinations(parity, 2):
        got = decode_batch(present, list(pick))
        assert [g.payload for g in got] == [srcs[0].payload, srcs[1].payload]


def test_ragged_payload_lengths_truncate_on_decode():
    srcs = batch([b"x" * 11, b"", b"mid", b"y" * 7])
    parity = encode_batch(2, srcs, num_parity=2)
    assert all(len(p.payload) == 11 for p in parity)
    got = decode_batch([srcs[0], srcs[3]], parity)
    assert got[0].payload == b""
    assert got[1].payload == b"mid"


def test_systematic_encode_does_not_touch_sources():
    payloads = [b"one", b"two", b"three"]
    srcs = batch(payloads)
    encode_batch(0, srcs, num_parity=2)
    assert [s.payload for s in srcs] == payloads


def test_encode_deterministic():
    srcs = batch([bytes(range(i, i + 40)) for i in range(5)])
    a = encode_batch(9, srcs, num_parity=2)
    b = encode_batch(9, srcs, num_parity=2)
    assert [p.payload for p in a] == [p.payload for p in b]


def test_nothing_missing_decodes_to_nothing():
    srcs = batch([b"aa", b"bb"])
    parity = encode_batch(0, srcs, num_parity=1)
    assert decode_batch(srcs, parity) == []


def test_unrelated_present_symbols_ignored():
    srcs = batch([b"aa", b"bb", b"cc"])
    parity = encode_batch(0, srcs, num_parity=1)
    stranger = SourceSymbol(99, 9999, b"zz")
    got = decode_batch([srcs[0], srcs[2], stranger], parity)
    assert got == [SourceSymbol(srcs[1].flow_id, srcs[1].seq, b"bb")]


def test_three_missing_two_parity_raises():
    srcs = batch([b"a", b"b", b"c", b"d", b"e"])
    parity = encode_batch(0, srcs, num_parity=2)
    with pytest.raises(InsufficientSymbols) as err:
        decode_batch(srcs[:2], parity)
    assert err.value.missing == 3
    assert err.value.parity == 2


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        encode_batch(0, [], num_parity=1)
    with pytest.raises(EmptyBatch):
        decode_batch([], [])


def test_mixed_batch_parity_rejected():
    a = encode_batch(1, batch([b"a", b"b"]), num_parity=2)
    b = encode_batch(2, batch([b"c", b"d"], flow_base=9), num_parity=2)
    with pytest.raises(MetadataMismatch):
        decode_batch([], [a[0], b[1]])


def test_duplicate_parity_index_rejected():
    a = encode_batch(1, batch([b"a", b"b"]), num_parity=2)
    with pytest.raises(MetadataMismatch):
        decode_batch([], [a[0], a[0]])


def test_duplicate_member_rejected():
    dup = [SourceSymbol(1, 5, b"x"), SourceSymbol(1, 5, b"y")]
    with pytest.raises(MetadataMismatch):
        encode_batch(0, dup, num_parity=1)


def test_envelope_validation():
    srcs = batch([b"x"] * 21)
    with pytest.raises(InvalidParams):
        encode_batch(0, srcs, num_parity=4)  # p=4 capped at k=20
    with pytest.raises(InvalidParams):
        encode_batch(0, srcs[:3], num_parity=5)
    with pytest.raises(InvalidParams):
        encode_batch(0, srcs[:3], num_parity=0)
    # inside the envelope these are fine
    encode_batch(0, batch([b"x"] * 20), num_parity=4)
    encode_batch(0, batch([b"x"] * 50), num_parity=3)


def test_coding_params_validation():
    CodingParams(k_max=20, num_parity_cross=2, num_parity_in=1, in_block=5)
    CodingParams(k_max=4, num_parity_cross=1, num_parity_in=1, in_block=0)
    with pytest.raises(InvalidParams):
        CodingParams(k_max=1)
    with pytest.raises(InvalidParams):
        CodingParams(num_parity_cross=0)
    with pytest.raises(InvalidParams):
        CodingParams(k_max=30, num_parity_cross=4)
