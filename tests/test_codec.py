"""Codec behavior against the independent oracle and its own contract."""

from __future__ import annotations

import itertools
import pickle
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_gf
from caspr import codec, egress, endpoint, gf256, runner, scenario
from caspr.codec import (
    EmptyBatch,
    InsufficientSymbols,
    InvalidParams,
    MetadataMismatch,
    check_envelope,
    decode_batch,
    encode_batch,
)
from caspr.wire import DataPacket, serialize, wire_size


def batch(payloads, flow_base=1):
    return [DataPacket(flow_base + i, 100 + i, 0, p) for i, p in enumerate(payloads)]


def known(srcs):
    return {(s.flow_id, s.seq): s.payload for s in srcs}


def test_frozen_oracle_vector_k4_p2():
    # expected bytes produced by tests/oracle_gf.py before the codec ran
    srcs = batch([b"alpha", b"br", b"charlie!", b"d"])
    parity = encode_batch(7, srcs, 2, True, 0)
    assert parity[0].payload.hex() == "0476111a0d696521"
    assert parity[1].payload.hex() == "3335e9bdccb98984"
    assert parity[0].members == tuple((s.flow_id, s.seq, len(s.payload)) for s in srcs)
    assert [p.parity_index for p in parity] == [0, 1]
    assert all(p.batch_id == 7 and p.num_parity == 2 for p in parity)


def test_single_parity_is_xor_of_sources():
    payloads = [bytes([i * 7 + j for j in range(4)]) for i in range(6)]
    srcs = batch(payloads)
    (p0,) = encode_batch(1, srcs, 1, True, 0)
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
            parity = encode_batch(0, srcs, p, True, 0)
            for lost_n in range(1, p + 1):
                if lost_n > k:
                    continue
                for lost in itertools.combinations(range(k), lost_n):
                    present = [s for i, s in enumerate(srcs) if i not in lost]
                    use_parity = parity[:lost_n]
                    got = decode_batch(known(present), use_parity)
                    expect = oracle_gf.reconstruct(
                        k, p,
                        {i: payloads[i] for i in range(k) if i not in lost},
                        {pp.parity_index: pp.payload for pp in use_parity},
                    )
                    assert list(got.values()) == [expect[i] for i in lost]
                    assert list(got) == [
                        (srcs[i].flow_id, srcs[i].seq) for i in lost]


def test_codec_products_go_through_the_kernel(monkeypatch):
    # every field product the codec computes goes through the one kernel,
    # gf256.gf_combine; a product computed anywhere else would escape the
    # kernel's oracle test and a tracer wrapping it
    kernel = gf256.gf_combine
    shapes = []

    def counted(mat, rows, length):
        shapes.append((len(mat), len(rows), length))
        return kernel(mat, rows, length)

    monkeypatch.setattr(gf256, "gf_combine", counted)
    srcs = batch([b"alpha", b"br", b"charlie!", b"d"])
    parity = encode_batch(7, srcs, 2, True, 0)
    # parity bytes are computed on first read, every row of the batch at once
    assert shapes == []
    parity[1].payload
    assert shapes == [(2, 4, 8)]
    parity[0].payload
    assert shapes == [(2, 4, 8)]
    shapes.clear()
    codec._decode_matrix.cache_clear()
    present = known([srcs[0], srcs[2], srcs[3]])
    assert decode_batch(present, parity) == known([srcs[1]])
    # a cold pattern builds its 1x4 decode matrix (a product of the 1x1
    # inverse with [I | G[0, known]]), then solves from parity row 0 and
    # the three known payloads in one product
    assert shapes == [(1, 1, 4), (1, 4, 8)]
    shapes.clear()
    assert decode_batch(present, parity) == known([srcs[1]])
    assert shapes == [(1, 4, 8)]


@st.composite
def batches(draw):
    """(payloads, num_parity, order): k in 1..20 ragged payloads of 0..64 B,
    a parity count inside the envelope (at k <= 20 that is any of 1..4),
    and an order to read the rows in."""
    k = draw(st.integers(1, 20))
    payloads = draw(st.lists(st.binary(max_size=64), min_size=k, max_size=k))
    num_parity = draw(st.integers(1, 4))
    order = draw(st.permutations(range(num_parity)))
    return payloads, num_parity, order


@settings(max_examples=200, derandomize=True, deadline=None)
@given(batches())
def test_parity_read_in_any_order_matches_oracle(case):
    payloads, num_parity, order = case
    expected = oracle_gf.encode(payloads, num_parity)
    srcs = batch(payloads)
    kernel = gf256.gf_combine
    calls = []

    def counted(mat, rows, length):
        calls.append((len(mat), len(rows)))
        return kernel(mat, rows, length)

    with mock.patch.object(gf256, "gf_combine", counted):
        parity = encode_batch(5, srcs, num_parity, True, 0)
        sizes = [wire_size(p) for p in parity]
        assert calls == []
        # serialize is the first read, one kernel call for every row
        raw = {i: serialize(parity[i]) for i in order}
        assert calls == [(num_parity, len(payloads))]
        assert [len(raw[i]) for i in range(num_parity)] == sizes
        assert [parity[i].payload for i in order] == [expected[i] for i in order]

        unread = encode_batch(5, srcs, num_parity, True, 0)
        flipped = unread[order[0]]._replace(cross=False)
        assert flipped.payload == expected[order[0]] and not flipped.cross
        assert pickle.loads(pickle.dumps(unread[order[-1]])) == parity[order[-1]]
        assert [unread[i].payload for i in order] == [expected[i] for i in order]
        assert len(calls) == 2


def test_wide_area_computes_parity_only_for_decoded_batches(monkeypatch):
    # encoding must stay lazy: one parity product per batch some node
    # decoded, none for the thousands of batches nobody reads
    kernel = gf256.gf_combine
    parity_products = []
    decoded = set()

    def counted(mat, rows, length):
        if mat is gf256.parity_matrix(len(rows), len(mat)):
            parity_products.append((len(mat), len(rows)))
        return kernel(mat, rows, length)

    def noted(present, parity):
        decoded.update((p.cross, p.batch_id, p.members) for p in parity)
        return decode_batch(present, parity)

    monkeypatch.setattr(gf256, "gf_combine", counted)
    monkeypatch.setattr(endpoint, "decode_batch", noted)
    monkeypatch.setattr(egress, "decode_batch", noted)
    cfg = scenario.load(scenario.bundled_path("wide_area_cbr"))
    runner.run_seed(cfg, 11)
    assert decoded
    assert 1 <= len(parity_products) <= len(decoded)


def test_every_erasure_pattern_decodes_cold_and_warm():
    # every lost-source set at k <= 6, p <= 4, against every parity subset
    # large enough to repair it, handed over in reverse order; the second
    # pass finds every pattern's decode matrix cached and must agree
    cases = []
    for k in range(1, 7):
        payloads = [bytes([(k * 11 + i * 5 + t) % 256 for t in range(7 + i % 3)])
                    for i in range(k)]
        width = max(map(len, payloads))
        padded = [pl.ljust(width, b"\0") for pl in payloads]
        srcs = batch(payloads)
        for p in range(1, 5):
            parity = encode_batch(0, srcs, p, True, 0)
            for lost_n in range(1, min(p, k) + 1):
                for lost in itertools.combinations(range(k), lost_n):
                    kept = {i: padded[i] for i in range(k) if i not in lost}
                    for n in range(lost_n, p + 1):
                        for pick in itertools.combinations(range(p), n):
                            expect = oracle_gf.reconstruct(
                                k, p, kept, {i: parity[i].payload for i in pick})
                            cases.append((
                                known(s for i, s in enumerate(srcs) if i not in lost),
                                [parity[i] for i in reversed(pick)],
                                {(srcs[i].flow_id, srcs[i].seq): expect[i][:len(payloads[i])]
                                 for i in lost}))
    assert codec._decode_matrix.cache_info().maxsize is not None
    codec._decode_matrix.cache_clear()
    for present, use, want in cases:
        got = decode_batch(present, use)
        assert got == want and list(got) == list(want)
    cold = codec._decode_matrix.cache_info()
    assert cold.misses == cold.currsize < len(cases)
    for present, use, want in cases:
        got = decode_batch(present, use)
        assert got == want and list(got) == list(want)
    warm = codec._decode_matrix.cache_info()
    assert warm.misses == cold.misses
    assert warm.hits == cold.hits + len(cases)


def test_bursty_inverts_once_per_erasure_pattern(monkeypatch):
    # the decode matrix is cached per (k, p, parity rows, missing
    # positions), so a seed inverts one matrix per distinct pattern, not
    # one per decode; a cache that stops hitting shows up here
    inverse, decode_matrix = gf256.gf_inv_matrix, codec._decode_matrix
    inversions, patterns = [], []

    def counted_inverse(a):
        inversions.append(len(a))
        return inverse(a)

    def noted(*pattern):
        patterns.append(pattern)
        return decode_matrix(*pattern)

    monkeypatch.setattr(gf256, "gf_inv_matrix", counted_inverse)
    monkeypatch.setattr(codec, "_decode_matrix", noted)
    decode_matrix.cache_clear()
    cfg = scenario.load(scenario.bundled_path("short_flow_nack_economy"),
                        ["duration_s=15"])
    runner.run_seed(cfg, 21)
    assert len(patterns) >= 200
    assert len(inversions) <= len(set(patterns))


def test_round_trip_all_supported_widths():
    # one erasure pattern per (k, p) across the full validated envelope
    for k in range(2, 11):
        payloads = [bytes([(i * 31 + t) % 256 for t in range(33)]) for i in range(k)]
        srcs = batch(payloads)
        for p in range(1, 5):
            parity = encode_batch(3, srcs, p, True, 0)
            lost = list(range(min(p, k)))
            present = [s for i, s in enumerate(srcs) if i not in lost]
            got = decode_batch(known(present), parity[:len(lost)])
            assert list(got.values()) == [payloads[i] for i in lost]


def test_decode_prefers_any_parity_subset():
    srcs = batch([bytes([i] * 5) for i in range(8)])
    parity = encode_batch(0, srcs, 3, True, 0)
    present = srcs[2:]
    for pick in itertools.combinations(parity, 2):
        got = decode_batch(known(present), list(pick))
        assert list(got.values()) == [srcs[0].payload, srcs[1].payload]


def test_ragged_payload_lengths_truncate_on_decode():
    srcs = batch([b"x" * 11, b"", b"mid", b"y" * 7])
    parity = encode_batch(2, srcs, 2, True, 0)
    assert all(len(p.payload) == 11 for p in parity)
    got = decode_batch(known([srcs[0], srcs[3]]), parity)
    assert list(got.values()) == [b"", b"mid"]


def test_systematic_encode_does_not_touch_sources():
    payloads = [b"one", b"two", b"three"]
    srcs = batch(payloads)
    encode_batch(0, srcs, 2, True, 0)
    assert [s.payload for s in srcs] == payloads


def test_encode_deterministic():
    srcs = batch([bytes(range(i, i + 40)) for i in range(5)])
    a = encode_batch(9, srcs, 2, True, 0)
    b = encode_batch(9, srcs, 2, True, 0)
    assert [p.payload for p in a] == [p.payload for p in b]


def test_nothing_missing_decodes_to_nothing():
    srcs = batch([b"aa", b"bb"])
    parity = encode_batch(0, srcs, 1, True, 0)
    assert decode_batch(known(srcs), parity) == {}


def test_unrelated_present_symbols_ignored():
    srcs = batch([b"aa", b"bb", b"cc"])
    parity = encode_batch(0, srcs, 1, True, 0)
    stranger = DataPacket(99, 9999, 0, b"zz")
    got = decode_batch(known([srcs[0], srcs[2], stranger]), parity)
    assert got == {(srcs[1].flow_id, srcs[1].seq): b"bb"}


def test_three_missing_two_parity_raises():
    srcs = batch([b"a", b"b", b"c", b"d", b"e"])
    parity = encode_batch(0, srcs, 2, True, 0)
    with pytest.raises(InsufficientSymbols) as err:
        decode_batch(known(srcs[:2]), parity)
    assert err.value.missing == 3
    assert err.value.parity == 2


def test_empty_batch_rejected():
    with pytest.raises(EmptyBatch):
        encode_batch(0, [], 1, True, 0)
    with pytest.raises(EmptyBatch):
        decode_batch({}, [])


def test_mixed_batch_parity_rejected():
    a = encode_batch(1, batch([b"a", b"b"]), 2, True, 0)
    b = encode_batch(2, batch([b"c", b"d"], flow_base=9), 2, True, 0)
    with pytest.raises(MetadataMismatch):
        decode_batch({}, [a[0], b[1]])


def test_duplicate_parity_index_rejected():
    a = encode_batch(1, batch([b"a", b"b"]), 2, True, 0)
    with pytest.raises(MetadataMismatch):
        decode_batch({}, [a[0], a[0]])


def test_parity_index_out_of_range_rejected():
    a = encode_batch(1, batch([b"a", b"b"]), 2, True, 0)
    with pytest.raises(MetadataMismatch, match="parity_index 2 out of range"):
        decode_batch({}, [a[0], a[1]._replace(parity_index=2)])


def test_parity_of_unequal_length_rejected():
    a = encode_batch(1, batch([b"aa", b"bb"]), 2, True, 0)
    short = a[1]._replace(body=a[1].payload[:1])
    with pytest.raises(MetadataMismatch, match="unequal length"):
        decode_batch({}, [a[0], short])


def test_duplicate_member_rejected():
    dup = [DataPacket(1, 5, 0, b"x"), DataPacket(1, 5, 0, b"y")]
    with pytest.raises(MetadataMismatch):
        encode_batch(0, dup, 1, True, 0)


def test_envelope_validation():
    srcs = batch([b"x"] * 21)
    with pytest.raises(InvalidParams):
        encode_batch(0, srcs, 4, True, 0)  # p=4 capped at k=20
    with pytest.raises(InvalidParams):
        encode_batch(0, srcs[:3], 5, True, 0)
    with pytest.raises(InvalidParams):
        encode_batch(0, srcs[:3], 0, True, 0)
    # inside the envelope these are fine
    encode_batch(0, batch([b"x"] * 20), 4, True, 0)
    encode_batch(0, batch([b"x"] * 50), 3, True, 0)


def test_envelope_caps_a_batch_with_its_parity_at_the_field_size():
    check_envelope(252, 3)
    with pytest.raises(InvalidParams, match="exceeds field size"):
        check_envelope(253, 3)


def test_scenario_accepts_exactly_the_codec_envelope():
    # every coding shape inside the scenario's field bounds; shapes
    # outside them (k_max 1, parity_cross 0, ...) are test_scenario's
    # REJECTED rows
    with open(scenario.bundled_path("wide_area_cbr")) as f:
        base = yaml.safe_load(f)

    def validates(**coding):
        try:
            scenario.validate(dict(base, coding={**base["coding"], **coding}))
        except scenario.ScenarioError:
            return False
        return True

    def in_envelope(k, p):
        try:
            check_envelope(k, p)
        except InvalidParams:
            return False
        return True

    for k, p in itertools.product(range(2, 252), range(1, 5)):
        assert validates(k_max=k, parity_cross=p, in_block=0) == in_envelope(k, p), (k, p)
    for k, p in itertools.product(range(1, 65), range(0, 5)):
        assert validates(in_block=k, parity_in=p) == in_envelope(k, p), (k, p)
