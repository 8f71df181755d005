"""Systematic erasure coding of packet batches.

A batch is an ordered list of source packets, possibly from different
flows.  Encoding appends ``num_parity`` parity symbols; the code is
systematic (source payloads are never transformed) and any ``k`` of the
``k + p`` symbols reconstruct the rest.  Payloads inside one batch may
have different lengths: shorter ones are implicitly zero-padded to the
longest, and each member's original length travels in the parity
metadata so decode can truncate back.

Cross-flow and in-flow coding use this module identically; they differ
only in who fills the batch (see ingress).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf256


class CodecError(Exception):
    pass


class EmptyBatch(CodecError):
    pass


class InvalidParams(CodecError):
    pass


class MetadataMismatch(CodecError):
    """Parity symbols disagree about the batch they belong to."""


class InsufficientSymbols(CodecError):
    def __init__(self, missing: int, parity: int):
        super().__init__(f"{missing} symbols missing, only {parity} parity available")
        self.missing = missing
        self.parity = parity


@dataclass(frozen=True, slots=True)
class SourceSymbol:
    flow_id: int
    seq: int
    payload: bytes


# (flow_id, seq, original payload length)
BatchMember = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class ParitySymbol:
    batch_id: int
    parity_index: int
    num_parity: int
    members: tuple[BatchMember, ...]
    payload: bytes


@dataclass(frozen=True, slots=True)
class CodingParams:
    """Knobs shared by the two coding dimensions.

    k_max bounds cross-flow batch width; in_block is the in-flow block
    size (0 disables in-flow coding entirely).
    """

    k_max: int = 6
    num_parity_cross: int = 2
    num_parity_in: int = 1
    in_block: int = 5

    def __post_init__(self):
        if self.k_max < 2:
            raise InvalidParams("k_max must be at least 2")
        if self.num_parity_cross < 1:
            raise InvalidParams("num_parity_cross must be at least 1")
        if self.in_block and self.num_parity_in < 1:
            raise InvalidParams("num_parity_in must be at least 1 when in_block > 0")
        if self.in_block < 0:
            raise InvalidParams("in_block must be >= 0")
        _check_envelope(self.k_max, self.num_parity_cross)
        if self.in_block:
            _check_envelope(self.in_block, self.num_parity_in)


def _check_envelope(k: int, p: int) -> None:
    # MDS holds for p <= 3 at any k, and for p == 4 up to k == 20
    # (verified exhaustively over the generator's submatrices); beyond
    # that some erasure patterns would hit a singular system.
    if p < 1:
        raise InvalidParams("num_parity must be at least 1")
    if p > 4:
        raise InvalidParams(f"num_parity {p} unsupported (max 4)")
    if p == 4 and k > 20:
        raise InvalidParams(f"num_parity 4 only supported up to batch size 20, got {k}")
    if k + p > 255:
        raise InvalidParams(f"batch of {k} + {p} parity exceeds field size")


def _stack(payloads, rows: int, symbol_len: int) -> np.ndarray:
    """Read-only (rows, symbol_len) array of the payloads, each
    zero-padded to symbol_len, staged in one copy."""
    buf = b"".join(p.ljust(symbol_len, b"\0") for p in payloads)
    return np.frombuffer(buf, dtype=np.uint8).reshape(rows, symbol_len)


def encode_batch(batch_id: int, sources: list[SourceSymbol],
                 num_parity: int) -> list[ParitySymbol]:
    """Produce the parity symbols for one batch.

    Sources are used in the given order; position in the batch is what
    the math binds to, the (flow_id, seq) pairs are just labels carried
    in the metadata.
    """
    if not sources:
        raise EmptyBatch("cannot encode an empty batch")
    k = len(sources)
    _check_envelope(k, num_parity)
    seen = set()
    for s in sources:
        key = (s.flow_id, s.seq)
        if key in seen:
            raise MetadataMismatch(f"duplicate member {key} in batch")
        seen.add(key)

    members = tuple((s.flow_id, s.seq, len(s.payload)) for s in sources)
    symbol_len = max(len(s.payload) for s in sources)
    data = _stack((s.payload for s in sources), k, symbol_len)

    gen = gf256.parity_matrix(k, num_parity)
    parity = gf256.gf_matmul(gen, data)
    return [
        ParitySymbol(batch_id, i, num_parity, members, parity[i].tobytes())
        for i in range(num_parity)
    ]


def decode_batch(present: list[SourceSymbol],
                 parity: list[ParitySymbol]) -> list[SourceSymbol]:
    """Reconstruct the batch members absent from ``present``.

    Present symbols not named in the parity metadata are ignored, and
    any object with ParitySymbol's fields (a ``wire.CodedPacket``, for
    one) serves as a parity symbol.  Returns the recovered symbols in
    batch order, payloads truncated to their original lengths.  Raises
    InsufficientSymbols when more members are missing than parity
    symbols are supplied.
    """
    if not parity:
        raise EmptyBatch("decode needs at least one parity symbol")
    ref = parity[0]
    for p in parity[1:]:
        if (p.batch_id, p.members, p.num_parity) != (ref.batch_id, ref.members, ref.num_parity):
            raise MetadataMismatch("parity symbols from different batches")
    indices = set()
    for p in parity:
        if not 0 <= p.parity_index < ref.num_parity:
            raise MetadataMismatch(f"parity_index {p.parity_index} out of range")
        if p.parity_index in indices:
            raise MetadataMismatch(f"duplicate parity_index {p.parity_index}")
        indices.add(p.parity_index)
    symbol_len = len(ref.payload)
    for p in parity:
        if len(p.payload) != symbol_len:
            raise MetadataMismatch("parity symbols of unequal length")

    members = ref.members
    k = len(members)
    pos = {(m[0], m[1]): i for i, m in enumerate(members)}
    have: dict[int, bytes] = {}
    for s in present:
        i = pos.get((s.flow_id, s.seq))
        if i is not None:
            have[i] = s.payload
    missing = [i for i in range(k) if i not in have]
    if not missing:
        return []
    if len(missing) > len(parity):
        raise InsufficientSymbols(len(missing), len(parity))

    gen = gf256.parity_matrix(k, ref.num_parity)
    use = sorted(parity, key=lambda p: p.parity_index)[:len(missing)]

    # subtract the known sources' contribution from each parity row
    rows = [p.parity_index for p in use]
    rhs = _stack((p.payload for p in use), len(use), symbol_len)
    if have:
        known_idx = sorted(have)
        known = _stack((have[i][:symbol_len] for i in known_idx),
                       len(known_idx), symbol_len)
        rhs = rhs ^ gf256.gf_matmul(gen[np.ix_(rows, known_idx)], known)

    # solve the residual square system for the missing positions
    a = gen[np.ix_(rows, missing)]
    inv = gf256.gf_inv_matrix(a)
    solved = gf256.gf_matmul(inv, rhs)

    out = []
    for r, i in enumerate(missing):
        flow_id, seq, orig_len = members[i]
        out.append(SourceSymbol(flow_id, seq, solved[r].tobytes()[:orig_len]))
    return out
