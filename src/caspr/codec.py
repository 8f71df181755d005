"""Systematic erasure coding of packet batches.

A batch is an ordered list of source ``wire.DataPacket``s, possibly
from different flows.  Encoding checks the batch and builds its
``num_parity`` parity ``wire.CodedPacket``s, whose payloads are computed
on first read: all rows of a batch in one ``gf256.gf_combine`` call, so
a batch that nothing decodes or serializes costs no field arithmetic.
The code is systematic (source payloads are never transformed) and any
``k`` of the ``k + p`` packets reconstruct the rest.
Payloads in one batch may differ in length: shorter ones are zero-padded
to the longest, and each member's original length and send time travel
in the parity metadata.  Decode maps (flow_id, seq) to payloads.  It
solves one erasure pattern, (k, p, the parity rows used, the missing
positions), with a decode matrix that is inverted once per pattern and
cached, then rebuilds the missing payloads in one ``gf_combine`` call
over the parity and known payloads as they are.  A pattern's matrix is
built in pure Python from the tuple generator: a small Gauss-Jordan
inverse, then one more ``gf_combine`` call.

Cross-flow and in-flow coding use this module identically; they differ
only in who fills the batch (see ingress).
"""

from __future__ import annotations

import functools

from . import gf256
from .wire import CodedPacket, DataPacket, Entry


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


def check_envelope(k: int, p: int) -> None:
    """Raise InvalidParams unless k sources with p parity survive any p losses."""
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


class _BatchParity:
    """The parity rows of one batch, all computed by one kernel call on
    the first read of any of them."""

    __slots__ = ("sources", "num_parity", "symbol_len", "rows")

    def __init__(self, sources: list[bytes], num_parity: int, symbol_len: int):
        self.sources = sources
        self.num_parity = num_parity
        self.symbol_len = symbol_len
        self.rows = None

    def row(self, i: int) -> bytes:
        if self.rows is None:
            gen = gf256.parity_matrix(len(self.sources), self.num_parity)
            self.rows = gf256.gf_combine(gen, self.sources, self.symbol_len)
            self.sources = None  # the rows no longer need them
        return self.rows[i]


def encode_batch(batch_id: int, sources: list[DataPacket], num_parity: int,
                 cross: bool, send_ts_us: int) -> list[CodedPacket]:
    """Build the parity packets of one batch, sent at ``send_ts_us``.

    Sources are used in the given order; position in the batch is what
    the math binds to, the (flow_id, seq) pairs are just labels carried
    in the metadata, next to each source's payload length and its own
    ``send_ts_us`` as ``member_ts``.

    The batch is checked here, but its parity bytes are computed only
    when some packet's ``payload`` is first read, all rows at once;
    until then a packet knows only their length, ``symbol_len``.
    """
    if not sources:
        raise EmptyBatch("cannot encode an empty batch")
    k = len(sources)
    check_envelope(k, num_parity)
    seen = set()
    for s in sources:
        key = (s.flow_id, s.seq)
        if key in seen:
            raise MetadataMismatch(f"duplicate member {key} in batch")
        seen.add(key)

    payloads = [s.payload for s in sources]
    members = tuple((s.flow_id, s.seq, len(s.payload)) for s in sources)
    member_ts = tuple(s.send_ts_us for s in sources)
    symbol_len = max(map(len, payloads))
    memo = _BatchParity(payloads, num_parity, symbol_len)
    return [
        CodedPacket(cross, batch_id, i, num_parity, members,
                    (functools.partial(memo.row, i), symbol_len),
                    send_ts_us, member_ts)
        for i in range(num_parity)
    ]


def decode_batch(present: dict[Entry, bytes],
                 parity: list[CodedPacket]) -> dict[Entry, bytes]:
    """Reconstruct the batch members absent from ``present``.

    ``present`` maps (flow_id, seq) to the payloads already known; keys
    the parity metadata does not name are ignored.  Returns the
    recovered payloads keyed the same way, in batch order and truncated
    to their original lengths; a caller that delivers by iterating the
    result delivers in batch order.  Raises InsufficientSymbols when
    more members are missing than parity packets are supplied.
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
    symbol_len = ref.symbol_len
    for p in parity:
        if p.symbol_len != symbol_len:
            raise MetadataMismatch("parity symbols of unequal length")

    keys = [(f, s) for f, s, _ in ref.members]
    known = [i for i, key in enumerate(keys) if key in present]
    missing = [i for i, key in enumerate(keys) if key not in present]
    if not missing:
        return {}
    if len(missing) > len(parity):
        raise InsufficientSymbols(len(missing), len(parity))

    use = sorted(parity, key=lambda p: p.parity_index)[:len(missing)]
    mat = _decode_matrix(len(keys), ref.num_parity,
                         tuple(p.parity_index for p in use), tuple(missing))
    rows = [p.payload for p in use]
    rows += [present[keys[i]][:symbol_len] for i in known]
    solved = gf256.gf_combine(mat, rows, symbol_len)
    return {keys[i]: solved[r][:ref.members[i][2]]
            for r, i in enumerate(missing)}


@functools.lru_cache(maxsize=1024)
def _decode_matrix(k: int, num_parity: int, rows: tuple[int, ...],
                   missing: tuple[int, ...]) -> tuple[bytes, ...]:
    """The matrix that maps (used parity payloads, known payloads) to the
    missing ones, for parity ``rows`` and ``missing`` positions, one
    ``bytes`` row of k coefficients per missing payload.

    With G the generator, the used parity rows P satisfy
    G[rows, missing] X = P + G[rows, known] D, so the missing payloads
    are X = inv(G[rows, missing]) [I | G[rows, known]] [P; D].  Built
    once per erasure pattern; the bounded cache keeps state small at
    any k.
    """
    gen = gf256.parity_matrix(k, num_parity)
    known = [j for j in range(k) if j not in missing]
    inv = gf256.gf_inv_matrix([[gen[r][j] for j in missing] for r in rows])
    rhs = [bytes(int(r == s) for s in rows) + bytes(gen[r][j] for j in known)
           for r in rows]
    return tuple(gf256.gf_combine(inv, rhs, k))
