"""GF(2^8) arithmetic for the erasure codec.

Field with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
usual choice for byte-oriented storage codes.  Parity generation and
reconstruction both reduce to one kernel, ``gf_combine``: each output
row is the field sum of the input rows, each scaled by its coefficient.
Addition in the field is XOR, so the kernel XORs rows as little-endian
ints; a coefficient of 1 takes the row as it is, and any other
nonzero coefficient c first maps the row's bytes through ``TABLES[c]``,
the 256-byte ``bytes.translate`` table of multiplication by c.  The
codec computes a batch's parity only when a decode or a serialize reads
it, so in a simulation the products run for decoded batches alone, a
small share of those encoded.  ``gf_matmul`` is the same kernel over
numpy arrays, for callers that hold matrices; ``perfbench/kernel.py``
times it.  The generator is a pure function of (k, p), so it is built
once per shape and shared read-only, as an array (``parity_matrix``)
and as tuples (``parity_rows``).
"""

from __future__ import annotations

import functools

import numpy as np

POLY = 0x11D
ORDER = 255

# exp table doubled so log[a]+log[b] never needs a modulo
EXP = np.zeros(512, dtype=np.uint8)
LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(ORDER):
    EXP[_i] = _x
    LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= POLY
EXP[ORDER:2 * ORDER] = EXP[:ORDER]
EXP[2 * ORDER:] = EXP[:512 - 2 * ORDER]

# full 256x256 product table, 64 KiB; MUL[a, b] == gf_mul(a, b)
MUL = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
MUL[1:, 1:] = EXP[(LOG[_nz][:, None] + LOG[_nz][None, :]) % ORDER]

# TABLES[c] is row c of MUL as a bytes.translate table: b.translate(TABLES[c])
# multiplies every byte of b by c
_mul_bytes = MUL.tobytes()
TABLES = [_mul_bytes[c << 8:(c + 1) << 8] for c in range(256)]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(EXP[LOG[a] + LOG[b]])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("gf_inv(0)")
    return int(EXP[ORDER - LOG[a]])


def gf_combine(mat, rows: list[bytes], length: int) -> list[bytes]:
    """GF matrix product over byte rows, (p,k) x k rows -> p rows of length.

    ``mat`` is a sequence of p coefficient sequences of k ints each.  A
    row shorter than ``length`` counts as zero-padded at its end, which
    costs nothing: a trailing zero byte leaves a little-endian int
    unchanged, and ``TABLES[c][0] == 0``.  No row may be longer.
    """
    out = []
    for coeffs in mat:
        acc = 0
        for c, row in zip(coeffs, rows, strict=True):
            if c == 1:
                acc ^= int.from_bytes(row, "little")
            elif c:
                acc ^= int.from_bytes(row.translate(TABLES[c]), "little")
        out.append(acc.to_bytes(length, "little"))
    return out


def gf_matmul(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF matrix product of uint8 arrays, (p,k) x (k,L) -> (p,L), by
    ``gf_combine``."""
    length = data.shape[1]
    out = gf_combine(mat.tolist(), [r.tobytes() for r in data], length)
    flat = bytearray(b"".join(out))
    return np.frombuffer(flat, dtype=np.uint8).reshape(mat.shape[0], length)


# perfbench reads these names: the backend flag for its environment block
# and the reference it checks gf_matmul against; gf_combine is the only kernel
USE_NUMBA = False
_matmul_numpy = gf_matmul


@functools.cache
def parity_matrix(k: int, num_parity: int) -> np.ndarray:
    """Parity generator rows W[i][j] = alpha^(i*j), shape (num_parity, k).

    Row 0 is all ones, so a single parity symbol is the plain XOR of the
    sources.  Stacked under an identity this is MDS (any k of the k+p
    symbols reconstruct) for num_parity <= 3 at any k, and for
    num_parity == 4 up to k == 20; the codec refuses anything beyond
    that envelope, see codec.InvalidParams.  Cached per shape, so the
    result is one shared read-only array.
    """
    rows = np.arange(num_parity, dtype=np.int64)[:, None]
    cols = np.arange(k, dtype=np.int64)[None, :]
    gen = EXP[(rows * cols) % ORDER].astype(np.uint8)
    gen.flags.writeable = False
    return gen


@functools.cache
def parity_rows(k: int, num_parity: int) -> tuple[tuple[int, ...], ...]:
    """``parity_matrix(k, num_parity)`` as tuples of ints, for gf_combine."""
    return tuple(map(tuple, parity_matrix(k, num_parity).tolist()))


def gf_inv_matrix(a: np.ndarray) -> np.ndarray:
    """Invert a small square matrix over the field by Gauss-Jordan."""
    n = a.shape[0]
    aug = np.zeros((n, 2 * n), dtype=np.uint8)
    aug[:, :n] = a
    aug[np.arange(n), n + np.arange(n)] = 1
    for col in range(n):
        piv = col
        while piv < n and aug[piv, col] == 0:
            piv += 1
        if piv == n:
            raise ZeroDivisionError("singular matrix over GF(256)")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        inv = gf_inv(int(aug[col, col]))
        aug[col] = MUL[inv][aug[col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= MUL[int(aug[r, col])][aug[col]]
    return aug[:, n:].copy()
