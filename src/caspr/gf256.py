"""GF(2^8) arithmetic for the erasure codec.

Field with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
usual choice for byte-oriented storage codes.  The tables are plain
``bytes`` built at import without a per-product loop: ``EXP`` holds the
powers of 2, ``LOG`` their inverse, and ``TABLES[c]``, the 256-byte
``bytes.translate`` table of multiplication by c, is the row of logs
mapped through ``EXP`` shifted by log(c).  Parity generation and
reconstruction both reduce to one kernel, ``gf_combine``: each output
row is the field sum of the input rows, each scaled by its coefficient.
Addition in the field is XOR, so the kernel XORs rows as little-endian
ints; a coefficient of 1 takes the row as it is, and any other nonzero
coefficient c first maps the row's bytes through ``TABLES[c]``.  The
codec computes a batch's parity only when a decode or a serialize reads
it, so in a simulation the products run for decoded batches alone, a
small share of those encoded.  The generator is a pure function of
(k, p), so ``parity_matrix`` builds it once per shape as shared tuples;
``gf_inv_matrix`` inverts the small decode systems over ints.
``gf_matmul`` wraps the kernel for numpy arrays.  It is a shim kept
only while the benchmark under ``perfbench/`` calls it, and it imports
numpy in its body, so no simulation path imports numpy.
"""

from __future__ import annotations

import functools

POLY = 0x11D
ORDER = 255


def _powers():
    x = 1
    for _ in range(ORDER):
        yield x
        x <<= 1
        if x & 0x100:
            x ^= POLY


_exp = bytes(_powers())
# exp table doubled so LOG[a]+LOG[b] never needs a modulo
EXP = _exp * 2 + _exp[:2]
_log = [0] * 256
for _i, _x in enumerate(_exp):
    _log[_x] = _i
LOG = tuple(_log)

# TABLES[c] is the bytes.translate table of multiplication by c:
# b.translate(TABLES[c]) multiplies every byte of b by c.  For c != 0,
# byte b != 0 maps to EXP[LOG[c] + LOG[b]], so the table is the logs of
# 1..255 translated through EXP shifted by LOG[c]
_logs = bytes(LOG[1:])
TABLES = [bytes(256)] + [b"\x00" + _logs.translate(EXP[LOG[c]:LOG[c] + 256])
                         for c in range(1, 256)]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("gf_inv(0)")
    return EXP[ORDER - LOG[a]]


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


def gf_matmul(mat, data):
    """GF matrix product into a uint8 array, (p,k) x (k,L) -> (p,L), by
    ``gf_combine``; ``mat`` is an array or nested tuples, ``data`` a
    uint8 array.  Only the benchmark calls it, so numpy is imported
    here and nowhere else in the package."""
    import numpy as np
    length = data.shape[1]
    out = gf_combine(np.asarray(mat).tolist(), [r.tobytes() for r in data], length)
    flat = bytearray(b"".join(out))
    return np.frombuffer(flat, dtype=np.uint8).reshape(len(out), length)


# perfbench reads these names: the backend flag for its environment block
# and the reference it checks gf_matmul against; gf_combine is the only kernel
USE_NUMBA = False
_matmul_numpy = gf_matmul


@functools.cache
def parity_matrix(k: int, num_parity: int) -> tuple[tuple[int, ...], ...]:
    """Parity generator rows W[i][j] = alpha^(i*j), num_parity rows of k.

    Row 0 is all ones, so a single parity symbol is the plain XOR of the
    sources.  Stacked under an identity this is MDS (any k of the k+p
    symbols reconstruct) for num_parity <= 3 at any k, and for
    num_parity == 4 up to k == 20; the codec refuses anything beyond
    that envelope, see codec.InvalidParams.  Cached per shape, so the
    result is one shared tuple of tuples.
    """
    return tuple(tuple(EXP[i * j % ORDER] for j in range(k))
                 for i in range(num_parity))


def gf_inv_matrix(a) -> tuple[tuple[int, ...], ...]:
    """Invert a small square matrix over the field by Gauss-Jordan.

    ``a`` is a sequence of n rows of n ints; the inverse comes back as
    a tuple of n tuples.  Raises ZeroDivisionError when ``a`` is
    singular.
    """
    n = len(a)
    aug = [[*map(int, row), *(int(r == c) for c in range(n))]
           for r, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix over GF(256)")
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = TABLES[gf_inv(aug[col][col])]
        pivot = aug[col] = [scale[x] for x in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                times = TABLES[c]
                aug[r] = [x ^ times[y] for x, y in zip(aug[r], pivot)]
    return tuple(tuple(row[n:]) for row in aug)
