"""GF(2^8) arithmetic for the erasure codec.

Field with primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
usual choice for byte-oriented storage codes.  Parity generation and
reconstruction both reduce to matrix products over the field, and those
inner loops over payload bytes are the hot path of the whole package:
everything else is control logic.  Addition in the field is XOR, so the
product kernel XOR-reduces the data rows for a matrix row of all ones
(the generator's row 0, the single-parity case and a 1x1 decode
inverse), XORs a data row in for any other coefficient 1, and gathers
through a full 256x256 product table only for the remaining nonzero
coefficients; ``perfbench/kernel.py`` times it.  The generator is a pure
function of (k, p), so it is built once per shape and shared read-only.
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


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(EXP[LOG[a] + LOG[b]])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("gf_inv(0)")
    return int(EXP[ORDER - LOG[a]])


def gf_matmul(mat: np.ndarray, data: np.ndarray) -> np.ndarray:
    """GF matrix product, (p,k) x (k,L) -> (p,L).

    data is uint8.  A row of all ones is the XOR of the data rows; any
    other row XORs in the gather MUL[c][data[j]] per nonzero coefficient
    c, or data[j] itself when c is 1 (MUL[1] is the identity).
    """
    k = mat.shape[1]
    out = np.zeros((mat.shape[0], data.shape[1]), dtype=np.uint8)
    for i, row in enumerate(mat.tolist()):
        acc = out[i]
        if row.count(1) == k:
            np.bitwise_xor.reduce(data, axis=0, out=acc)
            continue
        for j, c in enumerate(row):
            if c == 1:
                acc ^= data[j]
            elif c:
                acc ^= MUL[c].take(data[j])
    return out


# perfbench reads these names: the backend flag for its environment block
# and the reference it checks gf_matmul against; numpy is the only kernel
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
