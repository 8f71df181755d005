"""Independent reference implementation for codec verification.

Everything here is deliberately written against the production codec's
grain: multiplication is Russian-peasant bitwise reduction instead of
log/exp tables, and reconstruction solves the full stacked generator
system by Gaussian elimination instead of the codec's reduced residual
system.  Agreement between the two is therefore meaningful.
"""

from __future__ import annotations

POLY = 0x11D


def mul(a: int, b: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= POLY
    return acc


def inv(a: int) -> int:
    # a^(2^8 - 2) by square-and-multiply
    if a == 0:
        raise ZeroDivisionError
    out = 1
    e = 254
    base = a
    while e:
        if e & 1:
            out = mul(out, base)
        base = mul(base, base)
        e >>= 1
    return out


def power(a: int, n: int) -> int:
    out = 1
    for _ in range(n):
        out = mul(out, a)
    return out


def generator_rows(k: int, num_parity: int) -> list[list[int]]:
    """Parity rows of the systematic generator: W[i][j] = (2^j)^i."""
    return [[power(power(2, j), i) for j in range(k)] for i in range(num_parity)]


def encode(payloads: list[bytes], num_parity: int) -> list[bytes]:
    k = len(payloads)
    length = max(len(p) for p in payloads)
    padded = [p + bytes(length - len(p)) for p in payloads]
    rows = generator_rows(k, num_parity)
    out = []
    for i in range(num_parity):
        sym = bytearray(length)
        for j in range(k):
            c = rows[i][j]
            for t in range(length):
                sym[t] ^= mul(c, padded[j][t])
        out.append(bytes(sym))
    return out


def solve(matrix: list[list[int]], rhs: list[bytes]) -> list[bytes]:
    """Solve M x = rhs over GF(256), rhs rows are byte strings."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    r = [bytearray(row) for row in rhs]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        r[col], r[piv] = r[piv], r[col]
        scale = inv(m[col][col])
        m[col] = [mul(scale, v) for v in m[col]]
        r[col] = bytearray(mul(scale, v) for v in r[col])
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [a ^ mul(f, b) for a, b in zip(m[i], m[col])]
                r[i] = bytearray(a ^ mul(f, b) for a, b in zip(r[i], r[col]))
    return [bytes(row) for row in r]


def reconstruct(k: int, num_parity: int, kept: dict[int, bytes],
                parity_kept: dict[int, bytes]) -> list[bytes]:
    """Rebuild all k source payloads from any k surviving symbols.

    kept maps source position -> payload, parity_kept maps parity index
    -> payload.  Builds the full (k x k) system from the survivors'
    generator rows and solves it outright.
    """
    length = None
    for v in list(kept.values()) + list(parity_kept.values()):
        length = len(v) if length is None else length
        if len(v) != length:
            raise ValueError(f"survivor of {len(v)} bytes among rows of {length}")
    prows = generator_rows(k, num_parity)
    rows = []
    rhs = []
    for pos in sorted(kept):
        rows.append([1 if j == pos else 0 for j in range(k)])
        rhs.append(kept[pos])
    for idx in sorted(parity_kept):
        rows.append(prows[idx])
        rhs.append(parity_kept[idx])
    if len(rows) < k:
        raise ValueError(f"not enough survivors: {len(rows)} of {k}")
    return solve([row[:] for row in rows[:k]], rhs[:k])
