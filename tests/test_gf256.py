"""Field tables, the product kernel, and the generator's MDS envelope."""

from __future__ import annotations

import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_gf
from caspr import gf256


def test_tables_against_bitwise_multiply():
    # TABLES is the one product table, so every entry is checked
    assert len(gf256.TABLES) == 256
    for a, table in enumerate(gf256.TABLES):
        assert table == bytes(oracle_gf.mul(a, b) for b in range(256))


def test_field_axioms_sampled():
    mul = gf256.TABLES
    rng = random.Random(2)
    for _ in range(500):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert mul[a][b] == mul[b][a]
        assert mul[a][mul[b][c]] == mul[mul[a][b]][c]
        assert mul[a][b ^ c] == mul[a][b] ^ mul[a][c]
    for a in range(1, 256):
        assert mul[a][gf256.gf_inv(a)] == 1


def test_zero_length_payload_matmul():
    mat = gf256.parity_matrix(3, 2)
    out = gf256.gf_matmul(mat, np.zeros((3, 0), dtype=np.uint8))
    assert out.shape == (2, 0)


@st.composite
def matmul_operands(draw):
    """(mat, data) for gf_matmul: general (p,k) matrices with some rows
    forced to all ones and zero and one coefficients drawn often, plus
    1x1 and identity matrices."""
    shape = draw(st.sampled_from(["general", "one_by_one", "identity"]))
    if shape == "general":
        p, k = draw(st.integers(1, 4)), draw(st.integers(1, 20))
    elif shape == "one_by_one":
        p = k = 1
    else:
        p = k = draw(st.integers(1, 4))
    if shape == "identity":
        mat = np.eye(p, dtype=np.uint8)
    else:
        coeff = st.one_of(st.just(0), st.just(1), st.integers(0, 255))
        mat = np.array(draw(st.lists(st.lists(coeff, min_size=k, max_size=k),
                                     min_size=p, max_size=p)), dtype=np.uint8)
        for i in draw(st.sets(st.integers(0, p - 1))):
            mat[i] = 1
    length = draw(st.integers(0, 64))
    raw = draw(st.binary(min_size=k * length, max_size=k * length))
    return mat, np.frombuffer(raw, dtype=np.uint8).reshape(k, length)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(matmul_operands())
def test_matmul_matches_scalar_oracle(operands):
    mat, data = operands
    want = [[functools.reduce(operator.xor,
                              (oracle_gf.mul(c, b) for c, b in zip(row, col)), 0)
             for col in zip(*data.tolist())] for row in mat.tolist()]
    got = gf256.gf_matmul(mat, data)
    assert got.dtype == np.uint8 and got.shape == (mat.shape[0], data.shape[1])
    assert got.tolist() == want


@st.composite
def combine_operands(draw):
    """(mat, rows, length) for gf_combine: p x k coefficient rows with
    zero and one drawn often, and k byte rows of ragged lengths up to
    ``length``, empty rows and ``length == 0`` included."""
    p, k = draw(st.integers(1, 4)), draw(st.integers(0, 20))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, 255))
    mat = draw(st.lists(st.lists(coeff, min_size=k, max_size=k), min_size=p, max_size=p))
    length = draw(st.integers(0, 64))
    rows = draw(st.lists(st.binary(max_size=length), min_size=k, max_size=k))
    return mat, rows, length


@settings(max_examples=200, derandomize=True, deadline=None)
@given(combine_operands())
def test_combine_matches_scalar_oracle(operands):
    mat, rows, length = operands
    padded = [r.ljust(length, b"\0") for r in rows]
    want = [bytes(functools.reduce(operator.xor,
                                   (oracle_gf.mul(c, r[t]) for c, r in zip(row, padded)), 0)
                  for t in range(length)) for row in mat]
    assert gf256.gf_combine(mat, rows, length) == want


def test_parity_matrix_is_one_shared_read_only_array():
    gen = gf256.parity_matrix(7, 3)
    assert gf256.parity_matrix(7, 3) is gen
    assert type(gen) is tuple and all(type(row) is tuple for row in gen)
    assert gen == tuple(map(tuple, oracle_gf.generator_rows(7, 3)))
    with pytest.raises(TypeError):
        gen[1][1] = 0


def test_parity_matrix_first_row_all_ones():
    for k in (1, 5, 20, 64):
        assert gf256.parity_matrix(k, 3)[0] == (1,) * k


def test_generator_mds_over_validated_envelope():
    # every square submatrix of the parity rows must be invertible for
    # any-k-of-n decode to hold; sweep the full validated range
    def all_submatrices_invertible(k, p):
        w = gf256.parity_matrix(k, p)
        for m in range(1, p + 1):
            for rows in itertools.combinations(range(p), m):
                for cols in itertools.combinations(range(k), m):
                    sub = [[w[r][c] for c in cols] for r in rows]
                    try:
                        gf256.gf_inv_matrix(sub)
                    except ZeroDivisionError:
                        return False
        return True

    assert all_submatrices_invertible(10, 4)
    assert all_submatrices_invertible(20, 4)
    assert all_submatrices_invertible(24, 3)
    # and the first known-bad geometry beyond the envelope really is bad,
    # which is why the codec refuses it
    assert not all_submatrices_invertible(24, 4)


def test_matrix_inverse_roundtrip():
    def product(a, b):
        return [[functools.reduce(operator.xor,
                                  (oracle_gf.mul(x, y) for x, y in zip(row, col)), 0)
                 for col in zip(*b)] for row in a]

    rng = random.Random(4)
    for n in (1, 2, 4, 7):
        while True:
            a = [[rng.randrange(256) for _ in range(n)] for _ in range(n)]
            try:
                inv = gf256.gf_inv_matrix(a)
                break
            except ZeroDivisionError:
                continue
        assert type(inv) is tuple and all(type(row) is tuple for row in inv)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert product(a, inv) == eye
        assert product(inv, a) == eye


def test_singular_matrix_raises():
    a = ((1, 1), (1, 1))
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv_matrix(a)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv(0)
