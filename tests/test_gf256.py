"""Field tables, the product kernel, and the generator's MDS envelope."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

import oracle_gf
from caspr import gf256


def test_tables_against_bitwise_multiply():
    rng = random.Random(1)
    for _ in range(2000):
        a, b = rng.randrange(256), rng.randrange(256)
        assert gf256.gf_mul(a, b) == oracle_gf.mul(a, b)
        assert gf256.MUL[a, b] == oracle_gf.mul(a, b)


def test_field_axioms_sampled():
    rng = random.Random(2)
    for _ in range(500):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)
        assert gf256.gf_mul(a, gf256.gf_mul(b, c)) == gf256.gf_mul(gf256.gf_mul(a, b), c)
        assert gf256.gf_mul(a, b ^ c) == gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
    for a in range(1, 256):
        assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1


def test_zero_length_payload_matmul():
    mat = gf256.parity_matrix(3, 2)
    out = gf256.gf_matmul(mat, np.zeros((3, 0), dtype=np.uint8))
    assert out.shape == (2, 0)


def test_parity_matrix_first_row_all_ones():
    for k in (1, 5, 20, 64):
        assert (gf256.parity_matrix(k, 3)[0] == 1).all()


def test_generator_mds_over_validated_envelope():
    # every square submatrix of the parity rows must be invertible for
    # any-k-of-n decode to hold; sweep the full validated range
    def all_submatrices_invertible(k, p):
        w = gf256.parity_matrix(k, p)
        for m in range(1, p + 1):
            for rows in itertools.combinations(range(p), m):
                for cols in itertools.combinations(range(k), m):
                    sub = w[np.ix_(rows, cols)]
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
    rng = np.random.default_rng(4)
    for n in (1, 2, 4, 7):
        while True:
            a = rng.integers(0, 256, (n, n), dtype=np.uint8)
            try:
                inv = gf256.gf_inv_matrix(a)
                break
            except ZeroDivisionError:
                continue
        prod = gf256.gf_matmul(a, inv.astype(np.uint8))
        assert (prod == np.eye(n, dtype=np.uint8)).all()


def test_singular_matrix_raises():
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv_matrix(a)
