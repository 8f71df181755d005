"""Per-call timings of the GF(256) product kernel, ``gf256.gf_matmul``.

The codec spends its arithmetic in one kernel, a (p,k) x (k,L) product
over the field, used to generate parity and, after inverting a small
decode matrix, to rebuild erased payloads.  caspr picks the kernel once
at import: the numba loop when numba imports and CASPR_NUMBA is not 0,
the numpy table gather otherwise.  This module times whichever kernel
is active (the numpy one when numba is absent) on batch shapes the
bundled scenarios produce, after checking its results: the product must
equal the numpy reference, and the decode product must undo the matrix
it inverts.  The checks raise, so they also run under ``python -O``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# (k data symbols, p parity) pairs seen in the bundled scenarios, small
# cross-stream groups up to the widest the codec accepts
SHAPES = [(4, 1), (4, 2), (8, 2), (16, 1), (16, 2), (20, 4)]
PAYLOAD = 1200  # bytes per symbol, the largest packet a bundled scenario sends


class KernelMismatch(RuntimeError):
    """The timed kernel computed a wrong product."""


def _time_call(fn, args, repeats: int) -> float:
    """Median wall time of fn(*args) in microseconds."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        samples.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(samples)


def bench(gf256, seed: int, repeats: int) -> dict[str, float]:
    """{'enc_us.<k>x<p>': median, 'dec_us.<k>x<p>': median} for every shape."""
    rng = np.random.default_rng(seed)
    kernel = gf256.gf_matmul
    out = {}
    for k, p in SHAPES:
        mat = gf256.parity_matrix(k, p)
        data = rng.integers(0, 256, size=(k, PAYLOAD), dtype=np.uint8)
        # decode work item: invert a p x p corner and multiply it out,
        # the shape reconstruction hits after p erasures
        square = gf256.parity_matrix(p, p) if p > 1 else np.ones((1, 1), np.uint8)
        inv = gf256.gf_inv_matrix(square)
        dec_data = rng.integers(0, 256, size=(p, PAYLOAD), dtype=np.uint8)

        if not np.array_equal(kernel(mat, data), gf256._matmul_numpy(mat, data)):
            raise KernelMismatch(f"encode {k}x{p} disagrees with the numpy reference")
        solved = kernel(inv, dec_data)
        if not np.array_equal(kernel(square, solved), dec_data):
            raise KernelMismatch(f"decode {k}x{p} does not invert its matrix")

        out[f"enc_us.{k}x{p}"] = _time_call(kernel, (mat, data), repeats)
        out[f"dec_us.{k}x{p}"] = _time_call(kernel, (inv, dec_data), repeats)
    return out
