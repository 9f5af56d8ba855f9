"""GELU as a kernel primitive: the fused float32 erf against the SciPy oracle.

The ``reference`` backend evaluates ``Phi(x) = 0.5 * (1 + erf(x / sqrt 2))``
with ``scipy.special.erf``; ``fused`` (and ``parallel``, which inherits
it) evaluates float32 inputs with a blocked rational erf in per-thread
scratch (a lower-degree rational for blocks within |x| <= 3.5, Eigen's
full-range one otherwise) and sends every other dtype to SciPy.  These
tests pin the accuracy bound on both rationals, the IEEE edge cases, the
backward, the no-mutation contract and thread safety of the block
scratch.  Every test names its
backends explicitly, so the file means the same under any
``RITA_KERNEL_BACKEND``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.kernels as K
from repro.autograd import Tensor, gradcheck, no_grad

FAST = ("fused", "parallel")
ALL = ("reference",) + FAST

#: Larger than one GELU block, so every test crosses a block boundary.
_MULTI_BLOCK = 3 * 40_000 + 17


def _scaled_error(got, expected, x):
    return np.abs(got.astype(np.float64) - expected) / np.maximum(1.0, np.abs(x))


@pytest.mark.parametrize("name", FAST)
def test_float32_matches_reference_on_dense_grid(name):
    x = np.linspace(-12.0, 12.0, 2_400_001).astype(np.float32)
    out_ref, cdf_ref = K.get_backend("reference").gelu(x)
    out, cdf = K.get_backend(name).gelu(x)
    assert out.dtype == cdf.dtype == np.float32
    assert _scaled_error(out, out_ref, x).max() <= 1e-6
    assert np.abs(cdf.astype(np.float64) - cdf_ref).max() <= 1e-6
    assert cdf.min() >= 0.0 and cdf.max() <= 1.0
    np.testing.assert_array_equal(K.get_backend(name).gelu_infer(x), out)


@pytest.mark.parametrize("name", FAST)
def test_outliers_send_only_their_block_to_the_full_range_rational(name):
    # Blocks within |x| <= 3.5 use a narrower rational that is wrong
    # outside that range; one outlier must move its whole block off it.
    x = np.linspace(-1.0, 1.0, 4 * 65_536 + 17).astype(np.float32)
    x[70_000], x[140_000], x[200_000] = 10.0, np.nan, -3.6
    out_ref, _ = K.get_backend("reference").gelu(x)
    out, cdf = K.get_backend(name).gelu(x)
    assert out[70_000] == 10.0 and np.isnan(out[140_000]) and np.isnan(cdf[140_000])
    finite = ~np.isnan(x)
    assert _scaled_error(out[finite], out_ref[finite], x[finite]).max() <= 1e-6


@pytest.mark.parametrize("name", FAST)
def test_edge_values_match_reference_bitwise(name):
    tiny = np.finfo(np.float32).tiny
    x = np.array(
        [0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, tiny / 2, -tiny / 2,
         3e38, -3e38, np.finfo(np.float32).max, np.inf, -np.inf, np.nan, -np.nan],
        dtype=np.float32,
    )
    with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
        expected, expected_cdf = K.get_backend("reference").gelu(x)
        out, cdf = K.get_backend(name).gelu(x)
        infer = K.get_backend(name).gelu_infer(x)
    nan = np.isnan(expected)
    assert nan.tolist() == [False] * 12 + [True] * 3
    for got in (out, infer):
        np.testing.assert_array_equal(np.isnan(got), nan)
        # Bitwise, so signed zeros and the subnormal roundings count too.
        np.testing.assert_array_equal(got[~nan].view(np.int32), expected[~nan].view(np.int32))
    np.testing.assert_array_equal(np.isnan(cdf), np.isnan(expected_cdf))


@pytest.mark.parametrize("name", FAST)
def test_float32_backward_matches_reference(name, rng):
    x = (rng.standard_normal(_MULTI_BLOCK) * 4.0).astype(np.float32)
    upstream = rng.standard_normal(_MULTI_BLOCK).astype(np.float32)

    def input_grad(backend):
        with K.use_backend(backend):
            leaf = Tensor(x, requires_grad=True)
            out = K.gelu(leaf)
            (out * Tensor(upstream)).sum().backward()
        return out.data, leaf.grad

    out_ref, grad_ref = input_grad("reference")
    out, grad = input_grad(name)
    assert grad.dtype == np.float32
    assert _scaled_error(out, out_ref, x).max() <= 1e-6
    assert (np.abs(grad - grad_ref) / np.maximum(1.0, np.abs(upstream))).max() <= 1e-6


@pytest.mark.parametrize("name", ALL)
def test_float64_gradcheck(name, rng):
    x = Tensor(rng.standard_normal((3, 7)) * 3.0, requires_grad=True)
    with K.use_backend(name):
        assert gradcheck(K.gelu, [x])


@pytest.mark.parametrize("name", FAST)
def test_float64_takes_the_exact_scipy_path(name, rng):
    x = rng.standard_normal(1000) * 4.0
    out, cdf = K.get_backend(name).gelu(x)
    expected, expected_cdf = K.get_backend("reference").gelu(x)
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(cdf, expected_cdf)


@pytest.mark.parametrize("record", [True, False], ids=["grad", "no_grad"])
@pytest.mark.parametrize("name", ALL)
def test_input_is_never_mutated(name, record, rng):
    x = (rng.standard_normal(_MULTI_BLOCK) * 8.0).astype(np.float32)
    x[:4] = [np.inf, -np.inf, np.nan, 1e30]
    original = x.copy()
    with K.use_backend(name), np.errstate(invalid="ignore", over="ignore"):
        leaf = Tensor(x, requires_grad=record)
        if record:
            K.gelu(leaf).sum().backward()
        else:
            with no_grad():
                K.gelu(leaf)
    assert leaf.data is x
    np.testing.assert_array_equal(x.view(np.int32), original.view(np.int32))


@pytest.mark.parametrize("name", FAST)
def test_shapes_and_layouts(name, rng):
    backend = K.get_backend(name)
    matrix = rng.standard_normal((300, 257)).astype(np.float32)
    np.testing.assert_array_equal(backend.gelu_infer(matrix.T), backend.gelu_infer(matrix).T)
    assert backend.gelu_infer(np.empty((0, 4), dtype=np.float32)).shape == (0, 4)
    scalar = np.asarray(1.5, dtype=np.float32)
    assert backend.gelu_infer(scalar).shape == ()
    np.testing.assert_allclose(backend.gelu_infer(scalar), 1.5 * 0.9331928, rtol=1e-6)


def test_block_scratch_survives_8_thread_hammer():
    """8 threads, same shapes, distinct data: bitwise equal to serial runs."""
    backend = K.get_backend("fused")
    n_threads, n_rounds = 8, 15
    inputs = [
        (np.random.default_rng(seed).standard_normal(_MULTI_BLOCK) * 5.0).astype(np.float32)
        for seed in range(n_threads)
    ]
    expected = [(backend.gelu(x), backend.gelu_infer(x)) for x in inputs]
    barrier = threading.Barrier(n_threads)
    failures: list[str] = []
    lock = threading.Lock()

    def hammer(index):
        barrier.wait()
        for round_index in range(n_rounds):
            (out, cdf), infer = backend.gelu(inputs[index]), backend.gelu_infer(inputs[index])
            (want_out, want_cdf), want_infer = expected[index]
            if not (
                np.array_equal(out, want_out)
                and np.array_equal(cdf, want_cdf)
                and np.array_equal(infer, want_infer)
            ):
                with lock:
                    failures.append(f"thread {index} round {round_index} diverged")
                return

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[:5]
