"""Kernel-layer micro-benchmark: the perf trajectory file for future PRs.

Measures, on this machine:

1. **Group-attention forward+backward at n=1024** — the pre-refactor
   baseline (the exact op composition the repo shipped before the kernel
   layer: per-op autograd closures, ``np.add.at`` segment sum, float64)
   against the refactored path (fused group-softmax kernel, sort+reduceat
   segment sum, float32).  The acceptance bar is >= 2x.
2. **Tokens/sec, vanilla vs. group attention** at n in {256, 1024, 4096},
   both dtypes, forward-only under ``no_grad`` (the inference fast path).
3. **GELU forward and forward+backward** on one ``infer_eeg`` FFN
   activation (4 x 2001 x 256, float32) at two input scales, ``fused``
   against the SciPy ``reference``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_kernels.py [out.json] [--smoke]

Emits ``benchmarks/BENCH_kernels.json`` by default.  ``--smoke`` runs a
tiny geometry (seconds, exercised by CI) so the script cannot rot.
Numbers are wall-clock on whatever machine runs this, so compare ratios,
not absolute seconds, across machines.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import bench_meta, emit_payload, parse_bench_args

import repro.kernels as K
from repro.attention.group import GroupAttention
from repro.attention.vanilla import VanillaAttention
from repro.autograd import ops
from repro.autograd.tensor import Tensor, no_grad
from repro.cluster.kmeans import batched_kmeans

BATCH = 2
HEADS = 4
HEAD_DIM = 32
N_GROUPS = 64
TARGET_SPEEDUP = 2.0
#: One FFN hidden activation of the repo benchmark's ``infer_eeg`` batch:
#: 4 series x (2000 timestamps + CLS) x 4 * dim 64.
GELU_SHAPE = (4, 2001, 256)


def _time(fn, *, repeats: int, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _qkv(n: int, dtype, seed: int = 0):
    rng = np.random.default_rng(seed)
    shape = (BATCH, HEADS, n, HEAD_DIM)
    return tuple(rng.standard_normal(shape).astype(dtype) for _ in range(3))


def _grouping(k: np.ndarray, n_groups: int):
    """One clustering, shared by both paths so only attention math differs."""
    batch, heads, n, d_k = k.shape
    result = batched_kmeans(
        k.reshape(batch * heads, n, d_k), n_groups, n_iters=2,
        rng=np.random.default_rng(1),
    )
    ids = result.assignments.reshape(batch, heads, n)
    counts = result.counts.reshape(batch, heads, result.n_clusters)
    return ids, counts, result.n_clusters


# ----------------------------------------------------------------------
# Path A: the pre-refactor composition (what the repo shipped before the
# kernel layer).  Group softmax as five recorded autograd ops; segment
# sums on the np.add.at reference kernels; float64 throughout.
# ----------------------------------------------------------------------
def _legacy_group_attention(q, k, v, ids, counts, n_groups) -> Tensor:
    d_k = q.shape[-1]
    counts = counts.astype(np.float64)
    key_sums = ops.batched_segment_sum(k, ids, n_groups)
    safe_counts = np.maximum(counts, 1.0)[..., None]
    representatives = key_sums / safe_counts
    scores = (q @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))
    shift = scores.data.max(axis=-1, keepdims=True)
    exp_scores = (scores - Tensor(shift)).exp()
    weighted = exp_scores * Tensor(counts[:, :, None, :])
    denom = weighted.sum(axis=-1, keepdims=True)
    attn = exp_scores / denom
    v_agg = ops.batched_segment_sum(v, ids, n_groups)
    return attn @ v_agg


# ----------------------------------------------------------------------
# Path B: the refactored kernel path (fused group softmax, fused segment
# sum) — what GroupAttention.forward now executes.
# ----------------------------------------------------------------------
def _fused_group_attention(q, k, v, ids, counts, n_groups) -> Tensor:
    d_k = q.shape[-1]
    counts = counts.astype(k.data.dtype)
    key_sums = K.segment_sum(k, ids, n_groups)
    safe_counts = np.maximum(counts, 1.0)[..., None]
    representatives = key_sums / safe_counts
    scores = (q @ representatives.swapaxes(-1, -2)) * (1.0 / math.sqrt(d_k))
    attn = K.fused_group_softmax(scores, counts)
    v_agg = K.segment_sum(v, ids, n_groups)
    return attn @ v_agg


def bench_group_forward_backward(n: int = 1024, repeats: int = 5) -> dict:
    q64, k64, v64 = _qkv(n, np.float64)
    ids, counts, n_groups = _grouping(k64, N_GROUPS)

    def run(path, q_arr, k_arr, v_arr, backend):
        q = Tensor(q_arr, requires_grad=True)
        k = Tensor(k_arr, requires_grad=True)
        v = Tensor(v_arr, requires_grad=True)
        with K.use_backend(backend):
            out = path(q, k, v, ids, counts, n_groups)
            out.sum().backward()
        return out

    baseline = _time(
        lambda: run(_legacy_group_attention, q64, k64, v64, "reference"),
        repeats=repeats,
    )
    q32, k32, v32 = (a.astype(np.float32) for a in (q64, k64, v64))
    fused = _time(
        lambda: run(_fused_group_attention, q32, k32, v32, "fused"),
        repeats=repeats,
    )
    # Decomposed ablations so future regressions are attributable.
    fused_f64 = _time(
        lambda: run(_fused_group_attention, q64, k64, v64, "fused"),
        repeats=repeats,
    )
    legacy_f32 = _time(
        lambda: run(_legacy_group_attention, q32, k32, v32, "reference"),
        repeats=repeats,
    )
    return {
        "n": n,
        "batch": BATCH,
        "heads": HEADS,
        "head_dim": HEAD_DIM,
        "n_groups": n_groups,
        "baseline_composed_reference_float64_seconds": baseline,
        "fused_float32_seconds": fused,
        "fused_float64_seconds": fused_f64,
        "composed_reference_float32_seconds": legacy_f32,
        "speedup_fused_f32_vs_baseline": baseline / fused,
        "target_speedup": TARGET_SPEEDUP,
        "meets_target": baseline / fused >= TARGET_SPEEDUP,
    }


def bench_tokens_per_second(lengths=(256, 1024, 4096), repeats: int = 3) -> dict:
    """Forward-only (inference fast path) tokens/sec per mechanism/dtype."""
    results: dict = {}
    for kind in ("vanilla", "group"):
        results[kind] = {}
        for dtype_name in ("float32", "float64"):
            dtype = np.dtype(dtype_name)
            per_length = {}
            for n in lengths:
                q, k, v = (Tensor(a) for a in _qkv(n, dtype))
                if kind == "vanilla":
                    mechanism = VanillaAttention()
                else:
                    mechanism = GroupAttention(
                        n_groups=N_GROUPS, rng=np.random.default_rng(2)
                    )

                def step():
                    with no_grad():
                        mechanism(q, k, v)

                seconds = _time(step, repeats=repeats)
                per_length[str(n)] = {
                    "seconds_per_forward": seconds,
                    "tokens_per_second": BATCH * n / seconds,
                }
            results[kind][dtype_name] = per_length
    return results


def bench_gelu(shape=GELU_SHAPE, repeats: int = 5) -> dict:
    """GELU forward (no-grad) and forward+backward seconds per backend, float32.

    Two input scales: standard deviation 0.6 is what the ``infer_eeg``
    FFN feeds GELU (every block within |x| <= 3.5, the fused backend's
    narrow rational); 2.0 sends almost every block to its full-range one.
    """
    result: dict = {"shape": list(shape), "dtype": "float32"}
    for scale in (0.6, 2.0):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(shape) * scale).astype(np.float32)
        upstream = rng.standard_normal(shape).astype(np.float32)

        def forward():
            with no_grad():
                K.gelu(Tensor(x))

        def forward_backward():
            K.gelu(Tensor(x, requires_grad=True)).backward(upstream)

        cell: dict = {}
        for backend in ("reference", "fused"):
            with K.use_backend(backend):
                cell[backend] = {
                    "forward_seconds": _time(forward, repeats=repeats),
                    "forward_backward_seconds": _time(forward_backward, repeats=repeats),
                }
        for key in ("forward", "forward_backward"):
            cell[f"speedup_{key}_fused_vs_reference"] = (
                cell["reference"][f"{key}_seconds"] / cell["fused"][f"{key}_seconds"]
            )
        result[f"input_sd_{scale}"] = cell
    return result


def main(argv: list[str] | None = None) -> dict:
    args = parse_bench_args(__doc__, argv)
    if args.smoke:
        fwd_bwd = bench_group_forward_backward(n=128, repeats=1)
        tokens = bench_tokens_per_second(lengths=(64,), repeats=1)
        gelu = bench_gelu(shape=(2, 65, 256), repeats=1)
    else:
        fwd_bwd = bench_group_forward_backward()
        tokens = bench_tokens_per_second()
        gelu = bench_gelu()
    payload = {
        "meta": bench_meta(
            smoke=args.smoke,
            kernel_backends=K.available_backends(),
            geometry={"batch": BATCH, "heads": HEADS, "head_dim": HEAD_DIM,
                      "n_groups": N_GROUPS},
        ),
        "group_attention_forward_backward": fwd_bwd,
        "tokens_per_second": tokens,
        "gelu": gelu,
    }

    fb = payload["group_attention_forward_backward"]
    print(f"group attention fwd+bwd n={fb['n']}:")
    print(f"  baseline (composed ops, reference, f64): {fb['baseline_composed_reference_float64_seconds']*1e3:8.1f} ms")
    print(f"  fused kernels, f32:                      {fb['fused_float32_seconds']*1e3:8.1f} ms")
    print(f"  speedup: {fb['speedup_fused_f32_vs_baseline']:.2f}x (target >= {TARGET_SPEEDUP}x; met={fb['meets_target']})")
    for kind, by_dtype in payload["tokens_per_second"].items():
        for dtype_name, per_length in by_dtype.items():
            rates = ", ".join(
                f"n={n}: {v['tokens_per_second']:,.0f} tok/s" for n, v in per_length.items()
            )
            print(f"{kind:8s} {dtype_name}: {rates}")
    shape = "x".join(str(size) for size in gelu["shape"])
    for name, cell in gelu.items():
        if not name.startswith("input_sd_"):
            continue
        for key, label in (("forward", "fwd"), ("forward_backward", "fwd+bwd")):
            print(
                f"gelu {shape} f32 {name} {label}: reference "
                f"{cell['reference'][key + '_seconds']*1e3:.1f} ms, fused "
                f"{cell['fused'][key + '_seconds']*1e3:.1f} ms "
                f"({cell[f'speedup_{key}_fused_vs_reference']:.2f}x)"
            )
    emit_payload(payload, "kernels", args.out, smoke=args.smoke)
    return payload


if __name__ == "__main__":
    main()
