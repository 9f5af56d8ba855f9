"""``infer_eeg``: offline bulk imputation of synthetic 21-channel EEG.

A seeded :class:`repro.ModelArtifact` of the reference architecture
(dim 64, 2 heads, 8 layers, group attention N=64) serves
:meth:`repro.InferenceEngine.reconstruct` on MGH-like series of length
2000 with 20% of timestamps masked, four series per batch, back to back
until the time budget is spent.  Forward only: no backward, optimizer
or scheduler runs.

Outside the timed region three probes run on held-back series: the
group model's squared error at the masked timestamps on all 32 of them,
which is ``val_loss``; the group model against its exact-attention twin
(same weights, ``attention="vanilla"``; group attention has no
parameters) on the same 32, which is ``attn_error``; and the ``fused`` kernels
against the ``reference`` kernels on identically seeded twins on two of
them, a correctness check.

The seed draws the series to impute, their masks, the batch order and
the K-means draws.  The artifact's weights and the held-back probe
series are part of the workload, like the architecture.  Across seeds
the attention error spread 91% with seeded weights and a two-series
probe, 77% with fixed weights and two series, 13-15% with fixed weights
and twelve series, and 9-16% with fixed weights and 32 seeded probe
series.  On one probe it moves ~3% with the K-means draws, so the probe
is fixed.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import repro
from repro.data.masking import apply_timestamp_mask
from repro.kernels import use_backend

from perfbench import benchstats
from perfbench.common import (
    OpTracer,
    Outcome,
    PartitionReplay,
    cold_setups,
    endless,
    failed_frac,
    group_counters,
    grouping_metrics,
    overhead_frac,
    seeds,
    self_peak_rss_mb,
    span_layer_metrics,
)

BATCH = 4
LENGTH_SCALE = 0.2      # MGH length 10000 -> 2000
#: The bulk set pools several independently generated corpora (each with
#: its own channel mixing), so one draw's quirks do not set the speed.
CORPORA = 4
SIZE_SCALE = 0.0015     # 13 series to impute and 8 held back per corpus
MASK_RATE = 0.2
#: Held-back series per corpus in the attention-error probe.
PROBE_PER_CORPUS = 8
#: Probe series in the fused-vs-reference parity check.
PARITY_SERIES = 2
#: ``fused`` vs ``reference`` reconstruction with the K-means partitions
#: shared: max absolute difference as a share of the largest reference
#: magnitude (float32 rounding through eight layers stays near 1e-5; a
#: changed K-means assignment, which sharing rules out, is ~1e-2).
PARITY_RTOL = 1e-4
#: Seed of the artifact's weights (fixed; see above).
MODEL_SEED = 7
#: Seed of the probe's corpora and masks (fixed; see above).
PROBE_DATA_SEED = 13


@dataclasses.dataclass
class _Probe:
    """Held-back series: masked input, the values it hides and where."""

    x: np.ndarray
    target: np.ndarray
    mask: np.ndarray


def _scaled_corpora(rng):
    """``(bulk, held-back)`` series of each generated corpus, min-max scaled on its bulk."""
    for _ in range(CORPORA):
        bundle = repro.load_dataset(
            "mgh", size_scale=SIZE_SCALE, length_scale=LENGTH_SCALE, rng=rng, min_samples=8
        )
        scaler = repro.Scaler.fit(bundle.train.arrays["x"])
        yield (scaler.transform(bundle.train.arrays["x"]),
               scaler.transform(bundle.valid.arrays["x"][:PROBE_PER_CORPUS]))


def _bulk(rng) -> repro.ArrayDataset:
    """The seeded series to impute, masked."""
    return repro.ArrayDataset(x=np.concatenate([
        apply_timestamp_mask(bulk, MASK_RATE, rng=rng)[0].astype(np.float32)
        for bulk, _ in _scaled_corpora(rng)
    ]))


def _probe() -> _Probe:
    """The fixed held-back series, masked."""
    rng = np.random.default_rng(PROBE_DATA_SEED)
    parts = []
    for _, held_back in _scaled_corpora(rng):
        masked, mask = apply_timestamp_mask(held_back, MASK_RATE, rng=rng)
        parts.append((masked.astype(np.float32), held_back.astype(np.float32), mask))
    return _Probe(*(np.concatenate(part) for part in zip(*parts)))


def _artifact(length: int, channels: int, model_seed: int):
    config = repro.RitaConfig(
        input_channels=channels, max_len=length, dim=64, n_heads=2, n_layers=8,
        attention="group", n_groups=64, dropout=0.1,
    )
    model = repro.RitaModel(config, rng=np.random.default_rng(model_seed))
    return repro.ModelArtifact.from_model(model, metadata={"workload": "infer_eeg"})


class _Session:
    def __init__(self, artifact, bulk, global_seed: int, loader_seed: int):
        repro.seed_all(global_seed)  # K-means in engine-built models draws from it
        self.engine = repro.InferenceEngine(artifact)
        loader = repro.DataLoader(
            bulk, batch_size=BATCH, shuffle=True, drop_last=True,
            rng=np.random.default_rng(loader_seed),
        )
        self.batches = endless(loader)
        # The first call pays lazy allocation; it belongs to set-up.
        self.engine.reconstruct(next(self.batches)["x"])


def _probes(artifact, probe: _Probe, probe_seed: int) -> tuple[float, float, float, float]:
    """``(masked squared error, attention error, fused-vs-reference relative
    diff, probe output scale)``."""
    def reconstruct(model, series):
        return repro.InferenceEngine(model).reconstruct(series)

    def twin():
        return artifact.build_model(rng=np.random.default_rng(probe_seed))

    group = reconstruct(twin(), probe.x)
    vanilla_artifact = dataclasses.replace(
        artifact, config=dataclasses.replace(artifact.config, attention="vanilla")
    )
    exact = reconstruct(vanilla_artifact.build_model(), probe.x)
    partitions = PartitionReplay()
    with partitions.record():
        fused = reconstruct(twin(), probe.x[:PARITY_SERIES])
    with use_backend("reference"), partitions.replay():
        reference = reconstruct(twin(), probe.x[:PARITY_SERIES])
    return (
        float(np.mean(np.square(group - probe.target)[probe.mask])),
        float(np.mean(np.abs(group - exact))),
        float(np.max(np.abs(fused - reference)) / max(1.0, np.max(np.abs(reference)))),
        float(np.mean(np.abs(exact))),
    )


def prepare(seed: int, seconds: float):
    """``(inputs the run needs besides its session, session builder)``."""
    data_seed, global_seed, loader_seed, probe_seed = seeds(seed, 4)
    bulk, probe = _bulk(np.random.default_rng(data_seed)), _probe()
    _, length, channels = bulk.arrays["x"].shape
    artifact = _artifact(length, channels, MODEL_SEED)
    return (artifact, probe, probe_seed), (
        lambda: _Session(artifact, bulk, global_seed, loader_seed)
    )


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    (artifact, probe, probe_seed), build = prepare(seed, seconds)
    outcome = Outcome()

    session, setup_s, setups = cold_setups("infer_eeg", seed, seconds, build, traced)
    outcome.details["setup_runs_s"] = setups
    model = session.engine.model

    tracer = OpTracer(traced, "infer.batch")
    durations: list[float] = []
    counters = []
    bad_batches = 0
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        if begin - started >= seconds:
            break
        counters.append(group_counters(model))
        tracer.begin(len(durations), at=begin)
        with tracer.span("data.wait"):
            batch = next(session.batches)["x"]
        out = session.engine.reconstruct(batch)
        ok = out.shape == batch.shape and bool(np.isfinite(out).all())
        end = time.perf_counter()
        tracer.end(at=end)
        durations.append(end - begin)
        bad_batches += 0 if ok else 1
    counters.append(group_counters(model))
    tracer.close()
    elapsed = time.perf_counter() - started
    peak_rss = self_peak_rss_mb()

    outcome.attempted = len(durations)
    outcome.check(
        "batches_well_formed", bad_batches == 0, {"bad_batches": bad_batches},
        failures=bad_batches,
    )
    val_loss, attn_error, parity, scale = _probes(artifact, probe, probe_seed)
    outcome.check(
        "fused_matches_reference", parity <= PARITY_RTOL,
        {"relative_max_diff": parity, "rtol": PARITY_RTOL},
    )
    outcome.details.update(batches=len(durations), exact_output_mean_abs=scale)
    outcome.e2e = {
        "setup_s": setup_s,
        "failed_frac": failed_frac(outcome.failed, outcome.attempted),
        "peak_rss_mb": peak_rss,
        "series_per_s": BATCH * len(durations) / elapsed,
        "batch_p50_s": benchstats.median(durations),
        "val_loss": val_loss,
        "attn_error": attn_error,
    }
    if traced:
        flags = tracer.flags
        n_traced = sum(flags)
        layers = span_layer_metrics(tracer.recorder.finished(), n_traced, {"infer.batch"})
        layers.update(grouping_metrics(counters, flags))
        layers.update({
            "trace.overhead_frac": overhead_frac(durations, flags),
            "trace.ops": n_traced,
        })
        outcome.layers = layers
        outcome.spans = tracer.recorder
    return outcome
