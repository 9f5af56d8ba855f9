"""Which end-to-end metrics each workload prints.

``BENCHMARK.json`` at the repository root declares every metric with its
unit, direction and (end-to-end) bound.  Every workload it lists prints
every end-to-end metric it declares, :data:`E2E`, each measured on that
workload's own operations (a training step on ``train_ecg``, a
reconstruction batch on ``infer_eeg``).  Every traced run prints every
per-layer metric, and a layer that does not run on a workload reads 0
there.

``serve_har`` is held out of ``BENCHMARK.json``: as the serving tier
ships, its latencies and failures swing between runs far beyond any
bound (see ``README.md``, "Held: serve_har").  It still runs, and prints
its own metrics, with units from :data:`HELD_UNITS`.
"""

from __future__ import annotations

#: End-to-end metrics of every listed workload.
E2E = (
    "setup_s", "failed_frac", "peak_rss_mb", "series_per_s", "batch_p50_s", "val_loss",
    "attn_error",
)

#: Workloads ``BENCHMARK.json`` does not list yet, and what each prints.
HELD = {"serve_har": ("setup_s", "failed_frac", "peak_rss_mb", "serve_p50_ms", "serve_p95_ms")}
#: Units of the end-to-end metrics only held workloads print.
HELD_UNITS = {"serve_p50_ms": "ms", "serve_p95_ms": "ms"}
