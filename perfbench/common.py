"""Pieces shared by the three workloads: seeds, outcomes, memory, tracing."""

from __future__ import annotations

import contextlib
import pathlib
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import benchstats
from perfbench.instrument import Instrumentation
from perfbench.spans import SpanRecorder, coverage, summarize


def seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from the workload seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(1)[0]) for child in children]


def endless(loader):
    """Batches from ``loader``, epoch after epoch."""
    while True:
        yield from loader


#: Added to every failure rate so that a run without failures still
#: reads above 0; a single failure among a thousand operations doubles it.
FAILED_FLOOR = 1e-3


def failed_frac(failed: int, attempted: int) -> float:
    """Failed over attempted operations, plus :data:`FAILED_FLOOR`.

    The floor keeps the metric above 0 without tying it to the run
    length: it moves only when operations fail.  The exact counts
    travel in the result's ``attempted`` and ``failed``.
    """
    return (failed / attempted if attempted else 1.0) + FAILED_FLOOR


class PartitionReplay:
    """Hands the K-means partitions of one forward pass to a second one.

    The ``fused`` and ``reference`` kernel backends agree to the last few
    bits, and that is enough to tip a near-tied key into another group
    now and then, which changes the output by far more than rounding while
    every kernel is right.  A parity check therefore records the
    partitions under one backend (:meth:`record`) and replays them, in
    call order, under the other (:meth:`replay`).
    """

    def __init__(self) -> None:
        self.partitions: list = []

    def record(self):
        def recording(original):
            def kmeans(*args, **kwargs):
                self.partitions.append(original(*args, **kwargs))
                return self.partitions[-1]
            return kmeans
        return _kmeans_patched(recording)

    def replay(self):
        replayed = iter(self.partitions)
        return _kmeans_patched(lambda original: lambda *args, **kwargs: next(replayed))


@contextlib.contextmanager
def _kmeans_patched(wrap):
    """Group attention calls ``wrap(batched_kmeans)`` inside the block."""
    import repro.attention.group as group_attention

    original = group_attention.batched_kmeans
    group_attention.batched_kmeans = wrap(original)
    try:
        yield
    finally:
        group_attention.batched_kmeans = original


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from its ``VmHWM``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)
    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    #: The traced run's :class:`~perfbench.spans.SpanRecorder`.
    spans: object = None

    def check(self, name: str, passed: bool, detail=None, failures: int = 1) -> bool:
        """Record a correctness check; a failed one adds ``failures`` failed operations."""
        self.checks[name] = bool(passed)
        if detail is not None:
            self.details[name] = detail
        if not passed:
            self.failed += failures
        return bool(passed)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


#: Set-ups per timed run: this process's own and the rest in child processes.
SETUPS = 3
#: A child set-up that has not finished by then is killed.
CHILD_SETUP_TIMEOUT_S = 60
RUN_PY = pathlib.Path(__file__).resolve().parent / "run.py"


def time_setup(build):
    """``(session, seconds)`` of one ``build()``."""
    started = time.perf_counter()
    session = build()
    return session, time.perf_counter() - started


def cold_setups(workload: str, seed: int, seconds: float, build, traced: bool):
    """Build this run's session; returns ``(session, median seconds, all seconds)``.

    Every set-up counted is the first in a fresh process, so each one
    pays the cold costs a user pays once per process (lazy allocation,
    first kernel calls, worker spawn).  ``SETUPS - 1`` of them run one
    after another in child processes (``run.py --setup-only``) before
    this process builds its own.  A traced run reports no ``setup_s``
    and builds only its own.
    """
    durations = [] if traced else [
        _child_setup_s(workload, seed, seconds) for _ in range(SETUPS - 1)
    ]
    session, seconds = time_setup(build)
    durations.append(seconds)
    return session, benchstats.median(durations), durations


def _child_setup_s(workload: str, seed: int, seconds: float) -> float:
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_SETUP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child set-up of {workload} failed:\n{done.stderr[-2000:]}")
    return float(done.stdout.split()[-1])


class OpTracer:
    """Alternates traced and untraced operations inside one run.

    Even-numbered operations run with the span wrappers installed and get
    a root span named ``root_name``; odd ones run bare.  Comparing the
    two halves gives the tracing overhead, and the traced half gives the
    per-layer breakdown.  When ``enabled`` is false nothing is installed.
    """

    def __init__(self, enabled: bool, root_name: str) -> None:
        self.enabled = enabled
        self.root_name = root_name
        self.recorder = SpanRecorder()
        self.instrumentation = Instrumentation(self.recorder)
        self.flags: list[bool] = []
        self._root = None
        self._token = None

    def begin(self, index: int, at: float | None = None) -> bool:
        """Start operation ``index``; returns whether it is traced."""
        traced = self.enabled and index % 2 == 0
        if traced:
            self.instrumentation.install()
            self._root = self.recorder.start(self.root_name, trace_id=index, at=at)
            self._token = self.recorder.activate(self._root)
        else:
            self.instrumentation.uninstall()
        self.flags.append(traced)
        return traced

    def end(self, at: float | None = None) -> None:
        if self._root is not None:
            self.recorder.deactivate(self._token)
            self.recorder.finish(self._root, at=at)
            self._root = self._token = None

    def close(self) -> None:
        self.end()
        self.instrumentation.uninstall()

    def span(self, name: str):
        """A child span of the current traced operation, else a no-op."""
        if self._root is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)


def overhead_frac(durations, flags) -> float:
    """Tracing overhead from alternating traced/untraced operations.

    Each traced operation is compared with the mean of its two untraced
    neighbours, which cancels a slow drift in operation cost (the
    scheduler shrinking ``N`` during training); the median ratio minus
    one is the overhead.
    """
    ratios = []
    for i in range(1, len(durations) - 1):
        if flags[i] and not flags[i - 1] and not flags[i + 1]:
            base = (durations[i - 1] + durations[i + 1]) / 2.0
            if base > 0:
                ratios.append(durations[i] / base)
    return benchstats.median(ratios) - 1.0 if ratios else 0.0


def group_counters(model) -> tuple[float, int, int]:
    """Cumulative grouping seconds, K-means runs and grouping steps of a model."""
    layers = model.group_attention_layers()
    return (
        sum(layer.grouping_seconds_total for layer in layers),
        sum(layer.reclusters_total for layer in layers),
        sum(layer.grouping_steps_total for layer in layers),
    )


def grouping_metrics(counters, flags) -> dict[str, float]:
    """Grouping time per traced operation and the share of steps that re-clustered.

    ``counters`` holds a :func:`group_counters` snapshot before every
    operation and one after the last; ``flags`` marks the traced ones.
    """
    picked = [
        np.subtract(after, before)
        for before, after, traced in zip(counters, counters[1:], flags) if traced
    ]
    seconds, reclusters, steps = np.sum(picked, axis=0) if picked else (0.0, 0, 0)
    return {
        "attention.group.grouping_s": float(seconds) / max(len(picked), 1),
        "attention.group.recluster_frac": float(reclusters) / steps if steps else 0.0,
    }


#: Span names whose per-operation inclusive time (``.s``) and call count
#: (``.calls``) are reported.
_TIMED_LAYERS = (
    "cluster.kmeans", "attention.group", "nn.gelu", "kernels.gelu", "nn.linear",
    "kernels.linear", "nn.layernorm", "kernels.layer_norm",
    "kernels.fused_group_softmax", "kernels.segment_sum",
)


def span_layer_metrics(spans, n_ops: int, root_names) -> dict[str, float]:
    """Per-operation layer metrics derived from one run's spans."""
    spans = list(spans)
    table = summarize(spans)
    n_ops = max(n_ops, 1)

    def per_op(name: str, key: str = "s") -> float:
        return table.get(name, {}).get(key, 0.0) / n_ops

    out: dict[str, float] = {}
    for name in _TIMED_LAYERS:
        out[f"{name}.s"] = per_op(name)
        out[f"{name}.calls"] = per_op(name, "calls")
    out["attention.group.self_s"] = per_op("attention.group", "self_s")
    out["model.frontend.s"] = per_op("model.frontend")
    out["model.decoder.s"] = per_op("model.decoder")
    out["nn.dropout.s"] = per_op("nn.dropout")
    out["autograd.backward_s"] = per_op("autograd.backward")
    out["optim.step_s"] = per_op("optim.zero_grad") + per_op("optim.step")
    out["data.wait_s"] = per_op("data.wait")
    out["scheduler.step_s"] = per_op("scheduler.step")
    out["serve.router.submit_s"] = per_op("serve.router.submit")
    out["serve.engine.s"] = per_op("serve.engine")
    out["serve.engine.self_s"] = per_op("serve.engine", "self_s")
    out["trace.coverage"] = coverage(spans, root_names)
    return out
