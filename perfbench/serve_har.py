"""``serve_har``: an open loop of ragged classification requests through the router.

Requests arrive on a fixed schedule of 40 per second, whether or not
earlier ones have finished, and go through :class:`repro.Router` to a
:class:`repro.WorkerPool` of two spawned workers serving a small model
(dim 32, 2 heads, 2 layers, group attention N=16) with
``recluster_every=8``.  Each request is a ragged list of 1-4 HAR-like
series (3 channels, lengths 50-200) with a 1 s deadline.  Latency runs
from the moment a request was due, so a stall also charges the requests
queued behind it.

Worker compute happens in other processes, out of reach of the span
wrappers.  The traced run therefore also replays the same requests
serially through two in-process :class:`repro.InferenceEngine` twins,
one bare and one traced, for the engine's layer breakdown, the tracing
overhead and the cluster overhead (served latency minus in-process
engine time).

The workers are spawned with this process's environment, untouched,
so the tier is measured as it ships: a worker pins its kernel thread
pool to one thread but leaves NumPy's BLAS at its default of one thread
per CPU.  The tier then collapses in some runs and not in others, so
this workload is held out of ``BENCHMARK.json`` until the worker limits
its BLAS threads (see ``README.md``, "Held: serve_har").
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import repro
from repro import Router, WorkerPool
from repro.errors import OverloadError, ServingError

from perfbench import benchstats
from perfbench.common import (
    Outcome,
    cold_setups,
    failed_frac,
    group_counters,
    process_peak_rss_mb,
    seeds,
    self_peak_rss_mb,
    span_layer_metrics,
)
from perfbench.instrument import Instrumentation
from perfbench.spans import SpanRecorder

RATE_PER_S = 40.0
DEADLINE_S = 1.0
WORKERS = 2
ENGINE_KWARGS = {"recluster_every": 8}
MIN_LEN, MAX_LEN = 50, 200
MAX_SERIES = 4
WARMUP_REQUESTS = 8


def _requests(rng, count: int):
    """``count`` ragged requests cut from a standardized HAR-like corpus."""
    bundle = repro.load_dataset("hhar", size_scale=0.01, rng=rng)
    corpus = bundle.train.arrays["x"]
    corpus = ((corpus - corpus.mean()) / corpus.std()).astype(np.float32)
    requests = []
    for _ in range(count):
        series = []
        for _ in range(int(rng.integers(1, MAX_SERIES + 1))):
            length = int(rng.integers(MIN_LEN, MAX_LEN + 1))
            row = int(rng.integers(len(corpus)))
            start = int(rng.integers(corpus.shape[1] - length + 1))
            series.append(corpus[row, start : start + length])
        requests.append(series)
    return requests, bundle.n_classes


def _artifact(n_classes: int, model_seed: int):
    config = repro.RitaConfig(
        input_channels=3, max_len=MAX_LEN, dim=32, n_heads=2, n_layers=2,
        attention="group", n_groups=16, n_classes=n_classes,
    )
    model = repro.RitaModel(config, rng=np.random.default_rng(model_seed))
    return repro.ModelArtifact.from_model(model, metadata={"workload": "serve_har"})


class _Session:
    """A started pool and router, every worker ready and warmed up."""

    def __init__(self, artifact, warmup):
        self.pool = WorkerPool(artifact, n_workers=WORKERS, engine_kwargs=ENGINE_KWARGS)
        self.router = _StampingRouter(self.pool)
        try:
            deadline = time.monotonic() + 60.0
            while self.pool.ready_count() < WORKERS:
                if time.monotonic() > deadline:
                    raise TimeoutError("worker pool did not become ready within 60 s")
                time.sleep(0.005)
            for future in [self.router.submit("classify", r, deadline_s=10.0) for r in warmup]:
                future.result(timeout=10.0)
        except BaseException:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        """This process plus every live worker, each at its own peak."""
        children = multiprocessing.active_children()
        return self_peak_rss_mb() + sum(process_peak_rss_mb(c.pid) for c in children)

    def close(self) -> None:
        self.router.close()
        self.pool.close()


class _StampingRouter(Router):
    """A router that timestamps watched futures the moment they resolve.

    Futures resolve inside the listener calls the pool makes on its
    supervisor thread: ``on_result`` for replies and ``tick`` for
    deadline expiries.  Looking at the watched futures right after
    each call stamps every completion without a polling thread, and
    without waiting on futures in submit order (which would stamp a
    request that finished early only when its predecessors had).
    """

    def __init__(self, pool) -> None:
        # Set before the base class starts the pool's supervisor thread.
        self.done_at: dict[int, float] = {}
        self._watched: dict[int, tuple] = {}
        self._watch_lock = threading.Lock()
        super().__init__(pool)

    def watch(self, index: int, future, recorder=None, root=None) -> None:
        with self._watch_lock:
            self._watched[index] = (future, recorder, root)
        self._stamp()  # a degraded request resolved inside submit

    def unresolved(self) -> int:
        with self._watch_lock:
            return len(self._watched)

    def _stamp(self) -> None:
        now = time.perf_counter()
        with self._watch_lock:
            for index in [i for i, (f, _, _) in self._watched.items() if f.done()]:
                _, recorder, root = self._watched.pop(index)
                self.done_at[index] = now
                if root is not None:
                    recorder.finish(root, at=now)  # opened on the submitting thread

    def on_result(self, *args) -> None:
        super().on_result(*args)
        self._stamp()

    def tick(self, now: float) -> None:
        super().tick(now)
        self._stamp()


def _open_loop(router, requests, recorder: SpanRecorder | None):
    """Submit on schedule; returns ``(due times, lags, futures, shed, completion times)``."""
    dues, lags, futures = [], [], []
    shed = set()
    start = time.perf_counter() + 0.05
    for index, request in enumerate(requests):
        due = start + index / RATE_PER_S
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        lags.append(time.perf_counter() - due)
        dues.append(due)
        root = token = None
        if recorder is not None:
            root = recorder.start("serve.request", trace_id=index, at=due)
            token = recorder.activate(root)
        try:
            future = router.submit("classify", request, deadline_s=DEADLINE_S)
        except OverloadError:
            future = None
            shed.add(index)
            if root is not None:
                recorder.finish(root)
        finally:
            if token is not None:
                recorder.deactivate(token)
        futures.append(future)
        if future is not None:
            router.watch(index, future, recorder, root)
    deadline = time.monotonic() + DEADLINE_S + 5.0
    while router.unresolved() and time.monotonic() < deadline:
        time.sleep(0.01)
    return dues, lags, futures, shed, dict(router.done_at)


def _replays(artifact, requests, global_seed: int, recorder: SpanRecorder):
    """Serve every request serially on two identically seeded in-process engines.

    One engine runs bare and one traced; they take turns going first on
    each request, so warm-up and drift charge both alike.  Returns the
    per-request seconds of each and the bare engine.
    """
    engines = []
    for _ in range(2):
        repro.seed_all(global_seed)  # K-means in engine-built models draws from it
        engines.append(repro.InferenceEngine(artifact, **ENGINE_KWARGS))
    bare_engine, traced_engine = engines
    instrumentation = Instrumentation(recorder)
    bare, traced = [], []
    for index, request in enumerate(requests):
        for with_spans in (False, True) if index % 2 == 0 else (True, False):
            if with_spans:
                with instrumentation:  # toggling the wrappers stays outside the timing
                    begin = time.perf_counter()
                    with recorder.span("serve.replay", trace_id=index):
                        traced_engine.classify(request)
                    traced.append(time.perf_counter() - begin)
            else:
                begin = time.perf_counter()
                bare_engine.classify(request)
                bare.append(time.perf_counter() - begin)
    return bare, traced, bare_engine, traced_engine


def prepare(seed: int, seconds: float):
    """``(inputs the run needs besides its session, session builder)``."""
    data_seed, model_seed, global_seed = seeds(seed, 3)
    count = max(int(round(RATE_PER_S * seconds)), 1)
    all_requests, n_classes = _requests(np.random.default_rng(data_seed), count + WARMUP_REQUESTS)
    warmup, requests = all_requests[:WARMUP_REQUESTS], all_requests[WARMUP_REQUESTS:]
    artifact = _artifact(n_classes, model_seed)
    return (artifact, requests, n_classes, global_seed), lambda: _Session(artifact, warmup)


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    (artifact, requests, n_classes, global_seed), build = prepare(seed, seconds)
    outcome = Outcome()
    recorder = SpanRecorder() if traced else None

    session, setup_s, setups = cold_setups("serve_har", seed, seconds, build, traced)
    outcome.details.update(setup_runs_s=setups)
    try:
        router_before = dict(vars(session.router.stats))
        pool_before = (session.pool.stats.respawns_total, session.pool.stats.crashes_total)
        if recorder is not None:
            with Instrumentation(recorder):
                dues, lags, futures, shed, done_at = _open_loop(session.router, requests, recorder)
        else:
            dues, lags, futures, shed, done_at = _open_loop(session.router, requests, None)
        peak_rss = session.peak_rss_mb()
        router_after = dict(vars(session.router.stats))
        pool_after = (session.pool.stats.respawns_total, session.pool.stats.crashes_total)
    finally:
        session.close()

    latencies_ms, failures, untyped, malformed = [], 0, [], 0
    for index, (request, future) in enumerate(zip(requests, futures)):
        ok = False
        if future is not None and index in done_at:
            try:
                logits = future.result(timeout=0)
            except ServingError:
                pass
            except Exception as exc:  # noqa: BLE001 - any other type breaks the contract
                untyped.append(f"{type(exc).__name__}: {exc}")
            else:
                ok = logits.shape == (len(request), n_classes) and bool(np.isfinite(logits).all())
                malformed += 0 if ok else 1
        latency = (done_at.get(index, dues[index]) - dues[index]) * 1000.0
        if not ok:
            failures += 1
            latency = max(latency, DEADLINE_S * 1000.0)  # a failure misses the limit
        latencies_ms.append(latency)

    outcome.attempted = len(requests)
    outcome.failed = failures - malformed - len(untyped)
    outcome.check("replies_well_formed", malformed == 0, {"malformed": malformed},
                  failures=malformed)
    outcome.check("failures_typed", not untyped, untyped[:5] or None, failures=len(untyped))
    if not benchstats.percentile_supported(len(latencies_ms), 95):
        raise ValueError(f"{len(latencies_ms)} requests cannot support a p95; run longer")
    outcome.details.update(requests=len(requests), shed=len(shed), failed_requests=failures)
    outcome.e2e = {
        "setup_s": setup_s,
        "failed_frac": failed_frac(outcome.failed, outcome.attempted),
        "peak_rss_mb": peak_rss,
        "serve_p50_ms": benchstats.median(latencies_ms),
        "serve_p95_ms": benchstats.percentile(latencies_ms, 95),
    }
    if traced:
        bare, traced_times, bare_engine, traced_engine = _replays(
            artifact, requests, global_seed, recorder
        )
        layers = span_layer_metrics(recorder.finished(), len(requests), {"serve.replay"})
        _, reclusters, steps = group_counters(bare_engine.model)
        delta = {key: router_after[key] - router_before[key] for key in router_after}
        served = [i for i in range(len(requests)) if latencies_ms[i] < DEADLINE_S * 1000.0]
        layers.update({
            "attention.group.grouping_s": group_counters(traced_engine.model)[0] / len(requests),
            "attention.group.recluster_frac": reclusters / steps if steps else 0.0,
            "serve.router.retries": delta["retries_total"],
            "serve.router.attempt_timeouts": delta["attempt_timeouts_total"],
            "serve.router.stale_results": delta["stale_results_total"],
            "serve.router.shed": delta["shed_total"],
            "serve.router.degraded": delta["degraded_total"],
            "serve.cluster.overhead_ms": benchstats.median(
                [latencies_ms[i] - bare[i] * 1000.0 for i in served]
            ) if served else 0.0,
            "serve.cluster.respawns": pool_after[0] - pool_before[0],
            "serve.cluster.crashes": pool_after[1] - pool_before[1],
            "loadgen.lag_ms_p95": benchstats.percentile(lags, 95) * 1000.0,
            "trace.overhead_frac": sum(traced_times) / sum(bare) - 1.0,
            "trace.ops": len(requests),
        })
        outcome.layers = layers
        outcome.spans = recorder
    return outcome
