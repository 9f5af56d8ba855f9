"""``BENCHMARK.json`` declares exactly what the benchmark prints."""

import json
import pathlib

import numpy as np
import pytest

from perfbench import instrument, metrics
from perfbench.common import PartitionReplay, span_layer_metrics
from perfbench.spans import SpanRecorder

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_listed_workload_prints_every_declared_end_to_end_metric():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == ["train_ecg", "infer_eeg"]
    assert not {w["name"] for w in declared["workloads"]} & set(metrics.HELD)
    assert [m["name"] for m in declared["end_to_end"]] == list(metrics.E2E)


def test_held_workloads_take_every_other_unit_from_the_declaration():
    declared = {m["name"] for m in _declared()["end_to_end"]}
    for printed in metrics.HELD.values():
        assert set(printed) <= declared | set(metrics.HELD_UNITS)
    assert not declared & set(metrics.HELD_UNITS)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in _declared()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())


def test_span_metrics_are_declared():
    per_layer = {m["name"] for m in _declared()["per_layer"]}
    assert set(span_layer_metrics([], 1, {"root"})) <= per_layer


def test_instrumentation_restores_every_original():
    repro = pytest.importorskip("repro")
    import repro.kernels.functional as functional
    from repro.nn.activations import GELU

    gelu, forward = functional.gelu, GELU.forward
    recorder = SpanRecorder()
    with instrument.Instrumentation(recorder) as inst:
        assert inst.installed
        assert functional.gelu is not gelu and GELU.forward is not forward
        GELU()(repro.Tensor([[0.5, -1.0]]))
    assert functional.gelu is gelu and GELU.forward is forward
    names = [s.name for s in recorder.finished()]
    assert names == ["nn.gelu", "kernels.gelu"]


def test_partition_replay_hands_out_the_recorded_partitions_in_order():
    pytest.importorskip("repro")
    import repro.attention.group as group_attention

    original = group_attention.batched_kmeans
    points = np.random.default_rng(0).normal(size=(1, 12, 2))
    replay = PartitionReplay()
    with replay.record():
        first = group_attention.batched_kmeans(points, 3, rng=np.random.default_rng(1))
        second = group_attention.batched_kmeans(points, 2, rng=np.random.default_rng(2))
    assert group_attention.batched_kmeans is original
    with replay.replay():
        assert group_attention.batched_kmeans(points * 1e-3, 3) is first
        assert group_attention.batched_kmeans(points, 2) is second
    assert group_attention.batched_kmeans is original
