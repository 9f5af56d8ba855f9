"""Self-tests for the span recorder and self-time arithmetic."""

import threading

import pytest

from perfbench.spans import Span, SpanRecorder, coverage, self_times, summarize, union_length


def _span(span_id, name, start, end, parent=None):
    return Span(span_id=span_id, name=name, trace_id=0, parent=parent, start=start, end=end)


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(1, 4), (3, 6), (8, 10)]) == 7
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([(5, 5), (6, 4)]) == 0.0


def test_self_time_with_overlapping_children():
    spans = [
        _span(1, "parent", 0, 10),
        _span(2, "a", 1, 4, parent=1),
        _span(3, "b", 3, 6, parent=1),   # overlaps a (another thread)
        _span(4, "c", 8, 12, parent=1),  # runs past the parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)


def test_grandchildren_do_not_reduce_the_grandparent_twice():
    spans = [
        _span(1, "step", 0, 10),
        _span(2, "forward", 1, 9, parent=1),
        _span(3, "kernel", 2, 5, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == {1: pytest.approx(2.0), 2: pytest.approx(5.0), 3: pytest.approx(3.0)}
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert coverage(spans, {"step"}) == pytest.approx(0.8)


def test_summarize_counts_recursive_spans_once_inclusively():
    spans = [
        _span(1, "root", 0, 20),
        _span(2, "layer", 0, 10, parent=1),
        _span(3, "layer", 2, 5, parent=2),
        _span(4, "layer", 12, 14, parent=1),
    ]
    table = summarize(spans)
    assert table["layer"]["s"] == pytest.approx(12.0)
    assert table["layer"]["calls"] == 3
    assert table["layer"]["self_s"] == pytest.approx(12.0)
    assert table["root"]["self_s"] == pytest.approx(8.0)


def test_recorder_nests_through_the_current_span():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    with recorder.span("step", trace_id="t1") as step:
        with recorder.span("forward") as forward:
            pass
    assert forward.parent == step.span_id
    assert forward.trace_id == "t1"
    assert recorder.current() is None
    assert [s.name for s in recorder.finished()] == ["step", "forward"]


def test_spans_across_threads():
    recorder = SpanRecorder()
    request = recorder.start("request", trace_id=7)  # opened by the load generator
    seen = {}

    def supervisor():
        # A fresh thread has no current span of its own ...
        seen["current"] = recorder.current()
        # ... so its work is parented explicitly, and it closes the request.
        with recorder.span("on_result", parent=request) as child:
            seen["child"] = child
        recorder.finish(request)

    thread = threading.Thread(target=supervisor)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen["current"] is None
    child = seen["child"]
    assert child.parent == request.span_id and child.trace_id == 7
    assert child.thread != request.thread
    selfs = self_times(recorder.finished())
    assert selfs[request.span_id] == pytest.approx(request.duration - child.duration)


def test_unfinished_spans_are_left_out():
    recorder = SpanRecorder()
    recorder.start("open")
    with recorder.span("closed"):
        pass
    assert [s["name"] for s in recorder.dump()] == ["closed"]
