"""Span self-time arithmetic and the tracer's wrap / restore."""

import threading

import pytest

from spans import Tracer, self_times


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        (0, "root", 0.0, 10.0, None, "fit"),
        (1, "child-a", 1.0, 4.0, 0, "fit"),
        (2, "child-b", 5.0, 9.0, 0, "fit"),  # sibling of child-a
        (3, "grandchild", 2.0, 3.0, 1, "fit"),  # nested in child-a
    ]
    selves = self_times(spans)
    assert selves[0] == pytest.approx(10.0 - 3.0 - 4.0)  # grandchild is not subtracted twice
    assert selves[1] == pytest.approx(3.0 - 1.0)
    assert selves[2] == pytest.approx(4.0)
    assert selves[3] == pytest.approx(1.0)
    assert sum(selves.values()) == pytest.approx(10.0)  # self times partition the root


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [
        (0, "root", 0.0, 10.0, None, "fit"),
        (1, "a", 2.0, 6.0, 0, "fit"),
        (2, "b", 4.0, 8.0, 0, "fit"),  # overlaps a: covered [2, 8] once
        (3, "c", 9.0, 12.0, 0, "fit"),  # overhangs the parent: clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrapped_calls_nest_and_restore_puts_the_original_back():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(Layer, "outer", "layer.outer")
    tracer.wrap(Layer, "inner", "layer.inner", measure=lambda args, kwargs, result: result)

    assert Layer().outer() == 42 and tracer.finished() == []  # disabled: no spans

    tracer.enabled, tracer.stage = True, "fit"
    assert Layer().outer() == 42
    outer, inner = tracer.select("layer.outer")[0], tracer.select("layer.inner")[0]
    assert inner[4] == outer[0] and outer[4] is None and inner[5] == "fit"
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]
    assert tracer.counter("layer.inner.amount", "fit") == 41
    assert [s[1] for s in tracer.descendants(outer[0])] == ["layer.inner"]

    tracer.restore()
    assert Layer.__dict__["outer"] is original


def test_threads_keep_their_own_span_stacks():
    tracer = Tracer()
    tracer.enabled = True

    def helper():
        with tracer.span("helper"):
            pass

    with tracer.span("main"):
        worker = threading.Thread(target=helper)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive()
        with tracer.span("child"):
            pass
    by_name = {s[1]: s for s in tracer.finished()}
    assert by_name["child"][4] == by_name["main"][0]
    assert by_name["helper"][4] is None  # not a child of the main thread's open span
    assert self_times(tracer.finished())[by_name["main"][0]] == pytest.approx(
        (by_name["main"][3] - by_name["main"][2]) - (by_name["child"][3] - by_name["child"][2])
    )


def test_iteration_spans_cover_time_inside_next():
    class Stream:
        def __iter__(self):
            return iter([1, 2, 3])

    tracer = Tracer()
    tracer.wrap_iteration(Stream, "stream.next")
    tracer.enabled = True
    assert list(Stream()) == [1, 2, 3]
    assert len(tracer.select("stream.next")) == 4  # three items and the exhausted call
    tracer.restore()
    tracer.enabled = False
    assert list(Stream()) == [1, 2, 3]
