"""Global I/O adapters: sources, sinks, runtime parameters (§3.7)."""

import gc
import warnings

import numpy as np
import pytest

from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    PortSettings,
    Window,
    compute_kernel,
    float32,
    int16,
    int32,
    make_compute_graph,
)
from repro.core.sources_sinks import (
    ArraySinkCursor,
    RuntimeParam,
    iter_stream_values,
)
from repro.errors import IoBindingError, StreamTypeError
from repro.exec import get_backend

WIN4 = Window(float32, 4)


class TestIterStreamValues:
    def test_scalar_list(self):
        assert list(iter_stream_values(float32, [1, 2, 3])) == [1, 2, 3]

    def test_scalar_validation(self):
        vals = list(iter_stream_values(float32, [1], validate=True))
        assert isinstance(vals[0], np.float32)

    def test_window_flat_array_chunked(self):
        blocks = list(iter_stream_values(WIN4, np.arange(8.0)))
        assert len(blocks) == 2
        assert np.array_equal(blocks[0], [0, 1, 2, 3])

    def test_window_2d_rows(self):
        blocks = list(iter_stream_values(WIN4, np.ones((3, 4))))
        assert len(blocks) == 3

    def test_window_misaligned(self):
        with pytest.raises(IoBindingError):
            list(iter_stream_values(WIN4, np.arange(6.0)))

    def test_window_bad_2d_shape(self):
        with pytest.raises(IoBindingError):
            list(iter_stream_values(WIN4, np.ones((2, 5))))

    def test_window_list_of_blocks(self):
        blocks = list(iter_stream_values(
            WIN4, [np.zeros(4), np.ones(4)], validate=True
        ))
        assert len(blocks) == 2

    def test_generator_passthrough(self):
        gen = (i * i for i in range(4))
        assert list(iter_stream_values(int16, gen)) == [0, 1, 4, 9]


class TestArraySinkCursor:
    def test_scalar_fill(self):
        arr = np.zeros(3, dtype=np.float32)
        c = ArraySinkCursor(arr, float32)
        for v in (1.0, 2.0, 3.0):
            c.store(v)
        assert list(arr) == [1.0, 2.0, 3.0]
        assert c.items_stored == 3

    def test_overflow_raises(self):
        c = ArraySinkCursor(np.zeros(1, dtype=np.float32), float32)
        c.store(1.0)
        with pytest.raises(StreamTypeError, match="overflow"):
            c.store(2.0)

    def test_window_fill(self):
        arr = np.zeros(8, dtype=np.float32)
        c = ArraySinkCursor(arr, WIN4)
        c.store(np.arange(4.0))
        c.store(np.arange(4.0) + 10)
        assert np.array_equal(arr, [0, 1, 2, 3, 10, 11, 12, 13])
        assert c.capacity == 2

    def test_window_misaligned_array(self):
        with pytest.raises(IoBindingError):
            ArraySinkCursor(np.zeros(6, dtype=np.float32), WIN4)


class TestRuntimeParam:
    def test_box(self):
        p = RuntimeParam(7)
        assert p.value == 7
        p.value = 9
        assert p.value == 9
        assert "9" in repr(p)


# ---------------------------------------------------------------------------
# Sink binding: one rule, one error, on every backend
# ---------------------------------------------------------------------------


@compute_kernel(realm=AIE)
async def rtp_peak_kernel(x: In[int32], y: Out[int32],
                          peak: Out[int32, PortSettings(
                              runtime_parameter=True)]):
    """Pass the stream through; latch the latest element as an RTP."""
    while True:
        v = await x.get()
        await peak.put(v)
        await y.put(v)


def _rtp_out_graph():
    @make_compute_graph(name="rtp_out")
    def g(x: IoC[int32]):
        y = IoConnector(int32, name="y")
        peak = IoConnector(int32, name="peak")
        rtp_peak_kernel(x, y, peak)
        return y, peak

    return g


SINK_BACKENDS = [
    pytest.param("cgsim", {}, id="cgsim"),
    pytest.param("cgsim", {"optimize": "full"}, id="cgsim-full"),
    pytest.param("x86sim", {}, id="x86sim"),
    pytest.param("cgsim-mp", {}, id="cgsim-mp"),
]


class TestSinkBindingErrors:
    """Every backend rejects a bad sink at ``prepare`` — before any
    thread starts or worker forks — with the shared binder's message,
    and leaves no task coroutine behind un-awaited."""

    @pytest.mark.parametrize("backend,options", SINK_BACKENDS)
    @pytest.mark.parametrize("case", ["unsupported", "rtp"])
    def test_same_error_at_prepare(self, fig4_graph, backend, options,
                                   case):
        if case == "unsupported":
            graph, io = fig4_graph, ([1, 2, 3], ())
            message = ("unsupported sink container tuple; pass a list or "
                       "a pre-allocated numpy array")
        else:
            graph, io = _rtp_out_graph(), ([1, 2, 3], [], [])
            message = ("output 'peak' is a runtime parameter; pass a "
                       "RuntimeParam sink")
        # An un-awaited coroutine warns from its finalizer, where an
        # "error" filter cannot raise; record the warnings instead.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            with pytest.raises(IoBindingError) as exc:
                get_backend(backend).prepare(graph, io, **options)
            assert str(exc.value) == message
            del exc
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
