"""Global I/O moves contiguous slices on every scheduler path (§3.7).

A differential grid over container kinds, stream kinds, ``validate``,
``batch_io`` and ``optimize`` on cgsim and cgsim-mp: every run must
deliver exactly the elements per-element iteration of the container
gives — the same values, bit for bit, and the same element *types* —
and the paper apps must keep the scheduler resume counts they had when
global I/O still moved one element per awaitable.
"""

import numpy as np
import pytest

from repro.apps import bilinear, bitonic, datasets, farrow, iir
from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    Window,
    compute_kernel,
    float32,
    int32,
    make_compute_graph,
)
from repro.core.fused import SourceFeed
from repro.core.queues import BroadcastQueue
from repro.core.sources_sinks import make_source, stream_chunks
from repro.errors import StreamTypeError
from repro.exec import run_graph

W = 4
WIN = Window(float32, W)
N = 150          # elements of a scalar stream, blocks of a window stream


# ---------------------------------------------------------------------------
# Pass-through chains: one member reads element-wise, one in runs, so a
# fused run exercises both feed reads and both store writes.
# ---------------------------------------------------------------------------


@compute_kernel(realm=AIE)
async def gio_one(a: In[float32], o: Out[float32]):
    while True:
        await o.put(await a.get())


@compute_kernel(realm=AIE)
async def gio_runs(a: In[float32], o: Out[float32]):
    while True:
        await o.put_batch(await a.get_batch(16, exact=False))


@compute_kernel(realm=AIE)
async def gio_win_one(a: In[WIN], o: Out[WIN]):
    while True:
        await o.put(await a.get())


@compute_kernel(realm=AIE)
async def gio_win_runs(a: In[WIN], o: Out[WIN]):
    while True:
        await o.put_batch(await a.get_batch(3, exact=False))


@make_compute_graph(name="gio_scalar")
def SCALAR_CHAINS(a: IoC[float32], b: IoC[float32]):
    a_mid, b_mid = IoConnector(float32), IoConnector(float32)
    a_out, b_out = IoConnector(float32), IoConnector(float32)
    gio_runs(a, a_mid)
    gio_one(a_mid, a_out)
    gio_one(b, b_mid)
    gio_runs(b_mid, b_out)
    return a_out, b_out


@make_compute_graph(name="gio_window")
def WINDOW_CHAINS(a: IoC[WIN], b: IoC[WIN]):
    a_mid, b_mid = IoConnector(WIN), IoConnector(WIN)
    a_out, b_out = IoConnector(WIN), IoConnector(WIN)
    gio_win_runs(a, a_mid)
    gio_win_one(a_mid, a_out)
    gio_win_one(b, b_mid)
    gio_win_runs(b_mid, b_out)
    return a_out, b_out


SCALAR_DATA = (np.arange(N, dtype=np.float32) * np.float32(0.37)
               - np.float32(11.0))
WINDOW_DATA = np.arange(N * W, dtype=np.float32) * np.float32(-0.5)

CONTAINERS = {
    "scalar": {
        "list": lambda: list(SCALAR_DATA),
        "pylist": lambda: SCALAR_DATA.tolist(),
        "tuple": lambda: tuple(SCALAR_DATA),
        "ndarray": lambda: SCALAR_DATA.copy(),
        "ndarray2d": lambda: SCALAR_DATA.reshape(-1, 2).copy(),
        "generator": lambda: (v for v in SCALAR_DATA),
    },
    "window": {
        "list": lambda: list(WINDOW_DATA.reshape(-1, W)),
        "tuple": lambda: tuple(WINDOW_DATA.reshape(-1, W)),
        "ndarray": lambda: WINDOW_DATA.copy(),
        "ndarray2d": lambda: WINDOW_DATA.reshape(-1, W).copy(),
        "generator": lambda: (b for b in WINDOW_DATA.reshape(-1, W)),
    },
}
GRID = [(s, c) for s, kinds in CONTAINERS.items() for c in kinds]


def expected(stream, container, validate):
    """What element-by-element iteration of the container delivers."""
    data = CONTAINERS[stream][container]()
    if stream == "window" and container == "ndarray":
        elems = [data[i:i + W] for i in range(0, data.size, W)]
    else:
        elems = list(data)
    dtype = WIN if stream == "window" else float32
    return [dtype.validate(v) for v in elems] if validate else elems


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def run_grid(stream, container, validate, batch_io, backend, **options):
    graph = WINDOW_CHAINS if stream == "window" else SCALAR_CHAINS
    if batch_io is not None:
        options["batch_io"] = batch_io
    a, b = CONTAINERS[stream][container](), CONTAINERS[stream][container]()
    sinks = ([], [])
    result = run_graph(graph, a, b, *sinks, backend=backend,
                       validate=validate, **options)
    assert result.completed
    want = expected(stream, container, validate)
    for sink in sinks:
        assert_identical(sink, want)
    assert result.items_in == result.items_out == 2 * len(want)


@pytest.mark.parametrize("optimize", ["none", "fuse", "full"])
@pytest.mark.parametrize("batch_io", [None, 1, 7])
@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("stream,container", GRID)
def test_cgsim_sinks_match_iteration(stream, container, validate, batch_io,
                                     optimize):
    run_grid(stream, container, validate, batch_io, "cgsim",
             optimize=optimize)


@pytest.mark.parametrize("batch_io", [None, 1, 7])
@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("stream,container", GRID)
def test_cgsim_mp_sinks_match_iteration(stream, container, validate,
                                        batch_io):
    run_grid(stream, container, validate, batch_io, "cgsim-mp", workers=2)


# ---------------------------------------------------------------------------
# Array sinks: every layout is written through, on every backend
# ---------------------------------------------------------------------------

BACKENDS = [
    pytest.param("cgsim", {}, id="cgsim"),
    pytest.param("cgsim", {"optimize": "full"}, id="cgsim-full"),
    pytest.param("x86sim", {}, id="x86sim"),
    pytest.param("cgsim-mp", {}, id="cgsim-mp"),
]


@pytest.mark.parametrize("backend,options", BACKENDS)
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
def test_array_sink_layouts_are_written(backend, options, layout):
    """A non-contiguous sink array (which ``reshape(-1)`` cannot view)
    receives every element in C order, like a contiguous one."""
    x = datasets.bitonic_blocks(2, seed=5).reshape(-1)
    want = bitonic.reference(x).reshape(-1)
    sink = {
        "contiguous": lambda: np.zeros(32, np.float32),
        "transposed": lambda: np.zeros((16, 2), np.float32).T,
        "strided": lambda: np.zeros(64, np.float32)[::2],
    }[layout]()
    result = run_graph(bitonic.BITONIC_GRAPH, x, sink, backend=backend,
                       **options)
    assert result.items_out == 32
    assert np.array_equal(sink.reshape(-1), want)


@pytest.mark.parametrize("backend,options", BACKENDS)
def test_window_array_sink_transposed(backend, options):
    a = WINDOW_DATA.copy()
    sinks = [np.zeros((N, W), np.float32, order="F"),
             np.zeros((W, N), np.float32).T]
    result = run_graph(WINDOW_CHAINS, a, a.copy(), *sinks, backend=backend,
                       **options)
    assert result.items_out == 2 * N
    for sink in sinks:
        assert np.array_equal(sink.reshape(-1), WINDOW_DATA)


@compute_kernel(realm=AIE)
async def gio_widen(a: In[int32], o: Out[int32]):
    while True:
        await o.put(int(await a.get()) * 10000)


@make_compute_graph(name="gio_widen")
def WIDEN_GRAPH(a: IoC[int32]):
    o = IoConnector(int32)
    gio_widen(a, o)
    return o


OVERFLOW = "Python integer 40000 out of bounds for int16"


@pytest.mark.parametrize("optimize", ["none", "full"])
def test_int16_sink_overflow_fails_after_prefix(optimize):
    """An out-of-range Python int fails the element it lands on, with
    numpy's own error, after every element before it was stored."""
    sink = np.zeros(8, np.int16)
    result = run_graph(WIDEN_GRAPH, list(range(8)), sink, backend="cgsim",
                       optimize=optimize, on_error="isolate")
    assert OVERFLOW in result.failure.describe()
    assert result.items_out == 4
    assert sink.tolist() == [0, 10000, 20000, 30000, 0, 0, 0, 0]


@pytest.mark.parametrize("backend", ["cgsim", "x86sim", "cgsim-mp"])
def test_int16_sink_overflow_raises(backend):
    sink = np.zeros(8, np.int16)
    with pytest.raises(Exception, match=OVERFLOW):
        run_graph(WIDEN_GRAPH, list(range(8)), sink, backend=backend)
    assert sink.tolist() == [0, 10000, 20000, 30000, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# stream_chunks and lazy generator sources
# ---------------------------------------------------------------------------


class TestStreamChunks:
    def test_ndarray_slices_are_numpy_scalars(self):
        chunks = list(stream_chunks(float32, SCALAR_DATA, n=64))
        assert [len(c) for c in chunks] == [64, 64, 22]
        assert all(type(v) is np.float32 for c in chunks for v in c)

    def test_flat_window_array_gives_block_views(self):
        chunks = list(stream_chunks(WIN, WINDOW_DATA, n=64))
        assert [len(c) for c in chunks] == [64, 64, 22]
        blocks = [b for c in chunks for b in c]
        assert all(np.shares_memory(b, WINDOW_DATA) for b in blocks)
        assert np.array_equal(np.concatenate(blocks), WINDOW_DATA)

    def test_failing_generator_delivers_prefix_first(self):
        def gen():
            yield from range(5)
            raise KeyError("source broke")

        chunks = stream_chunks(float32, gen(), n=3)
        assert next(chunks) == [0, 1, 2]
        assert next(chunks) == [3, 4]
        with pytest.raises(KeyError):
            next(chunks)

    def test_validation_failure_delivers_prefix_first(self):
        chunks = stream_chunks(float32, [1, 2, "x", 4], validate=True, n=8)
        assert next(chunks) == [1, 2]
        with pytest.raises(StreamTypeError):
            next(chunks)


def _counted(n):
    pulled = [0]

    def gen():
        for i in range(n):
            pulled[0] += 1
            yield np.float32(i)

    return gen(), pulled


@pytest.mark.parametrize("batch", [None, 1, 7])
def test_source_pulls_at_most_one_ring_ahead(batch):
    cap = 16
    q = BroadcastQueue(capacity=cap)
    values, pulled = _counted(100)
    coro = make_source(q, float32, values, batch=batch)
    got = []
    while True:
        try:
            coro.send(None)
        except StopIteration:
            break
        assert pulled[0] - q.total_puts <= cap
        got += q.try_get_many(0, 5)
    got += q.try_get_many(0, cap)
    assert got == list(range(100))


@pytest.mark.parametrize("reads", [1, 5, 40])
def test_feed_pulls_at_most_one_chunk_ahead(reads):
    chunk = 16
    feed = SourceFeed("feed")
    values, pulled = _counted(100)
    feed.bind(float32, values, chunk=chunk)
    got = []
    while True:
        out = (feed.try_get_many(0, reads) if reads > 1
               else [v for ok, v in [feed.try_get(0)] if ok])
        assert pulled[0] - feed.total_puts < chunk
        if not out:
            break
        got += out
    assert got == list(range(100)) and feed.done


# ---------------------------------------------------------------------------
# Resume counts of the paper apps, as recorded with element-wise I/O
# ---------------------------------------------------------------------------


def _app_io(app):
    if app == "bitonic":
        return [datasets.bitonic_blocks(40, seed=3).reshape(-1)], False
    if app == "farrow":
        blocks, mu = datasets.farrow_blocks(12, seed=3)
        return [blocks, int(mu)], True
    if app == "iir":
        return [datasets.iir_blocks(10, seed=3)], False
    pixels, fracs = datasets.bilinear_blocks(2, seed=3)
    return [pixels.reshape(-1), fracs.reshape(-1)], False


GRAPHS = {"bitonic": bitonic.BITONIC_GRAPH, "farrow": farrow.FARROW_GRAPH,
          "iir": iir.IIR_GRAPH, "bilinear": bilinear.BILINEAR_GRAPH}

#: ``(app, optimize, capacity) -> (context_switches, per_kernel_resumes)``
#: recorded when every global source and sink moved one element per
#: awaitable; unchanged for every batch_io and container kind.
RESUMES = {
    ("bitonic", "none", None): (32, {
        "bitonic16_kernel_0": 11, "sink[0]": 11, "source[0]": 10}),
    ("bitonic", "none", 5): (563, {
        "bitonic16_kernel_0": 242, "sink[0]": 161, "source[0]": 160}),
    ("farrow", "none", None): (7, {
        "farrow_stage1_0": 2, "farrow_stage2_0": 2, "sink[0]": 2,
        "source[0]": 1}),
    ("farrow", "none", 5): (15, {
        "farrow_stage1_0": 4, "farrow_stage2_0": 4, "sink[0]": 4,
        "source[0]": 3}),
    ("iir", "none", None): (5, {
        "iir_sos_kernel_0": 2, "sink[0]": 2, "source[0]": 1}),
    ("iir", "none", 5): (8, {
        "iir_sos_kernel_0": 3, "sink[0]": 3, "source[0]": 2}),
    ("bilinear", "none", None): (129, {
        "bilinear_kernel_0": 33, "sink[0]": 33, "source[0]": 32,
        "source[1]": 31}),
    ("bilinear", "none", 5): (1475, {
        "bilinear_kernel_0": 642, "sink[0]": 129, "source[0]": 448,
        "source[1]": 256}),
}
for _app, _member in (("bitonic", "bitonic16_kernel_0"),
                      ("farrow", "farrow_stage1_0+farrow_stage2_0"),
                      ("iir", "iir_sos_kernel_0"),
                      ("bilinear", "bilinear_kernel_0")):
    for _key in (("fuse", None), ("fuse", 5), ("full", None)):
        RESUMES[(_app, *_key)] = (1, {_member: 1})


@pytest.mark.parametrize("app,optimize,capacity", sorted(
    RESUMES, key=lambda k: (k[0], k[1], k[2] or 0)))
def test_app_resume_counts_unchanged(app, optimize, capacity):
    ctx_switches, resumes = RESUMES[app, optimize, capacity]
    ins, has_rtp = _app_io(app)
    options = {"optimize": optimize}
    if capacity is not None:
        options["capacity"] = capacity
    for batch_io in (None, 1, 7):
        for wrap in (lambda x: x, list, lambda x: (v for v in x)):
            streams = [wrap(ins[0])] + ([ins[1]] if has_rtp else
                                        [wrap(x) for x in ins[1:]])
            extra = {} if batch_io is None else {"batch_io": batch_io}
            result = run_graph(GRAPHS[app], *streams, [], backend="cgsim",
                               **options, **extra)
            assert result.context_switches == ctx_switches
            assert result.per_kernel_resumes == resumes
