"""Numeric runs cross fused boundaries as read-only array views.

A fused chain's :class:`~repro.core.fused.SourceFeed` serves an array
container as views of it, ``get_batch`` hands such a view on whole when
one transfer fills the request, and ``put_batch`` / ``store_many`` take
array runs.  These tests hold that path to the list path it replaces:
the fused bitonic and bilinear twins stay bit-identical to their
unfused graphs on ragged tails, multi-chunk reads and every container
kind; a view cannot be written through; runs joined across two source
chunks keep their elements (a list ``+=`` an array is numpy addition,
not ``extend``); and an array sink refuses an array run exactly where
it refuses the run's elements one by one.
"""

import warnings

import numpy as np
import pytest

from repro.apps import bilinear, bitonic, datasets
from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    Window,
    compute_kernel,
    float32,
    int16,
    make_compute_graph,
)
from repro.core.fused import SourceFeed
from repro.core.sources_sinks import ArraySinkCursor, stream_chunks
from repro.errors import GraphRuntimeError, StreamTypeError
from repro.exec import run_graph

# ---------------------------------------------------------------------------
# Fused twins against their unfused graphs
# ---------------------------------------------------------------------------

SOURCES = {
    "ndarray": lambda x: x,
    "list": list,
    "generator": lambda x: (v for v in x),
}


def _bitonic_inputs(extra):
    # Two full blocks plus *extra* samples: a tail that ends mid-block.
    x = datasets.bitonic_blocks(3, seed=11).reshape(-1)
    return (x[:2 * bitonic.BITONIC_BLOCK + extra],)


def _bilinear_inputs(extra):
    # One block of samples plus *extra*: a tail that ends mid 8-sample
    # group when extra is not a multiple of 8.
    pixels, fracs = datasets.bilinear_blocks(2, seed=11)
    n = bilinear.BILINEAR_BLOCK + extra
    return pixels.reshape(-1)[:4 * n], fracs.reshape(-1)[:2 * n]


CASES = {
    "bitonic": (bitonic.BITONIC_GRAPH, _bitonic_inputs),
    "bilinear": (bilinear.BILINEAR_GRAPH, _bilinear_inputs),
}


def _run(app, ins, sink, **options):
    graph, _ = CASES[app]
    result = run_graph(graph, *ins, sink, backend="cgsim", **options)
    return result, sink


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("batch_io", [None, 7])
@pytest.mark.parametrize("extra", [0, 5, 13])
@pytest.mark.parametrize("app", sorted(CASES))
def test_fused_twin_matches_unfused(app, extra, batch_io, source, validate):
    _, make_inputs = CASES[app]
    arrays = make_inputs(extra)
    options = {"validate": validate}
    if batch_io is not None:
        options["batch_io"] = batch_io   # reads span several chunks

    def fresh():
        return [SOURCES[source](a) for a in arrays]

    _, want = _run(app, fresh(), [], **options)
    _, got = _run(app, fresh(), [], optimize="full", **options)
    assert len(got) == len(want) > 0
    assert [type(v) for v in got] == [type(v) for v in want]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    sink = np.full(len(want), np.nan, dtype=np.float32)
    result, sink = _run(app, fresh(), sink, optimize="full", **options)
    assert result.items_out == len(want)
    assert sink.tobytes() == np.asarray(want).tobytes()


def test_fused_twin_leaves_input_unchanged():
    (x,) = _bitonic_inputs(5)
    before = x.copy()
    out = []
    run_graph(bitonic.BITONIC_GRAPH, x, out, backend="cgsim",
              optimize="full")
    assert x.tobytes() == before.tobytes() and x.flags.writeable


# ---------------------------------------------------------------------------
# Read-only views
# ---------------------------------------------------------------------------


@compute_kernel(realm=AIE)
async def scribble_run(a: In[float32], o: Out[float32]):
    while True:
        xs = await a.get_batch(8)
        xs[0] = 0.0
        await o.put_batch(xs)


@make_compute_graph(name="scribble_run")
def SCRIBBLE_RUN(a: IoC[float32]):
    o = IoConnector(float32)
    scribble_run(a, o)
    return o


WIN = Window(float32, 4)


@compute_kernel(realm=AIE)
async def scribble_block(a: In[WIN], o: Out[WIN]):
    while True:
        blk = await a.get()
        blk[0] = 0.0
        await o.put(blk)


@make_compute_graph(name="scribble_block")
def SCRIBBLE_BLOCK(a: IoC[WIN]):
    o = IoConnector(WIN)
    scribble_block(a, o)
    return o


def test_writing_into_a_get_batch_view_raises():
    x = np.arange(32, dtype=np.float32)
    before = x.copy()
    with pytest.raises(GraphRuntimeError, match="read-only"):
        run_graph(SCRIBBLE_RUN, x, [], backend="cgsim", optimize="fuse")
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("optimize", ["none", "fuse"])
def test_writing_into_a_window_block_raises(optimize):
    x = np.arange(32, dtype=np.float32)
    before = x.copy()
    with pytest.raises(GraphRuntimeError, match="read-only"):
        run_graph(SCRIBBLE_BLOCK, x, [], backend="cgsim", optimize=optimize)
    assert x.tobytes() == before.tobytes()


def test_array_chunks_are_read_only_views():
    x = np.arange(10, dtype=np.float32)
    chunks = list(stream_chunks(float32, x, n=4))
    assert [len(c) for c in chunks] == [4, 4, 2]
    for c in chunks:
        assert isinstance(c, np.ndarray) and not c.flags.writeable
        assert np.shares_memory(c, x)
    assert x.flags.writeable   # the caller's array is not touched


def test_list_and_pulled_sources_still_give_lists():
    x = np.arange(10, dtype=np.float32)
    for data, validate in ((list(x), False), (tuple(x), False),
                           ((v for v in x), False), (x, True)):
        chunks = list(stream_chunks(float32, data, validate, n=4))
        assert all(type(c) is list for c in chunks)
        assert [v for c in chunks for v in c] == list(x)


# ---------------------------------------------------------------------------
# Runs joined across two source chunks
# ---------------------------------------------------------------------------


def _serve(feed, reads):
    """Serve *reads* (a read of 1 is ``try_get``) and return every
    element delivered, in order."""
    got = []
    for n in reads:
        if n == 1:
            ok, v = feed.try_get(0)
            got += [v] if ok else []
        else:
            got.extend(feed.try_get_many(0, n))
    return got


@pytest.mark.parametrize("container", ["ndarray", "list"])
def test_join_of_equal_length_runs_keeps_elements(container):
    """Chunks of 2 over 5 elements: the third read joins the one list
    element carried from the last join with a final run of the same
    length, and a carried array view meets one of its own length too.
    ``+=`` would add them elementwise instead of concatenating."""
    x = np.arange(5, dtype=np.float32) + np.float32(10)
    data = x if container == "ndarray" else list(x)
    feed = SourceFeed("feed")
    feed.bind(float32, data, chunk=2)
    got = _serve(feed, [1, 2, 3])
    assert got == list(x) and feed.done
    assert all(type(v) is np.float32 for v in got)

    feed = SourceFeed("feed")
    feed.bind(float32, x[:3], chunk=2)
    assert _serve(feed, [1, 3]) == list(x[:3])


@pytest.mark.parametrize("container", ["ndarray", "list", "generator"])
def test_any_read_pattern_serves_the_input_in_order(container):
    rng = np.random.default_rng(7)
    x = np.arange(200, dtype=np.float32)
    for _ in range(20):
        data = {"ndarray": x, "list": list(x),
                "generator": (v for v in x)}[container]
        feed = SourceFeed("feed")
        feed.bind(float32, data, chunk=int(rng.integers(1, 9)))
        reads = rng.integers(1, 12, size=80).tolist()
        got = _serve(feed, reads)
        assert got == list(x[:len(got)])
        assert feed.total_gets == len(got)


def test_one_chunk_read_is_handed_on_whole():
    """A read one run fills is a view of the container, not a copy."""
    x = np.arange(64, dtype=np.float32)
    feed = SourceFeed("feed")
    feed.bind(float32, x, chunk=16)
    run = feed.try_get_many(0, 10)
    assert isinstance(run, np.ndarray) and np.shares_memory(run, x)
    assert not run.flags.writeable


# ---------------------------------------------------------------------------
# ArraySinkCursor.store_many with array runs
# ---------------------------------------------------------------------------


def _outcome(store, sink):
    """What storing does: the error (type and message) or None, the
    warnings raised, and the sink's bytes afterwards."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            store()
            err = None
        except Exception as exc:
            err = (type(exc), str(exc))
    return err, sorted({str(w.message) for w in caught}), sink.tobytes()


RUNS = {
    "int overflow": (np.array([1, 2, 40000, 4], np.int64), np.int16),
    "nan into int": (np.array([1.0, np.nan, 3.0], np.float32), np.int16),
    "complex into float": (np.array([1 + 2j, 3 + 0j], np.complex64),
                           np.float32),
    "float into int": (np.array([1.5, -2.5, 7.0], np.float64), np.int16),
    "safe widening": (np.array([1.5, -2.5, 7.0], np.float32), np.float64),
}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_array_run_refused_where_its_elements_are(case):
    run, sink_dtype = RUNS[case]
    dt = {np.int16: int16}.get(sink_dtype, float32)
    whole = np.zeros(6, sink_dtype)
    one_by_one = np.zeros(6, sink_dtype)
    cursor_a = ArraySinkCursor(whole, dt)
    cursor_b = ArraySinkCursor(one_by_one, dt)

    def elementwise():
        for v in run:
            cursor_b.store(v)

    a = _outcome(lambda: cursor_a.store_many(run), whole)
    b = _outcome(elementwise, one_by_one)
    assert a == b
    assert cursor_a.items_stored == cursor_b.items_stored


def test_overflowing_array_run_stores_prefix_then_raises():
    sink = np.zeros(3, np.float32)
    cursor = ArraySinkCursor(sink, float32)
    with pytest.raises(StreamTypeError, match="sink array overflow"):
        cursor.store_many(np.arange(5, dtype=np.float32))
    assert sink.tolist() == [0.0, 1.0, 2.0] and cursor.items_stored == 3


def test_window_array_run_is_one_slice_write():
    sink = np.zeros((3, 4), np.float32, order="F")   # filled via a copy
    cursor = ArraySinkCursor(sink, WIN)
    run = np.arange(8, dtype=np.float32).reshape(2, 4)
    cursor.store_many(run)
    cursor.store_many([np.full(4, 9, np.float32)])
    assert sink.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [9, 9, 9, 9]]
    with pytest.raises(StreamTypeError, match="sink array overflow"):
        cursor.store_many(run)
