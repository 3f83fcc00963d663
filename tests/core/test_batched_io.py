"""Batched port I/O: get_batch/put_batch fast path (§3.6 extension).

Batched transfers must be *semantically invisible* — same elements, same
order as per-element I/O — while moving whole runs per awaitable and
carrying partial progress across scheduler suspensions (a batch blocks
at most once per queue full/empty transition).
"""

import numpy as np
import pytest

from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    compute_kernel,
    int32,
    make_compute_graph,
)
from repro.errors import StreamTypeError

BATCH = 4


@compute_kernel(realm=AIE)
async def block_doubler(inp: In[int32], out: Out[int32]):
    """Fixed-block batched kernel: exact 4-element runs."""
    while True:
        xs = await inp.get_batch(BATCH)
        await out.put_batch([2 * x for x in xs])


@compute_kernel(realm=AIE)
async def tail_doubler(inp: In[int32], out: Out[int32]):
    """Up-to batched kernel: drains whatever is available (1..8)."""
    while True:
        xs = await inp.get_batch(8, exact=False)
        await out.put_batch([2 * x for x in xs])


@make_compute_graph(name="block_double")
def BLOCK_GRAPH(a: IoC[int32]):
    o = IoConnector(int32)
    block_doubler(a, o)
    return o


@make_compute_graph(name="tail_double")
def TAIL_GRAPH(a: IoC[int32]):
    o = IoConnector(int32)
    tail_doubler(a, o)
    return o


class TestBatchedKernelPorts:
    @pytest.mark.parametrize("capacity", [2, 4, 8, 64])
    def test_exact_batches_match_per_element(self, capacity):
        """Correct at every capacity, *including* capacities smaller
        than the batch — partial progress must carry across blocks."""
        data = list(range(40))
        out = []
        rep = BLOCK_GRAPH(data, out, capacity=capacity)
        assert rep.completed
        assert out == [2 * v for v in data]

    def test_partial_progress_is_counted(self):
        """With capacity < batch, every batch suspends mid-flight and
        the scheduler accounts the elements carried across the yield."""
        data = list(range(40))
        rep = BLOCK_GRAPH(data, [], capacity=2)
        assert rep.raw.batch_carried_items > 0

    def test_large_capacity_batches_never_carry(self):
        """When whole batches always fit, nothing is carried across a
        suspension (the batch never blocks mid-flight)."""
        data = list(range(40))
        rep = BLOCK_GRAPH(data, [], capacity=64)
        assert rep.raw.batch_carried_items == 0

    @pytest.mark.parametrize("n_items", [1, 7, 8, 13, 40])
    def test_up_to_batches_drain_any_length(self, n_items):
        data = list(range(n_items))
        out = []
        rep = TAIL_GRAPH(data, out, capacity=4)
        assert rep.completed
        assert out == [2 * v for v in data]

    def test_exact_batch_strands_short_tail(self):
        """An exact-mode kernel on a non-multiple input leaves the tail
        pending (blocked read) — the documented fixed-block contract."""
        data = list(range(BATCH + 2))
        out = []
        rep = BLOCK_GRAPH(data, out)
        assert out == [2 * v for v in range(BATCH)]
        assert "blocked-read" in rep.task_states.values()

    def test_zero_batch_rejected(self):
        @compute_kernel(realm=AIE)
        async def bad_batch(a: In[int32], o: Out[int32]):
            while True:
                await o.put_batch(await a.get_batch(0))

        @make_compute_graph(name="bad_batch_graph")
        def g(a: IoC[int32]):
            o = IoConnector(int32)
            bad_batch(a, o)
            return o

        from repro.errors import GraphRuntimeError

        with pytest.raises((StreamTypeError, GraphRuntimeError)):
            g([1, 2], [])

    def test_put_batch_validates_elements(self):
        @compute_kernel(realm=AIE)
        async def liar(a: In[int32], o: Out[int32]):
            while True:
                xs = await a.get_batch(2)
                await o.put_batch(["not-an-int"] * len(xs))

        @make_compute_graph(name="liar_graph")
        def g(a: IoC[int32]):
            o = IoConnector(int32)
            liar(a, o)
            return o

        from repro.errors import GraphRuntimeError

        with pytest.raises((StreamTypeError, GraphRuntimeError)):
            g([1, 2], [], validate=True)


class TestBatchedGlobalIo:
    """batch_io: bulk ring transfers on global sources and sinks."""

    @pytest.mark.parametrize("batch_io", [2, 8, 64])
    def test_source_sink_batching_preserves_stream(self, fig4_graph,
                                                   batch_io):
        data = list(range(100))
        plain, batched = [], []
        fig4_graph(data, plain)
        rep = fig4_graph(data, batched, batch_io=batch_io)
        assert rep.completed
        assert plain == batched

    def test_batching_reduces_awaitable_traffic(self, fig4_graph):
        """Batched global I/O must not *increase* context switches and
        should reduce source/sink resumes for a long stream."""
        data = list(range(512))
        r1 = fig4_graph(data, [], capacity=16)
        r2 = fig4_graph(data, [], capacity=16, batch_io=16)
        assert r2.context_switches <= r1.context_switches

    def test_batched_window_streams(self):
        """batch_io composes with window (array-valued) elements."""
        from repro.apps import iir

        blocks = np.random.default_rng(3).standard_normal(
            (4, 2048)).astype(np.float32)
        plain, batched = [], []
        iir.IIR_GRAPH(blocks, plain)
        iir.IIR_GRAPH(blocks, batched, batch_io=2)
        assert np.array_equal(
            np.stack([np.asarray(b, np.float32) for b in plain]),
            np.stack([np.asarray(b, np.float32) for b in batched]),
        )
