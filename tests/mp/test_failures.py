"""Worker-death and remote-failure containment on ``cgsim-mp``.

A worker process that dies (or raises) must surface as a structured
:class:`~repro.faults.FailureReport` naming the lost shard's dependent
cone — the same containment contract :mod:`repro.faults` gives the
in-process backends — while sinks outside the cone stay complete.
"""

import os

import numpy as np
import pytest

from repro.apps import datasets
from repro.apps.farm import BITONIC_FARM4, bitonic_farm_io
from repro.apps.farrow import FARROW_GRAPH
from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    compute_kernel,
    int64,
    make_compute_graph,
)
from repro.errors import GraphRuntimeError, StreamTypeError
from repro.exec import run_graph
from repro.mp import WorkerCrashError
from repro.mp.manager import RemoteKernelError


@compute_kernel(realm=AIE)
async def mp_head(a: In[int64], z: Out[int64]):
    while True:
        await z.put(10 * (await a.get()))


@compute_kernel(realm=AIE)
async def mp_crash(a: In[int64], z: Out[int64]):
    await z.put(await a.get())
    os._exit(17)  # simulate a hard worker death (segfault/OOM analog)


@compute_kernel(realm=AIE)
async def mp_raise(a: In[int64], z: Out[int64]):
    while True:
        v = await a.get()
        if v >= 0:
            raise ValueError(f"remote boom on {v}")
        await z.put(v)


@compute_kernel(realm=AIE)
async def mp_tail(a: In[int64], z: Out[int64]):
    while True:
        await z.put(1 + (await a.get()))


def _chain(middle):
    @make_compute_graph(name=f"mp_chain_{middle.fn.__name__}")
    def g(x: IoC[int64]):
        a = IoConnector(int64, name="a")
        b = IoConnector(int64, name="b")
        c = IoConnector(int64, name="c")
        y = IoConnector(int64, name="y")
        mp_head(x, a)
        middle(a, b)
        mp_tail(b, c)
        mp_tail(c, y)
        return y

    return g


class TestWorkerDeath:
    def test_on_error_fail_raises_crash_error(self):
        g = _chain(mp_crash)
        with pytest.raises(WorkerCrashError) as exc:
            run_graph(g, [1, 2, 3], [], backend="cgsim-mp", workers=2)
        err = exc.value
        assert err.wid == 0 and err.exitcode == 17
        assert "mp_crash_0" in err.shard_names
        # The containment report rides on the exception.
        report = err.report
        assert report.policy == "isolate"
        assert set(report.cancelled) == {"mp_tail_0", "mp_tail_1"}

    def test_isolate_returns_contained_report(self):
        g = _chain(mp_crash)
        sink = []
        result = run_graph(g, [1, 2, 3], sink, backend="cgsim-mp",
                           workers=2, on_error="isolate")
        report = result.failure
        assert report is not None and report.policy == "isolate"
        assert isinstance(report.failures[0].error, WorkerCrashError)
        assert "worker[0]" in report.failures[0].via
        # Cancelled cone = everything downstream of the dead shard,
        # excluding the dead instances themselves (they're the seeds).
        assert set(report.cancelled) == {"mp_tail_0", "mp_tail_1"}
        assert "mp_crash_0" not in report.cancelled
        # The sink hangs off the cone: whatever arrived is a prefix.
        assert list(report.sink_status.values()) == ["partial"]
        assert not result.completed


class TestRemoteKernelError:
    def test_remote_exception_carries_type_and_traceback(self):
        g = _chain(mp_raise)
        with pytest.raises(RemoteKernelError) as exc:
            run_graph(g, [5], [], backend="cgsim-mp", workers=2)
        err = exc.value
        assert err.error_type == "ValueError"
        assert "remote boom on 50" in str(err)
        assert "mp_raise" in err.remote_tb

    def test_isolate_keeps_partial_prefix(self):
        g = _chain(mp_raise)
        sink = []
        result = run_graph(g, [-3, -1, 5, 7], sink, backend="cgsim-mp",
                           workers=2, on_error="isolate")
        assert result.failure is not None
        # Elements fully processed before the raise must have landed:
        # head scales by 10, each surviving tail adds 1.
        assert sink == [-28, -8]
        report = result.failure
        assert set(report.cancelled) == {"mp_tail_0", "mp_tail_1"}
        # mp_head_0 shared the failed process but was healthy.
        assert report.collateral == ("mp_head_0",)
        assert report.failing_task == "mp_raise_0"


class TestWorkerSetupError:
    def test_failure_before_running_is_contained(self):
        # The out-of-range RTP input is rejected while the worker builds
        # its shard, before any sink or latch exists to report.
        blocks, _mu = datasets.farrow_blocks(2)
        with pytest.raises(RemoteKernelError, match="OverflowError"):
            run_graph(FARROW_GRAPH, blocks, 10**12, [], backend="cgsim-mp",
                      workers=2, validate=True)
        result = run_graph(FARROW_GRAPH, blocks, 10**12, [],
                           backend="cgsim-mp", workers=2, validate=True,
                           on_error="isolate")
        assert not result.completed
        assert "OverflowError" in str(result.failure.failures[0].error)


def _farm_overflow(backend):
    """BITONIC_FARM4 with lane 2's sink array one block too small:
    the error's class, message and cause class, and that sink."""
    sinks = [[], [], np.zeros(16, np.float32), []]
    options = {"workers": 2} if backend == "cgsim-mp" else {}
    with pytest.raises(GraphRuntimeError) as info:
        run_graph(BITONIC_FARM4, *bitonic_farm_io(2), *sinks,
                  backend=backend, **options)
    err = info.value
    return (type(err), str(err), type(err.__cause__)), sinks[2]


def test_sink_overflow_raises_as_on_cgsim():
    """A too-small sink array fails the run with the same error class
    and message on both engines, chained to the store's own error, after
    the same prefix was stored."""
    want, want_sink = _farm_overflow("cgsim")
    got, got_sink = _farm_overflow("cgsim-mp")
    assert want == (GraphRuntimeError, "task 'sink[2]' raised "
                    "StreamTypeError: sink array overflow: capacity 16 "
                    "items", StreamTypeError)
    assert got == want
    assert got_sink.tobytes() == want_sink.tobytes()


def _farm_overflow_isolated(backend, sinks):
    """BITONIC_FARM4 (4 blocks per lane) into *sinks* under
    ``on_error="isolate"``: the result and the report's wire form
    without its run id."""
    options = {"workers": 2} if backend == "cgsim-mp" else {}
    result = run_graph(BITONIC_FARM4, *bitonic_farm_io(4), *sinks,
                       backend=backend, on_error="isolate", **options)
    report = result.failure.to_dict()
    report.pop("run_id", None)
    return result, report


@pytest.mark.parametrize("small", [(0, 1, 2, 3), (2,)],
                         ids=["every-sink", "lane-2"])
def test_sink_overflow_is_contained_as_on_cgsim(small):
    """Sink arrays one block each, too small for the run: cgsim-mp
    contains the store errors as cgsim does, with the same report
    fields and the same stored prefix in every sink."""
    def sinks():
        return [np.zeros(16, np.float32) if i in small else []
                for i in range(4)]

    want_sinks, got_sinks = sinks(), sinks()
    want, want_report = _farm_overflow_isolated("cgsim", want_sinks)
    got, got_report = _farm_overflow_isolated("cgsim-mp", got_sinks)
    assert not want.completed and not got.completed
    assert want_report["failing_task"] == f"sink[{small[0]}]"
    assert [f["error_type"] for f in want_report["failures"]] == \
        ["StreamTypeError"] * len(small)
    assert got_report == want_report
    assert got.items_out == want.items_out
    for g, w in zip(got_sinks, want_sinks):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
