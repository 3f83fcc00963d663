"""Worker-death and remote-failure containment on ``cgsim-mp``.

A worker process that dies (or raises) must surface as a structured
:class:`~repro.faults.FailureReport` naming the lost shard's dependent
cone — the same containment contract :mod:`repro.faults` gives the
in-process backends — while sinks outside the cone stay complete.
"""

import os

import pytest

from repro.apps import datasets
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
