"""repro.exec: the unified pluggable execution-backend layer.

Covers the registry, the three built-in backends (cgsim, pysim,
x86sim) through the one public entry point, the uniform
:class:`RunResult` statistics surface, plan lifecycle rules, and the
batched-port-I/O option on the cgsim backend.
"""

import math

import numpy as np
import pytest

from repro.errors import GraphRuntimeError
from repro.exec import (
    ExecutionBackend,
    RunResult,
    available_backends,
    get_backend,
    run_graph,
)

ALL_BACKENDS = available_backends()


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert ALL_BACKENDS == ["cgsim", "cgsim-mp", "pysim", "x86sim"]

    def test_get_backend_returns_instances(self):
        for name in ALL_BACKENDS:
            b = get_backend(name)
            assert isinstance(b, ExecutionBackend)
            assert b.name == name

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(GraphRuntimeError, match="cgsim"):
            get_backend("qemu")

    def test_run_graph_rejects_unknown_backend(self, fig4_graph):
        with pytest.raises(GraphRuntimeError):
            run_graph(fig4_graph, [1], [], backend="nope")


class TestAllBackendsRun:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fig4_pipeline(self, fig4_graph, backend):
        out = []
        result = run_graph(fig4_graph, [1, 2, 3], out, backend=backend)
        assert out == [4, 8, 12]
        assert result.completed and not result.deadlocked
        assert result.backend == backend

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_multi_source(self, adder_graph, backend):
        out = []
        run_graph(adder_graph, [1.0, 2.0], [10.0, 20.0], out,
                  backend=backend)
        assert out == [11.0, 22.0]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_rtp_graph(self, rtp_graph, backend):
        out = []
        run_graph(rtp_graph, [1.0, 2.0], 3, out, backend=backend)
        assert out == [3.0, 6.0]

    def test_outputs_field_is_sink_tail(self, fig4_graph):
        sink = []
        result = run_graph(fig4_graph, [5], sink)
        assert result.outputs == [sink]
        assert result.outputs[0] is sink


class TestRunResultStats:
    def test_uniform_fields(self, fig4_graph):
        results = {b: run_graph(fig4_graph, [1, 2], [], backend=b)
                   for b in ALL_BACKENDS}
        for b, r in results.items():
            assert isinstance(r, RunResult)
            assert r.graph_name == "fig4"
            assert r.items_in == 2 and r.items_out == 2
            assert r.wall_time >= 0.0
            assert b in repr(r)
        # Engine-specific corners of the uniform surface:
        assert results["cgsim"].n_threads == 1
        assert results["x86sim"].n_threads > 1
        assert results["cgsim"].context_switches >= 0
        assert results["cgsim"].per_kernel_resumes
        assert results["x86sim"].task_states  # every thread finished
        assert set(results["x86sim"].task_states.values()) == {"finished"}
        # A graph call is a cgsim run and returns the same RunResult.
        call = fig4_graph([1, 2], [])
        assert isinstance(call, RunResult)
        for name in ("items_in", "items_out", "task_states",
                     "per_kernel_resumes", "context_switches"):
            assert getattr(call, name) == getattr(results["cgsim"], name)

    @pytest.mark.parametrize("backend,options", [
        ("cgsim", {}), ("cgsim", {"optimize": "fuse"}), ("cgsim-mp", {}),
    ], ids=["none", "fuse", "cgsim-mp"])
    def test_profile_populates_kernel_fraction(self, fig4_graph, backend,
                                               options):
        # Task CPU time over the scheduler wall: a fused member can
        # finish in one resume, whose slice must count too.
        r = run_graph(fig4_graph, list(range(32)), [], backend=backend,
                      profile=True, **options)
        assert r.per_kernel_time
        assert 0.0 < r.kernel_fraction <= 1.0
        r_off = run_graph(fig4_graph, [1], [], backend=backend, **options)
        assert math.isnan(r_off.kernel_fraction)

    def test_deadlocked_result_reports_diagnosis(self, fig4_graph):
        # Starve the sink: ask for nothing, give the kernel no input —
        # then over-consume by running a graph whose kernel blocks.
        from repro.core import IoC, IoConnector, float32, make_compute_graph
        from conftest import adder_kernel  # needs two streams; feed one

        @make_compute_graph(name="starved")
        def g(a: IoC[float32], b: IoC[float32]):
            o = IoConnector(float32)
            adder_kernel(a, b, o)
            return o

        out = []
        r = run_graph(g, [1, 2, 3], [1], out, backend="cgsim")
        assert not r.completed and r.deadlocked
        assert "blocked" in r.stall_diagnosis


class TestPlanLifecycle:
    def test_plan_is_single_use(self, fig4_graph):
        backend = get_backend("cgsim")
        plan = backend.prepare(fig4_graph, ([1], []))
        backend.run(plan)
        with pytest.raises(GraphRuntimeError, match="already"):
            backend.run(plan)

    def test_plan_backend_mismatch_rejected(self, fig4_graph):
        plan = get_backend("cgsim").prepare(fig4_graph, ([1], []))
        with pytest.raises(GraphRuntimeError):
            get_backend("x86sim").run(plan)

    def test_x86sim_rejects_unknown_options(self, fig4_graph):
        with pytest.raises(GraphRuntimeError, match="unknown options"):
            run_graph(fig4_graph, [1], [], backend="x86sim", batch_io=4)


class TestGraphCarriers:
    """run_graph accepts compiled, serialized, and raw IR graphs."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_serialized_graph(self, fig4_graph, backend):
        out = []
        run_graph(fig4_graph.serialized, [2], out, backend=backend)
        assert out == [8]

    def test_raw_ir_graph(self, fig4_graph):
        out = []
        run_graph(fig4_graph.graph, [3], out, backend="cgsim")
        assert out == [12]


class TestBatchedIoOption:
    def test_batch_io_matches_per_element(self, fig4_graph):
        data = list(range(100))
        plain, batched = [], []
        run_graph(fig4_graph, data, plain, backend="cgsim")
        r = run_graph(fig4_graph, data, batched, backend="cgsim",
                      batch_io=16)
        assert plain == batched
        assert r.completed

    def test_batch_io_reduces_context_switches(self, fig4_graph):
        data = list(range(256))
        r1 = run_graph(fig4_graph, data, [], backend="cgsim", capacity=8)
        r2 = run_graph(fig4_graph, data, [], backend="cgsim", capacity=8,
                       batch_io=8)
        assert r2.context_switches <= r1.context_switches

    def test_batch_io_rejected_by_x86sim(self, fig4_graph):
        with pytest.raises(GraphRuntimeError):
            run_graph(fig4_graph, [1], [], backend="x86sim", batch_io=8)
