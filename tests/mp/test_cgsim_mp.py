"""The ``cgsim-mp`` backend end-to-end: bit-identity, RTP outputs and
report shape.

Every functional test compares against single-process ``cgsim`` —
sharding across OS processes must be invisible in the data.  Wall-clock
scaling is measured by the benchmark, not asserted here.
"""

import numpy as np
import pytest

from repro.apps import datasets
from repro.apps.farm import (
    BILINEAR_FARM4,
    BITONIC_FARM4,
    bilinear_farm_io,
    bitonic_farm_io,
    run_farm,
)
from repro.apps.farrow import FARROW_GRAPH
from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    PortSettings,
    RuntimeParam,
    compute_kernel,
    int32,
    make_compute_graph,
)
from repro.errors import GraphRuntimeError
from repro.exec import run_graph
from repro.mp import MpRunReport

RTP = PortSettings(runtime_parameter=True)


@compute_kernel(realm=AIE)
async def mp_stats_peak(x: In[int32], y: Out[int32],
                        peak: Out[int32, RTP]):
    best = None
    while True:
        v = await x.get()
        if best is None or v > best:
            best = v
            await peak.put(best)
        await y.put(v)


def _farrow_io(n_blocks=4):
    blocks, mu = datasets.farrow_blocks(n_blocks)
    return blocks, mu


class TestBitIdentity:
    def test_farrow_two_workers_matches_cgsim(self):
        blocks, mu = _farrow_io()
        sp, mp = [], []
        run_graph(FARROW_GRAPH, blocks, mu, sp, backend="cgsim")
        result = run_graph(FARROW_GRAPH, blocks, mu, mp,
                           backend="cgsim-mp", workers=2)
        assert result.completed and result.n_threads == 2
        assert len(mp) == len(sp)
        for a, b in zip(sp, mp):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bitonic_farm_every_worker_count(self, workers):
        inp = bitonic_farm_io(5)
        sp = run_farm(BITONIC_FARM4, inp, backend="cgsim")
        mp = run_farm(BITONIC_FARM4, inp, backend="cgsim-mp",
                      workers=workers)
        for a, b in zip(sp, mp):
            assert np.array_equal(a, b)

    def test_bilinear_farm_four_workers(self):
        io = bilinear_farm_io(3)
        sp = run_farm(BILINEAR_FARM4, io, backend="cgsim")
        mp = run_farm(BILINEAR_FARM4, io, backend="cgsim-mp", workers=4)
        for a, b in zip(sp, mp):
            assert np.array_equal(a, b)

    def test_ndarray_sink_round_trip(self):
        inp = bitonic_farm_io(3)
        lanes = 4
        sp = run_farm(BITONIC_FARM4, inp, backend="cgsim")
        sinks = [np.zeros(48, dtype=np.float32) for _ in range(lanes)]
        result = run_graph(BITONIC_FARM4, *inp, *sinks,
                           backend="cgsim-mp", workers=2)
        assert result.completed
        for a, b in zip(sp, sinks):
            assert np.array_equal(a, b)


class TestRtpOutputs:
    def test_runtime_param_sink_carries_final_latch(self):
        @make_compute_graph(name="mp_stats")
        def g(x: IoC[int32]):
            y = IoConnector(int32, name="y")
            peak = IoConnector(int32, name="peak")
            mp_stats_peak(x, y, peak)
            return y, peak

        out, peak = [], RuntimeParam()
        result = run_graph(g, [3, 9, 2, 7], out, peak,
                           backend="cgsim-mp", workers=2)
        assert result.completed
        assert out == [3, 9, 2, 7]
        assert peak.value == 9


class TestReportAndOptions:
    def test_report_shape(self):
        blocks, mu = _farrow_io(3)
        sink = []
        result = run_graph(FARROW_GRAPH, blocks, mu, sink,
                           backend="cgsim-mp", workers=2)
        report = result.raw
        assert isinstance(report, MpRunReport)
        assert report.n_workers == 2
        assert report.completed and not report.deadlocked
        assert report.items_in > 0 and report.items_out > 0
        assert set(report.worker_walls) == {0, 1}
        assert "farrow_stage1_0" in report.task_states
        assert "farrow_stage2_0" in report.task_states

    def test_workers_clamped_in_report(self):
        blocks, mu = _farrow_io(2)
        result = run_graph(FARROW_GRAPH, blocks, mu, [],
                           backend="cgsim-mp", workers=16)
        assert result.raw.n_workers == 2  # only two indivisible units

    def test_fault_plans_rejected(self):
        from repro.faults import FaultPlan

        blocks, mu = _farrow_io(2)
        with pytest.raises(GraphRuntimeError, match="fault-injection"):
            run_graph(FARROW_GRAPH, blocks, mu, [],
                      backend="cgsim-mp", workers=2, faults=FaultPlan())

    def test_unknown_option_rejected(self):
        blocks, mu = _farrow_io(2)
        with pytest.raises(GraphRuntimeError, match="nonsense"):
            run_graph(FARROW_GRAPH, blocks, mu, [],
                      backend="cgsim-mp", nonsense=1)


def test_two_workers_match_single_process_on_farm():
    """A multi-kernel farm on 2 workers is bit-identical to the
    single-process backend.  Which of the two is faster is measured by
    the benchmark (``farm`` workload, ``mp.speedup_vs_cgsim``), not
    asserted here: a single-shot wall-clock comparison depends on what
    ran before it in the process."""
    inp = bitonic_farm_io(400)
    sp = run_farm(BITONIC_FARM4, inp, backend="cgsim")
    mp = run_farm(BITONIC_FARM4, inp, backend="cgsim-mp", workers=2)
    for a, b in zip(sp, mp):
        assert np.array_equal(a, b)
