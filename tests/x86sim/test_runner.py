"""Thread-per-kernel runner: execution-model equivalence with cgsim."""

import numpy as np
import pytest

from repro.core import RuntimeParam
from repro.errors import IoBindingError, SimulationError
from repro.x86sim import run_threaded


class TestBasicRuns:
    def test_adder(self, adder_graph):
        out = []
        rep = run_threaded(adder_graph, [1.0, 2.0], [10.0, 20.0], out)
        assert out == [11.0, 22.0]
        assert rep.items_in == 4 and rep.items_out == 2

    def test_fig4(self, fig4_graph):
        out = []
        run_threaded(fig4_graph, list(range(10)), out)
        assert out == [4 * i for i in range(10)]

    def test_broadcast(self, broadcast_graph):
        o1, o2 = [], []
        run_threaded(broadcast_graph, [1, 2, 3], o1, o2)
        assert o1 == [4, 8, 12] and o2 == [4, 8, 12]

    def test_rtp(self, rtp_graph):
        out = []
        run_threaded(rtp_graph, [1.0, 2.0], 4, out)
        assert out == [4.0, 8.0]

    def test_rtp_box(self, rtp_graph):
        out = []
        run_threaded(rtp_graph, [3.0], RuntimeParam(2), out)
        assert out == [6.0]

    def test_windows(self, window_graph):
        data = np.arange(24, dtype=np.float32)
        out = []
        run_threaded(window_graph, data, out)
        assert np.array_equal(np.concatenate(out), -data)

    def test_array_sink(self, fig4_graph):
        sink = np.zeros(5, dtype=np.int64)
        run_threaded(fig4_graph, np.arange(5), sink)
        assert list(sink) == [0, 4, 8, 12, 16]

    def test_thread_count(self, fig4_graph):
        rep = run_threaded(fig4_graph, [1], [])
        # 2 kernels + 1 source + 1 sink
        assert rep.n_threads == 4
        # one thread per task, named by its logical task name
        assert sorted(rep.task_states) == [
            "doubler_kernel_0", "doubler_kernel_1", "sink[0]", "source[0]"]

    def test_empty_input(self, adder_graph):
        out = []
        rep = run_threaded(adder_graph, [], [], out)
        assert out == [] and rep.items_out == 0

    def test_small_capacity_still_correct(self, fig4_graph):
        out = []
        run_threaded(fig4_graph, list(range(50)), out, capacity=1)
        assert out == [4 * i for i in range(50)]


class TestErrors:
    def test_wrong_arity(self, adder_graph):
        with pytest.raises(IoBindingError):
            run_threaded(adder_graph, [1.0], [])

    def test_kernel_exception_surfaces(self):
        from repro.core import (
            AIE, In, IoC, IoConnector, Out, compute_kernel, int32,
            make_compute_graph,
        )

        @compute_kernel(realm=AIE)
        async def choker(a: In[int32], o: Out[int32]):
            x = await a.get()
            if x == 13:
                raise ValueError("unlucky")
            await o.put(x)

        @make_compute_graph(name="choke")
        def g(a: IoC[int32]):
            out = IoConnector(int32)
            choker(a, out)
            return out

        with pytest.raises(SimulationError, match="unlucky"):
            run_threaded(g, [13], [])

    def test_bad_sink(self, fig4_graph):
        with pytest.raises(IoBindingError):
            run_threaded(fig4_graph, [1], 42)


class TestEquivalenceWithCgsim:
    """Same graphs, same data, two execution models, same results."""

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_fig4_equivalence(self, fig4_graph, n):
        data = list(range(n))
        cg_out, x86_out = [], []
        fig4_graph(data, cg_out)
        run_threaded(fig4_graph, data, x86_out)
        assert cg_out == x86_out

    def test_rtp_equivalence(self, rtp_graph):
        data = [1.5, -2.0, 3.25]
        cg_out, x86_out = [], []
        rtp_graph(data, 7, cg_out)
        run_threaded(rtp_graph, data, 7, x86_out)
        assert cg_out == x86_out
