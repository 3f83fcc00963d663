"""Failure containment: ``on_error={"fail","isolate","poison"}``.

The acceptance contract: with an injected kernel fault and
``on_error="isolate"``, ``run_graph`` *returns* a RunResult whose
FailureReport names the injected kernel and the exact cancelled cone —
on the cooperative and the threaded engine alike.  ``poison`` instead
marks the failing kernel's output streams so dependents terminate at
the element where the data ends.
"""

import pytest

from repro.core import AIE, In, IoC, IoConnector, Out, compute_kernel, \
    int32, make_compute_graph
from repro.errors import GraphRuntimeError
from repro.exec import run_graph
from repro.faults import FailureReport, KernelFault

DATA = list(range(1, 26))

CONTAINED = ["cgsim", "x86sim"]


def _opts(backend):
    return {"timeout": 10.0} if backend == "x86sim" else {}


class TestIsolateChain:
    @pytest.mark.parametrize("backend", CONTAINED)
    def test_returns_report_naming_kernel_and_cone(self, fig4_graph,
                                                   backend):
        out = []
        result = run_graph(
            fig4_graph, DATA, out, backend=backend, on_error="isolate",
            faults=KernelFault("doubler_kernel_0", at_resume=1),
            **_opts(backend))
        assert not result.completed
        report = result.failure
        assert isinstance(report, FailureReport)
        assert report.policy == "isolate"
        assert report.failing_task == "doubler_kernel_0"
        assert report.failures[0].injected
        # The dependent cone — and nothing else — is cancelled.
        assert report.cancelled == ("doubler_kernel_1", "sink[0]")
        assert report.sink_status == {"sink[0]": "partial"}
        assert out == []  # the head kernel died before forwarding data

    @pytest.mark.parametrize("backend", CONTAINED)
    def test_contained_failure_is_not_a_deadlock(self, fig4_graph,
                                                 backend):
        result = run_graph(
            fig4_graph, DATA, [], backend=backend, on_error="isolate",
            faults=KernelFault("doubler_kernel_0", at_resume=1),
            **_opts(backend))
        assert not result.deadlocked
        assert result.deadlock is None

    @pytest.mark.parametrize("backend", CONTAINED)
    def test_injection_recorded_on_report(self, fig4_graph, backend):
        result = run_graph(
            fig4_graph, DATA, [], backend=backend, on_error="isolate",
            faults=KernelFault("doubler_kernel_0", at_resume=1),
            **_opts(backend))
        faults = result.failure.injected_faults
        assert any(ev.get("fault") == "kernel_raise"
                   and ev.get("task") == "doubler_kernel_0"
                   for ev in faults)


class TestIsolateBroadcast:
    @pytest.mark.parametrize("backend", CONTAINED)
    def test_outside_cone_sink_is_untouched(self, broadcast_graph,
                                            backend):
        """bcast: k0 feeds mid; k1 -> sink[0], k2 -> sink[1].  Killing
        k1 must cancel only sink[0]; sink[1] still gets every element."""
        o1, o2 = [], []
        result = run_graph(
            broadcast_graph, DATA, o1, o2, backend=backend,
            on_error="isolate",
            faults=KernelFault("doubler_kernel_1", at_resume=1),
            **_opts(backend))
        report = result.failure
        assert report.failing_task == "doubler_kernel_1"
        assert report.cancelled == ("sink[0]",)
        assert report.sink_status["sink[0]"] == "partial"
        assert report.sink_status["sink[1]"] == "complete"
        assert o2 == [4 * x for x in DATA]


class TestIsolateMerge:
    @pytest.mark.parametrize("backend", CONTAINED)
    def test_sink_cancelled_only_when_every_producer_dies(
            self, merge_graph, backend):
        """merge: k0(a) and k1(b) both write sink[0].  Killing k0 leaves
        k1 feeding the sink: partial, but not cancelled."""
        out = []
        result = run_graph(
            merge_graph, DATA, DATA, out, backend=backend,
            on_error="isolate",
            faults=KernelFault("doubler_kernel_0", at_resume=1),
            **_opts(backend))
        report = result.failure
        assert report.failing_task == "doubler_kernel_0"
        assert report.cancelled == ()
        assert report.sink_status == {"sink[0]": "partial"}
        assert sorted(out) == [2 * x for x in DATA]


def _failing_source(n):
    yield from DATA[:n]
    raise ValueError("source boom")


class TestSourceFailure:
    @pytest.mark.parametrize("backend", CONTAINED)
    @pytest.mark.parametrize("policy", ["isolate", "poison"])
    def test_failed_source_takes_out_its_readers(self, fig4_graph,
                                                  backend, policy):
        """A source that raises mid-stream: every task behind it is
        cancelled (isolate) or poisoned (poison), and the sink it feeds
        through them is partial — on both engines alike."""
        result = run_graph(
            fig4_graph, _failing_source(5), [], backend=backend,
            on_error=policy, **_opts(backend))
        report = result.failure
        assert report.failing_task == "source[0]"
        behind = ("doubler_kernel_0", "doubler_kernel_1", "sink[0]")
        if policy == "isolate":
            assert (report.cancelled, report.poisoned) == (behind, ())
        else:
            assert (report.cancelled, report.poisoned) == ((), behind)
        assert report.sink_status == {"sink[0]": "partial"}


class TestPoison:
    @pytest.mark.parametrize("backend", CONTAINED)
    def test_poison_propagates_to_dependents(self, fig4_graph, backend):
        out = []
        result = run_graph(
            fig4_graph, DATA, out, backend=backend, on_error="poison",
            faults=KernelFault("doubler_kernel_0", at_resume=1),
            **_opts(backend))
        report = result.failure
        assert report.policy == "poison"
        assert report.failing_task == "doubler_kernel_0"
        assert report.poisoned == ("doubler_kernel_1", "sink[0]")
        assert report.sink_status == {"sink[0]": "partial"}
        assert out == []

    @pytest.mark.parametrize("backend", CONTAINED)
    def test_poison_lets_buffered_data_drain(self, fig4_graph, backend):
        # Faulting the *second* kernel after it processed some elements:
        # whatever it already emitted stays in the sink.
        out = []
        result = run_graph(
            fig4_graph, DATA, out, backend=backend, on_error="poison",
            capacity=2,
            faults=KernelFault("doubler_kernel_1", at_resume=3),
            **_opts(backend))
        assert result.failure.failing_task == "doubler_kernel_1"
        # Whatever reached the sink is an exact prefix of the fault-free
        # stream — poison truncates, never corrupts.
        assert out == [4 * x for x in DATA[:len(out)]]
        assert len(out) < len(DATA)


class TestPolicyValidation:
    def test_unknown_policy_rejected_cgsim(self, fig4_graph):
        with pytest.raises(GraphRuntimeError, match="on_error"):
            run_graph(fig4_graph, DATA, [], on_error="retry")

    def test_unknown_policy_rejected_x86sim(self, fig4_graph):
        with pytest.raises(GraphRuntimeError, match="on_error"):
            run_graph(fig4_graph, DATA, [], backend="x86sim",
                      on_error="retry")


class TestFusedAttribution:
    @staticmethod
    def _fields(report):
        return (report.failing_task, [f.via for f in report.failures],
                report.cancelled, report.collateral, report.sink_status)

    def test_fused_report_equals_unfused(self, fig4_graph):
        """Under optimize="fuse" each chain member is an ordinary task,
        so a kernel fault is reported exactly as in the unfused run: the
        same failing task, no ``via`` path, the same cancelled cone, no
        collateral and the same sink fates."""
        for kernel in ("doubler_kernel_0", "doubler_kernel_1"):
            for policy in ("isolate", "poison"):
                for at_resume in (0, 1, 2):
                    fault = KernelFault(kernel, at_resume=at_resume)
                    reports = [
                        run_graph(fig4_graph, DATA, [], optimize=level,
                                  capacity=4, on_error=policy,
                                  faults=fault).failure
                        for level in ("none", "fuse")
                    ]
                    assert reports[0] is not None
                    assert self._fields(reports[1]) == \
                        self._fields(reports[0]), (kernel, policy, at_resume)
                    assert reports[1].failing_task == kernel
                    assert reports[1].collateral == ()


class TestTeardownErrors:
    def _graph(self):
        @compute_kernel(realm=AIE)
        async def grumpy_tail(a: In[int32], o: Out[int32]):
            try:
                while True:
                    await o.put(await a.get() * 2)
            except GeneratorExit:
                raise RuntimeError("teardown tantrum")

        @compute_kernel(realm=AIE)
        async def doomed_head(a: In[int32], o: Out[int32]):
            while True:
                await o.put(await a.get() * 2)

        @make_compute_graph(name="grumpy")
        def g(a: IoC[int32]):
            b = IoConnector(int32, name="gb")
            c = IoConnector(int32, name="gc")
            doomed_head(a, b)
            grumpy_tail(b, c)
            return c

        return g

    def test_isolate_collects_teardown_errors(self):
        result = run_graph(
            self._graph(), DATA, [], on_error="isolate",
            faults=KernelFault("doomed_head_0", at_resume=1))
        report = result.failure
        assert report.failing_task == "doomed_head_0"
        tde = report.teardown_errors
        assert any(t.task == "grumpy_tail_0"
                   and "tantrum" in str(t.error) for t in tde)

    def test_fail_policy_does_not_mask_primary_error(self):
        with pytest.raises(GraphRuntimeError, match="doomed_head_0") as ei:
            run_graph(self._graph(), DATA, [],
                      faults=KernelFault("doomed_head_0", at_resume=1))
        tde = getattr(ei.value, "teardown_errors", [])
        assert any("tantrum" in str(err) for _name, err in tde)
