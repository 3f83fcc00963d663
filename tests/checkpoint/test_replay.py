"""Deterministic replay from an observe event stream.

The chaos-suite triage contract: a failed seeded run's trace alone is
enough to (a) rebuild the same FailureReport with **no execution and no
live fault re-injection** (:func:`reconstruct_failure`), and (b)
re-execute the run with the recorded faults pinned in place for
bit-identical sinks and the same failing kernel (:func:`replay_run`).
"""

import numpy as np
import pytest

from repro.apps import bilinear, datasets, farrow, iir
from repro.checkpoint import plan_from_events, reconstruct_failure, replay_run
from repro.exec import resolve_graph, run_graph
from repro.faults import FaultPlan, KernelFault
from repro.observe.sinks import read_jsonl

_IIR_SRC = datasets.iir_blocks(2)
_PX, _FR = datasets.bilinear_blocks(2)


def _failed_trace(tmp_path):
    """One seeded chaos-style failure with a JSONL trace on disk."""
    path = tmp_path / "events.jsonl"
    result = run_graph(
        iir.IIR_GRAPH, _IIR_SRC, [], backend="cgsim",
        observe=str(path), on_error="isolate",
        faults=KernelFault(kernel="iir_sos_kernel_0", at_resume=1),
    )
    assert not result.completed
    return result, read_jsonl(path)


class TestReconstruct:
    def test_failure_report_rebuilt_without_execution(self, tmp_path):
        result, events = _failed_trace(tmp_path)
        live = result.failure
        rebuilt = reconstruct_failure(events, iir.IIR_GRAPH)
        assert rebuilt is not None
        assert rebuilt.failing_task == live.failing_task
        assert set(rebuilt.cancelled) == set(live.cancelled)
        assert rebuilt.sink_status == dict(live.sink_status)
        assert rebuilt.failures[0].injected
        assert rebuilt.policy == "replay"

    def test_merge_sink_follows_all_producers_rule(self, tmp_path,
                                                   merge_graph):
        """A sink fed by two kernels is cancelled only when both die:
        the rebuilt report must not cancel it when one survives."""
        path = tmp_path / "merge.jsonl"
        data = list(range(10))
        result = run_graph(
            merge_graph, data, data, [], backend="cgsim",
            observe=str(path), on_error="isolate",
            faults=KernelFault("doubler_kernel_0", at_resume=1),
        )
        live = result.failure
        rebuilt = reconstruct_failure(read_jsonl(path), merge_graph)
        assert live.cancelled == ()
        assert rebuilt.cancelled == live.cancelled
        assert rebuilt.sink_status == live.sink_status == {
            "sink[0]": "partial"}

    def test_substituted_chain_member_seeds_its_instances(self):
        """A fused farrow run fails under the substituted member's
        joined task name; the rebuilt cone starts from the instances
        that member stands for, as the live one does."""
        blocks, mu = datasets.farrow_blocks(2)
        result = run_graph(
            farrow.FARROW_GRAPH, blocks, int(mu), [], backend="cgsim",
            optimize="fuse", on_error="isolate", observe=True,
            faults=KernelFault("farrow_stage1_0", at_resume=0),
        )
        live = result.failure
        assert live.failing_task == "farrow_stage1_0+farrow_stage2_0"
        rebuilt = reconstruct_failure(result.trace.events,
                                      farrow.FARROW_GRAPH)
        assert rebuilt.failing_task == live.failing_task
        assert rebuilt.cancelled == live.cancelled == ("sink[0]",)
        assert rebuilt.sink_status == live.sink_status == {
            "sink[0]": "partial"}

    def test_clean_trace_reconstructs_to_none(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        result = run_graph(iir.IIR_GRAPH, _IIR_SRC, [], backend="cgsim",
                           observe=str(path))
        assert result.completed
        assert reconstruct_failure(read_jsonl(path), iir.IIR_GRAPH) is None


class TestReplay:
    def test_replay_reproduces_failure_and_sinks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        orig_sink = []
        orig = run_graph(
            iir.IIR_GRAPH, _IIR_SRC, orig_sink, backend="cgsim",
            observe=str(path), on_error="isolate",
            faults=KernelFault(kernel="iir_sos_kernel_0", at_resume=1),
        )
        assert not orig.completed
        replay_sink = []
        replayed = replay_run(iir.IIR_GRAPH, _IIR_SRC, replay_sink,
                              events=read_jsonl(path))
        assert not replayed.completed
        assert replayed.failure.failing_task == orig.failure.failing_task
        assert replayed.failure.cancelled == orig.failure.cancelled
        assert len(replay_sink) == len(orig_sink)
        for g, w in zip(replay_sink, orig_sink):
            assert np.array_equal(np.asarray(g), np.asarray(w))

    def test_replay_of_seeded_chaos_plan(self, tmp_path):
        """A FaultPlan.random failure replays from its trace alone."""
        graph = resolve_graph(bilinear.BILINEAR_GRAPH)
        src = (_PX.reshape(-1), _FR.reshape(-1))
        for seed in (11, 23, 37):
            plan = FaultPlan.random(graph, seed=seed, n=1,
                                    kinds=("kernel",))
            path = tmp_path / f"seed{seed}.jsonl"
            orig_sink = []
            orig = run_graph(bilinear.BILINEAR_GRAPH, *src, orig_sink,
                             backend="cgsim", observe=str(path),
                             on_error="isolate", faults=plan, strict=False)
            if orig.failure is None:
                continue        # injection window never opened
            replay_sink = []
            replayed = replay_run(bilinear.BILINEAR_GRAPH, *src,
                                  replay_sink, events=read_jsonl(path),
                                  strict=False)
            assert replayed.failure is not None
            assert replayed.failure.failing_task == orig.failure.failing_task
            assert [np.asarray(x).tobytes() for x in replay_sink] == \
                   [np.asarray(x).tobytes() for x in orig_sink]
            return
        pytest.skip("no seed produced a failure at this scale")

    def test_clean_trace_replays_clean(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        base = []
        run_graph(iir.IIR_GRAPH, _IIR_SRC, base, backend="cgsim",
                  observe=str(path))
        events = read_jsonl(path)
        assert plan_from_events(events) is None
        sink = []
        replayed = replay_run(iir.IIR_GRAPH, _IIR_SRC, sink, events=events)
        assert replayed.completed
        assert len(sink) == len(base)
