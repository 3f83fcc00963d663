"""``RetryPolicy(resume=True)``: retries continue from the checkpoint.

A transient injected fault under an on-fault checkpoint policy must be
survivable: the retry restores the failed attempt's checkpoint,
suppresses the already-fired one-shot fault, and delivers sinks
bit-identical to the fault-free run — for both the contained
(``on_error="isolate"``) and the raised (``on_error="fail"``) paths.
"""

import numpy as np
import pytest

from repro.apps import datasets, iir
from repro.checkpoint import Checkpoint
from repro.errors import GraphRuntimeError
from repro.exec import run_graph
from repro.faults import KernelFault, RetryPolicy

_SRC = datasets.iir_blocks(2)
_FAULT = KernelFault(kernel="iir_sos_kernel_0", at_resume=1)


@pytest.fixture(scope="module")
def baseline():
    sink = []
    result = run_graph(iir.IIR_GRAPH, _SRC, sink, backend="cgsim")
    assert result.completed
    return sink


def _assert_bit_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(np.asarray(g), np.asarray(w))


class TestRetryResume:
    def test_contained_failure_resumes(self, baseline, tmp_path):
        sink = []
        result = run_graph(
            iir.IIR_GRAPH, _SRC, sink, backend="cgsim",
            checkpoint=str(tmp_path), on_error="isolate",
            faults=_FAULT, retry=RetryPolicy(attempts=3, resume=True),
        )
        assert result.completed
        assert [a.outcome for a in result.attempts] == ["failed", "ok"]
        assert result.resumed_from
        assert result.suppressed_faults == ["iir_sos_kernel_0"]
        _assert_bit_identical(sink, baseline)

    def test_raised_failure_resumes(self, baseline, tmp_path):
        sink = []
        result = run_graph(
            iir.IIR_GRAPH, _SRC, sink, backend="cgsim",
            checkpoint=str(tmp_path), on_error="fail",
            faults=_FAULT, retry=RetryPolicy(attempts=3, resume=True),
        )
        assert result.completed
        assert [a.outcome for a in result.attempts] == ["raised", "ok"]
        assert result.resumed_from
        _assert_bit_identical(sink, baseline)

    def test_result_json_carries_resume_fields(self, tmp_path):
        sink = []
        result = run_graph(
            iir.IIR_GRAPH, _SRC, sink, backend="cgsim",
            checkpoint={"dir": str(tmp_path), "at_end": True},
            on_error="isolate",
            faults=_FAULT, retry=RetryPolicy(attempts=3, resume=True),
        )
        doc = result.to_json()
        assert doc["resumed_from"] == result.resumed_from
        assert doc["suppressed_faults"] == ["iir_sos_kernel_0"]
        assert doc["checkpoint"]["count"] >= 1
        assert doc["checkpoint"]["reason"] == "final"

    def test_resumed_attempt_keeps_the_checkpoint_it_resumed_from(
            self, tmp_path):
        # Both attempts share one run id; the second continues the
        # sequence instead of overwriting the on-fault capture.
        result = run_graph(
            iir.IIR_GRAPH, _SRC, [], backend="cgsim",
            checkpoint={"dir": str(tmp_path), "at_end": True,
                        "on_fault": True},
            on_error="isolate",
            faults=_FAULT, retry=RetryPolicy(attempts=2, resume=True),
        )
        assert result.completed
        assert len(list(tmp_path.iterdir())) == 2
        assert Checkpoint.load(result.resumed_from).reason == "on_fault"
        assert result.checkpoint.last != result.resumed_from
        assert result.checkpoint.count == 1
        assert Checkpoint.load(result.checkpoint.last).seq == 1

    def test_explicit_resume_from_plus_retry(self, baseline, tmp_path):
        # Seed run fails and leaves an on-fault checkpoint...
        result = run_graph(
            iir.IIR_GRAPH, _SRC, [], backend="cgsim",
            checkpoint=str(tmp_path), on_error="isolate", faults=_FAULT,
        )
        assert not result.completed
        path = result.failure.checkpoint_path
        assert path
        # ...which a fresh invocation resumes explicitly.
        sink = []
        result = run_graph(iir.IIR_GRAPH, _SRC, sink, backend="cgsim",
                           resume_from=path)
        assert result.completed
        _assert_bit_identical(sink, baseline)


class TestResumeGuards:
    def test_resume_without_checkpoint_source_rejected(self):
        with pytest.raises(GraphRuntimeError, match="resume"):
            run_graph(iir.IIR_GRAPH, _SRC, [], backend="cgsim",
                      retry=RetryPolicy(attempts=2, resume=True))
