"""``retry=`` option coercion: the full int/bool/None/RetryPolicy grid.

A nonsensical attempt count must raise a clear ``ValueError`` at call
time — the old behavior (silently disabling retry for ``retry=0``)
turned a typo into a policy change.
"""

import pytest

from repro.apps import datasets, iir
from repro.errors import GraphRuntimeError
from repro.exec import run_graph
from repro.exec.spec import coerce_retry
from repro.faults import RetryPolicy

_SRC = datasets.iir_blocks(1)


class TestCoerceRetry:
    def test_none_disables(self):
        assert coerce_retry(None) is None

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_positive_int_becomes_policy(self, n):
        policy = coerce_retry(n)
        if n == 1:
            assert policy is None       # one attempt == no retry
        else:
            assert isinstance(policy, RetryPolicy)
            assert policy.attempts == n

    @pytest.mark.parametrize("n", [0, -1, -100])
    def test_nonpositive_int_raises_value_error(self, n):
        with pytest.raises(ValueError, match=">= 1"):
            coerce_retry(n)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected_distinctly(self, flag):
        # bool is an int subclass; it must NOT silently coerce.
        with pytest.raises(GraphRuntimeError, match="bool"):
            coerce_retry(flag)

    def test_policy_passes_through(self):
        policy = RetryPolicy(attempts=3, backoff=0.5, resume=True)
        got = coerce_retry(policy)
        assert got is policy

    def test_single_attempt_policy_normalizes_to_none(self):
        assert coerce_retry(RetryPolicy(attempts=1)) is None

    def test_policy_rejects_nonpositive_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-2)


class TestRunGraphSurface:
    """The same contract through the public run_graph entry point."""

    def test_retry_zero_raises_before_running(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_graph(iir.IIR_GRAPH, _SRC, [], backend="cgsim", retry=0)

    def test_retry_negative_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_graph(iir.IIR_GRAPH, _SRC, [], backend="cgsim", retry=-3)

    def test_retry_bool_raises(self):
        with pytest.raises(GraphRuntimeError, match="bool"):
            run_graph(iir.IIR_GRAPH, _SRC, [], backend="cgsim", retry=True)

    def test_retry_one_runs_without_policy(self):
        sink = []
        result = run_graph(iir.IIR_GRAPH, _SRC, sink, backend="cgsim",
                           retry=1)
        assert result.completed
        assert len(sink) == 1
