"""Structured failure outcomes: reports, retry policies, attempt records.

These dataclasses are the *result* side of the failure-semantics layer:
when a run executes under ``on_error="isolate"`` or ``"poison"`` and a
kernel fails, the backend returns a :class:`FailureReport` on its run
result instead of raising — naming the failing kernel, the exact
dependent cone that was cancelled, and the completeness of every sink.

:class:`RetryPolicy` drives ``repro.exec.run_graph(retry=...)``: a run
that fails (raises, or returns a failure report) is re-executed from the
original inputs up to ``attempts`` times, with one :class:`AttemptRecord`
per try accumulated on the final ``RunResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TaskFailure",
    "TeardownError",
    "FailureReport",
    "RetryPolicy",
    "AttemptRecord",
]


@dataclass
class TaskFailure:
    """One failed task, attributed to the original kernel instance."""

    task: str                       # kernel/member name the failure belongs to
    error: BaseException
    via: str = ""                   # carrier of the failure (cgsim-mp: its worker)
    injected: bool = False          # raised by a FaultPlan KernelFault

    def describe(self) -> str:
        origin = f" (inside {self.via})" if self.via and self.via != self.task \
            else ""
        tag = "injected " if self.injected else ""
        return (
            f"{self.task}{origin}: {tag}"
            f"{type(self.error).__name__}: {self.error}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; the exception is summarised, not pickled."""
        return {
            "task": self.task,
            "error_type": type(self.error).__name__,
            "error": str(self.error),
            "via": self.via,
            "injected": self.injected,
        }


@dataclass
class TeardownError:
    """A secondary error raised while cancelling a task's coroutine
    (e.g. a kernel intercepting ``GeneratorExit``).  Collected instead
    of masking the primary failure."""

    task: str
    error: BaseException

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task": self.task,
            "error_type": type(self.error).__name__,
            "error": str(self.error),
        }


@dataclass
class FailureReport:
    """What failed, what was contained, and what survived.

    ``sink_status`` maps each graph output (``sink[i]``, or the output's
    net name when known) to ``"complete"`` — every element the fault-free
    dataflow would deliver arrived — or ``"partial"`` — the sink lies in
    the failing kernel's dependent cone and holds a prefix only.
    """

    policy: str                                   # "isolate" | "poison" | "fail"
    failures: List[TaskFailure] = field(default_factory=list)
    cancelled: Tuple[str, ...] = ()               # dependent cone, exact
    collateral: Tuple[str, ...] = ()              # healthy, lost with a worker (cgsim-mp)
    poisoned: Tuple[str, ...] = ()                # tasks terminated by poison
    sink_status: Dict[str, str] = field(default_factory=dict)
    teardown_errors: List[TeardownError] = field(default_factory=list)
    injected_faults: List[Dict[str, Any]] = field(default_factory=list)
    #: Correlation id of the run that produced this report (schema-v2
    #: trace context); stamped by ``run_graph`` / the mp manager.
    run_id: str = ""
    #: Path of the on-fault checkpoint captured when the run failed
    #: with ``checkpoint=`` active ("" otherwise) — the file
    #: ``run_graph(resume_from=...)`` / ``RetryPolicy(resume=True)``
    #: picks up.
    checkpoint_path: str = ""

    @property
    def failing_task(self) -> str:
        """The (first) kernel the failure is attributed to."""
        return self.failures[0].task if self.failures else ""

    def describe(self) -> str:
        lines = [f"failure report (on_error={self.policy!r}):"]
        for f in self.failures:
            lines.append("  failed: " + f.describe())
        if self.cancelled:
            lines.append("  cancelled cone: " + ", ".join(self.cancelled))
        if self.collateral:
            lines.append("  collateral: " + ", ".join(self.collateral))
        if self.poisoned:
            lines.append("  poisoned: " + ", ".join(self.poisoned))
        for sink, status in sorted(self.sink_status.items()):
            lines.append(f"  {sink}: {status}")
        for te in self.teardown_errors:
            lines.append(
                f"  teardown error in {te.task}: "
                f"{type(te.error).__name__}: {te.error}"
            )
        if self.injected_faults:
            lines.append(f"  injected faults: {len(self.injected_faults)}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe dict (the ``repro.serve`` wire form)."""
        out: Dict[str, Any] = {
            "policy": self.policy,
            "failing_task": self.failing_task,
            "failures": [f.to_dict() for f in self.failures],
            "cancelled": list(self.cancelled),
            "collateral": list(self.collateral),
            "poisoned": list(self.poisoned),
            "sink_status": dict(self.sink_status),
            "teardown_errors": [t.to_dict() for t in self.teardown_errors],
            "injected_faults": [dict(f) for f in self.injected_faults],
        }
        if self.run_id:
            out["run_id"] = self.run_id
        if self.checkpoint_path:
            out["checkpoint_path"] = self.checkpoint_path
        return out


@dataclass(frozen=True)
class RetryPolicy:
    """Re-run policy for transient failures (``run_graph(retry=...)``).

    Attributes
    ----------
    attempts:
        Total number of tries, including the first (must be >= 1; zero
        or negative counts raise ``ValueError`` — "never run" is not a
        retry policy, pass ``retry=None`` to disable retrying).
    backoff:
        Sleep in seconds before the first retry; doubles per further
        retry (exponential).  0.0 retries immediately.
    resume:
        When True, retries resume from the last checkpoint the failed
        attempt wrote instead of starting from zero — requires the run
        to also pass ``checkpoint=`` (the default on-fault capture is
        enough).  Fired ``KernelFault`` injections are suppressed on
        the resumed attempt (transient-fault semantics), and the
        resumed prefix is verified bit-identical to the checkpoint.
    """

    attempts: int = 2
    backoff: float = 0.0
    resume: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.attempts, bool) or not isinstance(
                self.attempts, int):
            raise ValueError(
                f"RetryPolicy.attempts must be an int >= 1, "
                f"got {self.attempts!r}"
            )
        if self.attempts < 1:
            raise ValueError(
                f"RetryPolicy.attempts must be >= 1 (the first try "
                f"counts), got {self.attempts}; pass retry=None to "
                f"disable retrying"
            )
        if self.backoff < 0.0:
            raise ValueError(
                f"RetryPolicy.backoff must be >= 0.0, got {self.backoff}"
            )

    def delay_before(self, attempt_index: int) -> float:
        """Seconds to sleep before attempt *attempt_index* (0-based)."""
        if attempt_index <= 0 or self.backoff <= 0.0:
            return 0.0
        return self.backoff * (2.0 ** (attempt_index - 1))


@dataclass
class AttemptRecord:
    """Outcome of one run attempt under a :class:`RetryPolicy`."""

    index: int                                    # 0-based attempt number
    outcome: str                                  # "ok" | "failed" | "raised"
    error: Optional[BaseException] = None
    failing_task: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "outcome": self.outcome,
            "error_type": type(self.error).__name__ if self.error else None,
            "error": str(self.error) if self.error is not None else None,
            "failing_task": self.failing_task,
        }
