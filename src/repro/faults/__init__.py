"""Deterministic fault injection and structured failure semantics.

This package is the robustness layer of the framework (ROADMAP: trusted
execution under failure).  It has three faces:

* **Injection** (:mod:`repro.faults.plan`, :mod:`repro.faults.injectors`):
  a seeded :class:`FaultPlan` describes faults to inject into a run —
  raise inside a named kernel at its Nth resume, corrupt/drop stream
  elements on a named net, freeze a queue (backpressure storm), or
  soft-stall a source.  Plans are honored by every execution backend
  through the ``faults=`` run option, and every triggered injection is
  emitted as a ``fault.inject`` event on the ``repro.observe`` trace.

* **Containment** (:mod:`repro.faults.cone`, :mod:`repro.faults.report`
  + each backend's ``on_error=`` policy): instead of tearing the whole
  run down, a
  failing kernel can be *isolated* (its dependent cone cancelled, the
  rest of the graph drains normally) or *poison* its output streams
  (dependents terminate at the exact element where the data ends).  The
  outcome is a :class:`FailureReport` on the returned result rather
  than an exception.

* **Diagnosis** (:mod:`repro.faults.waitfor`): when a run stalls, the
  task→queue→peer wait-for graph is built from the parked tasks and its
  cycles are reported exactly (:class:`DeadlockReport`), replacing
  stall guesswork on every backend.

See ``docs/FAULTS.md`` for the full semantics.
"""

from .cone import dependent_cone
from .plan import (
    FaultPlan,
    FaultSession,
    KernelFault,
    NetCorrupt,
    NetDrop,
    QueueFreeze,
    SourceDelay,
)
from .report import (
    AttemptRecord,
    FailureReport,
    RetryPolicy,
    TaskFailure,
    TeardownError,
)
from .waitfor import DeadlockReport, Waiter, analyze_waiters

__all__ = [
    "FaultPlan",
    "FaultSession",
    "KernelFault",
    "NetCorrupt",
    "NetDrop",
    "QueueFreeze",
    "SourceDelay",
    "FailureReport",
    "TaskFailure",
    "TeardownError",
    "RetryPolicy",
    "AttemptRecord",
    "DeadlockReport",
    "Waiter",
    "analyze_waiters",
    "dependent_cone",
]
