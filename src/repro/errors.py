"""Exception hierarchy for the cgsim-py framework.

All framework errors derive from :class:`CgsimError`, split along the two
phases of the paper's model: *build-time* errors (the analog of the C++
``constexpr``/compile-time diagnostics in cgsim §3.4) and *runtime* errors
raised while a :class:`~repro.core.runtime.RuntimeContext` is executing a
graph.  The extractor and the hardware simulators add their own branches.
"""

from __future__ import annotations


class CgsimError(Exception):
    """Base class for every error raised by the framework."""


# ---------------------------------------------------------------------------
# Build ("compile") time
# ---------------------------------------------------------------------------


class GraphBuildError(CgsimError):
    """Error detected while constructing a compute graph.

    This is the Python analog of a C++ compile-time error produced during
    ``constexpr`` graph construction (paper §3.4): incompatible port
    settings, dangling connectors, type mismatches, and malformed builder
    functions all surface here, *before* any data flows.
    """


class PortSettingsError(GraphBuildError):
    """Two ports connected via an IoConnector have incompatible settings.

    The paper generates a compile-time error when merged port
    configurations conflict (§3.4); this is that error.
    """


class PortTypeError(GraphBuildError):
    """Stream data type mismatch between connected endpoints."""


class AttributeValueError(GraphBuildError):
    """A connection attribute has a non-string/non-integer value (§3.4)."""


class BuildContextError(GraphBuildError):
    """Graph-construction API used outside an active build context."""


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class SerializationError(CgsimError):
    """The flattened (array-based) graph form is malformed or cannot be
    reconstructed, e.g. an unknown kernel registry key (§3.5)."""


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


class GraphRuntimeError(CgsimError):
    """Error raised while executing an instantiated compute graph."""


class DeadlockError(GraphRuntimeError):
    """No coroutine can continue but unconsumed work remains.

    Raised (optionally — see the ``strict`` run option) when the
    scheduler stops with kernels blocked on *writes*, which indicates the
    graph stalled rather than ran out of input.

    ``report`` carries the run's :class:`~repro.core.result.RunResult`
    when one exists;
    ``deadlock`` carries the structured wait-for-graph analysis
    (:class:`repro.faults.DeadlockReport`) naming the exact cycle.
    """

    def __init__(self, message: str, report=None, deadlock=None):
        super().__init__(message)
        self.report = report
        self.deadlock = deadlock


class PoisonSignal(GraphRuntimeError):
    """A task consumed *poison*: an upstream kernel failed under the
    ``on_error="poison"`` policy and its output streams were marked so
    dependents terminate at the exact point the data ends (§ fault
    semantics, docs/FAULTS.md).  Raised out of the port ops on the
    blocking slow path only — a stream delivers all buffered data
    before the poison is observed."""

    def __init__(self, queue: str = "", origin: str = ""):
        msg = f"stream {queue!r} poisoned"
        if origin:
            msg += f" by failure of {origin!r}"
        super().__init__(msg)
        self.queue = queue
        self.origin = origin


class InjectedFaultError(GraphRuntimeError):
    """The deterministic fault raised by a ``KernelFault`` injection
    (:mod:`repro.faults`).  Distinguishable from organic kernel errors
    so tests and retry policies can target injected failures."""


class FaultPlanError(GraphRuntimeError):
    """A :class:`repro.faults.FaultPlan` references a kernel, net, or
    input that the target graph does not have, or targets a net that no
    queue carries under the active optimize plan."""


class CheckpointError(GraphRuntimeError):
    """A run checkpoint could not be captured, written, or loaded —
    covers unwritable directories, truncated/corrupt files (checksum
    mismatch), and unsupported schema versions (:mod:`repro.checkpoint`)."""


class CheckpointDivergence(CheckpointError):
    """A resumed run did not reproduce the checkpointed prefix
    bit-identically.  Deterministic re-execution is the resume
    contract; divergence means the graph, its inputs, or a
    non-suppressed fault changed between the original run and the
    resume."""


class StreamTypeError(GraphRuntimeError):
    """A value pushed through a stream does not match the stream's type."""


class IoBindingError(GraphRuntimeError):
    """The positional sources/sinks passed when invoking a graph do not
    match the graph's global inputs and outputs (§3.7)."""


# ---------------------------------------------------------------------------
# Extractor
# ---------------------------------------------------------------------------


class ExtractionError(CgsimError):
    """The graph extractor could not ingest or transform a source module."""


class KernelSourceError(ExtractionError):
    """A kernel's source text could not be recovered or rewritten."""


class CoExtractionError(ExtractionError):
    """Transitive dependency co-extraction failed (§4.6)."""


class CodegenError(ExtractionError):
    """A realm backend failed to generate code for a kernel or graph."""


class UnsupportedConstructError(CodegenError):
    """The kernel body uses a Python construct outside the restricted
    subset that the C++ kernel transpiler accepts."""

    def __init__(self, message: str, lineno: int | None = None):
        super().__init__(message)
        self.lineno = lineno


# ---------------------------------------------------------------------------
# Hardware simulators
# ---------------------------------------------------------------------------


class SimulationError(CgsimError):
    """Base class for errors in the aiesim / x86sim substrates."""


class SimDeadlockError(DeadlockError, SimulationError):
    """A thread-per-kernel (x86sim) run stalled: every blocking wait is
    bounded, and a timeout with peers still unfinished is the preemptive
    engine's deadlock signal.  Subclasses both :class:`DeadlockError`
    (so all backends raise one exception type on stalls, with the same
    structured wait-for diagnosis) and :class:`SimulationError` (the
    historical x86sim stall type)."""


class PlacementError(SimulationError):
    """The placer could not map all kernels onto the AIE tile array."""


class RoutingError(SimulationError):
    """The stream-switch router could not realise a net."""


class TimingModelError(SimulationError):
    """The VLIW timing model was asked to cost an unknown micro-op."""
