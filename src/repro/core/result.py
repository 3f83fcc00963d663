"""The one outcome type of every engine: :class:`RunResult`.

The cooperative runtime (:class:`~repro.core.runtime.RuntimeContext`),
the thread-per-kernel runner (:func:`~repro.x86sim.runner.execute_plan`)
and the sharded manager (:func:`~repro.mp.manager.run_sharded`) each
build one directly; :mod:`repro.exec` re-exports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["RunResult", "kernel_fraction", "summarize_sink"]


def kernel_fraction(task_time: float, wall: float, profiled: bool) -> float:
    """Task CPU time over scheduler wall time, the §5.2 metric (cgsim:
    99.94% for bitonic).

    *wall* is the scheduler wall (the summed worker walls on cgsim-mp).
    NaN unless the run was profiled *and* the wall is strictly positive:
    an unprofiled run measures no task time, which would otherwise read
    as 0% kernel.
    """
    if not profiled or not wall > 0.0:
        return float("nan")
    return min(task_time / wall, 1.0)


def summarize_sink(container: Any) -> Dict[str, Any]:
    """Shape-summarize one sink container into a tiny JSON-safe dict.

    Lists report their length and a description of the first element;
    ndarrays report dtype and shape; RTP boxes report their (scalar)
    value.  The data itself never crosses — summaries are O(1).
    """
    import numpy as np

    from .sources_sinks import RuntimeParam

    if isinstance(container, RuntimeParam):
        value = container.value
        if isinstance(value, np.generic):
            value = value.item()
        if not isinstance(value, (int, float, str, bool, type(None))):
            value = repr(value)
        return {"kind": "rtp", "value": value}
    if isinstance(container, np.ndarray):
        return {"kind": "ndarray", "dtype": str(container.dtype),
                "shape": list(container.shape)}
    if isinstance(container, list):
        d: Dict[str, Any] = {"kind": "list", "len": len(container)}
        if container:
            first = container[0]
            if isinstance(first, np.ndarray):
                d["element"] = {"kind": "ndarray",
                                "dtype": str(first.dtype),
                                "shape": list(first.shape)}
            else:
                d["element"] = {"kind": type(first).__name__}
        return d
    return {"kind": type(container).__name__}


@dataclass
class RunResult:
    """Backend-independent outcome of one graph execution.

    Every engine returns one (see ``docs/EXEC_BACKENDS.md``, "Engine
    contract").  ``outputs`` aliases the caller's sink containers in
    global-output order; ``raw`` holds only engine-native detail with no
    backend-independent field: the
    :class:`~repro.core.scheduler.SchedulerStats` on cgsim/pysim, the
    :class:`~repro.mp.manager.ShardRun` (placement and per-worker walls)
    on cgsim-mp, ``None`` on x86sim.
    """

    backend: str
    graph_name: str
    outputs: List[Any]
    wall_time: float
    items_in: int
    items_out: int
    completed: bool
    #: Correlation id of this run (minted by ``ExecutionBackend.run``, or
    #: accepted from the caller / an inbound serve header); stamped on
    #: every schema-2 trace event and any :class:`FailureReport`.
    run_id: str = ""
    context_switches: int = 0        # cooperative engines; 0 for threads
    n_threads: int = 1               # preemptive engines; 1 for cgsim
    kernel_fraction: float = float("nan")  # populated when profiled
    task_states: Dict[str, str] = field(default_factory=dict)
    per_kernel_resumes: Dict[str, int] = field(default_factory=dict)
    per_kernel_time: Dict[str, float] = field(default_factory=dict)
    per_kernel_blocked: Dict[str, float] = field(default_factory=dict)
    stall_diagnosis: str = ""
    #: :class:`repro.observe.TraceMetrics` when the run was traced.
    metrics: Any = None
    #: The :class:`repro.observe.Tracer` used for the run (its ``events``
    #: property exposes retained events for in-memory sinks).
    trace: Any = None
    #: :class:`repro.faults.FailureReport` when a kernel failed under
    #: ``on_error="isolate"``/``"poison"`` and the run returned contained
    #: instead of raising; ``None`` for clean runs.
    failure: Any = None
    #: :class:`repro.faults.DeadlockReport` (wait-for-graph analysis)
    #: when the run stalled — names the exact task cycle if one exists.
    deadlock: Any = None
    #: One :class:`repro.faults.AttemptRecord` per try when the run went
    #: through ``run_graph(retry=...)``; empty without a retry policy.
    attempts: List[Any] = field(default_factory=list)
    #: :class:`repro.observe.ProfileReport` when the run was sampled
    #: (``profile="sample"``); merged across workers for cgsim-mp.
    profile: Any = None
    #: Path of the written collapsed-stack flamegraph, when the sampler
    #: was configured with an output location.
    profile_path: str = ""
    #: :class:`repro.checkpoint.CheckpointInfo` when the run captured
    #: checkpoints (the ``checkpoint=`` option); ``None`` otherwise.
    checkpoint: Any = None
    #: Path of the checkpoint this run was restored from
    #: (``resume_from=`` or a ``RetryPolicy(resume=True)`` retry);
    #: empty for from-scratch runs.
    resumed_from: str = ""
    #: Fault injections dropped on resume because the checkpoint records
    #: them as already fired (transient-fault semantics); ``repr`` strings.
    suppressed_faults: List[str] = field(default_factory=list)
    #: Non-fatal run notes, e.g. the watchdog's no-progress windows.
    warnings: List[str] = field(default_factory=list)
    raw: Any = None

    @property
    def deadlocked(self) -> bool:
        return not self.completed and self.failure is None

    @property
    def status(self) -> str:
        """``"ok"`` | ``"failed"`` (contained failure) | ``"stalled"``."""
        if self.completed:
            return "ok"
        return "failed" if self.failure is not None else "stalled"

    def summary(self) -> Dict[str, Any]:
        """Compact JSON-safe overview of the run.

        Sink containers are *shape-summarized* (see
        :func:`summarize_sink`), never embedded — the dict stays small
        no matter how much data the run moved.  The full per-kernel
        breakdown lives on :meth:`to_json`.
        """
        return {
            "backend": self.backend,
            "graph": self.graph_name,
            "run_id": self.run_id,
            "status": self.status,
            "completed": self.completed,
            "wall_time_s": self.wall_time,
            "items_in": self.items_in,
            "items_out": self.items_out,
            "sinks": [summarize_sink(s) for s in self.outputs],
            "failure": self.failure.to_dict()
            if self.failure is not None else None,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    def to_json(self) -> Dict[str, Any]:
        """Stable JSON-safe dict of the full result surface.

        Everything :mod:`json` can serialize directly: NaN kernel
        fractions become ``None``, exceptions become
        ``{error_type, error}`` summaries, sinks are shape-summarized.
        The engine-native ``raw`` detail, the live tracer, and the sink
        containers themselves are deliberately not included — this is
        the ``repro.serve`` wire format, useful standalone for logging
        and archival.
        """
        d = self.summary()
        d.update({
            "context_switches": self.context_switches,
            "n_threads": self.n_threads,
            "kernel_fraction": None
            if math.isnan(self.kernel_fraction) else self.kernel_fraction,
            "task_states": dict(self.task_states),
            "per_kernel_resumes": dict(self.per_kernel_resumes),
            "per_kernel_time": dict(self.per_kernel_time),
            "per_kernel_blocked": dict(self.per_kernel_blocked),
            "stall_diagnosis": self.stall_diagnosis,
            "deadlock": self.deadlock.to_dict()
            if self.deadlock is not None else None,
        })
        if self.profile is not None:
            d["profile"] = self.profile.to_dict()
        if self.profile_path:
            d["profile_path"] = self.profile_path
        if self.checkpoint is not None:
            d["checkpoint"] = self.checkpoint.to_dict()
        if self.resumed_from:
            d["resumed_from"] = self.resumed_from
        if self.suppressed_faults:
            d["suppressed_faults"] = list(self.suppressed_faults)
        if self.warnings:
            d["warnings"] = list(self.warnings)
        return d

    def __repr__(self):
        status = "ok" if self.completed else (
            "FAILED" if self.failure is not None else "STALLED"
        )
        return (
            f"<RunResult {self.backend}:{self.graph_name!r} {status} "
            f"in={self.items_in} out={self.items_out} "
            f"t={self.wall_time:.3f}s>"
        )
