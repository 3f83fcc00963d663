"""Execution-backend protocol, registry, and unified entry point.

One graph IR, many interchangeable execution targets: a backend turns a
compute graph plus positional I/O bindings into an
:class:`ExecutionPlan` (``prepare``), then drives that plan to
completion (``run``) and reports uniform :class:`RunResult` statistics.
Callers select engines by *name* through :func:`run_graph` instead of
hand-wiring ``RuntimeContext`` / ``run_threaded`` / generated-module
glue::

    from repro.exec import run_graph

    out: list = []
    result = run_graph(graph, data, out, backend="x86sim")
    assert result.completed

Registered backends (see :mod:`repro.exec.backends`): ``"cgsim"`` (the
cooperative single-thread runtime, paper §3.6–3.8), ``"pysim"`` (the
extractor's serialize → JSON → deserialize round trip on that runtime),
``"x86sim"`` (thread per kernel, §5.2) and ``"cgsim-mp"`` (sharded
multi-process).  Which run options each honours, ignores or rejects is
one table, :mod:`repro.exec.spec`; ``python -m repro.exec
list-backends`` prints it.

New engines (sharded, multi-process, remote) plug in via
:func:`register_backend` without forking any call site.
"""

from __future__ import annotations

import abc
import math
import threading
import uuid
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..errors import GraphRuntimeError
from .spec import RunSpec, bind_options
from .spec import coerce_retry as _coerce_retry  # noqa: F401 - re-export

__all__ = [
    "RunResult",
    "ExecutionPlan",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_graph",
    "clear_resolve_cache",
    "run_graph",
    "summarize_sink",
]


def summarize_sink(container: Any) -> Dict[str, Any]:
    """Shape-summarize one sink container into a tiny JSON-safe dict.

    Lists report their length and a description of the first element;
    ndarrays report dtype and shape; RTP boxes report their (scalar)
    value.  The data itself never crosses — summaries are O(1).
    """
    import numpy as np

    from ..core.sources_sinks import RuntimeParam

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


# ---------------------------------------------------------------------------
# Uniform result type
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Backend-independent outcome of one graph execution.

    ``outputs`` aliases the caller's sink containers in global-output
    order; ``raw`` keeps the backend-native report
    (:class:`~repro.core.runtime.RunReport`,
    :class:`~repro.x86sim.runner.X86RunReport`, …) for engine-specific
    inspection.
    """

    backend: str
    graph_name: str
    outputs: List[Any]
    wall_time: float
    items_in: int
    items_out: int
    completed: bool
    #: Correlation id of this run (minted by :func:`run_graph`, or
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
        The backend-native ``raw`` report, the live tracer, and the sink
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


@dataclass
class ExecutionPlan:
    """A prepared, single-use execution: graph instantiated and I/O
    bound, awaiting :meth:`ExecutionBackend.run`.  ``state`` is the
    backend-private instantiation (a wired RuntimeContext, a thread set,
    …)."""

    backend: str
    graph: Any                  # the resolved ComputeGraph
    io: Tuple[Any, ...]         # positional sources + sinks as passed
    state: Any = None
    spec: Optional[RunSpec] = None   # the bound run options
    _consumed: bool = False


# ---------------------------------------------------------------------------
# Backend protocol and registry
# ---------------------------------------------------------------------------


class ExecutionBackend(abc.ABC):
    """One execution engine behind the unified entry point.

    Subclasses set :attr:`name`, have a column in the run-option table
    (:mod:`repro.exec.spec`) and implement
    :meth:`prepare_spec` and :meth:`run`; instances are stateless.
    """

    #: Registry key; class attribute set by each backend.
    name: str = ""

    def prepare(self, graph: Any, io: Tuple[Any, ...],
                **options: Any) -> ExecutionPlan:
        """Instantiate *graph* and bind the positional I/O containers
        (sources first, then sinks, §3.7); the options are bound through
        the run-option table first, before any engine state exists."""
        return self.prepare_spec(
            graph, io, bind_options(self.name, options, engine=True))

    @abc.abstractmethod
    def prepare_spec(self, graph: Any, io: Tuple[Any, ...],
                     spec: RunSpec) -> ExecutionPlan:
        """:meth:`prepare` with the options already bound (what
        :func:`run_graph` calls); reads every option from *spec*."""

    @abc.abstractmethod
    def run(self, plan: ExecutionPlan, *, profile: bool = False) -> RunResult:
        """Drive a prepared plan to completion and collect stats.

        ``profile=True`` requests per-kernel timing where the engine
        supports it (cgsim-family backends)."""

    # -- shared plumbing ---------------------------------------------------

    def _claim(self, plan: ExecutionPlan) -> None:
        """Plans are single-use: I/O bindings and coroutine/thread state
        cannot be rewound."""
        if plan.backend != self.name:
            raise GraphRuntimeError(
                f"plan prepared by backend {plan.backend!r} passed to "
                f"{self.name!r}"
            )
        if plan._consumed:
            raise GraphRuntimeError(
                f"execution plan for {plan.graph.name!r} already ran; "
                f"prepare a fresh plan per run"
            )
        plan._consumed = True


_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Class decorator: add an :class:`ExecutionBackend` subclass to the
    registry under its ``name``.  Re-registration under the same name
    replaces the entry (test doubles, engine shims)."""
    if not getattr(cls, "name", ""):
        raise GraphRuntimeError(
            f"backend class {cls.__name__} declares no name"
        )
    _REGISTRY[cls.name] = cls
    return cls


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate the registered backend *name*; raises with the list
    of known engines on a miss."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise GraphRuntimeError(
            f"unknown execution backend {name!r}; registered: "
            f"{', '.join(available_backends()) or '(none)'}"
        ) from None
    return cls()


def available_backends() -> List[str]:
    """Sorted names of every registered execution backend."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Graph normalization and the unified entry point
# ---------------------------------------------------------------------------


# SerializedGraph -> (kernel registry epoch at resolve time, ComputeGraph).
# Deserialization walks every kernel instance and net; graphs re-run in a
# reps loop (benchmarks, differential tests) pay it once instead of per
# run.  Weak keys: dropping the carrier drops the cached IR.  The lock
# covers the memo's read-check-write races under concurrent run_graph
# (the repro.serve worker pool); deserialization itself runs outside it.
_RESOLVE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_RESOLVE_LOCK = threading.Lock()


def resolve_graph(graph: Any):
    """Normalize any graph carrier to the pointer-based ComputeGraph IR.

    Accepts a :class:`~repro.core.builder.CompiledGraph`, a
    :class:`~repro.core.serialize.SerializedGraph`, or an already
    deserialized :class:`~repro.core.graph.ComputeGraph`.

    ``SerializedGraph`` deserialization is memoized per carrier object,
    invalidated when the kernel registry changes (a re-registered kernel
    must not resurrect instances bound to its old definition).  Use
    :func:`clear_resolve_cache` to drop the memo explicitly.
    """
    from ..core.builder import CompiledGraph
    from ..core.graph import ComputeGraph
    from ..core.kernel import kernel_registry_epoch
    from ..core.serialize import SerializedGraph

    if isinstance(graph, CompiledGraph):
        return graph.graph
    if isinstance(graph, SerializedGraph):
        epoch = kernel_registry_epoch()
        with _RESOLVE_LOCK:
            cached = _RESOLVE_CACHE.get(graph)
            if cached is not None and cached[0] == epoch:
                return cached[1]
        resolved = graph.deserialize()
        with _RESOLVE_LOCK:
            # Two threads may race the deserialization; keep whichever
            # landed first so every caller shares one IR object.
            cached = _RESOLVE_CACHE.get(graph)
            if cached is not None and cached[0] == epoch:
                return cached[1]
            _RESOLVE_CACHE[graph] = (epoch, resolved)
        return resolved
    if isinstance(graph, ComputeGraph):
        return graph
    raise GraphRuntimeError(
        f"cannot execute object of type {type(graph).__name__}; expected "
        f"CompiledGraph, SerializedGraph, or ComputeGraph"
    )


def clear_resolve_cache() -> None:
    """Drop every memoized deserialization (testing/invalidation hook)."""
    with _RESOLVE_LOCK:
        _RESOLVE_CACHE.clear()


def _check_replayable(sources) -> None:
    """Retrying re-binds the original inputs; a bare iterator was
    consumed by the first attempt and would silently replay empty."""
    for i, src in enumerate(sources):
        from ..core.sources_sinks import RuntimeParam

        if isinstance(src, RuntimeParam):
            continue
        try:
            replayable = iter(src) is not src
        except TypeError:
            replayable = True  # scalars etc.; the binder will complain
        if not replayable:
            raise GraphRuntimeError(
                f"retry= needs replayable sources, but input {i} is a "
                f"one-shot iterator ({type(src).__name__}); pass a list "
                f"or array instead"
            )


def _next_resume(graph: Any, prev: Any, *, exc: Any = None,
                 result: Any = None) -> Any:
    """Resume state for the next retry attempt: the newest checkpoint
    the failed attempt left behind, or the previous state when the
    attempt died before capturing one."""
    path = ""
    if exc is not None:
        path = str(getattr(exc, "checkpoint_path", "") or "")
    if not path and result is not None:
        fr = result.failure
        if fr is not None:
            path = str(getattr(fr, "checkpoint_path", "") or "")
        if not path:
            info = getattr(result, "checkpoint", None)
            if info is not None:
                path = str(getattr(info, "last", "") or "")
    if not path:
        return prev
    from ..checkpoint.resume import ResumeState

    rs = ResumeState.load(path)
    rs.verify_graph(graph)
    return rs


def run_graph(graph: Any, *io: Any, backend: str = "cgsim",
              profile: Any = False, observe: Any = None,
              trace: Any = None, retry: Any = None,
              run_id: Optional[str] = None,
              labels: Optional[Dict[str, str]] = None,
              checkpoint: Any = None, resume_from: Any = None,
              **options: Any) -> RunResult:
    """Execute *graph* on the named backend: the single entry point all
    benchmarks, examples, and the differential harness go through.

    Positional ``io`` follows §3.7: data sources for every global input
    (in order), then sink containers for every global output.  Every
    option, keyword parameters included, is validated once against the
    run-option table (:mod:`repro.exec.spec`) into one frozen
    :class:`~repro.exec.spec.RunSpec` before the backend prepares
    anything: an option the backend rejects raises here.

    ``observe`` (alias ``trace``; any form
    :func:`repro.observe.make_tracer` takes) traces the run with the same
    event schema on every backend; the result then carries ``metrics``
    and ``trace`` (the tracer).  A tracer built here is closed before
    :func:`run_graph` returns; a caller's own Tracer is not.

    ``retry`` (a :class:`repro.faults.RetryPolicy` or an int attempt
    count) re-runs transiently-failed executions from the original
    inputs: a try that raises, or returns a contained
    :class:`~repro.faults.FailureReport`, is repeated after the policy's
    backoff, list sinks cleared between tries.  The returned result
    carries one :class:`~repro.faults.AttemptRecord` per try; the last
    try's exception is re-raised if every attempt raised.

    ``profile`` takes the forms
    :func:`repro.observe.profile.coerce_profile` documents: ``True``
    for per-kernel timing, or a stack-sampler request.

    ``run_id`` is the cross-layer correlation id: minted here when not
    supplied, stamped on every trace event (schema 2), any contained
    :class:`~repro.faults.FailureReport`, the flamegraph filename, and
    ``result.run_id``.  ``labels`` (e.g. tenant/graph from the serve
    layer) ride along on every event the same way.

    ``checkpoint`` (a directory path, a dict of policy fields, or a
    :class:`repro.checkpoint.CheckpointPolicy`) captures run state at
    quiescent points — on-fault by default, plus interval and explicit
    triggers; the result carries a
    :class:`~repro.checkpoint.CheckpointInfo` under
    ``result.checkpoint``.  ``resume_from`` (a checkpoint file path or
    loaded :class:`~repro.checkpoint.Checkpoint`) restores that state
    and continues the run on *any* backend: the graph digest is
    verified, already-fired ``KernelFault`` injections are suppressed,
    the re-execution lands in scratch containers, and the recorded
    prefix is digest-verified before the caller's sinks are written
    (divergence raises :class:`~repro.errors.CheckpointDivergence`).
    ``RetryPolicy(resume=True)`` links the two: each retry restarts
    from the failed attempt's last checkpoint instead of from zero.
    """
    b = get_backend(backend)
    spec = bind_options(backend, dict(  # profile=False is "not set"
        options, profile=profile or None, observe=observe, trace=trace,
        retry=retry, run_id=run_id, checkpoint=checkpoint))
    rid = spec.run_id or "r-" + uuid.uuid4().hex[:12]
    tracer, owned = spec.observe, spec.owns_tracer
    if tracer is not None:
        # A caller-owned tracer with a pinned run_id wins over the mint.
        tracer.set_context(run_id=rid, labels=labels)
        rid = tracer.run_id or rid
    ckpt_policy = spec.checkpoint
    if ckpt_policy is not None and not ckpt_policy.run_id:
        ckpt_policy.run_id = rid
    # Engines only borrow the tracer: run_graph closes one it built.
    spec = spec.replace(run_id=rid, owns_tracer=False)
    policy = spec.retry
    sampler = spec.profiler
    rs = None
    if resume_from is not None:
        from ..checkpoint.resume import ResumeState

        rs = ResumeState.load(resume_from)
    resume_retries = policy is not None and getattr(policy, "resume", False)
    if resume_retries and ckpt_policy is None and rs is None:
        raise GraphRuntimeError(
            "RetryPolicy(resume=True) needs a checkpoint to resume from: "
            "pass checkpoint= so failed attempts capture one, or "
            "resume_from= to seed the first attempt"
        )

    n_inputs = 0
    if policy is not None or rs is not None:
        n_inputs = len(resolve_graph(graph).inputs)
        # Retry and resume both re-bind the original inputs.
        _check_replayable(io[:n_inputs])
        sinks = io[n_inputs:]
    if rs is not None:
        rs.verify_graph(graph)

    attempts: List[Any] = []
    try:
        for attempt in range(policy.attempts if policy is not None else 1):
            from ..faults.report import AttemptRecord

            last = attempt == (policy.attempts - 1 if policy else 0)
            if policy is not None and attempt > 0:
                import time as _time

                delay = policy.delay_before(attempt)
                if delay > 0.0:
                    _time.sleep(delay)
                for sink in sinks:
                    if isinstance(sink, list):
                        del sink[:]
            attempt_io, attempt_spec = io, spec
            scratch = None
            if rs is not None:
                # Resume executes into scratch containers so the
                # caller's sinks stay untouched until the re-run is
                # digest-verified against the checkpoint prefix.
                scratch = rs.make_scratch(tuple(io[n_inputs:]))
                if spec.faults is not None:
                    attempt_spec = spec.replace(
                        faults=rs.filter_faults(spec.faults))
                attempt_io = tuple(io[:n_inputs]) + tuple(scratch)
            try:
                plan = b.prepare_spec(graph, attempt_io, attempt_spec)
                result = b.run(plan, profile=bool(spec.profile))
            except Exception as exc:
                if policy is None or last:
                    raise
                attempts.append(AttemptRecord(
                    index=attempt, outcome="raised", error=exc,
                ))
                if resume_retries:
                    rs = _next_resume(graph, rs, exc=exc)
                continue
            if policy is not None:
                fr = result.failure
                attempts.append(AttemptRecord(
                    index=attempt,
                    outcome="ok" if fr is None else "failed",
                    error=fr.failures[0].error
                    if fr is not None and fr.failures else None,
                    failing_task=fr.failing_task if fr is not None else "",
                ))
                if fr is not None and not last:
                    if resume_retries:
                        rs = _next_resume(graph, rs, result=result)
                    continue
            if rs is not None:
                # Verify + splice deliberately OUTSIDE the try above: a
                # CheckpointDivergence is a determinism violation, not a
                # transient failure — it must propagate, never retry.
                rs.splice(tuple(io[n_inputs:]), scratch,
                          completed=result.completed)
                result.outputs = list(io[n_inputs:])
                result.resumed_from = rs.path
                result.suppressed_faults = list(rs.suppressed)
            break
    except BaseException:
        if tracer is not None and owned:
            tracer.close()
        raise
    result.attempts = attempts
    result.run_id = rid
    if result.failure is not None and not getattr(
            result.failure, "run_id", ""):
        result.failure.run_id = rid
    if sampler is not None:
        if result.profile is None:  # mp merges worker reports itself
            result.profile = sampler.report()
        if sampler.out:
            from pathlib import Path

            from ..observe.profile import FLAME_SUFFIX, flamegraph_name

            dest = Path(sampler.out)
            if not str(dest).endswith(FLAME_SUFFIX):
                dest = dest / flamegraph_name(result.graph_name, rid)
            result.profile_path = str(
                result.profile.write_collapsed(dest))
    if tracer is not None:
        result.trace = tracer
        result.metrics = tracer.metrics()
        if result.metrics is not None:
            if not result.metrics.run_id:
                result.metrics.run_id = rid
            if result.profile is not None and result.profile.n_samples:
                result.metrics.profile = result.profile.self_table()
        if owned:
            tracer.close()
    return result
