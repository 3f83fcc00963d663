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
import threading
import uuid
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Type

from ..core.result import RunResult, summarize_sink
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
    (:mod:`repro.exec.spec`) and implement :meth:`prepare_spec` and
    :meth:`execute`; instances are stateless.
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

    def run(self, plan: ExecutionPlan, *, profile: bool = False) -> RunResult:
        """Drive a prepared plan to completion: claim it, run the engine
        on its spec, and close a tracer the spec's binding built.

        ``profile=True`` turns per-kernel timing on where the engine
        honours ``profile`` (the cooperative backends).  Plans are
        single-use: I/O bindings and coroutine/thread state cannot be
        rewound."""
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
        spec = plan.spec
        if profile and spec.profile is False:
            spec = plan.spec = spec.replace(profile=True)
        try:
            return self.execute(plan)
        finally:
            if spec.owns_tracer:
                spec.observe.close()

    @abc.abstractmethod
    def execute(self, plan: ExecutionPlan) -> RunResult:
        """The engine itself: run *plan* (already claimed) with the
        options of ``plan.spec`` and return its :class:`RunResult`."""


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
                result = b.run(plan)
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
