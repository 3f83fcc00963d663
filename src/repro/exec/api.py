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
import time
import uuid
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type

from ..core.result import RunResult, summarize_sink
from ..errors import GraphRuntimeError
from .spec import RunSpec, bind_options

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
    #: Sequence number of the run's first checkpoint; a run resumed
    #: from a checkpoint continues after it, so a retry that shares the
    #: run id never overwrites the file it resumed from.
    checkpoint_seq: int = 0
    _consumed: bool = False


# ---------------------------------------------------------------------------
# Backend protocol and registry
# ---------------------------------------------------------------------------


def _new_run_id() -> str:
    """A fresh cross-layer correlation id."""
    return "r-" + uuid.uuid4().hex[:12]


class RunLifecycle:
    """The watchdog, the stack sampler and the checkpoint captures of
    one run, which :meth:`ExecutionBackend.run` keeps for every engine.

    The engine calls :meth:`live` once its probes can be read (cgsim-mp
    after forking, so no monitor thread crosses a fork): an object with
    ``progress()`` (cheap, read from the watchdog thread),
    ``blockage()`` and ``checkpoint_state()``, plus ``sample_label()``
    where the scheduler runs on the calling thread.  Interval and
    explicit captures need the scheduler's quiescent points, so an
    engine that has them installs ``session.make_step_hook`` itself.
    The run's checkpoints are numbered from *seq*.
    """

    def __init__(self, spec: RunSpec, graph: Any, seq: int) -> None:
        self.spec, self.graph = spec, graph
        self.session = self.probes = None
        if spec.checkpoint is not None:
            from ..checkpoint.capture import CheckpointSession

            self.session = CheckpointSession(
                spec.checkpoint, graph, spec.backend, spec.run_id,
                lambda: self.probes.checkpoint_state(), spec.observe,
                seq=seq)

    def live(self, probes: Any) -> None:
        """Start the monitors over *probes*."""
        spec, self.probes = self.spec, probes
        if spec.watchdog is not None:
            spec.watchdog.start(progress_fn=probes.progress,
                                blockage_fn=probes.blockage,
                                tracer=spec.observe, scope=self.graph.name)
        label = getattr(probes, "sample_label", None)
        if spec.profiler is not None and label is not None:
            spec.profiler.start(label)

    def stop(self) -> None:
        """Stop the monitors (idempotent)."""
        for monitor in (self.spec.profiler, self.spec.watchdog):
            if monitor is not None:
                monitor.stop()

    def settle(self, report: Any, exc: Optional[BaseException] = None
               ) -> None:
        """Capture from how the run ended: ``final`` after a completed
        run, ``on_fault`` after a contained failure, a stall or a raised
        *exc* (a failed capture never masks it), its path stamped on
        *exc* and on the failure report.  *report* is the returned
        result, or what *exc* carries (a failure report, or the stalled
        run's result under ``strict``); a result gets ``checkpoint``
        and ``warnings``."""
        session, path = self.session, ""
        if session is not None and self.probes is not None:
            if exc is None and report.completed:
                session.capture_at_end()
            else:
                try:
                    path = session.capture_on_fault()
                except Exception:
                    pass
        if path and exc is not None:
            exc.checkpoint_path = path  # type: ignore[attr-defined]
        if isinstance(report, RunResult):
            if session is not None:
                report.checkpoint = session.info()
            if self.spec.watchdog is not None:
                report.warnings.extend(self.spec.watchdog.warnings())
            report = report.failure
        if path and report is not None:
            report.checkpoint_path = path


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
        """Drive a prepared plan to completion: the one run core every
        entry point (``run_graph``, the graph call operators,
        ``run_threaded``) goes through.

        Claims the plan, mints a run id when the spec has none (a
        caller's tracer with a pinned id wins), brackets the engine
        between ``run.begin`` and ``run.end`` (emitted on aborts too, so
        crashed runs still export), then stamps the id on the result and
        any :class:`~repro.faults.FailureReport`, fills ``profile``/
        ``profile_path`` and ``trace``/``metrics``, and closes a tracer
        the spec's binding built.

        Around the engine it keeps the :class:`RunLifecycle`: the
        watchdog and the sampler run from the engine's ``live`` signal
        until it returns or raises, and every checkpoint capture but
        the in-run ones is decided from how the run ended, before
        ``run.end``.

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
            spec = spec.replace(profile=True)
        tracer = spec.observe
        rid = spec.run_id or _new_run_id()
        if tracer is not None:
            tracer.set_context(run_id=rid)
            rid = tracer.run_id or rid
        plan.spec = spec = spec.replace(run_id=rid)
        name = plan.graph.name
        try:
            watch = RunLifecycle(spec, plan.graph, plan.checkpoint_seq)
            if tracer is not None:
                tracer.run_begin(name, self.name)
            try:
                try:
                    result = self.execute(plan, watch)
                finally:
                    watch.stop()
            except BaseException as exc:
                watch.settle(getattr(exc, "report", None), exc)
                raise
            else:
                watch.settle(result)
            finally:
                if tracer is not None:
                    tracer.run_end(name, self.name)
            result.run_id = rid
            if result.failure is not None and not result.failure.run_id:
                result.failure.run_id = rid
            sampler = spec.profiler
            if sampler is not None:
                if result.profile is None:  # cgsim-mp merges its workers'
                    result.profile = sampler.report()
                if sampler.out:
                    from ..observe.profile import FLAME_SUFFIX, flamegraph_name

                    dest = Path(sampler.out)
                    if not str(dest).endswith(FLAME_SUFFIX):
                        dest = dest / flamegraph_name(result.graph_name, rid)
                    result.profile_path = str(
                        result.profile.write_collapsed(dest))
            if tracer is not None:
                result.trace = tracer
                result.metrics = metrics = tracer.metrics()
                if metrics is not None:
                    metrics.run_id = metrics.run_id or rid
                    if result.profile is not None \
                            and result.profile.n_samples:
                        metrics.profile = result.profile.self_table()
            return result
        finally:
            if spec.owns_tracer:
                tracer.close()

    @abc.abstractmethod
    def execute(self, plan: ExecutionPlan,
                watch: RunLifecycle) -> RunResult:
        """The engine itself: run *plan* (already claimed) with the
        options of ``plan.spec`` and return its :class:`RunResult`,
        calling ``watch.live(probes)`` once its probes can be read."""


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


def _resume_state(graph: Any, path: str, prev: Any) -> Any:
    """The checkpoint at *path* as the next retry attempt's resume
    state, or *prev* when the failed attempt captured none."""
    if not path:
        return prev
    from ..checkpoint.resume import ResumeState

    rs = ResumeState.load(path)
    rs.verify_graph(graph)
    return rs


def _attempt(b: ExecutionBackend, graph: Any, io: Tuple[Any, ...],
             n_inputs: int, spec: RunSpec, rs: Any):
    """One run and its commit.  Without a checkpoint *rs* that is the
    plain ``b.run(b.prepare_spec(...))``.  With one, the run continues
    from it into scratch sinks, and the commit verifies them against
    the recorded prefix before it writes the caller's sinks."""
    if rs is None:
        result = b.run(b.prepare_spec(graph, io, spec))
        return result, lambda: result
    sinks = tuple(io[n_inputs:])
    scratch = rs.make_scratch(sinks)
    if spec.faults is not None:
        spec = spec.replace(faults=rs.filter_faults(spec.faults))
    plan = b.prepare_spec(graph, tuple(io[:n_inputs]) + tuple(scratch),
                          spec)
    plan.checkpoint_seq = rs.checkpoint.seq + 1
    result = b.run(plan)

    def splice() -> RunResult:
        rs.splice(sinks, scratch, completed=result.completed)
        result.outputs = list(sinks)
        result.resumed_from = rs.path
        result.suppressed_faults = list(rs.suppressed)
        return result

    return result, splice


def _retried(b: ExecutionBackend, graph: Any, io: Tuple[Any, ...],
             n_inputs: int, spec: RunSpec, rs: Any) -> RunResult:
    """Up to ``spec.retry.attempts`` runs: a try that raises or returns
    a contained failure is repeated after the policy's backoff, list
    sinks cleared.  Every try shares one run id and one tracer; with
    ``resume=True`` each restarts from the last checkpoint."""
    from ..faults.report import AttemptRecord

    policy = spec.retry
    spec = spec.replace(run_id=spec.run_id or _new_run_id(),
                        owns_tracer=False)   # run_graph closes it
    attempts: List[Any] = []
    for attempt in range(policy.attempts):
        last = attempt == policy.attempts - 1
        if attempt > 0:
            delay = policy.delay_before(attempt)
            if delay > 0.0:
                time.sleep(delay)
            for sink in io[n_inputs:]:
                if isinstance(sink, list):
                    del sink[:]
        try:
            result, commit = _attempt(b, graph, io, n_inputs, spec, rs)
        except Exception as exc:
            if last:
                raise
            attempts.append(AttemptRecord(
                index=attempt, outcome="raised", error=exc))
            if policy.resume:
                rs = _resume_state(
                    graph, getattr(exc, "checkpoint_path", ""), rs)
            continue
        fr = result.failure
        attempts.append(AttemptRecord(
            index=attempt, outcome="ok" if fr is None else "failed",
            error=fr.failures[0].error
            if fr is not None and fr.failures else None,
            failing_task=fr.failing_task if fr is not None else "",
        ))
        if fr is None or last:
            result.attempts = attempts
            # Outside the try: a CheckpointDivergence is a
            # determinism violation, never a transient failure.
            return commit()
        if policy.resume:
            info = result.checkpoint
            rs = _resume_state(graph, fr.checkpoint_path or (
                info.last if info is not None else ""), rs)


def run_graph(graph: Any, *io: Any, backend: str = "cgsim",
              profile: Any = False, observe: Any = None,
              trace: Any = None, retry: Any = None,
              run_id: Optional[str] = None,
              labels: Optional[Dict[str, str]] = None,
              checkpoint: Any = None, resume_from: Any = None,
              **options: Any) -> RunResult:
    """Execute *graph* on the named backend: the single entry point all
    benchmarks, examples, the differential harness and the graph call
    operators go through.

    Positional ``io`` follows §3.7: data sources for every global input
    (in order), then sink containers for every global output.  Every
    option, keyword parameters included, is validated once against the
    run-option table (:mod:`repro.exec.spec`) into one frozen
    :class:`~repro.exec.spec.RunSpec` before the backend prepares
    anything: an option the backend rejects raises here.  The run
    itself is :meth:`ExecutionBackend.run`; retry and resume wrap it.

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

    ``run_id`` is the cross-layer correlation id: minted when not
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
    if labels and spec.observe is not None:
        spec.observe.set_context(labels=labels)
    policy = spec.retry
    try:
        if policy is None and resume_from is None:
            return b.run(b.prepare_spec(graph, io, spec))
        rs = None
        if resume_from is not None:
            from ..checkpoint.resume import ResumeState

            rs = ResumeState.load(resume_from)
        if policy is not None and policy.resume \
                and spec.checkpoint is None and rs is None:
            raise GraphRuntimeError(
                "RetryPolicy(resume=True) needs a checkpoint to resume "
                "from: pass checkpoint= so failed attempts capture one, "
                "or resume_from= to seed the first attempt"
            )
        n_inputs = len(resolve_graph(graph).inputs)
        # Retry and resume both re-bind the original inputs.
        _check_replayable(io[:n_inputs])
        if rs is not None:
            rs.verify_graph(graph)
        if policy is not None:
            return _retried(b, graph, io, n_inputs, spec, rs)
        return _attempt(b, graph, io, n_inputs, spec, rs)[1]()
    finally:
        # Also when prepare raised before ExecutionBackend.run took the
        # tracer over (closing is idempotent).
        if spec.owns_tracer:
            spec.observe.close()
