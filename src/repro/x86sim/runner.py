"""x86sim: thread-per-kernel functional graph execution (§5.2).

AMD's functional simulator assigns every kernel to a dedicated OS
thread; synchronisation happens preemptively through blocking channels.
This runner reproduces that execution model for any compiled cgsim
graph, so Table 2 can compare it directly against the cooperative
single-thread cgsim runtime on identical kernels:

* each kernel coroutine is driven by a *trampoline* on its own thread:
  scheduler commands that would park the coroutine in cgsim instead
  block the thread on the channel's condition variable;
* sources/sinks also run on threads;
* end-of-input is propagated by the channel drain protocol (see
  :mod:`repro.x86sim.channels`): when a kernel's input closes, the
  kernel is terminated and its own outputs close downstream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.builder import CompiledGraph
from ..core.graph import ComputeGraph
from ..core.ports import bind_kernel_ports, next_consumer
from ..core.result import RunResult
from ..core.sources_sinks import (
    RuntimeParam,
    check_io,
    iter_stream_values,
    preset_rtp,
    sink_store,
)
from ..core.transport import traced
from ..errors import (
    InjectedFaultError,
    PoisonSignal,
    SimDeadlockError,
    SimulationError,
)
from ..faults.cone import dependent_cone, failure_report
from ..faults.report import FailureReport, TaskFailure
from ..faults.waitfor import Waiter, analyze_waiters
from .channels import ThreadedBroadcastQueue, ThreadedLatchQueue

if TYPE_CHECKING:
    from ..exec.spec import RunSpec

__all__ = ["X86Plan", "prepare_threads", "execute_plan", "run_threaded"]


def _snap_waiters(thread) -> Dict[str, Tuple[str, str]]:
    """Freeze every peer thread's ``waiting_on`` at the moment *thread*
    stalls.  The staller's own teardown (detach + producer_done) will
    unblock its peers into clean exits moments later, so the wait-for
    graph must be captured *before* the stall propagates — this is the
    threaded analog of the cooperative scheduler's wait snapshot."""
    return {
        p.task: p.waiting_on
        for p in getattr(thread, "all_threads", ())
        if getattr(p, "waiting_on", None) is not None
    }


class _KernelThread(threading.Thread):
    """Trampoline thread driving one kernel coroutine.

    Translates the coroutine's scheduler commands into blocking channel
    waits; terminates the kernel when an input stream closes and then
    signals ``producer_done`` on every output channel.
    """

    def __init__(self, name: str, coro,
                 in_bindings: List[Tuple[ThreadedBroadcastQueue, int]],
                 out_queues: List[ThreadedBroadcastQueue],
                 timeout: Optional[float], tracer=None,
                 poison_on_error: bool = False):
        super().__init__(name=f"x86sim-{name}", daemon=True)
        self.task = name  # logical task name (shared schema across engines)
        self.coro = coro
        self.in_bindings = in_bindings
        self.out_queues = out_queues
        self.timeout = timeout
        self.tracer = tracer
        self.poison_on_error = poison_on_error
        self.error: Optional[BaseException] = None
        self.stalled = False            # the trampoline timed out waiting
        self.waiting_on: Optional[Tuple[str, str]] = None  # (queue, op)
        self.stall_snapshot: Dict[str, Tuple[str, str]] = {}

    def run(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.task_start(self.task, role="kernel")
        try:
            self._drive()
            if tracer is not None:
                tracer.task_finish(self.task)
        except BaseException as exc:  # surfaced by the runner after join
            self.error = exc
            if tracer is not None:
                tracer.task_fail(self.task, exc)
            if self.poison_on_error and isinstance(exc, Exception) \
                    and not self.stalled:
                # on_error="poison": cascade the marker downstream; a
                # kernel that itself died of poison forwards the
                # original origin rather than naming itself.
                origin = exc.origin if isinstance(exc, PoisonSignal) \
                    and exc.origin else self.task
                for queue in self.out_queues:
                    queue.poison(origin)
        finally:
            self._teardown()

    def _drive(self) -> None:
        coro = self.coro
        tracer = self.tracer
        try:
            cmd = coro.send(None)
            while True:
                # Batched port ops yield 4-tuples (the extra field is
                # the partial-progress count, meaningful only to the
                # cooperative scheduler's stats); unpack positionally.
                op, queue, idx = cmd[0], cmd[1], cmd[2]
                if op == "rd":
                    if tracer is not None:
                        tracer.task_suspend(
                            self.task, queue=queue.name or "", op="read",
                            n=cmd[3] if len(cmd) > 3 else 0,
                        )
                    self.waiting_on = (queue.name or "", "read")
                    ok = queue.wait_readable(idx, self.timeout)
                    if tracer is not None:
                        tracer.task_resume(self.task)
                    if not ok:
                        if getattr(queue, "closed", True):
                            self.waiting_on = None
                            coro.close()
                            return
                        self.stalled = True
                        self.stall_snapshot = _snap_waiters(self)
                        raise SimulationError(
                            f"{self.name}: stalled waiting to read "
                            f"{queue.name!r} for {self.timeout}s"
                        )
                    self.waiting_on = None
                elif op == "wr":
                    if tracer is not None:
                        tracer.task_suspend(
                            self.task, queue=queue.name or "", op="write",
                            n=cmd[3] if len(cmd) > 3 else 0,
                        )
                    self.waiting_on = (queue.name or "", "write")
                    ok = queue.wait_writable(self.timeout)
                    if tracer is not None:
                        tracer.task_resume(self.task)
                    if not ok:
                        self.stalled = True
                        self.stall_snapshot = _snap_waiters(self)
                        raise SimulationError(
                            f"{self.name}: stalled waiting to write "
                            f"{queue.name!r} for {self.timeout}s"
                        )
                    self.waiting_on = None
                # "yield" needs no wait; resume immediately.
                cmd = coro.send(None)
        except StopIteration:
            return

    def _teardown(self) -> None:
        for queue, idx in self.in_bindings:
            queue.detach_consumer(idx)
        for queue in self.out_queues:
            queue.producer_done()


class _SourceThread(threading.Thread):
    def __init__(self, name: str, queue: ThreadedBroadcastQueue, values,
                 timeout: Optional[float], tracer=None,
                 poison_on_error: bool = False):
        super().__init__(name=f"x86sim-{name}", daemon=True)
        self.task = name
        self.queue = queue
        self.values = values
        self.timeout = timeout
        self.tracer = tracer
        self.poison_on_error = poison_on_error
        self.error: Optional[BaseException] = None
        self.stalled = False
        self.waiting_on: Optional[Tuple[str, str]] = None
        self.stall_snapshot: Dict[str, Tuple[str, str]] = {}

    def run(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.task_start(self.task, role="source")
        try:
            for v in self.values:
                while not self.queue.try_put(v):
                    if tracer is not None:
                        tracer.task_suspend(self.task,
                                            queue=self.queue.name or "",
                                            op="write")
                    self.waiting_on = (self.queue.name or "", "write")
                    ok = self.queue.wait_writable(self.timeout)
                    if tracer is not None:
                        tracer.task_resume(self.task)
                    if not ok:
                        self.stalled = True
                        self.stall_snapshot = _snap_waiters(self)
                        raise SimulationError(
                            f"{self.name}: stalled writing {self.queue.name!r}"
                        )
                    self.waiting_on = None
                self.waiting_on = None
            if tracer is not None:
                tracer.task_finish(self.task)
        except BaseException as exc:
            self.error = exc
            if tracer is not None:
                tracer.task_fail(self.task, exc)
            if self.poison_on_error and isinstance(exc, Exception) \
                    and not self.stalled:
                # on_error="poison": the readers end at the truncation
                # point, as they do behind a failed kernel.
                self.queue.poison(self.task)
        finally:
            self.queue.producer_done()


class _SinkThread(threading.Thread):
    def __init__(self, name: str, queue: ThreadedBroadcastQueue,
                 consumer_idx: int, store, timeout: Optional[float],
                 tracer=None):
        super().__init__(name=f"x86sim-{name}", daemon=True)
        self.task = name
        self.queue = queue
        self.consumer_idx = consumer_idx
        self.store = store
        self.timeout = timeout
        self.tracer = tracer
        self.items = 0
        self.error: Optional[BaseException] = None
        self.stalled = False
        self.waiting_on: Optional[Tuple[str, str]] = None
        self.stall_snapshot: Dict[str, Tuple[str, str]] = {}

    def run(self) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.task_start(self.task, role="sink")
        try:
            while True:
                ok, v = self.queue.try_get(self.consumer_idx)
                if ok:
                    self.store(v)
                    self.items += 1
                    continue
                # Same semantics as the kernel ports' blocking slow path:
                # buffered data drains first, then the marker terminates
                # the sink (otherwise a poisoned-and-drained channel
                # reports readable forever and the sink would spin).
                if getattr(self.queue, "poisoned", False):
                    raise PoisonSignal(self.queue.name or "",
                                       self.queue.poison_origin)
                if tracer is not None:
                    tracer.task_suspend(self.task,
                                        queue=self.queue.name or "",
                                        op="read")
                self.waiting_on = (self.queue.name or "", "read")
                readable = self.queue.wait_readable(self.consumer_idx,
                                                    self.timeout)
                if tracer is not None:
                    tracer.task_resume(self.task)
                if not readable:
                    if getattr(self.queue, "closed", True):
                        self.waiting_on = None
                        if tracer is not None:
                            tracer.task_finish(self.task)
                        return
                    self.stalled = True
                    self.stall_snapshot = _snap_waiters(self)
                    raise SimulationError(
                        f"{self.name}: stalled reading {self.queue.name!r}"
                    )
                self.waiting_on = None
        except BaseException as exc:
            self.error = exc
            if tracer is not None:
                tracer.task_fail(self.task, exc)


@dataclass
class X86Plan:
    """Prepared thread-per-kernel execution: all threads built and wired
    to their channels, not yet started.  Single-use."""

    graph: ComputeGraph
    spec: "RunSpec"                 # the bound x86sim run options
    outputs: List[Any]              # the caller's sink containers
    threads: List[threading.Thread]
    sinks: List["_SinkThread"]
    rtp_sinks: List[Tuple[ThreadedLatchQueue, RuntimeParam]]
    queues: Dict[int, Any]
    session: Any = None             # active repro.faults FaultSession


def prepare_threads(graph: CompiledGraph | ComputeGraph, io: Tuple[Any, ...],
                    spec: "RunSpec") -> X86Plan:
    """Instantiate channels, kernel/source/sink threads for one run.

    The prepare/execute split mirrors the :mod:`repro.exec` backend
    protocol; every option is read from *spec*, a
    :class:`~repro.exec.spec.RunSpec` bound for ``"x86sim"``.  Trace
    events use the tasks' *logical* names (instance names,
    ``source[i]``, ``sink[i]``) so x86sim traces line up with cgsim
    traces of the same graph.
    """
    g = graph.graph if isinstance(graph, CompiledGraph) else graph
    check_io(g, io)
    capacity, timeout, tracer = spec.capacity, spec.timeout, spec.observe
    poison = spec.on_error == "poison"
    session = spec.faults.session(g) if spec.faults is not None else None
    if session is not None:
        session.attach_tracer(tracer)

    # Channels: one per net; producer count = kernel writers + sources.
    queues: Dict[int, Any] = {}
    consumer_alloc: Dict[int, int] = {}
    inputs = {gio.net_id: c for gio, c in zip(g.inputs, io)}
    for net in g.nets:
        n_consumers = len(net.consumers) + sum(
            1 for gio in g.outputs if gio.net_id == net.net_id
        )
        n_producers = len(net.producers) + (
            1 if net.net_id in inputs else 0
        )
        if net.settings.runtime_parameter:
            q: Any = ThreadedLatchQueue(
                n_consumers=max(n_consumers, 1), name=net.name
            )
            if net.net_id in inputs:
                preset_rtp(q, net.dtype, inputs[net.net_id])
        else:
            q = ThreadedBroadcastQueue(
                capacity=net.queue_depth(capacity), n_consumers=n_consumers,
                n_producers=n_producers, name=net.name,
            )
        q = traced(q, tracer)
        if session is not None and not net.settings.runtime_parameter:
            # Tracing sits inside the fault proxy, and both wrap before
            # any port/thread captures the channel reference.
            q = session.wrap_queue(net.name, q)
        queues[net.net_id] = q
        consumer_alloc[net.net_id] = 0
    if session is not None:
        session.check_wired()
    latch_ids = {id(queues[net.net_id]) for net in g.nets
                 if net.settings.runtime_parameter}

    threads: List[threading.Thread] = []

    # Kernel threads.
    for inst in g.kernels:
        name = inst.instance_name
        ports, reads, out_queues = bind_kernel_ports(
            name, inst.kernel, inst.port_nets, queues, consumer_alloc,
        )
        in_bindings = [r for r in reads if id(r[0]) not in latch_ids]
        coro = inst.kernel.instantiate(ports)
        if session is not None:
            coro = session.wrap_kernel(name, coro)
        threads.append(_KernelThread(
            name, coro, in_bindings, out_queues, timeout,
            tracer=tracer, poison_on_error=poison,
        ))

    # Sources.
    sinks: List[_SinkThread] = []
    rtp_sinks: List[Tuple[ThreadedLatchQueue, RuntimeParam]] = []
    for gio, container in zip(g.inputs, io[:len(g.inputs)]):
        net = g.net(gio.net_id)
        q = queues[gio.net_id]
        if not net.settings.runtime_parameter:
            values = iter_stream_values(net.dtype, container)
            q.producer_names.append(f"source[{gio.io_index}]")
            threads.append(_SourceThread(
                f"source[{gio.io_index}]", q, values, timeout, tracer=tracer,
                poison_on_error=poison,
            ))

    # Sinks.
    for gio, container in zip(g.outputs, io[len(g.inputs):]):
        net = g.net(gio.net_id)
        q = queues[gio.net_id]
        if net.settings.runtime_parameter:
            rtp_sinks.append((q, container))
            continue
        cidx = next_consumer(consumer_alloc, gio.net_id)
        store, _many, _cursor = sink_store(net.dtype, container)
        q.consumer_names.append(f"sink[{gio.io_index}]")
        t = _SinkThread(f"sink[{gio.io_index}]", q, cidx, store, timeout,
                        tracer=tracer)
        sinks.append(t)
        threads.append(t)

    # Wait-for snapshots: every thread can freeze its peers' park states
    # at the instant it stalls (see _snap_waiters).
    for t in threads:
        t.all_threads = threads

    return X86Plan(
        graph=g, spec=spec, outputs=list(io[len(g.inputs):]),
        threads=threads, sinks=sinks, rtp_sinks=rtp_sinks, queues=queues,
        session=session,
    )


def _collect_waiters(plan: X86Plan) -> List[Waiter]:
    """Reduce stalled/parked threads to wait-for records (the x86sim
    analog of the cooperative scheduler's ``wait_snapshot``).

    Merges the stall-time snapshots every stalled thread froze (see
    :func:`_snap_waiters`) with the still-parked live threads: the
    first stall's teardown converts its peers into clean exits, so the
    live view alone under-reports the cycle."""
    by_name = {q.name: q for q in plan.queues.values() if q.name}
    by_task = {t.task: t for t in plan.threads}
    merged: Dict[str, Tuple[str, str]] = {}
    for t in plan.threads:
        for task, wo in getattr(t, "stall_snapshot", {}).items():
            merged.setdefault(task, wo)
    for t in plan.threads:
        wo = getattr(t, "waiting_on", None)
        if wo is not None and (t.is_alive() or getattr(t, "stalled", False)):
            merged.setdefault(t.task, wo)
    out: List[Waiter] = []
    for task in sorted(merged):
        qname, op = merged[task]
        q = by_name.get(qname)
        t = by_task.get(task)
        kind = "source" if isinstance(t, _SourceThread) else (
            "sink" if isinstance(t, _SinkThread) else "kernel"
        )
        peers: Tuple[str, ...] = ()
        capacity = None
        if q is not None:
            capacity = getattr(q, "capacity", None)
            peers = tuple(
                q.producer_names if op == "read" else q.consumer_names
            )
        out.append(Waiter(task=task, op=op, queue=qname, kind=kind,
                          capacity=capacity, peers=peers))
    return out


def _containment_report(plan: X86Plan, failed: List[threading.Thread],
                        poisoned: List[threading.Thread]) -> FailureReport:
    """Attribute failures and derive the cancelled cone / sink statuses
    from the serialized graph (threads have already terminated via the
    drain protocol; the report states which ones died *because* of the
    failure rather than end-of-input)."""
    session = plan.session
    failed_names = {t.task for t in failed}
    poisoned_names = [t.task for t in poisoned]
    policy = plan.spec.on_error
    cone = dependent_cone(plan.graph, failed_names) \
        if policy == "isolate" else set()
    return failure_report(
        plan.graph, policy,
        [TaskFailure(task=t.task, error=t.error,
                     injected=isinstance(t.error, InjectedFaultError))
         for t in failed],
        failed_names | cone | set(poisoned_names),
        cancelled=cone,
        poisoned=tuple(poisoned_names),
        injected_faults=list(session.events) if session is not None else [],
    )


def execute_plan(plan: X86Plan) -> RunResult:
    """Start every prepared thread, join with bounded waits, and collect
    the run's :class:`~repro.core.result.RunResult`.

    Failure semantics follow ``spec.on_error``: under ``"fail"`` any
    thread error raises :class:`SimulationError`; under
    ``"isolate"``/``"poison"`` kernel failures are contained into a
    returned :class:`~repro.faults.FailureReport`.  Stall timeouts raise
    :class:`~repro.errors.SimDeadlockError` with a wait-for-graph
    diagnosis when ``spec.strict``, else return a result with
    ``completed=False`` and the same diagnosis attached.
    """
    g = plan.graph
    spec = plan.spec
    threads = plan.threads
    timeout = spec.timeout
    t0 = perf_counter()
    stragglers: List[threading.Thread] = []
    for t in threads:
        t.start()
    # Bounded joins: a kernel that spins without consuming (or any other
    # livelock) must surface as an error, not hang the host process.
    # Threads are daemonic, so stragglers die with the interpreter.
    deadline = None if timeout is None else perf_counter() + timeout * (
        len(threads) + 1
    )
    for t in threads:
        remaining = None if deadline is None \
            else max(0.0, deadline - perf_counter())
        t.join(remaining)
        if t.is_alive():
            stragglers.append(t)
    wall = perf_counter() - t0

    stalled = [t for t in threads
               if getattr(t, "stalled", False) or t in stragglers]
    poisoned = [t for t in threads
                if isinstance(getattr(t, "error", None), PoisonSignal)]
    failed = [t for t in threads
              if getattr(t, "error", None) is not None
              and t not in stalled and t not in poisoned]

    if spec.on_error == "fail":
        for t in failed:
            raise SimulationError(
                f"x86sim thread {t.name} failed: {t.error}"
            ) from t.error

    task_states: Dict[str, str] = {}
    for t in threads:
        if t in stragglers or getattr(t, "stalled", False):
            task_states[t.task] = "stalled"
        elif t in poisoned:
            task_states[t.task] = "cancelled"
        elif getattr(t, "error", None) is not None:
            task_states[t.task] = "failed"
        else:
            task_states[t.task] = "finished"

    failure = None
    if failed or poisoned:
        failure = _containment_report(plan, failed, poisoned)

    deadlock_report = None
    diagnosis = ""
    if stalled and failure is None:
        deadlock_report = analyze_waiters(_collect_waiters(plan))
        first = stalled[0]
        detail = f"{first.error}" if getattr(first, "error", None) \
            else f"threads still alive after {timeout}s: " \
                 f"{[t.name for t in stragglers]}"
        diagnosis = (
            f"x86sim run of {g.name!r} stalled: {detail}\n"
            + deadlock_report.describe()
        )
        if spec.strict:
            raise SimDeadlockError(diagnosis, deadlock=deadlock_report)

    for latch, param in plan.rtp_sinks:
        param.value = latch.last_value

    return RunResult(
        backend="x86sim",
        graph_name=g.name,
        outputs=plan.outputs,
        wall_time=wall,
        items_in=sum(plan.queues[gio.net_id].total_puts for gio in g.inputs),
        items_out=sum(s.items for s in plan.sinks),
        completed=failure is None and not stalled,
        n_threads=len(threads),
        task_states=task_states,
        stall_diagnosis=diagnosis,
        failure=failure,
        deadlock=deadlock_report,
    )


def run_threaded(graph: CompiledGraph | ComputeGraph, *io: Any,
                 **options: Any) -> RunResult:
    """Execute a compute graph with one OS thread per kernel: the
    x86sim backend's graph call, options bound as ``run_graph`` binds
    them (``timeout``, ``strict``, ``faults``, ``on_error``, ...)."""
    from ..exec import run_graph

    return run_graph(graph, *io, backend="x86sim", **options)
