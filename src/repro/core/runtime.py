"""Runtime graph instantiation and execution (§3.6–3.8).

:class:`RuntimeContext` is the deserializer-driven execution instance of
a compute graph.  Construction mirrors the paper's sequence exactly:

1. recreate all graph I/O ports (queues) from the serialized descriptors,
2. instantiate all kernels and connect them through those queues,
3. attach global-I/O source/sink coroutines for the containers the user
   passed positionally (sources first, then sinks, §3.7),
4. start the embedded cooperative task scheduler, which creates every
   kernel coroutine in a suspended state, registers it pending, and runs
   until no coroutine can continue (§3.8),
5. terminate all kernel coroutines and release their frames; results
   remain in the user's sink containers.

:meth:`RuntimeContext.run` returns the run's
:class:`~repro.core.result.RunResult`: per-task final states,
context-switch counts, item transfer counts, optional kernel-vs-overhead
time split, and stall diagnostics.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, \
    Set, Tuple

from ..errors import (
    DeadlockError,
    InjectedFaultError,
    IoBindingError,
)
from ..faults.cone import cancelled_sinks, dependent_cone, failure_report
from ..faults.report import FailureReport, TaskFailure, TeardownError
from ..faults.waitfor import analyze_waiters
from .fused import ChainMember, OptimizedPlan, SinkStore, SourceFeed
from .graph import ComputeGraph
from .ports import bind_kernel_ports, next_consumer
from .queues import BroadcastQueue, LatchQueue
from .result import RunResult, kernel_fraction
from .scheduler import CooperativeScheduler, TaskState
from .sources_sinks import (
    RuntimeParam,
    check_io,
    make_sink,
    make_source,
    preset_rtp,
)
from .transport import make_queue, traced

if TYPE_CHECKING:
    from ..exec.spec import RunSpec

__all__ = ["RuntimeContext"]


class RuntimeContext:
    """A single execution instance of a compute graph (§3.6).

    Every run option is read from *spec*, a
    :class:`~repro.exec.spec.RunSpec` bound for ``"cgsim"`` or
    ``"pysim"`` (what each option means is in :mod:`repro.exec.spec`);
    ``None`` binds the defaults.  *optimize_plan* is the plan compiler's
    :class:`~repro.core.fused.OptimizedPlan` for ``spec.optimize``
    (``repro.exec.optimize``): its members run as ordinary tasks, with
    the graph I/O they own bound to feeds and stores.  The context never
    closes ``spec.observe``; whoever bound it does.
    """

    def __init__(self, graph: ComputeGraph, spec: "RunSpec" = None,
                 optimize_plan: Optional[OptimizedPlan] = None):
        if spec is None:
            from ..exec.spec import bind_options

            spec = bind_options("cgsim", {}, engine=True)
        self.graph = graph
        self.spec = spec
        validate, capacity = spec.validate, spec.capacity
        transport = spec.transport  # None: plain in-process rings
        fault_plan = spec.faults
        self.fault_session = fault_plan.session(graph) \
            if fault_plan is not None else None
        self._sched: Optional[CooperativeScheduler] = None
        self.optimize_plan = optimize_plan
        self.queues: Dict[int, Any] = {}
        self._consumer_alloc: Dict[int, int] = {}  # net_id -> next idx
        self._io_bound = False
        self._sink_containers: List[Any] = []
        self._sources: List[Tuple[int, Any]] = []  # (input_idx, coroutine)
        self._sinks: List[Tuple[int, Any]] = []    # (output_idx, coroutine)
        self._rtp_sinks: List[Tuple[int, LatchQueue, RuntimeParam]] = []
        # (io_index, container, dtype, counter) of every bound stream
        # output, for item accounting and checkpoint snapshots; counter
        # (an ``ArraySinkCursor`` or SinkStore) reports ``items_stored``,
        # None for a list filled by a sink task.
        self._outputs: List[Tuple[int, Any, Any, Any]] = []
        self._source_tasks: List = []
        self._feeds: Dict[int, SourceFeed] = {}    # net_id -> feed
        self._stores: Set[int] = set()             # net ids bound to a store
        self._latches: Dict[int, LatchQueue] = {}  # RTP net_id -> latch
        # Containment wiring (repro.faults): which shared queues each
        # scheduler task reads (queue, consumer_idx) and writes, and which
        # original instances each task carries (a substituted chain
        # member stands for several) — what the failure hook needs to
        # detach cursors, poison streams and seed the dependent cone.
        self._task_inputs: Dict[str, List[Tuple[Any, int]]] = {}
        self._task_outputs: Dict[str, List[Any]] = {}
        self._owner_task: Dict[str, str] = {}      # instance -> task name
        self._member_instances: Dict[str, Tuple[str, ...]] = {}

        # An optimize plan changes two things: graph I/O owned by a chain
        # is bound straight to the caller's containers (feeds and
        # stores), and a chain member may be a fused equivalent standing
        # in for several instances.  Every member is an ordinary task.
        standins: Dict[str, ChainMember] = {}   # first instance -> member
        feed_nets: Set[int] = set()
        absorbed: Set[int] = set()
        covered: FrozenSet[int] = frozenset()
        if optimize_plan is not None:
            for chain in optimize_plan.chains:
                standins.update((m.fused_from[0], m) for m in chain.members)
                feed_nets.update(chain.feed_nets)
                self._stores.update(chain.store_nets)
                absorbed.update(chain.absorbed_nets)
            covered = optimize_plan.fused_instance_idxs
        unwired = feed_nets | self._stores | absorbed

        # Step 1 (§3.6): recreate all I/O ports — one queue per net.
        # Tracing and fault proxies are installed here, before any
        # kernel port captures a queue reference, tracing innermost so a
        # dropped or frozen element never reaches the tracer.  A net
        # bound to a caller's container, or absorbed inside a fused
        # equivalent, carries no proxy; a fault plan targeting one is
        # reported by check_wired() rather than silently skipped.
        tracer = spec.observe
        session = self.fault_session
        for net in graph.nets:
            n_consumers = len(net.consumers) + sum(
                1 for io in graph.outputs if io.net_id == net.net_id
            )
            if net.settings.runtime_parameter:
                q: Any = LatchQueue(
                    n_consumers=max(n_consumers, 1), name=net.name,
                )
                self._latches[net.net_id] = q
            elif net.net_id in feed_nets:
                q = self._feeds[net.net_id] = SourceFeed(
                    name=net.name, capacity=net.queue_depth(capacity))
            elif net.net_id in self._stores:
                q = SinkStore(name=net.name)
            else:
                depth = net.queue_depth(capacity)
                if transport is not None:
                    q = make_queue(transport, capacity=depth,
                                   n_consumers=n_consumers,
                                   n_producers=max(len(net.producers), 1),
                                   name=net.name)
                else:
                    q = BroadcastQueue(
                        capacity=depth, n_consumers=n_consumers,
                        name=net.name,
                    )
            q = traced(q, tracer)
            if session is not None and net.net_id not in unwired:
                q = session.wrap_queue(net.name, q)
            self.queues[net.net_id] = q
            self._consumer_alloc[net.net_id] = 0
        if session is not None:
            session.check_wired()

        # Step 2 (§3.6): instantiate kernels and connect them, in graph
        # order; a chain member takes the place of the first instance it
        # covers.
        self._kernel_coros: List[Tuple[str, Any]] = []
        for inst in graph.kernels:
            name = inst.instance_name
            m = standins.get(name)
            if m is None:
                if inst.index in covered:
                    continue
                m = ChainMember(name, inst.kernel, inst.port_nets, (name,))
            ports, ins, outs = bind_kernel_ports(
                m.name, m.kernel, m.port_nets, self.queues,
                self._consumer_alloc, validate,
            )
            coro = m.kernel.instantiate(ports)
            if session is not None:
                coro = session.wrap_kernel(m.name, coro, aliases=m.fused_from)
            self._kernel_coros.append((m.name, coro))
            self._task_inputs[m.name] = ins
            self._task_outputs[m.name] = outs
            self._member_instances[m.name] = m.fused_from
            for orig in m.fused_from:
                self._owner_task[orig] = m.name

    # -- global I/O binding (§3.7) ---------------------------------------------------

    def bind_io(self, *io: Any) -> None:
        """Attach data sources and sinks, positionally: all graph inputs
        first, then all graph outputs."""
        g = self.graph
        validate, batch_io = self.spec.validate, self.spec.batch_io
        check_io(g, io)
        if self._io_bound:
            raise IoBindingError("I/O already bound for this run")
        self._io_bound = True
        self._sink_containers = list(io[len(g.inputs):])

        for gio, container in zip(g.inputs, io[:len(g.inputs)]):
            net = g.net(gio.net_id)
            q = self.queues[gio.net_id]
            if net.settings.runtime_parameter:
                preset_rtp(self._latches[gio.net_id], net.dtype, container,
                           validate)
            elif gio.net_id in self._feeds:
                # Net owned exclusively by a fused chain: the member pulls
                # elements straight from the container, no source task.
                q.bind(net.dtype, container, validate, batch_io)
                q.producer_names.append(f"source[{gio.io_index}]")
            else:
                coro = make_source(q, net.dtype, container, validate,
                                   batch=batch_io)
                self._sources.append((gio.io_index, coro))
                q.producer_names.append(f"source[{gio.io_index}]")
                self._task_outputs[f"source[{gio.io_index}]"] = [q]

        for gio, container in zip(g.outputs, io[len(g.inputs):]):
            net = g.net(gio.net_id)
            q = self.queues[gio.net_id]
            if net.settings.runtime_parameter:
                self._rtp_sinks.append(
                    (gio.io_index, self._latches[gio.net_id], container))
            elif gio.net_id in self._stores:
                # Fused-chain output: writes land in the container as the
                # member produces them, no sink task.
                q.bind(net.dtype, container)
                q.consumer_names.append(f"sink[{gio.io_index}]")
                self._outputs.append((gio.io_index, container, net.dtype, q))
            else:
                cidx = next_consumer(self._consumer_alloc, gio.net_id)
                coro, cursor = make_sink(q, cidx, net.dtype, container,
                                         batch=batch_io)
                q.consumer_names.append(f"sink[{gio.io_index}]")
                self._task_inputs[f"sink[{gio.io_index}]"] = [(q, cidx)]
                self._sinks.append((gio.io_index, coro))
                self._outputs.append(
                    (gio.io_index, container, net.dtype, cursor))

    def discard(self) -> None:
        """Close the suspended task coroutines of a context that will
        never run (its I/O failed to bind), so none is left for the
        garbage collector to finalize un-awaited."""
        for _name, coro in self._kernel_coros:
            coro.close()
        for _idx, coro in self._sources + self._sinks:
            coro.close()

    # -- item accounting / checkpoint state --------------------------------------------

    def _count_items_in(self) -> int:
        return sum(
            getattr(self.queues[gio.net_id], "total_puts", 0)
            for gio in self.graph.inputs
        )

    @staticmethod
    def _delivered(container: Any, counter: Any) -> int:
        return len(container) if counter is None else counter.items_stored

    def _count_items_out(self) -> int:
        return sum(self._delivered(container, counter)
                   for _idx, container, _dtype, counter in self._outputs)

    def checkpoint_state(self) -> Dict[str, Any]:
        """Logical run state at the current quiescent point — the
        payload the checkpoint layer persists (see repro.checkpoint)."""
        from ..checkpoint.format import snapshot_rtp, snapshot_sink

        sinks = [
            snapshot_sink(idx, container, self._delivered(container, counter),
                          dtype)
            for idx, container, dtype, counter in self._outputs
        ]
        sinks.extend(snapshot_rtp(ridx, latch.last_value)
                     for ridx, latch, _param in self._rtp_sinks)
        sources = {
            gio.io_index: getattr(self.queues[gio.net_id], "total_puts", 0)
            for gio in self.graph.inputs
        }
        fills = {}
        for q in self.queues.values():
            if q.name:
                try:
                    fills[q.name] = sum(
                        q.size_for(c) for c in range(q.n_consumers))
                except Exception:
                    pass
        session = self.fault_session
        return {
            "sinks": sinks,
            "sources": sources,
            "items_in": self._count_items_in(),
            "items_out": self._count_items_out(),
            "queue_fills": fills,
            "fired_faults": list(session.events) if session is not None
            else [],
        }

    # -- run probes (the run core's watchdog and sampler read them) ---------------------

    def progress(self) -> int:
        """Queue transfers plus task resumes: plain int reads, safe
        from the watchdog thread."""
        total = 0
        for q in self.queues.values():
            total += getattr(q, "total_puts", 0)
            total += getattr(q, "total_gets", 0)
        for t in self._sched.tasks:
            total += t.resumes
        return total

    def blockage(self) -> str:
        return self._sched.describe_blockage()

    def sample_label(self) -> str:
        return self._sched.running()

    # -- execution (§3.8) ---------------------------------------------------------------

    def run(self, watch: Any = None) -> RunResult:
        """Execute the graph until no coroutine can continue.

        ``spec.strict`` raises :class:`DeadlockError` if the run ends
        with kernels blocked on *writes* (a stall, as opposed to the
        normal end-of-input state where kernels block on reads).  Once
        the tasks are spawned, this context goes live as the probes of
        *watch*, the run core's :class:`~repro.exec.api.RunLifecycle`.
        """
        if not self._io_bound:
            if self.graph.inputs or self.graph.outputs:
                raise IoBindingError(
                    "bind_io() must be called before run() on a graph "
                    "with global I/O"
                )
        spec = self.spec
        tracer = spec.observe
        session = self.fault_session
        if session is not None:
            session.attach_tracer(tracer)
        hook = _ContainmentHook(self) if spec.on_error != "fail" else None
        # Stack sampling needs the scheduler to publish its current
        # task, which the measured path does.
        profile = bool(spec.profile)
        sched = CooperativeScheduler(profile=profile, tracer=tracer,
                                     failure_hook=hook)
        if hook is not None:
            hook.sched = sched
        for q in self.queues.values():
            q.bind_scheduler(sched)

        # Kernels first (they were created suspended at construction),
        # then sources and sinks.
        for name, coro in self._kernel_coros:
            sched.spawn(name, coro, kind="kernel")
        for idx, coro in self._sources:
            self._source_tasks.append(
                sched.spawn(f"source[{idx}]", coro, kind="source")
            )
        for idx, coro in self._sinks:
            sched.spawn(f"sink[{idx}]", coro, kind="sink")

        self._sched = sched
        if watch is not None:
            if watch.session is not None:
                # Interval and explicit captures run at the scheduler's
                # quiescent points.
                sched.step_hook = watch.session.make_step_hook(
                    self._count_items_out)
            watch.live(self)
        try:
            stats = sched.run(max_steps=spec.max_steps)
            # Snapshot the wait diagnosis *before* teardown: close()
            # cancels every parked task, which would erase who was
            # blocked on what.
            blockage = sched.describe_blockage()
            wait_snap = sched.wait_snapshot()
            blocked_writers = [
                t.name for t in sched.tasks
                if t.state is TaskState.BLOCKED_WRITE and t.kind == "kernel"
            ]
        finally:
            sched.close()
            if sched.teardown_errors:
                # A kernel intercepting GeneratorExit during teardown
                # must not mask the primary exception; ride the list on
                # the in-flight error (the hook path reports it on the
                # FailureReport instead).
                exc_in_flight = sys.exc_info()[1]
                if exc_in_flight is not None:
                    try:
                        exc_in_flight.teardown_errors = list(
                            sched.teardown_errors
                        )
                    except Exception:  # pragma: no cover - slotted exc
                        pass

        # RTP outputs: copy the final latch values out.
        for _ridx, latch, param in self._rtp_sinks:
            param.value = latch.last_value

        items_in = self._count_items_in()
        items_out = self._count_items_out()

        failure = None
        if hook is not None and (hook.failures or hook.poisoned):
            failure = hook.report()

        sources_done = all(
            t.state is TaskState.FINISHED for t in self._source_tasks
        ) and all(feed.done for feed in self._feeds.values())
        # Data left in a queue that some consumer never drained means a
        # kernel stopped making progress while work remained (a deadlock
        # or an early-returning kernel), even if no writer is blocked.
        # A contained failure is reported as a failure, not a stall.
        undrained = sum(
            q.size_for(c)
            for q in self.queues.values()
            for c in range(q.n_consumers)
        )
        deadlocked = (
            bool(blocked_writers) or not sources_done or undrained > 0
        ) and failure is None
        diagnosis = ""
        deadlock_report = None
        if deadlocked:
            diagnosis = (
                f"graph stalled before consuming all input "
                f"({undrained} element(s) left undrained):\n"
                + blockage
            )
            # Wait-for-graph analysis: who waits on whom, and the exact
            # task cycle when the stall is a true circular deadlock.
            deadlock_report = analyze_waiters(wait_snap)
            if deadlock_report.has_cycle:
                diagnosis += (
                    "\n  wait-for cycle: "
                    + "; ".join(deadlock_report.cycle_strings())
                )

        result = RunResult(
            backend=spec.backend,
            graph_name=self.graph.name,
            outputs=self._sink_containers,
            wall_time=stats.wall_time,
            items_in=items_in,
            items_out=items_out,
            completed=not deadlocked and failure is None,
            context_switches=stats.context_switches,
            kernel_fraction=kernel_fraction(
                sum(stats.task_cpu_time.values()), stats.wall_time,
                stats.profiled),
            task_states=dict(stats.task_states),
            per_kernel_resumes=dict(stats.task_resumes),
            per_kernel_time=dict(stats.task_cpu_time),
            per_kernel_blocked=dict(stats.task_blocked_time),
            stall_diagnosis=diagnosis,
            failure=failure,
            deadlock=deadlock_report,
            raw=stats,
        )
        if spec.strict and deadlocked:
            raise DeadlockError(diagnosis or "graph stalled", report=result,
                                deadlock=deadlock_report)
        return result


class _ContainmentHook:
    """Scheduler failure hook implementing ``on_error="isolate"`` and
    ``"poison"`` (:mod:`repro.faults`).

    ``isolate`` cancels the failing task's dependent cone eagerly,
    computed from the serialized graph: every transitive consumer is
    cancelled, its queue cursors detached so surviving producers never
    block on a dead reader, and sinks fed exclusively by dead producers
    are ended partial.  ``poison`` is the lazy counterpart: the failing
    task's output streams are marked poisoned, downstream tasks drain
    what was already buffered, then observe the marker and terminate,
    cascading it one hop further per task.
    """

    def __init__(self, ctx: "RuntimeContext"):
        self.ctx = ctx
        self.policy = ctx.spec.on_error
        self.sched: Optional[CooperativeScheduler] = None
        self.failures: List[TaskFailure] = []
        self.cancelled: Set[str] = set()   # exact dependent cone (+ sinks)
        self.poisoned: List[str] = []      # tasks ended by poison, in order
        self.dead_instances: Set[str] = set()

    # -- plumbing -------------------------------------------------------------

    def _task(self, name: str):
        for t in self.sched.tasks:
            if t.name == name:
                return t
        return None

    def _detach_inputs(self, task_name: str) -> None:
        for q, cidx in self.ctx._task_inputs.get(task_name, ()):
            q.detach_consumer(cidx)

    def _cancel_task(self, name: str) -> None:
        t = self._task(name)
        if t is None or t.state in (
            TaskState.FINISHED, TaskState.FAILED, TaskState.CANCELLED,
        ):
            return
        t.state = TaskState.CANCELLED
        self.sched._close_task(t)
        self._detach_inputs(name)

    def _instances(self, task_name: str) -> Tuple[str, ...]:
        """Original instances a task carries: a substituted chain member
        stands for several, a source or sink task for itself."""
        return self.ctx._member_instances.get(task_name, (task_name,))

    def report(self) -> FailureReport:
        """The run's :class:`FailureReport`, from the shared rules."""
        session = self.ctx.fault_session
        return failure_report(
            self.ctx.graph, self.policy, self.failures, self.dead_instances,
            cancelled=self.cancelled,
            poisoned=tuple(self.poisoned),
            teardown_errors=[
                TeardownError(nm, err)
                for nm, err in self.sched.teardown_errors
            ],
            injected_faults=list(session.events)
            if session is not None else [],
        )

    # -- scheduler callbacks --------------------------------------------------

    def task_failed(self, task, exc) -> None:
        """A task raised an ordinary exception; contain per policy."""
        ctx = self.ctx
        failing = task.name
        self.failures.append(TaskFailure(
            task=failing, error=exc,
            injected=isinstance(exc, InjectedFaultError),
        ))
        # The dead task reads nothing more: release its cursors so
        # surviving producers never park on a reader that cannot drain.
        self._detach_inputs(failing)
        seeds = self._instances(failing)
        self.dead_instances.update(seeds)

        if self.policy == "poison":
            for q in ctx._task_outputs.get(failing, ()):
                q.poison(failing)
            return

        # isolate: cancel the exact dependent cone now.
        cone = dependent_cone(ctx.graph, seeds)
        self.dead_instances.update(cone)
        self.cancelled.update(cone)
        # Map cone instances to their scheduler tasks (a substituted
        # chain member carries several).
        for name in sorted({ctx._owner_task.get(i, i) for i in cone}):
            self._cancel_task(name)
        for sink in cancelled_sinks(ctx.graph, self.dead_instances):
            self.cancelled.add(sink)
            self._cancel_task(sink)

    def task_poisoned(self, task, exc) -> None:
        """A task observed a poisoned stream; cascade one hop."""
        name = task.name
        self.poisoned.append(name)
        self.dead_instances.update(self._instances(name))
        self._detach_inputs(name)
        origin = getattr(exc, "origin", "") or name
        for q in self.ctx._task_outputs.get(name, ()):
            q.poison(origin)
