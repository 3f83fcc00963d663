"""Cooperative coroutine scheduler: cgsim's execution engine (§3.8).

All kernels of a graph (plus the global-I/O source and sink coroutines)
run as cooperatively multitasked coroutines on **one OS thread**.  The
scheduler keeps a FIFO ready-deque; a task runs until its next stream
operation blocks, at which point it parks itself on the corresponding
queue's waiter list.  Queue operations wake waiters back onto the ready
deque.  Execution proceeds "until no coroutines can continue execution" —
there is deliberately no explicit termination condition, matching the
paper (§3.8, footnote 2).

Design notes
------------
* The *fast path* of a stream access never reaches the scheduler: every
  port op is a ``types.coroutine`` generator that tries the queue inline
  and yields its park command only when it must block.
  Context switches therefore happen only on genuinely full/empty queues.
  This is what keeps synchronisation overhead at the sub-0.1% level the
  paper measures with perf (§5.2).
* ``profile=True`` timestamps every resume to split wall time into
  per-task kernel time vs scheduler overhead, reproducing the §5.2
  profiling experiment.  It costs two ``perf_counter()`` calls per
  context switch and is off by default.
"""

from __future__ import annotations

import enum
import types
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..errors import DeadlockError, GraphRuntimeError, PoisonSignal
from ..faults.waitfor import Waiter, analyze_waiters
from .result import kernel_fraction

__all__ = [
    "TaskState",
    "Task",
    "CooperativeScheduler",
    "SchedulerStats",
    "sched_yield",
]


class TaskState(enum.Enum):
    """Lifecycle states of a scheduled coroutine task."""

    READY = "ready"
    RUNNING = "running"
    BLOCKED_READ = "blocked-read"
    BLOCKED_WRITE = "blocked-write"
    FINISHED = "finished"
    FAILED = "failed"
    CANCELLED = "cancelled"


class Task:
    """One coroutine under scheduler control."""

    __slots__ = (
        "name", "coro", "kind", "state", "blocked_on",
        "resumes", "cpu_time", "blocked_time", "park_ts", "error",
    )

    def __init__(self, name: str, coro, kind: str = "kernel"):
        self.name = name
        self.coro = coro
        self.kind = kind  # "kernel" | "source" | "sink"
        self.state = TaskState.READY
        self.blocked_on: Optional[Tuple[Any, str, int]] = None  # (queue, op, idx)
        self.resumes = 0
        self.cpu_time = 0.0
        self.blocked_time = 0.0    # only populated when profiling/tracing
        self.park_ts = 0.0         # timestamp of the open park, 0.0 if none
        self.error: Optional[BaseException] = None

    def __repr__(self):
        return f"<Task {self.name} {self.kind} {self.state.value}>"


@types.coroutine
def sched_yield():
    """``await sched_yield()`` — give other kernels a turn: the current
    task is rescheduled at the back of the ready deque.  Compute-only
    kernels use this to stay cooperative."""
    yield ("yield", None, -1)


@dataclass
class SchedulerStats:
    """Aggregate execution statistics for one scheduler run."""

    context_switches: int = 0
    wall_time: float = 0.0
    kernel_time: float = 0.0       # only populated when profiling
    overhead_time: float = 0.0     # only populated when profiling
    batch_carried_items: int = 0   # partial batch progress across parks
    profiled: bool = False
    task_states: Dict[str, str] = field(default_factory=dict)
    task_resumes: Dict[str, int] = field(default_factory=dict)
    task_cpu_time: Dict[str, float] = field(default_factory=dict)
    task_blocked_time: Dict[str, float] = field(default_factory=dict)

    @property
    def kernel_fraction(self) -> float:
        """Fraction of profiled wall time spent inside task code (see
        :func:`repro.core.result.kernel_fraction`)."""
        return kernel_fraction(self.kernel_time, self.wall_time,
                               self.profiled)


class CooperativeScheduler:
    """FIFO cooperative scheduler over framework coroutines.

    Coroutines communicate with the scheduler through yielded commands
    yielded by the port ops:

    ``("rd", queue, consumer_idx)``
        park on ``queue.read_waiters[consumer_idx]`` until data arrives.
    ``("wr", queue, -1)``
        park on ``queue.write_waiters`` until a slot frees.
    ``("yield", None, -1)``
        voluntary reschedule.

    Batched port operations extend the command with a fourth field, the
    **partial-progress count**: ``("rd", queue, idx, n_collected)`` /
    ``("wr", queue, -1, n_delivered)`` report how many elements of the
    batch already moved before the queue forced a park.  The scheduler
    aggregates these into :attr:`SchedulerStats.batch_carried_items`;
    three-field commands remain valid (per-element fast path pays no
    tuple growth).
    """

    def __init__(self, profile: bool = False, tracer=None,
                 failure_hook=None):
        self.tasks: List[Task] = []
        self.ready: deque = deque()
        self.profile = profile
        #: optional :class:`repro.observe.Tracer`; when set, every
        #: context switch emits task.start/resume/suspend/finish events
        #: and per-task blocked time is measured.  The fast path (stream
        #: ops that never park) is untouched either way.
        self.tracer = tracer
        #: optional containment hook (repro.faults): when set, a task
        #: raising an ordinary Exception is handed to the hook
        #: (``task_failed``/``task_poisoned``) and the run continues
        #: instead of cancelling everything and raising.
        self.failure_hook = failure_hook
        #: optional per-context-switch hook (repro.checkpoint): called
        #: with the running step count after each task parks/finishes —
        #: every call site is a quiescent point (no coroutine mid-step),
        #: so the hook may capture a consistent logical snapshot.  One
        #: ``is not None`` check per switch when unset.
        self.step_hook = None
        #: secondary errors raised by coroutines during teardown (a
        #: kernel intercepting GeneratorExit must not mask the primary
        #: failure); list of ``(task_name, exception)``.
        self.teardown_errors: List[Tuple[str, BaseException]] = []
        self._current: Optional[Task] = None
        self._started = False

    def running(self) -> str:
        """The task being stepped, ``''`` between steps (published in
        profile mode only): what a stack sample is attributed to."""
        task = self._current
        return "" if task is None else task.name

    # -- task management -----------------------------------------------------------

    def spawn(self, name: str, coro, kind: str = "kernel") -> Task:
        """Register a coroutine; it starts suspended and pending (§3.8)."""
        if self._started:
            raise GraphRuntimeError(
                "cannot spawn tasks after the scheduler has started"
            )
        task = Task(name, coro, kind)
        self.tasks.append(task)
        self.ready.append(task)
        return task

    def wake_all(self, waiters: List[Task]) -> None:
        """Move every parked task in *waiters* to the ready deque.

        Called by queues on puts/gets.  Spurious wakeups are harmless:
        port ops re-check their queue and re-park if still blocked.
        """
        tracer = self.tracer
        if tracer is not None and waiters:
            by = self._current.name if self._current is not None else ""
            for task in waiters:
                if task.state in (TaskState.BLOCKED_READ,
                                  TaskState.BLOCKED_WRITE):
                    b = task.blocked_on
                    tracer.task_unpark(
                        task.name,
                        queue=(b[0].name or "") if b else "",
                        by=by,
                    )
        for task in waiters:
            if task.state in (TaskState.BLOCKED_READ, TaskState.BLOCKED_WRITE):
                task.state = TaskState.READY
                task.blocked_on = None
                self.ready.append(task)
        waiters.clear()

    # -- execution -------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> SchedulerStats:
        """Drive tasks until no coroutine can continue (§3.8).

        Returns aggregate stats; inspect task states afterwards to tell a
        clean drain from a stall.  ``max_steps`` bounds context switches
        as a runaway guard (raises GraphRuntimeError when exceeded).
        """
        self._started = True
        stats = SchedulerStats(profiled=self.profile)
        ready = self.ready
        profile = self.profile
        tracer = self.tracer
        step_hook = self.step_hook
        # Tracing implies per-task time measurement (busy/blocked), but
        # cpu_time/kernel_fraction stay profile-only.
        measure = profile or tracer is not None
        steps = 0
        t_run0 = perf_counter()

        while ready:
            if step_hook is not None:
                # Between context switches no coroutine is mid-step, so
                # this is a consistent cut for checkpoint capture.
                step_hook(steps)
            task = ready.popleft()
            if task.state is not TaskState.READY:
                continue  # cancelled/finished while queued
            task.state = TaskState.RUNNING
            task.resumes += 1
            steps += 1
            if max_steps is not None and steps > max_steps:
                report = analyze_waiters(self.wait_snapshot(),
                                         kind="livelock")
                self._cancel_all()
                raise DeadlockError(
                    f"scheduler exceeded max_steps={max_steps}; the graph "
                    f"appears to livelock\n" + report.describe(),
                    deadlock=report,
                )
            try:
                if measure:
                    self._current = task
                    if tracer is not None:
                        if task.resumes == 1:
                            tracer.task_start(task.name, role=task.kind)
                        else:
                            tracer.task_resume(task.name)
                    t0 = perf_counter()
                    if task.park_ts:
                        task.blocked_time += t0 - task.park_ts
                        task.park_ts = 0.0
                    cmd = task.coro.send(None)
                    t1 = perf_counter()
                    if profile:
                        task.cpu_time += t1 - t0
                else:
                    cmd = task.coro.send(None)
            except StopIteration:
                if profile:  # the final slice is task time too
                    task.cpu_time += perf_counter() - t0
                task.state = TaskState.FINISHED
                if tracer is not None:
                    tracer.task_finish(task.name)
                continue
            except BaseException as exc:  # kernel raised
                hook = self.failure_hook
                if hook is not None and isinstance(exc, Exception):
                    # Containment path (repro.faults): record, hand the
                    # task to the policy hook, keep the run going.
                    task.error = exc
                    if isinstance(exc, PoisonSignal):
                        task.state = TaskState.CANCELLED
                        if tracer is not None:
                            tracer.task_fail(task.name, exc)
                        hook.task_poisoned(task, exc)
                    else:
                        task.state = TaskState.FAILED
                        if tracer is not None:
                            tracer.task_fail(task.name, exc)
                        hook.task_failed(task, exc)
                    continue
                task.state = TaskState.FAILED
                task.error = exc
                if tracer is not None:
                    tracer.task_fail(task.name, exc)
                self._cancel_all()
                raise GraphRuntimeError(
                    f"task {task.name!r} raised "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

            op, queue, idx = cmd[0], cmd[1], cmd[2]
            carried = cmd[3] if len(cmd) > 3 else 0
            if carried:  # batched op parked with partial progress
                stats.batch_carried_items += carried
            if op == "rd":
                # Re-check under "lock" (single thread, so: after send
                # returned).  A producer may have pushed between the failed
                # try_get and the yield reaching us only in re-entrant
                # scenarios; the op retries on resume either way.
                task.state = TaskState.BLOCKED_READ
                task.blocked_on = (queue, "read", idx)
                queue.read_waiters[idx].append(task)
                if measure:
                    task.park_ts = t1
                    if tracer is not None:
                        tracer.task_suspend(task.name, queue=queue.name or "",
                                            op="read", n=carried)
            elif op == "wr":
                task.state = TaskState.BLOCKED_WRITE
                task.blocked_on = (queue, "write", -1)
                queue.write_waiters.append(task)
                if measure:
                    task.park_ts = t1
                    if tracer is not None:
                        tracer.task_suspend(task.name, queue=queue.name or "",
                                            op="write", n=carried)
            elif op == "yield":
                task.state = TaskState.READY
                ready.append(task)
                if tracer is not None:
                    tracer.task_suspend(task.name, op="yield")
            else:  # pragma: no cover - defensive
                task.state = TaskState.FAILED
                self._cancel_all()
                raise GraphRuntimeError(
                    f"task {task.name!r} yielded unknown scheduler command "
                    f"{op!r}"
                )

        self._current = None
        t_end = perf_counter()
        stats.wall_time = t_end - t_run0
        stats.context_switches = steps
        if profile:
            stats.kernel_time = sum(t.cpu_time for t in self.tasks)
            stats.overhead_time = max(0.0, stats.wall_time - stats.kernel_time)
        for t in self.tasks:
            if measure and t.park_ts:
                # Still parked when the run drained (deadlocked peers or
                # cancelled-at-end kernels): charge the wait so far.
                t.blocked_time += t_end - t.park_ts
                t.park_ts = 0.0
            stats.task_states[t.name] = t.state.value
            stats.task_resumes[t.name] = t.resumes
            if profile:
                stats.task_cpu_time[t.name] = t.cpu_time
            if measure:
                stats.task_blocked_time[t.name] = t.blocked_time
        return stats

    # -- teardown -------------------------------------------------------------------

    def _close_task(self, t: Task) -> None:
        """Close one coroutine, never letting a kernel that intercepts
        ``GeneratorExit`` (or raises during cleanup) mask the primary
        exception in flight — secondary errors are collected on
        :attr:`teardown_errors` and reported, not raised."""
        try:
            t.coro.close()
        except BaseException as exc:
            self.teardown_errors.append((t.name, exc))

    def _cancel_all(self) -> None:
        for t in self.tasks:
            if t.state in (
                TaskState.READY, TaskState.BLOCKED_READ,
                TaskState.BLOCKED_WRITE, TaskState.RUNNING,
            ):
                t.state = TaskState.CANCELLED
                self._close_task(t)

    def close(self) -> None:
        """Terminate all remaining coroutines (RuntimeContext teardown,
        §3.8: kernels are terminated once execution completes)."""
        for t in self.tasks:
            if t.state in (
                TaskState.READY, TaskState.BLOCKED_READ,
                TaskState.BLOCKED_WRITE,
            ):
                t.state = TaskState.CANCELLED
                self._close_task(t)

    # -- introspection ----------------------------------------------------------------

    def blocked_tasks(self) -> List[Task]:
        return [
            t for t in self.tasks
            if t.state in (TaskState.BLOCKED_READ, TaskState.BLOCKED_WRITE)
        ]

    def wait_snapshot(self) -> List[Waiter]:
        """Structured view of every parked task for wait-for-graph
        analysis (:func:`repro.faults.analyze_waiters`)."""
        out: List[Waiter] = []
        for t in self.blocked_tasks():
            queue, op, idx = t.blocked_on
            capacity = getattr(queue, "capacity", None)
            if op == "read":
                fill = queue.size_for(idx) \
                    if 0 <= idx < queue.n_consumers else 0
                peers = tuple(getattr(queue, "producer_names", ()))
            else:
                free = getattr(queue, "free_slots", None)
                fill = capacity - free \
                    if capacity is not None and free is not None else None
                peers = tuple(getattr(queue, "consumer_names", ()))
            out.append(Waiter(
                task=t.name,
                op=op,
                queue=queue.name or "",
                kind=t.kind,
                fill=fill,
                capacity=capacity,
                peers=peers,
            ))
        return out

    def describe_blockage(self) -> str:
        """Human-readable wait diagnosis for deadlock reports.

        Each line names the parked task, the operation and queue it is
        parked on, the queue's fill level, and the peer endpoints on the
        other side of that queue (who would have to act to unblock it).
        """
        lines = []
        for t in self.blocked_tasks():
            queue, op, idx = t.blocked_on
            qname = queue.name or "queue"
            capacity = getattr(queue, "capacity", None)
            if op == "read":
                fill = queue.size_for(idx) if 0 <= idx < queue.n_consumers \
                    else 0
                peers = list(getattr(queue, "producer_names", ()))
                waiting_for = "a producer"
            else:
                free = getattr(queue, "free_slots", None)
                fill = capacity - free if (
                    capacity is not None and free is not None
                ) else "?"
                peers = list(getattr(queue, "consumer_names", ()))
                waiting_for = "a consumer"
            detail = f"fill {fill}/{capacity}" if capacity is not None \
                else "fill ?"
            peer_txt = ", ".join(peers) if peers else waiting_for
            lines.append(
                f"  {t.name} ({t.kind}) blocked on {op} of "
                f"{qname} [{detail}; peers: {peer_txt}]"
            )
        return "\n".join(lines) if lines else "  (no blocked tasks)"
