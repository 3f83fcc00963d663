"""Deterministic replay from a schema-v2 observe event stream.

Two replay modes, both fed by the trace a run left behind
(``observe="events.jsonl"``):

* :func:`reconstruct_failure` rebuilds the :class:`FailureReport` of a
  failed run **without executing anything** — the failing kernel and
  its error come from ``task.fail`` events, the injected-fault record
  from ``fault.inject`` events, and the cancelled cone / sink
  completeness are recomputed from the graph structure.  This is the
  chaos-suite triage path: same failing kernel, same cone, no live
  fault re-injection.

* :func:`replay_run` re-executes the run with a
  :class:`~repro.faults.plan.FaultPlan` reconstructed from the trace's
  ``fault.inject`` events — every data-shaping fault (kernel raise,
  corrupt, drop, freeze) fires at exactly the recorded position, so a
  seeded chaos run reproduces bit-identical sinks and the same failure
  outcome from its event stream alone (the original seed is not
  needed).  The cooperative scheduler's FIFO ready order makes the
  re-execution deterministic.

Custom ``NetCorrupt.fn`` callables are not recoverable from a trace;
replayed corruptions use the default type-safe zero (what
``FaultPlan.random`` chaos plans inject).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from ..errors import CheckpointError

__all__ = [
    "plan_from_events",
    "reconstruct_failure",
    "replay_run",
]

#: Sentinel period that makes an index-pinned injection fire exactly
#: once: ``(index - offset) % every == 0`` only hits again one period
#: later, far beyond any real stream.
_ONCE = 10 ** 9


def _fault_events(events: Iterable[Any]) -> List[Any]:
    from ..observe.events import FAULT_INJECT

    return [ev for ev in events if ev.kind == FAULT_INJECT]


def plan_from_events(events: Iterable[Any]):
    """Rebuild a FaultPlan that re-fires the trace's recorded faults.

    ``kernel_raise`` events pin the kernel fault to the recorded resume
    count; ``corrupt``/``drop`` events pin one injection per recorded
    element index; ``freeze`` events restore the backpressure freeze
    (with its ``thaw`` release point when one was recorded).  ``delay``
    events are timing-only (they never change delivered data) and are
    not replayed.  Returns ``None`` for a trace with no faults.
    """
    from ..faults.plan import (FaultPlan, KernelFault, NetCorrupt, NetDrop,
                               QueueFreeze)

    injections: List[Any] = []
    thaws: Dict[str, int] = {}
    for ev in _fault_events(events):
        meta = ev.meta or {}
        if meta.get("fault") == "thaw" and ev.queue:
            thaws[ev.queue] = int(meta.get("after_gets", 0))
    for ev in _fault_events(events):
        meta = ev.meta or {}
        fault = meta.get("fault", "")
        if fault == "kernel_raise" and ev.task:
            # The event records the resume that raised, which is one
            # past the injection's at_resume threshold.
            at = max(1, int(meta.get("at_resume", 2)) - 1)
            injections.append(KernelFault(kernel=ev.task, at_resume=at))
        elif fault == "corrupt" and ev.queue:
            injections.append(NetCorrupt(
                net=ev.queue, every=_ONCE,
                offset=int(meta.get("index", 0))))
        elif fault == "drop" and ev.queue:
            injections.append(NetDrop(
                net=ev.queue, every=_ONCE,
                offset=int(meta.get("index", 0))))
        elif fault == "freeze" and ev.queue:
            injections.append(QueueFreeze(
                net=ev.queue,
                after_puts=int(meta.get("after_puts", 1)),
                release_after_gets=thaws.get(ev.queue)))
    if not injections:
        return None
    return FaultPlan(tuple(injections))


def reconstruct_failure(events: Iterable[Any], graph: Any):
    """Rebuild a :class:`FailureReport` from a failed run's trace.

    Purely structural — no kernel executes and no fault is re-injected.
    The cancelled cone and sink completeness come from the same rules
    the live backends use (:func:`repro.faults.cone.failure_report`),
    so the rebuilt report matches the original field for field.
    Returns ``None`` when the trace contains no ``task.fail`` event
    (the run did not fail).
    """
    from ..exec.api import resolve_graph
    from ..exec.optimize import member_instances
    from ..faults.cone import dependent_cone, failure_report
    from ..faults.report import TaskFailure
    from ..observe.events import TASK_FAIL

    g = resolve_graph(graph)
    evs = list(events)
    fails: List[Tuple[str, str]] = []
    for ev in evs:
        if ev.kind == TASK_FAIL and ev.task:
            fails.append((ev.task, (ev.meta or {}).get("error", "")))
    if not fails:
        return None

    injected_events = [
        {**({"task": ev.task} if ev.task else {}),
         **({"queue": ev.queue} if ev.queue else {}),
         **(ev.meta or {})}
        for ev in _fault_events(evs)
    ]
    injected_tasks = {
        d.get("task", "") for d in injected_events
        if d.get("fault") == "kernel_raise"
    }
    # Attribute failures to the failing tasks' names (kernel instances,
    # fused chain members, source/sink tasks).
    failures = [
        TaskFailure(
            task=name,
            error=CheckpointError(err or "task failed (from trace)"),
            injected=name in injected_tasks,
        )
        for name, err in fails
    ]
    # A substituted chain member fails under its joined name; the cone
    # starts from the instances it stands for, as in the live run.
    seeds = {inst for name, _ in fails for inst in member_instances(name)}
    cone = dependent_cone(g, seeds)
    run_id = next((ev.run for ev in evs if ev.run), "")
    return failure_report(
        g, "replay", failures, seeds | cone, cancelled=cone,
        injected_faults=injected_events, run_id=run_id,
    )


def replay_run(graph: Any, *io: Any, events: Iterable[Any],
               backend: str = "cgsim", on_error: str = "isolate",
               **options: Any):
    """Re-execute *graph* with the trace's faults pinned in place.

    Returns the :class:`~repro.exec.api.RunResult` of the replayed run;
    with the same inputs it reproduces the original sinks bit-for-bit
    and (for failed runs) the same failing kernel and cancelled cone —
    deterministic re-execution is the checkpoint layer's foundation and
    this is its direct test surface.
    """
    from ..exec.api import run_graph

    plan = plan_from_events(events)
    if plan is not None:
        options["faults"] = plan
        options.setdefault("on_error", on_error)
    return run_graph(graph, *io, backend=backend, **options)
