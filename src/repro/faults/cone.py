"""What a failure invalidates: the dependent cone and the sink fates.

Every containment path in the framework — the cooperative runtime's
``on_error="isolate"``/``"poison"``, the x86sim thread runner, the
``cgsim-mp`` manager's worker-loss handling, and trace replay
(:func:`repro.checkpoint.reconstruct_failure`) — answers the same
questions from the serialized graph and a *dead set* (the task and
instance names that failed, were cancelled, or were poisoned):

* the **dependent cone** — the kernel instances strictly downstream of
  the failing seed(s), whose outputs can no longer be trusted complete;
* a sink is **cancelled** when every producer of its net is dead — no
  further element can ever reach it;
* a sink is **partial** when any producer of its net is dead or the
  sink task itself died — it holds a prefix of the fault-free stream.

This module is the one implementation of those rules, and
:func:`failure_report` the one place a :class:`FailureReport`'s
``cancelled`` sinks and ``sink_status`` are derived.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Set

from ..core.graph import ComputeGraph
from .report import FailureReport

__all__ = [
    "dependent_cone",
    "cancelled_sinks",
    "sink_status",
    "failure_report",
]


def _source_task(gio) -> str:
    return f"source[{gio.io_index}]"


def _sink_task(gio) -> str:
    return f"sink[{gio.io_index}]"


def _consumers(graph: ComputeGraph, net_id: int) -> Set[str]:
    return {
        graph.kernels[ep.instance_idx].instance_name
        for ep in graph.net(net_id).consumers
    }


def _producers(graph: ComputeGraph, net_id: int) -> Set[str]:
    """Every task writing *net_id*: kernel instances plus the global
    source (``source[i]``) feeding it, if any."""
    prods = {
        graph.kernels[ep.instance_idx].instance_name
        for ep in graph.net(net_id).producers
    }
    prods.update(_source_task(gio) for gio in graph.inputs
                 if gio.net_id == net_id)
    return prods


def dependent_cone(graph: ComputeGraph,
                   seeds: Iterable[str]) -> Set[str]:
    """Instance names strictly downstream of *seeds* over stream
    dataflow — the dependent cone a failure cancels.

    Seeds are kernel instance names or global source tasks
    (``source[i]``, whose net's readers head the cone).  Seeds
    themselves are excluded; other names are ignored (a seed may be a
    sink task or a whole dead worker, not a kernel)."""
    seed_set = set(seeds)
    by_name = {k.instance_name: k for k in graph.kernels}
    cone: Set[str] = set()
    frontier = [by_name[n] for n in seed_set if n in by_name]
    for gio in graph.inputs:
        if _source_task(gio) in seed_set:
            for nm in _consumers(graph, gio.net_id) - seed_set - cone:
                cone.add(nm)
                frontier.append(by_name[nm])
    while frontier:
        inst = frontier.pop()
        for nxt in graph.downstream_instances(inst):
            nm = nxt.instance_name
            if nm not in cone and nm not in seed_set:
                cone.add(nm)
                frontier.append(nxt)
    return cone


def _stream_outputs(graph: ComputeGraph):
    for gio in graph.outputs:
        if not graph.net(gio.net_id).settings.runtime_parameter:
            yield gio


def cancelled_sinks(graph: ComputeGraph, dead: Set[str]) -> List[str]:
    """``sink[i]`` tasks every one of whose producers is in *dead* — no
    further element can ever reach them."""
    out = []
    for gio in _stream_outputs(graph):
        prods = _producers(graph, gio.net_id)
        if prods and prods <= dead:
            out.append(_sink_task(gio))
    return out


def sink_status(graph: ComputeGraph, dead: Set[str]) -> Dict[str, str]:
    """``{"sink[i]": "complete" | "partial"}`` for every stream output:
    partial when any producer of its net, or the sink task itself, is
    in *dead*."""
    status = {}
    for gio in _stream_outputs(graph):
        key = _sink_task(gio)
        hit = key in dead or bool(_producers(graph, gio.net_id) & dead)
        status[key] = "partial" if hit else "complete"
    return status


def failure_report(graph: ComputeGraph, policy: str, failures: List[Any],
                   dead: Iterable[str], *, cancelled: Iterable[str] = (),
                   cancel_sinks: bool = True,
                   **fields: Any) -> FailureReport:
    """Build the :class:`FailureReport` of a contained failure.

    *dead* is every task/instance name the failure took out (failed,
    cancelled, poisoned, or lost with a worker); *cancelled* is the
    cancelled cone the caller tore down.  Sinks cut off by the
    all-producers rule join ``cancelled`` unless the policy is
    ``"poison"`` (which cancels nothing) or *cancel_sinks* is false —
    cgsim-mp's sink tasks live in surviving workers that drain the
    released rings to end-of-stream, so they end partial, not
    cancelled.  Remaining *fields* pass through to the report.
    """
    dead = set(dead)
    cancelled = set(cancelled)
    if cancel_sinks and policy != "poison":
        cancelled.update(cancelled_sinks(graph, dead))
    return FailureReport(
        policy=policy,
        failures=list(failures),
        cancelled=tuple(sorted(cancelled)),
        sink_status=sink_status(graph, dead),
        **fields,
    )
