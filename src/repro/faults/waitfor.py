"""Wait-for-graph construction and cycle analysis for stall diagnosis.

When a run stalls — the cooperative scheduler's ready deque drains with
tasks still parked, a thread-per-kernel run times out, or the step-budget
watchdog trips — the parked tasks form a *wait-for graph*: a read-blocked
task waits for the producers of its queue, a write-blocked task waits for
its consumers.  A cycle in that graph is a true deadlock (every
participant waits on another participant); an acyclic wait set is
starvation (missing input, a dead peer, or a frozen queue).

This module is engine-agnostic: every backend reduces its parked tasks
to :class:`Waiter` records and :func:`analyze_waiters` does the rest.
It deliberately imports nothing from ``repro.core`` so the scheduler,
runtime, and x86sim runner can all depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Waiter", "DeadlockReport", "analyze_waiters"]


@dataclass(frozen=True)
class Waiter:
    """One parked task and the queue operation it is blocked on."""

    task: str                       # kernel/member/source/sink name
    op: str                         # "read" | "write"
    queue: str                      # net name of the queue parked on
    kind: str = "kernel"            # task role
    fill: Optional[int] = None      # elements visible to the waiter
    capacity: Optional[int] = None
    peers: Tuple[str, ...] = ()     # who must act to unblock this waiter

    def describe(self) -> str:
        fill = "?" if self.fill is None else str(self.fill)
        cap = "?" if self.capacity is None else str(self.capacity)
        peer_txt = ", ".join(self.peers) if self.peers else (
            "a producer" if self.op == "read" else "a consumer"
        )
        return (
            f"{self.task} ({self.kind}) waiting to {self.op} {self.queue!r} "
            f"[fill {fill}/{cap}; waits on: {peer_txt}]"
        )


@dataclass
class DeadlockReport:
    """Structured outcome of a wait-for-graph analysis.

    ``cycles`` lists every elementary wait-for cycle, each as a tuple of
    task names starting at the lexicographically smallest participant
    (deterministic across runs).  An empty ``cycles`` with a non-empty
    ``waiters`` list means starvation rather than circular deadlock.
    """

    kind: str = "deadlock"          # "deadlock" | "livelock"
    waiters: List[Waiter] = field(default_factory=list)
    cycles: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def has_cycle(self) -> bool:
        return bool(self.cycles)

    def cycle_strings(self) -> List[str]:
        """Each cycle rendered ``a -> b -> a`` (closing the loop)."""
        return [
            " -> ".join(cyc + (cyc[0],)) for cyc in self.cycles
        ]

    def describe(self) -> str:
        lines = [f"wait-for analysis ({self.kind}):"]
        for s in self.cycle_strings():
            lines.append(f"  cycle: {s}")
        if not self.cycles and self.waiters:
            lines.append(
                "  no wait-for cycle: starvation (missing input, a "
                "finished peer, or a frozen queue)"
            )
        for w in self.waiters:
            lines.append("  " + w.describe())
        if not self.waiters:
            lines.append("  (no parked tasks)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form (the ``repro.serve`` wire format)."""
        return {
            "kind": self.kind,
            "cycles": [list(c) for c in self.cycles],
            "waiters": [
                {"task": w.task, "op": w.op, "queue": w.queue,
                 "role": w.kind, "fill": w.fill, "capacity": w.capacity,
                 "peers": list(w.peers)}
                for w in self.waiters
            ],
        }


def _find_cycles(edges: Dict[str, Tuple[str, ...]]) -> List[Tuple[str, ...]]:
    """Elementary cycles of a small digraph, each reported once.

    Only cycles whose lexicographically smallest node is the DFS root
    are recorded, which both deduplicates rotations and makes the
    output order deterministic.  Graphs here are task-sized (tens of
    nodes), so the simple bounded DFS is plenty.
    """
    cycles: List[Tuple[str, ...]] = []

    def dfs(node: str, start: str, path: List[str], on_path: set) -> None:
        for nxt in edges.get(node, ()):
            if nxt == start:
                cycles.append(tuple(path))
            elif nxt > start and nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                dfs(nxt, start, path, on_path)
                path.pop()
                on_path.discard(nxt)

    for start in sorted(edges):
        dfs(start, start, [start], {start})
    return cycles


def analyze_waiters(waiters: Sequence[Waiter],
                    kind: str = "deadlock") -> DeadlockReport:
    """Build the wait-for graph over *waiters* and find its cycles.

    Edges run from each parked task to the peers that must act to
    unblock it, restricted to peers that are themselves parked (a
    running or finished peer is not part of any deadlock).
    """
    ws = list(waiters)
    nodes = {w.task for w in ws}
    edges: Dict[str, Tuple[str, ...]] = {}
    for w in ws:
        targets = sorted({p for p in w.peers if p in nodes and p != w.task})
        if targets:
            edges[w.task] = tuple(targets)
    return DeadlockReport(kind=kind, waiters=ws, cycles=_find_cycles(edges))
