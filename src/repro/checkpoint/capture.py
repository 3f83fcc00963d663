"""Capture driver: turns a policy plus a runtime state probe into
checkpoint files.

The session is engine-agnostic: the run core
(:class:`repro.exec.api.RunLifecycle`) builds one per checkpointed run
on every engine and supplies ``state_fn`` — a zero-argument callable
returning the engine's logical run state at the current quiescent
point — and the session handles triggers, sequencing, atomic writes,
pruning, and observe events.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .format import (
    Checkpoint,
    CheckpointInfo,
    default_checkpoint_name,
    fresh_timestamp,
    graph_digest,
)
from .policy import CheckpointPolicy

__all__ = ["CheckpointSession"]


class CheckpointSession:
    """Drives checkpoint capture for one run.

    ``state_fn`` must return a dict with keys ``sinks`` (list of
    :class:`~repro.checkpoint.format.SinkSnapshot`), ``sources``,
    ``items_in``, ``items_out``, ``queue_fills``, ``fired_faults``, and
    ``step`` where the engine has no scheduler step hook (cgsim-mp
    records -1).  ``seq`` numbers the first capture: a run resumed from
    a checkpoint continues after that checkpoint's number.
    """

    def __init__(self, policy: CheckpointPolicy, graph: Any, backend: str,
                 run_id: str, state_fn: Callable[[], Dict[str, Any]],
                 tracer: Any = None, seq: int = 0) -> None:
        self.policy = policy
        self.graph_name = graph.name
        self.graph_digest = graph_digest(graph)
        self.state_fn = state_fn
        self.backend = backend
        self.run_id = policy.run_id or run_id
        self.options = dict(policy.options)
        self.tracer = tracer
        self.paths: List[str] = []
        self.last_path: str = ""
        self.last_reason: str = ""
        self.seq = self._first_seq = seq
        self._last_step = 0
        self._last_items = 0
        self._cur_step = 0

    # -- scheduler hook ---------------------------------------------------

    def make_step_hook(self, items_fn: Callable[[], int]
                       ) -> Optional[Callable[[int], None]]:
        """Per-context-switch hook, or ``None`` when no in-run trigger
        (pure on-fault/at-end policies pay zero scheduler overhead);
        ``every_items`` reads the cheap counter *items_fn*."""
        if not self.policy.periodic:
            return None

        policy = self.policy
        every_steps = policy.every_steps
        every_items = policy.every_items
        trigger = policy.trigger

        def hook(steps: int) -> None:
            self._cur_step = steps
            if trigger is not None and trigger.pending():
                self.capture("explicit", step=steps)
                trigger.clear()
                return
            if every_steps and steps - self._last_step >= every_steps:
                self.capture("interval", step=steps)
                return
            if every_items:
                done = items_fn()
                if done - self._last_items >= every_items:
                    self.capture("interval", step=steps)

        return hook

    # -- capture ----------------------------------------------------------

    def capture(self, reason: str, step: Optional[int] = None) -> str:
        """Snapshot the run state and atomically write one checkpoint
        file.  Returns the path written."""
        state = self.state_fn()
        at_step = state.get("step", self._cur_step) if step is None \
            else step
        ckpt = Checkpoint(
            graph_name=self.graph_name,
            graph_digest=self.graph_digest,
            backend=self.backend,
            run_id=self.run_id,
            reason=reason,
            seq=self.seq,
            step=at_step,
            items_in=int(state.get("items_in", 0)),
            items_out=int(state.get("items_out", 0)),
            sinks=list(state.get("sinks", [])),
            sources=dict(state.get("sources", {})),
            fired_faults=list(state.get("fired_faults", [])),
            queue_fills=dict(state.get("queue_fills", {})),
            options=self.options,
            wall_ts=fresh_timestamp(),
        )
        path = Path(self.policy.dir) / default_checkpoint_name(
            self.run_id, self.seq)
        written = ckpt.save(path)
        self.seq += 1
        self.paths.append(written)
        self.last_path = written
        self.last_reason = reason
        self._last_step = at_step
        self._last_items = ckpt.items_out
        if self.tracer is not None:
            self.tracer.checkpoint_capture(
                path=written, reason=reason, step=at_step)
        self._prune()
        return written

    def capture_on_fault(self) -> str:
        """On-fault capture if the policy asks for one ('' otherwise)."""
        if not self.policy.on_fault:
            return ""
        return self.capture("on_fault")

    def capture_at_end(self) -> str:
        """End-of-run capture if the policy asks for one ('' otherwise)."""
        if not self.policy.at_end:
            return ""
        return self.capture("final")

    def _prune(self) -> None:
        keep = self.policy.keep
        if keep <= 0:
            return
        while len(self.paths) > keep:
            stale = self.paths.pop(0)
            try:
                os.unlink(stale)
            except OSError:
                pass  # already gone; pruning is best-effort

    # -- reporting --------------------------------------------------------

    def info(self) -> Optional[CheckpointInfo]:
        """Summary for run reports (``None`` when nothing was captured)."""
        if not self.last_path:
            return None
        return CheckpointInfo(
            last=self.last_path,
            reason=self.last_reason,
            count=self.seq - self._first_seq,
            paths=list(self.paths),
        )
