"""Resume: deterministic re-execution verified against a checkpoint.

``run_graph(resume_from=...)`` restores logical progress on **any**
backend by re-running the graph from its original inputs and checking
the re-run against the checkpoint:

1. the graph's structural digest must match the checkpoint's (resuming
   a different graph is an error, not a divergence);
2. ``KernelFault`` injections that already fired before the checkpoint
   are suppressed from the ``faults=`` plan — the transient-fault
   semantics that let ``RetryPolicy(resume=True)`` complete a run the
   first attempt lost to an injected crash;
3. the run executes into *scratch* containers (the caller's sinks are
   untouched until verification passes);
4. the first ``delivered`` elements of each scratch sink must be
   bit-identical to the checkpoint's recorded prefix digest — any
   mismatch raises :class:`~repro.errors.CheckpointDivergence`;
5. the verified data (checkpoint prefix + live suffix) is spliced into
   the caller's containers.

Because the contract is logical (delivered prefixes, not coroutine
frames), a checkpoint written by cgsim resumes on cgsim-mp and vice
versa — the paper's simulate-everywhere portability extended to crash
recovery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import CheckpointDivergence, CheckpointError
from .format import (
    Checkpoint,
    SinkSnapshot,
    graph_digest,
    prefix_digest,
    value_digest,
)

__all__ = ["ResumeState", "value_digest"]


class ResumeState:
    """One loaded checkpoint driving a resumed execution."""

    def __init__(self, checkpoint: Checkpoint, path: str = "") -> None:
        self.checkpoint = checkpoint
        self.path = path
        #: Kernel names whose already-fired KernelFaults were suppressed.
        self.suppressed: List[str] = []

    @classmethod
    def load(cls, spec: Any) -> "ResumeState":
        """Accept a checkpoint file path or a ready :class:`Checkpoint`."""
        if isinstance(spec, Checkpoint):
            return cls(spec)
        if isinstance(spec, (str, Path)):
            return cls(Checkpoint.load(spec), path=str(spec))
        raise CheckpointError(
            "resume_from= must be a checkpoint file path or a Checkpoint "
            f"(got {type(spec).__name__})"
        )

    # -- pre-run ----------------------------------------------------------

    def verify_graph(self, graph: Any) -> None:
        """The checkpoint must belong to this graph structure."""
        actual = graph_digest(graph)
        expect = self.checkpoint.graph_digest
        if expect and actual != expect:
            raise CheckpointError(
                f"checkpoint {self.path or '<in-memory>'} belongs to graph "
                f"{self.checkpoint.graph_name!r} (digest {expect[:12]}); "
                f"cannot resume a graph with digest {actual[:12]}"
            )

    def filter_faults(self, faults: Any) -> Any:
        """Drop KernelFaults that fired before the checkpoint.

        An injected kernel crash behaves as a *transient* fault across a
        resume: the original run already paid it, so the resumed
        deterministic re-execution must not re-inject it (the acceptance
        contract — the resumed run matches the unfaulted run).  Data
        faults (NetCorrupt/NetDrop) stay: they deterministically shaped
        the recorded prefix, and removing them would diverge.
        """
        if faults is None:
            return None
        from ..faults.plan import FaultPlan, KernelFault

        plan = FaultPlan.coerce(faults)
        if plan is None:
            return None
        fired = {
            str(ev.get("task", ""))
            for ev in self.checkpoint.fired_faults
            if ev.get("fault") == "kernel_raise"
        }
        fired.discard("")
        if not fired:
            return plan
        kept = tuple(
            inj for inj in plan.injections
            if not (isinstance(inj, KernelFault) and inj.kernel in fired)
        )
        self.suppressed = sorted(
            inj.kernel for inj in plan.injections
            if isinstance(inj, KernelFault) and inj.kernel in fired
        )
        if len(kept) == len(plan.injections):
            return plan
        return FaultPlan(kept, seed=plan.seed)

    # -- scratch I/O ------------------------------------------------------

    def make_scratch(self, sinks: Tuple[Any, ...]) -> List[Any]:
        """Fresh containers mirroring the caller's sinks; the re-run
        writes here so the caller's data is untouched on divergence."""
        from ..core.sources_sinks import RuntimeParam

        scratch: List[Any] = []
        for sink in sinks:
            if isinstance(sink, list):
                scratch.append([])
            elif isinstance(sink, np.ndarray):
                scratch.append(np.empty_like(sink))
            elif isinstance(sink, RuntimeParam):
                scratch.append(RuntimeParam())
            else:
                # Unknown container: let the binder produce its usual
                # error by passing the original straight through.
                scratch.append(sink)
        return scratch

    # -- post-run verify + splice ----------------------------------------

    def _snapshot_for(self, io_index: int) -> Optional[SinkSnapshot]:
        for snap in self.checkpoint.sinks:
            if snap.io_index == io_index:
                return snap
        return None

    def splice(self, sinks: Tuple[Any, ...], scratch: List[Any],
               completed: bool) -> Dict[str, Any]:
        """Verify each scratch sink against the checkpoint prefix and
        write the caller's containers.

        ``completed`` False (the resumed run itself failed or stalled)
        relaxes verification to whatever prefix actually materialised;
        the caller still receives at least the checkpoint's data.
        """
        from ..core.sources_sinks import RuntimeParam

        verified = 0
        for pos, (sink, live) in enumerate(zip(sinks, scratch)):
            snap = self._snapshot_for(pos)
            if isinstance(sink, list):
                verified += self._splice_list(pos, snap, sink, live,
                                              completed)
            elif isinstance(sink, np.ndarray):
                verified += self._splice_array(pos, snap, sink, live,
                                               completed)
            elif isinstance(sink, RuntimeParam):
                self._splice_rtp(snap, sink, live)
        return {
            "resumed_from": self.path,
            "verified_sinks": verified,
            "suppressed_faults": list(self.suppressed),
        }

    def _splice_list(self, pos: int, snap: Optional[SinkSnapshot],
                     sink: list, live: list, completed: bool) -> int:
        if snap is None or snap.delivered == 0:
            sink.extend(live)
            return 0
        k = snap.delivered
        if len(live) >= k:
            if snap.digest and prefix_digest(live[:k]) != snap.digest:
                raise CheckpointDivergence(self._diverged(pos, k))
            sink.extend(live)
            return 1
        if completed:
            raise CheckpointDivergence(
                self._diverged(pos, k)
                + f" (re-run delivered only {len(live)} items)"
            )
        # The resumed run failed before reaching the checkpoint point:
        # verify what exists, then restore the full checkpointed prefix.
        decoded = self.checkpoint.decoded_sink(snap)
        if live and value_digest(live) != value_digest(decoded[:len(live)]):
            raise CheckpointDivergence(self._diverged(pos, len(live)))
        sink.extend(decoded)
        return 1

    def _splice_array(self, pos: int, snap: Optional[SinkSnapshot],
                      sink: np.ndarray, live: np.ndarray,
                      completed: bool) -> int:
        decoded = None
        flat_len = 0
        if snap is not None and snap.data is not None:
            from ..serve.wire import decode_value

            decoded = decode_value(snap.data)
            if isinstance(decoded, np.ndarray):
                flat_len = int(decoded.size)
        ok = 0
        if flat_len and completed:
            live_prefix = live.reshape(-1)[:flat_len]
            if snap.digest and value_digest(live_prefix) != snap.digest:
                raise CheckpointDivergence(self._diverged(pos, flat_len))
            ok = 1
        # Caller gets the live data; the (verified-identical) checkpoint
        # prefix overwrites the head so a failed re-run still restores
        # everything the checkpoint guaranteed.
        np.copyto(sink, live)
        if decoded is not None and flat_len:
            sink.reshape(-1)[:flat_len] = decoded.reshape(-1)
        return ok

    def _splice_rtp(self, snap: Optional[SinkSnapshot],
                    sink: Any, live: Any) -> None:
        if getattr(live, "value", None) is not None:
            sink.value = live.value
        elif snap is not None and snap.data is not None:
            from ..serve.wire import decode_value

            sink.value = decode_value(snap.data)

    def _diverged(self, pos: int, n: int) -> str:
        return (
            f"resumed run diverged from checkpoint "
            f"{self.path or '<in-memory>'} on output {pos}: the first "
            f"{n} elements do not match the recorded prefix digest — "
            "the graph, its inputs, or an active fault plan changed "
            "between the original run and the resume"
        )
