"""Checkpoint policy: when to capture, and where.

The ``checkpoint=`` run option accepts a directory path (string /
``Path``), a dict of :class:`CheckpointPolicy` fields, or a policy
instance.  Triggers compose:

* ``every_steps=N`` — capture each time the scheduler has advanced N
  context switches since the last capture (interval checkpointing);
* ``every_items=N`` — capture each time N new elements have been
  delivered to sinks (checked cheaply every few scheduler steps);
* ``on_fault=True`` — capture when the run fails, so a retry or a
  later ``resume_from=`` starts from the failure point (default on);
* ``at_end=True`` — capture once after a successful run completes;
* ``trigger`` — a :class:`CheckpointTrigger` another thread can fire
  for an explicit capture (serve's ``POST /runs/<id>/checkpoint``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import CheckpointError

__all__ = ["CheckpointPolicy", "CheckpointTrigger", "coerce_checkpoint"]


class CheckpointTrigger:
    """Thread-safe explicit-capture request flag.

    ``request()`` may be called from any thread; the run's scheduler
    hook observes it at the next quiescent point, captures, and clears
    it.  ``fired`` counts completed explicit captures."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.fired = 0

    def request(self) -> None:
        self._event.set()

    def pending(self) -> bool:
        return self._event.is_set()

    def clear(self) -> None:
        self._event.clear()
        self.fired += 1


@dataclass
class CheckpointPolicy:
    """Where and when checkpoints are captured for one run."""

    dir: str
    every_steps: int = 0
    every_items: int = 0
    on_fault: bool = True
    at_end: bool = False
    #: Keep only the newest N checkpoint files of this run (0 = all).
    keep: int = 0
    #: Stamped by run_graph so file names embed the run id.
    run_id: str = ""
    trigger: Optional[CheckpointTrigger] = field(default=None, repr=False)
    #: The run's JSON-safe options, stamped when they are bound
    #: (``RunSpec.to_json``); recorded in every checkpoint.
    options: Dict[str, Any] = field(default_factory=dict, init=False,
                                    repr=False)

    def __post_init__(self) -> None:
        if not self.dir:
            raise CheckpointError(
                "checkpoint policy needs a directory "
                "(checkpoint='path/to/dir' or CheckpointPolicy(dir=...))"
            )
        self.dir = str(self.dir)
        if self.every_steps < 0 or self.every_items < 0 or self.keep < 0:
            raise CheckpointError(
                "checkpoint intervals and keep must be >= 0 "
                f"(got every_steps={self.every_steps}, "
                f"every_items={self.every_items}, keep={self.keep})"
            )

    @property
    def periodic(self) -> bool:
        """True when any in-run trigger is active (interval or explicit),
        i.e. the scheduler hook must be installed."""
        return bool(self.every_steps or self.every_items
                    or self.trigger is not None)


def coerce_checkpoint(spec: Any) -> Optional[CheckpointPolicy]:
    """Normalise the ``checkpoint=`` run option to a policy.

    ``None`` disables checkpointing; a string/``Path`` is a directory
    with default triggers (on-fault only); a dict supplies policy
    fields; a :class:`CheckpointPolicy` passes through.
    """
    if spec is None:
        return None
    if isinstance(spec, CheckpointPolicy):
        return spec
    if isinstance(spec, (str, Path)):
        return CheckpointPolicy(dir=str(spec))
    if isinstance(spec, dict):
        unknown = set(spec) - {
            "dir", "every_steps", "every_items", "on_fault",
            "at_end", "keep", "run_id",
        }
        if unknown:
            raise CheckpointError(
                f"unknown checkpoint option keys: {sorted(unknown)}"
            )
        if "dir" not in spec:
            raise CheckpointError("checkpoint dict needs a 'dir' key")
        return CheckpointPolicy(
            dir=str(spec["dir"]),
            every_steps=int(spec.get("every_steps", 0)),
            every_items=int(spec.get("every_items", 0)),
            on_fault=bool(spec.get("on_fault", True)),
            at_end=bool(spec.get("at_end", False)),
            keep=int(spec.get("keep", 0)),
            run_id=str(spec.get("run_id", "")),
        )
    raise CheckpointError(
        "checkpoint= must be a directory path, a dict of policy fields, "
        f"or a CheckpointPolicy (got {type(spec).__name__})"
    )
