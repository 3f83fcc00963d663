"""Intrinsic-call tracing for the cycle-approximate simulator.

The AIE timing model in :mod:`repro.aiesim` is *trace driven*: a kernel
runs functionally once while every SIMD intrinsic and stream access it
performs is recorded as a micro-op; the VLIW scheduler model then packs
those micro-ops into issue slots to estimate cycles.

This module provides the recording hook.  Entering and leaving a
:class:`TraceRecorder` adjusts a process-wide count of active recorders
under a lock; :func:`emit` returns on its first line when that count is
zero, before any thread-local lookup.  Functional simulation with no
recorder anywhere therefore pays one global check per intrinsic.

Recording is still per thread: a recorder captures only the emits of
the thread that entered it, and each thread can have at most one
active recorder.  While any recorder is active, emits on other threads
pay the thread-local lookup and record nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["MicroOp", "TraceRecorder", "emit", "active_recorder"]


@dataclass(frozen=True)
class MicroOp:
    """One recorded machine-level operation.

    ``op`` is a short mnemonic (``vmul``, ``vmac``, ``srs``, ``vld``,
    ``stream_rd`` ...); ``lanes`` and ``ebytes`` parameterise the cost
    model; ``meta`` carries op-specific details (rounding mode, stream
    direction, ...).
    """

    op: str
    lanes: int = 1
    ebytes: int = 4
    meta: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.meta:
            if k == key:
                return v
        return default


_tls = threading.local()
_count_lock = threading.Lock()
#: Recorders active on any thread; ``emit`` is a no-op while it is 0.
_active = 0


def active_recorder() -> Optional["TraceRecorder"]:
    """The recorder currently capturing on this thread, if any."""
    return getattr(_tls, "recorder", None)


class TraceRecorder:
    """Context manager capturing the micro-op stream of a code region::

        with TraceRecorder() as rec:
            run_kernel_once()
        ops = rec.ops
    """

    def __init__(self):
        self.ops: List[MicroOp] = []
        self.counts: Dict[str, int] = {}

    def record(self, op: str, lanes: int, ebytes: int,
               meta: Tuple[Tuple[str, Any], ...]) -> None:
        self.ops.append(MicroOp(op, lanes, ebytes, meta))
        self.counts[op] = self.counts.get(op, 0) + 1

    def __enter__(self) -> "TraceRecorder":
        global _active
        if getattr(_tls, "recorder", None) is not None:
            raise RuntimeError("a TraceRecorder is already active")
        with _count_lock:
            _active += 1
        _tls.recorder = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _tls.recorder = None
        with _count_lock:
            _active -= 1

    def __len__(self):
        return len(self.ops)


def emit(op: str, lanes: int = 1, ebytes: int = 4, **meta: Any) -> None:
    """Record one micro-op if this thread's recorder is active (no-op
    otherwise)."""
    if not _active:
        return
    rec = getattr(_tls, "recorder", None)
    if rec is not None:
        rec.record(op, lanes, ebytes, tuple(sorted(meta.items())))
