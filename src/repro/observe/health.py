"""Progress watchdog: detect silently stalled runs while they run.

Deadlock detection in the cooperative runtime is *post-hoc* — the
scheduler only diagnoses a blockage once every task has parked and the
run loop exits.  A run that keeps one task nominally runnable (a slow
external sink, a livelocked retry loop, a wedged forked worker) never
reaches that diagnosis; to an operator it just looks quiet.  The
:class:`ProgressWatchdog` closes that gap with a deliberately cheap
contract:

* The runtime hands it a zero-argument ``progress_fn`` returning any
  comparable snapshot of forward progress (queue transfer totals plus
  task resume counts for cgsim; ring-header counters for cgsim-mp).
* One daemon thread per process polls the snapshot of every started
  watchdog a few times per window.  While the value keeps changing,
  nothing else happens — the hot path carries **no** per-event hook,
  so enabling the watchdog costs a handful of counter reads per second
  (see ``benchmarks/bench_observe_overhead``).  Starting and stopping a
  watchdog registers and unregisters it with that thread; a run does
  not pay a thread start and join.  The thread is created on first use
  and exits at its first wake-up with nothing left to poll; it is
  also retired before a ``fork`` when idle, and a forked child starts
  with no watchdogs.
* When a full window passes without change, the watchdog captures a
  ``describe_blockage``-style snapshot, appends a :class:`StallReport`,
  emits a structured ``health.stall`` event through the run's tracer,
  and invokes the ``on_stall`` callback (the serve layer uses it to
  flip the run's ``stalled_suspect`` annotation).  It then re-arms:
  progress resuming and stalling again produces a second report.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from ..errors import GraphRuntimeError

__all__ = ["StallReport", "ProgressWatchdog", "coerce_watchdog"]


class StallReport:
    """One no-progress window detection."""

    def __init__(self, window_s: float, at_s: float, snapshot: str = "",
                 scope: str = ""):
        self.window_s = window_s
        #: ``perf_counter`` timestamp at detection, same timebase as
        #: trace events.
        self.at_s = at_s
        self.snapshot = snapshot
        self.scope = scope

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"window_s": self.window_s, "at_s": self.at_s}
        if self.snapshot:
            d["snapshot"] = self.snapshot
        if self.scope:
            d["scope"] = self.scope
        return d

    def __repr__(self):
        return f"<StallReport {self.scope or 'run'} {self.window_s}s>"


class _Poller:
    """The one thread that polls every started watchdog, in deadline
    order, one poll at a time."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.due: Dict["ProgressWatchdog", float] = {}
        self.thread: Optional[threading.Thread] = None
        #: When the waiting thread next wakes on its own (-inf while it
        #: is polling, so an ``add`` then needs no notify).
        self.wake_at = float("-inf")

    def add(self, dog: "ProgressWatchdog") -> None:
        first = perf_counter() + dog.poll_s
        with self.cond:
            self.due[dog] = first
            if self.thread is None:
                self.thread = threading.Thread(
                    target=self._loop, name="repro-watchdog", daemon=True)
                self.thread.start()
            elif first < self.wake_at:
                self.cond.notify()

    def remove(self, dog: "ProgressWatchdog") -> None:
        with self.cond:
            self.due.pop(dog, None)

    def retire_idle(self) -> None:
        """Stop the thread if nothing is registered (before a fork)."""
        with self.cond:
            thread = self.thread
            if thread is None or self.due \
                    or thread is threading.current_thread():
                return
            self.cond.notify()
        thread.join(timeout=1.0)

    def _loop(self) -> None:
        with self.cond:
            while True:
                now = perf_counter()
                ready = [d for d, t in self.due.items() if t <= now]
                if ready:
                    for dog in ready:
                        self.due[dog] = now + dog.poll_s
                    self.cond.release()
                    try:
                        for dog in ready:
                            dog._poll()
                    finally:
                        self.cond.acquire()
                    continue
                if not self.due:
                    self.thread = None
                    return
                self.wake_at = min(self.due.values())
                self.cond.wait(self.wake_at - now)
                self.wake_at = float("-inf")


_poller = _Poller()


def _reset_poller_in_child() -> None:
    global _poller
    _poller = _Poller()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=lambda: _poller.retire_idle(),
                        after_in_child=_reset_poller_in_child)


class ProgressWatchdog:
    """Heartbeat monitor over a caller-supplied progress snapshot."""

    def __init__(self, window_s: float = 5.0, *,
                 poll_s: Optional[float] = None,
                 on_stall: Optional[Callable[[StallReport], None]] = None):
        if window_s <= 0:
            raise GraphRuntimeError(
                f"watchdog window must be > 0 seconds, got {window_s}")
        self.window_s = float(window_s)
        # A few polls per window bounds detection latency at ~1.25x the
        # window without busy-waiting tiny windows.
        self.poll_s = float(poll_s) if poll_s else \
            min(max(self.window_s / 4.0, 0.005), 0.5)
        self.on_stall = on_stall
        #: Every stall window detected, in order.
        self.stalls: List[StallReport] = []
        self._beats = 0
        self._lock = threading.Lock()
        # Held for the length of one poll; ``stop`` takes it to wait out
        # a poll in flight.  Re-entrant so ``on_stall`` may call ``stop``.
        self._poll_lock = threading.RLock()
        self._started = False
        self._watching = False
        self._args: tuple = ()
        self._last: Any = None
        self._last_t = 0.0
        self._fired = False

    @property
    def stalled(self) -> bool:
        return bool(self.stalls)

    def warnings(self) -> List[str]:
        """The run warning for the stalls seen so far, if any (what
        ``RunResult.warnings`` carries)."""
        return [f"watchdog: {len(self.stalls)} no-progress window(s) of "
                f">= {self.window_s:g}s during the run"] if self.stalls else []

    def notify(self) -> None:
        """Event-driven heartbeat for callers without a pollable
        counter (folded into the progress snapshot)."""
        with self._lock:
            self._beats += 1

    def start(self, *, progress_fn: Callable[[], Any],
              blockage_fn: Optional[Callable[[], str]] = None,
              tracer=None, scope: str = "") -> "ProgressWatchdog":
        """Begin monitoring.  *progress_fn* must be cheap and safe to
        call from the watchdog thread; *blockage_fn* (optional) renders
        the wait-state snapshot attached to stall reports.  A
        *progress_fn* that raises leaves nothing to watch."""
        if self._started:
            raise GraphRuntimeError("watchdog already started")
        self._started = True
        try:
            self._last = self._snapshot(progress_fn)
        except Exception:
            return self
        self._args = (progress_fn, blockage_fn, tracer, scope)
        self._last_t = perf_counter()
        self._fired = False
        self._watching = True
        _poller.add(self)
        return self

    def stop(self) -> None:
        """Stop monitoring (idempotent).  Waits for a poll in flight, so
        no stall is reported after it returns."""
        if self._started:
            self._watching = False
            _poller.remove(self)
            if self._poll_lock.acquire(timeout=5.0):
                self._args = ()  # drop the run's tracer and callbacks
                self._poll_lock.release()
            self._started = False

    # -- poller thread -------------------------------------------------------

    def _snapshot(self, progress_fn) -> Any:
        with self._lock:
            beats = self._beats
        return (progress_fn(), beats)

    def _poll(self) -> None:
        with self._poll_lock:
            if self._watching:
                self._check(*self._args)

    def _check(self, progress_fn, blockage_fn, tracer, scope) -> None:
        try:
            cur = self._snapshot(progress_fn)
        except Exception:
            # The run tore down under us; nothing to watch.
            self._watching = False
            _poller.remove(self)
            return
        now = perf_counter()
        if cur != self._last:
            self._last, self._last_t, self._fired = cur, now, False
            return
        if self._fired or now - self._last_t < self.window_s:
            return
        snapshot = ""
        if blockage_fn is not None:
            try:
                snapshot = blockage_fn() or ""
            except Exception:
                snapshot = ""
        report = StallReport(self.window_s, now, snapshot, scope)
        self.stalls.append(report)
        if tracer is not None:
            try:
                tracer.health_stall(task=scope, window_s=self.window_s,
                                    snapshot=snapshot)
            except Exception:
                pass
        if self.on_stall is not None:
            try:
                self.on_stall(report)
            except Exception:
                pass
        self._fired = True  # re-arms when progress resumes

    def __repr__(self):
        state = "running" if self._started else "idle"
        return (f"<ProgressWatchdog window={self.window_s}s {state} "
                f"stalls={len(self.stalls)}>")


def coerce_watchdog(spec: Any) -> Optional[ProgressWatchdog]:
    """Normalise the ``watchdog=`` run option: ``None``/``False``/``0``
    → off, a positive number → window in seconds, or a caller-built
    :class:`ProgressWatchdog` (ownership stays with the caller)."""
    if spec is None or spec is False or spec == 0:
        return None
    if isinstance(spec, ProgressWatchdog):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return ProgressWatchdog(float(spec))
    raise GraphRuntimeError(
        f"cannot interpret watchdog={spec!r}; pass a window in seconds "
        f"or a ProgressWatchdog"
    )
