"""Fault injection mechanics: kernel wrappers and queue fault proxies.

Two injection points cover every fault class in a :class:`FaultPlan`:

* :func:`injected_kernel` wraps a kernel coroutine in a plain generator
  that forwards the scheduler command protocol verbatim and raises
  :class:`~repro.errors.InjectedFaultError` instead of performing the
  kernel's Nth resume.  Because the wrapper speaks the same
  ``send``/``close`` protocol as the coroutine it wraps, it behaves
  identically under the cooperative scheduler and on the x86sim thread
  trampoline.

* :class:`FaultyStreamQueue` is a transparent proxy installed in front
  of a targeted net's queue *before* any kernel port captures a
  reference.  It delegates everything to the inner queue (waiter lists,
  names, cursors) and intercepts only the put/get surface to
  apply corrupt / drop / freeze / delay decisions.  Decisions are
  indexed by the count of *accepted* elements, so a put retried after
  backpressure sees the same verdict — injection stays deterministic
  under any interleaving the engine produces.

Untargeted kernels and nets are never wrapped: a run with ``faults=None``
executes exactly the code it would if this module did not exist.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from ..errors import InjectedFaultError

__all__ = ["injected_kernel", "FaultyStreamQueue", "zero_like"]


def zero_like(value: Any) -> Any:
    """Default corruption: the additive zero of the element's own type
    (0 for numbers, an all-zero array for numpy blocks) — type-safe, so
    a corrupted element flows through downstream kernels rather than
    crashing them."""
    try:
        return value - value
    except TypeError:
        try:
            return type(value)()
        except TypeError:
            return None


def injected_kernel(coro, fault, name: str, session):
    """Wrap *coro* so its ``fault.at_resume``-th scheduling raises.

    The wrapper counts drives (``send`` calls): the kernel runs normally
    through resume ``at_resume``; the next drive raises
    :class:`InjectedFaultError` at the park point instead of re-entering
    the kernel, which keeps the failure site deterministic for a given
    backend and seed.  A kernel that finishes before the Nth resume
    never faults (the injection had no window).
    """
    def _run():
        resumes = 0
        value = None
        try:
            while True:
                resumes += 1
                if resumes > fault.at_resume:
                    session.record(
                        "kernel_raise", task=name, at_resume=resumes,
                    )
                    raise InjectedFaultError(
                        fault.message
                        or f"injected fault in kernel {name!r} "
                           f"at resume {resumes}"
                    )
                try:
                    cmd = coro.send(value)
                except StopIteration:
                    return
                value = yield cmd
        finally:
            coro.close()

    return _run()


class FaultyStreamQueue:
    """Transparent fault proxy over one stream queue.

    Works in front of both the cooperative :class:`BroadcastQueue` and
    the preemptive :class:`ThreadedBroadcastQueue`: every attribute not
    defined here resolves on the inner queue, so scheduler wiring,
    waiter lists, poison flags, and diagnostics all flow through
    untouched.  On a traced net the inner queue is the
    :func:`~repro.core.transport.traced` proxy, so an element this proxy
    drops or holds back never reaches the tracer.
    """

    def __init__(self, inner, session, *, corrupts: Tuple = (),
                 drops: Tuple = (), freeze=None, delay=None):
        self._inner = inner
        self._session = session
        self._corrupts = tuple(corrupts)
        self._drops = tuple(drops)
        self._freeze_spec = freeze
        self._delay_spec = delay
        self._puts = 0          # accepted elements (decision index)
        self._gets = 0          # elements retrieved through the proxy
        self._frozen = False
        self._delayed_at = -1   # decision index already delayed once

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self):
        return f"<FaultyStreamQueue {self._inner!r}>"

    # -- fault decisions ------------------------------------------------------

    @staticmethod
    def _matches(spec, index: int) -> bool:
        if index < spec.offset or spec.every < 1:
            return False
        return (index - spec.offset) % spec.every == 0

    def _freeze_active(self) -> bool:
        fz = self._freeze_spec
        if fz is None:
            return False
        if not self._frozen:
            if self._puts < fz.after_puts:
                return False
            self._frozen = True
            self._session.record(
                "freeze", queue=self._inner.name, after_puts=self._puts,
            )
        if fz.release_after_gets is not None \
                and self._gets >= fz.release_after_gets:
            self._frozen = False
            self._freeze_spec = None
            self._session.record(
                "thaw", queue=self._inner.name, after_gets=self._gets,
            )
            return False
        return True

    def _cooperative(self) -> bool:
        return getattr(self._inner, "_scheduler", None) is not None

    def _inner_nonempty(self) -> bool:
        inner = self._inner
        try:
            return any(
                inner.size_for(i) > 0
                for i in range(getattr(inner, "n_consumers", 0))
            )
        except Exception:
            return False

    def _delay_blocks(self) -> bool:
        d = self._delay_spec
        if d is None:
            return False
        i = self._puts
        if d.every < 1 or i % d.every != 0 or i == self._delayed_at:
            return False
        if self._cooperative() and not self._inner_nonempty():
            # A cooperative writer parking now would only be rewoken by
            # a future get; with nothing buffered that wake can never
            # come, so skip the delay rather than manufacture a hang.
            return False
        self._delayed_at = i
        self._session.record("delay", queue=self._inner.name, index=i)
        return True

    # -- put surface ----------------------------------------------------------

    def try_put(self, value: Any) -> bool:
        if self._freeze_active():
            return False
        if self._delay_blocks():
            return False
        i = self._puts
        for d in self._drops:
            if self._matches(d, i):
                self._puts = i + 1
                self._session.record(
                    "drop", queue=self._inner.name, index=i,
                )
                return True
        corrupted = False
        for c in self._corrupts:
            if self._matches(c, i):
                value = c.fn(value) if c.fn is not None else zero_like(value)
                corrupted = True
        ok = self._inner.try_put(value)
        if ok:
            self._puts = i + 1
            if corrupted:
                self._session.record(
                    "corrupt", queue=self._inner.name, index=i,
                )
        return ok

    def try_put_many(self, values, start: int = 0) -> int:
        # Element-at-a-time so every element gets its own decision; the
        # bulk-ring optimization is forfeited only on faulted nets.
        n = 0
        for j in range(start, len(values)):
            if not self.try_put(values[j]):
                break
            n += 1
        return n

    # -- get surface (counted for freeze release) ----------------------------

    def try_get(self, consumer_idx: int):
        out = self._inner.try_get(consumer_idx)
        if out[0]:
            self._gets += 1
        return out

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        out = self._inner.try_get_many(consumer_idx, max_n)
        self._gets += len(out)
        return out

    # -- preemptive-engine waits ----------------------------------------------

    def wait_writable(self, timeout: Optional[float] = None) -> bool:
        """x86sim-side wait: the inner condvar wait returns immediately
        while a *frozen* queue is not actually full, so poll the freeze
        state instead of hot-spinning through failed puts."""
        if not self._freeze_active():
            return self._inner.wait_writable(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._freeze_active():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.001)
        remaining = None if deadline is None \
            else max(0.0, deadline - time.monotonic())
        return self._inner.wait_writable(remaining)
