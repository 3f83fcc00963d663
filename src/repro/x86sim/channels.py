"""Thread-safe broadcast channels for the x86sim execution model.

AMD's functional simulator (x86sim) assigns each kernel to a dedicated
OS thread (§5.2).  This module provides the inter-thread stream channel:
the same fixed-capacity MPMC broadcast semantics as
:class:`repro.core.queues.BroadcastQueue`, but guarded by a lock and
condition variable, plus the **drain protocol** a preemptive simulator
needs (cooperative cgsim can simply stop scheduling; threads must be
told the stream ended):

* every channel knows its producer count; ``producer_done()`` decrements
  it, and a channel with zero remaining producers is *closed*;
* ``wait_readable()`` returns False once the channel is closed and empty
  for that consumer — the kernel driver then terminates the kernel;
* consumers that terminate early are *detached* so their stalled cursor
  stops back-pressuring producers.

The ``try_put``/``try_get`` surface is identical to the cooperative
queue, so the unmodified kernel port objects work on both.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["ThreadedBroadcastQueue", "ThreadedLatchQueue"]


class ThreadedBroadcastQueue:
    """Lock-guarded fixed-capacity MPMC broadcast channel."""

    #: Poison marker (repro.faults): same protocol as the cooperative
    #: queue — kernel ports check these on their blocking slow path, so
    #: the attributes must exist even when containment is unused.
    poisoned = False
    poison_origin = ""

    def __init__(self, capacity: int, n_consumers: int, n_producers: int,
                 name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.n_consumers = n_consumers
        self._slots: List[Any] = [None] * capacity
        self._head = 0
        self._cursors: List[Optional[int]] = [0] * n_consumers
        self._producers_left = n_producers
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.total_puts = 0
        self.total_gets = 0
        # API parity with the cooperative queue (unused under threads).
        self.read_waiters: List[List] = [[] for _ in range(n_consumers)]
        self.write_waiters: List = []
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    def bind_scheduler(self, scheduler) -> None:
        """Transport-protocol parity: threads synchronise through the
        condition variable, not a cooperative scheduler."""

    # -- state helpers (call with lock held) -------------------------------------

    def _active_min_cursor(self) -> Optional[int]:
        active = [c for c in self._cursors if c is not None]
        return min(active) if active else None

    def _is_full(self) -> bool:
        m = self._active_min_cursor()
        if m is None:
            return False  # no live consumers: writes are dropped
        return self._head - m >= self.capacity

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._producers_left == 0

    # -- capacity / fill introspection (Transport protocol) ----------------------

    def size_for(self, consumer_idx: int) -> int:
        """Elements currently visible to consumer *consumer_idx*."""
        with self._lock:
            cur = self._cursors[consumer_idx]
            return 0 if cur is None else self._head - cur

    @property
    def free_slots(self) -> int:
        """Slots a producer can still write before blocking."""
        with self._lock:
            m = self._active_min_cursor()
            if m is None:
                return self.capacity
            return self.capacity - (self._head - m)

    @property
    def is_full(self) -> bool:
        with self._lock:
            return self._is_full()

    def is_empty_for(self, consumer_idx: int) -> bool:
        with self._lock:
            cur = self._cursors[consumer_idx]
            return cur is None or cur == self._head

    def peek(self, consumer_idx: int) -> Tuple[bool, Any]:
        """Like :meth:`try_get` but does not advance the cursor."""
        with self._lock:
            cur = self._cursors[consumer_idx]
            if cur is None or cur == self._head:
                return False, None
            return True, self._slots[cur % self.capacity]

    # -- producer side -----------------------------------------------------------

    def try_put(self, value: Any) -> bool:
        with self._cond:
            if self._is_full():
                return False
            m = self._active_min_cursor()
            if m is not None:
                self._slots[self._head % self.capacity] = value
            self._head += 1
            self.total_puts += 1
            self._cond.notify_all()
            return True

    def try_put_many(self, values, start: int = 0) -> int:
        """Bulk variant of :meth:`try_put`: append a contiguous run of
        ``values[start:]``, as many as fit, returning the count written
        (0 when full).  Same surface as the cooperative queue, so
        batched port ops work unchanged under threads."""
        n_values = len(values) - start
        if n_values <= 0:
            return 0
        with self._cond:
            m = self._active_min_cursor()
            if m is None:
                # no live consumers: writes are dropped, but accounted
                self._head += n_values
                self.total_puts += n_values
                return n_values
            free = self.capacity - (self._head - m)
            if free <= 0:
                return 0
            n = free if free < n_values else n_values
            cap = self.capacity
            head = self._head
            s = head % cap
            run1 = n if n <= cap - s else cap - s
            self._slots[s:s + run1] = values[start:start + run1]
            if n > run1:
                self._slots[0:n - run1] = values[start + run1:start + n]
            self._head = head + n
            self.total_puts += n
            self._cond.notify_all()
            return n

    def wait_writable(self, timeout: Optional[float] = None) -> bool:
        """Block until a slot is free.  Returns False on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: not self._is_full(), timeout)

    def producer_done(self) -> None:
        """One producer finished; close the channel when all have."""
        with self._cond:
            if self._producers_left > 0:
                self._producers_left -= 1
                if self._producers_left == 0:
                    self._cond.notify_all()

    # -- consumer side ------------------------------------------------------------

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        with self._cond:
            cur = self._cursors[consumer_idx]
            if cur is None:
                raise SimulationError(
                    f"read on detached consumer {consumer_idx} of "
                    f"{self.name!r}"
                )
            if cur == self._head:
                return False, None
            value = self._slots[cur % self.capacity]
            self._cursors[consumer_idx] = cur + 1
            self.total_gets += 1
            self._cond.notify_all()
            return True, value

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        """Bulk variant of :meth:`try_get`: pop up to *max_n* elements
        as one contiguous run (possibly empty)."""
        with self._cond:
            cur = self._cursors[consumer_idx]
            if cur is None:
                raise SimulationError(
                    f"read on detached consumer {consumer_idx} of "
                    f"{self.name!r}"
                )
            avail = self._head - cur
            if avail <= 0 or max_n <= 0:
                return []
            n = avail if avail < max_n else max_n
            cap = self.capacity
            s = cur % cap
            run1 = n if n <= cap - s else cap - s
            out = self._slots[s:s + run1]
            if n > run1:
                out += self._slots[0:n - run1]
            self._cursors[consumer_idx] = cur + n
            self.total_gets += n
            self._cond.notify_all()
            return out

    def wait_readable(self, consumer_idx: int,
                      timeout: Optional[float] = None) -> bool:
        """Block until data is available for this consumer.

        Returns False when the channel is closed and drained (or on
        timeout) — the end-of-stream signal.
        """
        with self._cond:
            def _ready():
                cur = self._cursors[consumer_idx]
                return (cur is not None and cur != self._head) \
                    or self._producers_left == 0 or self.poisoned
            if not self._cond.wait_for(_ready, timeout):
                return False
            cur = self._cursors[consumer_idx]
            if cur is not None and cur != self._head:
                return True
            # Drained and poisoned: report readable so the kernel's next
            # try_get fails and the port raises PoisonSignal instead of
            # the consumer ending as a silent clean EOF.
            return self.poisoned

    def detach_consumer(self, consumer_idx: int) -> None:
        """A consumer terminated early; stop it back-pressuring writers."""
        with self._cond:
            self._cursors[consumer_idx] = None
            self._cond.notify_all()

    def poison(self, origin: str) -> None:
        """Mark the stream poisoned (``on_error="poison"``): consumers
        drain buffered data, then observe the marker on their next
        blocking read and terminate instead of parking forever."""
        with self._cond:
            self.poisoned = True
            self.poison_origin = origin
            self._cond.notify_all()


class ThreadedLatchQueue:
    """Thread-safe runtime-parameter latch (see
    :class:`repro.core.queues.LatchQueue`)."""

    #: RTP latches are never poisoned; the attributes exist because the
    #: kernel ports' blocking slow path reads them unconditionally.
    poisoned = False
    poison_origin = ""

    #: One live value: traced transfers report ``fill=1`` (see
    #: :func:`repro.core.transport.traced`).
    trace_shape = "latch"

    def __init__(self, n_consumers: int, name: str = ""):
        self.name = name
        self.n_consumers = n_consumers
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._value: Any = None
        self._has_value = False
        self.total_puts = 0
        self.total_gets = 0
        self.read_waiters: List[List] = [[] for _ in range(max(n_consumers, 1))]
        self.write_waiters: List = []
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    def try_put(self, value: Any) -> bool:
        with self._cond:
            self._value = value
            self._has_value = True
            self.total_puts += 1
            self._cond.notify_all()
            return True

    def try_put_many(self, values, start: int = 0) -> int:
        n = len(values) - start
        if n <= 0:
            return 0
        self.try_put(values[-1])  # a latch keeps only the newest value
        with self._lock:
            self.total_puts += n - 1
        return n

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        with self._lock:
            if not self._has_value:
                return False, None
            self.total_gets += 1
            return True, self._value

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        with self._lock:
            if not self._has_value or max_n <= 0:
                return []
            self.total_gets += max_n
            return [self._value] * max_n

    def wait_readable(self, consumer_idx: int,
                      timeout: Optional[float] = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._has_value, timeout)

    def wait_writable(self, timeout: Optional[float] = None) -> bool:
        return True

    def producer_done(self) -> None:
        pass  # a latch never closes; late readers still see the value

    def detach_consumer(self, consumer_idx: int) -> None:
        pass

    @property
    def last_value(self) -> Any:
        with self._lock:
            return self._value
