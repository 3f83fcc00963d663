"""Fixed-capacity MPMC broadcast queues for inter-kernel streaming.

These are the data-transfer primitive of §3.6: multi-producer,
multi-consumer queues with *broadcast semantics* — every consumer receives
a complete copy of every element written.  Order is preserved per
individual producer; elements from multiple producers may interleave.

Implementation: a shared ring buffer of ``capacity`` slots with one
absolute write head and one absolute read cursor per consumer.  A slot is
recycled only once *every* consumer's cursor has passed it, so the queue
is full when ``head - min(cursors) == capacity``.  The minimum consumer
cursor is cached and invalidated lazily when the laggard consumer
advances, which keeps the full-check on ``try_put`` O(1); the cache is
rebuilt (O(n_consumers), tiny constants — graphs have small fan-out)
only on the first full-check after an invalidating get.

Besides the per-element ``try_put``/``try_get``, the queue exposes bulk
ring operations ``try_put_many``/``try_get_many`` that move *contiguous
slot runs* per call via slice assignment.  They are the substrate of the
batched port I/O fast path (``await port.get_batch(n)`` /
``await port.put_batch(seq)``): a batch crosses the scheduler at most
once per queue-full/empty transition instead of once per element.

The queue itself is lock-free single-threaded state; waking blocked
coroutines is delegated to the scheduler through the waiter lists, which
keeps ``try_put``/``try_get`` on the fast path at a few attribute
operations — the property behind cgsim's 0.06% synchronisation overhead
(§5.2).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..errors import GraphRuntimeError

__all__ = ["BroadcastQueue", "DEFAULT_QUEUE_CAPACITY"]

#: Default slot count for inter-kernel streams when neither port settings
#: nor connection attributes specify a depth.
DEFAULT_QUEUE_CAPACITY = 64


class BroadcastQueue:
    """Fixed-capacity MPMC queue with broadcast delivery.

    Parameters
    ----------
    capacity:
        Number of ring slots.  Must be >= 1.
    n_consumers:
        Number of consumer endpoints; each gets an independent cursor and
        sees every element.  A queue with zero consumers swallows writes
        (matching a dangling broadcast leg).
    name:
        Diagnostic label (the net name).
    """

    __slots__ = (
        "name",
        "capacity",
        "n_consumers",
        "_slots",
        "_head",
        "_cursors",
        "_min_cursor",
        "_min_dirty",
        "read_waiters",
        "write_waiters",
        "_scheduler",
        "total_puts",
        "total_gets",
        "producer_names",
        "consumer_names",
        "_detached",
        "_n_active",
        "poisoned",
        "poison_origin",
    )

    def __init__(self, capacity: int = DEFAULT_QUEUE_CAPACITY,
                 n_consumers: int = 1, name: str = ""):
        if capacity < 1:
            raise GraphRuntimeError(
                f"queue capacity must be >= 1, got {capacity}"
            )
        if n_consumers < 0:
            raise GraphRuntimeError(
                f"consumer count must be >= 0, got {n_consumers}"
            )
        self.name = name
        self.capacity = capacity
        self.n_consumers = n_consumers
        self._slots: List[Any] = [None] * capacity
        self._head = 0  # absolute index of next write
        self._cursors = [0] * n_consumers  # absolute index of next read
        self._min_cursor = 0   # cached min(self._cursors)
        self._min_dirty = False
        # Waiter lists hold scheduler Task objects parked on this queue.
        self.read_waiters: List[List] = [[] for _ in range(n_consumers)]
        self.write_waiters: List = []
        self._scheduler = None  # wired by the RuntimeContext
        self.total_puts = 0
        self.total_gets = 0
        # Endpoint labels for deadlock diagnostics, filled in by the
        # runtime that wires this queue into a graph.
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []
        # Failure containment (repro.faults): consumers detached when
        # their task is cancelled stop gating the ring's full-check, and
        # a poisoned queue raises PoisonSignal out of blocking reads
        # once its buffered data is drained.
        self._detached: set = set()
        self._n_active = n_consumers
        self.poisoned = False
        self.poison_origin = ""

    # -- wiring --------------------------------------------------------------

    def bind_scheduler(self, scheduler) -> None:
        """Attach the scheduler that should be notified on state changes."""
        self._scheduler = scheduler

    # -- introspection ---------------------------------------------------------

    def size_for(self, consumer_idx: int) -> int:
        """Number of elements available to consumer *consumer_idx*."""
        if self._detached and consumer_idx in self._detached:
            return 0
        return self._head - self._cursors[consumer_idx]

    def _min_cursor_now(self) -> int:
        """Cached min consumer cursor; rebuilt lazily after a laggard
        get invalidated it (keeps ``try_put``'s full-check O(1))."""
        if self._min_dirty:
            if self._detached:
                self._min_cursor = min(
                    c for i, c in enumerate(self._cursors)
                    if i not in self._detached
                )
            else:
                self._min_cursor = min(self._cursors)
            self._min_dirty = False
        return self._min_cursor

    @property
    def free_slots(self) -> int:
        """Slots a producer can still write before blocking."""
        if self._n_active == 0:
            return self.capacity
        return self.capacity - (self._head - self._min_cursor_now())

    @property
    def is_full(self) -> bool:
        return self.free_slots == 0

    def is_empty_for(self, consumer_idx: int) -> bool:
        return self._cursors[consumer_idx] == self._head

    # -- core operations --------------------------------------------------------

    def try_put(self, value: Any) -> bool:
        """Append *value* for all consumers; False if the ring is full."""
        if self._n_active == 0:
            self.total_puts += 1
            return True  # no one to deliver to; writes complete trivially
        head = self._head
        if head - self._min_cursor_now() >= self.capacity:
            return False
        self._slots[head % self.capacity] = value
        self._head = head + 1
        self.total_puts += 1
        if self._scheduler is not None:
            for waiters in self.read_waiters:
                if waiters:
                    self._scheduler.wake_all(waiters)
        return True

    def try_put_many(self, values, start: int = 0) -> int:
        """Append ``values[start:]`` as one contiguous run.

        Writes as many elements as the ring has free slots (possibly 0)
        using at most two slice assignments (one per wrap segment) and
        returns the number written.  This is the bulk fast path behind
        ``await port.put_batch(seq)``.
        """
        n_values = len(values) - start
        if n_values <= 0:
            return 0
        if self._n_active == 0:
            self.total_puts += n_values
            return n_values
        head = self._head
        free = self.capacity - (head - self._min_cursor_now())
        if free <= 0:
            return 0
        n = free if free < n_values else n_values
        cap = self.capacity
        slots = self._slots
        s = head % cap
        run1 = n if n <= cap - s else cap - s
        slots[s:s + run1] = values[start:start + run1]
        if n > run1:
            slots[0:n - run1] = values[start + run1:start + n]
        self._head = head + n
        self.total_puts += n
        if self._scheduler is not None:
            for waiters in self.read_waiters:
                if waiters:
                    self._scheduler.wake_all(waiters)
        return n

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        """Pop the next element for *consumer_idx*.

        Returns ``(True, value)`` or ``(False, None)`` when no data is
        available for that consumer.
        """
        if self._detached and consumer_idx in self._detached:
            return False, None
        cur = self._cursors[consumer_idx]
        if cur == self._head:
            return False, None
        value = self._slots[cur % self.capacity]
        self._cursors[consumer_idx] = cur + 1
        self.total_gets += 1
        # Only the (a) laggard advancing can change the min cursor.
        if cur == self._min_cursor and not self._min_dirty:
            self._min_dirty = True
        if self.write_waiters and self._scheduler is not None:
            if self._head - self._min_cursor_now() < self.capacity:
                self._scheduler.wake_all(self.write_waiters)
        return True, value

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        """Pop up to *max_n* elements for *consumer_idx* as one run.

        Returns a (possibly empty) list, taken with at most two slot
        slices.  This is the bulk fast path behind
        ``await port.get_batch(n)``.
        """
        if self._detached and consumer_idx in self._detached:
            return []
        cur = self._cursors[consumer_idx]
        avail = self._head - cur
        if avail <= 0 or max_n <= 0:
            return []
        n = avail if avail < max_n else max_n
        cap = self.capacity
        slots = self._slots
        s = cur % cap
        run1 = n if n <= cap - s else cap - s
        out = slots[s:s + run1]
        if n > run1:
            out += slots[0:n - run1]
        self._cursors[consumer_idx] = cur + n
        self.total_gets += n
        if cur == self._min_cursor and not self._min_dirty:
            self._min_dirty = True
        if self.write_waiters and self._scheduler is not None:
            if self._head - self._min_cursor_now() < self.capacity:
                self._scheduler.wake_all(self.write_waiters)
        return out

    def peek(self, consumer_idx: int) -> Tuple[bool, Any]:
        """Like :meth:`try_get` but does not advance the cursor."""
        cur = self._cursors[consumer_idx]
        if cur == self._head:
            return False, None
        return True, self._slots[cur % self.capacity]

    # -- failure containment (repro.faults) ------------------------------------

    def detach_consumer(self, consumer_idx: int) -> None:
        """Remove consumer *consumer_idx* from flow control.

        Called when the consuming task is cancelled (failure isolation):
        its frozen cursor must stop gating the ring's full-check, or
        healthy producers sharing the queue would stall against a reader
        that will never drain it.  Parked writers are rewoken so they
        re-evaluate the queue without the detached cursor.
        """
        if consumer_idx in self._detached \
                or not 0 <= consumer_idx < self.n_consumers:
            return
        self._detached.add(consumer_idx)
        self._n_active -= 1
        self._min_dirty = True
        if self.write_waiters and self._scheduler is not None:
            if self._n_active == 0 \
                    or self._head - self._min_cursor_now() < self.capacity:
                self._scheduler.wake_all(self.write_waiters)

    def poison(self, origin: str = "") -> None:
        """Mark the stream poisoned by the failure of *origin*.

        Readers observe the poison only on the blocking slow path, after
        draining everything already buffered — the stream delivers its
        full prefix, then terminates its consumers with
        :class:`~repro.errors.PoisonSignal` at the exact point the data
        ends.
        """
        if self.poisoned:
            return
        self.poisoned = True
        self.poison_origin = origin
        if self._scheduler is not None:
            for waiters in self.read_waiters:
                if waiters:
                    self._scheduler.wake_all(waiters)

    def drain(self, consumer_idx: int) -> List[Any]:
        """Pop everything currently visible to *consumer_idx* (testing)."""
        out = []
        while True:
            ok, v = self.try_get(consumer_idx)
            if not ok:
                return out
            out.append(v)

    def __repr__(self):
        fills = [self.size_for(i) for i in range(self.n_consumers)]
        return (
            f"<BroadcastQueue {self.name or '?'} cap={self.capacity} "
            f"consumers={self.n_consumers} fill={fills}>"
        )


class LatchQueue(BroadcastQueue):
    """Queue variant for runtime parameters (RTP ports, §3.7).

    Holds a single *latched* value: a put overwrites the latch, and every
    get returns the current latch without consuming it (after the first
    write).  Before the first write, reads block — a kernel cannot run
    ahead of its configuration.
    """

    __slots__ = ("_latched", "_has_value")

    #: One live value: traced transfers report ``fill=1`` (see
    #: :func:`repro.core.transport.traced`).
    trace_shape = "latch"

    def __init__(self, n_consumers: int = 1, name: str = ""):
        super().__init__(capacity=1, n_consumers=n_consumers, name=name)
        self._latched: Any = None
        self._has_value = False

    def try_put(self, value: Any) -> bool:
        self._latched = value
        self._has_value = True
        self.total_puts += 1
        if self._scheduler is not None:
            for waiters in self.read_waiters:
                if waiters:
                    self._scheduler.wake_all(waiters)
        return True

    def try_put_many(self, values, start: int = 0) -> int:
        n = len(values) - start
        if n <= 0:
            return 0
        self.try_put(values[-1])  # a latch keeps only the newest value
        self.total_puts += n - 1  # count the overwritten ones too
        return n

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        if not self._has_value:
            return False, None
        self.total_gets += 1
        return True, self._latched

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        if not self._has_value or max_n <= 0:
            return []
        self.total_gets += max_n
        return [self._latched] * max_n

    def is_empty_for(self, consumer_idx: int) -> bool:
        return not self._has_value

    @property
    def is_full(self) -> bool:
        return False

    @property
    def last_value(self) -> Any:
        """Most recent latched value (used by RTP sinks)."""
        return self._latched

