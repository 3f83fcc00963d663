"""Runtime support for fused kernel chains (the cgsim optimizing plan).

The optimization pass in ``repro.exec.optimize`` finds maximal linear
1-producer/1-consumer kernel chains and plans two changes for each:

* **substitution** — a registered fused equivalent kernel stands in for
  a run of members (operator fusion with a specialised, usually
  batched, implementation);
* **feed/store binding** — a graph input read only by the chain is
  served straight from the caller's container (:class:`SourceFeed`),
  and a graph output written only by the chain lands straight in the
  sink container (:class:`SinkStore`); both remove a source/sink task
  and its context switches.

Everything else stays ordinary: each member, substituted or not, runs
as one :class:`~repro.core.scheduler.CooperativeScheduler` task under
its :attr:`ChainMember.name`, and a net between two members is the
queue the run spec selects, so it wakes its waiters through the
scheduler like any other.  Feeds and stores are transports installed
under the ordinary kernel ports.

This module holds the *runtime* half of the optimization: the plan
dataclasses the analyzer emits and the two boundary transports.  The
graph analysis that decides *what* to fuse lives in
``repro.exec.optimize`` (the core package never imports
``repro.exec``).  Fused runs produce bit-identical sink contents
(``tests/exec/test_optimize.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Iterator, List, Optional, Sequence, \
    Tuple

from ..errors import GraphRuntimeError, IoBindingError
from .dtypes import StreamType
from .queues import DEFAULT_QUEUE_CAPACITY
from .sources_sinks import ArraySinkCursor, sink_store, stream_chunks

__all__ = [
    "ChainMember",
    "FusedChain",
    "OptimizedPlan",
    "SourceFeed",
    "SinkStore",
]


# ---------------------------------------------------------------------------
# Plan dataclasses (produced by repro.exec.optimize, consumed by the runtime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainMember:
    """One scheduler task of a fused chain.

    Either a verbatim original kernel instance, or a registered fused
    equivalent standing in for a run of original instances (operator
    fusion with a specialised implementation).  ``port_nets`` binds the
    member's ports to net ids exactly like ``KernelInstance.port_nets``.
    """

    name: str
    kernel: Any                      # KernelClass
    port_nets: Tuple[int, ...]
    fused_from: Tuple[str, ...]      # original instance names covered


@dataclass(frozen=True)
class FusedChain:
    """One fused linear chain and its boundary classification."""

    name: str
    members: Tuple[ChainMember, ...]
    link_nets: Tuple[int, ...]       # member-to-member nets (ordinary queues)
    feed_nets: Tuple[int, ...]       # graph inputs bound straight to data
    store_nets: Tuple[int, ...]      # graph outputs bound straight to sinks
    absorbed_nets: Tuple[int, ...]   # nets internal to substituted segments
    instance_idxs: Tuple[int, ...]   # original kernel indices replaced


@dataclass(frozen=True)
class OptimizedPlan:
    """Result of graph analysis: which chains to fuse and how."""

    level: str
    graph_name: str
    chains: Tuple[FusedChain, ...]

    @property
    def fused_instance_idxs(self) -> FrozenSet[int]:
        return frozenset(
            i for ch in self.chains for i in ch.instance_idxs
        )

    def describe(self) -> str:
        """Human-readable plan summary (debugging / tests)."""
        if not self.chains:
            return f"plan[{self.level}] {self.graph_name}: no fusable chains"
        lines = [f"plan[{self.level}] {self.graph_name}:"]
        for ch in self.chains:
            parts = " -> ".join(m.name for m in ch.members)
            lines.append(
                f"  {ch.name}: [{parts}] links={len(ch.link_nets)} "
                f"feeds={len(ch.feed_nets)} stores={len(ch.store_nets)}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Queue-compatible buffer fronts
# ---------------------------------------------------------------------------


class SourceFeed:
    """Queue front that serves a graph input straight from user data.

    When a graph input net is consumed *only* by a fused chain, the
    runtime replaces the net's queue (and its source coroutine) with a
    feed: the chain member's reads pull directly from the bound
    container.  A read that finds no data means the input is exhausted —
    the feed never refills — so the member parks on the feed for good,
    exactly as an unfused kernel ends up parked on a drained queue.

    Every container kind is served the same way: from its current run
    of :func:`~repro.core.sources_sinks.stream_chunks` (a read-only
    array view, or a list), refilled with at least one chunk when a
    read needs more than the run has left.  A read that one run fills
    gets a slice of it — a view of an array container, so a large read
    of numeric data boxes nothing — and only a read that spans two runs
    joins them, into a list.  A generator is pulled less than one chunk
    ahead of what was served.

    ``total_puts``/``total_gets`` advance per element served so the
    runtime's ``items_in`` accounting is unchanged.
    """

    __slots__ = (
        "name", "n_consumers", "capacity", "_chunks", "_chunk", "_buf",
        "_pos", "read_waiters", "write_waiters", "total_puts",
        "total_gets", "producer_names", "consumer_names",
    )

    # A feed is never poisoned: nothing upstream of it can fail.  The
    # class-level flag satisfies the port ops' slow-path poison check
    # at zero per-instance cost.
    poisoned = False
    poison_origin = ""

    #: Traced as a put+get pair per transfer, so per-queue metrics
    #: match an unfused run (see :func:`repro.core.transport.traced`).
    trace_shape = "transfer"

    def __init__(self, name: str = "",
                 capacity: int = DEFAULT_QUEUE_CAPACITY):
        self.name = name
        self.n_consumers = 1
        #: Depth of the source ring the feed stands in for: it sizes
        #: the container runs and is what stall reports print.
        self.capacity = capacity
        self._chunks: Optional[Iterator[Any]] = None
        self._chunk = capacity
        self._buf: Any = None   # the current run; None until bound
        self._pos = 0
        self.read_waiters: List[List] = [[]]
        self.write_waiters: List = []
        self.total_puts = 0
        self.total_gets = 0
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    def bind(self, dtype: StreamType, data: Any, validate: bool = False,
             chunk: int = 0):
        """Attach the user container (mirrors ``make_source``: runs of
        *chunk* elements, else of the feed's capacity)."""
        if self._buf is not None:
            raise IoBindingError(f"feed {self.name!r} already bound")
        self._chunk = chunk or self.capacity
        self._chunks = stream_chunks(dtype, data, validate, self._chunk)
        self._buf = []

    # -- wiring --------------------------------------------------------------

    def bind_scheduler(self, scheduler) -> None:
        pass  # a feed never refills, so it never wakes a parked reader

    def detach_consumer(self, consumer_idx: int) -> None:
        pass  # nothing buffered: the one reader pulls on demand

    # -- introspection -------------------------------------------------------

    def _fill(self, want: int) -> int:
        """Make at least *want* unserved elements current while the
        input lasts; returns how many are current."""
        have = len(self._buf) - self._pos
        if have >= want or self._chunks is None:
            return have
        buf = self._buf[self._pos:]
        self._pos = 0
        try:
            while len(buf) < want:
                run = self._chunks.send(max(want - len(buf), self._chunk))
                if len(buf):
                    joined = list(buf)   # a read spans two runs
                    joined.extend(run)
                    run = joined
                buf = run
        except StopIteration:
            self._chunks = None
        finally:
            self._buf = buf
        return len(buf)

    @property
    def done(self) -> bool:
        """True once every bound element has been served."""
        return self._buf is not None and not self._fill(1)

    def size_for(self, consumer_idx: int) -> int:
        # Un-served input is not "queued" data; parity with an unfused
        # source coroutine that has not pushed yet.
        return 0

    def is_empty_for(self, consumer_idx: int) -> bool:
        return self.done

    @property
    def free_slots(self) -> int:
        return 0

    @property
    def is_full(self) -> bool:
        return True  # nothing may write into a feed

    # -- transfers -----------------------------------------------------------

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        if self._buf is None or not self._fill(1):
            return False, None
        value = self._buf[self._pos]
        self._pos += 1
        self.total_puts += 1
        self.total_gets += 1
        return True, value

    def try_get_many(self, consumer_idx: int, max_n: int) -> Sequence[Any]:
        if max_n <= 0 or self._buf is None:
            return []
        n = min(self._fill(max_n), max_n)
        pos = self._pos
        out = self._buf[pos:pos + n]
        self._pos = pos + n
        self.total_puts += n
        self.total_gets += n
        return out

    def peek(self, consumer_idx: int) -> Tuple[bool, Any]:
        if self._buf is None or not self._fill(1):
            return False, None
        return True, self._buf[self._pos]

    def try_put(self, value: Any) -> bool:  # pragma: no cover - defensive
        raise GraphRuntimeError(f"cannot write into source feed {self.name!r}")

    def try_put_many(self, values, start: int = 0):  # pragma: no cover
        raise GraphRuntimeError(f"cannot write into source feed {self.name!r}")

    def __repr__(self):
        return f"<SourceFeed {self.name or '?'} served={self.total_gets}>"


class SinkStore:
    """Queue front that delivers a graph output straight into the sink.

    When a graph output net is produced *only* by a fused chain, the
    runtime replaces the net's queue (and its sink coroutine) with a
    store: the chain member's writes land directly in the user container
    (list append or :class:`ArraySinkCursor` fill).  A store is never
    full, so the producing member never parks on it.  A run may be a
    numpy array: a list sink ``extend``s with its elements, an array
    sink copies it in through ``store_many``.
    """

    __slots__ = (
        "name", "n_consumers", "capacity", "_store", "_store_many",
        "_cursor", "_n_list", "read_waiters", "write_waiters",
        "total_puts", "total_gets", "producer_names", "consumer_names",
    )

    poisoned = False        # nobody reads a store, so nobody sees poison
    poison_origin = ""

    #: Traced as a put+get pair per transfer, so per-queue metrics
    #: match an unfused run (see :func:`repro.core.transport.traced`).
    trace_shape = "transfer"

    def __init__(self, name: str = ""):
        self.name = name
        self.n_consumers = 1
        self.capacity = 0
        self._store = self._store_many = None
        self._cursor: Optional[ArraySinkCursor] = None
        self._n_list = 0
        self.read_waiters: List[List] = [[]]
        self.write_waiters: List = []
        self.total_puts = 0
        self.total_gets = 0
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    def bind(self, dtype: StreamType, container: Any):
        """Attach the user container (the shared ``sink_store`` rule)."""
        if self._store is not None:
            raise IoBindingError(f"store {self.name!r} already bound")
        self._store, self._store_many, self._cursor = sink_store(
            dtype, container)

    # -- wiring --------------------------------------------------------------

    def bind_scheduler(self, scheduler) -> None:
        pass  # a store is never full, so no writer ever parks on it

    def poison(self, origin: str = "") -> None:
        pass  # what was stored stays; the container has no reader task

    # -- introspection -------------------------------------------------------

    @property
    def items_stored(self) -> int:
        if self._cursor is not None:
            return self._cursor.items_stored
        return self._n_list

    def size_for(self, consumer_idx: int) -> int:
        return 0  # delivered data is already in the container

    def is_empty_for(self, consumer_idx: int) -> bool:
        return True

    @property
    def free_slots(self) -> int:
        return 1 << 30

    @property
    def is_full(self) -> bool:
        return False

    # -- transfers -----------------------------------------------------------

    def try_put(self, value: Any) -> bool:
        self._store(value)
        self._n_list += 1
        self.total_puts += 1
        self.total_gets += 1
        return True

    def try_put_many(self, values, start: int = 0) -> int:
        n = len(values) - start
        if n <= 0:
            return 0
        self._store_many(values[start:] if start else values)
        self._n_list += n
        self.total_puts += n
        self.total_gets += n
        return n

    def try_get(self, consumer_idx: int):  # pragma: no cover - defensive
        raise GraphRuntimeError(f"cannot read from sink store {self.name!r}")

    def try_get_many(self, consumer_idx, max_n):  # pragma: no cover
        raise GraphRuntimeError(f"cannot read from sink store {self.name!r}")

    def peek(self, consumer_idx: int) -> Tuple[bool, Any]:
        return False, None

    def __repr__(self):
        return f"<SinkStore {self.name or '?'} stored={self.items_stored}>"
