"""Runtime support for fused kernel chains (the cgsim optimizing plan).

The optimization pass in ``repro.exec.optimize`` collapses maximal linear
1-producer/1-consumer kernel chains into a single *fused driver*: one
scheduler task that runs every member coroutine of the chain itself and
hands values between members through :class:`FusedLink` buffers instead
of scheduler-mediated broadcast queues (queue elision).  Graph inputs
consumed only by a chain are bound straight to the user container
(:class:`SourceFeed`), and graph outputs produced only by a chain are
written straight into the sink container (:class:`SinkStore`) — both
remove the source/sink coroutine and its context switches entirely.

This module holds the *runtime* half of the optimization: the plan
dataclasses the analyzer emits, the queue-compatible buffer fronts, and
the :class:`FusedDriver` state machine.  The graph analysis that decides
*what* to fuse lives in ``repro.exec.optimize`` (the core package never
imports ``repro.exec``).

Correctness properties the driver preserves (tested in
``tests/exec/test_optimize.py``):

* output equivalence — fused runs produce bit-identical sink contents;
* stall semantics — a member that can no longer make progress ends in
  the same ``blocked-read``/``blocked-write`` state as its unfused task,
  and at most **one** member ever parks on a real (non-elided) queue at
  a time, so the driver can park on that queue's waiter list without
  missing wakeups (the analyzer's safety rule guarantees this; the
  driver still checks and raises loudly if violated);
* accounting — per-member resumes / cpu / blocked time are kept so
  ``SchedulerStats`` can attribute fused-driver time to the member list,
  and ``describe_blockage`` names the blocked member, not the driver;
* tracing — with a tracer attached the driver emits the same synthetic
  per-member task lifecycle events a scheduler would.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, \
    Sequence, Tuple

from ..errors import GraphRuntimeError, IoBindingError
from .dtypes import StreamType
from .queues import DEFAULT_QUEUE_CAPACITY
from .sources_sinks import ArraySinkCursor, sink_store, stream_chunks

__all__ = [
    "ChainMember",
    "FusedChain",
    "OptimizedPlan",
    "FusedLink",
    "SourceFeed",
    "SinkStore",
    "FusedDriver",
]


# ---------------------------------------------------------------------------
# Plan dataclasses (produced by repro.exec.optimize, consumed by the runtime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainMember:
    """One coroutine of a fused chain.

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
    link_nets: Tuple[int, ...]       # elided member-to-member nets
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


class FusedLink:
    """Single-producer/single-consumer buffer for an elided chain net.

    Duck-types the :class:`~repro.core.queues.BroadcastQueue` surface the
    kernel ports and the runtime's accounting touch, but never talks to
    the scheduler: producer/consumer coordination is handled by the
    owning :class:`FusedDriver`'s internal wake scan.
    """

    __slots__ = (
        "name", "capacity", "n_consumers", "_buf", "read_waiters", "write_waiters", "total_puts", "total_gets",
        "producer_names", "consumer_names",
    )

    # Chain-internal buffers are never poisoned: a failing member takes
    # its whole driver down, and containment acts on the chain's real
    # boundary queues.  The class-level flag satisfies the port
    # ops' slow-path poison check at zero per-instance cost.
    poisoned = False
    poison_origin = ""

    def __init__(self, capacity: int, name: str = ""):
        self.name = name
        self.capacity = max(1, int(capacity))
        self.n_consumers = 1
        self._buf: deque = deque()
        self.read_waiters: List[List] = [[]]
        self.write_waiters: List = []
        self.total_puts = 0
        self.total_gets = 0
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    # -- wiring (scheduler coordination is a no-op by design) ---------------

    def bind_scheduler(self, scheduler) -> None:
        pass

    # -- introspection ------------------------------------------------------

    def size_for(self, consumer_idx: int) -> int:
        return len(self._buf)

    def is_empty_for(self, consumer_idx: int) -> bool:
        return not self._buf

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._buf)

    @property
    def is_full(self) -> bool:
        return len(self._buf) >= self.capacity

    # -- transfers ----------------------------------------------------------

    def try_put(self, value: Any) -> bool:
        if len(self._buf) >= self.capacity:
            return False
        self._buf.append(value)
        self.total_puts += 1
        return True

    def try_put_many(self, values, start: int = 0) -> int:
        n_values = len(values) - start
        if n_values <= 0:
            return 0
        free = self.capacity - len(self._buf)
        if free <= 0:
            return 0
        n = free if free < n_values else n_values
        self._buf.extend(values[start:start + n])
        self.total_puts += n
        return n

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        if not self._buf:
            return False, None
        self.total_gets += 1
        return True, self._buf.popleft()

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        buf = self._buf
        avail = len(buf)
        if avail <= 0 or max_n <= 0:
            return []
        if max_n >= avail:
            out = list(buf)
            buf.clear()
        else:
            out = [buf.popleft() for _ in range(max_n)]
        self.total_gets += len(out)
        return out

    def peek(self, consumer_idx: int) -> Tuple[bool, Any]:
        if not self._buf:
            return False, None
        return True, self._buf[0]

    def drain(self, consumer_idx: int) -> List[Any]:
        out = list(self._buf)
        self._buf.clear()
        self.total_gets += len(out)
        return out

    def __repr__(self):
        return (
            f"<FusedLink {self.name or '?'} cap={self.capacity} "
            f"fill={len(self._buf)}>"
        )


class SourceFeed:
    """Queue front that serves a graph input straight from user data.

    When a graph input net is consumed *only* by a fused chain, the
    runtime replaces the net's queue (and its source coroutine) with a
    feed: the chain member's reads pull directly from the bound
    container.  A read that finds no data means the input is exhausted —
    the feed never refills — which the driver turns into the member's
    terminal blocked-read state, exactly as an unfused kernel ends up
    parked on a drained queue.

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

    poisoned = False        # see FusedLink: boundary-only containment
    poison_origin = ""

    #: Traced as a put+get pair per transfer, so per-queue metrics
    #: match an unfused run (see :func:`repro.core.transport.traced`).
    trace_shape = "transfer"

    def __init__(self, name: str = ""):
        self.name = name
        self.n_consumers = 1
        self.capacity = 0
        self._chunks: Optional[Iterator[Any]] = None
        self._chunk = DEFAULT_QUEUE_CAPACITY
        self._buf: Any = None   # the current run; None until bound
        self._pos = 0
        self.read_waiters: List[List] = [[]]
        self.write_waiters: List = []
        self.total_puts = 0
        self.total_gets = 0
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    def bind(self, dtype: StreamType, data: Any, validate: bool = False,
             chunk: int = DEFAULT_QUEUE_CAPACITY):
        """Attach the user container (mirrors ``make_source`` semantics:
        *chunk* plays the source ring's capacity)."""
        if self._buf is not None:
            raise IoBindingError(f"feed {self.name!r} already bound")
        self._chunks = stream_chunks(dtype, data, validate, chunk)
        self._chunk = chunk
        self._buf = []

    # -- wiring --------------------------------------------------------------

    def bind_scheduler(self, scheduler) -> None:
        pass

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

    poisoned = False        # see FusedLink: boundary-only containment
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
        pass

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


# ---------------------------------------------------------------------------
# Fused driver
# ---------------------------------------------------------------------------


# Member micro-states (driver-internal; mapped to TaskState values for
# the merged SchedulerStats at the end of the run).
_M_READY = 0      # runnable
_M_WAITL = 1      # parked on an internal FusedLink
_M_EXT = 2        # parked on a real queue (the driver yields its command)
_M_DONE = 3       # coroutine returned
_M_DEAD = 4       # can never progress (source exhausted / peer done)
_M_FAILED = 5     # raised


class FusedMember:
    """Bookkeeping record for one coroutine inside a fused driver."""

    __slots__ = (
        "name", "coro", "state", "wait_cmd", "wait_q", "wait_op",
        "resumes", "cpu_time", "blocked_time", "park_ts",
    )

    def __init__(self, name: str, coro):
        self.name = name
        self.coro = coro
        self.state = _M_READY
        self.wait_cmd: Optional[Tuple] = None
        self.wait_q: Any = None
        self.wait_op: str = ""
        self.resumes = 0
        self.cpu_time = 0.0
        self.blocked_time = 0.0
        self.park_ts = 0.0

    @property
    def final_state(self) -> str:
        """TaskState value string for the merged stats."""
        if self.state == _M_DONE:
            return "finished"
        if self.state == _M_FAILED:
            return "failed"
        if self.state in (_M_WAITL, _M_EXT, _M_DEAD) and self.wait_op:
            return "blocked-read" if self.wait_op == "rd" else "blocked-write"
        return "cancelled"

    def __repr__(self):
        return f"<FusedMember {self.name} state={self.state}>"


class FusedDriver:
    """Runs a fused chain's member coroutines as one scheduler task.

    The scheduler sees a single task (``send``/``close``, like any
    coroutine).  Internally the driver keeps its own ready deque and
    drives members round-robin; commands a member yields are classified:

    * internal link read/write  -> park the member, wake it from the
      driver's own quiescence scan when the link changes state;
    * source-feed read          -> the input is exhausted; the member is
      terminally blocked (``_M_DEAD``) like a kernel on a drained queue;
    * voluntary yield           -> requeue the member and propagate one
      ``("yield", ...)`` to the scheduler (livelock guards keep working);
    * anything else (a real queue or an RTP latch) -> the driver parks
      *itself* on that queue by yielding the member's command upward.

    The analyzer guarantees at most one member touches real boundary
    queues, so at quiescence at most one member can be externally
    blocked; the driver raises ``GraphRuntimeError`` if that invariant
    is ever violated rather than risk a silent missed-wakeup stall.
    """

    def __init__(self, name: str, members: List[FusedMember], *,
                 links: Dict[int, Tuple[Any, FusedMember, FusedMember]],
                 feed_ids: FrozenSet[int]):
        self.name = name
        self.members = members
        self._links = links          # id(link) -> (link, producer, consumer)
        self._feed_ids = feed_ids    # {id(feed)}
        #: Name of the member currently parked on a real queue, read by
        #: ``CooperativeScheduler.describe_blockage`` so stall reports
        #: name the original kernel endpoint instead of the driver.
        self.blocked_member_name: Optional[str] = None
        self.failed_member: Optional[str] = None
        #: Name of the member currently executing inside ``_step``, read
        #: by the sampling profiler so samples taken while the scheduler
        #: runs this fused task are attributed to the original kernel.
        self.current_member_name: Optional[str] = None
        # Set by the RuntimeContext before spawn.
        self.tracer = None
        self.measure = False
        self.profile = False
        self._last_ts = 0.0
        self._gen = self._run()

    # -- coroutine protocol (what the scheduler drives) ----------------------

    def send(self, value):
        return self._gen.send(value)

    def close(self):
        try:
            self._gen.close()
        finally:
            # close() on a never-started generator skips its finally
            # block, so member teardown must not rely on it.
            self._close_members()

    # -- internals -----------------------------------------------------------

    def _close_members(self):
        for m in self.members:
            try:
                m.coro.close()
            except RuntimeError:  # pragma: no cover - already closing
                pass

    def _step(self, m: FusedMember):
        """Resume one member; return its yielded command or None if it
        finished.  Raises if the member raised (scheduler handles it)."""
        tracer = self.tracer
        m.resumes += 1
        self.current_member_name = m.name
        try:
            if self.measure:
                if tracer is not None:
                    if m.resumes == 1:
                        tracer.task_start(m.name, role="kernel")
                    else:
                        tracer.task_resume(m.name)
                t0 = perf_counter()
                if m.park_ts:
                    m.blocked_time += t0 - m.park_ts
                    m.park_ts = 0.0
                cmd = m.coro.send(None)
                t1 = perf_counter()
                if self.profile:
                    m.cpu_time += t1 - t0
                self._last_ts = t1
            else:
                cmd = m.coro.send(None)
        except StopIteration:
            m.state = _M_DONE
            if tracer is not None:
                tracer.task_finish(m.name)
            return None
        except BaseException as exc:
            m.state = _M_FAILED
            self.failed_member = m.name
            if tracer is not None:
                tracer.task_fail(m.name, exc)
            raise
        finally:
            self.current_member_name = None
        return cmd

    def _park(self, m: FusedMember, cmd, state: int):
        m.state = state
        m.wait_cmd = cmd
        m.wait_q = cmd[1]
        m.wait_op = cmd[0]
        if self.measure:
            m.park_ts = self._last_ts or perf_counter()
            if self.tracer is not None:
                carried = cmd[3] if len(cmd) > 3 else 0
                qname = getattr(cmd[1], "name", "") or ""
                self.tracer.task_suspend(
                    m.name, queue=qname,
                    op="read" if cmd[0] == "rd" else "write", n=carried,
                )

    def _unpark(self, m: FusedMember, ready: deque):
        if self.tracer is not None:
            qname = getattr(m.wait_q, "name", "") or ""
            self.tracer.task_unpark(m.name, queue=qname, by=self.name)
        m.state = _M_READY
        ready.append(m)

    def _run(self):
        members = self.members
        links = self._links
        feed_ids = self._feed_ids
        ready: deque = deque(members)
        try:
            while True:
                while ready:
                    m = ready.popleft()
                    if m.state != _M_READY:  # pragma: no cover - defensive
                        continue
                    cmd = self._step(m)
                    if cmd is None:
                        continue
                    op = cmd[0]
                    if op == "yield":
                        ready.append(m)
                        if self.tracer is not None:
                            self.tracer.task_suspend(m.name, op="yield")
                        yield ("yield", None, -1)
                        continue
                    q = cmd[1]
                    qid = id(q)
                    if qid in links:
                        self._park(m, cmd, _M_WAITL)
                    elif qid in feed_ids and op == "rd":
                        # The directly-bound input has no more data and
                        # never will: terminal end-of-input park.
                        self._park(m, cmd, _M_DEAD)
                    else:
                        self._park(m, cmd, _M_EXT)

                # Quiescence: internal wake scan until fixpoint.  Runs
                # of put/get above may have made parked members
                # runnable, and members that finished may doom their
                # link peers (DEAD cascades), so iterate until nothing
                # changes.
                woke = False
                progressed = True
                while progressed:
                    progressed = False
                    for m in members:
                        if m.state != _M_WAITL:
                            continue
                        link, producer, consumer = links[id(m.wait_q)]
                        if m.wait_op == "rd":
                            if link.size_for(0) > 0:
                                self._unpark(m, ready)
                                progressed = woke = True
                            elif producer is None or producer.state in (
                                _M_DONE, _M_DEAD, _M_FAILED,
                            ):
                                m.state = _M_DEAD
                                progressed = True
                        else:
                            if not link.is_full:
                                self._unpark(m, ready)
                                progressed = woke = True
                            elif consumer is None or consumer.state in (
                                _M_DONE, _M_DEAD, _M_FAILED,
                            ):
                                m.state = _M_DEAD
                                progressed = True
                if woke:
                    continue

                ext = [m for m in members if m.state == _M_EXT]
                if not ext:
                    # Every member finished or is terminally blocked on
                    # chain-internal state: the driver's work is done.
                    return
                if len(ext) > 1:  # pragma: no cover - analyzer invariant
                    names = ", ".join(m.name for m in ext)
                    raise GraphRuntimeError(
                        f"fused driver {self.name!r}: {len(ext)} members "
                        f"blocked on external queues at once ({names}); "
                        f"the fusion safety analysis should have prevented "
                        f"this chain from being fused"
                    )
                m = ext[0]
                self.blocked_member_name = m.name
                # Park the driver on the real queue with the member's own
                # command; the scheduler wakes us when that queue moves.
                yield m.wait_cmd
                self.blocked_member_name = None
                m.state = _M_READY
                ready.append(m)
        finally:
            self._close_members()

    # -- accounting / diagnostics -------------------------------------------

    def finalize_times(self, t_end: float) -> None:
        """Charge open parks at run end (mirrors the scheduler's own
        leftover ``park_ts`` handling)."""
        if not self.measure:
            return
        for m in self.members:
            if m.park_ts:
                m.blocked_time += t_end - m.park_ts
                m.park_ts = 0.0

    def blocked_write_members(self) -> List[str]:
        return [
            m.name for m in self.members
            if m.state in (_M_WAITL, _M_EXT, _M_DEAD) and m.wait_op == "wr"
        ]

    def stall_lines(self) -> List[str]:
        """Diagnosis lines for members parked on chain-internal state
        (externally parked members already appear in the scheduler's
        ``describe_blockage`` through ``blocked_member_name``)."""
        lines = []
        for m in self.members:
            if m.state not in (_M_WAITL, _M_DEAD) or m.wait_q is None:
                continue
            op = "read" if m.wait_op == "rd" else "write"
            q = m.wait_q
            qname = getattr(q, "name", "") or "link"
            qid = id(q)
            if qid in self._feed_ids:
                detail = "source exhausted"
                peers = list(getattr(q, "producer_names", ()))
            elif qid in self._links:
                link, producer, consumer = self._links[qid]
                fill = link.size_for(0)
                detail = f"fill {fill}/{link.capacity}"
                peer = producer if op == "read" else consumer
                peers = [peer.name] if peer is not None else []
            else:  # pragma: no cover - defensive
                detail = "fill ?"
                peers = []
            peer_txt = ", ".join(peers) if peers else (
                "a producer" if op == "read" else "a consumer"
            )
            lines.append(
                f"  {m.name} (kernel, fused into {self.name}) blocked on "
                f"{op} of {qname} [{detail}; peers: {peer_txt}]"
            )
        return lines

    def __repr__(self):
        return f"<FusedDriver {self.name} members={len(self.members)}>"
