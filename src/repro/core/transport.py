"""The :class:`Transport` protocol: one contract for every data plane.

Every stream net in a running graph is carried by *some* queue
implementation — the cooperative in-process ring
(:class:`~repro.core.queues.BroadcastQueue`), the lock-guarded thread
channel (:class:`~repro.x86sim.channels.ThreadedBroadcastQueue`), or the
cross-process shared-memory ring (:class:`~repro.mp.shm_ring.ShmRing`).
Historically each engine hard-coded its own class; this module names the
surface they all share so engines, the batched port-I/O ops, the
fault-injection proxies, and diagnostics can be written once against the
protocol:

Core transfer (non-blocking, engine decides how to wait)
    ``try_put(value) -> bool``, ``try_get(consumer_idx) -> (bool, value)``
    and the bulk ring operations ``try_put_many(values, start) -> int`` /
    ``try_get_many(consumer_idx, max_n) -> run`` behind
    ``port.put_batch``/``port.get_batch``.  ``values`` may be a list,
    tuple or numpy array, taken element by element at put time; a run
    read back is a list, or a read-only array view where a fused
    chain's source feed serves an array — test it with ``len()``,
    never for truth, and ``extend`` with it, never ``+=``.

Capacity / fill introspection (``describe_blockage``, wait-for analysis)
    ``capacity``, ``n_consumers``, ``size_for(idx)``, ``free_slots``,
    ``is_full``, ``is_empty_for(idx)``, ``total_puts``/``total_gets``,
    and the endpoint labels ``producer_names``/``consumer_names``.

Queue tracing (:mod:`repro.observe`)
    :func:`traced` wraps any transport in one proxy that emits
    ``queue.put`` / ``queue.get`` events with post-transfer fill levels
    (read through ``size_for``).  Engines wrap at queue construction
    when the run's tracer has ``queue_events``, before any port
    captures the queue; transports themselves carry no hook, so an
    untraced transfer costs **zero** extra.  A transport whose events
    differ from the ring's declares it once, as ``trace_shape``:
    ``"latch"`` (one live value: ``fill=1`` on both sides) or
    ``"transfer"`` (fused feeds/stores: each transfer is a put+get pair,
    so per-queue metrics match an unfused run).

Poison / freeze hooks (:mod:`repro.faults`)
    ``poison(origin)`` plus the ``poisoned``/``poison_origin`` markers
    read by the kernel ports' blocking slow path, and
    ``detach_consumer(idx)`` for containment.  Freeze/drop/corrupt
    faults wrap any transport in a
    :class:`~repro.faults.injectors.FaultyStreamQueue` proxy, which
    delegates everything it does not intercept — the proxy works on any
    object satisfying this protocol.  A faulted, traced net is
    ``Faulty(Traced(q))``: a dropped or frozen element never reaches the
    tracer.

The registry below makes the set of transports enumerable (the
conformance suite in ``tests/core/test_transport_conformance.py`` runs
the same contract against every entry) and lets the cgsim runtime pick
a non-default transport by name via ``transport=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, \
    Sequence, Tuple, runtime_checkable

from ..errors import GraphRuntimeError

__all__ = [
    "Transport",
    "TransportInfo",
    "register_transport",
    "get_transport",
    "available_transports",
    "make_queue",
    "traced",
]


@runtime_checkable
class Transport(Protocol):
    """Structural protocol for stream-net carriers (see module docs).

    Checked structurally (``isinstance(q, Transport)``) so existing
    queue classes participate without inheriting from anything.
    """

    name: str
    capacity: int
    n_consumers: int
    poisoned: bool
    poison_origin: str
    total_puts: int
    total_gets: int
    producer_names: List[str]
    consumer_names: List[str]

    # -- core transfer -----------------------------------------------------
    def try_put(self, value: Any) -> bool: ...
    def try_put_many(self, values, start: int = 0) -> int: ...
    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]: ...
    def try_get_many(self, consumer_idx: int, max_n: int) -> Sequence[Any]: ...

    # -- capacity / fill introspection ------------------------------------
    def size_for(self, consumer_idx: int) -> int: ...

    # -- poison / containment hooks ---------------------------------------
    def poison(self, origin: str) -> None: ...
    def detach_consumer(self, consumer_idx: int) -> None: ...


@dataclass(frozen=True)
class TransportInfo:
    """One registered transport implementation.

    ``factory(capacity, n_consumers, n_producers, name)`` builds an
    unwired instance.  The capability flags describe what an engine may
    assume:

    * ``scheduler_aware`` — wakes cooperative-scheduler waiter lists on
      state changes (required for cgsim kernels to unpark);
    * ``thread_safe`` — operations may race from multiple OS threads;
    * ``cross_process`` — state lives in shared memory and survives a
      ``fork()`` into sibling processes;
    * ``broadcast`` — every consumer sees every element (``max_consumers``
      is ``None``); point-to-point transports set ``max_consumers=1``.
    """

    name: str
    factory: Callable[..., Any]
    scheduler_aware: bool = False
    thread_safe: bool = False
    cross_process: bool = False
    broadcast: bool = True
    max_consumers: Optional[int] = None
    description: str = ""


_TRANSPORTS: Dict[str, TransportInfo] = {}


def register_transport(info: TransportInfo) -> TransportInfo:
    """Add a transport to the registry (same-name re-registration
    replaces the entry — test doubles, engine shims)."""
    if not info.name:
        raise GraphRuntimeError("transport registration needs a name")
    _TRANSPORTS[info.name] = info
    return info


def get_transport(name: str) -> TransportInfo:
    """Look up a registered transport; raises naming the known set."""
    try:
        return _TRANSPORTS[name]
    except KeyError:
        raise GraphRuntimeError(
            f"unknown transport {name!r}; registered: "
            f"{', '.join(available_transports()) or '(none)'}"
        ) from None


def available_transports() -> List[str]:
    """Sorted names of every registered transport."""
    return sorted(_TRANSPORTS)


def make_queue(transport: Any, capacity: int, n_consumers: int,
               n_producers: int = 1, name: str = ""):
    """Build one stream queue through the transport layer.

    *transport* is a registered name, a :class:`TransportInfo`, or a
    bare factory callable with the ``TransportInfo.factory`` signature.
    """
    if isinstance(transport, str):
        transport = get_transport(transport)
    if isinstance(transport, TransportInfo):
        if transport.max_consumers is not None \
                and n_consumers > transport.max_consumers:
            raise GraphRuntimeError(
                f"transport {transport.name!r} supports at most "
                f"{transport.max_consumers} consumer(s); net {name!r} "
                f"needs {n_consumers}"
            )
        factory = transport.factory
    else:
        factory = transport
    return factory(capacity=capacity, n_consumers=n_consumers,
                   n_producers=n_producers, name=name)


def _ring_put(q, tracer, n: int) -> None:
    # After a put the fullest consumer bounds the ring (a detached
    # cursor reads 0).
    fill = 0
    for c in range(q.n_consumers):
        size = q.size_for(c)
        if size > fill:
            fill = size
    tracer.queue_put(q.name, n, fill)


def _ring_get(q, tracer, consumer_idx: int, n: int) -> None:
    tracer.queue_get(q.name, n, q.size_for(consumer_idx))


def _latch_put(q, tracer, n: int) -> None:
    tracer.queue_put(q.name, n, 1)


def _latch_get(q, tracer, consumer_idx: int, n: int) -> None:
    tracer.queue_get(q.name, n, 1)


def _transfer_put(q, tracer, n: int) -> None:
    tracer.queue_put(q.name, n, n)
    tracer.queue_get(q.name, n, 0)


def _transfer_get(q, tracer, consumer_idx: int, n: int) -> None:
    _transfer_put(q, tracer, n)


#: ``trace_shape`` -> (put reporter, get reporter); see module docs.
_TRACE_SHAPES = {
    "ring": (_ring_put, _ring_get),
    "latch": (_latch_put, _latch_get),
    "transfer": (_transfer_put, _transfer_get),
}


class _TracedQueue:
    """Transparent tracing proxy over one transport.

    Intercepts the four transfer methods, reports each accepted
    transfer to the tracer after the inner call returns, and delegates
    every other attribute (waiter lists, names, poison flags,
    containment hooks, diagnostics) to the inner queue.
    """

    __slots__ = ("_inner", "_tracer", "_on_put", "_on_get")

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self._on_put, self._on_get = _TRACE_SHAPES[
            getattr(inner, "trace_shape", "ring")]

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __repr__(self):
        return f"<TracedQueue {self._inner!r}>"

    def try_put(self, value: Any) -> bool:
        ok = self._inner.try_put(value)
        if ok:
            self._on_put(self._inner, self._tracer, 1)
        return ok

    def try_put_many(self, values, start: int = 0) -> int:
        n = self._inner.try_put_many(values, start)
        if n:
            self._on_put(self._inner, self._tracer, n)
        return n

    def try_get(self, consumer_idx: int) -> Tuple[bool, Any]:
        ok, value = self._inner.try_get(consumer_idx)
        if ok:
            self._on_get(self._inner, self._tracer, consumer_idx, 1)
        return ok, value

    def try_get_many(self, consumer_idx: int, max_n: int) -> Sequence[Any]:
        out = self._inner.try_get_many(consumer_idx, max_n)
        if len(out):   # an array run has no truth value
            self._on_get(self._inner, self._tracer, consumer_idx, len(out))
        return out


def traced(queue: Any, tracer) -> Any:
    """*queue* wrapped to report its transfers to *tracer*, or *queue*
    itself when *tracer* is ``None`` or records no queue events."""
    if tracer is None or not tracer.queue_events:
        return queue
    return _TracedQueue(queue, tracer)


def _ring_factory(capacity, n_consumers, n_producers=1, name=""):
    from .queues import BroadcastQueue

    return BroadcastQueue(capacity=capacity, n_consumers=n_consumers,
                          name=name)


def _threaded_factory(capacity, n_consumers, n_producers=1, name=""):
    from ..x86sim.channels import ThreadedBroadcastQueue

    return ThreadedBroadcastQueue(capacity=capacity, n_consumers=n_consumers,
                                  n_producers=n_producers, name=name)


def _shm_factory(capacity, n_consumers, n_producers=1, name=""):
    from ..mp.shm_ring import ShmRing

    return ShmRing.create(capacity=capacity, n_consumers=n_consumers,
                          name=name)


def _register_builtin_transports() -> None:
    """Register the in-tree transports.  Called from ``repro.core`` on
    first import; the factories import their implementation lazily so
    registration stays cycle-free (x86sim and repro.mp both import
    repro.core)."""
    register_transport(TransportInfo(
        name="ring",
        factory=_ring_factory,
        scheduler_aware=True,
        description="cooperative in-process broadcast ring (cgsim default)",
    ))
    register_transport(TransportInfo(
        name="threaded",
        factory=_threaded_factory,
        thread_safe=True,
        description="lock+condvar broadcast channel (x86sim threads)",
    ))
    register_transport(TransportInfo(
        name="shm",
        factory=_shm_factory,
        thread_safe=True,
        cross_process=True,
        broadcast=False,
        max_consumers=1,
        description="cross-process shared-memory byte ring (cgsim-mp "
                    "boundary nets)",
    ))
