"""Transport-conformance suite: one contract, every registered carrier.

Each registered transport (``repro.core.transport``) must satisfy the
same put/get/bulk/poison/freeze/fill-introspection surface, because the
kernel ports, the batched I/O awaitables, the fault proxies, and
``describe_blockage`` are written once against the protocol.  The tests
parametrize over the registry so a new transport is covered the moment
it registers — capability flags (``broadcast``, ``max_consumers``)
scope the broadcast-specific cases.
"""

import numpy as np
import pytest

from conftest import build_fig4_graph
from repro.core import Window, float32, int32
from repro.core.fused import SinkStore, SourceFeed
from repro.core.ports import (
    KernelReadPort,
    KernelWritePort,
    PortDirection,
    PortSpec,
)
from repro.core.queues import LatchQueue
from repro.core.transport import (
    Transport,
    available_transports,
    get_transport,
    make_queue,
    traced,
)
from repro.exec import run_graph
from repro.faults import NetDrop
from repro.faults.injectors import FaultyStreamQueue
from repro.faults.plan import QueueFreeze
from repro.observe import QUEUE_GET, QUEUE_PUT, Tracer
from repro.observe.sinks import RingSink
from repro.x86sim.channels import ThreadedLatchQueue

TRANSPORTS = available_transports()


class _StubSession:
    """Minimal FaultSession stand-in: the proxy only calls record()."""

    def __init__(self):
        self.events = []

    def record(self, fault, **detail):
        self.events.append((fault, detail))


def _make(name, capacity=4, n_consumers=1):
    info = get_transport(name)
    if info.max_consumers is not None and n_consumers > info.max_consumers:
        pytest.skip(f"{name} supports at most {info.max_consumers} "
                    f"consumer(s)")
    q = make_queue(info, capacity=capacity, n_consumers=n_consumers,
                   name=f"conf_{name}")
    return q, info


def _cleanup(q):
    if hasattr(q, "close"):  # shared-memory transports own a mapping
        q.close()


@pytest.mark.parametrize("name", TRANSPORTS)
class TestTransportContract:
    def test_registry_builds_protocol_instances(self, name):
        q, info = _make(name)
        try:
            assert isinstance(q, Transport)
            assert q.name == f"conf_{name}"
            assert q.capacity == 4
            assert info.description
        finally:
            _cleanup(q)

    def test_fifo_round_trip(self, name):
        q, _ = _make(name)
        try:
            assert q.try_put(10) and q.try_put(20)
            ok, v = q.try_get(0)
            assert ok and v == 10
            ok, v = q.try_get(0)
            assert ok and v == 20
            ok, _v = q.try_get(0)
            assert not ok  # empty
        finally:
            _cleanup(q)

    def test_bulk_ops_and_capacity_bound(self, name):
        q, _ = _make(name, capacity=3)
        try:
            n = q.try_put_many([1, 2, 3, 4, 5], 0)
            assert 1 <= n <= 3          # capacity admits at most 3
            n += q.try_put_many([1, 2, 3, 4, 5], n)
            assert n == 3 or q.is_full
            got = q.try_get_many(0, 10)
            assert got == [1, 2, 3][:len(got)] and len(got) >= 1
        finally:
            _cleanup(q)

    def test_fill_introspection(self, name):
        q, _ = _make(name, capacity=4)
        try:
            assert q.is_empty_for(0) and not q.is_full
            assert q.size_for(0) == 0 and q.free_slots == 4
            q.try_put_many([7, 8, 9], 0)
            assert q.size_for(0) == 3
            assert q.free_slots == 1
            assert not q.is_empty_for(0) and not q.is_full
            q.try_put(10)
            assert q.is_full and q.free_slots == 0
            q.try_get(0)
            assert not q.is_full
        finally:
            _cleanup(q)

    def test_transfer_accounting(self, name):
        q, _ = _make(name, capacity=8)
        try:
            q.try_put_many(list(range(5)), 0)
            assert q.total_puts == 5
            q.try_get_many(0, 3)
            assert q.total_gets == 3
            assert q.producer_names == [] and q.consumer_names == []
            q.producer_names.append("k0")  # diagnostics labels are open
            assert "k0" in q.producer_names
        finally:
            _cleanup(q)

    def test_poison_marks_and_preserves_buffered(self, name):
        q, _ = _make(name, capacity=4)
        try:
            q.try_put(1)
            assert not q.poisoned
            q.poison("t_fail_0")
            assert q.poisoned and q.poison_origin == "t_fail_0"
            # Buffered data must stay readable so downstream drains to
            # the exact element where the data ends.
            ok, v = q.try_get(0)
            assert ok and v == 1
        finally:
            _cleanup(q)

    def test_detach_consumer(self, name):
        q, _ = _make(name, capacity=4)
        try:
            q.try_put_many([1, 2], 0)
            q.detach_consumer(0)
            # A detached cursor no longer holds data back.
            assert q.try_put_many([3, 4, 5], 0) >= 2
        finally:
            _cleanup(q)

    def test_freeze_proxy_wraps_any_transport(self, name):
        q, _ = _make(name, capacity=4)
        session = _StubSession()
        proxy = FaultyStreamQueue(
            q, session,
            freeze=QueueFreeze(net=q.name, after_puts=2,
                               release_after_gets=1),
        )
        try:
            assert proxy.try_put(1) and proxy.try_put(2)
            assert not proxy.try_put(3)  # frozen: behaves full
            assert session.events and session.events[0][0] == "freeze"
            ok, v = proxy.try_get(0)
            assert ok and v == 1         # thaw trigger
            assert proxy.try_put(3)      # thawed
            assert proxy.capacity == 4   # passthrough attributes
        finally:
            _cleanup(q)


@pytest.mark.parametrize("name", [n for n in TRANSPORTS
                                  if get_transport(n).broadcast])
def test_broadcast_every_consumer_sees_every_element(name):
    q, _ = _make(name, n_consumers=2)
    try:
        q.try_put_many([1, 2, 3], 0)
        a = q.try_get_many(0, 10)
        b = q.try_get_many(1, 10)
        assert a == b == [1, 2, 3]
    finally:
        _cleanup(q)


def test_max_consumers_enforced_at_construction():
    from repro.errors import GraphRuntimeError

    for name in TRANSPORTS:
        info = get_transport(name)
        if info.max_consumers is None:
            continue
        with pytest.raises(GraphRuntimeError, match="consumer"):
            make_queue(info, capacity=4,
                       n_consumers=info.max_consumers + 1, name="over")


def test_registry_covers_builtin_transports():
    assert {"ring", "threaded", "shm"} <= set(TRANSPORTS)


# -- queue tracing: one wrapper over every transport ---------------------------
#
# ``traced(q, tracer)`` is the only source of queue.put/queue.get events.
# Each case runs a fixed transfer script through the wrapper and pins the
# emitted (kind, n, fill) list: n is what the call moved, fill the
# post-transfer size_for (the fullest consumer after a put).


def _ring_script(q):
    return [q.try_put(1), q.try_put_many([2, 3, 4, 5], 0), q.try_get(0),
            q.try_get_many(0, 2), q.try_put_many([6, 7], 0),
            q.try_get_many(0, 10), q.try_get(0), q.try_get_many(0, 4)]


def _broadcast_script(q):
    return [q.try_put_many([1, 2, 3], 0), q.try_get_many(0, 2),
            q.try_put(4), q.try_get(1), q.try_get_many(1, 10),
            q.try_get(0), q.try_put_many([5, 6], 1), q.try_get_many(0, 10)]


def _latch_script(q):
    return [q.try_get(0), q.try_put(1), q.try_get(0),
            q.try_put_many([2, 3, 4], 0), q.try_get(0),
            q.try_get_many(0, 2)]


def _feed_script(q):
    q.bind(int32, [1, 2, 3, 4, 5, 6])
    return [q.try_get(0), q.try_get_many(0, 3), q.try_get_many(0, 10),
            q.try_get(0), q.try_get_many(0, 2)]


def _store_script(q):
    out = []
    q.bind(int32, out)
    return [q.try_put(1), q.try_put_many([2, 3, 4], 0),
            q.try_put_many([5, 6, 7], 1), out]


def _registered(name, n_consumers=1):
    return lambda: make_queue(get_transport(name), capacity=4,
                              n_consumers=n_consumers, name=f"t_{name}")


_RING_EVENTS = [("put", 1, 1), ("put", 3, 4), ("get", 1, 3), ("get", 2, 1),
                ("put", 2, 3), ("get", 3, 0)]
_BROADCAST_EVENTS = [("put", 3, 3), ("get", 2, 1), ("put", 1, 4),
                     ("get", 1, 3), ("get", 3, 0), ("get", 1, 1),
                     ("put", 1, 2), ("get", 2, 0)]
# A latch holds one live value: fill 1 on both sides, and n is what the
# latch itself counts in total_puts/total_gets.
_LATCH_EVENTS = [("put", 1, 1), ("get", 1, 1), ("put", 3, 1), ("get", 1, 1),
                 ("get", 2, 1)]
_TRANSFER_EVENTS = [("put", 1, 1), ("get", 1, 0), ("put", 3, 3),
                    ("get", 3, 0), ("put", 2, 2), ("get", 2, 0)]

#: case -> (queue factory, script, pinned (kind, n, fill) list)
TRACE_CASES = {
    "ring": (_registered("ring"), _ring_script, _RING_EVENTS),
    "threaded": (_registered("threaded"), _ring_script, _RING_EVENTS),
    # A get of 2 that pops a 3-item shared-memory record reports 2, and
    # the consumer's staged carry counts in the fill.
    "shm": (_registered("shm"), _ring_script, _RING_EVENTS),
    "ring-broadcast": (_registered("ring", 2), _broadcast_script,
                       _BROADCAST_EVENTS),
    "threaded-broadcast": (_registered("threaded", 2), _broadcast_script,
                           _BROADCAST_EVENTS),
    "LatchQueue": (lambda: LatchQueue(n_consumers=1, name="latch"),
                   _latch_script, _LATCH_EVENTS),
    "ThreadedLatchQueue": (
        lambda: ThreadedLatchQueue(n_consumers=1, name="latch"),
        _latch_script, _LATCH_EVENTS),
    "SourceFeed": (lambda: SourceFeed(name="feed"), _feed_script,
                   _TRANSFER_EVENTS),
    "SinkStore": (lambda: SinkStore(name="store"), _store_script,
                  _TRANSFER_EVENTS),
}


def _queue_events(tracer):
    return [(ev.kind.split(".")[1], ev.n, ev.fill) for ev in tracer.events
            if ev.kind in (QUEUE_PUT, QUEUE_GET)]


def test_every_registered_transport_has_a_trace_case():
    assert set(TRANSPORTS) <= set(TRACE_CASES)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_traced_wrapper_event_stream(case):
    make, script, expected = TRACE_CASES[case]
    plain, inner = make(), make()
    tracer = Tracer(RingSink(maxlen=None), metrics=False)
    q = traced(inner, tracer)
    try:
        assert script(q) == script(plain)   # values pass through unchanged
        assert _queue_events(tracer) == expected
        assert q.total_puts == plain.total_puts
        assert q.total_gets == plain.total_gets
    finally:
        _cleanup(plain)
        _cleanup(inner)


def test_traced_is_identity_without_queue_events():
    q = LatchQueue(name="latch")
    assert traced(q, None) is q
    assert traced(q, Tracer(RingSink(), queue_events=False)) is q


def _transport_classes():
    classes = {LatchQueue, ThreadedLatchQueue, SourceFeed, SinkStore}
    for name in TRANSPORTS:
        q, _ = _make(name)
        classes.add(type(q))
        _cleanup(q)
    return sorted(classes, key=lambda c: c.__qualname__)


@pytest.mark.parametrize("cls", _transport_classes(),
                         ids=lambda c: c.__qualname__)
def test_transfer_methods_carry_no_trace_hook(cls):
    """Untraced transfers pay zero hook cost: no transport's transfer
    methods so much as name a tracer."""
    for meth in ("try_put", "try_put_many", "try_get", "try_get_many"):
        names = getattr(cls, meth).__code__.co_names
        assert not {"_observe", "queue_put", "queue_get"} & set(names), \
            f"{cls.__qualname__}.{meth}"


@pytest.mark.parametrize("backend", ["cgsim", "x86sim"])
def test_dropped_element_is_never_traced(backend):
    data = list(range(12))
    out = []
    result = run_graph(build_fig4_graph(), data, out, backend=backend,
                       observe=True, faults=NetDrop("b", every=3))
    assert out == [4 * x for i, x in enumerate(data) if i % 3]
    puts = [ev for ev in result.trace.events
            if ev.kind == QUEUE_PUT and ev.queue == "b"]
    gets = [ev for ev in result.trace.events
            if ev.kind == QUEUE_GET and ev.queue == "b"]
    assert sum(ev.n for ev in puts) == len(out) == sum(ev.n for ev in gets)


# -- array runs: put_batch of an ndarray is its list form ---------------------
#
# A fused twin hands ``put_batch`` its result array, and a fused source
# feed serves an array container as views.  Every carrier must treat an
# array run exactly as the list of its elements: the same elements
# (values, element types, bytes) delivered, the same transfer totals and
# the same trace events.

WIN4 = Window(float32, 4)
SCALAR_RUN = np.arange(11, dtype=np.float32) * np.float32(0.25)
WINDOW_RUN = np.arange(28, dtype=np.float32).reshape(7, 4)
ARRAY_RUNS = {"scalar": (float32, SCALAR_RUN), "window": (WIN4, WINDOW_RUN)}


def _faulty_ring():
    # Drops every third element: the proxy decides element by element.
    return FaultyStreamQueue(
        make_queue("ring", capacity=4, n_consumers=1, name="faulty"),
        _StubSession(), drops=(NetDrop("faulty", every=3),))


#: carrier -> factory of a fresh, empty queue with one consumer
PUT_CARRIERS = {
    **{name: _registered(name) for name in TRANSPORTS},
    "fault proxy": _faulty_ring,
}


def _drive(gen, on_park=lambda: None):
    """Run a port-op generator to completion, calling *on_park* at each
    park; returns the op's result."""
    while True:
        try:
            gen.send(None)
        except StopIteration as stop:
            return stop.value
        on_park()


def _tracer():
    return Tracer(RingSink(maxlen=None), metrics=False)


def _elements(seq):
    return [(type(v), np.asarray(v).dtype, np.asarray(v).shape,
             np.asarray(v).tobytes()) for v in seq]


def _put_through(make, dtype, values, trace):
    """put_batch *values* into a fresh carrier, draining it whenever the
    put parks; returns what came out and what was recorded."""
    inner = make()
    tracer = _tracer()
    q = traced(inner, tracer) if trace else inner
    got = []
    port = KernelWritePort(PortSpec("o", PortDirection.WRITE, dtype), q)
    try:
        _drive(port.put_batch(values),
               lambda: got.extend(q.try_get_many(0, 64)))
        got.extend(q.try_get_many(0, 64))
        return (_elements(got), q.total_puts, q.total_gets,
                _queue_events(tracer))
    finally:
        _cleanup(inner)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("run", sorted(ARRAY_RUNS))
@pytest.mark.parametrize("carrier", sorted(PUT_CARRIERS))
def test_array_put_batch_matches_list_form(carrier, run, trace):
    dtype, values = ARRAY_RUNS[run]
    make = PUT_CARRIERS[carrier]
    as_array = _put_through(make, dtype, values, trace)
    as_list = _put_through(make, dtype, list(values), trace)
    assert as_array == as_list
    assert as_array[0]   # something was delivered


def test_shm_ring_takes_an_array_slice_as_one_record():
    q = make_queue(get_transport("shm"), capacity=16, n_consumers=1,
                   name="shm")
    try:
        assert q.try_put_many(SCALAR_RUN, 3) == len(SCALAR_RUN) - 3
        with q._lock:
            record = q._pop_record()
            assert q._pop_record() is None   # one record
        assert _elements(record) == _elements(SCALAR_RUN[3:])
        # The consumer still gets a list of the run's elements.
        q.try_put_many(SCALAR_RUN, 3)
        got = q.try_get_many(0, 64)
        assert type(got) is list
        assert _elements(got) == _elements(list(SCALAR_RUN[3:]))
    finally:
        _cleanup(q)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("sink", ["list", "ndarray"])
@pytest.mark.parametrize("run", sorted(ARRAY_RUNS))
def test_sink_store_takes_array_runs(run, sink, trace):
    dtype, values = ARRAY_RUNS[run]

    def store(vals):
        container = [] if sink == "list" else np.zeros_like(values)
        inner = SinkStore(name="store")
        inner.bind(dtype, container)
        tracer = _tracer()
        q = traced(inner, tracer) if trace else inner
        port = KernelWritePort(PortSpec("o", PortDirection.WRITE, dtype), q)
        _drive(port.put_batch(vals[:2]))
        _drive(port.put_batch(vals[2:]))
        got = _elements(container) if sink == "list" \
            else container.tobytes()
        return got, q.total_puts, q.total_gets, _queue_events(tracer)

    assert store(values) == store(list(values))


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("reads", [1, 3, 5, 64])
@pytest.mark.parametrize("run", sorted(ARRAY_RUNS))
def test_source_feed_serves_arrays_as_their_list_form(run, reads, trace):
    dtype, values = ARRAY_RUNS[run]

    def serve(data):
        inner = SourceFeed(name="feed")
        inner.bind(dtype, data, chunk=4)
        tracer = _tracer()
        q = traced(inner, tracer) if trace else inner
        port = KernelReadPort(PortSpec("a", PortDirection.READ, dtype), q, 0)
        got = []
        while not inner.done:
            got.extend(_drive(port.get_batch(reads, exact=False)))
        return _elements(got), q.total_puts, q.total_gets, \
            _queue_events(tracer)

    assert serve(values) == serve(list(values))
