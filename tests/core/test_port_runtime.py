"""The runtime protocol of kernel port ops and queue-level ops.

Every op is a ``types.coroutine`` generator: a ready op returns without
yielding, a blocked op yields exactly its park command to whoever drives
the coroutine (the cooperative scheduler or an x86sim thread).  These
tests drive the ops by hand with ``send(None)`` over a
:class:`BroadcastQueue` and pin every command, the poison and
``validate`` timing, the item counters and the batch partial-progress
fields.  (``test_ports.py`` covers the declarations.)
"""

import threading

import numpy as np
import pytest

from repro.core import BroadcastQueue, float32, int32
from repro.core.ports import (
    KernelReadPort,
    KernelWritePort,
    PortDirection,
    PortSpec,
    bind_kernel_ports,
)
from repro.core.sources_sinks import queue_get, queue_put
from repro.errors import PoisonSignal, StreamTypeError
from repro.x86sim.channels import ThreadedBroadcastQueue
from repro.x86sim.runner import _KernelThread
from conftest import adder_kernel, doubler_kernel


def _reader(q, idx=0, dtype=float32):
    return KernelReadPort(PortSpec("i", PortDirection.READ, dtype), q, idx)


def _writer(q, dtype=float32, validate=False):
    return KernelWritePort(PortSpec("o", PortDirection.WRITE, dtype), q,
                           validate=validate)


async def _await(op):
    """Wrap one op in a native coroutine, as a kernel body awaits it."""
    return await op


def _finish(coro):
    """Drive *coro* to completion; it must not yield."""
    with pytest.raises(StopIteration) as stop:
        coro.send(None)
    return stop.value.value


class _Parked:
    """Drive a coroutine until it parks; remember the park command."""

    def __init__(self, coro):
        self.coro = coro
        self.cmd = coro.send(None)

    def resume(self):
        """Resume once: ``("parked", cmd)`` or ``("done", value)``."""
        try:
            self.cmd = self.coro.send(None)
        except StopIteration as stop:
            return "done", stop.value
        return "parked", self.cmd


# ---------------------------------------------------------------------------
# get / put
# ---------------------------------------------------------------------------


class TestGetPut:
    def test_ready_ops_return_without_yielding(self):
        q = BroadcastQueue(capacity=4)
        w, r = _writer(q), _reader(q)
        assert _finish(_await(w.put(1.5))) is None
        assert _finish(_await(r.get())) == 1.5
        # The op itself is a generator: one next() completes it.
        with pytest.raises(StopIteration):
            next(w.put(2.5))

    def test_empty_read_parks_with_rd_command_and_resumes(self):
        q = BroadcastQueue(capacity=2)
        r = _reader(q)
        p = _Parked(_await(r.get()))
        assert p.cmd == ("rd", q, 0)
        assert p.cmd[1] is q and len(p.cmd) == 3
        # A spurious resume re-parks with the same command.
        assert p.resume() == ("parked", ("rd", q, 0))
        assert q.try_put(7)
        assert p.resume() == ("done", 7)

    def test_read_uses_its_consumer_index(self):
        q = BroadcastQueue(capacity=2, n_consumers=3)
        p = _Parked(_await(_reader(q, idx=2).get()))
        assert p.cmd == ("rd", q, 2)

    def test_full_write_parks_with_wr_command(self):
        q = BroadcastQueue(capacity=1)
        w, r = _writer(q), _reader(q)
        _finish(_await(w.put(1)))
        p = _Parked(_await(w.put(2)))
        assert p.cmd == ("wr", q, -1)
        assert p.resume() == ("parked", ("wr", q, -1))
        assert _finish(_await(r.get())) == 1
        assert p.resume() == ("done", None)
        assert _finish(_await(r.get())) == 2

    def test_poison_drains_buffered_data_first(self):
        q = BroadcastQueue(capacity=4)
        w, r = _writer(q), _reader(q)
        for v in (1, 2):
            _finish(_await(w.put(v)))
        q.poison("upstream")
        assert _finish(_await(r.get())) == 1
        assert _finish(_await(r.get())) == 2
        with pytest.raises(PoisonSignal) as err:
            _await(r.get()).send(None)
        assert err.value.origin == "upstream"

    def test_poison_wakes_a_parked_reader_into_the_signal(self):
        q = BroadcastQueue(capacity=4)
        p = _Parked(_await(_reader(q).get()))
        q.poison("k0")
        with pytest.raises(PoisonSignal):
            p.resume()

    def test_validate_runs_when_awaited_not_when_called(self):
        q = BroadcastQueue(capacity=4)
        w = _writer(q, dtype=int32, validate=True)
        op = w.put("not a number")        # calling does not validate
        assert q.total_puts == 0
        with pytest.raises(StreamTypeError):
            _await(op).send(None)
        assert q.total_puts == 0 and w.items_transferred == 0
        _finish(_await(w.put(3.0)))       # coerced when awaited
        ok, value = q.try_get(0)
        assert ok and type(value) is np.int32 and value == 3

    def test_unvalidated_put_stores_the_object_itself(self):
        q = BroadcastQueue(capacity=4)
        marker = object()
        _finish(_await(_writer(q).put(marker)))
        assert q.try_get(0) == (True, marker)

    def test_items_transferred_counts_completed_ops_only(self):
        q = BroadcastQueue(capacity=1)
        w, r = _writer(q), _reader(q)
        _finish(_await(w.put(1)))
        p = _Parked(_await(w.put(2)))
        assert w.items_transferred == 1
        _finish(_await(r.get()))
        assert r.items_transferred == 1
        p.resume()
        assert w.items_transferred == 2
        ok, _ = r.try_get()
        assert ok and r.items_transferred == 2
        assert w.try_put(3) and w.items_transferred == 3

    def test_closing_a_parked_reader_keeps_cursors(self):
        q = BroadcastQueue(capacity=2, n_consumers=2)
        p = _Parked(_await(_reader(q, idx=1).get()))
        p.coro.close()
        assert q._cursors == [0, 0] and q._head == 0
        assert q.try_put(5)
        assert q.try_get(1) == (True, 5)
        assert q._cursors == [0, 1]

    def test_closing_a_parked_writer_writes_nothing(self):
        q = BroadcastQueue(capacity=1)
        w = _writer(q)
        _finish(_await(w.put(1)))
        p = _Parked(_await(w.put(2)))
        p.coro.close()
        assert q._head == 1 and q.total_puts == 1
        assert w.items_transferred == 1
        assert q.try_get(0) == (True, 1)
        assert q.try_get(0) == (False, None)


# ---------------------------------------------------------------------------
# get_batch / put_batch
# ---------------------------------------------------------------------------


class TestBatches:
    def test_ready_batches_return_without_yielding(self):
        q = BroadcastQueue(capacity=8)
        w, r = _writer(q), _reader(q)
        assert _finish(_await(w.put_batch([1, 2, 3]))) is None
        assert _finish(_await(r.get_batch(3))) == [1, 2, 3]
        assert w.items_transferred == 3 and r.items_transferred == 3

    def test_get_batch_reports_partial_progress(self):
        q = BroadcastQueue(capacity=8)
        r = _reader(q)
        p = _Parked(_await(r.get_batch(4)))
        assert p.cmd == ("rd", q, 0, 0)
        q.try_put_many([1, 2, 3])
        assert p.resume() == ("parked", ("rd", q, 0, 3))
        assert r.items_transferred == 0
        q.try_put_many([4, 5])
        assert p.resume() == ("done", [1, 2, 3, 4])
        assert r.items_transferred == 4
        assert q.try_get(0) == (True, 5)

    def test_get_batch_wraps_the_ring(self):
        q = BroadcastQueue(capacity=3)
        r = _reader(q)
        q.try_put_many([0, 1])
        q.try_get_many(0, 2)
        q.try_put_many([2, 3, 4])          # crosses the ring's end
        assert _finish(_await(r.get_batch(3))) == [2, 3, 4]

    def test_get_batch_inexact_takes_what_is_there(self):
        q = BroadcastQueue(capacity=8)
        r = _reader(q)
        p = _Parked(_await(r.get_batch(4, exact=False)))
        assert p.cmd == ("rd", q, 0, 0)
        q.try_put_many([1, 2])
        assert p.resume() == ("done", [1, 2])
        assert r.items_transferred == 2

    def test_get_batch_zero_raises_when_called(self):
        r = _reader(BroadcastQueue(capacity=4))
        for n in (0, -1):
            with pytest.raises(StreamTypeError, match="batch size"):
                r.get_batch(n)
            with pytest.raises(StreamTypeError):
                r.get_batch(n, exact=False)

    def test_put_batch_reports_partial_progress(self):
        q = BroadcastQueue(capacity=2)
        w = _writer(q)
        p = _Parked(_await(w.put_batch([1, 2, 3, 4, 5])))
        assert p.cmd == ("wr", q, -1, 2)
        assert w.items_transferred == 0
        assert q.try_get_many(0, 1) == [1]
        assert p.resume() == ("parked", ("wr", q, -1, 3))
        assert q.try_get_many(0, 2) == [2, 3]
        assert p.resume() == ("done", None)
        assert w.items_transferred == 5
        assert q.try_get_many(0, 9) == [4, 5]

    def test_put_batch_takes_any_iterable(self):
        q = BroadcastQueue(capacity=8)
        _finish(_await(_writer(q).put_batch(v * v for v in range(4))))
        assert q.try_get_many(0, 8) == [0, 1, 4, 9]

    def test_put_batch_validates_when_awaited(self):
        q = BroadcastQueue(capacity=8)
        w = _writer(q, dtype=int32, validate=True)
        op = w.put_batch([1, "x"])
        with pytest.raises(StreamTypeError):
            _await(op).send(None)
        assert q.total_puts == 0
        _finish(_await(w.put_batch([1.0, 2.0])))
        got = q.try_get_many(0, 8)
        assert got == [1, 2] and all(type(v) is np.int32 for v in got)

    def test_poisoned_exact_batch_drains_then_raises(self):
        q = BroadcastQueue(capacity=8)
        r = _reader(q)
        q.try_put_many([1, 2, 3])
        q.poison("src")
        assert _finish(_await(r.get_batch(2))) == [1, 2]
        # One element short of an exact batch: the read would park
        # forever, so it raises instead.
        with pytest.raises(PoisonSignal):
            _await(r.get_batch(2)).send(None)

    def test_poisoned_inexact_batch_returns_the_tail(self):
        q = BroadcastQueue(capacity=8)
        r = _reader(q)
        q.try_put_many([1])
        q.poison("src")
        assert _finish(_await(r.get_batch(4, exact=False))) == [1]
        with pytest.raises(PoisonSignal):
            _await(r.get_batch(4, exact=False)).send(None)

    def test_closing_a_parked_batch_keeps_cursors(self):
        q = BroadcastQueue(capacity=4)
        r = _reader(q)
        p = _Parked(_await(r.get_batch(4)))
        q.try_put_many([1])
        p.resume()                        # collected 1, parked again
        p.coro.close()
        assert q._cursors == [1] and r.items_transferred == 0


# ---------------------------------------------------------------------------
# queue_put / queue_get
# ---------------------------------------------------------------------------


class TestQueueOps:
    def test_ready_ops_return_without_yielding(self):
        q = BroadcastQueue(capacity=2)
        assert _finish(_await(queue_put(q, 4))) is None
        assert _finish(_await(queue_get(q, 0))) == 4

    def test_blocked_ops_park_with_the_port_commands(self):
        q = BroadcastQueue(capacity=1, n_consumers=2)
        rd = _Parked(_await(queue_get(q, 1)))
        assert rd.cmd == ("rd", q, 1)
        _finish(_await(queue_put(q, 1)))
        wr = _Parked(_await(queue_put(q, 2)))
        assert wr.cmd == ("wr", q, -1)
        assert rd.resume() == ("done", 1)
        assert wr.resume() == ("parked", ("wr", q, -1))  # consumer 0 lags
        assert q.try_get(0) == (True, 1)
        assert wr.resume() == ("done", None)

    def test_queue_get_poison_after_drain(self):
        q = BroadcastQueue(capacity=2)
        q.try_put(9)
        q.poison("p")
        assert _finish(_await(queue_get(q, 0))) == 9
        with pytest.raises(PoisonSignal):
            _await(queue_get(q, 0)).send(None)

    def test_closing_parked_queue_ops_keeps_cursors(self):
        q = BroadcastQueue(capacity=1)
        _Parked(_await(queue_get(q, 0))).coro.close()
        _finish(_await(queue_put(q, 1)))
        _Parked(_await(queue_put(q, 2))).coro.close()
        assert q._head == 1 and q._cursors == [0]
        assert q.try_get(0) == (True, 1)


# ---------------------------------------------------------------------------
# bind_kernel_ports
# ---------------------------------------------------------------------------


class TestBindKernelPorts:
    def test_consumer_indices_follow_port_order(self):
        """Two read ports on one net take the net's next free indices in
        signature order; the allocator is advanced past them."""
        shared = BroadcastQueue(capacity=4, n_consumers=3, name="shared")
        out = BroadcastQueue(capacity=4, name="out")
        alloc = {0: 1, 1: 0}  # index 0 of the shared net is taken
        ports, reads, writes = bind_kernel_ports(
            "add", adder_kernel, (0, 0, 1), {0: shared, 1: out}, alloc)
        assert [p.spec.name for p in ports] == ["in1", "in2", "out"]
        assert reads == [(shared, 1), (shared, 2)]
        assert writes == [out]
        assert alloc == {0: 3, 1: 0}
        shared.try_put(5.0)
        assert _finish(_await(ports[0].get())) == 5.0
        assert shared._cursors == [0, 1, 0]
        assert _finish(_await(ports[1].get())) == 5.0
        assert shared._cursors == [0, 1, 1]

    def test_endpoint_names_are_appended(self):
        a = BroadcastQueue(capacity=4, n_consumers=2, name="a")
        b = BroadcastQueue(capacity=4, name="b")
        a.producer_names.append("source[0]")
        a.consumer_names.append("sink[0]")
        bind_kernel_ports("k", doubler_kernel, (0, 1), {0: a, 1: b},
                          {0: 1, 1: 0})
        assert a.producer_names == ["source[0]"]
        assert a.consumer_names == ["sink[0]", "k"]
        assert b.producer_names == ["k"] and b.consumer_names == []

    def test_validate_reaches_the_write_ports(self):
        queues = {0: BroadcastQueue(capacity=4), 1: BroadcastQueue(capacity=4)}
        ports, _, _ = bind_kernel_ports("k", doubler_kernel, (0, 1), queues,
                                        {0: 0, 1: 0}, validate=True)
        with pytest.raises(StreamTypeError):
            _await(ports[1].put("not a number")).send(None)
        _finish(_await(ports[1].put(3.0)))
        ok, value = queues[1].try_get(0)
        assert ok and type(value) is np.int32 and value == 3
        # Off by default: the value is stored as given.
        ports, _, _ = bind_kernel_ports("k", doubler_kernel, (0, 1), queues,
                                        {0: 0, 1: 0})
        _finish(_await(ports[1].put(3.0)))
        assert queues[1].try_get(0) == (True, 3.0)


# ---------------------------------------------------------------------------
# x86sim: the same ops over the threaded channels
# ---------------------------------------------------------------------------


def test_kernel_driven_through_threaded_queues():
    """One kernel on an x86sim thread: it parks on empty and full
    channels (capacity 1) through the same commands, mixing single and
    batched ops, and the peers on other threads see every element."""
    qin = ThreadedBroadcastQueue(1, n_consumers=1, n_producers=1,
                                 name="in")
    qout = ThreadedBroadcastQueue(1, n_consumers=1, n_producers=1,
                                  name="out")
    r, w = _reader(qin, dtype=int32), _writer(qout, dtype=int32)

    async def kernel():
        while True:
            a = await r.get()
            pair = await r.get_batch(2)
            await w.put(a)
            await w.put_batch([10 * x for x in pair])

    thread = _KernelThread("k", kernel(), [(qin, 0)], [qout], timeout=10)
    got = []

    def produce():
        for v in range(9):
            while not qin.try_put(v):
                qin.wait_writable(10)
        qin.producer_done()

    def consume():
        while True:
            ok, v = qout.try_get(0)
            if ok:
                got.append(v)
            elif not qout.wait_readable(0, 10):
                return

    peers = [threading.Thread(target=produce),
             threading.Thread(target=consume)]
    thread.start()
    for t in peers:
        t.start()
    for t in [thread, *peers]:
        t.join(timeout=30)
        assert not t.is_alive()
    assert thread.error is None
    assert got == [0, 10, 20, 3, 40, 50, 6, 70, 80]
    assert r.items_transferred == 9 and w.items_transferred == 9
