"""Cross-process SPSC ring over an anonymous shared memory mapping.

The boundary-net transport of the ``cgsim-mp`` backend: one producer
process, one consumer process, a fixed byte region shared between them.
The region is an anonymous ``MAP_SHARED`` mapping that forked workers
inherit: it has no name, so no ``/dev/shm`` entry and no
``multiprocessing`` resource-tracker process is involved, and the
memory goes when the last process holding the mapping unmaps it.
Elements travel as pickled *batch records* — ``try_put_many`` pickles
the whole contiguous run as a single record, so a batch crosses the
process boundary with one lock acquisition and one pickle, mirroring
the batched port-I/O fast path of the in-process ring.

Layout (one shared mapping)::

    header (64 B)                     data region (ring of records)
    +-------------------------------+---------------------------------+
    | wpos rpos iw ir flags olen    | [len|n|pickle][len|n|pickle] .. |
    +-------------------------------+---------------------------------+
    origin (128 B)

``wpos``/``rpos`` are absolute byte offsets (monotonic; physical offset
is ``pos % data_bytes``); ``iw``/``ir`` count items for fill
introspection.  A record never wraps: when the space before the
physical end is too small, the producer writes a wrap marker
(``len == 0xFFFFFFFF``) and continues at physical 0.  ``flags`` carries
the end-of-stream (EOF), poison, and consumer-detach markers, so the
drain protocol and the :mod:`repro.faults` poison hooks live *in* the
shared state and survive the producing process.

The object satisfies the :class:`repro.core.transport.Transport`
protocol (with ``max_consumers == 1``): the same conformance contract
that covers the in-process ring and the threaded channel runs against
it in-process, and the worker pumps use only the protocol surface.
"""

from __future__ import annotations

import mmap
import multiprocessing
import pickle
import struct
from typing import Any, List, Optional, Tuple

from ..errors import GraphRuntimeError

__all__ = ["ShmRing", "DEFAULT_RING_BYTES"]

#: Default data-region size per boundary ring.
DEFAULT_RING_BYTES = 1 << 20

_HDR = struct.Struct("<QQQQQQ")     # wpos rpos items_written items_read flags origin_len
_REC = struct.Struct("<II")         # record byte length, item count
_ORIGIN_OFF = _HDR.size
_ORIGIN_CAP = 128
_DATA_OFF = _ORIGIN_OFF + _ORIGIN_CAP

_WRAP = 0xFFFFFFFF

_F_EOF = 1 << 0
_F_POISON = 1 << 1
_F_DETACHED = 1 << 2


class ShmRing:
    """Single-producer single-consumer shared-memory record ring.

    ``capacity`` bounds buffered *items* (transport semantics); the byte
    region bounds buffered *bytes*.  A put succeeds only when both
    admit it.  Create with :meth:`create`; a forked child inherits the
    mapping and the lock.
    """

    def __init__(self, buf: mmap.mmap, lock, capacity: int, name: str = ""):
        self._buf = buf
        self._lock = lock
        self.capacity = capacity
        self.name = name
        self.n_consumers = 1
        self._data_bytes = len(buf) - _DATA_OFF
        #: Consumer-side carry: items popped from a record beyond what
        #: the last ``try_get_many`` asked for (single consumer, so this
        #: stays process-local).
        self._staged: List[Any] = []
        # Diagnostic endpoint labels (Transport parity; process-local).
        self.producer_names: List[str] = []
        self.consumer_names: List[str] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, capacity: int = 4096, n_consumers: int = 1,
               n_producers: int = 1, name: str = "",
               data_bytes: int = DEFAULT_RING_BYTES) -> "ShmRing":
        if n_consumers > 1:
            raise GraphRuntimeError(
                f"ShmRing is single-consumer; net {name!r} asked for "
                f"{n_consumers} consumers (fan-out is replicated by the "
                f"worker export pump, one ring per destination)"
            )
        if capacity < 1:
            raise GraphRuntimeError(
                f"ring capacity must be >= 1, got {capacity}"
            )
        # Anonymous mappings start zero-filled: an empty header.
        buf = mmap.mmap(-1, _DATA_OFF + data_bytes)
        return cls(buf, multiprocessing.get_context("fork").Lock(),
                   capacity, name=name)

    # -- header access (call with lock held) -------------------------------

    def _header(self):
        return _HDR.unpack_from(self._buf, 0)

    def _set_header(self, wpos, rpos, iw, ir, flags, olen):
        _HDR.pack_into(self._buf, 0, wpos, rpos, iw, ir, flags, olen)

    def _set_flag(self, flag: int) -> None:
        with self._lock:
            wpos, rpos, iw, ir, flags, olen = self._header()
            self._set_header(wpos, rpos, iw, ir, flags | flag, olen)

    # -- wiring (Transport parity) -----------------------------------------

    def bind_scheduler(self, scheduler) -> None:
        """Cross-process ring: nothing to wake in-process.  The worker
        pump bridges ring state changes to the local scheduler."""

    #: Waiter-list parity with the in-process ring (always empty: parked
    #: tasks never park *on* the ring, the pump parks them on the local
    #: queue it feeds).
    read_waiters: Tuple = ((),)
    write_waiters: Tuple = ()

    # -- introspection ------------------------------------------------------

    def size_for(self, consumer_idx: int = 0) -> int:
        with self._lock:
            _w, _r, iw, ir, _f, _o = self._header()
        return iw - ir + len(self._staged)

    @property
    def free_slots(self) -> int:
        with self._lock:
            wpos, rpos, iw, ir, flags, _o = self._header()
        if flags & _F_DETACHED:
            return self.capacity
        return max(0, self.capacity - (iw - ir))

    @property
    def is_full(self) -> bool:
        return self.free_slots == 0

    def is_empty_for(self, consumer_idx: int = 0) -> bool:
        return self.size_for(consumer_idx) == 0

    @property
    def total_puts(self) -> int:
        with self._lock:
            return self._header()[2]

    @property
    def total_gets(self) -> int:
        # Items the consumer actually retrieved: records popped from the
        # shared region minus the consumer-side staged carry (items
        # popped with a record beyond what try_get_many asked for).
        with self._lock:
            return self._header()[3] - len(self._staged)

    @property
    def eof(self) -> bool:
        with self._lock:
            return bool(self._header()[4] & _F_EOF)

    @property
    def drained(self) -> bool:
        """EOF marked and every buffered item consumed."""
        with self._lock:
            _w, _r, iw, ir, flags, _o = self._header()
        return bool(flags & _F_EOF) and iw == ir and not self._staged

    @property
    def poisoned(self) -> bool:
        with self._lock:
            return bool(self._header()[4] & _F_POISON)

    @property
    def poison_origin(self) -> str:
        with self._lock:
            _w, _r, _iw, _ir, flags, olen = self._header()
            if not flags & _F_POISON or olen == 0:
                return ""
            raw = bytes(self._buf[_ORIGIN_OFF:_ORIGIN_OFF + olen])
        return raw.decode("utf-8", errors="replace")

    # -- producer side -----------------------------------------------------

    def try_put_many(self, values, start: int = 0) -> int:
        """Append ``values[start:]`` as one pickled record, as many
        items as item capacity and byte space admit; returns the count
        written (0 when full).

        Records advance in 8-byte-aligned strides, so the physical tail
        always has room for a wrap marker when a record restarts at 0.
        A batch too large for the free *bytes* is halved until it fits
        (the pump retries the remainder on its next pass).
        """
        n_values = len(values) - start
        if n_values <= 0:
            return 0
        with self._lock:
            wpos, rpos, iw, ir, flags, olen = self._header()
            if flags & _F_DETACHED:
                # Consumer gone: deliver into the void, but account.
                self._set_header(wpos, rpos, iw + n_values, ir + n_values,
                                 flags, olen)
                return n_values
            n = min(n_values, self.capacity - (iw - ir))
            data = self._data_bytes
            payload = b""
            while n > 0:
                payload = pickle.dumps(values[start:start + n],
                                       protocol=pickle.HIGHEST_PROTOCOL)
                adv = (_REC.size + len(payload) + 7) & ~7
                free = data - (wpos - rpos)
                to_end = data - (wpos % data)
                if adv <= free and adv <= to_end:
                    break
                if adv <= free - to_end:
                    # Burn the tail with a wrap marker, restart at 0.
                    _REC.pack_into(self._buf,
                                   _DATA_OFF + (wpos % data), _WRAP, 0)
                    wpos += to_end
                    continue
                n >>= 1  # halve until the record fits (or give up)
            if n <= 0:
                return 0
            off = _DATA_OFF + (wpos % data)
            _REC.pack_into(self._buf, off, len(payload), n)
            self._buf[off + _REC.size:off + _REC.size + len(payload)] = \
                payload
            self._set_header(wpos + ((_REC.size + len(payload) + 7) & ~7),
                             rpos, iw + n, ir, flags, olen)
            return n

    def try_put(self, value: Any) -> bool:
        return self.try_put_many((value,)) == 1

    # -- consumer side -----------------------------------------------------

    def _pop_record(self) -> Optional[List[Any]]:
        """Pop the next record under the lock; None when empty."""
        wpos, rpos, iw, ir, flags, olen = self._header()
        data = self._data_bytes
        while rpos < wpos:
            off = _DATA_OFF + (rpos % data)
            length, n_items = _REC.unpack_from(self._buf, off)
            if length == _WRAP:
                rpos += data - (rpos % data)
                continue
            payload = bytes(self._buf[off + _REC.size:
                                          off + _REC.size + length])
            items = pickle.loads(payload)
            self._set_header(wpos, rpos + ((_REC.size + length + 7) & ~7),
                             iw, ir + n_items, flags, olen)
            return items
        return None

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        if max_n <= 0:
            return []
        out: List[Any] = []
        if self._staged:
            take = min(max_n, len(self._staged))
            out.extend(self._staged[:take])
            del self._staged[:take]
        with self._lock:
            while len(out) < max_n:
                items = self._pop_record()
                if items is None:
                    break
                room = max_n - len(out)
                out.extend(items[:room])
                if len(items) > room:
                    self._staged.extend(items[room:])
        return out

    def try_get(self, consumer_idx: int = 0) -> Tuple[bool, Any]:
        got = self.try_get_many(consumer_idx, 1)
        return (True, got[0]) if got else (False, None)

    def peek(self, consumer_idx: int = 0) -> Tuple[bool, Any]:
        if self._staged:
            return True, self._staged[0]
        with self._lock:
            items = self._pop_record()
        if items is None:
            return False, None
        self._staged.extend(items)
        return True, self._staged[0]

    def drain(self, consumer_idx: int = 0) -> List[Any]:
        out: List[Any] = []
        while True:
            got = self.try_get_many(consumer_idx, 1024)
            if not got:
                return out
            out.extend(got)

    # -- stream lifecycle / faults -----------------------------------------

    def mark_eof(self) -> None:
        """Producer side is done: no further record will be written."""
        self._set_flag(_F_EOF)

    def poison(self, origin: str = "") -> None:
        """Poison the stream (:mod:`repro.faults` hook).  The consumer
        drains buffered records, then observes ``poisoned`` on its
        blocking slow path exactly like the in-process ring."""
        raw = origin.encode("utf-8")[:_ORIGIN_CAP]
        with self._lock:
            wpos, rpos, iw, ir, flags, _olen = self._header()
            self._buf[_ORIGIN_OFF:_ORIGIN_OFF + len(raw)] = raw
            self._set_header(wpos, rpos, iw, ir, flags | _F_POISON, len(raw))

    def detach_consumer(self, consumer_idx: int = 0) -> None:
        """The consuming side died (containment): writers stop blocking
        against the dead reader and drop instead."""
        with self._lock:
            wpos, rpos, iw, ir, flags, olen = self._header()
            # Fast-forward the item cursor so fill reads as empty.
            self._set_header(wpos, rpos, iw, iw, flags | _F_DETACHED, olen)
        del self._staged[:]

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view of the ring."""
        try:
            self._buf.close()
        except BufferError:  # pragma: no cover - teardown race
            pass

    def __repr__(self):
        return (f"<ShmRing {self.name} "
                f"cap={self.capacity} fill={self.size_for(0)}"
                f"{' EOF' if self.eof else ''}>")
