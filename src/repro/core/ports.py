"""Kernel I/O ports: declarations, settings, and runtime stream endpoints.

This module provides the Python analog of cgsim's ``KernelReadPort<T>`` /
``KernelWritePort<T>`` templates (§3.3).  A kernel declares its ports in
its signature via the :data:`In` / :data:`Out` annotation helpers::

    @compute_kernel(realm=AIE)
    async def adder(in1: In[float32], in2: In[float32], out: Out[float32]):
        while True:
            val = (await in1.get()) + (await in2.get())
            await out.put(val)

Settings that *influence graph behaviour* — runtime-parameter marking and
bus beat size — are attached to the port declaration itself, mirroring the
non-type template arguments of the C++ ports (§3.4).  When two
parameterised ports meet on one :class:`~repro.core.connectors.IoConnector`,
their settings are merged; conflicts raise :class:`PortSettingsError` at
build time, the analog of the paper's compile-time error.

At runtime, ports are bound to broadcast queues.  Every port op
(``get``, ``put``, ``get_batch``, ``put_batch``) is a ``types.coroutine``
generator, so ``await port.get()`` is one generator step: a ready op
returns without yielding — no scheduler round-trip, the property behind
cgsim's low synchronisation overhead measured in §5.2 — and a blocked op
yields its park command (``("rd", queue, idx)`` / ``("wr", queue, -1)``,
plus a partial-progress count for batches) straight to the scheduler.
"""

from __future__ import annotations

import enum
import types
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

import numpy as np

from ..errors import PoisonSignal, PortSettingsError, StreamTypeError
from .dtypes import StreamType

__all__ = [
    "PortDirection",
    "PortSettings",
    "merge_settings",
    "PortSpec",
    "In",
    "Out",
    "KernelReadPort",
    "KernelWritePort",
    "bind_kernel_ports",
    "next_consumer",
]


class PortDirection(enum.Enum):
    """Direction of a kernel port, from the kernel's point of view."""

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class PortSettings:
    """Behavioural port configuration (non-type template args in C++).

    Attributes
    ----------
    runtime_parameter:
        Marks the port as a runtime parameter (RTP) instead of a stream:
        the port carries a scalar configuration value rather than a data
        stream (§3.4, §3.7).
    beat_bytes:
        Beat size in bytes of the underlying bus (e.g. AXI-Stream width)
        for streaming interfaces.  ``None`` means unconstrained.
    depth:
        FIFO depth hint for the connection.  ``None`` = framework default.
    """

    runtime_parameter: bool = False
    beat_bytes: Optional[int] = None
    depth: Optional[int] = None

    def as_tuple(self) -> Tuple:
        """Flat representation used by graph serialization."""
        return (
            int(self.runtime_parameter),
            -1 if self.beat_bytes is None else self.beat_bytes,
            -1 if self.depth is None else self.depth,
        )

    @staticmethod
    def from_tuple(t: Tuple) -> "PortSettings":
        rtp, beat, depth = t
        return PortSettings(
            runtime_parameter=bool(rtp),
            beat_bytes=None if beat == -1 else int(beat),
            depth=None if depth == -1 else int(depth),
        )


def merge_settings(a: PortSettings, b: PortSettings, where: str = "") -> PortSettings:
    """Merge the settings of two ports joined by an IoConnector.

    ``None`` acts as a wildcard; concrete values must agree.  The
    ``runtime_parameter`` flag must match exactly (a stream cannot be
    half RTP).  Raises :class:`PortSettingsError` on conflict — the
    build-time analog of cgsim's compile-time error (§3.4).
    """
    if a.runtime_parameter != b.runtime_parameter:
        raise PortSettingsError(
            f"runtime-parameter flag mismatch on connected ports{where}: "
            f"{a.runtime_parameter} vs {b.runtime_parameter}"
        )

    def _merge(x, y, what):
        if x is None:
            return y
        if y is None:
            return x
        if x != y:
            raise PortSettingsError(
                f"incompatible {what} on connected ports{where}: {x} vs {y}"
            )
        return x

    return PortSettings(
        runtime_parameter=a.runtime_parameter,
        beat_bytes=_merge(a.beat_bytes, b.beat_bytes, "beat size"),
        depth=_merge(a.depth, b.depth, "FIFO depth"),
    )


@dataclass(frozen=True)
class PortSpec:
    """Declaration of one kernel port: name, direction, type, settings.

    This is the build-time metadata the ``COMPUTE_KERNEL`` macro collects
    via type traits in the C++ version (§3.3).
    """

    name: str
    direction: PortDirection
    dtype: StreamType
    settings: PortSettings = PortSettings()
    index: int = -1  # position within the kernel signature

    @property
    def is_input(self) -> bool:
        return self.direction is PortDirection.READ

    @property
    def is_output(self) -> bool:
        return self.direction is PortDirection.WRITE

    def with_index(self, index: int) -> "PortSpec":
        return replace(self, index=index)


class _PortAnnotation:
    """The object produced by ``In[dtype]`` / ``Out[dtype, settings]``.

    Purely declarative: it exists only so kernel signatures can be
    introspected by :func:`~repro.core.kernel.compute_kernel`.
    """

    __slots__ = ("direction", "dtype", "settings")

    def __init__(self, direction: PortDirection, dtype: StreamType,
                 settings: PortSettings):
        if not isinstance(dtype, StreamType):
            raise TypeError(
                f"port annotation requires a StreamType, got {dtype!r}"
            )
        self.direction = direction
        self.dtype = dtype
        self.settings = settings

    def __repr__(self):
        d = "In" if self.direction is PortDirection.READ else "Out"
        return f"{d}[{self.dtype.name}]"


class _PortFactory:
    """Implements the ``In[...]`` / ``Out[...]`` subscription syntax."""

    __slots__ = ("direction",)

    def __init__(self, direction: PortDirection):
        self.direction = direction

    def __getitem__(self, args) -> _PortAnnotation:
        if not isinstance(args, tuple):
            args = (args,)
        dtype = args[0]
        settings = PortSettings()
        for extra in args[1:]:
            if isinstance(extra, PortSettings):
                settings = extra
            else:
                raise TypeError(
                    f"unexpected port annotation argument {extra!r}"
                )
        return _PortAnnotation(self.direction, dtype, settings)

    def __call__(self, dtype: StreamType, **settings) -> _PortAnnotation:
        return _PortAnnotation(
            self.direction, dtype, PortSettings(**settings)
        )


#: Declare a kernel read (input) port: ``in1: In[float32]``.
In = _PortFactory(PortDirection.READ)

#: Declare a kernel write (output) port: ``out: Out[float32]``.
Out = _PortFactory(PortDirection.WRITE)


# ---------------------------------------------------------------------------
# Runtime port objects
# ---------------------------------------------------------------------------


@types.coroutine
def _get_batch(port: "KernelReadPort", n: int, exact: bool):
    """The body of :meth:`KernelReadPort.get_batch`."""
    queue = port._queue
    idx = port._consumer_idx
    out: list = []
    while True:
        got = queue.try_get_many(idx, n - len(out))
        if len(got):
            if not out and (len(got) == n or not exact):
                port._items += len(got)
                return got   # the run exactly as the transport handed it
            out.extend(got)
            if len(out) == n:
                port._items += n
                return out
            continue
        if queue.poisoned:
            raise PoisonSignal(queue.name, queue.poison_origin)
        yield ("rd", queue, idx, len(out))


class KernelReadPort:
    """Runtime read endpoint of a kernel, bound to one broadcast queue.

    The kernel-facing API matches the C++ version: ``await port.get()``
    yields the next stream element (the Python spelling of
    ``co_await port.get()``).
    """

    __slots__ = ("spec", "dtype", "_queue", "_consumer_idx", "_items")

    def __init__(self, spec: PortSpec, queue, consumer_idx: int):
        self.spec = spec
        self.dtype = spec.dtype
        self._queue = queue
        self._consumer_idx = consumer_idx
        self._items = 0

    @types.coroutine
    def get(self):
        """Resolve to the next element on this stream.

        A ready element returns without yielding (no scheduler
        round-trip); an empty queue parks the kernel with
        ``("rd", queue, consumer_idx)`` and the read retries on resume.
        Poison is observed only on that blocking path: buffered data
        drains first, then the read that would have parked forever
        terminates the consumer instead.
        """
        queue = self._queue
        idx = self._consumer_idx
        while True:
            ok, value = queue.try_get(idx)
            if ok:
                self._items += 1
                return value
            if queue.poisoned:
                raise PoisonSignal(queue.name, queue.poison_origin)
            yield ("rd", queue, idx)

    def get_batch(self, n: int, *, exact: bool = True):
        """Resolve to a read-only sequence of stream elements.

        ``exact=True`` (default) waits for exactly *n* elements — the
        form for kernels with a fixed block structure.  ``exact=False``
        resolves as soon as at least one element is available, returning
        up to *n* — the form for consumers that must drain stream tails.

        The run is a fresh list, or a read-only numpy view when one
        transfer from an array-backed source (a fused chain's
        :class:`~repro.core.fused.SourceFeed`) fills the request: scalar
        elements for a scalar stream, ``(k, window)`` rows for a window
        stream.  Take it with ``np.asarray`` (or iterate it); do not
        write into it.

        Elements move through the queue's bulk ring operation, a
        contiguous run per call.  Partial progress is carried across
        suspensions and the park command's fourth field reports how many
        elements were already collected, so the batch blocks at most
        once per queue-empty transition rather than once per element.
        A batch size below one raises here, not when awaited.
        """
        if n < 1:
            raise StreamTypeError(f"batch size must be >= 1, got {n}")
        return _get_batch(self, n, exact)

    def try_get(self):
        """Non-blocking read: ``(True, value)`` or ``(False, None)``."""
        ok, value = self._queue.try_get(self._consumer_idx)
        if ok:
            self._items += 1
        return ok, value

    @property
    def items_transferred(self) -> int:
        """Number of elements this port has consumed (profiling)."""
        return self._items

    def __repr__(self):
        return f"<KernelReadPort {self.spec.name}:{self.dtype.name}>"


class KernelWritePort:
    """Runtime write endpoint of a kernel, bound to one broadcast queue."""

    __slots__ = ("spec", "dtype", "_queue", "_validate", "_items")

    def __init__(self, spec: PortSpec, queue, validate: bool = False):
        self.spec = spec
        self.dtype = spec.dtype
        self._queue = queue
        self._validate = validate
        self._items = 0

    @types.coroutine
    def put(self, value: Any):
        """Complete once *value* is enqueued downstream.

        A queue with room takes the value without yielding; a full one
        parks the kernel with ``("wr", queue, -1)``.  ``validate`` ports
        check the value when the op is awaited.
        """
        if self._validate:
            value = self.dtype.validate(value)
        queue = self._queue
        while not queue.try_put(value):
            yield ("wr", queue, -1)
        self._items += 1

    @types.coroutine
    def put_batch(self, values):
        """Complete once every element of *values* is enqueued
        downstream: bulk ring writes; when the ring fills mid-batch the
        park command ``("wr", queue, -1, delivered)`` carries the count
        already written and the remainder resumes from that offset — one
        suspension per queue-full transition.

        *values* is any sequence, a numpy array included.  Transports
        take its elements at put time exactly as from ``list(values)``:
        a scalar run's values are copied out, so the caller may reuse
        the array once the put completes; a window array's elements are
        its rows, views of the array as in its list form."""
        if self._validate:
            values = [self.dtype.validate(v) for v in values]
        elif not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        queue = self._queue
        total = len(values)
        pos = 0
        while pos < total:
            pos += queue.try_put_many(values, pos)
            if pos < total:
                yield ("wr", queue, -1, pos)
        self._items += total

    def try_put(self, value: Any) -> bool:
        """Non-blocking write; returns False when the queue is full."""
        if self._validate:
            value = self.dtype.validate(value)
        ok = self._queue.try_put(value)
        if ok:
            self._items += 1
        return ok

    @property
    def items_transferred(self) -> int:
        """Number of elements this port has produced (profiling)."""
        return self._items

    def __repr__(self):
        return f"<KernelWritePort {self.spec.name}:{self.dtype.name}>"


def next_consumer(alloc, net_id: int) -> int:
    """Take net *net_id*'s next free consumer index from *alloc* (net
    id -> next free index)."""
    cidx = alloc[net_id]
    alloc[net_id] = cidx + 1
    return cidx


def bind_kernel_ports(name: str, kernel, port_nets, queues, alloc,
                      validate: bool = False):
    """Build the ports of kernel instance *name*, port ``i`` over
    ``queues[port_nets[i]]``: the one place every engine does this.

    Read ports take their net's next consumer index from *alloc* (net
    id -> next free index), in port order; every port appends *name* to
    its queue's ``consumer_names``/``producer_names``.  Returns
    ``(ports, reads, writes)``: the ports, ``(queue, consumer_idx)`` per
    read port and the queue per write port.
    """
    ports, reads, writes = [], [], []
    for spec, net_id in zip(kernel.port_specs, port_nets):
        queue = queues[net_id]
        if spec.is_input:
            cidx = next_consumer(alloc, net_id)
            ports.append(KernelReadPort(spec, queue, cidx))
            queue.consumer_names.append(name)
            reads.append((queue, cidx))
        else:
            ports.append(KernelWritePort(spec, queue, validate))
            queue.producer_names.append(name)
            writes.append(queue)
    return ports, reads, writes
