"""Global I/O: data sources, sinks, and runtime parameters (§3.7).

cgsim streams data into and out of a graph's global ports through
specialised coroutines that the RuntimeContext attaches after
instantiating the graph.  Each source/sink coroutine bridges one stream
to a standard Python container supplied by the user:

* **input**: any iterable (list, generator, numpy array).  For window
  (buffer) streams, a flat numpy array is automatically chunked into
  window-sized blocks.
* **output**: a ``list`` (elements are appended) or a pre-allocated
  numpy array (filled front to back).
* **runtime parameters**: scalars are passed directly, or wrapped in
  :class:`RuntimeParam` when the caller wants the post-run value back
  (RTP sinks).

Sources and sinks are positional when invoking a graph: sources first, in
global-input order, then sinks in global-output order (§3.7).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional

import numpy as np

from ..errors import IoBindingError, PoisonSignal, StreamTypeError
from .dtypes import ScalarType, StreamType, WindowType
from .queues import BroadcastQueue

__all__ = [
    "RuntimeParam",
    "queue_put",
    "queue_get",
    "queue_put_many",
    "queue_get_up_to",
    "iter_stream_values",
    "make_source",
    "make_sink",
    "sink_store",
    "rtp_sink",
    "check_io",
    "ArraySinkCursor",
]


class RuntimeParam:
    """Mutable scalar box for runtime-parameter ports (§3.7).

    As a *source*, its value is latched into the RTP port before the run.
    As a *sink*, its value is updated from the RTP latch when the run
    completes.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any = None):
        self.value = value

    def __repr__(self):
        return f"RuntimeParam({self.value!r})"


class _QueuePut:
    """Queue-level awaitable put (used by source coroutines, which have
    no kernel port object)."""

    __slots__ = ("queue", "value")

    def __init__(self, queue: BroadcastQueue, value: Any):
        self.queue = queue
        self.value = value

    def __await__(self):
        queue = self.queue
        value = self.value
        while True:
            if queue.try_put(value):
                return None
            yield ("wr", queue, -1)

    __iter__ = __await__


class _QueueGet:
    """Queue-level awaitable get (used by sink coroutines)."""

    __slots__ = ("queue", "consumer_idx")

    def __init__(self, queue: BroadcastQueue, consumer_idx: int):
        self.queue = queue
        self.consumer_idx = consumer_idx

    def __await__(self):
        queue = self.queue
        idx = self.consumer_idx
        while True:
            ok, value = queue.try_get(idx)
            if ok:
                return value
            # Buffered data drains before a poisoned stream terminates
            # its sink (slow path only; see BroadcastQueue.poison).
            if queue.poisoned:
                raise PoisonSignal(queue.name, queue.poison_origin)
            yield ("rd", queue, idx)

    __iter__ = __await__


class _QueuePutMany:
    """Queue-level awaitable bulk put: delivers the whole sequence,
    resuming from the partial-progress offset after each park (the
    batched-I/O fast path for source coroutines)."""

    __slots__ = ("queue", "values")

    def __init__(self, queue: BroadcastQueue, values):
        self.queue = queue
        self.values = values

    def __await__(self):
        queue = self.queue
        values = self.values
        total = len(values)
        pos = 0
        while pos < total:
            pos += queue.try_put_many(values, pos)
            if pos < total:
                yield ("wr", queue, -1, pos)
        return None

    __iter__ = __await__


class _QueueGetUpTo:
    """Queue-level awaitable bulk get: resolves to 1..max_n elements —
    whatever one contiguous run yields (the batched-I/O fast path for
    sink coroutines, which must drain stream tails of unknown length)."""

    __slots__ = ("queue", "consumer_idx", "max_n")

    def __init__(self, queue: BroadcastQueue, consumer_idx: int, max_n: int):
        self.queue = queue
        self.consumer_idx = consumer_idx
        self.max_n = max_n

    def __await__(self):
        queue = self.queue
        idx = self.consumer_idx
        max_n = self.max_n
        while True:
            out = queue.try_get_many(idx, max_n)
            if out:
                return out
            if queue.poisoned:
                raise PoisonSignal(queue.name, queue.poison_origin)
            yield ("rd", queue, idx, 0)

    __iter__ = __await__


def queue_put(queue: BroadcastQueue, value: Any) -> _QueuePut:
    return _QueuePut(queue, value)


def queue_get(queue: BroadcastQueue, consumer_idx: int) -> _QueueGet:
    return _QueueGet(queue, consumer_idx)


def queue_put_many(queue: BroadcastQueue, values) -> _QueuePutMany:
    return _QueuePutMany(queue, values)


def queue_get_up_to(queue: BroadcastQueue, consumer_idx: int,
                    max_n: int) -> _QueueGetUpTo:
    return _QueueGetUpTo(queue, consumer_idx, max_n)


# ---------------------------------------------------------------------------
# Input adaptation
# ---------------------------------------------------------------------------


def iter_stream_values(dtype: StreamType, data: Any,
                       validate: bool = False) -> Iterator[Any]:
    """Adapt a user container to a stream of *dtype* elements.

    Window streams accept either an iterable of ready-made blocks or one
    flat numpy array whose length is a multiple of the window size (the
    convenient form for the AMD example test vectors).
    """
    if isinstance(dtype, WindowType) and isinstance(data, np.ndarray):
        if data.ndim == 1:
            if data.size % dtype.count != 0:
                raise IoBindingError(
                    f"flat array of {data.size} elements cannot be chunked "
                    f"into windows of {dtype.count}"
                )
            blocks: Iterable[Any] = (
                data[i:i + dtype.count]
                for i in range(0, data.size, dtype.count)
            )
        elif data.ndim == 2 and data.shape[1] == dtype.count:
            blocks = iter(data)
        else:
            raise IoBindingError(
                f"array of shape {data.shape} does not match window "
                f"stream of {dtype.count} elements"
            )
        if validate:
            return (dtype.validate(b) for b in blocks)
        return iter(blocks)

    it = iter(data)
    if validate:
        return (dtype.validate(v) for v in it)
    return it


async def _source_coro(queue: BroadcastQueue, values: Iterator[Any]):
    for v in values:
        await _QueuePut(queue, v)


async def _source_coro_batched(queue: BroadcastQueue,
                               values: Iterator[Any], batch: int):
    buf: List[Any] = []
    for v in values:
        buf.append(v)
        if len(buf) >= batch:
            await _QueuePutMany(queue, buf)
            buf = []
    if buf:
        await _QueuePutMany(queue, buf)


def make_source(queue: BroadcastQueue, dtype: StreamType, data: Any,
                validate: bool = False, batch: Optional[int] = None):
    """Build the source coroutine feeding *queue* from *data* (§3.7).

    ``batch`` > 1 switches to bulk ring writes: elements are staged in
    groups of *batch* and delivered through ``try_put_many``, crossing
    the scheduler at most once per queue-full transition.
    """
    values = iter_stream_values(dtype, data, validate)
    if batch is not None and batch > 1:
        return _source_coro_batched(queue, values, batch)
    return _source_coro(queue, values)


# ---------------------------------------------------------------------------
# Output adaptation
# ---------------------------------------------------------------------------


class ArraySinkCursor:
    """Sequentially fills a pre-allocated numpy array from a stream.

    Scalar streams fill one element per item; window streams fill one
    block per item.  Overflow raises — the caller sized the array.
    """

    def __init__(self, array: np.ndarray, dtype: StreamType):
        self.array = array
        self.dtype = dtype
        self.count = 0  # items received
        if isinstance(dtype, WindowType):
            if array.size % dtype.count != 0:
                raise IoBindingError(
                    f"sink array of {array.size} elements is not a "
                    f"multiple of the window size {dtype.count}"
                )
            self.capacity = array.size // dtype.count
        else:
            self.capacity = array.size

    def store(self, value: Any) -> None:
        if self.count >= self.capacity:
            raise StreamTypeError(
                f"sink array overflow: capacity {self.capacity} items"
            )
        flat = self.array.reshape(-1)
        if isinstance(self.dtype, WindowType):
            n = self.dtype.count
            flat[self.count * n:(self.count + 1) * n] = value
        else:
            flat[self.count] = value
        self.count += 1

    @property
    def items_stored(self) -> int:
        return self.count


async def _sink_coro(queue: BroadcastQueue, consumer_idx: int, store):
    while True:
        value = await _QueueGet(queue, consumer_idx)
        store(value)


async def _sink_coro_batched(queue: BroadcastQueue, consumer_idx: int,
                             store, batch: int):
    while True:
        values = await _QueueGetUpTo(queue, consumer_idx, batch)
        for v in values:
            store(v)


def sink_store(dtype: StreamType, container: Any):
    """How a stream output fills its sink *container* (§3.7).

    Returns ``(store, cursor_or_None)``: a ``list`` is appended to, a
    pre-allocated numpy array is filled front to back through an
    :class:`ArraySinkCursor` (which also reports its item count).
    Anything else is rejected.  Every backend binds its stream sinks
    through this one rule.
    """
    if isinstance(container, list):
        return container.append, None
    if isinstance(container, np.ndarray):
        cursor = ArraySinkCursor(container, dtype)
        return cursor.store, cursor
    raise IoBindingError(
        f"unsupported sink container {type(container).__name__}; pass a "
        f"list or a pre-allocated numpy array"
    )


def rtp_sink(name: str, container: Any) -> RuntimeParam:
    """The :class:`RuntimeParam` box receiving RTP output *name*."""
    if not isinstance(container, RuntimeParam):
        raise IoBindingError(
            f"output {name!r} is a runtime parameter; pass a "
            f"RuntimeParam sink"
        )
    return container


def check_io(graph: Any, io: Any) -> None:
    """Reject a positional I/O tuple (sources first, then sinks, §3.7)
    that cannot bind to *graph*: the wrong argument count, or a sink
    container :func:`sink_store` / :func:`rtp_sink` would refuse.

    Backends that bind late (cgsim-mp merges sinks only after its
    workers finish) run this at prepare time, so a bad sink fails
    before any work starts.
    """
    n_in, n_out = len(graph.inputs), len(graph.outputs)
    if len(io) != n_in + n_out:
        raise IoBindingError(
            f"graph {graph.name!r} takes {n_in} source(s) + {n_out} "
            f"sink(s) = {n_in + n_out} positional I/O argument(s), got "
            f"{len(io)}"
        )
    for gio, container in zip(graph.outputs, io[n_in:]):
        net = graph.net(gio.net_id)
        if net.settings.runtime_parameter:
            rtp_sink(gio.name, container)
        else:
            sink_store(net.dtype, container)


def make_sink(queue: BroadcastQueue, consumer_idx: int,
              dtype: StreamType, container: Any,
              batch: Optional[int] = None):
    """Build the sink coroutine draining *queue* into *container*.

    Returns ``(coroutine, cursor_or_None)`` (see :func:`sink_store`).
    ``batch`` > 1 drains the queue through bulk ring reads of up to
    *batch* elements per resume (up-to semantics, so a tail shorter
    than the batch still drains).
    """
    store, cursor = sink_store(dtype, container)
    if batch is not None and batch > 1:
        return _sink_coro_batched(queue, consumer_idx, store, batch), cursor
    return _sink_coro(queue, consumer_idx, store), cursor
