"""Global I/O: data sources, sinks, and runtime parameters (§3.7).

cgsim streams data into and out of a graph's global ports through
specialised coroutines that the RuntimeContext attaches after
instantiating the graph.  Each source/sink coroutine bridges one stream
to a standard Python container supplied by the user, moving elements in
contiguous runs (one bulk ring write or read per run):

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

import types
from itertools import chain, islice
from typing import Any, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import IoBindingError, PoisonSignal, StreamTypeError
from .dtypes import StreamType, WindowType
from .queues import DEFAULT_QUEUE_CAPACITY, BroadcastQueue

__all__ = [
    "RuntimeParam",
    "queue_put",
    "queue_get",
    "stream_chunks",
    "iter_stream_values",
    "make_source",
    "make_sink",
    "sink_store",
    "rtp_sink",
    "preset_rtp",
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


@types.coroutine
def queue_put(queue: BroadcastQueue, value: Any):
    """Queue-level put, for coroutines with no kernel port object."""
    while not queue.try_put(value):
        yield ("wr", queue, -1)


@types.coroutine
def queue_get(queue: BroadcastQueue, consumer_idx: int):
    """Queue-level get; buffered data drains before a poisoned stream
    terminates the reader (slow path only; see BroadcastQueue.poison)."""
    while True:
        ok, value = queue.try_get(consumer_idx)
        if ok:
            return value
        if queue.poisoned:
            raise PoisonSignal(queue.name, queue.poison_origin)
        yield ("rd", queue, consumer_idx)


@types.coroutine
def _queue_put_many(queue: BroadcastQueue, values):
    """Bulk put of the whole sequence, resuming from the
    partial-progress offset after each park (the source coroutines)."""
    total = len(values)
    pos = 0
    while pos < total:
        pos += queue.try_put_many(values, pos)
        if pos < total:
            yield ("wr", queue, -1, pos)


@types.coroutine
def _queue_get_up_to(queue: BroadcastQueue, consumer_idx: int, max_n: int):
    """Bulk get of 1..max_n elements — whatever one contiguous run
    yields (the sink coroutines, which must drain stream tails of
    unknown length)."""
    while True:
        out = queue.try_get_many(consumer_idx, max_n)
        if len(out):
            return out
        if queue.poisoned:
            raise PoisonSignal(queue.name, queue.poison_origin)
        yield ("rd", queue, consumer_idx, 0)


# ---------------------------------------------------------------------------
# Input adaptation
# ---------------------------------------------------------------------------


def _slices(data: Any, n: int) -> Iterator[Any]:
    """``data[i:i + k]`` runs of a list or numpy array."""
    k = yield
    i = 0
    while i < len(data):
        chunk = data[i:i + (k or n)]
        i += len(chunk)
        k = yield chunk


def _pull(values: Iterator[Any], n: int) -> Iterator[List[Any]]:
    """Lists pulled lazily from *values*.

    An element that raises (a failing generator, a rejected value) ends
    its list early and the error surfaces on the next pull, so the
    elements before it are still delivered first — exactly as
    element-by-element iteration would deliver them.
    """
    k = yield
    while True:
        chunk: List[Any] = []
        try:
            chunk.extend(islice(values, k or n))
        except Exception:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        k = yield chunk


def _started(chunks: Iterator[Any]) -> Iterator[Any]:
    next(chunks)   # run to the first size request; nothing is pulled
    return chunks


def stream_chunks(dtype: StreamType, data: Any, validate: bool = False,
                  n: int = DEFAULT_QUEUE_CAPACITY) -> Iterator[Any]:
    """Adapt a user container to runs of *dtype* elements, *n* at a time.

    The one input adapter of every scheduler path.  A numpy array is
    served as read-only views ``data[i:i + n]`` (runs of scalars, or
    row blocks of a window array); a list or tuple as list slices.
    Either way the elements are the objects iteration gives — numpy
    scalars or row views.  A window stream also accepts one flat numpy
    array whose length is a multiple of the window size (the
    convenient form for the AMD example test vectors), served as block
    views.  Any other iterable is pulled lazily into lists, and
    ``validate`` type-checks every element into lists too.  A
    container that cannot bind raises here, not on the first pull.

    Iterating yields runs of *n*; a consumer that knows its demand
    ``send``s the length of the next run instead (a fused chain's
    :class:`~repro.core.fused.SourceFeed` serves each read from one
    run).  Either way a lazily pulled iterable is never read more than
    one run ahead of what was taken.  A consumer that stores elements
    one at a time (a ring's slot slice, ``extend``) boxes an array run
    exactly as it boxes the list of its elements.
    """
    if isinstance(dtype, WindowType) and isinstance(data, np.ndarray):
        w = dtype.count
        if data.ndim == 1:
            if data.size % w != 0:
                raise IoBindingError(
                    f"flat array of {data.size} elements cannot be chunked "
                    f"into windows of {w}"
                )
            data = data.reshape(-1, w)   # rows are views of the blocks
        elif not (data.ndim == 2 and data.shape[1] == w):
            raise IoBindingError(
                f"array of shape {data.shape} does not match window "
                f"stream of {w} elements"
            )
    if isinstance(data, tuple):
        data = list(data)
    if isinstance(data, np.ndarray) and data.ndim > 0:
        data = data.view()
        data.flags.writeable = False   # a kernel cannot write the input
        chunks = _started(_slices(data, n))
    elif isinstance(data, list):
        chunks = _started(_slices(data, n))
    else:
        chunks = _started(_pull(iter(data), n))
    if validate:
        return _started(
            _pull(map(dtype.validate, chain.from_iterable(chunks)), n))
    return chunks


def iter_stream_values(dtype: StreamType, data: Any,
                       validate: bool = False) -> Iterator[Any]:
    """:func:`stream_chunks` one element at a time (the x86sim source
    threads)."""
    return chain.from_iterable(stream_chunks(dtype, data, validate))


async def _source_coro(queue: BroadcastQueue, chunks: Iterator[Any]):
    for chunk in chunks:
        await _queue_put_many(queue, chunk)


def make_source(queue: BroadcastQueue, dtype: StreamType, data: Any,
                validate: bool = False, batch: Optional[int] = None):
    """Build the source coroutine feeding *queue* from *data* (§3.7).

    Elements move in bulk ring writes of up to *batch* elements (by
    default the ring's capacity) cut by :func:`stream_chunks`; a write
    the ring cannot take whole parks once and resumes at the offset it
    reached, so the source crosses the scheduler at most once per
    queue-full transition.  ``batch=1`` stages one element at a time.
    """
    return _source_coro(
        queue, stream_chunks(dtype, data, validate, batch or queue.capacity))


# ---------------------------------------------------------------------------
# Output adaptation
# ---------------------------------------------------------------------------


class ArraySinkCursor:
    """Sequentially fills a pre-allocated numpy array from a stream.

    Scalar streams fill one element per item; window streams fill one
    block per item.  Overflow raises — the caller sized the array.
    Items land in a flat view of the array; an array reshape cannot view
    flat (a transpose, say) is filled through a contiguous copy whose
    every stored range is written back through ``array.flat``.
    """

    def __init__(self, array: np.ndarray, dtype: StreamType):
        self.array = array
        self.dtype = dtype
        self.count = 0  # items received
        self.width = dtype.count if isinstance(dtype, WindowType) else 1
        if array.size % self.width != 0:
            raise IoBindingError(
                f"sink array of {array.size} elements is not a "
                f"multiple of the window size {self.width}"
            )
        self.capacity = array.size // self.width
        self._flat = array.reshape(-1)
        self._copied = not np.may_share_memory(self._flat, array)

    def store(self, value: Any) -> None:
        self.store_many((value,))

    def store_many(self, values: Sequence[Any]) -> None:
        """Store a run of items in order: a list, tuple or numpy array.

        An array run whose dtype casts safely to the sink's (scalar
        items, or ``(n, window)`` blocks) is one slice write.  Any
        other run stores as element assignment would: a scalar run
        converts with one ``np.asarray`` over its elements into one
        slice write, and numpy refuses that conversion exactly where
        element assignment would refuse an element (int overflow, NaN
        into an int, complex into a float); such a run (or a ragged
        one) is stored element by element, so the same element raises
        the same error after the same prefix.  An overflowing run
        stores what fits, then raises.
        """
        room = self.capacity - self.count
        if len(values) > room:
            self.store_many(values[:room])
            raise StreamTypeError(
                f"sink array overflow: capacity {self.capacity} items"
            )
        flat = self._flat
        w = self.width
        if isinstance(values, np.ndarray):
            if values.shape[1:] == ((w,) if w > 1 else ()) \
                    and np.can_cast(values.dtype, flat.dtype, "safe"):
                lo = self.count * w
                flat[lo:lo + values.size] = values.reshape(-1)
                self._advance(len(values))
                return
            values = list(values)   # an unsafe cast goes element-wise
        if w == 1 and len(values) > 1:
            try:
                run = np.asarray(values, dtype=flat.dtype)
            except Exception:
                run = None   # the element loop below raises it in place
            if run is not None and run.shape == (len(values),):
                flat[self.count:self.count + len(run)] = run
                self._advance(len(run))
                return
        for v in values:
            i = self.count * w
            if w == 1:
                flat[i] = v
            else:
                flat[i:i + w] = v
            self._advance(1)

    def _advance(self, n: int) -> None:
        lo = self.count * self.width
        self.count += n
        if self._copied:
            hi = self.count * self.width
            self.array.flat[lo:hi] = self._flat[lo:hi]

    @property
    def items_stored(self) -> int:
        return self.count


async def _sink_coro(queue: BroadcastQueue, consumer_idx: int, store_many,
                     batch: int):
    while True:
        store_many(await _queue_get_up_to(queue, consumer_idx, batch))


def sink_store(dtype: StreamType, container: Any):
    """How a stream output fills its sink *container* (§3.7).

    Returns ``(store, store_many, cursor_or_None)``: a ``list`` is
    appended to (``extend`` for a run), a pre-allocated numpy array is
    filled front to back through an :class:`ArraySinkCursor` (which also
    reports its item count).  Anything else is rejected.  Every backend
    binds its stream sinks through this one rule.
    """
    if isinstance(container, list):
        return container.append, container.extend, None
    if isinstance(container, np.ndarray):
        cursor = ArraySinkCursor(container, dtype)
        return cursor.store, cursor.store_many, cursor
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


def preset_rtp(latch: Any, dtype: Any, container: Any,
               validate: bool = False) -> None:
    """Write a graph's pre-run RTP input *container* (a value or a
    :class:`RuntimeParam`) into its latch.  Engines call it on the raw
    latch, before :func:`~repro.core.transport.traced` wraps it: the
    value is configuration, not a traced transfer."""
    value = container.value if isinstance(container, RuntimeParam) \
        else container
    latch.try_put(dtype.validate(value) if validate else value)


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
    Each read takes up to *batch* elements (by default the ring's
    capacity; up-to semantics, so a tail shorter than the batch still
    drains) and stores them with one ``store_many``.
    """
    _store, store_many, cursor = sink_store(dtype, container)
    return _sink_coro(queue, consumer_idx, store_many,
                      batch or queue.capacity), cursor
