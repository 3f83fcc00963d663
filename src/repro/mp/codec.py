"""The value codec of the cgsim-mp result hand-back.

A worker's sink payload is a run of stream elements.  Pickled one
object per element, a run of numpy scalars or window blocks costs a
pickle header per element; the same run as one typed ndarray is a
header plus a byte copy.  :func:`pack_layout` decides when that switch
is exact, and the worker writes the packed bytes into its hand-back
file (:mod:`repro.mp.worker`) instead of pickling them:

* a run of numpy numeric scalars of one ``type()`` becomes one 1-d
  array; iterating it (``list.extend``) gives back elements of that
  type with the same bytes — what pickling each scalar would have
  delivered (pickle itself turns ``longlong`` into ``int64``, scalar
  or array alike);
* a run of window blocks — plain ``np.ndarray`` objects with
  ``ndim >= 1``, one numeric dtype and one shape — becomes one
  ``(n, *shape)`` array whose rows are blocks with the same bytes,
  dtype and shape.

Anything else — Python scalars, 0-d arrays, ndarray subclasses, ragged
or mixed runs, dates, strings, object dtypes, ``longdouble`` scalars —
passes through untouched and pickles.

The hand-back file is the one format both sides share:
:func:`write_packed` (worker) writes each packed run's parts into an
anonymous file with ``pwritev`` at a 64-byte aligned offset and names
it by ``(offset, dtype, shape)``; :func:`read_packed` (manager) maps
the file copy-on-write and views each run as one writable array.
"""

from __future__ import annotations

import math
import mmap
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["pack_layout", "pack_values", "write_packed", "read_packed"]

#: Numeric types an array cannot carry exactly: ``timedelta64`` keeps
#: its unit in the dtype, not the type, and storing a ``longdouble``
#: scalar into an array drops the bytes past its 80-bit value.
_INEXACT = (np.timedelta64, np.longdouble, np.clongdouble)

#: Block dtype kinds that pack (bytes are copied verbatim, so every
#: width of these is exact, ``longdouble`` included).
_BLOCK_KINDS = frozenset("biufc")

#: Packed runs start on this byte boundary in the hand-back file, so
#: every row view is aligned for its dtype.
_ALIGN = 64

#: Buffers one ``pwritev`` call may take.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

#: ``(dtype, shape, parts)`` of a packed run.
Layout = Tuple[np.dtype, Tuple[int, ...], List[np.ndarray]]


def _block_layout(values: Sequence[np.ndarray]) -> Optional[Layout]:
    first = values[0]
    dtype, shape = first.dtype, first.shape
    if not shape or dtype.kind not in _BLOCK_KINDS:
        return None
    for v in values:
        if v.shape != shape or v.dtype != dtype:
            return None
    return (dtype, (len(values),) + shape,
            [np.ascontiguousarray(v) for v in values])


def pack_layout(values: Sequence[Any]) -> Optional[Layout]:
    """How a packable run lays out as one array, or ``None``.

    Returns ``(dtype, shape, parts)``: the packed array's dtype and
    shape, and C-contiguous arrays whose bytes, back to back, are that
    array's bytes — the run itself for blocks (a non-contiguous block
    is copied), one array for scalars.  Nothing is stacked here; the
    worker writes *parts* straight into its hand-back file."""
    if len(values) == 0:
        return None
    types = set(map(type, values))
    if len(types) != 1:
        return None
    t = types.pop()
    if t is np.ndarray:
        return _block_layout(values)
    if (not issubclass(t, (np.number, np.bool_)) or issubclass(t, _INEXACT)
            or np.dtype(t).type is not t):
        return None
    arr = np.fromiter(values, dtype=t, count=len(values))
    return arr.dtype, arr.shape, [arr]


def pack_values(values):
    """One typed ndarray for a packable run (see :func:`pack_layout`);
    *values* itself otherwise."""
    layout = pack_layout(values)
    if layout is None:
        return values
    dtype, shape, parts = layout
    return parts[0] if len(shape) == 1 else np.stack(parts, dtype=dtype)


def _pwrite_all(fd: int, parts: List[np.ndarray], offset: int) -> int:
    """Write *parts* back to back at *offset*; returns the bytes written
    (``pwritev`` takes at most ``IOV_MAX`` buffers and may write short)."""
    views = [memoryview(p).cast("B") for p in parts]
    total = i = 0
    while i < len(views):
        chunk = views[i:i + _IOV_MAX]
        n = os.pwritev(fd, chunk, offset + total)
        if n == 0 and any(v.nbytes for v in chunk):
            raise OSError("hand-back file write made no progress")
        total += n
        while i < len(views) and n >= views[i].nbytes:
            n -= views[i].nbytes
            i += 1
        if n:
            views[i] = views[i][n:]
    return total


def write_packed(fd: int, runs: Dict[Any, Sequence[Any]]):
    """Write every packable run of *runs* (``{key: values}``) into the
    file *fd*, from offset 0.

    Returns ``(packed, rest)``: ``{key: (offset, dtype, shape)}`` for the
    runs now in the file, and ``{key: values}`` for the runs that pass
    through (to be pickled)."""
    packed: Dict[Any, Tuple[int, np.dtype, Tuple[int, ...]]] = {}
    rest: Dict[Any, Sequence[Any]] = {}
    end = 0
    for key, values in runs.items():
        layout = pack_layout(values)
        if layout is None:
            rest[key] = values
            continue
        dtype, shape, parts = layout
        offset = -(-end // _ALIGN) * _ALIGN
        end = offset + _pwrite_all(fd, parts, offset)
        packed[key] = (offset, dtype, shape)
    if packed:
        # An empty run may sit past the last byte written.
        os.ftruncate(fd, end)
    return packed, rest


def read_packed(fd: int, packed) -> Dict[Any, np.ndarray]:
    """``{key: array}`` for the runs :func:`write_packed` put into the
    file *fd*.  The file is mapped copy-on-write, so the arrays are
    writable and the caller may close *fd* at once: the mapping keeps
    the file alive for as long as any array still views it."""
    size = os.fstat(fd).st_size
    buf = mmap.mmap(fd, size, access=mmap.ACCESS_COPY) if size \
        else bytearray()
    return {key: np.frombuffer(buf, dtype, count=math.prod(shape),
                               offset=offset).reshape(shape)
            for key, (offset, dtype, shape) in packed.items()}
