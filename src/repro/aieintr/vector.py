"""AIE vector registers: the ``aie::vector<T, N>`` emulation.

AMD ships x86 host implementations of the AIE intrinsics with Vitis;
cgsim imports those through an adapter header (§3.9).  Since that library
is proprietary, this module provides an equivalent: an immutable numpy-
backed vector value type with the operations the AIE vector unit offers.
Widths follow the hardware: a vector register file of 128/256/512/1024
bits, i.e. 4..32 lanes depending on element type.

Every operation emits a micro-op via :mod:`repro.aieintr.tracing` so the
cycle-approximate simulator can cost it.

Cost rules.  ``push``, lane reads, the wrapping ``+ - *`` (and their
reflected forms), ``zeros``, ``broadcast`` and ``vec`` run once per
stream element or lane step of an unfused kernel, so each costs one
numpy allocation and no Python frame or keyword-parsed C call it can
avoid:

* a result is wrapped without ``__init__`` (``object.__new__`` plus
  ``setflags(False)``; the keyword form ``setflags(write=False)``
  costs three times as much);
* ``emit`` is called only while some recorder is active
  (``tracing._active``), so an untraced run pays one global read per
  op, and dtype sizes are looked up only for the micro-op;
* each wrapping op is one function under the shared
  ``np.errstate(over="ignore")`` decorator (its frame and the op's),
  and casts back to the lane type only when the ufunc promoted;
* ``push`` gathers through a cached index table, and ``broadcast`` is
  ``np.full``'s own body (``np.empty`` plus an unsafe ``np.copyto``)
  without its Python frame.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Union

import numpy as np

from . import tracing as _trace
from .tracing import emit

__all__ = ["AieVector", "vec", "zeros", "broadcast", "iota", "concat",
           "VALID_LANES"]

#: Lane counts realisable in the AIE register file (128..1024 bit).
VALID_LANES = (2, 4, 8, 16, 32, 64)

_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)

#: Allocates a vector without running ``__init__``: the per-step ops
#: build and freeze their lanes themselves.
_new_vector = object.__new__


def _lane_error(lanes) -> ValueError:
    return ValueError(
        f"AIE vectors support lane counts {VALID_LANES}, got {lanes}"
    )


def _push_table(lanes: int) -> np.ndarray:
    """Read-only ``[0, 0, 1, ..., lanes-2]`` gather table for ``push``."""
    idx = np.arange(-1, lanes - 1)
    idx[0] = 0
    idx.setflags(write=False)
    return idx


class _LaneTables(dict):
    """``push`` gather tables by lane count: filled once for
    :data:`VALID_LANES`; any other width is built on first use."""

    def __missing__(self, lanes: int) -> np.ndarray:
        idx = self[lanes] = _push_table(lanes)
        return idx


_PUSH_INDEX = _LaneTables((n, _push_table(n)) for n in VALID_LANES)

#: Element-type wrap-around is the vector ALU's overflow behaviour, so
#: arithmetic ops silence numpy's overflow warning (and only that one).
#: Used as a decorator, numpy >= 2 keeps the state per call in a context
#: variable, so the one shared instance is safe across threads.
_wrap_overflow = np.errstate(over="ignore")


def _lanewise(ufunc, name: str, reflected: bool = False):
    """A wrapping vector-ALU operator: ``ufunc(self, other)`` in the
    lane type (``ufunc(other, self)`` when *reflected*), read-only,
    emitting micro-op *name*.  One Python frame under the errstate
    decorator's."""

    @_wrap_overflow
    def op(self, other):
        data = self.data
        if _trace._active:
            emit(name, data.shape[0], data.itemsize)
        if reflected:
            out = ufunc(other, data)
        else:
            out = ufunc(data, other.data if isinstance(other, AieVector)
                        else other)
        if out.dtype != data.dtype:
            out = out.astype(data.dtype)
        out.setflags(False)
        res = _new_vector(AieVector)
        res.data = out
        return res

    return op


class AieVector:
    """An immutable SIMD vector value.

    Arithmetic operators perform elementwise ops in the element dtype
    (with numpy wrap-around for ints, matching the non-saturating vector
    ALU); fixed-point multiply-accumulate paths with wider accumulators
    live in :mod:`repro.aieintr.arith`.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray, _trusted: bool = False):
        if not _trusted:
            data = np.array(data, copy=True)
            if data.ndim != 1:
                raise ValueError("AieVector must be one-dimensional")
            if data.shape[0] not in VALID_LANES:
                raise _lane_error(data.shape[0])
        self.data = data
        data.setflags(False)

    # -- properties ---------------------------------------------------------------

    @property
    def lanes(self) -> int:
        return self.data.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ebytes(self) -> int:
        return self.data.dtype.itemsize

    def to_array(self) -> np.ndarray:
        """A writable copy of the lane contents."""
        return np.array(self.data, copy=True)

    # -- lane access ----------------------------------------------------------------

    def __getitem__(self, i: int):
        data = self.data
        if _trace._active:
            emit("vext_elem", 1, data.itemsize)
        return data[i]

    def set(self, i: int, value) -> "AieVector":
        """Return a new vector with lane *i* replaced (``upd_elem``)."""
        emit("vupd_elem", 1, self.ebytes)
        out = np.array(self.data, copy=True)
        out[i] = value
        return AieVector(out, _trusted=True)

    def extract(self, part: int, parts: int) -> "AieVector":
        """Extract subvector *part* of *parts* (``ext_w``/``extract_v``)."""
        if self.lanes % parts:
            raise ValueError(f"cannot split {self.lanes} lanes into {parts}")
        n = self.lanes // parts
        emit("vext", n, self.ebytes)
        return AieVector(self.data[part * n:(part + 1) * n].copy(),
                         _trusted=True)

    def insert(self, part: int, sub: "AieVector") -> "AieVector":
        """Insert *sub* as part *part* (``upd_w``/``insert``)."""
        if self.lanes % sub.lanes:
            raise ValueError("subvector width must divide vector width")
        emit("vupd", sub.lanes, self.ebytes)
        out = np.array(self.data, copy=True)
        n = sub.lanes
        out[part * n:(part + 1) * n] = sub.data
        return AieVector(out, _trusted=True)

    def push(self, value) -> "AieVector":
        """Shift lanes up by one and insert *value* at lane 0 (``shft_elem``).

        The AIE stream-to-vector idiom: build a vector one element at a
        time from a stream.
        """
        data = self.data
        lanes = data.shape[0]
        if _trace._active:
            emit("vshift_elem", lanes, data.itemsize)
        out = data[_PUSH_INDEX[lanes]]
        out[0] = value
        out.setflags(False)
        res = _new_vector(AieVector)
        res.data = out
        return res

    # -- elementwise arithmetic --------------------------------------------------------

    __add__ = __radd__ = _lanewise(np.add, "vadd")
    __sub__ = _lanewise(np.subtract, "vsub")
    __rsub__ = _lanewise(np.subtract, "vsub", reflected=True)
    __mul__ = __rmul__ = _lanewise(np.multiply, "vmul")

    @_wrap_overflow
    def __neg__(self):
        data = self.data
        emit("vneg", data.shape[0], data.itemsize)
        return AieVector((-data).astype(data.dtype, copy=False),
                         _trusted=True)

    @_wrap_overflow
    def abs(self) -> "AieVector":
        data = self.data
        emit("vabs", data.shape[0], data.itemsize)
        return AieVector(np.abs(data).astype(data.dtype, copy=False),
                         _trusted=True)

    # -- reductions -----------------------------------------------------------------

    def reduce_add(self):
        """Horizontal sum (``aie::reduce_add``)."""
        emit("vreduce", self.lanes, self.ebytes)
        if self.data.dtype in _INT_DTYPES:
            # Wide accumulation, then a wrapping narrow back to the
            # element type (matching the hardware's srs-less move).
            return self.data.sum(dtype=np.int64).astype(self.dtype)[()]
        return self.dtype.type(self.data.sum())

    def reduce_max(self):
        emit("vreduce", self.lanes, self.ebytes)
        return self.data.max()

    def reduce_min(self):
        emit("vreduce", self.lanes, self.ebytes)
        return self.data.min()

    # -- comparisons / blends -----------------------------------------------------------

    def max(self, other: "AieVector") -> "AieVector":
        data = self.data
        emit("vmax", data.shape[0], data.itemsize)
        return AieVector(np.maximum(data, other.data), _trusted=True)

    def min(self, other: "AieVector") -> "AieVector":
        data = self.data
        emit("vmin", data.shape[0], data.itemsize)
        return AieVector(np.minimum(data, other.data), _trusted=True)

    def lt(self, other: "AieVector") -> np.ndarray:
        """Per-lane compare; returns a boolean mask (``lt`` intrinsic)."""
        emit("vcmp", self.lanes, self.ebytes)
        return self.data < other.data

    def select(self, other: "AieVector", mask) -> "AieVector":
        """Per-lane blend: lane i from *self* where ``mask[i]`` else from
        *other* (``select``/``sel`` intrinsics)."""
        emit("vsel", self.lanes, self.ebytes)
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self.lanes,):
            raise ValueError(f"mask must have shape ({self.lanes},)")
        return AieVector(np.where(m, self.data, other.data), _trusted=True)

    # -- misc -----------------------------------------------------------------------

    def astype(self, np_dtype) -> "AieVector":
        emit("vconv", self.lanes, np.dtype(np_dtype).itemsize)
        return AieVector(self.data.astype(np_dtype), _trusted=True)

    def __len__(self):
        return self.lanes

    def __iter__(self):
        return iter(self.data)

    def __eq__(self, other):
        if isinstance(other, AieVector):
            return bool(np.array_equal(self.data, other.data))
        return NotImplemented

    def __hash__(self):
        return hash((self.data.tobytes(), str(self.dtype)))

    def __repr__(self):
        return f"AieVector({self.data.tolist()}, dtype={self.dtype})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def vec(values: Union[Sequence, np.ndarray], dtype=None) -> AieVector:
    """Build a vector from explicit lane values (register load)."""
    arr = np.asarray(values, dtype)
    if arr.ndim != 1:
        raise ValueError("vec() expects a one-dimensional sequence")
    lanes = arr.shape[0]
    if lanes not in VALID_LANES:
        raise _lane_error(lanes)
    if _trace._active:
        emit("vld", lanes, arr.itemsize)
    out = arr.copy()
    out.setflags(False)
    res = _new_vector(AieVector)
    res.data = out
    return res


def zeros(lanes: int, dtype=np.float32) -> AieVector:
    """All-zero vector (``aie::zeros``) — register clear, no load."""
    if lanes not in VALID_LANES:
        raise _lane_error(lanes)
    if _trace._active:
        emit("vclr", lanes, np.dtype(dtype).itemsize)
    out = np.zeros(lanes, dtype)
    out.setflags(False)
    res = _new_vector(AieVector)
    res.data = out
    return res


def broadcast(value, lanes: int, dtype=None) -> AieVector:
    """Splat a scalar to all lanes (``aie::broadcast``)."""
    if lanes not in VALID_LANES:
        raise _lane_error(lanes)
    if dtype is None:
        dtype = np.asarray(value).dtype
    if _trace._active:
        emit("vbcast", lanes, np.dtype(dtype).itemsize)
    out = np.empty(lanes, dtype)
    np.copyto(out, value, "unsafe")
    out.setflags(False)
    res = _new_vector(AieVector)
    res.data = out
    return res


def iota(lanes: int, dtype=np.int32, start=0, step=1) -> AieVector:
    """Lane-index vector [start, start+step, ...]."""
    if lanes not in VALID_LANES:
        raise _lane_error(lanes)
    emit("vld", lanes, np.dtype(dtype).itemsize)
    return AieVector(
        (start + step * np.arange(lanes)).astype(dtype), _trusted=True
    )


def concat(*parts: AieVector) -> AieVector:
    """Concatenate subvectors into one wider register (``concat``)."""
    if not parts:
        raise ValueError("concat() needs at least one vector")
    emit("vconcat", sum(p.lanes for p in parts), parts[0].ebytes)
    return AieVector(np.concatenate([p.data for p in parts]))
