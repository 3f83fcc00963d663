"""AIE vector registers: the ``aie::vector<T, N>`` emulation.

AMD ships x86 host implementations of the AIE intrinsics with Vitis;
cgsim imports those through an adapter header (§3.9).  Since that library
is proprietary, this module provides an equivalent: an immutable numpy-
backed vector value type with the operations the AIE vector unit offers.
Widths follow the hardware: a vector register file of 128/256/512/1024
bits, i.e. 4..32 lanes depending on element type.

Every operation emits a micro-op via :mod:`repro.aieintr.tracing` so the
cycle-approximate simulator can cost it.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Union

import numpy as np

from .tracing import emit

__all__ = ["AieVector", "vec", "zeros", "broadcast", "iota", "concat",
           "VALID_LANES"]

#: Lane counts realisable in the AIE register file (128..1024 bit).
VALID_LANES = (2, 4, 8, 16, 32, 64)

_INT_DTYPES = (np.int8, np.int16, np.int32, np.int64)


def _check_lanes(lanes: int) -> None:
    if lanes not in VALID_LANES:
        raise ValueError(
            f"AIE vectors support lane counts {VALID_LANES}, got {lanes}"
        )


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
            _check_lanes(data.shape[0])
        self.data = data
        data.setflags(write=False)

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
        emit("vshift_elem", data.shape[0], data.itemsize)
        out = np.empty_like(data)
        out[1:] = data[:-1]
        out[0] = value
        return AieVector(out, _trusted=True)

    # -- elementwise arithmetic --------------------------------------------------------

    def _binop(self, other, ufunc, name: str) -> "AieVector":
        if isinstance(other, AieVector):
            rhs = other.data
        else:
            rhs = other
        emit(name, self.lanes, self.ebytes)
        with np.errstate(over="ignore"):
            return AieVector(ufunc(self.data, rhs).astype(self.dtype),
                             _trusted=True)

    def __add__(self, other):
        return self._binop(other, np.add, "vadd")

    def __radd__(self, other):
        return self._binop(other, np.add, "vadd")

    def __sub__(self, other):
        if isinstance(other, AieVector):
            return self._binop(other, np.subtract, "vsub")
        return self._binop(other, np.subtract, "vsub")

    def __rsub__(self, other):
        emit("vsub", self.lanes, self.ebytes)
        with np.errstate(over="ignore"):
            return AieVector((other - self.data).astype(self.dtype),
                             _trusted=True)

    def __mul__(self, other):
        return self._binop(other, np.multiply, "vmul")

    def __rmul__(self, other):
        return self._binop(other, np.multiply, "vmul")

    def __neg__(self):
        emit("vneg", self.lanes, self.ebytes)
        with np.errstate(over="ignore"):
            return AieVector((-self.data).astype(self.dtype), _trusted=True)

    def abs(self) -> "AieVector":
        emit("vabs", self.lanes, self.ebytes)
        with np.errstate(over="ignore"):
            return AieVector(np.abs(self.data).astype(self.dtype),
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
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError("vec() expects a one-dimensional sequence")
    _check_lanes(arr.shape[0])
    emit("vld", arr.shape[0], arr.dtype.itemsize)
    return AieVector(arr.copy(), _trusted=True)


def zeros(lanes: int, dtype=np.float32) -> AieVector:
    """All-zero vector (``aie::zeros``) — register clear, no load."""
    _check_lanes(lanes)
    emit("vclr", lanes, np.dtype(dtype).itemsize)
    return AieVector(np.zeros(lanes, dtype=dtype), _trusted=True)


def broadcast(value, lanes: int, dtype=None) -> AieVector:
    """Splat a scalar to all lanes (``aie::broadcast``)."""
    _check_lanes(lanes)
    if dtype is None:
        dtype = np.asarray(value).dtype
    emit("vbcast", lanes, np.dtype(dtype).itemsize)
    return AieVector(np.full(lanes, value, dtype=dtype), _trusted=True)


def iota(lanes: int, dtype=np.int32, start=0, step=1) -> AieVector:
    """Lane-index vector [start, start+step, ...]."""
    _check_lanes(lanes)
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
