"""Traced array-level vector operations.

Window-based AIE kernels process whole buffers per invocation; their
inner loops are long runs of vector instructions over the buffer.  In
the emulation those loops are numpy expressions (vectorised per the HPC
guides), which would be invisible to the micro-op trace.  The ``va_*``
functions here are the bridge: numpy-vectorised bulk operations that
emit one micro-op carrying the *total lane count*, which the VLIW timing
model divides by the per-cycle lane throughput of the target unit.

Kernels must use these (or :class:`AieVector` ops) for all arithmetic
that the cycle model should account for.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import RoundMode, round_shift, saturate
from .tracing import emit

__all__ = [
    "va_add", "va_sub", "va_mul", "va_mac", "va_round_shift", "va_srs",
    "va_min", "va_max", "va_select", "va_copy",
]


def _n(a) -> int:
    return int(np.asarray(a).size)


def va_add(a: np.ndarray, b) -> np.ndarray:
    """Elementwise add over a whole buffer (vector-ALU run)."""
    a = np.asarray(a)
    emit("vadd", _n(a), a.dtype.itemsize)
    return a + b


def va_sub(a: np.ndarray, b) -> np.ndarray:
    """Elementwise subtract over a whole buffer."""
    a = np.asarray(a)
    emit("vsub", _n(a), a.dtype.itemsize)
    return a - b


def va_mul(a: np.ndarray, b) -> np.ndarray:
    """Elementwise multiply (integer products widen to int64)."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        emit("vmul", _n(a), a.dtype.itemsize)
        return a.astype(np.int64) * np.asarray(b, dtype=np.int64)
    emit("vfpmul", _n(a), a.dtype.itemsize)
    return a * b


def va_mac(acc: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """acc + a*b over a whole buffer."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        emit("vmac", _n(a), a.dtype.itemsize)
        return np.asarray(acc, dtype=np.int64) + a.astype(np.int64) * np.asarray(
            b, dtype=np.int64
        )
    emit("vfpmac", _n(a), a.dtype.itemsize)
    return acc + a * b


def va_round_shift(a: np.ndarray, shift: int,
                   mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Rounding arithmetic right shift over a buffer (srs without the
    saturate/narrow step)."""
    a = np.asarray(a)
    emit("vsrs", _n(a), 8)
    return round_shift(a, shift, mode)


def va_srs(a: np.ndarray, shift: int, dtype=np.int16,
           mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Full shift-round-saturate of a buffer into *dtype*."""
    a = np.asarray(a)
    emit("vsrs", _n(a), np.dtype(dtype).itemsize)
    return saturate(round_shift(a, shift, mode), dtype)


def va_min(a: np.ndarray, b) -> np.ndarray:
    """Elementwise minimum over a whole buffer."""
    a = np.asarray(a)
    emit("vmin", _n(a), a.dtype.itemsize)
    return np.minimum(a, b)


def va_max(a: np.ndarray, b) -> np.ndarray:
    """Elementwise maximum over a whole buffer."""
    a = np.asarray(a)
    emit("vmax", _n(a), a.dtype.itemsize)
    return np.maximum(a, b)


def va_select(mask, a: np.ndarray, b) -> np.ndarray:
    """Per-element blend: a where mask else b (buffer-wide select)."""
    a = np.asarray(a)
    emit("vsel", _n(a), a.dtype.itemsize)
    return np.where(mask, a, b)


def va_copy(a: np.ndarray) -> np.ndarray:
    """Buffer move (load+store run through the vector register file)."""
    a = np.asarray(a)
    emit("vmov", _n(a), a.dtype.itemsize)
    return np.array(a, copy=True)
