"""Traced array-level vector operations.

Window-based AIE kernels process whole buffers per invocation; their
inner loops are long runs of vector instructions over the buffer.  In
the emulation those loops are numpy expressions (vectorised per the HPC
guides), which would be invisible to the micro-op trace.  The ``va_*``
functions here are the bridge: numpy-vectorised bulk operations that
emit one micro-op carrying the *total lane count*, which the VLIW timing
model divides by the per-cycle lane throughput of the target unit.

Kernels must use these (or :class:`AieVector` ops) for all arithmetic
that the cycle model should account for.  Like the per-step vector
ops, they call ``emit`` only while a recorder is active, and widen to
int64 without a copy when the operand already is int64.
"""

from __future__ import annotations

import numpy as np

from . import tracing as _trace
from .fixedpoint import RoundMode, round_shift, saturate
from .tracing import emit

__all__ = [
    "va_add", "va_sub", "va_mul", "va_mac", "va_round_shift", "va_srs",
    "va_min", "va_max", "va_select", "va_copy",
]


def va_add(a: np.ndarray, b) -> np.ndarray:
    """Elementwise add over a whole buffer (vector-ALU run)."""
    a = np.asarray(a)
    if _trace._active:
        emit("vadd", a.size, a.itemsize)
    return a + b


def va_sub(a: np.ndarray, b) -> np.ndarray:
    """Elementwise subtract over a whole buffer."""
    a = np.asarray(a)
    if _trace._active:
        emit("vsub", a.size, a.itemsize)
    return a - b


def va_mul(a: np.ndarray, b) -> np.ndarray:
    """Elementwise multiply (integer products widen to int64)."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        if _trace._active:
            emit("vmul", a.size, a.itemsize)
        return a.astype(np.int64, copy=False) * np.asarray(b, np.int64)
    if _trace._active:
        emit("vfpmul", a.size, a.itemsize)
    return a * b


def va_mac(acc: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """acc + a*b over a whole buffer."""
    a = np.asarray(a)
    if a.dtype.kind in "iu":
        if _trace._active:
            emit("vmac", a.size, a.itemsize)
        return np.asarray(acc, np.int64) + a.astype(np.int64, copy=False) \
            * np.asarray(b, np.int64)
    if _trace._active:
        emit("vfpmac", a.size, a.itemsize)
    return acc + a * b


def va_round_shift(a: np.ndarray, shift: int,
                   mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Rounding arithmetic right shift over a buffer (srs without the
    saturate/narrow step)."""
    a = np.asarray(a)
    if _trace._active:
        emit("vsrs", a.size, 8)
    return round_shift(a, shift, mode)


def va_srs(a: np.ndarray, shift: int, dtype=np.int16,
           mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Full shift-round-saturate of a buffer into *dtype*."""
    a = np.asarray(a)
    if _trace._active:
        emit("vsrs", a.size, np.dtype(dtype).itemsize)
    return saturate(round_shift(a, shift, mode), dtype)


def va_min(a: np.ndarray, b) -> np.ndarray:
    """Elementwise minimum over a whole buffer."""
    a = np.asarray(a)
    if _trace._active:
        emit("vmin", a.size, a.itemsize)
    return np.minimum(a, b)


def va_max(a: np.ndarray, b) -> np.ndarray:
    """Elementwise maximum over a whole buffer."""
    a = np.asarray(a)
    if _trace._active:
        emit("vmax", a.size, a.itemsize)
    return np.maximum(a, b)


def va_select(mask, a: np.ndarray, b) -> np.ndarray:
    """Per-element blend: a where mask else b (buffer-wide select)."""
    a = np.asarray(a)
    if _trace._active:
        emit("vsel", a.size, a.itemsize)
    return np.where(mask, a, b)


def va_copy(a: np.ndarray) -> np.ndarray:
    """Buffer move (load+store run through the vector register file)."""
    a = np.asarray(a)
    if _trace._active:
        emit("vmov", a.size, a.itemsize)
    return np.array(a, copy=True)
