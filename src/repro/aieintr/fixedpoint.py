"""Fixed-point helpers: shift-round-saturate and friends.

The AIE scalar and vector units implement Q-format fixed-point arithmetic
with a configurable rounding mode and saturation on the accumulator-to-
vector move (the ``srs`` intrinsic).  The farrow example's hand-optimised
fixed-point SIMD convolution leans on these, so the emulation implements
the full behaviour:

* ``srs(acc, shift)``: arithmetic right shift with rounding, then
  saturation into the destination integer type;
* ``ups(vec, shift)``: up-shift a vector into an accumulator;
* rounding modes ``floor``, ``nearest`` (round half away from zero,
  the AIE ``rnd_sym`` default), and ``even`` (banker's rounding).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import tracing as _trace
from .tracing import emit

__all__ = [
    "RoundMode",
    "saturate",
    "round_shift",
    "srs_array",
    "ups_array",
    "q_mul",
]


class RoundMode:
    """Rounding modes of the AIE shift-round-saturate path."""

    FLOOR = "floor"
    NEAREST = "nearest"   # round half away from zero (AIE rnd_sym)
    EVEN = "even"         # round half to even

    ALL = (FLOOR, NEAREST, EVEN)


# int64 scalars, not Python ints: a Python int limit outside a narrower
# input dtype's range would make np.maximum raise OverflowError.
_INT_LIMITS = {
    np.dtype(t): (np.int64(np.iinfo(t).min), np.int64(np.iinfo(t).max))
    for t in (np.int8, np.int16, np.int32, np.int64)
}


def saturate(values: np.ndarray, dtype) -> np.ndarray:
    """Clamp int64 *values* into the representable range of *dtype*."""
    dt = np.dtype(dtype)
    try:
        lo, hi = _INT_LIMITS[dt]
    except KeyError:
        raise ValueError(f"saturate() supports signed ints, got {dt}") from None
    return np.minimum(np.maximum(values, lo), hi).astype(dt, copy=False)


def round_shift(values: np.ndarray, shift: int,
                mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Arithmetic right shift by *shift* with the given rounding mode.

    Operates in int64; no saturation (that is :func:`saturate`'s job).
    ``shift == 0`` is the identity for all modes.
    """
    v = np.asarray(values, np.int64)
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    if shift == 0:
        return v.copy()
    if mode == RoundMode.FLOOR:
        return v >> shift
    half = np.int64(1) << (shift - 1)
    if mode == RoundMode.NEAREST:
        # Round half away from zero (AIE's symmetric rounding rounds
        # magnitudes): add half for non-negative values and half - 1 for
        # negatives (``v >> 63`` is -1 exactly there), so that -0.5
        # rounds to -1.  One allocation, then in-place passes; int64
        # adds wrap in any order.  The adjustment is built first so the
        # one add touching v wraps silently, as an array op, even when
        # v is 0-d (the passes then run on numpy scalars).
        out = v >> 63
        out += half
        out += v
        out >>= shift
        return out
    if mode == RoundMode.EVEN:
        q = v >> shift
        rem = v - (q << shift)
        tie = rem == half
        up = (rem > half) | (tie & ((q & 1) == 1))
        return q + up.astype(np.int64)
    raise ValueError(f"unknown rounding mode {mode!r}")


def srs_array(acc: np.ndarray, shift: int, dtype=np.int16,
              mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Shift-round-saturate an accumulator array into *dtype* lanes.

    This is the workhorse move from the 48/80-bit accumulator register
    back to a 16/32-bit vector register.
    """
    a = np.asarray(acc)
    if _trace._active:
        emit("srs", int(a.shape[-1]) if a.ndim else 1,
             np.dtype(dtype).itemsize)
    return saturate(round_shift(a, shift, mode), dtype)


def ups_array(values: np.ndarray, shift: int) -> np.ndarray:
    """Up-shift vector lanes into accumulator precision (``ups``)."""
    v = np.asarray(values, dtype=np.int64)
    emit("ups", v.shape[-1] if v.ndim else 1, 8)
    return v << shift


def q_mul(a: Union[int, np.ndarray], b: Union[int, np.ndarray],
          frac_bits: int, dtype=np.int16,
          mode: str = RoundMode.NEAREST) -> np.ndarray:
    """Fixed-point multiply of two Q(frac_bits) values with srs.

    Scalar-path convenience used by golden-reference implementations.
    """
    prod = np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)
    return saturate(round_shift(prod, frac_bits, mode), dtype)
