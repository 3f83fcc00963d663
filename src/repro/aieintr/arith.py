"""Vector arithmetic entry points mirroring the ``aie::`` API.

These free functions are the names kernel code written against the AIE
API uses (``aie::mul``, ``aie::mac``, ...).  Integer multiplies return
wide :class:`~repro.aieintr.accum.Accum` registers; float multiplies
return float accumulators; both move back to vectors via
``Accum.to_vector``.

Kernels call these per vector step, so each one should cost little
more than its numpy work: dtype tests read ``dtype.kind``, lane counts
and widths come from the lane array rather than properties, ``emit``
runs only while a recorder is active, the integer sliding MAC is a
single int64 ``np.correlate``, and the float one feeds an
``as_strided`` window view to one matmul.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tracing as _trace
from .accum import Accum, acc_zeros
from .tracing import emit
from .vector import AieVector

__all__ = ["mul", "mac", "msc", "negmul", "add", "sub", "sliding_mul",
           "sliding_mac", "sliding_mul_complex"]


def _acc_kind_for(v: AieVector) -> str:
    if v.dtype.kind == "f":
        return "accfloat"
    # int16 x int16 chains use 48-bit lanes; int32 paths use 80-bit.
    return "acc80" if v.ebytes >= 4 else "acc48"


def mul(a: AieVector, b) -> Accum:
    """Lanewise multiply into a fresh accumulator (``aie::mul``)."""
    kind = _acc_kind_for(a)
    rhs = b.data if isinstance(b, AieVector) else b
    if kind == "accfloat":
        emit("vfpmul", a.lanes, 4)
        return Accum((a.data * rhs).astype(np.float32), kind)
    emit("vmul_acc", a.lanes, a.ebytes)
    acc = Accum(a.data.astype(np.int64) * np.asarray(rhs, dtype=np.int64),
                kind)
    acc._check_range()
    return acc


def negmul(a: AieVector, b) -> Accum:
    """Lanewise negated multiply (``aie::negmul``)."""
    acc = mul(a, b)
    return Accum(-acc.data, acc.kind)


def mac(acc: Accum, a: AieVector, b) -> Accum:
    """acc + a*b (``aie::mac``)."""
    return acc.mac(a, b)


def msc(acc: Accum, a: AieVector, b) -> Accum:
    """acc - a*b (``aie::msc``)."""
    return acc.msc(a, b)


def add(a: AieVector, b: AieVector) -> AieVector:
    """Lanewise add (``aie::add``)."""
    return a + b


def sub(a: AieVector, b: AieVector) -> AieVector:
    """Lanewise subtract (``aie::sub``)."""
    return a - b


def sliding_mul(coeffs: AieVector, data: np.ndarray, out_lanes: int,
                start: int = 0, step: int = 1) -> Accum:
    """Sliding-window multiply (``aie::sliding_mul``): FIR building block.

    ``out[i] = sum_k coeffs[k] * data[start + i*step + k]`` for
    ``i in range(out_lanes)``.  *data* must be an array with at least
    ``start + (out_lanes-1)*step + len(coeffs)`` elements.  On hardware
    this reads a vector register pair with a sliding extraction network;
    the emulation works on strided views (no copy of the windows).
    """
    return sliding_mac(None, coeffs, data, out_lanes, start, step)


def sliding_mac(acc, coeffs: AieVector, data: np.ndarray, out_lanes: int,
                start: int = 0, step: int = 1) -> Accum:
    """Sliding-window multiply-accumulate (``aie::sliding_mac``)."""
    c = coeffs.data
    taps = c.shape[0]
    d = np.asarray(data)
    if d.ndim != 1:
        raise ValueError("sliding window data must be one-dimensional")
    need = start + (out_lanes - 1) * step + taps
    if d.shape[0] < need:
        raise ValueError(
            f"sliding window needs {need} data elements, got {d.shape[0]}"
        )
    ckind = c.dtype.kind
    dkind = d.dtype.kind
    if ckind == "c" or dkind == "c":
        raise TypeError(
            "sliding_mul/mac operate on real lanes; split complex data "
            "into real/imag component chains (two MAC chains, as the "
            "hardware's cmac pairs do)"
        )
    # Total MAC lane-operations: one per (output, tap) pair.  The timing
    # model divides by the per-cycle MAC throughput of the element width.
    total_macs = out_lanes * taps
    if ckind == "f" or dkind == "f":
        if _trace._active:
            emit("vfpmac", total_macs, 4)
        # Strided sliding-window view (no copy): row i is the window at
        # start + i*step.  The need check above keeps it in bounds.
        s = d.strides[0]
        windows = as_strided(d[start:], shape=(out_lanes, taps),
                             strides=(s * step, s), writeable=False)
        res = windows @ c
        if acc is None:
            res += 0  # a cleared register: -0.0 sums come out as +0.0
        else:
            res = acc.data + res
        return Accum(res.astype(np.float32, copy=False), "accfloat")
    if _trace._active:
        emit("vmac", total_macs, c.itemsize)
    # One int64 correlation over the covered span, then every step-th
    # output.  int64 sums wrap mod 2^64 in any order, so this equals the
    # windowed int64 matmul exactly (numpy cannot hand an integer matmul
    # to BLAS).
    x = d[start:need].astype(np.int64, copy=False)
    res = np.correlate(x, c.astype(np.int64, copy=False),
                       "valid")[:out_lanes * step:step]
    if acc is None:
        out = Accum(res, "acc80" if c.itemsize >= 4 else "acc48")
    else:
        out = Accum(acc.data + res, acc.kind)
    out._check_range()
    return out


def sliding_mul_complex(coeffs: AieVector, data: np.ndarray,
                        out_lanes: int, start: int = 0,
                        step: int = 1) -> np.ndarray:
    """Sliding-window MAC over complex data with real coefficients.

    The hardware ``cmac`` path processes a complex sample as paired real
    MAC chains; this helper performs exactly that — two
    :func:`sliding_mac` chains over the real and imaginary components —
    and returns the complex accumulator contents as a complex128 array
    (integer-exact: components are carried in int64).

    Complex *coefficients* would need four chains (full complex
    multiply); the evaluated apps only use real taps, so that variant is
    left to the caller as two calls with swapped components.
    """
    d = np.asarray(data)
    if not np.iscomplexobj(d):
        raise TypeError("sliding_mul_complex expects complex data; use "
                        "sliding_mul for real chains")
    re = sliding_mul(coeffs, np.real(d).astype(np.int64), out_lanes,
                     start, step)
    im = sliding_mul(coeffs, np.imag(d).astype(np.int64), out_lanes,
                     start, step)
    return re.to_array().astype(np.float64) \
        + 1j * im.to_array().astype(np.float64)
