"""Vector arithmetic entry points mirroring the ``aie::`` API.

These free functions are the names kernel code written against the AIE
API uses (``aie::mul``, ``aie::mac``, ...).  Integer multiplies return
wide :class:`~repro.aieintr.accum.Accum` registers; float multiplies
return float accumulators; both move back to vectors via
``Accum.to_vector``.
"""

from __future__ import annotations

import numpy as np

from .accum import Accum, acc_zeros
from .tracing import emit
from .vector import AieVector

__all__ = ["mul", "mac", "msc", "negmul", "add", "sub", "sliding_mul",
           "sliding_mac", "sliding_mul_complex"]


def _acc_kind_for(v: AieVector) -> str:
    if np.issubdtype(v.dtype, np.floating):
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
    taps = coeffs.lanes
    d = np.asarray(data)
    need = start + (out_lanes - 1) * step + taps
    if d.shape[0] < need:
        raise ValueError(
            f"sliding window needs {need} data elements, got {d.shape[0]}"
        )
    if d.ndim != 1:
        raise ValueError("sliding window data must be one-dimensional")
    if np.iscomplexobj(d) or np.iscomplexobj(coeffs.data):
        raise TypeError(
            "sliding_mul/mac operate on real lanes; split complex data "
            "into real/imag component chains (two MAC chains, as the "
            "hardware's cmac pairs do)"
        )
    is_float = np.issubdtype(coeffs.dtype, np.floating) or np.issubdtype(
        d.dtype, np.floating
    )
    # Total MAC lane-operations: one per (output, tap) pair.  The timing
    # model divides by the per-cycle MAC throughput of the element width.
    total_macs = out_lanes * taps
    if is_float:
        emit("vfpmac", total_macs, 4)
        # Strided sliding-window view: rows are the per-output windows.
        windows = np.lib.stride_tricks.sliding_window_view(d, taps)[
            start:start + out_lanes * step:step
        ]
        res = windows @ coeffs.data
        base = acc.data if acc is not None else 0
        kind = "accfloat"
        data_out = (base + res).astype(np.float32)
    else:
        emit("vmac", total_macs, coeffs.ebytes)
        # One strided multiply-add per tap.  int64 sums wrap mod 2^64 in
        # any order, so this equals the windowed int64 matmul exactly;
        # numpy cannot hand that matmul to BLAS, and it is far slower.
        span = (out_lanes - 1) * step + 1
        x = d[start:need].astype(np.int64, copy=False)
        res = np.zeros(out_lanes, dtype=np.int64)
        for k, c in enumerate(coeffs.data.astype(np.int64).tolist()):
            res += c * x[k:k + span:step]
        base = acc.data if acc is not None else np.int64(0)
        kind = acc.kind if acc is not None else (
            "acc80" if coeffs.ebytes >= 4 else "acc48"
        )
        data_out = base + res
    out = Accum(data_out, kind)
    if not out.is_float:
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
