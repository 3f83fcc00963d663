"""Golden reference implementations for the four AMD example apps (§5).

Pure numpy/scipy implementations, written for clarity rather than speed,
used to validate both the cgsim-ported kernels and the extracted/
re-generated variants.  Each matches the algorithm of the corresponding
Vitis-Tutorials example:

* ``Bilinear_Interpolation`` — bilinear interpolation of image samples,
* ``bitonic-sorting`` — 16-wide ascending sort of float32,
* ``farrow_filter`` — fractional-delay Farrow structure (cubic Lagrange,
  4 taps, 4 polynomial branches) on cint16 samples with Q15 fixed point,
* ``implementing-iir-filter`` — cascaded-biquad IIR on float32.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
from scipy import signal as sp_signal

__all__ = [
    "golden_bilinear",
    "golden_bitonic",
    "FARROW_TAPS_Q15",
    "golden_farrow",
    "iir_biquad_coeffs",
    "golden_iir",
]


# ---------------------------------------------------------------------------
# Bilinear interpolation
# ---------------------------------------------------------------------------


def golden_bilinear(pixels: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of pre-gathered neighbourhoods.

    Parameters
    ----------
    pixels:
        Shape ``(n, 4)`` float32 — the four neighbours of each sample
        point, ordered ``p00, p01, p10, p11`` (row-major quad).
    fracs:
        Shape ``(n, 2)`` float32 — fractional offsets ``(fx, fy)`` in
        ``[0, 1)``.

    Returns the ``n`` interpolated values, computed in the factored
    (two-lerp) order the SIMD kernel uses, so reference and kernel agree
    bit-for-bit in float32::

        out = (p00*(1-fx) + p01*fx) * (1-fy) + (p10*(1-fx) + p11*fx) * fy
    """
    pixels = np.asarray(pixels, dtype=np.float32).reshape(-1, 4)
    fracs = np.asarray(fracs, dtype=np.float32).reshape(-1, 2)
    if pixels.shape[0] != fracs.shape[0]:
        raise ValueError("pixels and fracs must have the same sample count")
    fx = fracs[:, 0]
    fy = fracs[:, 1]
    gx = np.float32(1.0) - fx
    gy = np.float32(1.0) - fy
    top = pixels[:, 0] * gx + pixels[:, 1] * fx
    bot = pixels[:, 2] * gx + pixels[:, 3] * fx
    out = top * gy + bot * fy
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# Bitonic sort
# ---------------------------------------------------------------------------


def golden_bitonic(block: np.ndarray) -> np.ndarray:
    """Ascending sort of one 16-element float32 block."""
    arr = np.asarray(block, dtype=np.float32)
    if arr.shape != (16,):
        raise ValueError(f"bitonic block must have 16 elements, got {arr.shape}")
    return np.sort(arr)


# ---------------------------------------------------------------------------
# Farrow fractional-delay filter
# ---------------------------------------------------------------------------

# Cubic-Lagrange Farrow structure: y(n, mu) = sum_m C_m(n) * mu^m where
# each C_m is a 4-tap FIR over x.  Rows: polynomial order m = 0..3;
# columns: taps over x[n-3..n] (newest last).  This is the classic
# continuously-variable digital delay element of Farrow (1988).
_LAGRANGE_FARROW = np.array([
    #  x[n-3]  x[n-2]  x[n-1]   x[n]
    [0.0,     0.0,    1.0,    0.0],        # C0
    [1.0 / 6, -1.0,   1.0 / 2, 1.0 / 3],   # C1
    [0.0,     1.0 / 2, -1.0,   1.0 / 2],   # C2
    [-1.0 / 6, 1.0 / 2, -1.0 / 2, 1.0 / 6],  # C3
], dtype=np.float64)

#: The four 4-tap Farrow branch filters in Q15 fixed point, as the
#: hand-optimised AMD example stores them (int16 coefficient banks).
FARROW_TAPS_Q15 = np.round(_LAGRANGE_FARROW * (1 << 15)).astype(np.int64)
FARROW_TAPS_Q15 = np.clip(
    FARROW_TAPS_Q15, -(1 << 15), (1 << 15) - 1
).astype(np.int16)


def golden_farrow(x: np.ndarray, mu_q15: int) -> np.ndarray:
    """Fixed-point Farrow fractional-delay filter over complex samples.

    Parameters
    ----------
    x:
        Complex input samples (cint16 range); processed with 3 samples of
        leading zero history so output length equals input length.
    mu_q15:
        Fractional delay in Q15 (0 .. 32767 for mu in [0, 1)).

    Mirrors the integer arithmetic of the SIMD kernel exactly: each
    branch is a 4-tap Q15 convolution with shift-round-saturate to
    int16 after the Horner combination per polynomial order.
    """
    x = np.asarray(x, dtype=np.complex128)
    hist = np.concatenate([np.zeros(3, dtype=np.complex128), x])
    n = x.shape[0]

    re = np.real(hist).astype(np.int64)
    im = np.imag(hist).astype(np.int64)

    def branch(comp: np.ndarray, taps: np.ndarray) -> np.ndarray:
        # windows[i] = comp[i:i+4], newest sample last — matches taps order
        win = np.lib.stride_tricks.sliding_window_view(comp, 4)[:n]
        return win @ taps.astype(np.int64)

    def horner(comp: np.ndarray) -> np.ndarray:
        # Horner in Q15: acc = C3; acc = acc*mu >> 15 + C_{m}; ... ; >> 15
        c = [branch(comp, FARROW_TAPS_Q15[m]) for m in range(4)]
        acc = c[3]
        for m in (2, 1, 0):
            acc = _q15_round(acc * mu_q15) + c[m]
        return _srs15_sat(acc)

    out_re = horner(re)
    out_im = horner(im)
    return out_re.astype(np.float64) + 1j * out_im.astype(np.float64)


def _q15_round(v: np.ndarray) -> np.ndarray:
    """Q15 product renormalisation with round-half-away-from-zero."""
    v = np.asarray(v, dtype=np.int64)
    return (v + ((1 << 14) - (v < 0))) >> 15


def _srs15_sat(v: np.ndarray) -> np.ndarray:
    """Final shift-round-saturate from the branch-sum domain to int16.

    Branch sums carry Q15 sample scale already (taps are Q15, samples
    integer), so the final move shifts by 15 and saturates.
    """
    shifted = _q15_round(np.asarray(v, dtype=np.int64) << 0)
    # branch() results are x*taps_Q15, i.e. Q15-scaled: normalise once.
    return np.clip(shifted, -(1 << 15), (1 << 15) - 1).astype(np.int64)


# ---------------------------------------------------------------------------
# IIR filter
# ---------------------------------------------------------------------------


def iir_biquad_coeffs(n_sections: int = 2, cutoff: float = 0.2
                      ) -> np.ndarray:
    """Design the cascaded-biquad coefficient set used by the IIR app.

    Butterworth low-pass of order ``2 * n_sections`` at normalised
    *cutoff*, returned in scipy SOS form ``(n_sections, 6)`` float32.
    Deterministic — no randomness — so every variant shares one design.
    """
    sos = sp_signal.butter(2 * n_sections, cutoff, output="sos")
    if sos.shape[0] != n_sections:
        raise AssertionError("unexpected section count from design")
    return sos.astype(np.float32)


def golden_iir(x: np.ndarray, sos: np.ndarray,
               zi: np.ndarray | None = None) -> Tuple[np.ndarray, np.ndarray]:
    """Cascaded-biquad IIR reference via scipy ``sosfilt`` in float64.

    Deliberately *independent* of the SIMD kernel's float32 direct-form-I
    restructuring: tests compare the two with a tolerance, which catches
    structural errors while allowing float32 rounding differences.

    Returns ``(y, zf)`` where ``zf`` is the final per-section state with
    scipy's ``(n_sections, 2)`` layout.
    """
    x = np.asarray(x, dtype=np.float64)
    sos64 = np.asarray(sos, dtype=np.float64)
    if zi is None:
        zi = np.zeros((sos64.shape[0], 2), dtype=np.float64)
    y, zf = sp_signal.sosfilt(sos64, x, zi=np.asarray(zi, dtype=np.float64))
    return y, zf
