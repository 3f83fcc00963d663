"""Bilinear_Interpolation: image-sample interpolation (AMD example port).

The kernel consumes two streams — pre-gathered pixel neighbourhoods
(``p00 p01 p10 p11`` per sample) and fractional offsets (``fx fy`` per
sample) — and produces one interpolated value per sample, processing 8
samples per iteration with 8-lane float vector arithmetic (the AMD
example's vectorisation).

One block = 256 output samples (2048 nominal bytes, Table 1).
"""

from __future__ import annotations

import numpy as np

from .. import aieintr as aie
from ..core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    compute_kernel,
    extract_compute_graph,
    float32,
    make_compute_graph,
)
from .datasets import BILINEAR_BLOCK
from .golden import golden_bilinear

__all__ = [
    "bilinear_kernel", "bilinear_fused", "BILINEAR_GRAPH",
    "run_cgsim", "reference",
]

LANES = 8  # samples per vector iteration


@compute_kernel(realm=AIE)
async def bilinear_kernel(pix: In[float32], frac: In[float32],
                          out: Out[float32]):
    """Interpolate 8 samples per iteration using 8-lane float vectors.

    Per sample the pixel stream carries ``p00 p01 p10 p11`` and the
    fraction stream carries ``fx fy``.  Uses the factored two-lerp form:
    ``(p00*gx + p01*fx)*gy + (p10*gx + p11*fx)*fy``.
    """
    while True:
        p00 = aie.zeros(LANES, np.float32)
        p01 = aie.zeros(LANES, np.float32)
        p10 = aie.zeros(LANES, np.float32)
        p11 = aie.zeros(LANES, np.float32)
        fx = aie.zeros(LANES, np.float32)
        fy = aie.zeros(LANES, np.float32)
        for _ in range(LANES):
            p00 = p00.push(await pix.get())
            p01 = p01.push(await pix.get())
            p10 = p10.push(await pix.get())
            p11 = p11.push(await pix.get())
        for _ in range(LANES):
            fx = fx.push(await frac.get())
            fy = fy.push(await frac.get())
        one = aie.broadcast(np.float32(1.0), LANES, np.float32)
        gx = one - fx
        gy = one - fy
        top = p00 * gx + p01 * fx
        bot = p10 * gx + p11 * fx
        res = top * gy + bot * fy
        # Lanes were filled newest-first by push(); emit in sample order.
        for i in range(LANES):
            await out.put(res[LANES - 1 - i])


#: 8-sample groups pulled per bulk read in the fused equivalent.
_FUSED_IO_GROUPS = 32


@compute_kernel(realm=AIE)
async def bilinear_fused(pix: In[float32], frac: In[float32],
                         out: Out[float32]):
    """Fused equivalent of :func:`bilinear_kernel`.

    Interpolates many 8-sample groups per resume using the golden
    factored two-lerp expression (bit-for-bit the lane math of the
    vector kernel, see :func:`~repro.apps.golden.golden_bilinear`); the
    per-lane push/reverse shuffling nets out to plain sample order, so
    only whole groups are processed and leftovers stay buffered exactly
    like a partially filled vector register.  Runs stay numpy arrays
    from the reads to the write.
    """
    pix_carry = np.empty(0, dtype=np.float32)
    frac_carry = np.empty(0, dtype=np.float32)
    while True:
        p = np.asarray(
            await pix.get_batch(_FUSED_IO_GROUPS * LANES * 4, exact=False),
            dtype=np.float32,
        )
        f = np.asarray(
            await frac.get_batch(_FUSED_IO_GROUPS * LANES * 2, exact=False),
            dtype=np.float32,
        )
        if len(pix_carry):
            p = np.concatenate((pix_carry, p))
        if len(frac_carry):
            f = np.concatenate((frac_carry, f))
        n_groups = min(len(p) // (LANES * 4), len(f) // (LANES * 2))
        n = n_groups * LANES
        pix_carry, frac_carry = p[n * 4:], f[n * 2:]
        if not n_groups:
            continue
        await out.put_batch(golden_bilinear(p[:n * 4], f[:n * 2]))


@extract_compute_graph
@make_compute_graph(name="bilinear")
def BILINEAR_GRAPH(pixels: IoC[float32], fractions: IoC[float32]):
    """Two input streams (neighbourhoods, fractions), one output stream."""
    pixels.set_attrs(plio_name="pixels_in", plio_width=64,
                     block_items=BILINEAR_BLOCK * 4)
    fractions.set_attrs(plio_name="fracs_in", plio_width=64,
                        block_items=BILINEAR_BLOCK * 2)
    interp = IoConnector(float32, name="interp")
    interp.set_attrs(plio_name="interp_out", plio_width=32)
    bilinear_kernel(pixels, fractions, interp)
    return interp


def run_cgsim(pixels: np.ndarray, fracs: np.ndarray,
              **run_options) -> np.ndarray:
    """Run pixel/fraction blocks through the graph.

    ``pixels``: ``(n, 256*4)``; ``fracs``: ``(n, 256*2)``; returns
    ``(n, 256)`` interpolated samples.
    """
    pixels = np.asarray(pixels, dtype=np.float32)
    fracs = np.asarray(fracs, dtype=np.float32)
    n = pixels.reshape(-1, BILINEAR_BLOCK * 4).shape[0]
    out: list = []
    BILINEAR_GRAPH(pixels.reshape(-1), fracs.reshape(-1), out, **run_options)
    return np.asarray(out, dtype=np.float32).reshape(n, BILINEAR_BLOCK)


def reference(pixels: np.ndarray, fracs: np.ndarray) -> np.ndarray:
    """Golden output with matching shapes."""
    pixels = np.asarray(pixels, dtype=np.float32).reshape(-1, 4)
    fracs = np.asarray(fracs, dtype=np.float32).reshape(-1, 2)
    out = golden_bilinear(pixels, fracs)
    return out.reshape(-1, BILINEAR_BLOCK)


from ..exec.optimize import register_fused_equivalent  # noqa: E402

register_fused_equivalent((bilinear_kernel.registry_key,), bilinear_fused)
