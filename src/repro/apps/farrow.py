"""farrow_filter: fractional-delay Farrow filter (AMD example port).

Two kernels with ping-pong buffer I/O and hand-optimised fixed-point
SIMD convolution, exactly the structure the paper highlights (§5):

* ``farrow_stage1`` computes the two highest-order Farrow branch
  filters (C3, C2: 4-tap Q15 convolutions over the complex input) and
  the first Horner step ``acc = rnd(C3*mu >> 15) + C2``; it forwards
  the input buffer downstream for the remaining branches.
* ``farrow_stage2`` computes branches C1 and C0, finishes the Horner
  recursion, and shift-round-saturates back to cint16.

The fractional delay ``mu`` (Q15) enters both kernels as a runtime
parameter (RTP) port.  Both kernels carry 3 samples of convolution
history across blocks, so block-streamed output equals whole-signal
filtering.

One block = 1024 cint16 = 4096 bytes (Table 1).
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
    PortSettings,
    Window,
    cint16,
    compute_kernel,
    extract_compute_graph,
    int32,
    make_compute_graph,
)
from .datasets import FARROW_BLOCK
from .golden import FARROW_TAPS_Q15, _q15_round, golden_farrow

__all__ = [
    "farrow_stage1", "farrow_stage2", "farrow_fused", "FARROW_GRAPH",
    "run_cgsim", "reference",
]

X_WIN = Window(cint16, FARROW_BLOCK)
ACC_WIN = Window(int32, 2 * FARROW_BLOCK)  # re block then im block

#: RTP port settings for the fractional delay input.
_RTP = PortSettings(runtime_parameter=True)

# 4-lane Q15 coefficient registers, one per Farrow branch (taps ordered
# oldest sample first, matching the sliding window layout).
_TAP_REGS = [FARROW_TAPS_Q15[m] for m in range(4)]


def _branch(comp: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """One 4-tap Q15 branch convolution over an int64 component array
    (history-extended: len(comp) == n + 3)."""
    reg = aie.vec(np.asarray(taps, dtype=np.int16))
    n = comp.shape[0] - 3
    return aie.sliding_mul(reg, comp, out_lanes=n).to_array()


@compute_kernel(realm=AIE)
async def farrow_stage1(
    x_in: In[X_WIN],
    mu: In[int32, _RTP],
    acc_out: Out[ACC_WIN],
    x_fwd: Out[X_WIN],
):
    """Branches C3/C2 plus the first Horner step."""
    hist = np.zeros(3, dtype=np.complex128)
    mu_q15 = int(await mu.get())
    while True:
        blk = np.asarray(await x_in.get(), dtype=np.complex128)
        xh = np.concatenate([hist, blk])
        hist = blk[-3:].copy()
        re = np.real(xh).astype(np.int64)
        im = np.imag(xh).astype(np.int64)
        parts = []
        for comp in (re, im):
            c3 = _branch(comp, _TAP_REGS[3])
            c2 = _branch(comp, _TAP_REGS[2])
            acc = aie.va_add(
                aie.va_round_shift(aie.va_mul(c3, mu_q15), 15), c2
            )
            parts.append(acc)
        out = np.concatenate(parts).astype(np.int32)
        await acc_out.put(out)
        await x_fwd.put(blk)


@compute_kernel(realm=AIE)
async def farrow_stage2(
    acc_in: In[ACC_WIN],
    x_in: In[X_WIN],
    mu: In[int32, _RTP],
    y_out: Out[X_WIN],
):
    """Branches C1/C0, final Horner steps, srs back to cint16."""
    hist = np.zeros(3, dtype=np.complex128)
    mu_q15 = int(await mu.get())
    while True:
        acc_blk = np.asarray(await acc_in.get(), dtype=np.int64)
        blk = np.asarray(await x_in.get(), dtype=np.complex128)
        xh = np.concatenate([hist, blk])
        hist = blk[-3:].copy()
        n = blk.shape[0]
        re = np.real(xh).astype(np.int64)
        im = np.imag(xh).astype(np.int64)
        outs = []
        for comp, acc in ((re, acc_blk[:n]), (im, acc_blk[n:])):
            c1 = _branch(comp, _TAP_REGS[1])
            c0 = _branch(comp, _TAP_REGS[0])
            acc = aie.va_add(
                aie.va_round_shift(aie.va_mul(acc, mu_q15), 15), c1
            )
            acc = aie.va_add(
                aie.va_round_shift(aie.va_mul(acc, mu_q15), 15), c0
            )
            outs.append(aie.va_srs(acc, 15, np.int16).astype(np.float64))
        await y_out.put(outs[0] + 1j * outs[1])


#: Window blocks pulled per bulk read in the fused equivalent.
_FUSED_IO_BATCH = 8

_TAPS64 = FARROW_TAPS_Q15.astype(np.int64)  # rows m = 0..3, taps oldest-first


@compute_kernel(realm=AIE)
async def farrow_fused(
    x_in: In[X_WIN],
    mu: In[int32, _RTP],
    y_out: Out[X_WIN],
):
    """Fused equivalent of ``farrow_stage1 -> farrow_stage2``.

    One kernel computes all four Farrow branches and the whole Horner
    recursion over several input blocks at a time (one sliding-window
    matmul per component instead of eight per-block branch calls), with
    the same 3-sample history carry.  The pipeline's intermediate
    ``astype(int32)`` at the stage-1/stage-2 boundary is replicated so
    the output is bit-identical to the two-kernel chain.
    """
    hist = np.zeros(3, dtype=np.complex128)
    mu_q15 = int(await mu.get())
    while True:
        blks = await x_in.get_batch(_FUSED_IO_BATCH, exact=False)
        samples = np.asarray(blks, dtype=np.complex128).reshape(-1)
        xh = np.concatenate([hist, samples])
        hist = samples[-3:].copy()
        n = samples.shape[0]
        outs = []
        for comp in (np.real(xh).astype(np.int64),
                     np.imag(xh).astype(np.int64)):
            win = np.lib.stride_tricks.sliding_window_view(comp, 4)[:n]
            c = win @ _TAPS64.T          # (n, 4): column m = branch C_m
            acc = _q15_round(c[:, 3] * mu_q15) + c[:, 2]
            acc = acc.astype(np.int32).astype(np.int64)  # stage boundary
            acc = _q15_round(acc * mu_q15) + c[:, 1]
            acc = _q15_round(acc * mu_q15) + c[:, 0]
            acc = np.clip(_q15_round(acc), -(1 << 15), (1 << 15) - 1)
            outs.append(acc.astype(np.int16).astype(np.float64))
        y = outs[0] + 1j * outs[1]
        await y_out.put_batch(y.reshape(-1, FARROW_BLOCK))


@extract_compute_graph
@make_compute_graph(name="farrow")
def FARROW_GRAPH(x: IoC[X_WIN], mu: IoC[int32]):
    """Two-kernel Farrow pipeline with an RTP delay parameter."""
    acc = IoConnector(ACC_WIN, name="acc")
    acc.set_attrs(buffer_mode="ping_pong")
    xf = IoConnector(X_WIN, name="x_fwd")
    xf.set_attrs(buffer_mode="ping_pong")
    y = IoConnector(X_WIN, name="y")
    y.set_attrs(plio_name="farrow_out", plio_width=64)
    farrow_stage1(x, mu, acc, xf)
    farrow_stage2(acc, xf, mu, y)
    return y


def run_cgsim(blocks: np.ndarray, mu_q15: int, **run_options) -> np.ndarray:
    """Filter ``(n, 1024)`` complex blocks with delay *mu_q15* (Q15)."""
    blocks = np.asarray(blocks, dtype=np.complex128).reshape(-1, FARROW_BLOCK)
    out: list = []
    FARROW_GRAPH(blocks, int(mu_q15), out, **run_options)
    return np.stack([np.asarray(b) for b in out])


def reference(blocks: np.ndarray, mu_q15: int) -> np.ndarray:
    """Golden output for the same blocks (whole-signal filtering)."""
    blocks = np.asarray(blocks, dtype=np.complex128).reshape(-1, FARROW_BLOCK)
    y = golden_farrow(blocks.reshape(-1), int(mu_q15))
    return y.reshape(blocks.shape)


# Let the plan optimizer collapse the two-stage pipeline into the fused
# kernel when a graph runs with optimize="fuse"/"full".
from ..exec.optimize import register_fused_equivalent  # noqa: E402

register_fused_equivalent(
    (farrow_stage1.registry_key, farrow_stage2.registry_key), farrow_fused,
)
