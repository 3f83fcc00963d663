"""implementing-iir-filter (part 2b): SIMD cascaded-biquad IIR port.

The AMD example restructures a cascaded biquad to maximise SIMD
throughput.  This port follows the same split the hardware kernel uses:

* the **feed-forward FIR part** of each section is computed with
  vectorised sliding-window MACs over the whole input buffer, and
* the **recursive part** runs as a tightly pipelined recurrence, carried
  here by a single-precision ``lfilter`` call (functionally exact;
  its work is reported to the cycle model as the per-sample MAC chain
  the hand-scheduled loop performs).

Window (ping-pong buffer) I/O: one 2048-sample float32 buffer in, one
out (8192 bytes per block, Table 1).  Filter state persists across
blocks inside the long-lived kernel coroutine, so streaming a signal in
N blocks equals filtering it in one piece.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from .. import aieintr as aie
from ..core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    Window,
    compute_kernel,
    extract_compute_graph,
    float32,
    make_compute_graph,
)
from ..aieintr.tracing import emit
from .datasets import IIR_BLOCK
from .golden import golden_iir, iir_biquad_coeffs

__all__ = [
    "iir_sos_kernel", "IIR_GRAPH", "iir_sos_kernel_batched",
    "IIR_GRAPH_BATCHED", "IIR_IO_BATCH", "IIR_SOS", "run_cgsim", "reference",
]

#: Shared coefficient design: 2 biquad sections, Butterworth LP at 0.2.
IIR_SOS = iir_biquad_coeffs(n_sections=2, cutoff=0.2)

IIR_WIN = Window(float32, IIR_BLOCK)


def _recursive_part(f: np.ndarray, a1: float, a2: float,
                    zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y[n] = f[n] - a1*y[n-1] - a2*y[n-2], float32, with carried state.

    The hand-scheduled AIE loop performs two MACs per sample here; the
    emulation reports exactly that to the trace and delegates the math
    to scipy's single-precision filter core.
    """
    emit("vfpmac", 2 * f.shape[0], 4)
    b = np.array([1.0], dtype=np.float32)
    a = np.array([1.0, a1, a2], dtype=np.float32)
    y, zf = sp_signal.lfilter(b, a, f.astype(np.float32), zi=zi)
    return y.astype(np.float32), zf.astype(np.float32)


@compute_kernel(realm=AIE)
async def iir_sos_kernel(x_in: In[IIR_WIN], y_out: Out[IIR_WIN]):
    """Cascaded-biquad IIR over 2048-sample buffers (state carried)."""
    n_sections = IIR_SOS.shape[0]
    fir_hist = np.zeros((n_sections, 3), dtype=np.float32)
    rec_state = np.zeros((n_sections, 2), dtype=np.float32)
    # Per-section 4-lane coefficient registers [0, b2, b1, b0]: lane
    # padding keeps the sliding window at a hardware-friendly width.
    coeff_regs = [
        aie.vec(np.array([0.0, IIR_SOS[s, 2], IIR_SOS[s, 1], IIR_SOS[s, 0]],
                         dtype=np.float32))
        for s in range(n_sections)
    ]
    while True:
        blk = await x_in.get()
        y = np.asarray(blk, dtype=np.float32)
        for s in range(n_sections):
            xh = np.concatenate([fir_hist[s], y])
            fir_hist[s] = y[-3:]
            # Feed-forward: f[n] = b0 x[n] + b1 x[n-1] + b2 x[n-2]
            f = aie.sliding_mul(coeff_regs[s], xh,
                                out_lanes=y.shape[0]).to_array()
            y, rec_state[s] = _recursive_part(
                f, float(IIR_SOS[s, 4]), float(IIR_SOS[s, 5]), rec_state[s]
            )
        await y_out.put(y)


#: Window blocks moved per bulk port operation in the batched variant.
IIR_IO_BATCH = 16


@compute_kernel(realm=AIE)
async def iir_sos_kernel_batched(x_in: In[IIR_WIN], y_out: Out[IIR_WIN]):
    """Batched-I/O twin of :func:`iir_sos_kernel`.

    Pulls up to :data:`IIR_IO_BATCH` window blocks per ``get_batch``
    (``exact=False`` so a short tail still drains) and filters them as
    one contiguous signal: per section, one sliding-window FIR and one
    recurrence over the whole run, then one ``put_batch`` of the
    filtered blocks.  Filter state is carried across runs exactly as
    the per-element kernel carries it across blocks, and both the FIR
    (row by row over an overlapping window view) and the float32
    recurrence give the same values however the signal is split, so
    the outputs are bit-identical.
    """
    n_sections = IIR_SOS.shape[0]
    fir_hist = np.zeros((n_sections, 3), dtype=np.float32)
    rec_state = np.zeros((n_sections, 2), dtype=np.float32)
    coeff_regs = [
        aie.vec(np.array([0.0, IIR_SOS[s, 2], IIR_SOS[s, 1], IIR_SOS[s, 0]],
                         dtype=np.float32))
        for s in range(n_sections)
    ]
    while True:
        blks = await x_in.get_batch(IIR_IO_BATCH, exact=False)
        y = np.asarray(blks, dtype=np.float32).reshape(-1)
        for s in range(n_sections):
            xh = np.concatenate([fir_hist[s], y])
            fir_hist[s] = y[-3:]
            f = aie.sliding_mul(coeff_regs[s], xh,
                                out_lanes=y.shape[0]).to_array()
            y, rec_state[s] = _recursive_part(
                f, float(IIR_SOS[s, 4]), float(IIR_SOS[s, 5]), rec_state[s]
            )
        await y_out.put_batch(y.reshape(-1, IIR_BLOCK))


@make_compute_graph(name="iir_batched")
def IIR_GRAPH_BATCHED(signal: IoC[IIR_WIN]):
    """Opt-in batched-port-I/O twin of :data:`IIR_GRAPH`."""
    filtered = IoConnector(IIR_WIN, name="filtered")
    iir_sos_kernel_batched(signal, filtered)
    return filtered


@extract_compute_graph
@make_compute_graph(name="iir")
def IIR_GRAPH(signal: IoC[IIR_WIN]):
    """Single-kernel IIR graph with buffer (window) I/O."""
    filtered = IoConnector(IIR_WIN, name="filtered")
    filtered.set_attrs(plio_name="iir_out", plio_width=64,
                       buffer_mode="ping_pong")
    iir_sos_kernel(signal, filtered)
    return filtered


def run_cgsim(blocks: np.ndarray, **run_options) -> np.ndarray:
    """Filter ``(n, 2048)`` float32 blocks; returns the same shape."""
    blocks = np.asarray(blocks, dtype=np.float32).reshape(-1, IIR_BLOCK)
    out: list = []
    IIR_GRAPH(blocks, out, **run_options)
    return np.stack([np.asarray(b, dtype=np.float32) for b in out])


def reference(blocks: np.ndarray) -> np.ndarray:
    """Golden (scipy float64) output for the same blocks."""
    blocks = np.asarray(blocks, dtype=np.float64).reshape(-1, IIR_BLOCK)
    y, _zf = golden_iir(blocks.reshape(-1), IIR_SOS)
    return y.reshape(blocks.shape)


# The batched twin is bit-identical to the per-block kernel (same math,
# bulk port I/O), so it doubles as the fused equivalent under
# optimize="fuse"/"full".
from ..exec.optimize import register_fused_equivalent  # noqa: E402

register_fused_equivalent(
    (iir_sos_kernel.registry_key,), iir_sos_kernel_batched,
)
