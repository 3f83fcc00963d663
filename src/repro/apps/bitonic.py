"""bitonic-sorting: 16-wide bitonic sort on float32 (AMD example port).

A single-kernel graph implementing the 16-element bitonic sorting
network with AIE vector intrinsics and API — the paper selects it as an
API-compatibility stress test (§5).  The kernel assembles 16 stream
elements into one vector register, runs the 10-step compare-exchange
network, and streams the sorted lanes out.

One block = 16 float32 = 64 bytes (Table 1).
"""

from __future__ import annotations

from typing import Optional

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
from .datasets import BITONIC_BLOCK
from .golden import golden_bitonic

__all__ = [
    "bitonic16_kernel", "BITONIC_GRAPH", "bitonic16_kernel_batched",
    "BITONIC_GRAPH_BATCHED", "bitonic16_fused", "run_cgsim", "reference",
]


@compute_kernel(realm=AIE)
async def bitonic16_kernel(inp: In[float32], out: Out[float32]):
    """Sort each run of 16 stream values ascending (bitonic network)."""
    while True:
        v = aie.zeros(16, np.float32)
        for _ in range(16):
            x = await inp.get()
            v = v.push(x)
        v = aie.bitonic_sort_vector(v)
        for i in range(16):
            await out.put(v[i])


@extract_compute_graph
@make_compute_graph(name="bitonic")
def BITONIC_GRAPH(samples: IoC[float32]):
    """The single-kernel bitonic graph: stream in, sorted stream out."""
    samples.set_attrs(plio_name="samples_in", plio_width=32,
                      block_items=BITONIC_BLOCK)
    sorted_out = IoConnector(float32, name="sorted")
    sorted_out.set_attrs(plio_name="sorted_out", plio_width=32)
    bitonic16_kernel(samples, sorted_out)
    return sorted_out


@compute_kernel(realm=AIE)
async def bitonic16_kernel_batched(inp: In[float32], out: Out[float32]):
    """Batched-I/O variant: one bulk read and one bulk write per block.

    Identical math to :func:`bitonic16_kernel`; stream elements cross
    the port layer in 16-element runs (``get_batch``/``put_batch``), so
    the whole block moves with at most one suspension per queue
    transition instead of one awaitable per element.
    """
    while True:
        xs = await inp.get_batch(BITONIC_BLOCK)
        v = aie.vec(np.asarray(xs, dtype=np.float32))
        v = aie.bitonic_sort_vector(v)
        await out.put_batch(list(v.to_array()))


@make_compute_graph(name="bitonic_batched")
def BITONIC_GRAPH_BATCHED(samples: IoC[float32]):
    """Opt-in batched-port-I/O twin of :data:`BITONIC_GRAPH`."""
    samples.set_attrs(block_items=BITONIC_BLOCK)
    sorted_out = IoConnector(float32, name="sorted")
    bitonic16_kernel_batched(samples, sorted_out)
    return sorted_out


#: Blocks pulled per bulk read in the fused equivalent.
_FUSED_IO_BLOCKS = 64


@compute_kernel(realm=AIE)
async def bitonic16_fused(inp: In[float32], out: Out[float32]):
    """Fused equivalent of :func:`bitonic16_kernel`.

    Sorts many 16-element blocks per resume with one row-wise
    ``np.sort`` instead of per-element vector pushes through the
    compare-exchange network.  For finite float32 values an ascending
    sort is value-identical to the bitonic network (the network is a
    sorting network); a trailing partial block stays buffered exactly
    like the per-element kernel's partially assembled vector.  Runs
    stay numpy arrays from the read to the write.
    """
    carry = np.empty(0, dtype=np.float32)
    while True:
        run = np.asarray(
            await inp.get_batch(_FUSED_IO_BLOCKS * BITONIC_BLOCK,
                                exact=False),
            dtype=np.float32,
        )
        if len(carry):
            run = np.concatenate((carry, run))
        n_blocks = len(run) // BITONIC_BLOCK
        take = n_blocks * BITONIC_BLOCK
        carry = run[take:]
        if not n_blocks:
            continue
        blk = run[:take].reshape(n_blocks, BITONIC_BLOCK)
        await out.put_batch(np.sort(blk, axis=1).reshape(-1))


def run_cgsim(blocks: np.ndarray, **run_options) -> np.ndarray:
    """Run *blocks* ``(n, 16)`` through the cgsim graph; returns the
    sorted blocks with the same shape."""
    blocks = np.asarray(blocks, dtype=np.float32)
    if blocks.ndim == 1:
        blocks = blocks.reshape(1, -1)
    if blocks.shape[1] != BITONIC_BLOCK:
        raise ValueError(f"blocks must be (n, {BITONIC_BLOCK})")
    out: list = []
    BITONIC_GRAPH(blocks.reshape(-1), out, **run_options)
    return np.asarray(out, dtype=np.float32).reshape(blocks.shape)


def reference(blocks: np.ndarray) -> np.ndarray:
    """Golden output for ``(n, 16)`` input blocks."""
    blocks = np.asarray(blocks, dtype=np.float32).reshape(-1, BITONIC_BLOCK)
    return np.stack([golden_bitonic(b) for b in blocks])


from ..exec.optimize import register_fused_equivalent  # noqa: E402

register_fused_equivalent((bitonic16_kernel.registry_key,), bitonic16_fused)
