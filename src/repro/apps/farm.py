"""Lane farms: embarrassingly-parallel app graphs for runfarm scaling.

Each farm replicates one ported AMD example kernel across independent
*lanes* — separate inputs, separate outputs, no cross-lane nets — the
workload shape the ``cgsim-mp`` placement spreads across worker
processes (each lane is its own weakly-connected component, so a
4-lane farm shards cleanly onto 1, 2, or 4 workers).  Used by
``benchmarks/bench_runfarm.py`` (Table 2 companion: multi-process
scaling) and the mp test suite.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core import IoC, IoConnector, float32, make_compute_graph
from .bilinear import bilinear_kernel
from .bitonic import bitonic16_kernel
from .datasets import (BILINEAR_BLOCK, BITONIC_BLOCK, bilinear_blocks,
                       bitonic_blocks)

__all__ = [
    "BITONIC_FARM4",
    "BILINEAR_FARM4",
    "FARM_LANES",
    "bitonic_farm_io",
    "bilinear_farm_io",
    "run_farm",
]

#: Lanes per farm graph (divides evenly onto 1, 2, and 4 workers).
FARM_LANES = 4


@make_compute_graph(name="bitonic_farm4")
def BITONIC_FARM4(lane0: IoC[float32], lane1: IoC[float32],
                  lane2: IoC[float32], lane3: IoC[float32]):
    """Four independent 16-wide bitonic sorters (compute-heavy farm)."""
    outs = []
    for i, lane in enumerate((lane0, lane1, lane2, lane3)):
        lane.set_attrs(block_items=BITONIC_BLOCK)
        o = IoConnector(float32, name=f"sorted{i}")
        bitonic16_kernel(lane, o)
        outs.append(o)
    return tuple(outs)


@make_compute_graph(name="bilinear_farm4")
def BILINEAR_FARM4(pix0: IoC[float32], frac0: IoC[float32],
                   pix1: IoC[float32], frac1: IoC[float32],
                   pix2: IoC[float32], frac2: IoC[float32],
                   pix3: IoC[float32], frac3: IoC[float32]):
    """Four independent bilinear interpolators (I/O-heavy farm: six
    stream elements in per sample out)."""
    outs = []
    lanes = ((pix0, frac0), (pix1, frac1), (pix2, frac2), (pix3, frac3))
    for i, (pix, frac) in enumerate(lanes):
        pix.set_attrs(block_items=BILINEAR_BLOCK * 4)
        frac.set_attrs(block_items=BILINEAR_BLOCK * 2)
        o = IoConnector(float32, name=f"interp{i}")
        bilinear_kernel(pix, frac, o)
        outs.append(o)
    return tuple(outs)


def bitonic_farm_io(n_blocks: int, seed: int = 2025) -> List[np.ndarray]:
    """Per-lane flat input streams for :data:`BITONIC_FARM4`."""
    return [bitonic_blocks(n_blocks, seed=seed + i).reshape(-1)
            for i in range(FARM_LANES)]


def bilinear_farm_io(n_blocks: int, seed: int = 2025) -> List[np.ndarray]:
    """Interleaved per-lane ``pix, frac`` streams for
    :data:`BILINEAR_FARM4` (``2 * FARM_LANES`` arrays)."""
    out: List[np.ndarray] = []
    for i in range(FARM_LANES):
        pix, frac = bilinear_blocks(n_blocks, seed=seed + i)
        out.extend([pix.reshape(-1), frac.reshape(-1)])
    return out


def run_farm(graph, inputs: List[np.ndarray], n_lanes: int = FARM_LANES,
             backend: str = "cgsim", **options) -> List[np.ndarray]:
    """Run a farm graph and return one float32 array per lane."""
    from ..exec import run_graph

    sinks: List[list] = [[] for _ in range(n_lanes)]
    result = run_graph(graph, *inputs, *sinks, backend=backend, **options)
    assert result.completed, result.stall_diagnosis
    return [np.asarray(s, dtype=np.float32) for s in sinks]
