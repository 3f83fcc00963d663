"""The Farrow and IIR 4-lane farms of the ``perfbench`` ``farm`` workload,
shared by the mp tests (``repro.apps.farm`` has only bitonic and
bilinear farms).
"""

from typing import List

import numpy as np

from repro.apps import farrow, iir
from repro.apps.datasets import farrow_blocks, iir_blocks
from repro.apps.farm import FARM_LANES
from repro.core import IoC, IoConnector, int32, make_compute_graph


@make_compute_graph(name="farrow_farm4")
def FARROW_FARM4(x0: IoC[farrow.X_WIN], mu0: IoC[int32],
                 x1: IoC[farrow.X_WIN], mu1: IoC[int32],
                 x2: IoC[farrow.X_WIN], mu2: IoC[int32],
                 x3: IoC[farrow.X_WIN], mu3: IoC[int32]):
    """Four independent two-stage Farrow pipelines."""
    outs = []
    for i, (x, mu) in enumerate(((x0, mu0), (x1, mu1), (x2, mu2),
                                 (x3, mu3))):
        acc = IoConnector(farrow.ACC_WIN, name=f"acc{i}")
        xf = IoConnector(farrow.X_WIN, name=f"x_fwd{i}")
        y = IoConnector(farrow.X_WIN, name=f"y{i}")
        farrow.farrow_stage1(x, mu, acc, xf)
        farrow.farrow_stage2(acc, xf, mu, y)
        outs.append(y)
    return tuple(outs)


@make_compute_graph(name="iir_farm4")
def IIR_FARM4(s0: IoC[iir.IIR_WIN], s1: IoC[iir.IIR_WIN],
              s2: IoC[iir.IIR_WIN], s3: IoC[iir.IIR_WIN]):
    """Four independent cascaded-biquad IIR filters."""
    outs = []
    for i, sig in enumerate((s0, s1, s2, s3)):
        y = IoConnector(iir.IIR_WIN, name=f"filtered{i}")
        iir.iir_sos_kernel(sig, y)
        outs.append(y)
    return tuple(outs)


def farrow_farm_io(n_blocks: int, seed: int = 2025) -> List[object]:
    """Interleaved per-lane ``x, mu`` inputs for :data:`FARROW_FARM4`."""
    out: List[object] = []
    for i in range(FARM_LANES):
        out.extend(farrow_blocks(n_blocks, seed=seed + i))
    return out


def iir_farm_io(n_blocks: int, seed: int = 2025) -> List[np.ndarray]:
    """Per-lane signal blocks for :data:`IIR_FARM4`."""
    return [iir_blocks(n_blocks, seed=seed + i) for i in range(FARM_LANES)]
