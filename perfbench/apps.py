"""The four paper apps as benchmark inputs: graphs, seeded inputs, checks.

Every workload draws its inputs from :mod:`repro.apps.datasets` with the
workload seed; the program only ever sees the generated arrays.  The
expected output of an operation is the app's ``reference()`` (bit for
bit for bitonic, farrow and bilinear; IIR within the tolerance the app
tests use, since its reference is a float64 scipy filter).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.apps import bilinear, bitonic, datasets, farrow, iir
from repro.apps.farm import (
    BILINEAR_FARM4, BITONIC_FARM4, FARM_LANES, bilinear_farm_io,
    bitonic_farm_io,
)
from repro.core import IoC, IoConnector, int32, make_compute_graph

APPS = ("bitonic", "farrow", "iir", "bilinear")

GRAPHS = {
    "bitonic": bitonic.BITONIC_GRAPH,
    "farrow": farrow.FARROW_GRAPH,
    "iir": iir.IIR_GRAPH,
    "bilinear": bilinear.BILINEAR_GRAPH,
}

#: Tolerance of ``tests/apps`` for the restructured IIR filter.
IIR_RTOL = IIR_ATOL = 1e-4


def inputs(app: str, n_blocks: int, seed: int) -> Tuple[Any, ...]:
    """Positional source values of one run of *app* over *n_blocks*."""
    if app == "bitonic":
        return (datasets.bitonic_blocks(n_blocks, seed=seed).reshape(-1),)
    if app == "farrow":
        blocks, mu = datasets.farrow_blocks(n_blocks, seed=seed)
        return (blocks, int(mu))
    if app == "iir":
        return (datasets.iir_blocks(n_blocks, seed=seed),)
    pixels, fracs = datasets.bilinear_blocks(n_blocks, seed=seed)
    return (pixels.reshape(-1), fracs.reshape(-1))


def reference(app: str, ins: Sequence[Any]) -> np.ndarray:
    """Golden output of one run, flattened to the sink's element order."""
    if app == "bitonic":
        return bitonic.reference(ins[0]).reshape(-1)
    if app == "farrow":
        return farrow.reference(ins[0], ins[1]).reshape(-1)
    if app == "iir":
        return iir.reference(ins[0]).reshape(-1)
    return bilinear.reference(ins[0], ins[1]).reshape(-1)


def flat(app: str, sink: List[Any]) -> np.ndarray:
    """One sink container as a flat array (window sinks hold blocks)."""
    if not sink:
        return np.zeros(0)
    if app == "farrow":
        return np.concatenate([np.asarray(b).reshape(-1) for b in sink])
    if app == "iir":
        return np.concatenate(
            [np.asarray(b, dtype=np.float32).reshape(-1) for b in sink])
    return np.asarray(sink, dtype=np.float32).reshape(-1)


def matches(app: str, got: np.ndarray, want: np.ndarray) -> bool:
    """The output check against ``reference()``."""
    if got.shape != want.shape:
        return False
    if app == "iir":
        return bool(np.allclose(got, want, rtol=IIR_RTOL, atol=IIR_ATOL))
    return bool(np.array_equal(got, want))


def identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit identity across backends, optimize levels and shardings."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def first_kernel(app: str) -> str:
    """Instance name of the app's first kernel (the serve fault target)."""
    from repro.exec import resolve_graph

    return resolve_graph(GRAPHS[app]).kernels[0].instance_name


# ---------------------------------------------------------------------------
# 4-lane farms (independent lanes, the cgsim-mp sharding shape)
# ---------------------------------------------------------------------------


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


FARMS = {
    "bitonic": BITONIC_FARM4,
    "farrow": FARROW_FARM4,
    "iir": IIR_FARM4,
    "bilinear": BILINEAR_FARM4,
}


def farm_inputs(app: str, blocks_per_lane: int, seed: int
                ) -> List[Tuple[Any, ...]]:
    """Per-lane source tuples (lane *i* uses seed ``seed + i``)."""
    if app == "bitonic":
        return [(a,) for a in bitonic_farm_io(blocks_per_lane, seed=seed)]
    if app == "bilinear":
        io = bilinear_farm_io(blocks_per_lane, seed=seed)
        return [tuple(io[2 * i:2 * i + 2]) for i in range(FARM_LANES)]
    return [inputs(app, blocks_per_lane, seed + i) for i in range(FARM_LANES)]


def lane_refs(app: str, lanes: List[Tuple[Any, ...]]) -> List[np.ndarray]:
    return [reference(app, ins) for ins in lanes]


def expected_by_app(apps_sizes: Dict[str, int], seed: int
                    ) -> Dict[str, Tuple[Tuple[Any, ...], np.ndarray]]:
    """``app -> (inputs, reference)`` for single-graph runs."""
    out = {}
    for app, n in apps_sizes.items():
        ins = inputs(app, n, seed)
        out[app] = (ins, reference(app, ins))
    return out
