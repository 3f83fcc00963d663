"""Sorting-network primitives built on min/max and the butterfly shuffle.

The AMD bitonic-sorting example implements a 16-wide bitonic sort using
the AIE vector API's ``max``/``min`` and lane shuffles.  This module
provides the canonical compare-exchange stage so both the ported kernel
and property-based tests share one audited implementation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .shuffle import butterfly_partner
from .tracing import emit
from .vector import AieVector

__all__ = ["compare_exchange", "bitonic_stage_dirs", "bitonic_sort_vector"]


@lru_cache(maxsize=256)
def bitonic_stage_dirs(lanes: int, stage: int, substage: int) -> np.ndarray:
    """Direction mask for one bitonic compare-exchange step.

    ``True`` in lane *i* means lane *i* keeps the **minimum** of the
    (i, i ^ distance) pair; ``False`` keeps the maximum.  ``stage`` is the
    outer bitonic stage (block size ``2**(stage+1)``), ``substage``
    counts down the butterfly distances within it.  The mask is built
    once per argument triple and returned read-only.
    """
    i = np.arange(lanes)
    distance = 1 << (stage - substage)
    ascending = ((i >> (stage + 1)) & 1) == 0
    keep_min = ((i & distance) == 0) == ascending
    keep_min.setflags(write=False)
    return keep_min


def compare_exchange(v: AieVector, distance: int,
                     keep_min_mask: np.ndarray) -> AieVector:
    """One compare-exchange step across lane pairs at XOR *distance*.

    Lane i is paired with lane ``i ^ distance``; where the mask is True
    the lane keeps min(pair), else max(pair).  Maps to a shuffle + vmin +
    vmax + select on hardware.
    """
    partner = butterfly_partner(v, distance)
    lo = v.min(partner)
    hi = v.max(partner)
    emit("vsel", v.data.shape[0], v.data.itemsize)
    out = np.where(np.asarray(keep_min_mask, dtype=bool), lo.data, hi.data)
    return AieVector(out, _trusted=True)


def bitonic_sort_vector(v: AieVector, descending: bool = False) -> AieVector:
    """Full bitonic sorting network over one vector register.

    For 16 lanes this is the 10-step network of the AMD example
    (stages 1+2+3+4 compare-exchange steps).
    """
    lanes = v.lanes
    if lanes & (lanes - 1):
        raise ValueError("bitonic sort needs a power-of-two lane count")
    n_stages = lanes.bit_length() - 1
    for stage in range(n_stages):
        for substage in range(stage + 1):
            distance = 1 << (stage - substage)
            mask = bitonic_stage_dirs(lanes, stage, substage)
            v = compare_exchange(v, distance, mask)
    if descending:
        from .shuffle import reverse

        v = reverse(v)
    return v
