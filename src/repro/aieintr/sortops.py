"""Sorting-network primitives built on min/max and the butterfly shuffle.

The AMD bitonic-sorting example implements a 16-wide bitonic sort using
the AIE vector API's ``max``/``min`` and lane shuffles.  This module
provides the canonical compare-exchange stage so both the ported kernel
and property-based tests share one audited implementation.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import tracing as _trace
from .shuffle import _butterfly_index, reverse
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


def _exchange(data: np.ndarray, idx: np.ndarray,
              keep_min: np.ndarray) -> np.ndarray:
    """One compare-exchange step on raw lanes: shuffle by *idx*, then
    min where *keep_min*, else max.  Emits vshuffle, vmin, vmax, vsel
    (only while a recorder is active, as the per-step vector ops do)."""
    if _trace._active:
        lanes, ebytes = data.shape[0], data.itemsize
        emit("vshuffle", lanes, ebytes)
        emit("vmin", lanes, ebytes)
        emit("vmax", lanes, ebytes)
        emit("vsel", lanes, ebytes)
    partner = data[idx]
    out = np.maximum(data, partner)
    np.minimum(data, partner, out=out, where=keep_min)
    return out


def compare_exchange(v: AieVector, distance: int,
                     keep_min_mask: np.ndarray) -> AieVector:
    """One compare-exchange step across lane pairs at XOR *distance*.

    Lane i is paired with lane ``i ^ distance``; where the mask is True
    the lane keeps min(pair), else max(pair).  Maps to a shuffle + vmin +
    vmax + select on hardware, and emits those four micro-ops in that
    order.
    """
    data = v.data
    idx = _butterfly_index(data.shape[0], distance)
    return AieVector(
        _exchange(data, idx, np.asarray(keep_min_mask, dtype=bool)),
        _trusted=True)


@lru_cache(maxsize=None)
def _bitonic_steps(lanes: int) -> tuple:
    """``(butterfly index, keep-min mask)`` of every step of the
    *lanes*-wide network, in order, built once per lane count."""
    return tuple(
        (_butterfly_index(lanes, 1 << (stage - substage)),
         bitonic_stage_dirs(lanes, stage, substage))
        for stage in range(lanes.bit_length() - 1)
        for substage in range(stage + 1))


def bitonic_sort_vector(v: AieVector, descending: bool = False) -> AieVector:
    """Full bitonic sorting network over one vector register.

    For 16 lanes this is the 10-step network of the AMD example
    (stages 1+2+3+4 compare-exchange steps).  The steps run on raw lane
    arrays; only the sorted lanes are wrapped.
    """
    data = v.data
    lanes = data.shape[0]
    if lanes & (lanes - 1):
        raise ValueError("bitonic sort needs a power-of-two lane count")
    for idx, keep_min in _bitonic_steps(lanes):
        data = _exchange(data, idx, keep_min)
    v = AieVector(data, _trusted=True)
    if descending:
        v = reverse(v)
    return v
