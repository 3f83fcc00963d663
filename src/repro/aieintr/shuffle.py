"""Lane permutation intrinsics: shuffle / select networks.

The AIE vector unit has a full lane-permute network (``shuffle16``,
``select32``, ``shift``...).  The bitonic-sorting example is built almost
entirely out of these plus min/max, so the emulation provides the general
permute and the specific idioms that example uses.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .tracing import emit
from .vector import AieVector

__all__ = [
    "permute",
    "reverse",
    "rotate",
    "swap_pairs",
    "butterfly_partner",
    "interleave",
    "deinterleave",
]


def permute(v: AieVector, indices: Sequence[int]) -> AieVector:
    """General lane permutation: ``out[i] = v[indices[i]]``.

    Indices may repeat (broadcast within register) but must be in range.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.shape != (v.lanes,):
        raise ValueError(
            f"permutation must list {v.lanes} indices, got {idx.shape}"
        )
    if idx.min() < 0 or idx.max() >= v.lanes:
        raise ValueError("permutation index out of range")
    emit("vshuffle", v.lanes, v.ebytes)
    return AieVector(v.data[idx], _trusted=True)


def reverse(v: AieVector) -> AieVector:
    """Reverse lane order."""
    emit("vshuffle", v.lanes, v.ebytes)
    return AieVector(v.data[::-1].copy(), _trusted=True)


def rotate(v: AieVector, by: int) -> AieVector:
    """Rotate lanes left by *by* positions."""
    emit("vshuffle", v.lanes, v.ebytes)
    return AieVector(np.roll(v.data, -by), _trusted=True)


def swap_pairs(v: AieVector, width: int) -> AieVector:
    """Swap adjacent groups of *width* lanes: the bitonic exchange
    pattern (partner at XOR distance *width*)."""
    if v.lanes % (2 * width):
        raise ValueError(
            f"swap width {width} does not tile {v.lanes} lanes"
        )
    emit("vshuffle", v.lanes, v.ebytes)
    out = v.data.reshape(-1, 2, width)[:, ::-1, :].reshape(v.lanes)
    return AieVector(out.copy(), _trusted=True)


@lru_cache(maxsize=256)
def _butterfly_index(lanes: int, distance: int) -> np.ndarray:
    """Read-only ``i ^ distance`` lane table, built once per shape."""
    idx = np.arange(lanes) ^ distance
    if distance <= 0 or (distance & (distance - 1)):
        raise ValueError("butterfly distance must be a positive power of 2")
    if distance >= lanes:
        raise ValueError("butterfly distance exceeds vector width")
    idx.setflags(write=False)
    return idx


def butterfly_partner(v: AieVector, distance: int) -> AieVector:
    """Lane i receives lane ``i ^ distance`` — the butterfly network
    step used by bitonic sorting networks."""
    data = v.data
    idx = _butterfly_index(data.shape[0], distance)
    emit("vshuffle", data.shape[0], data.itemsize)
    return AieVector(data[idx], _trusted=True)


def interleave(a: AieVector, b: AieVector) -> AieVector:
    """Zip two vectors lanewise: [a0, b0, a1, b1, ...] (``shuffle``
    zip mode).  Result is twice as wide."""
    if a.lanes != b.lanes or a.dtype != b.dtype:
        raise ValueError("interleave requires same-shape vectors")
    emit("vshuffle", 2 * a.lanes, a.ebytes)
    out = np.empty(2 * a.lanes, dtype=a.dtype)
    out[0::2] = a.data
    out[1::2] = b.data
    return AieVector(out, _trusted=True)


def deinterleave(v: AieVector) -> tuple[AieVector, AieVector]:
    """Unzip even/odd lanes (``shuffle`` unzip mode)."""
    if v.lanes < 4:
        raise ValueError("deinterleave needs at least 4 lanes")
    emit("vshuffle", v.lanes, v.ebytes)
    return (
        AieVector(v.data[0::2].copy(), _trusted=True),
        AieVector(v.data[1::2].copy(), _trusted=True),
    )
