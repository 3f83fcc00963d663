"""AIE accumulator registers (``aie::accum`` / acc48 / acc80 / accfloat).

Integer multiply paths on the AIE deposit into wide accumulators (48 or
80 bits per lane) so long MAC chains do not overflow; results move back
to vector registers through shift-round-saturate.  Float paths accumulate
in fp32.

The emulation carries integer accumulators as int64 lanes (sufficient:
the real 48/80-bit accumulators never exceed int64 for the supported
operand widths within a kernel's MAC chains; an explicit guard checks
this) and float accumulators as float32.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import RoundMode, srs_array
from .tracing import emit
from .vector import AieVector, _check_lanes

__all__ = ["Accum", "acc_zeros", "acc_from_vector"]

_ACC_BITS = {"acc48": 48, "acc80": 80, "accfloat": 32}


class Accum:
    """A lane-parallel accumulator register."""

    __slots__ = ("data", "kind")

    def __init__(self, data: np.ndarray, kind: str = "acc48"):
        if kind not in _ACC_BITS:
            raise ValueError(f"unknown accumulator kind {kind!r}")
        self.kind = kind
        self.data = data

    @property
    def lanes(self) -> int:
        return self.data.shape[0]

    @property
    def is_float(self) -> bool:
        return self.kind == "accfloat"

    def _check_range(self) -> None:
        """Guard: int accumulators must stay within their hardware width."""
        if self.is_float:
            return
        bits = _ACC_BITS[self.kind]
        if bits >= 64:
            # The int64 carrier is narrower than the real 80-bit
            # accumulator, so any representable value is in range.
            return
        lim = np.int64(1) << (bits - 1)
        d = self.data
        if d.size and (d.max() >= lim or d.min() < -lim):
            raise OverflowError(
                f"{self.kind} accumulator overflow (|x| >= 2^{bits - 1}); "
                f"the real hardware would wrap here"
            )

    # -- accumulate ------------------------------------------------------------------

    def mac(self, a: AieVector, b) -> "Accum":
        """acc += a * b lanewise (``mac``/``fpmac``)."""
        rhs = b.data if isinstance(b, AieVector) else b
        if self.is_float:
            emit("vfpmac", self.lanes, 4)
            out = self.data + (a.data * rhs).astype(np.float32)
        else:
            emit("vmac", self.lanes, a.ebytes)
            out = self.data + a.data.astype(np.int64) * np.asarray(
                rhs, dtype=np.int64
            )
        acc = Accum(out, self.kind)
        acc._check_range()
        return acc

    def msc(self, a: AieVector, b) -> "Accum":
        """acc -= a * b lanewise (``msc``)."""
        rhs = b.data if isinstance(b, AieVector) else b
        if self.is_float:
            emit("vfpmsc", self.lanes, 4)
            out = self.data - (a.data * rhs).astype(np.float32)
        else:
            emit("vmsc", self.lanes, a.ebytes)
            out = self.data - a.data.astype(np.int64) * np.asarray(
                rhs, dtype=np.int64
            )
        acc = Accum(out, self.kind)
        acc._check_range()
        return acc

    def add(self, other: "Accum") -> "Accum":
        if other.kind != self.kind:
            raise ValueError("cannot add accumulators of different kinds")
        emit("vacc_add", self.lanes, 8)
        acc = Accum(self.data + other.data, self.kind)
        acc._check_range()
        return acc

    # -- move out --------------------------------------------------------------------

    def to_vector(self, shift: int = 0, dtype=np.int16,
                  mode: str = RoundMode.NEAREST) -> AieVector:
        """Move to a vector register via shift-round-saturate (int) or a
        plain conversion (float accumulators, where shift must be 0)."""
        if self.is_float:
            if shift != 0:
                raise ValueError("float accumulators take no srs shift")
            emit("vmov", self.lanes, 4)
            return AieVector(self.data.astype(np.float32), _trusted=True)
        return AieVector(srs_array(self.data, shift, dtype, mode),
                         _trusted=True)

    def to_array(self) -> np.ndarray:
        return np.array(self.data, copy=True)

    def __repr__(self):
        return f"Accum({self.kind}, {self.data.tolist()})"


def acc_zeros(lanes: int, kind: str = "acc48") -> Accum:
    """A cleared accumulator register."""
    _check_lanes(lanes)
    emit("vacc_clr", lanes, 8)
    dt = np.float32 if kind == "accfloat" else np.int64
    return Accum(np.zeros(lanes, dtype=dt), kind)


def acc_from_vector(v: AieVector, shift: int = 0,
                    kind: str = "acc48") -> Accum:
    """Load a vector into an accumulator, optionally up-shifted (``ups``)."""
    if kind == "accfloat":
        emit("vmov", v.lanes, 4)
        return Accum(v.data.astype(np.float32), kind)
    emit("ups", v.lanes, 8)
    acc = Accum(v.data.astype(np.int64) << shift, kind)
    acc._check_range()
    return acc
