"""Pin the micro-op streams of the four paper apps.

The aiesim cycle model (Table 1) is driven by the ``TraceRecorder``
stream a kernel emits, so any change to the intrinsic layer must leave
that stream exactly as it was: same ops, lanes, element widths and
metadata, in the same order.  Each digest below is the SHA-256 of the
stream recorded over 2 blocks of the app's cgsim graph; regenerate one
with ``op_stream_digest(name)`` only when a change to a kernel's
micro-ops is intended.
"""

import hashlib

import numpy as np
import pytest

from repro.aieintr.tracing import TraceRecorder
from repro.apps import bilinear, bitonic, datasets, farrow, iir

N_BLOCKS = 2

#: app -> (number of micro-ops, SHA-256 of the stream)
PINNED = {
    "bitonic": (147, "c0c5be54672b961318537c1717e9dea8ca0cb71f213ee26d18dc30b4c4d6c930"),
    "farrow": (72, "0eacc48a8e5b45569ac9704b76f49d8b255c23570bf597a0dbb731878573c0fa"),
    "iir": (10, "c7a41a078d366f83a7e594ef1c9d2dc7279d81233bdc8de979df051ec3ce6706"),
    "bilinear": (4742, "4eb40221ab84d1df8bf6330290eb874a4f3be2a52b901c12bd683fd19b08dfa5"),
}


def _run(name: str) -> np.ndarray:
    if name == "bitonic":
        return bitonic.run_cgsim(datasets.bitonic_blocks(N_BLOCKS))
    if name == "farrow":
        return farrow.run_cgsim(*datasets.farrow_blocks(N_BLOCKS))
    if name == "iir":
        return iir.run_cgsim(datasets.iir_blocks(N_BLOCKS))
    return bilinear.run_cgsim(*datasets.bilinear_blocks(N_BLOCKS))


def op_stream(name: str) -> list:
    """``(op, lanes, ebytes, meta)`` of every micro-op *name* emits."""
    with TraceRecorder() as rec:
        _run(name)
    return [(op.op, int(op.lanes), int(op.ebytes), op.meta)
            for op in rec.ops]


def op_stream_digest(name: str) -> tuple:
    ops = op_stream(name)
    return len(ops), hashlib.sha256(repr(ops).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_op_stream_matches_pin(name):
    assert op_stream_digest(name) == PINNED[name]


def test_recording_leaves_outputs_unchanged():
    blocks = datasets.bitonic_blocks(N_BLOCKS)
    plain = bitonic.run_cgsim(blocks)
    with TraceRecorder():
        traced = bitonic.run_cgsim(blocks)
    assert np.array_equal(plain, traced)
