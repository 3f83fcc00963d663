"""The whole-run batched twins of IIR and farrow (§5 SIMD restructuring).

``iir_sos_kernel_batched`` and ``farrow_fused`` filter each bulk read as
one contiguous signal.  Their outputs must stay bit-identical to the
per-block kernels at every boundary of the read size, whichever way the
input reaches them: a list of blocks, an ndarray container (read as
views by a fused chain's ``SourceFeed``), or ``validate=True`` ports.
Call-count gates keep the fused IIR block cost from sliding back to a
per-block Python loop, and the unfused bilinear and bitonic block costs
(one ``repro.aieintr`` op per stream element or lane step) from
sliding back to several Python frames per op.
"""

import sys
import threading

import numpy as np
import pytest

from repro.apps import bilinear, bitonic, datasets, farrow, iir
from repro.exec import run_graph

_IIR_B = iir.IIR_IO_BATCH
_FARROW_B = farrow._FUSED_IO_BATCH


def _counts(b):
    return [1, b - 1, b, b + 1, 3 * b + 2]


_CONTAINERS = {
    "ndarray": lambda blocks: blocks,
    "list": lambda blocks: list(blocks),
}
_VARIANTS = [("ndarray", {}), ("list", {}), ("ndarray", {"validate": True}),
             ("list", {"validate": True})]
_IDS = ["ndarray", "list", "ndarray+validate", "list+validate"]


def _run(graph, inputs, **options):
    out = []
    result = run_graph(graph, *inputs, out, backend="cgsim", **options)
    assert result.completed
    return np.stack([np.asarray(b) for b in out])


def _assert_bit_identical(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_blocks", _counts(_IIR_B))
@pytest.mark.parametrize("container,options", _VARIANTS, ids=_IDS)
class TestIirTwin:
    def test_fused_matches_unfused(self, n_blocks, container, options):
        src = _CONTAINERS[container](datasets.iir_blocks(n_blocks))
        want = _run(iir.IIR_GRAPH, (src,), **options)
        got = _run(iir.IIR_GRAPH, (src,), optimize="full", **options)
        _assert_bit_identical(got, want)

    def test_batched_graph_matches_iir_graph(self, n_blocks, container,
                                             options):
        src = _CONTAINERS[container](datasets.iir_blocks(n_blocks))
        want = _run(iir.IIR_GRAPH, (src,), **options)
        got = _run(iir.IIR_GRAPH_BATCHED, (src,), **options)
        _assert_bit_identical(got, want)


@pytest.mark.parametrize("n_blocks", _counts(_FARROW_B))
@pytest.mark.parametrize("container,options", _VARIANTS, ids=_IDS)
def test_farrow_fused_matches_unfused(n_blocks, container, options):
    blocks, mu = datasets.farrow_blocks(n_blocks)
    src = _CONTAINERS[container](blocks)
    want = _run(farrow.FARROW_GRAPH, (src, mu), **options)
    got = _run(farrow.FARROW_GRAPH, (src, mu), optimize="full", **options)
    _assert_bit_identical(got, want)


def test_farrow_fused_at_cint16_extremes():
    # Full-scale samples of both signs exercise the widest branch sums
    # and the final saturation in both directions.
    n = 3 * _FARROW_B + 2
    re = np.where(np.arange(n * datasets.FARROW_BLOCK) % 3 == 0,
                  -32768.0, 32767.0).reshape(n, -1)
    blocks = re + 1j * re[::-1]
    for mu in (0, 13107, 32767):
        want = _run(farrow.FARROW_GRAPH, (blocks, mu))
        got = _run(farrow.FARROW_GRAPH, (blocks, mu), optimize="full")
        _assert_bit_identical(got, want)


_THREADING = threading.__file__

#: Upper bound on the Python calls one more fused IIR block costs.
#: A per-block section loop costs ~65; filtering each read as one
#: signal costs ~4.4.  Not an exact pin: scipy's Python-level
#: ``lfilter`` wrapper differs between versions.
MAX_CALLS_PER_FUSED_IIR_BLOCK = 8


def _count_calls(fn) -> int:
    """Python calls *fn* makes on this thread (``sys.setprofile``),
    leaving out calls into the ``threading`` module."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "call" and frame.f_code.co_filename != _THREADING:
            n += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return n


def test_fused_iir_calls_per_block():
    blocks = datasets.iir_blocks(256)

    def run(n):
        return lambda: run_graph(iir.IIR_GRAPH, blocks[:n], [],
                                 backend="cgsim", optimize="full")

    small, large = run(64), run(256)
    small()
    large()                     # warm caches (plan cache, lru tables)
    per_block = (_count_calls(large) - _count_calls(small)) / (256 - 64)
    assert per_block <= MAX_CALLS_PER_FUSED_IIR_BLOCK, (
        f"fused IIR costs {per_block:.1f} Python calls per extra block, "
        f"bound {MAX_CALLS_PER_FUSED_IIR_BLOCK}")


#: Upper bounds on the Python calls one more unfused 256-sample
#: bilinear block, and one more 16-element bitonic block, cost on
#: cgsim: exactly the counts reached once the per-step vector ops
#: became one frame each (10,592 and 206 with a frame per emit, a
#: two-level dispatch per wrapping op and ``__init__`` per result).
#: Ports, queues and the scheduler make up the rest.
MAX_CALLS_PER_BILINEAR_BLOCK = 7040
MAX_CALLS_PER_BITONIC_BLOCK = 130


def _calls_per_extra_block(run, small, large):
    run(small)
    run(large)                  # warm caches (lane tables, lru tables)
    return (_count_calls(lambda: run(large))
            - _count_calls(lambda: run(small))) / (large - small)


def test_unfused_bilinear_calls_per_block():
    pixels, fracs = datasets.bilinear_blocks(6)

    def run(n):
        run_graph(bilinear.BILINEAR_GRAPH, pixels[:n].reshape(-1),
                  fracs[:n].reshape(-1), [], backend="cgsim")

    per_block = _calls_per_extra_block(run, 2, 6)
    assert per_block <= MAX_CALLS_PER_BILINEAR_BLOCK, (
        f"unfused bilinear costs {per_block:.1f} Python calls per extra "
        f"block, bound {MAX_CALLS_PER_BILINEAR_BLOCK}")


def test_unfused_bitonic_calls_per_block():
    blocks = datasets.bitonic_blocks(256)

    def run(n):
        run_graph(bitonic.BITONIC_GRAPH, blocks[:n].reshape(-1), [],
                  backend="cgsim")

    per_block = _calls_per_extra_block(run, 64, 256)
    assert per_block <= MAX_CALLS_PER_BITONIC_BLOCK, (
        f"unfused bitonic costs {per_block:.1f} Python calls per extra "
        f"block, bound {MAX_CALLS_PER_BITONIC_BLOCK}")
