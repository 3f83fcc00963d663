"""Batched port I/O microbenchmark: bulk ring transfers vs per-element
kernel-port awaits on the cgsim backend.

Workload shape is bitonic-class — element-granular float32 streams
processed in 16-element blocks (64 B, Table 1's smallest block) — the
regime where per-element awaitable overhead dominates the cooperative
runtime.  Two measurements:

* **relay16** isolates the port layer: a kernel that moves 16-element
  blocks unchanged, per-element kernel ports (`await get()`/`await
  put()` 16×) vs batched ones (`get_batch(16)`/`put_batch`).  Global
  sources and sinks move bulk runs in both variants (the default), so
  this is the kernel-port mechanism speedup and must be >= 2x.
* **bitonic app** gives the end-to-end context: the same comparison on
  the real sorting kernel, where the compare-exchange network (numpy
  work shared by both variants) bounds the achievable gain.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np
import pytest

from repro.apps import bitonic, datasets
from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    compute_kernel,
    float32,
    make_compute_graph,
)
from repro.exec import run_graph

from conftest import record_row

TABLE = "Batched port I/O: bulk ring ops vs per-element port awaits (cgsim)"
BLOCK = 16
N_BLOCKS = 512
ROUNDS = 3


@compute_kernel(realm=AIE)
async def relay16(inp: In[float32], out: Out[float32]):
    """Move 16-element blocks, one awaitable per element."""
    while True:
        for _ in range(BLOCK):
            await out.put(await inp.get())


@compute_kernel(realm=AIE)
async def relay16_batched(inp: In[float32], out: Out[float32]):
    """Move 16-element blocks, one awaitable per block."""
    while True:
        await out.put_batch(await inp.get_batch(BLOCK))


@make_compute_graph(name="relay16")
def RELAY_GRAPH(a: IoC[float32]):
    o = IoConnector(float32)
    relay16(a, o)
    return o


@make_compute_graph(name="relay16_batched")
def RELAY_GRAPH_BATCHED(a: IoC[float32]):
    o = IoConnector(float32)
    relay16_batched(a, o)
    return o


def _best_of(graph, flat, **options):
    """Best-of-ROUNDS wall time and the output stream for checking."""
    best, out_ref = float("inf"), None
    for _ in range(ROUNDS):
        out: list = []
        t0 = perf_counter()
        result = run_graph(graph, flat, out, backend="cgsim", **options)
        t = perf_counter() - t0
        assert result.completed
        assert len(out) == flat.size
        if t < best:
            best, out_ref = t, out
    return best, out_ref


def test_batched_io_speedup(results_dir):
    flat = datasets.bitonic_blocks(N_BLOCKS).reshape(-1)

    t_el, out_el = _best_of(RELAY_GRAPH, flat)
    t_ba, out_ba = _best_of(RELAY_GRAPH_BATCHED, flat)
    assert out_el == out_ba  # batching is semantically invisible
    relay_speedup = t_el / t_ba

    t_app_el, app_el = _best_of(bitonic.BITONIC_GRAPH, flat)
    t_app_ba, app_ba = _best_of(bitonic.BITONIC_GRAPH_BATCHED, flat)
    assert np.array_equal(np.asarray(app_el, np.float32),
                          np.asarray(app_ba, np.float32))
    app_speedup = t_app_el / t_app_ba

    n = flat.size
    record_row(TABLE, f"{'workload':<18}{'elem-port':>10}{'batch-port':>11}"
                      f"{'speedup':>9}   ({n} elements, bulk global I/O)")
    record_row(TABLE, f"{'relay16 (I/O)':<18}{t_el:>9.3f}s{t_ba:>10.3f}s"
                      f"{relay_speedup:>8.2f}x")
    record_row(TABLE, f"{'bitonic (e2e)':<18}{t_app_el:>9.3f}s"
                      f"{t_app_ba:>10.3f}s{app_speedup:>8.2f}x")

    (results_dir / "batched_io.json").write_text(json.dumps({
        "n_elements": int(n),
        "block": BLOCK,
        "rounds": ROUNDS,
        "global_io": "bulk",
        "relay16": {"element_ports_s": t_el, "batch_ports_s": t_ba,
                    "speedup": relay_speedup},
        "bitonic": {"element_ports_s": t_app_el, "batch_ports_s": t_app_ba,
                    "speedup": app_speedup},
    }, indent=2))

    # The acceptance bar: batched kernel ports at least double throughput
    # on the I/O-dominated bitonic-class stream.
    assert relay_speedup >= 2.0, (
        f"batched kernel ports only {relay_speedup:.2f}x over per-element"
    )
    # End-to-end the sort math is shared; batching must still not lose.
    assert app_speedup >= 1.0
