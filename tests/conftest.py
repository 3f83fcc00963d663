"""Shared fixtures: small kernels and graphs used across the test suite.

Kernels are defined at module scope so their registry keys are stable
for serialization tests.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

# Make this directory importable so tests can import shared kernels
# (`from conftest import adder_kernel`) regardless of pytest import mode.
sys.path.insert(0, os.path.dirname(__file__))

from repro.core import (
    AIE,
    NOEXTRACT,
    In,
    IoC,
    IoConnector,
    Out,
    PortSettings,
    Window,
    compute_kernel,
    float32,
    int32,
    make_compute_graph,
)


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------


@compute_kernel(realm=AIE)
async def adder_kernel(in1: In[float32], in2: In[float32],
                       out: Out[float32]):
    """The paper's Figure 3 kernel: pairwise sum of two streams."""
    while True:
        val = (await in1.get()) + (await in2.get())
        await out.put(val)


@compute_kernel(realm=AIE)
async def doubler_kernel(inp: In[int32], out: Out[int32]):
    """Multiply each element by two (the Figure 4 'k' kernel shape)."""
    while True:
        await out.put(2 * (await inp.get()))


@compute_kernel(realm=AIE)
async def scale_kernel(inp: In[float32],
                       factor: In[int32, PortSettings(runtime_parameter=True)],
                       out: Out[float32]):
    """Scale a stream by a runtime parameter."""
    k = await factor.get()
    while True:
        await out.put(k * (await inp.get()))


@compute_kernel(realm=NOEXTRACT)
async def host_logger_kernel(inp: In[float32], out: Out[float32]):
    """A host-side (noextract) pass-through kernel."""
    while True:
        await out.put(await inp.get())


WIN8 = Window(float32, 8)


@compute_kernel(realm=AIE)
async def window_negate_kernel(x: In[WIN8], y: Out[WIN8]):
    """Negate 8-sample buffers (window I/O)."""
    while True:
        blk = await x.get()
        await y.put(-np.asarray(blk, dtype=np.float32))


# ---------------------------------------------------------------------------
# Graph factories (fresh CompiledGraph per call where needed)
# ---------------------------------------------------------------------------


def build_adder_graph():
    @make_compute_graph(name="adder_graph")
    def g(a: IoC[float32], b: IoC[float32]):
        c = IoConnector(float32, name="sum")
        adder_kernel(a, b, c)
        return c

    return g


def build_fig4_graph():
    """The paper's Figure 4 example: k(a,b); k(b,c); return c.

    The intermediate connector b is read by the second kernel while the
    first kernel writes it — a simple chain with one internal net.
    """

    @make_compute_graph(name="fig4")
    def g(a: IoC[int32]):
        b = IoConnector(int32, name="b")
        c = IoConnector(int32, name="c")
        doubler_kernel(a, b)
        doubler_kernel(b, c)
        return c

    return g


def build_broadcast_graph():
    """One producer stream broadcast to two consumers."""

    @make_compute_graph(name="bcast")
    def g(a: IoC[int32]):
        mid = IoConnector(int32, name="mid")
        o1 = IoConnector(int32, name="o1")
        o2 = IoConnector(int32, name="o2")
        doubler_kernel(a, mid)
        doubler_kernel(mid, o1)
        doubler_kernel(mid, o2)
        return o1, o2

    return g


def build_merge_graph():
    """Two producers merged into one output net: k(a,o); k(b,o); return o."""

    @make_compute_graph(name="merge")
    def g(a: IoC[int32], b: IoC[int32]):
        o = IoConnector(int32, name="o")
        doubler_kernel(a, o)
        doubler_kernel(b, o)
        return o

    return g


def build_rtp_graph():
    @make_compute_graph(name="rtp_graph")
    def g(x: IoC[float32], k: IoC[int32]):
        y = IoConnector(float32, name="y")
        scale_kernel(x, k, y)
        return y

    return g


def build_mixed_realm_graph():
    """AIE front-end, noextract (host) tail: the §4.3 partition case."""

    @make_compute_graph(name="mixed")
    def g(a: IoC[float32], b: IoC[float32]):
        s = IoConnector(float32, name="s")
        t = IoConnector(float32, name="t")
        adder_kernel(a, b, s)
        host_logger_kernel(s, t)
        return t

    return g


def build_window_graph():
    @make_compute_graph(name="winneg")
    def g(x: IoC[WIN8]):
        y = IoConnector(WIN8, name="y")
        window_negate_kernel(x, y)
        return y

    return g


@pytest.fixture
def adder_graph():
    return build_adder_graph()


@pytest.fixture
def fig4_graph():
    return build_fig4_graph()


@pytest.fixture
def broadcast_graph():
    return build_broadcast_graph()


@pytest.fixture
def merge_graph():
    return build_merge_graph()


@pytest.fixture
def rtp_graph():
    return build_rtp_graph()


@pytest.fixture
def mixed_realm_graph():
    return build_mixed_realm_graph()


@pytest.fixture
def window_graph():
    return build_window_graph()
