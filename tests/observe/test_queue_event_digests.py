"""Pinned queue-event streams of traced cgsim runs.

Under the cooperative scheduler a traced run's ``queue.put`` /
``queue.get`` stream is deterministic: the same graph and data produce
the same ``(kind, queue, n, fill)`` sequence every time.  These tests
pin a sha256 of that sequence (and its length) for the four paper apps,
unfused and with ``optimize="full"`` (substituted members, feeds and
stores), plus a small graph whose kernel reads an RTP input latch and
writes an RTP output latch — so any change to where or how queue
transfers are reported shows up as a digest mismatch.  x86sim's event
order depends on its threads, so there only the per-queue totals and
the fill range are pinned.

(No ``from __future__ import annotations`` here: the inline graph
definition relies on evaluated ``IoC[...]`` annotations.)
"""

import hashlib
from collections import Counter

import pytest

from repro.apps import bilinear, bitonic, datasets, farrow, iir
from repro.core import (
    AIE,
    In,
    IoC,
    IoConnector,
    Out,
    PortSettings,
    RuntimeParam,
    compute_kernel,
    int32,
    make_compute_graph,
)
from repro.core.queues import DEFAULT_QUEUE_CAPACITY
from repro.exec import run_graph
from repro.observe import QUEUE_GET, QUEUE_PUT, Tracer
from repro.observe.sinks import RingSink

_RTP = PortSettings(runtime_parameter=True)


@compute_kernel(realm=AIE)
async def digest_scaled_peak(x: In[int32], k: In[int32, _RTP],
                             y: Out[int32], peak: Out[int32, _RTP]):
    """Scale the stream by the RTP *k*; publish the running maximum of
    the scaled values as an RTP output."""
    best = None
    while True:
        v = (await x.get()) * (await k.get())
        if best is None or v > best:
            best = v
            await peak.put(best)
        await y.put(v)


def _rtp_graph():
    @make_compute_graph(name="digest_rtp")
    def g(x: IoC[int32], k: IoC[int32]):
        y = IoConnector(int32, name="y")
        peak = IoConnector(int32, name="peak")
        digest_scaled_peak(x, k, y, peak)
        return y, peak

    return g


def _run_rtp(**opts):
    out, peak = [], RuntimeParam()
    _rtp_graph()([3, 9, 2, 7, 11, 4], 3, out, peak, **opts)
    assert out == [9, 27, 6, 21, 33, 12] and peak.value == 33


_RUNS = {
    "bitonic": lambda **o: bitonic.run_cgsim(datasets.bitonic_blocks(8), **o),
    "farrow": lambda **o: farrow.run_cgsim(*datasets.farrow_blocks(2), **o),
    "iir": lambda **o: iir.run_cgsim(datasets.iir_blocks(2), **o),
    "bilinear": lambda **o: bilinear.run_cgsim(*datasets.bilinear_blocks(2),
                                               **o),
    "rtp": _run_rtp,
}

#: (app, optimize) -> (queue events, sha256 of the event sequence).
#: Captured from the traced cgsim runs; a change here is a change in
#: what the trace reports, not noise.
EXPECTED = {
    ("bitonic", "none"): (260, "3c26d5753bf39922fe4f41e49914e01a"
                               "171d91a2ffd311f6e89480a8ae8add95"),
    ("bitonic", "full"): (4, "cd0bfe4d32afa350c5dfcab1fd32d5e5"
                             "01e8e04d27a102953b6ff09dee237ee8"),
    ("farrow", "none"): (16, "d1fb3a80578201a05a23f026ab5c0136"
                             "2402d440aaa5de7370c6db888642aa9c"),
    ("farrow", "full"): (5, "84fbf65f6e2a24b4fe6e689c9d2ebe23"
                            "9ec825acd7370db281ed2bc5b4895e52"),
    ("iir", "none"): (6, "772e3583bd29398828489cda7a1b4e81"
                         "001e6e81ca73a8b97712fb00b9d3f4a6"),
    ("iir", "full"): (4, "7ea9bd0d27935b2b32a0584e54263690"
                         "e333cf4b88e2d5ed121cc586bc1fc0dd"),
    ("bilinear", "none"): (3679, "b0799839c36f16fa56c0939f055bd1b9"
                                 "168652c5768e5902b8e4f24145dad3a6"),
    ("bilinear", "full"): (12, "9c57965e03460066763438c450d10827"
                               "f8341c986dc115de6ebccaf96ab1ec36"),
    ("rtp", "none"): (23, "5b203ba268f3e80fe02d572a4050d5cf"
                          "bb2e99b6a4ff16d2a620769b24830134"),
    ("rtp", "full"): (23, "5b203ba268f3e80fe02d572a4050d5cf"
                          "bb2e99b6a4ff16d2a620769b24830134"),
}


def queue_event_digest(app, optimize):
    """Run *app* traced on cgsim; return ``(count, sha256)`` of its
    ``(kind, queue, n, fill)`` queue-event sequence."""
    tracer = Tracer(RingSink(maxlen=None), metrics=False)
    opts = {"observe": tracer}
    if optimize != "none":
        opts["optimize"] = optimize
    _RUNS[app](**opts)
    tracer.close()
    seq = [(ev.kind, ev.queue, ev.n, ev.fill) for ev in tracer.events
           if ev.kind in (QUEUE_PUT, QUEUE_GET)]
    return len(seq), hashlib.sha256(repr(seq).encode()).hexdigest()


@pytest.mark.parametrize("app,optimize", sorted(EXPECTED))
def test_traced_queue_events_are_pinned(app, optimize):
    assert queue_event_digest(app, optimize) == EXPECTED[app, optimize]


def test_digest_is_repeatable():
    assert queue_event_digest("bitonic", "none") \
        == queue_event_digest("bitonic", "none")


def test_x86sim_totals_match_cgsim_and_fills_stay_in_range():
    """x86sim's interleaving is thread-dependent, but each queue's
    transfer totals are not, and every reported fill is a real one."""
    flat = datasets.bitonic_blocks(8).reshape(-1)
    totals = {}
    for backend in ("cgsim", "x86sim"):
        tracer = Tracer(RingSink(maxlen=None), metrics=False)
        run_graph(bitonic.BITONIC_GRAPH, flat, [], backend=backend,
                  observe=tracer)
        events = [ev for ev in tracer.events
                  if ev.kind in (QUEUE_PUT, QUEUE_GET)]
        assert all(0 <= ev.fill <= DEFAULT_QUEUE_CAPACITY for ev in events)
        count = Counter()
        for ev in events:
            count[ev.kind, ev.queue] += ev.n
        totals[backend] = count
    assert totals["x86sim"] == totals["cgsim"]


def test_rtp_input_is_configuration_on_every_engine():
    """A graph's pre-run RTP value is written before tracing starts on
    every engine: farrow's ``mu`` latch traces the same per-queue event
    counts (its readers' gets, no put) on cgsim, x86sim and cgsim-mp."""
    blocks, mu = datasets.farrow_blocks(2)
    counts = {}
    for backend in ("cgsim", "x86sim", "cgsim-mp"):
        tracer = Tracer(RingSink(maxlen=None), metrics=False)
        run_graph(farrow.FARROW_GRAPH, blocks, mu, [], backend=backend,
                  observe=tracer)
        counts[backend] = Counter(
            ev.kind for ev in tracer.events
            if ev.kind in (QUEUE_PUT, QUEUE_GET) and ev.queue == "mu")
    assert counts["cgsim"] == {QUEUE_GET: 2}
    assert counts["x86sim"] == counts["cgsim"] == counts["cgsim-mp"]
