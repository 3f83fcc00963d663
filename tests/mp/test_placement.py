"""Placement invariants: shards, homing, and ring topology.

The manager relies on three structural guarantees from
:func:`repro.mp.place_graph`: the worker quotient graph is acyclic with
rings running strictly upward in worker id, every net has exactly one
producing worker, and kernel-produced RTP nets never cross a process
boundary.  These tests pin each invariant on real app graphs, and pin
the exact shard layouts on the paper apps, the lane farms and
hand-built graphs (feedback loop, RTP co-location, merge net, two
realms) so a change to the placement algorithm cannot move a kernel
silently.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.apps import bilinear, bitonic, farrow, iir
from farm_graphs import FARROW_FARM4, IIR_FARM4
from repro.apps.farm import BILINEAR_FARM4, BITONIC_FARM4
from repro.core import (
    AIE,
    HLS,
    In,
    IoC,
    IoConnector,
    Out,
    PortSettings,
    compute_kernel,
    float32,
    int32,
    make_compute_graph,
)
from repro.errors import GraphRuntimeError
from repro.exec.api import resolve_graph
from repro.mp import place_graph

RTP = PortSettings(runtime_parameter=True)


@compute_kernel(realm=AIE)
async def mp_track_peak(x: In[int32], y: Out[int32],
                        peak: Out[int32, RTP]):
    best = None
    while True:
        v = await x.get()
        if best is None or v > best:
            best = v
            await peak.put(best)
        await y.put(v)


@compute_kernel(realm=AIE)
async def mp_rtp_scale(inp: In[int32], k: In[int32, RTP],
                       out: Out[int32]):
    f = await k.get()
    while True:
        await out.put(f * (await inp.get()))


@compute_kernel(realm=AIE)
async def mp_inc(inp: In[int32], out: Out[int32]):
    while True:
        await out.put(1 + (await inp.get()))


def _names(placement, wid):
    g = placement.graph
    return sorted(g.kernels[i].instance_name
                  for i in placement.shards[wid])


def test_farrow_two_worker_split():
    from repro.apps.farrow import FARROW_GRAPH

    g = resolve_graph(FARROW_GRAPH)
    pl = place_graph(g, 2)
    assert pl.n_workers == 2
    assert _names(pl, 0) == ["farrow_stage1_0"]
    assert _names(pl, 1) == ["farrow_stage2_0"]
    # Both inter-stage nets (acc, x_fwd) become stage1->stage2 rings.
    keys = pl.ring_keys()
    assert len(keys) == 2
    assert all(src == 0 and dst == 1 for _net, src, dst in keys)


def test_rings_run_upward_on_farm():
    from repro.apps.farm import BITONIC_FARM4

    g = resolve_graph(BITONIC_FARM4)
    for workers in (1, 2, 4):
        pl = place_graph(g, workers)
        assert pl.n_workers == workers
        # Independent lanes: no inter-worker rings at all.
        assert pl.ring_keys() == []
        for net in g.nets:
            if net.settings.runtime_parameter:
                continue
            assert pl.net_producer_worker(net.net_id) is not None
        for net_id, src, dst in pl.ring_keys():
            assert src < dst


def test_workers_clamped_to_unit_count():
    from repro.apps.farrow import FARROW_GRAPH

    g = resolve_graph(FARROW_GRAPH)
    pl = place_graph(g, 8)  # only two indivisible units exist
    assert pl.n_workers == 2
    assert all(pl.shards[w] for w in range(pl.n_workers))


def test_rejects_nonpositive_worker_count():
    from repro.apps.farrow import FARROW_GRAPH

    g = resolve_graph(FARROW_GRAPH)
    with pytest.raises(GraphRuntimeError, match="workers"):
        place_graph(g, 0)


def test_kernel_produced_rtp_is_colocated():
    @make_compute_graph(name="mp_rtp_colo")
    def g(x: IoC[int32], x2: IoC[int32]):
        y = IoConnector(int32, name="y")
        peak = IoConnector(int32, name="peak")
        scaled = IoConnector(int32, name="scaled")
        a = IoConnector(int32, name="a")
        b = IoConnector(int32, name="b")
        mp_track_peak(x, y, peak)
        mp_rtp_scale(x2, peak, scaled)
        mp_inc(y, a)
        mp_inc(a, b)
        return scaled, b

    rg = resolve_graph(g)
    pl = place_graph(rg, 2)
    assert pl.n_workers == 2
    # The RTP latch has no cross-process carrier: producer and consumer
    # of `peak` must share a worker no matter how shards are balanced.
    by_name = {rg.kernels[i].instance_name: w
               for i, w in pl.worker_of.items()}
    assert by_name["mp_track_peak_0"] == by_name["mp_rtp_scale_0"]
    for _net, src, dst in pl.ring_keys():
        assert src < dst


def test_single_producing_worker_per_net():
    from repro.apps.farrow import FARROW_GRAPH

    g = resolve_graph(FARROW_GRAPH)
    pl = place_graph(g, 2)
    for net in g.nets:
        if net.settings.runtime_parameter:
            continue
        producers = {pl.worker_of[ep.instance_idx] for ep in net.producers}
        assert len(producers) <= 1


# ---------------------------------------------------------------------------
# Pinned shard layouts
# ---------------------------------------------------------------------------


@compute_kernel(realm=HLS)
async def mp_hls_inc(inp: In[int32], out: Out[int32]):
    while True:
        await out.put(1 + (await inp.get()))


@compute_kernel(realm=AIE)
async def mp_add(a: In[int32], b: In[int32], out: Out[int32]):
    while True:
        await out.put((await a.get()) + (await b.get()))


@compute_kernel(realm=AIE)
async def mp_fork(inp: In[int32], a: Out[int32], b: Out[int32]):
    while True:
        v = await inp.get()
        await a.put(v)
        await b.put(v)


@make_compute_graph(name="bitonic_farm8")
def BITONIC_FARM8(l0: IoC[float32], l1: IoC[float32], l2: IoC[float32],
                  l3: IoC[float32], l4: IoC[float32], l5: IoC[float32],
                  l6: IoC[float32], l7: IoC[float32]):
    outs = []
    for i, lane in enumerate((l0, l1, l2, l3, l4, l5, l6, l7)):
        o = IoConnector(float32, name=f"sorted{i}")
        bitonic.bitonic16_kernel(lane, o)
        outs.append(o)
    return tuple(outs)


@make_compute_graph(name="mixed_farm4")
def MIXED_FARM4(x0: IoC[farrow.X_WIN], mu0: IoC[int32],
                s1: IoC[iir.IIR_WIN], x2: IoC[farrow.X_WIN],
                mu2: IoC[int32], s3: IoC[iir.IIR_WIN]):
    """Uneven lanes: two-kernel Farrow pipelines interleaved with
    single-kernel IIR filters."""
    outs = []
    for i, (x, mu) in ((0, (x0, mu0)), (2, (x2, mu2))):
        acc = IoConnector(farrow.ACC_WIN, name=f"acc{i}")
        xf = IoConnector(farrow.X_WIN, name=f"x_fwd{i}")
        y = IoConnector(farrow.X_WIN, name=f"y{i}")
        farrow.farrow_stage1(x, mu, acc, xf)
        farrow.farrow_stage2(acc, xf, mu, y)
        outs.append(y)
        sig = s1 if i == 0 else s3
        f = IoConnector(iir.IIR_WIN, name=f"filtered{i + 1}")
        iir.iir_sos_kernel(sig, f)
        outs.append(f)
    return tuple(outs)


@make_compute_graph(name="mp_feedback")
def FEEDBACK(x: IoC[int32]):
    """head -> (add <-> fork) loop -> two-stage tail."""
    a = IoConnector(int32, name="a")
    b = IoConnector(int32, name="b")
    fb = IoConnector(int32, name="fb")
    c = IoConnector(int32, name="c")
    d = IoConnector(int32, name="d")
    o = IoConnector(int32, name="o")
    mp_inc(x, a)
    mp_add(a, fb, b)
    mp_fork(b, fb, c)
    mp_inc(c, d)
    mp_inc(d, o)
    return o


@make_compute_graph(name="mp_rtp_group")
def RTP_GROUP(x: IoC[int32], x2: IoC[int32]):
    """A kernel-produced RTP latch between two otherwise independent
    chains."""
    y = IoConnector(int32, name="y")
    peak = IoConnector(int32, name="peak")
    scaled = IoConnector(int32, name="scaled")
    a = IoConnector(int32, name="a")
    b = IoConnector(int32, name="b")
    mp_track_peak(x, y, peak)
    mp_rtp_scale(x2, peak, scaled)
    mp_inc(y, a)
    mp_inc(a, b)
    return scaled, b


@make_compute_graph(name="mp_merge")
def MERGE(x: IoC[int32], x2: IoC[int32]):
    """Two kernels write one net; one kernel drains it."""
    p = IoConnector(int32, name="p")
    q = IoConnector(int32, name="q")
    m = IoConnector(int32, name="m")
    o = IoConnector(int32, name="o")
    mp_inc(x, p)
    mp_inc(x2, q)
    mp_inc(p, m)
    mp_inc(q, m)
    mp_inc(m, o)
    return o


@make_compute_graph(name="mp_two_realms")
def TWO_REALMS(x0: IoC[int32], x1: IoC[int32], x2: IoC[int32],
               x3: IoC[int32]):
    """Lanes alternate between the ``hls`` and ``aie`` realms; lane 3
    crosses from one realm to the other."""
    outs = []
    for i, x in enumerate((x0, x1, x2)):
        o = IoConnector(int32, name=f"o{i}")
        (mp_hls_inc if i % 2 == 0 else mp_inc)(x, o)
        outs.append(o)
    m = IoConnector(int32, name="m3")
    o = IoConnector(int32, name="o3")
    mp_inc(x3, m)
    mp_hls_inc(m, o)
    outs.append(o)
    return tuple(outs)


@make_compute_graph(name="mp_reversed")
def REVERSED(x: IoC[int32], x2: IoC[int32]):
    """Kernels instantiated downstream-first (instance order is the
    reverse of dataflow order): a diamond with two parallel middle
    kernels, plus an independent side lane."""
    a = IoConnector(int32, name="a")
    b = IoConnector(int32, name="b")
    c = IoConnector(int32, name="c")
    e = IoConnector(int32, name="e")
    d = IoConnector(int32, name="d")
    o = IoConnector(int32, name="o")
    s = IoConnector(int32, name="s")
    mp_inc(d, o)
    mp_add(c, e, d)
    mp_inc(b, e)
    mp_inc(a, c)
    mp_fork(x, a, b)
    mp_hls_inc(x2, s)
    return o, s


PINNED_GRAPHS = {
    "bitonic": bitonic.BITONIC_GRAPH,
    "farrow": farrow.FARROW_GRAPH,
    "iir": iir.IIR_GRAPH,
    "bilinear": bilinear.BILINEAR_GRAPH,
    "bitonic_farm4": BITONIC_FARM4,
    "bilinear_farm4": BILINEAR_FARM4,
    "farrow_farm4": FARROW_FARM4,
    "iir_farm4": IIR_FARM4,
    "bitonic_farm8": BITONIC_FARM8,
    "mixed_farm4": MIXED_FARM4,
    "feedback": FEEDBACK,
    "rtp_group": RTP_GROUP,
    "merge": MERGE,
    "two_realms": TWO_REALMS,
    "reversed": REVERSED,
}

PINNED_WORKERS = (1, 2, 3, 4, 8)

#: ``place_graph(graph, workers).shards`` as first recorded from the
#: networkx-based placement; the stdlib placement must reproduce them.
PINNED_SHARDS = {
    "bilinear": {
        1: ((0,),),
        2: ((0,),),
        3: ((0,),),
        4: ((0,),),
        8: ((0,),),
    },
    "bilinear_farm4": {
        1: ((0, 1, 2, 3),),
        2: ((0, 1), (2, 3)),
        3: ((0,), (1, 2), (3,)),
        4: ((0,), (1,), (2,), (3,)),
        8: ((0,), (1,), (2,), (3,)),
    },
    "bitonic": {
        1: ((0,),),
        2: ((0,),),
        3: ((0,),),
        4: ((0,),),
        8: ((0,),),
    },
    "bitonic_farm4": {
        1: ((0, 1, 2, 3),),
        2: ((0, 1), (2, 3)),
        3: ((0,), (1, 2), (3,)),
        4: ((0,), (1,), (2,), (3,)),
        8: ((0,), (1,), (2,), (3,)),
    },
    "bitonic_farm8": {
        1: ((0, 1, 2, 3, 4, 5, 6, 7),),
        2: ((0, 1, 2, 3), (4, 5, 6, 7)),
        3: ((0, 1, 2), (3, 4, 5), (6, 7)),
        4: ((0, 1), (2, 3), (4, 5), (6, 7)),
        8: ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)),
    },
    "farrow": {
        1: ((0, 1),),
        2: ((0,), (1,)),
        3: ((0,), (1,)),
        4: ((0,), (1,)),
        8: ((0,), (1,)),
    },
    "farrow_farm4": {
        1: ((0, 1, 2, 3, 4, 5, 6, 7),),
        2: ((0, 1, 2, 3), (4, 5, 6, 7)),
        3: ((0, 1, 2), (3, 4, 5), (6, 7)),
        4: ((0, 1), (2, 3), (4, 5), (6, 7)),
        8: ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)),
    },
    "feedback": {
        1: ((0, 1, 2, 3, 4),),
        2: ((0, 1, 2), (3, 4)),
        3: ((0,), (1, 2), (3, 4)),
        4: ((0,), (1, 2), (3,), (4,)),
        8: ((0,), (1, 2), (3,), (4,)),
    },
    "iir": {
        1: ((0,),),
        2: ((0,),),
        3: ((0,),),
        4: ((0,),),
        8: ((0,),),
    },
    "iir_farm4": {
        1: ((0, 1, 2, 3),),
        2: ((0, 1), (2, 3)),
        3: ((0,), (1, 2), (3,)),
        4: ((0,), (1,), (2,), (3,)),
        8: ((0,), (1,), (2,), (3,)),
    },
    "merge": {
        1: ((0, 1, 2, 3, 4),),
        2: ((0, 1), (2, 3, 4)),
        3: ((0, 1), (2, 3), (4,)),
        4: ((0,), (1,), (2, 3), (4,)),
        8: ((0,), (1,), (2, 3), (4,)),
    },
    "mixed_farm4": {
        1: ((0, 1, 2, 3, 4, 5),),
        2: ((0, 1, 2), (3, 4, 5)),
        3: ((0, 1), (2, 3), (4, 5)),
        4: ((0, 1), (2,), (3, 4), (5,)),
        8: ((0,), (1,), (2,), (3,), (4,), (5,)),
    },
    "reversed": {
        1: ((4, 3, 2, 1, 0, 5),),
        2: ((4, 3, 2), (1, 0, 5)),
        3: ((4, 3), (2, 1), (0, 5)),
        4: ((4, 3), (2,), (1, 0), (5,)),
        8: ((4,), (3,), (2,), (1,), (0,), (5,)),
    },
    "rtp_group": {
        1: ((0, 1, 2, 3),),
        2: ((0, 1), (2, 3)),
        3: ((0, 1), (2,), (3,)),
        4: ((0, 1), (2,), (3,)),
        8: ((0, 1), (2,), (3,)),
    },
    "two_realms": {
        1: ((1, 3, 4, 0, 2),),
        2: ((1, 3, 4), (0, 2)),
        3: ((1, 3), (4, 0), (2,)),
        4: ((1,), (3,), (4, 0), (2,)),
        8: ((1,), (3,), (4,), (0,), (2,)),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_GRAPHS))
def test_pinned_shard_layouts(name):
    g = resolve_graph(PINNED_GRAPHS[name])
    got = {w: place_graph(g, w).shards for w in PINNED_WORKERS}
    assert got == PINNED_SHARDS[name]


def test_feedback_loop_stays_on_one_worker():
    g = resolve_graph(FEEDBACK)
    by_name = {k.instance_name: k.index for k in g.kernels}
    for w in PINNED_WORKERS:
        pl = place_graph(g, w)
        assert (pl.worker_of[by_name["mp_add_0"]]
                == pl.worker_of[by_name["mp_fork_0"]])
        for _net, src, dst in pl.ring_keys():
            assert src < dst


def test_cgsim_mp_run_does_not_import_networkx():
    code = textwrap.dedent("""
        import sys
        from repro.apps.farm import BITONIC_FARM4, bitonic_farm_io, run_farm
        run_farm(BITONIC_FARM4, bitonic_farm_io(2), backend="cgsim-mp",
                 workers=2)
        print("networkx" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
