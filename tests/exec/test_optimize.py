"""The cgsim optimizing plan: chain fusion, caching, and equivalence.

Covers the analysis pass (``repro.exec.optimize``), the runtime half
(``repro.core.fused`` driven through the cgsim backend), the plan and
deserialization caches, and — most importantly — *differential output
equivalence*: every app graph must produce bit-identical sink contents
fused and unfused, across queue capacities and the batched-I/O fast
path.
"""

import json

import numpy as np
import pytest

from repro.apps import bilinear, bitonic, datasets, farrow, iir
from repro.core import IoC, IoConnector, make_compute_graph
from repro.core.dtypes import int64
from repro.errors import FaultPlanError, GraphRuntimeError
from repro.exec import (
    analyze_graph,
    clear_plan_cache,
    clear_resolve_cache,
    get_plan,
    plan_cache_stats,
    register_fused_equivalent,
    resolve_graph,
    run_graph,
)
from repro.faults import NetCorrupt, NetDrop
from repro.observe import FAULT_INJECT
from repro.testing import t_add, t_dbl, t_inc, t_neg


@pytest.fixture
def fusion_registry_guard():
    """Snapshot/restore the fused-equivalent registry around a test."""
    import repro.exec.optimize as opt

    saved = dict(opt._FUSION_REGISTRY)
    yield
    opt._FUSION_REGISTRY.clear()
    opt._FUSION_REGISTRY.update(saved)
    clear_plan_cache()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class TestAnalysis:
    def test_linear_chain_fuses(self, fig4_graph):
        plan = analyze_graph(fig4_graph.graph, "fuse")
        assert plan is not None and plan.level == "fuse"
        assert len(plan.chains) == 1
        ch = plan.chains[0]
        assert ch.name.startswith("fused:")
        assert len(ch.members) == 2
        # a -> [dbl -> dbl] -> c: one elided link, input fed straight
        # from the data, output stored straight into the sink.
        assert len(ch.link_nets) == 1
        assert len(ch.feed_nets) == 1
        assert len(ch.store_nets) == 1
        assert plan.fused_instance_idxs == {0, 1}

    def test_broadcast_is_a_barrier(self, broadcast_graph):
        g = broadcast_graph.graph
        plan = analyze_graph(g, "fuse")
        assert plan is not None
        mid = next(net.net_id for net in g.nets if net.name == "mid")
        for ch in plan.chains:
            assert mid not in ch.link_nets
            # No chain spans across the broadcast: every chain here is a
            # single member.
            assert len(ch.members) == 1

    def test_rtp_input_stays_latched(self, rtp_graph):
        g = rtp_graph.graph
        plan = analyze_graph(g, "fuse")
        assert plan is not None and len(plan.chains) == 1
        ch = plan.chains[0]
        rtp_nets = {
            net.net_id for net in g.nets
            if net.settings.runtime_parameter
        }
        assert rtp_nets
        for nid in rtp_nets:
            assert nid not in ch.link_nets
            assert nid not in ch.feed_nets
            assert nid not in ch.store_nets

    def test_level_none_is_a_bypass(self, fig4_graph):
        assert analyze_graph(fig4_graph.graph, "none") is None

    def test_unknown_level_rejected(self, fig4_graph):
        with pytest.raises(GraphRuntimeError, match="optimize level"):
            analyze_graph(fig4_graph.graph, "turbo")
        with pytest.raises(GraphRuntimeError):
            run_graph(fig4_graph, [1], [], backend="cgsim",
                      optimize="turbo")


# ---------------------------------------------------------------------------
# Differential equivalence on the four paper apps
# ---------------------------------------------------------------------------

_N = {"bitonic": 10, "farrow": 6, "iir": 4, "bilinear": 3}
_DATA: dict = {}
_BASELINE: dict = {}


def _run_app(app: str, **run_options) -> np.ndarray:
    if app not in _DATA:
        if app == "bitonic":
            _DATA[app] = (datasets.bitonic_blocks(_N[app]),)
        elif app == "farrow":
            _DATA[app] = datasets.farrow_blocks(_N[app])
        elif app == "iir":
            _DATA[app] = (datasets.iir_blocks(_N[app]),)
        else:
            _DATA[app] = datasets.bilinear_blocks(_N[app])
    data = _DATA[app]
    mod = {"bitonic": bitonic, "farrow": farrow,
           "iir": iir, "bilinear": bilinear}[app]
    return mod.run_cgsim(*data, **run_options)


OPT_VARIANTS = [
    {},
    {"capacity": 1},
    {"capacity": 2},
    {"batch_io": 8},
    {"capacity": 1, "batch_io": 8},
]


class TestDifferential:
    @pytest.mark.parametrize("app", ["bitonic", "farrow", "iir", "bilinear"])
    @pytest.mark.parametrize("level", ["fuse", "full"])
    @pytest.mark.parametrize(
        "opts", OPT_VARIANTS,
        ids=["default", "cap1", "cap2", "batch8", "cap1+batch8"],
    )
    def test_fused_output_identical(self, app, level, opts):
        if app not in _BASELINE:
            _BASELINE[app] = _run_app(app)
        fused = _run_app(app, optimize=level, **opts)
        assert fused.dtype == _BASELINE[app].dtype
        assert np.array_equal(fused, _BASELINE[app]), (
            f"{app}: optimize={level} opts={opts} diverged from the "
            f"unfused baseline"
        )


# ---------------------------------------------------------------------------
# Plan cache + resolve memo
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hit_returns_same_plan(self, fig4_graph):
        clear_plan_cache()
        base = plan_cache_stats()
        p1 = get_plan(fig4_graph, fig4_graph.graph, "fuse")
        p2 = get_plan(fig4_graph, fig4_graph.graph, "fuse")
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats["misses"] == base["misses"] + 1
        assert stats["hits"] == base["hits"] + 1
        assert stats["entries"] >= 1

    def test_levels_cached_separately(self, fig4_graph):
        clear_plan_cache()
        p_fuse = get_plan(fig4_graph, fig4_graph.graph, "fuse")
        p_full = get_plan(fig4_graph, fig4_graph.graph, "full")
        assert p_fuse.level == "fuse" and p_full.level == "full"
        assert p_fuse is not p_full

    def test_fusion_registry_change_invalidates(self, fig4_graph,
                                                fusion_registry_guard):
        clear_plan_cache()
        p1 = get_plan(fig4_graph, fig4_graph.graph, "fuse")
        register_fused_equivalent(("__test_dummy__",), t_dbl)
        p2 = get_plan(fig4_graph, fig4_graph.graph, "fuse")
        assert p2 is not p1  # epoch bumped, plan recompiled
        assert p2.fused_instance_idxs == p1.fused_instance_idxs

    def test_clear_plan_cache(self, fig4_graph):
        get_plan(fig4_graph, fig4_graph.graph, "fuse")
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"],
                stats["graphs"]) == (0, 0, 0, 0)


class TestResolveMemo:
    def test_serialized_graph_memoized(self, fig4_graph):
        s = fig4_graph.serialized
        clear_resolve_cache()
        g1 = resolve_graph(s)
        g2 = resolve_graph(s)
        assert g1 is g2

    def test_clear_resolve_cache(self, fig4_graph):
        s = fig4_graph.serialized
        g1 = resolve_graph(s)
        clear_resolve_cache()
        assert resolve_graph(s) is not g1

    def test_kernel_registration_invalidates(self, fig4_graph):
        from repro.core import AIE, In, Out, compute_kernel

        s = fig4_graph.serialized
        g1 = resolve_graph(s)

        @compute_kernel(realm=AIE)
        async def _memo_probe_kernel(a: In[int64], z: Out[int64]):
            while True:
                await z.put(await a.get())

        assert resolve_graph(s) is not g1  # registry epoch moved

    def test_fused_run_from_serialized_form(self, fig4_graph):
        out = []
        result = run_graph(fig4_graph.serialized, [1, 2, 3], out,
                           backend="cgsim", optimize="full")
        assert result.completed and out == [4, 8, 12]


class TestKernelMutationRecompile:
    """A kernel re-registered (mutated) after a cached run must not be
    resurrected by the resolve memo, the plan cache, or the compiled
    carrier's own deserialization cache."""

    @staticmethod
    def _register_probe(factor):
        from repro.core import AIE, In, Out, compute_kernel

        @compute_kernel(realm=AIE)
        async def mut_probe_kernel(a: In[int64], z: Out[int64]):
            while True:
                await z.put(factor * (await a.get()))

        return mut_probe_kernel

    def _build(self):
        k = self._register_probe(2)

        @make_compute_graph(name="mutprobe")
        def g(a: IoC[int64]):
            o = IoConnector(int64)
            k(a, o)
            return o

        return g

    def test_mutation_then_clear_recompiles_serialized(self):
        g = self._build()
        s = g.serialized
        out1 = []
        run_graph(s, [1, 2, 3], out1, backend="cgsim", optimize="fuse")
        assert out1 == [2, 4, 6]
        resolved_before = resolve_graph(s)

        self._register_probe(3)  # same registry key, new behavior
        clear_resolve_cache()
        clear_plan_cache()
        stats = plan_cache_stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 0, 0)

        assert resolve_graph(s) is not resolved_before
        out2 = []
        run_graph(s, [1, 2, 3], out2, backend="cgsim", optimize="fuse")
        assert out2 == [3, 6, 9]

    def test_mutation_invalidates_compiled_carrier_cache(self):
        g = self._build()
        out1 = []
        run_graph(g, [4], out1, backend="cgsim")
        assert out1 == [8]
        cached = g.graph

        self._register_probe(5)
        assert g.graph is not cached  # registry epoch moved
        out2 = []
        run_graph(g, [4], out2, backend="cgsim")
        assert out2 == [20]

    def test_epoch_alone_invalidates_without_explicit_clear(self):
        g = self._build()
        s = g.serialized
        out1 = []
        run_graph(s, [7], out1, backend="cgsim", optimize="fuse")
        assert out1 == [14]

        self._register_probe(10)  # epoch bump is sufficient by itself
        out2 = []
        run_graph(s, [7], out2, backend="cgsim", optimize="fuse")
        assert out2 == [70]


# ---------------------------------------------------------------------------
# Stats, diagnostics, tracing
# ---------------------------------------------------------------------------


@make_compute_graph(name="starved_merge")
def STARVED_MERGE(a: IoC[int64], b: IoC[int64]):
    """dbl -> dbl chain feeding a merge whose other input is starved."""
    m = IoConnector(int64, name="m")
    c = IoConnector(int64, name="c")
    z = IoConnector(int64, name="z")
    t_dbl(a, m)
    t_dbl(m, c)
    t_add(c, b, z)
    return z


def _kernel_lines(diagnosis):
    """``{kernel: its blocked line}`` of a stall diagnosis."""
    return {ln.split()[0]: ln.strip() for ln in diagnosis.splitlines()
            if "(kernel) blocked on" in ln}


def _kernel_states(result):
    return {k: v for k, v in result.task_states.items()
            if not k.startswith(("source[", "sink["))}


class TestStatsAndDiagnostics:
    def test_per_member_accounting(self, fig4_graph):
        out = []
        r0 = run_graph(fig4_graph, [1, 2, 3], out, backend="cgsim",
                       profile=True)
        out = []
        r1 = run_graph(fig4_graph, [1, 2, 3], out, backend="cgsim",
                       profile=True, optimize="full")
        assert out == [4, 8, 12]
        # Fused-driver time is attributed to the member kernels — the
        # same kernel names as the unfused run, never the driver.  The
        # source/sink tasks are elided by design (feed/store binding).
        kernels = {k for k in r0.per_kernel_resumes
                   if not k.startswith(("source[", "sink["))}
        assert set(r1.per_kernel_resumes) == kernels
        assert not any(k.startswith("fused:")
                       for k in r1.per_kernel_resumes)
        assert kernels <= set(r1.per_kernel_time)
        assert r1.context_switches < r0.context_switches

    def test_blockage_names_the_member(self):
        """Fused members are ordinary tasks: each blocked kernel's line
        under ``fuse`` is its line in the unfused run."""
        lines = {}
        for level in ("none", "fuse"):
            result = run_graph(STARVED_MERGE, [1, 2, 3, 4], [], [],
                               backend="cgsim", capacity=1, optimize=level)
            assert not result.completed
            lines[level] = _kernel_lines(result.stall_diagnosis)
        assert set(lines["fuse"]) == {"t_dbl_0", "t_dbl_1", "t_add_0"}
        assert lines["fuse"] == lines["none"]

    def test_unfused_blockage_unchanged(self):
        out = []
        result = run_graph(STARVED_MERGE, [1, 2, 3, 4], [], out,
                           backend="cgsim", capacity=1)
        assert not result.completed
        assert "fused into" not in result.stall_diagnosis

    def test_traced_fused_run_is_loadable(self, fig4_graph):
        from repro.observe import Tracer, chrome_trace

        tracer = Tracer()
        out = []
        result = run_graph(fig4_graph, [1, 2, 3], out, backend="cgsim",
                           optimize="full", observe=tracer)
        tracer.close()
        assert result.completed and out == [4, 8, 12]
        doc = chrome_trace(tracer.events)
        text = json.dumps(doc)  # must be a serializable document
        reloaded = json.loads(text)
        assert reloaded["traceEvents"]
        # Member tasks carry the original kernel names.
        baseline = run_graph(fig4_graph, [1, 2, 3], [], backend="cgsim",
                             profile=True)
        members = [k for k in baseline.per_kernel_resumes
                   if not k.startswith(("source[", "sink["))]
        assert members
        for member in members:
            assert member in text


# ---------------------------------------------------------------------------
# Chains whose members all touch shared queues, and faults inside chains
# ---------------------------------------------------------------------------


@make_compute_graph(name="shared_ends")
def SHARED_ENDS(a: IoC[int64], x: IoC[int64]):
    """t_add -> t_dbl: the head also reads ``x``, which t_neg reads
    too, and the tail writes ``w``, which two kernels read — both
    members touch queues shared with tasks outside the chain."""
    y = IoConnector(int64, name="y")
    w = IoConnector(int64, name="w")
    r = IoConnector(int64, name="r")
    p = IoConnector(int64, name="p")
    q = IoConnector(int64, name="q")
    t_add(a, x, y)
    t_dbl(y, w)
    t_neg(x, r)
    t_inc(w, p)
    t_neg(w, q)
    return p, q, r


class TestSharedQueueChains:
    def test_chain_with_two_shared_ends_is_planned(self):
        g = SHARED_ENDS.graph
        plan = analyze_graph(g, "fuse")
        chain = next(ch for ch in plan.chains if len(ch.members) == 2)
        assert [m.name for m in chain.members] == ["t_add_0", "t_dbl_0"]
        assert [g.net(n).name for n in chain.link_nets] == ["y"]
        assert len(chain.feed_nets) == 1  # input a, read by the head only
        assert chain.store_nets == ()

    @pytest.mark.parametrize("x", [[10, 20, 30, 40, 50, 60], [10, 20, 30]],
                             ids=["complete", "starved"])
    def test_runs_like_unfused(self, x):
        runs = {}
        for level in ("none", "fuse"):
            sinks = ([], [], [])
            result = run_graph(SHARED_ENDS, [1, 2, 3, 4, 5, 6], x, *sinks,
                               backend="cgsim", capacity=2, optimize=level)
            runs[level] = (result.completed, sinks, _kernel_states(result),
                           _kernel_lines(result.stall_diagnosis))
        assert runs["fuse"] == runs["none"]
        assert runs["fuse"][0] == (len(x) == 6)

    @pytest.mark.parametrize("fault", [
        NetDrop("b", every=3), NetCorrupt("b", every=2, offset=1),
    ], ids=["drop", "corrupt"])
    def test_fault_on_chain_net_fires_as_unfused(self, fig4_graph, fault):
        """``b`` links fig4's two fused members: an ordinary queue, so a
        fault proxy sits on it as in the unfused run."""
        runs = {}
        for level in ("none", "fuse"):
            out = []
            result = run_graph(fig4_graph, list(range(1, 26)), out,
                               observe=True, optimize=level, faults=fault)
            fired = [ev.meta for ev in result.trace.events
                     if ev.kind == FAULT_INJECT]
            runs[level] = (out, fired)
        assert runs["fuse"][1]
        assert runs["fuse"] == runs["none"]

    @pytest.mark.parametrize("net", ["a", "c", "acc"])
    def test_fault_on_unqueued_net_is_refused(self, fig4_graph, net):
        """Under ``fuse`` fig4's input ``a`` and output ``c`` are bound
        to the caller's lists, and farrow's ``acc`` lies inside the
        fused equivalent: no queue carries them, so a fault on one could
        never fire."""
        if net == "acc":
            blocks, mu = datasets.farrow_blocks(1)
            io, graph = (blocks, int(mu), []), farrow.FARROW_GRAPH
        else:
            io, graph = ([1, 2, 3], []), fig4_graph
        with pytest.raises(FaultPlanError, match=f"'{net}'"):
            run_graph(graph, *io, optimize="fuse",
                      faults=NetDrop(net, every=2))


# ---------------------------------------------------------------------------
# Backend surface
# ---------------------------------------------------------------------------


class TestBackendSurface:
    @pytest.mark.parametrize("backend", ["pysim", "x86sim"])
    def test_other_backends_accept_and_ignore(self, fig4_graph, backend):
        out = []
        result = run_graph(fig4_graph, [1, 2, 3], out, backend=backend,
                           optimize="full")
        assert result.completed and out == [4, 8, 12]

    def test_x86sim_still_rejects_batch_io(self, fig4_graph):
        with pytest.raises(GraphRuntimeError, match="batch_io"):
            run_graph(fig4_graph, [1], [], backend="x86sim", batch_io=8)

    def test_rtp_graph_runs_fused(self, rtp_graph):
        out = []
        result = run_graph(rtp_graph, [1.0, 2.0, 3.0], 4, out,
                           backend="cgsim", optimize="full")
        assert result.completed
        assert out == [4.0, 8.0, 12.0]
