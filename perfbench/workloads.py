"""The benchmark workloads ``stream``, ``fused`` and ``farm``, and the
serve traffic mix the traced run drives.

Each workload has three phases, called by :mod:`run`:

``prepare(seed)``
    Generate the seeded inputs and their expected outputs.  Not timed:
    this is the caller's data, not the system's work.
``setup(state, tally)``
    Everything up to steady state — graph resolution, the untimed
    warm-up operations (which also pay the sharded backend's first
    fork).  ``setup_s`` times this phase.
``measure(state, ctx, tally, seconds)``
    The timed loop; returns ``<app>_blocks_per_s`` for the four apps
    plus a ``detail`` dict of supporting numbers.

Every operation's sinks are checked (:class:`Tally`); a wrong sink, an
unexpected end state, a refusal and a timeout each count as failed.
"""

from __future__ import annotations

import json
import os
import random
import time
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import apps as A
import calib
import stats

#: Warm-up requests submitted back to back before waiting for them.
WARM_BURST = 8
#: Fixed shuffle of the serve mix (the workload seed picks the data).
MIX_ORDER_SEED = 2025

BACKEND_COMBOS = tuple((b, o) for b in ("cgsim", "pysim", "x86sim")
                       for o in ("none", "fuse"))


def workers() -> int:
    """Worker threads/processes a workload may use: at most ``nproc``."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Tally:
    """Operations attempted and failed, with the names of the failures,
    plus the exact counts that must repeat from run to run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Dict[str, Any] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def count(self, key: str, value: Any) -> None:
        """Record an exact count; a second, different value for the same
        key inside one run is itself a failure."""
        value = json.loads(json.dumps(value, sort_keys=True))
        old = self.counts.setdefault(key, value)
        if old != value:
            self.check(False, f"count {key} changed within run: "
                              f"{old} -> {value}")

    def merge(self, other: Dict[str, Any]) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures.extend(other["failures"])


def run_op(app: str, graph: Any, ins: Tuple[Any, ...], backend: str,
           n_sinks: int = 1, **opts: Any):
    """One closed-loop operation: ``(seconds, RunResult, flat sinks)``."""
    from repro.exec import run_graph

    sinks: List[list] = [[] for _ in range(n_sinks)]
    t0 = perf_counter()
    result = run_graph(graph, *ins, *sinks, backend=backend, **opts)
    dt = perf_counter() - t0
    return dt, result, [A.flat(app, s) for s in sinks]


def record_counts(tally: Tally, key: str, result) -> None:
    tally.count(f"{key}.items", [result.items_in, result.items_out])
    if result.backend in ("cgsim", "pysim"):
        tally.count(f"{key}.context_switches", result.context_switches)
        tally.count(f"{key}.per_kernel_resumes", result.per_kernel_resumes)


def per_app_rate(blocks: Dict[str, int], times: Dict[str, List[float]]
                 ) -> Dict[str, float]:
    return {f"{app}_blocks_per_s": blocks[app] / stats.median(times[app])
            for app in A.APPS}


def timing_table(times: Dict[str, List[float]]) -> Dict[str, Any]:
    return {k: {"n": len(v), "median_s": stats.median(v),
                "spread": stats.spread(v)} for k, v in times.items()}


# ---------------------------------------------------------------------------
# stream / fused: closed loop, one caller, the Table 2 apps
# ---------------------------------------------------------------------------


class ClosedLoop:
    """One caller running each app in turn on fixed-size inputs."""

    name = ""
    blocks: Dict[str, int] = {}
    warm_blocks = {"bitonic": 8, "farrow": 2, "iir": 2, "bilinear": 1}
    #: ``(label, backend, options)`` the per-app metrics count, run for
    #: every app in every cycle of the timed loop.
    engine: Tuple[str, str, Dict[str, Any]] = ("", "", {})
    #: Engines run once per app after the timed loop, for comparison.
    once: Tuple[Tuple[str, str, Dict[str, Any]], ...] = ()

    def prepare(self, seed: int) -> Dict[str, Any]:
        return {"full": A.expected_by_app(self.blocks, seed),
                "warm": A.expected_by_app(self.warm_blocks, seed)}

    def setup(self, state, tally: Tally):
        from repro.exec import resolve_graph

        for app in A.APPS:
            resolve_graph(A.GRAPHS[app])
            ins, ref = state["warm"][app]
            outs = []
            for label, backend, opts in self.warm_engines():
                _, result, (got,) = run_op(app, A.GRAPHS[app], ins, backend,
                                           **opts)
                tally.check(result.completed and A.matches(app, got, ref),
                            f"warm {app} {label}")
                outs.append(got)
            tally.check(all(A.identical(outs[0], o) for o in outs),
                        f"warm {app}: sinks differ across engines")
        return None

    def warm_engines(self):
        return (self.engine,) + self.once

    def measure(self, state, ctx, tally: Tally, seconds: float):
        times: Dict[str, List[float]] = {}
        scaled: Dict[str, List[float]] = {}
        first: Dict[str, np.ndarray] = {}
        speed = calib.Speed()

        def op(app, label, backend, opts, what):
            ins, ref = state["full"][app]
            ref_dt, dt, result, (got,) = speed.timed(
                lambda: run_op(app, A.GRAPHS[app], ins, backend, **opts))
            scaled.setdefault(f"{label}.{app}", []).append(ref_dt)
            ok = tally.check(result.completed and A.matches(app, got, ref),
                             what)
            if ok and first.setdefault(app, got) is not got:
                tally.check(A.identical(first[app], got),
                            f"{what}: not bit-identical")
            record_counts(tally, f"{app}.{label}", result)
            times.setdefault(f"{label}.{app}", []).append(dt)

        label, backend, opts = self.engine
        deadline = perf_counter() + seconds
        ops = 0
        while ops < len(A.APPS) or perf_counter() < deadline:
            app = A.APPS[ops % len(A.APPS)]
            op(app, label, backend, opts, f"{app} {label} op {ops}")
            ops += 1
        for app in A.APPS:
            for label_o, backend_o, opts_o in self.once:
                op(app, label_o, backend_o, opts_o, f"{app} {label_o}")
        metrics = per_app_rate(self.blocks, {
            app: scaled[f"{label}.{app}"] for app in A.APPS})
        return metrics, {"ops": ops, "blocks": self.blocks,
                         "timings": timing_table(times),
                         "host_blocks_per_s": per_app_rate(self.blocks, {
                             app: times[f"{label}.{app}"]
                             for app in A.APPS})}


class Stream(ClosedLoop):
    """Table 2: the four apps unoptimised on cgsim and on x86sim."""

    name = "stream"
    #: Table 2's repetition counts; bilinear scaled up from its single
    #: repetition so one run is not start-up noise.
    blocks = {"bitonic": 1024, "farrow": 512, "iir": 256, "bilinear": 16}
    engine = ("cgsim", "cgsim", {})
    once = (("x86sim", "x86sim", {}),)

    def measure(self, state, ctx, tally, seconds):
        metrics, detail = super().measure(state, ctx, tally, seconds)
        med = {k: v["median_s"] for k, v in detail["timings"].items()}
        x86_total = sum(med[f"x86sim.{a}"] for a in A.APPS)
        detail["x86sim_blocks_per_s"] = sum(self.blocks.values()) / x86_total
        detail["paper_shape"] = table2_shape(med)
        return metrics, detail


#: Paper Table 2: which engine is faster per app (x86sim wins farrow).
PAPER_CGSIM_FASTER = {"bitonic": True, "farrow": False, "iir": True,
                      "bilinear": True}


def table2_shape(med: Dict[str, float]) -> Dict[str, Any]:
    out = {}
    for app in A.APPS:
        ratio = med[f"x86sim.{app}"] / med[f"cgsim.{app}"]
        out[f"table2.{app}.cgsim_faster_than_x86sim"] = {
            "value": ratio > 1.0, "ratio_x86sim_over_cgsim": ratio,
            "paper": PAPER_CGSIM_FASTER[app]}
    return out


class Fused(ClosedLoop):
    """The same apps through the plan compiler (``optimize="full"``)."""

    name = "fused"
    #: Scaled up from Table 2 so a fused run is not mostly set-up.
    blocks = {"bitonic": 16384, "farrow": 1024, "iir": 1024, "bilinear": 256}
    engine = ("full", "cgsim", {"optimize": "full"})

    def warm_engines(self):
        # Optimize levels must agree bit for bit; checked on the warm-up.
        return (("none", "cgsim", {}), self.engine)

    def setup(self, state, tally):
        from repro.exec import plan_cache_stats

        super().setup(state, tally)
        tally.count("plan_cache.setup_misses", plan_cache_stats()["misses"])

    def measure(self, state, ctx, tally, seconds):
        from repro.exec import plan_cache_stats

        before = plan_cache_stats()
        metrics, detail = super().measure(state, ctx, tally, seconds)
        after = plan_cache_stats()
        ops = detail["ops"]
        tally.count("plan_cache.hits_per_op",
                    (after["hits"] - before["hits"]) / ops)
        tally.count("plan_cache.measure_misses",
                    after["misses"] - before["misses"])
        return metrics, detail


# ---------------------------------------------------------------------------
# serve: open loop into an in-process GraphService
# ---------------------------------------------------------------------------


class Serve:
    """The serve traffic: four tenants submitting tiny runs, open loop,
    into an in-process :class:`~repro.serve.GraphService`.  Driven by the
    traced run's serve slice (:func:`traced.serve_layers`)."""

    blocks = {"bitonic": 2, "farrow": 1, "iir": 1, "bilinear": 1}
    #: Requests per app in one mix period (each a multiple of the six
    #: backend x optimize combinations, so every seed sees the same mix).
    per_app = {"bitonic": 60, "farrow": 60, "iir": 60, "bilinear": 24}
    variants = 4
    nominal_rps = 40.0
    tenants = 4
    #: p99 must rest on at least this many samples (ten beyond it).
    min_samples = 1000

    def __init__(self):
        self.submitted = 0  # run ids are unique per process

    # -- inputs --------------------------------------------------------

    def prepare(self, seed: int) -> Dict[str, Any]:
        from repro.exec import run_graph
        from repro.serve.wire import encode_value

        data = {}
        for app in A.APPS:
            for v in range(self.variants):
                ins = A.inputs(app, self.blocks[app], seed * 1000 + v)
                ref = A.reference(app, ins)
                sink: list = []
                run_graph(A.GRAPHS[app], *ins, sink, backend="cgsim")
                data[app, v] = ([encode_value(x) for x in ins], ref,
                                A.flat(app, sink))
        graphs = {app: json.loads(A.GRAPHS[app].serialized.to_json())
                  for app in A.APPS}
        faults = {app: A.first_kernel(app) for app in A.APPS}
        mix = self.mix(seed)
        bodies = []
        for i, req in enumerate(mix):
            app = req["app"]
            wire_ins, _, _ = data[app, req["variant"]]
            doc: Dict[str, Any] = {"inputs": wire_ins, "options": {
                "backend": req["backend"], "optimize": req["optimize"]}}
            if req["embedded"]:
                doc["graph"] = graphs[app]
            else:
                doc["app"] = app
            if req["traced"]:
                doc["trace"] = True
            if req["faulted"]:
                # The first resume: a fused driver drains a tiny input
                # in one resume, so a later one may never come.
                doc["options"]["faults"] = [
                    {"kind": "kernel", "kernel": faults[app],
                     "at_resume": 0}]
                req["fault_kernel"] = faults[app]
            bodies.append(json.dumps(doc).encode())
        return {"data": data, "mix": mix, "bodies": bodies}

    def mix(self, seed: int) -> List[Dict[str, Any]]:
        """One mix period: per app, every backend/optimize combination
        equally often; 1 in 8 traced, 1 in 8 embedding the serialized
        graph, about 1 in 16 carrying a kernel fault.  Which requests carry
        which flag, and the order, are one fixed shuffle (which heavy
        requests meet decides queueing); the seed picks each request's
        input data."""
        rng, fixed = random.Random(seed), random.Random(MIX_ORDER_SEED)
        mix = []
        for app, n in self.per_app.items():
            flags = (["traced"] * (n // 8) + ["embedded"] * (n // 8)
                     + ["faulted"] * round(n / 16))
            flags += [""] * (n - len(flags))
            fixed.shuffle(flags)
            for k, flag in enumerate(flags):
                backend, opt = BACKEND_COMBOS[k % len(BACKEND_COMBOS)]
                mix.append({"app": app, "backend": backend,
                            "optimize": opt, "traced": flag == "traced",
                            "embedded": flag == "embedded",
                            "faulted": flag == "faulted",
                            "variant": rng.randrange(self.variants)})
        fixed.shuffle(mix)
        return mix

    # -- phases --------------------------------------------------------

    def setup(self, state, tally: Tally):
        from repro.serve import GraphService, ServeConfig

        svc = GraphService(ServeConfig(workers=workers()))
        svc.start()
        # Warm-up: every distinct request shape once.
        seen, warm = set(), []
        for i, req in enumerate(state["mix"]):
            key = tuple(req[k] for k in ("app", "backend", "optimize",
                                          "traced", "embedded", "faulted"))
            if key not in seen:
                seen.add(key)
                warm.append(i)
        # In bursts the queue and the per-tenant caps admit.
        for lo in range(0, len(warm), WARM_BURST):
            reqs = self.phase(svc, state, warm[lo:lo + WARM_BURST], rate=None)
            self.check(state, reqs, tally, "warm")
        return svc

    def teardown(self, svc) -> None:
        svc.stop()

    def phase(self, svc, state, indices, rate: Optional[float],
              spans: Any = None) -> List[Dict[str, Any]]:
        """Submit requests ``indices`` (cycling the mix) on an open-loop
        schedule at *rate* per second (``None``: back to back), wait
        for them all, and return one record per request.  With *spans*
        (the traced run), each submission's spans carry its run id."""
        from repro.serve.scheduler import AdmissionError

        mix, bodies = state["mix"], state["bodies"]
        reqs = []
        t0 = time.time() + 0.01
        for j, i in enumerate(indices):
            due = t0 + (j / rate if rate else 0.0)
            now = time.time()
            if due > now:
                time.sleep(due - now)
            sent = time.time()
            if not rate:
                due = sent
            self.submitted += 1
            run_id = f"bench-{self.submitted}"
            req = dict(mix[i % len(mix)], due=due, sent=sent, run_id=None)
            if spans is not None:
                spans.op(run_id)
            try:
                svc.submit(f"tenant{j % self.tenants}", bodies[i % len(mix)],
                           run_id=run_id)
                req["run_id"] = run_id
            except AdmissionError:
                pass
            req["backlog"] = svc.scheduler.pending + svc.scheduler.active
            reqs.append(req)
        idle = svc.scheduler.wait_idle(timeout=120.0)
        for req in reqs:
            rec = svc.registry.get(req["run_id"]) if req["run_id"] else None
            req["record"] = rec
            req["done"] = rec.finished_ts if rec is not None else None
            req["timeout"] = not idle
        lat, _ = stats.open_loop([r["due"] for r in reqs],
                                 [r["sent"] for r in reqs],
                                 [r["done"] for r in reqs])
        for req, x in zip(reqs, lat):
            req["latency"] = x
        return reqs

    def check(self, state, reqs, tally: Tally, label: str) -> None:
        from repro.serve.wire import decode_value

        for j, req in enumerate(reqs):
            rec, app = req["record"], req["app"]
            what = (f"{label} req {j} {app} {req['backend']}/"
                    f"{req['optimize']}")
            if rec is None:
                req["ok"] = tally.check(False, f"{what}: refused")
                continue
            if req["timeout"] or rec.state in ("queued", "running"):
                req["ok"] = tally.check(False, f"{what}: timed out")
                continue
            if req["faulted"]:
                fr = (rec.result_wire or {}).get("failure") or {}
                # A fused equivalent is named after all its members.
                blamed = str(fr.get("failing_task", "")).split("+")
                req["ok"] = tally.check(
                    rec.state == "failed" and req["fault_kernel"] in blamed,
                    f"{what}: fault not contained as expected "
                    f"({rec.state}, {fr.get('failing_task')})")
                continue
            _, ref, exact = state["data"][app, req["variant"]]
            ok = rec.state == "ok" and rec.outputs_wire is not None
            if ok:
                got = A.flat(app, decode_value(rec.outputs_wire[0]))
                ok = A.matches(app, got, ref) and A.identical(got, exact)
            req["ok"] = tally.check(ok, f"{what}: {rec.state}, wrong sinks"
                                    if rec.state == "ok" else
                                    f"{what}: {rec.state}")
            if ok and rec.result_wire:
                rw = rec.result_wire
                key = f"{app}.{req['backend']}.{req['optimize']}"
                tally.count(f"{key}.items", [rw["items_in"], rw["items_out"]])
                if req["backend"] != "x86sim":
                    tally.count(f"{key}.context_switches",
                                rw["context_switches"])


# ---------------------------------------------------------------------------
# farm: the sharded cgsim-mp backend on 4-lane farms
# ---------------------------------------------------------------------------


class Farm:
    """4-lane farms of every app on ``cgsim-mp``, one caller."""

    name = "farm"
    blocks_per_lane = {"bitonic": 400, "farrow": 96, "iir": 192,
                       "bilinear": 8}
    warm_per_lane = {"bitonic": 4, "farrow": 1, "iir": 1, "bilinear": 1}

    def prepare(self, seed: int) -> Dict[str, Any]:
        state = {}
        for key, sizes in (("full", self.blocks_per_lane),
                           ("warm", self.warm_per_lane)):
            state[key] = {}
            for app in A.APPS:
                lanes = A.farm_inputs(app, sizes[app], seed)
                state[key][app] = ([x for lane in lanes for x in lane],
                                   A.lane_refs(app, lanes))
        return state

    def op(self, app, ins, backend):
        opts = {"workers": workers()} if backend == "cgsim-mp" else {}
        return run_op(app, A.FARMS[app], ins, backend,
                      n_sinks=A.FARM_LANES, **opts)

    def check(self, tally, app, what, result, got, refs) -> bool:
        return tally.check(result.completed and all(
            A.matches(app, g, r) for g, r in zip(got, refs)), what)

    def setup(self, state, tally: Tally):
        # The first sharded call of the process pays the cold start.
        for app in A.APPS:
            ins, refs = state["warm"][app]
            _, result, got = self.op(app, ins, "cgsim-mp")
            self.check(tally, app, f"{app} warm cgsim-mp", result, got, refs)
        return None

    def measure(self, state, ctx, tally: Tally, seconds: float):
        times: Dict[str, List[float]] = {a: [] for a in A.APPS}
        scaled: Dict[str, List[float]] = {a: [] for a in A.APPS}
        walls: Dict[str, List[float]] = {a: [] for a in A.APPS}
        last: Dict[str, List[np.ndarray]] = {}
        speed = calib.Speed(each_core=True)
        deadline = perf_counter() + seconds
        ops = 0
        while ops < len(A.APPS) or perf_counter() < deadline:
            app = A.APPS[ops % len(A.APPS)]
            ins, refs = state["full"][app]
            ref_dt, dt, result, got = speed.timed(
                lambda: self.op(app, ins, "cgsim-mp"))
            self.check(tally, app, f"{app} cgsim-mp op {ops}", result, got,
                       refs)
            tally.count(f"{app}.cgsim-mp.items",
                        [result.items_in, result.items_out])
            times[app].append(dt)
            scaled[app].append(ref_dt)
            walls[app].append(max(result.raw.worker_walls.values()))
            last[app] = got
            ops += 1
        # Single-process baseline, once per run; sharding must be
        # invisible in the data.
        base = {}
        for app in A.APPS:
            ins, refs = state["full"][app]
            dt, result, got = self.op(app, ins, "cgsim")
            self.check(tally, app, f"{app} cgsim baseline", result, got,
                       refs)
            tally.check(all(A.identical(a, b) for a, b in zip(got, last[app])),
                        f"{app}: cgsim-mp sinks differ from cgsim")
            record_counts(tally, f"{app}.cgsim", result)
            base[app] = dt
        lanes_blocks = {a: A.FARM_LANES * n
                        for a, n in self.blocks_per_lane.items()}
        detail = {"ops": ops, "blocks_per_lane": self.blocks_per_lane,
                  "workers": workers(), "timings": timing_table(times),
                  "host_blocks_per_s": per_app_rate(lanes_blocks, times),
                  "worker_wall_max_s": {a: stats.median(w)
                                        for a, w in walls.items()},
                  "cgsim_baseline_s": base,
                  "speedup_vs_cgsim": {a: base[a] / stats.median(times[a])
                                       for a in A.APPS}}
        return per_app_rate(lanes_blocks, scaled), detail


WORKLOADS = {w.name: w for w in (Stream(), Fused(), Farm())}
