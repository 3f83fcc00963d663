"""The traced run: per-layer numbers, separate from the timed runs.

Spans are recorded from the benchmark's side, around each public layer
call (``resolve_graph``, ``get_plan``, ``get_backend(b).prepare`` /
``.run``, ``parse_submission``, ``GraphService.submit``,
``encode_value``, ``run_graph`` inside the service).  Nothing inside the
program is instrumented.

Every traced run reports every per-layer metric.  The layers a workload
does not use itself (x86sim outside ``stream``, ``mp`` outside ``farm``,
``serve`` outside ``serve``) are measured by that layer's own slice at
probe size, so those numbers describe the layer, not the workload.  The
generic ``exec``/``core``/``apps``/``observe`` numbers always come from
the workload's own engine and sizes.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Tuple

import apps as A
import stats
import workloads as W

#: Per-app sizes of the probe slices.
PROBE_BLOCKS = {"bitonic": 64, "farrow": 8, "iir": 8, "bilinear": 2}
PROBE_PER_LANE = {"bitonic": 32, "farrow": 4, "iir": 8, "bilinear": 1}
#: Tail-latency limit of the serve rate ladder.
SERVE_TAIL_LIMIT_MS = 100.0
LADDER_STEP = 1.1
LADDER_MAX_STEPS = 20
LADDER_STEP_S = 2.0
#: Table 1 simulation length and the Farrow delay RTP.
AIESIM_BLOCKS = 8
FARROW_RTP = {"mu": 13107}


def _ms(xs: List[float]) -> float:
    return 1e3 * stats.median(xs)


def _p99(xs: List[float]) -> float:
    """p99 when the sample supports it, else the highest tail that does."""
    if stats.supports(len(xs), 99):
        return stats.nearest_rank(xs, 99)
    t = stats.tail(xs)
    return t[1] if t else max(xs)


def _kernel_time(result) -> float:
    return sum(v for k, v in result.per_kernel_time.items()
               if not k.startswith(("source[", "sink[")))


# ---------------------------------------------------------------------------
# exec / core / apps / observe on the workload's own engine
# ---------------------------------------------------------------------------


def _engine(primary: str):
    """``(graphs, blocks per app, sinks, backend, options, reps)``."""
    if primary == "farm":
        return (A.FARMS, W.Farm.blocks_per_lane, A.FARM_LANES, "cgsim-mp",
                {"workers": W.workers()}, 1)
    if primary == "fused":
        return A.GRAPHS, W.Fused.blocks, 1, "cgsim", {"optimize": "full"}, 2
    return A.GRAPHS, W.Stream.blocks, 1, "cgsim", {}, 1


def _io(primary: str, app: str, n: int, seed: int):
    """``(flat inputs, per-sink references, blocks in one op)``."""
    if primary == "farm":
        lanes = A.farm_inputs(app, n, seed)
        return ([x for lane in lanes for x in lane], A.lane_refs(app, lanes),
                A.FARM_LANES * n)
    ins = A.inputs(app, n, seed)
    return list(ins), [A.reference(app, ins)], n


def direct_layers(spans, primary: str, seed: int, tally) -> Tuple[Dict, Dict]:
    from repro.core.serialize import SerializedGraph
    from repro.exec import (
        clear_plan_cache, get_backend, get_plan, plan_cache_stats,
        resolve_graph,
    )

    graphs, blocks, n_sinks, backend, opts, reps = _engine(primary)
    b = get_backend(backend)
    cold, warm, compile_s = [], [], []
    clear_plan_cache()
    for app in A.APPS:
        fresh = SerializedGraph.from_json(graphs[app].serialized.to_json())
        spans.op(f"{app}.resolve")
        with spans.span("exec.resolve_graph", cold=True) as sp:
            g = resolve_graph(fresh)
        cold.append(spans.rows[sp.idx]["end"] - spans.rows[sp.idx]["start"])
        t0 = perf_counter()
        resolve_graph(fresh)
        warm.append(perf_counter() - t0)
        with spans.span("exec.get_plan", cold=True):
            t0 = perf_counter()
            get_plan(fresh, g, "full")
            compile_s.append(perf_counter() - t0)

    before = plan_cache_stats()
    per: Dict[str, Dict[str, List[float]]] = {}
    ctx = tot_blocks = events = 0
    kf_num = kf_den = 0.0
    reported: List[float] = []
    for app in A.APPS:
        ins, refs, nblk = _io(primary, app, blocks[app], seed)
        row = per.setdefault(app, {k: [] for k in (
            "op", "prepare", "run", "kernel", "blocked", "plain",
            "observe")})
        for k in range(reps):
            spans.op(f"{app}.{k}")
            sinks: List[list] = [[] for _ in range(n_sinks)]
            with spans.span("op", app=app) as top:
                with spans.span("exec.resolve_graph"):
                    resolve_graph(graphs[app])
                with spans.span("exec.prepare", backend=backend) as sp:
                    plan = b.prepare(graphs[app], tuple(ins) + tuple(sinks),
                                     **opts)
                with spans.span("exec.run", backend=backend) as sr:
                    result = b.run(plan, profile=True)
            rows = spans.rows
            dur = [rows[s.idx]["end"] - rows[s.idx]["start"]
                   for s in (top, sp, sr)]
            got = [A.flat(app, s) for s in sinks]
            tally.check(result.completed and all(
                A.matches(app, x, r) for x, r in zip(got, refs)),
                f"traced {app} {backend} op {k}")
            row["op"].append(dur[0])
            row["prepare"].append(dur[1])
            row["run"].append(dur[2])
            row["kernel"].append(_kernel_time(result))
            row["blocked"].append(sum(result.per_kernel_blocked.values()))
            ctx += result.context_switches
            tot_blocks += nblk
            # Task time over scheduler wall time (the workers' walls on
            # cgsim-mp).  Computed from per_kernel_time because the
            # reported kernel_fraction reads 0 under fused drivers.
            kf_num += sum(result.per_kernel_time.values())
            kf_den += (sum(result.raw.worker_walls.values())
                       if backend == "cgsim-mp" else result.wall_time)
            reported.append(result.kernel_fraction)
            dt, _, _ = W.run_op(app, graphs[app], tuple(ins), backend,
                                n_sinks=n_sinks, **opts)
            row["plain"].append(dt)
            dt, obs, _ = W.run_op(app, graphs[app], tuple(ins), backend,
                                  n_sinks=n_sinks, observe=True, **opts)
            row["observe"].append(dt)
            events += obs.metrics.n_events if obs.metrics else 0
    after = plan_cache_stats()
    lookups = (after["hits"] - before["hits"]
               + after["misses"] - before["misses"])

    med = {app: {k: stats.median(v) for k, v in row.items()}
           for app, row in per.items()}
    plain = sum(m["plain"] for m in med.values())
    kernel_fraction = kf_num / kf_den if kf_den else 0.0
    out = {
        "exec.resolve_cold_ms": _ms(cold),
        "exec.resolve_warm_ms": _ms(warm),
        "exec.prepare_ms": _ms([x for r in per.values()
                                for x in r["prepare"]]),
        "exec.plan_compile_ms": _ms(compile_s),
        "exec.plan_hit_ratio": ((after["hits"] - before["hits"]) / lookups
                                if lookups else 0.0),
        "core.ctx_switches_per_block": ctx / tot_blocks,
        "core.blocked_s": sum(m["blocked"] for m in med.values()),
        "core.sched_overhead_frac": 1.0 - kernel_fraction,
        "observe.overhead_frac":
            sum(m["observe"] for m in med.values()) / plain - 1.0,
        "observe.events_per_block": events / tot_blocks,
        "bench.trace_overhead_frac":
            sum(m["op"] for m in med.values()) / plain - 1.0,
    }
    for app, m in med.items():
        out[f"exec.run_s.{app}"] = m["run"]
        out[f"apps.kernel_s.{app}"] = m["kernel"]
    detail = {"engine": backend, "options": opts, "reps": reps,
              "blocks": blocks, "kernel_fraction": kernel_fraction,
              "reported_kernel_fraction": reported,
              "medians_s": med,
              "plan_cache": {"before": before, "after": after}}
    if primary == "stream":
        detail["paper_shape"] = {"s5_2.kernel_fraction_ge_0.99": {
            "value": kernel_fraction >= 0.99,
            "kernel_fraction": kernel_fraction}}
    return out, detail


# ---------------------------------------------------------------------------
# x86sim and cgsim-mp slices
# ---------------------------------------------------------------------------


def x86_layers(spans, full: bool, seed: int, tally) -> Tuple[Dict, Dict]:
    from repro.exec import get_backend

    blocks = W.Stream.blocks if full else PROBE_BLOCKS
    b = get_backend("x86sim")
    prep, run, threads = [], [], 0
    for app in A.APPS:
        ins = A.inputs(app, blocks[app], seed)
        sink: list = []
        spans.op(f"{app}.x86sim")
        with spans.span("x86sim.prepare") as sp:
            plan = b.prepare(A.GRAPHS[app], tuple(ins) + (sink,))
        with spans.span("x86sim.run") as sr:
            result = b.run(plan)
        prep.append(spans.rows[sp.idx]["end"] - spans.rows[sp.idx]["start"])
        run.append(spans.rows[sr.idx]["end"] - spans.rows[sr.idx]["start"])
        threads = max(threads, result.n_threads)
        tally.check(result.completed and A.matches(
            app, A.flat(app, sink), A.reference(app, ins)),
            f"traced {app} x86sim")
    out = {"x86sim.prepare_ms": _ms(prep), "x86sim.run_s": sum(run),
           "x86sim.threads": float(threads),
           "x86sim.blocks_per_s": sum(blocks.values()) / sum(run)}
    return out, {"blocks": blocks, "run_s": dict(zip(A.APPS, run))}


def mp_layers(spans, full: bool, seed: int, tally) -> Tuple[Dict, Dict]:
    """Run first in the process, so its first sharded call is cold."""
    from repro.exec import get_backend

    per_lane = W.Farm.blocks_per_lane if full else PROBE_PER_LANE
    mp, sp_b = get_backend("cgsim-mp"), get_backend("cgsim")
    first = None
    warm, walls, base = {}, {}, {}
    for app in A.APPS:
        ins, refs, _ = _io("farm", app, per_lane[app], seed)
        warm[app], walls[app] = [], []
        for k in range(3 if app == "bitonic" else 2):
            sinks: List[list] = [[] for _ in range(A.FARM_LANES)]
            spans.op(f"{app}.mp.{k}")
            with spans.span("op") as top:
                with spans.span("mp.prepare"):
                    plan = mp.prepare(A.FARMS[app], tuple(ins) + tuple(sinks),
                                      workers=W.workers())
                with spans.span("mp.run"):
                    result = mp.run(plan)
            dt = spans.rows[top.idx]["end"] - spans.rows[top.idx]["start"]
            tally.check(result.completed and all(
                A.matches(app, A.flat(app, s), r)
                for s, r in zip(sinks, refs)), f"traced {app} cgsim-mp")
            if first is None:
                first = dt
                continue
            warm[app].append(dt)
            walls[app].append(max(result.raw.worker_walls.values()))
        sinks = [[] for _ in range(A.FARM_LANES)]
        spans.op(f"{app}.cgsim")
        with spans.span("op") as top:
            sp_b.run(sp_b.prepare(A.FARMS[app], tuple(ins) + tuple(sinks)))
        base[app] = spans.rows[top.idx]["end"] - spans.rows[top.idx]["start"]
    w = {a: stats.median(v) for a, v in warm.items()}
    wall = {a: stats.median(v) for a, v in walls.items()}
    out = {"mp.first_op_s": first, "mp.warm_op_s": sum(w.values()),
           "mp.cold_tax_s": first - w["bitonic"],
           "mp.worker_wall_max_s": sum(wall.values()),
           "mp.manager_overhead_s": sum(w.values()) - sum(wall.values()),
           "mp.speedup_vs_cgsim": sum(base.values()) / sum(w.values())}
    return out, {"blocks_per_lane": per_lane, "warm_op_s": w,
                 "worker_wall_max_s": wall, "cgsim_s": base,
                 "first_op": "bitonic"}


# ---------------------------------------------------------------------------
# serve slice: the open loop with every service-side call wrapped
# ---------------------------------------------------------------------------


class _Wrapped:
    """Temporarily wrap public functions where the service looks them
    up, recording a span around every call."""

    def __init__(self, spans):
        import repro.exec
        import repro.serve.service as service

        self.spans = spans
        targets = ((service, "parse_submission"), (service, "encode_value"),
                   (repro.exec, "run_graph"))
        self.saved = [(m, n, getattr(m, n)) for m, n in targets]

    def __enter__(self):
        spans = self.spans
        for mod, name, fn in self.saved:
            setattr(mod, name, self._wrap(spans, name, fn))
        return self

    def __exit__(self, *exc):
        for mod, name, fn in self.saved:
            setattr(mod, name, fn)
        return False

    @staticmethod
    def _wrap(spans, name, fn):
        def wrapper(*args, **kwargs):
            if name == "run_graph":
                spans.op(kwargs.get("run_id") or "")
            with spans.span(f"serve.{name}"):
                return fn(*args, **kwargs)
        return wrapper


def serve_layers(spans, seconds: float, seed: int, tally
                 ) -> Tuple[Dict, Dict]:
    from repro.exec import plan_cache_stats

    wl = W.Serve()
    state = wl.prepare(seed)
    svc = wl.setup(state, tally)
    try:
        # Enough requests that the non-faulted ones reach min_samples.
        mix = state["mix"]
        clean = sum(not r["faulted"] for r in mix)
        n = max(int(wl.nominal_rps * seconds),
                -(-wl.min_samples * len(mix) // clean) + len(mix) // 8)
        before = plan_cache_stats()
        with _Wrapped(spans):
            orig_submit = svc.submit

            def submit(*args, **kwargs):
                with spans.span("serve.submit"):
                    return orig_submit(*args, **kwargs)

            svc.submit = submit
            reqs = wl.phase(svc, state, range(n), rate=wl.nominal_rps,
                            spans=spans)
            svc.submit = orig_submit
        after = plan_cache_stats()
        wl.check(state, reqs, tally, "traced nominal")
        ladder = rate_ladder(wl, svc, state)
    finally:
        wl.teardown(svc)

    ok = [r for r in reqs if r["ok"] and not r["faulted"]]
    recs = [r["record"] for r in ok]
    exec_s = [r.finished_ts - r.started_ts for r in recs]
    wait_s = [r.started_ts - r.submitted_ts for r in recs]
    lat = [r["latency"] for r in ok]
    late = [r["sent"] - r["due"] for r in reqs]
    faulted = [r["record"].finished_ts - r["record"].started_ts
               for r in reqs if r["faulted"] and r["record"] is not None]
    self_t = spans.self_times()
    encode: Dict[str, float] = {}
    for row in spans.rows:
        if row["name"] == "serve.encode_value" and row["parent"] is None:
            encode[row["op"]] = (encode.get(row["op"], 0.0)
                                 + row["end"] - row["start"])
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    out = {
        "serve.decode_ms": _ms(spans.durations("serve.parse_submission")),
        "serve.encode_ms": _ms(list(encode.values())),
        "serve.admit_ms": _ms(self_t["serve.submit"]),
        "serve.exec_ms_p50": _ms(exec_s),
        "serve.exec_ms_p99": 1e3 * _p99(exec_s),
        "serve.queue_wait_ms_p50": _ms(wait_s),
        "serve.queue_wait_ms_p99": 1e3 * _p99(wait_s),
        "serve.backlog_max": float(max(r["backlog"] for r in reqs)),
        "serve.rejected_frac": sum(r["record"] is None for r in reqs) / n,
        "serve.gen_late_ms": 1e3 * _p99(late),
        "serve.p50_ms": _ms(lat),
        "serve.p99_ms": 1e3 * _p99(lat),
        "serve.max_rps": ladder["max_rps"],
        "serve.samples": float(len(lat)),
        "serve.plan_hit_ratio": hits / lookups if lookups else 0.0,
        "faults.isolate_exec_ms": _ms(faulted),
    }
    return out, {"nominal_rps": wl.nominal_rps, "requests": n,
                 "latency_samples": len(lat),
                 "p99_supported": stats.supports(len(lat), 99),
                 "plan_cache": {"hits": hits, "lookups": lookups},
                 "ladder": ladder}


def rate_ladder(wl, svc, state) -> Dict[str, Any]:
    """Highest rate on a ladder of 10%-apart steps (nominal x 1.1^k)
    whose tail latency meets :data:`SERVE_TAIL_LIMIT_MS` with no
    refusal and no growing backlog.  Galloping then bisection over the
    step index, one :data:`LADDER_STEP_S` open-loop window per probe."""
    steps: Dict[int, Dict[str, Any]] = {}

    def passes(k: int) -> bool:
        if k not in steps:
            rate = wl.nominal_rps * LADDER_STEP ** k
            n = max(int(rate * LADDER_STEP_S), 20)
            reqs = wl.phase(svc, state, range(n), rate=rate)
            lat = [1e3 * r["latency"] for r in reqs
                   if r["latency"] is not None]
            t = stats.tail(lat)
            refused = sum(r["record"] is None for r in reqs)
            growing = stats.backlog_growing(
                [(r["sent"], r["backlog"]) for r in reqs], rate,
                svc.scheduler.workers)
            ok = (refused == 0 and not growing and t is not None
                  and t[1] <= SERVE_TAIL_LIMIT_MS)
            steps[k] = {"rate_rps": rate, "requests": n, "refused": refused,
                        "backlog_growing": growing,
                        "tail": None if t is None else list(t), "ok": ok}
        return steps[k]["ok"]

    lo, hi = -1, None
    k = 0
    while hi is None and k <= LADDER_MAX_STEPS:
        if passes(k):
            lo, k = k, max(1, 2 * k)
        else:
            hi = k
    hi = LADDER_MAX_STEPS + 1 if hi is None else hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    max_rps = (wl.nominal_rps * LADDER_STEP ** lo if lo >= 0
               else 0.0)
    return {"max_rps": max_rps, "limit_ms": SERVE_TAIL_LIMIT_MS,
            "steps": {str(k): v for k, v in sorted(steps.items())}}


# ---------------------------------------------------------------------------
# aiesim: simulated ns per block (deterministic) and Table 1's shape
# ---------------------------------------------------------------------------


def aiesim_layers(seed: int, tally) -> Tuple[Dict, Dict]:
    from repro.aiesim import simulate_graph
    from repro.exec import run_graph

    out, shape, host = {}, {}, {}
    for app in A.APPS:
        kw = {"rtp_values": FARROW_RTP} if app == "farrow" else {}
        t0 = perf_counter()
        thunk = simulate_graph(A.GRAPHS[app], mode="thunk",
                               n_blocks=AIESIM_BLOCKS, **kw)
        t_aie = perf_counter() - t0
        hand = simulate_graph(A.GRAPHS[app], mode="hand",
                              n_blocks=AIESIM_BLOCKS, **kw)
        ins = A.inputs(app, AIESIM_BLOCKS, seed)
        t0 = perf_counter()
        run_graph(A.GRAPHS[app], *ins, [], backend="cgsim")
        t_cg = perf_counter() - t0
        out[f"aiesim.sim_ns_per_block.{app}"] = thunk.block_interval_ns
        tally.count(f"aiesim.{app}.ns_per_block",
                    [hand.block_interval_ns, thunk.block_interval_ns])
        rel = 100.0 * hand.block_interval_ns / thunk.block_interval_ns
        shape[f"table1.{app}.in_85pct_band"] = {"value": rel >= 85.0,
                                                "rel_percent": rel}
        host[app] = {"aiesim_s": t_aie, "cgsim_s": t_cg}
    shape["table1.iir.at_parity"] = {
        "value": shape["table1.iir.in_85pct_band"]["rel_percent"] >= 99.0,
        "rel_percent": shape["table1.iir.in_85pct_band"]["rel_percent"]}
    faster = {a: host[a]["aiesim_s"] < host[a]["cgsim_s"]
              for a in ("bitonic", "bilinear")}
    shape["expected_deviation"] = {
        "claim": "paper Table 2: aiesim is 200-400x slower than cgsim",
        "measured": "the aiesim analog is trace-driven, so it can run "
                    "faster than cgsim on bitonic and bilinear",
        "aiesim_faster": faster,
        "ratio_aiesim_over_cgsim": {
            a: host[a]["aiesim_s"] / host[a]["cgsim_s"] for a in A.APPS},
        "n_blocks": AIESIM_BLOCKS}
    return out, {"paper_shape": shape}


# ---------------------------------------------------------------------------


def traced_run(primary: str, seed: int, seconds: float, tally
               ) -> Tuple[Dict[str, float], Dict[str, Any], Any]:
    """All per-layer metrics for *primary*; returns (metrics, detail,
    spans)."""
    spans = stats.Spans()
    parts = {}
    parts["mp"] = mp_layers(spans, primary == "farm", seed, tally)
    parts["direct"] = direct_layers(spans, primary, seed, tally)
    parts["x86sim"] = x86_layers(spans, primary == "stream", seed, tally)
    parts["serve"] = serve_layers(spans, seconds, seed, tally)
    parts["aiesim"] = aiesim_layers(seed, tally)
    # The workload's own slices win where two slices report one name.
    own = {"farm": "mp", "stream": "x86sim"}.get(primary)
    order = [k for k in parts if k not in ("direct", own)] + ["direct"]
    if own:
        order.append(own)
    metrics: Dict[str, float] = {}
    for k in order:
        metrics.update(parts[k][0])
    detail = {k: v[1] for k, v in parts.items()}
    detail["span_self_s"] = {k: sum(v) for k, v in spans.self_times().items()}
    return metrics, detail, spans
