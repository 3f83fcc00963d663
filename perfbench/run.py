"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the ``repro`` package is imported from
``src/`` beside this directory.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` runs the separate traced run that reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment stamp, exact
counts, paper-shape booleans, timing tables, spans) is written under
``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
#: Seed kept out of development; later claims are verified on it.
HOLDOUT_SEED = 90210
#: Fresh-process set-ups per run whose median is ``setup_s``.
SETUP_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-counts", action="store_true",
                   help="record this run's exact counts as the expected "
                        "ones in perfbench/expected_counts.json")
    return p.parse_args(argv)


def env_stamp(seed: int) -> Dict[str, Any]:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"cores_usable": len(os.sched_getaffinity(0)),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit,
            "source_sha1": digest.hexdigest(), "seed": seed,
            "holdout_seed": HOLDOUT_SEED,
            "loadavg_before": list(os.getloadavg())}


def timed_setup(wl, state, tally):
    """``(reference seconds, host seconds, context)`` of one set-up."""
    import calib

    def setup():
        t0 = time.perf_counter()
        ctx = wl.setup(state, tally)
        return time.perf_counter() - t0, ctx

    return calib.Speed().timed(setup)


def fork_setup(wl, state) -> Dict[str, Any]:
    """One set-up in a forked child: a fresh process with the package
    imported and inputs generated, nothing else warmed."""
    import workloads as W

    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            tally = W.Tally()
            ref_dt, dt, ctx = timed_setup(wl, state, tally)
            if hasattr(wl, "teardown"):
                wl.teardown(ctx)
            msg = {"setup_s": ref_dt, "host_s": dt,
                   "attempted": tally.attempted,
                   "failed": tally.failed, "failures": tally.failures}
            code = 0
        except BaseException as exc:  # reported by the parent
            msg = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            try:
                os.write(wfd, json.dumps(msg).encode())
            finally:
                os._exit(code)
    os.close(wfd)
    chunks = []
    with os.fdopen(rfd, "rb") as r:
        for chunk in iter(lambda: r.read(65536), b""):
            chunks.append(chunk)
    os.waitpid(pid, 0)
    msg = json.loads(b"".join(chunks).decode() or "{}")
    if "setup_s" not in msg:
        raise RuntimeError(f"set-up sample failed: {msg.get('error')}")
    return msg


def exact_count_changes(workload: str, trace: int,
                        counts: Dict[str, Any], write: bool):
    """Compare exact counts with ``expected_counts.json``; return the
    changed keys by name (a behaviour change, never noise)."""
    path = HERE / "expected_counts.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{workload}.trace{trace}"
    if write:
        expected[key] = counts
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    ref = expected.get(key, {})
    changed = {k: {"expected": ref[k], "measured": v}
               for k, v in counts.items() if k in ref and ref[k] != v}
    return changed, sorted(set(counts) - set(ref)), sorted(set(ref) - set(counts))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or BENCH is None:
        print(f"perfbench: no repro package under {SRC} or no "
              f"BENCHMARK.json at {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import selftest

    selftest.run_all()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    env = env_stamp(args.seed)
    tally = W.Tally()
    record: Dict[str, Any] = {"workload": wl.name, "trace": args.trace,
                              "seconds": args.seconds, "env": env}
    spans = None
    if args.trace:
        import traced

        metrics, detail, spans = traced.traced_run(
            wl.name, args.seed, args.seconds, tally)
        names = [m["name"] for m in BENCH["per_layer"]]
    else:
        state = wl.prepare(args.seed)
        samples = [fork_setup(wl, state)
                   for _ in range(SETUP_SAMPLES - 1)]
        for s in samples:
            tally.merge(s)
        ref_dt, dt, ctx = timed_setup(wl, state, tally)
        setup = [s["setup_s"] for s in samples] + [ref_dt]
        try:
            metrics, detail = wl.measure(state, ctx, tally, args.seconds)
        finally:
            if hasattr(wl, "teardown"):
                wl.teardown(ctx)
        import stats

        metrics["setup_s"] = stats.median(setup)
        detail["setup_samples_s"] = setup
        detail["setup_host_s"] = [s["host_s"] for s in samples] + [dt]
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        names = [m["name"] for m in BENCH["end_to_end"]]
    env["loadavg_after"] = list(os.getloadavg())
    changed, new, missing = exact_count_changes(
        wl.name, args.trace, tally.counts, args.write_counts)
    record.update({"detail": detail, "exact_counts": tally.counts,
                   "behaviour_changes": changed,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures})

    units = {m["name"]: m["unit"]
             for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    absent = [n for n in names if n not in metrics]
    for n in names:
        if n in metrics:
            print(f"{wl.name:8s} {n:34s} {metrics[n]:14.6g} {units[n]}")
    print(f"{wl.name:8s} {'fail_frac':34s} "
          f"{tally.failed / max(tally.attempted, 1):14.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    for what in tally.failures:
        print(f"FAILED: {what}")
    for k, v in changed.items():
        print(f"BEHAVIOUR CHANGE: {k}: expected {v['expected']}, "
              f"measured {v['measured']}")
    if new or missing:
        print(f"exact counts: {len(new)} not in expected_counts.json, "
              f"{len(missing)} expected but not measured")
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str))
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans.to_json()))
    print(f"record: {OUT / (stem + '.json')}")
    if absent:
        print(f"perfbench: metrics not produced: {absent}", file=sys.stderr)
        return 1
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": float(metrics[n]), "unit": units[n]}
                          for n in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
