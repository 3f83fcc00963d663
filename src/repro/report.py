"""Human-readable reports over graphs, runs, simulations, extractions.

One entry point per artefact type, each returning GitHub-flavoured
markdown, plus :func:`full_report` which takes a compiled graph through
the whole pipeline (structure → functional run → cycle simulation →
extraction summary) and concatenates the sections.  Used by the
examples and handy in notebooks/CI logs.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from .core import CompiledGraph, RunResult, check_graph, realm_summary
from .core.dtypes import WindowType

__all__ = [
    "graph_report",
    "run_report_md",
    "simulation_report_md",
    "extraction_report_md",
    "full_report",
]


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def graph_report(compiled: CompiledGraph) -> str:
    """Structural summary of a compiled compute graph."""
    g = compiled.graph
    s = g.stats()
    lines = [f"## Graph `{g.name}`", ""]
    lines.append(
        f"{s['kernels']} kernel instance(s), {s['nets']} net(s), "
        f"{s['inputs']} input(s), {s['outputs']} output(s); "
        f"{s['broadcasts']} broadcast / {s['merges']} merge net(s)."
    )
    lines.append("")
    lines.append("### Kernels")
    lines.append(_table(
        ["instance", "kernel", "realm", "ports"],
        [
            (k.instance_name, k.kernel.name, k.realm.name,
             ", ".join(f"{p.name}:{p.dtype.name}"
                       for p in k.kernel.port_specs))
            for k in g.kernels
        ],
    ))
    lines.append("")
    lines.append("### Nets")
    rows = []
    for net in g.nets:
        kind = "window" if isinstance(net.dtype, WindowType) else (
            "rtp" if net.settings.runtime_parameter else "stream"
        )
        rows.append((
            net.name, net.dtype.name, kind,
            len(net.producers), len(net.consumers),
            ", ".join(f"{k}={v}" for k, v in sorted(net.attrs.items()))
            or "—",
        ))
    lines.append(_table(
        ["net", "dtype", "kind", "prod", "cons", "attributes"], rows
    ))
    realms = realm_summary(g)
    if len(realms) > 1:
        lines.append("")
        lines.append(
            "Realms: " + ", ".join(f"{r} ({n})"
                                   for r, n in sorted(realms.items()))
        )
    issues = check_graph(g)
    if issues:
        lines.append("")
        lines.append("### Advisories")
        for issue in issues:
            lines.append(f"- {issue}")
    if compiled.warnings:
        lines.append("")
        lines.append("### Build warnings")
        for w in compiled.warnings:
            lines.append(f"- {w}")
    return "\n".join(lines) + "\n"


def run_report_md(report: RunResult) -> str:
    """Markdown rendering of one run's result, on any backend."""
    status = "completed" if report.completed else (
        "**DEADLOCKED**" if report.deadlocked else "stalled"
    )
    lines = [
        f"## Run of `{report.graph_name}`: {status}",
        "",
        _table(
            ["items in", "items out", "context switches", "wall time"],
            [(report.items_in, report.items_out,
              report.context_switches, f"{report.wall_time * 1e3:.2f} ms")],
        ),
    ]
    if not math.isnan(report.kernel_fraction):
        lines.append("")
        lines.append(
            f"Profiled: {report.kernel_fraction:.2%} of wall time inside "
            f"kernels."
        )
    if report.stall_diagnosis:
        lines.append("")
        lines.append("```")
        lines.append(report.stall_diagnosis)
        lines.append("```")
    return "\n".join(lines) + "\n"


def simulation_report_md(report) -> str:
    """Markdown rendering of an aiesim report."""
    lines = [
        f"## Cycle-approximate simulation of `{report.graph_name}` "
        f"({report.mode} kernels, {report.device_name})",
        "",
        f"Steady-state interval: **{report.block_interval_ns:.1f} ns/block**"
        f" ({report.block_interval_cycles:.0f} cycles); first block after "
        f"{report.first_block_cycles} cycles; {report.des_events} DES "
        f"events in {report.sim_wall_seconds:.3f} s.",
        "",
        "### Tiles",
        _table(
            ["instance", "tile", "busy cyc/blk", "util", "mem (B)",
             "bank factor"],
            [
                (name, stats["coord"],
                 f"{stats['busy_cycles'] / max(stats['blocks'], 1):.0f}",
                 f"{stats['utilization']:.0%}",
                 stats.get("memory_bytes", 0),
                 f"{stats.get('bank_conflict_factor', 1.0):.3f}")
                for name, stats in sorted(report.tiles.items())
            ],
        ),
    ]
    if report.warnings:
        lines.append("")
        lines.append("### Warnings")
        lines.extend(f"- {w}" for w in report.warnings)
    return "\n".join(lines) + "\n"


def extraction_report_md(project) -> str:
    """Markdown rendering of a GraphProject extraction result."""
    rep = project.report()
    lines = [
        f"## Extraction of `{rep['graph']}`",
        "",
        f"Realms: {', '.join(rep['realms'])}.  Net classes: "
        f"{rep['net_classes']['intra_realm']} intra-realm, "
        f"{rep['net_classes']['inter_realm']} inter-realm, "
        f"{rep['net_classes']['global']} global.",
        "",
        "### Kernels",
    ]
    rows = [
        (realm, kernel, status)
        for realm, statuses in sorted(rep["kernels"].items())
        for kernel, status in sorted(statuses.items())
    ]
    lines.append(_table(["realm", "kernel", "status"], rows))
    lines.append("")
    lines.append("### Generated files")
    for realm, files in sorted(rep["files"].items()):
        for f in files:
            lines.append(f"- `{realm}/{f}`")
    unresolved = rep.get("unresolved_names", {})
    flat = {k: v for realm in unresolved.values() for k, v in realm.items()}
    if flat:
        lines.append("")
        lines.append("### Unresolved references")
        for kernel, names in sorted(flat.items()):
            lines.append(f"- {kernel}: {', '.join(names)}")
    return "\n".join(lines) + "\n"


def full_report(compiled: CompiledGraph, *io,
                simulate: bool = True,
                extract: bool = True,
                rtp_values: Optional[Dict[str, Any]] = None,
                n_blocks: int = 4) -> str:
    """Structure + run + simulation + extraction, concatenated.

    ``io`` are the positional sources/sinks for the functional run
    (omit them to skip the run section).
    """
    sections: List[str] = [graph_report(compiled)]
    if io:
        sections.append(run_report_md(compiled(*io)))
    if simulate:
        from .aiesim import simulate_graph

        sections.append(simulation_report_md(simulate_graph(
            compiled, mode="thunk", n_blocks=n_blocks,
            rtp_values=rtp_values,
        )))
    if extract and compiled.module:
        from .extractor import extract_project

        try:
            result = extract_project(compiled.module,
                                     graphs=[compiled.name])
            sections.append(extraction_report_md(result.projects[0]))
        except Exception as exc:  # extraction is best-effort here
            sections.append(
                f"## Extraction of `{compiled.name}`\n\n"
                f"not available: {exc}\n"
            )
    return "\n".join(sections)
