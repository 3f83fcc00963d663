"""Markdown report generation over all pipeline artefacts."""

import numpy as np
import pytest

from repro.exec import available_backends, run_graph
from repro.report import (
    extraction_report_md,
    full_report,
    graph_report,
    run_report_md,
    simulation_report_md,
)


class TestGraphReport:
    def test_structure_section(self, fig4_graph):
        md = graph_report(fig4_graph)
        assert "## Graph `fig4`" in md
        assert "2 kernel instance(s)" in md
        assert "| doubler_kernel_0 | doubler_kernel | aie |" in md
        assert "| b | int32 | stream | 1 | 1 |" in md

    def test_rtp_net_kind(self, rtp_graph):
        md = graph_report(rtp_graph)
        assert "| rtp |" in md

    def test_window_net_kind(self, window_graph):
        md = graph_report(window_graph)
        assert "| window |" in md

    def test_realm_line_for_mixed(self, mixed_realm_graph):
        md = graph_report(mixed_realm_graph)
        assert "Realms: aie (1), noextract (1)" in md

    def test_warnings_surface(self):
        from repro.core import IoC, IoConnector, int32, make_compute_graph
        from conftest import doubler_kernel

        @make_compute_graph(name="warned")
        def g(a: IoC[int32]):
            IoConnector(int32, name="unused")
            o = IoConnector(int32)
            doubler_kernel(a, o)
            return o

        md = graph_report(g)
        assert "Build warnings" in md and "never used" in md


class TestRunReport:
    def test_completed_run(self, adder_graph):
        report = adder_graph([1.0], [2.0], [])
        md = run_report_md(report)
        assert "completed" in md
        assert "| 2 | 1 |" in md

    def test_profiled_run(self, adder_graph):
        report = adder_graph([1.0] * 20, [2.0] * 20, [], profile=True)
        md = run_report_md(report)
        assert "inside" in md and "%" in md

    @pytest.mark.parametrize("backend", available_backends())
    def test_any_backend_result(self, fig4_graph, backend):
        md = run_report_md(run_graph(fig4_graph, [1, 2], [], backend=backend))
        assert "## Run of `fig4`: completed" in md
        assert "| 2 | 2 |" in md

    def test_stalled_run(self):
        from repro.core import (
            AIE, In, IoC, IoConnector, Out, compute_kernel, int32,
            make_compute_graph,
        )

        @compute_kernel(realm=AIE)
        async def quits(a: In[int32], o: Out[int32]):
            await o.put(await a.get())

        @make_compute_graph(name="quitter")
        def g(a: IoC[int32]):
            o = IoConnector(int32)
            quits(a, o)
            return o

        md = run_report_md(g([1, 2, 3], []))
        assert "DEADLOCK" in md or "stalled" in md
        assert "```" in md  # diagnosis block


class TestSimulationReport:
    def test_sections(self, window_graph):
        from repro.aiesim import simulate_graph

        rep = simulate_graph(window_graph, "hand", n_blocks=3)
        md = simulation_report_md(rep)
        assert "Steady-state interval" in md
        assert "### Tiles" in md
        assert "window_negate_kernel_0" in md
        assert "bank factor" in md


class TestExtractionReport:
    def test_sections(self):
        from repro.extractor import extract_project

        res = extract_project("repro.apps.bitonic")
        md = extraction_report_md(res.projects[0])
        assert "## Extraction of `bitonic`" in md
        assert "| aie | bitonic16_kernel | transpiled |" in md
        assert "`aie/graph.hpp`" in md


class TestFullReport:
    def test_all_sections_for_app(self):
        from repro.apps import bitonic, datasets

        blocks = datasets.bitonic_blocks(2)
        out = []
        md = full_report(bitonic.BITONIC_GRAPH, blocks.reshape(-1), out,
                         n_blocks=3)
        assert "## Graph `bitonic`" in md
        assert "## Run of `bitonic`" in md
        assert "## Cycle-approximate simulation of `bitonic`" in md
        assert "## Extraction of `bitonic`" in md

    def test_skip_sections(self, fig4_graph):
        md = full_report(fig4_graph, simulate=False, extract=False)
        assert "## Graph" in md
        assert "## Run" not in md
        assert "simulation" not in md
