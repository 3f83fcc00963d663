"""Kernel trace capture and program construction."""

import numpy as np
import pytest

from repro.aiesim.kernelprog import (
    KernelProgram,
    Segment,
    TraceStimulus,
    build_kernel_program,
)
from repro.errors import SimulationError
from conftest import adder_kernel, scale_kernel, window_negate_kernel


class TestCapture:
    def test_adder_program(self):
        stim = TraceStimulus(block_items={"in1": 4, "in2": 4})
        prog = build_kernel_program(adder_kernel, stim, "hand")
        # per block: 4 reads each input, 4 writes out
        assert prog.io_words == {"in1": 4, "in2": 4, "out": 4}
        kinds = [s.kind for s in prog.body]
        assert kinds.count("stream_rd") == 8
        assert kinds.count("stream_wr") == 4

    def test_rtp_read_in_init_only(self):
        stim = TraceStimulus(block_items={"inp": 2}, rtp_values={"factor": 3})
        prog = build_kernel_program(scale_kernel, stim, "hand")
        init_kinds = [s.kind for s in prog.init]
        body_kinds = [s.kind for s in prog.body]
        assert "rtp_rd" in init_kinds
        assert "rtp_rd" not in body_kinds

    def test_window_kernel_program(self):
        prog = build_kernel_program(window_negate_kernel, TraceStimulus(),
                                    "hand")
        kinds = [s.kind for s in prog.body]
        assert kinds.count("win_rd") == 1
        assert kinds.count("win_wr") == 1
        # window of 8 float32 = 8 words
        win = next(s for s in prog.body if s.kind == "win_rd")
        assert win.words == 8

    def test_missing_block_items_raises(self):
        with pytest.raises(SimulationError, match="block_items"):
            build_kernel_program(adder_kernel, TraceStimulus(), "hand")

    def test_bad_mode(self):
        with pytest.raises(SimulationError, match="mode"):
            build_kernel_program(
                adder_kernel,
                TraceStimulus(block_items={"in1": 1, "in2": 1}),
                "sideways",
            )


class TestBodyDetection:
    def test_body_is_stationary(self):
        stim = TraceStimulus(block_items={"in1": 4, "in2": 4})
        p1 = build_kernel_program(adder_kernel, stim, "hand")
        p2 = build_kernel_program(adder_kernel, stim, "hand")
        assert [s.kind for s in p1.body] == [s.kind for s in p2.body]
        assert p1.body_cycles_lower_bound == p2.body_cycles_lower_bound

    def test_nonstationary_kernel_rejected(self):
        from repro.core import AIE, In, Out, compute_kernel, int32

        @compute_kernel(realm=AIE)
        async def growing(a: In[int32], o: Out[int32]):
            n = 1
            while True:
                x = await a.get()
                for _ in range(n):
                    await o.put(x)
                n += 1  # each iteration emits more: not stationary

        with pytest.raises(SimulationError, match="non-stationary|not longer"):
            build_kernel_program(
                growing, TraceStimulus(block_items={"a": 1}), "hand"
            )

    def test_finite_kernel_rejected(self):
        from repro.core import AIE, In, Out, compute_kernel, int32

        @compute_kernel(realm=AIE)
        async def one_shot(a: In[int32], o: Out[int32]):
            await o.put(await a.get())

        with pytest.raises(SimulationError, match="not longer"):
            build_kernel_program(
                one_shot, TraceStimulus(block_items={"a": 1}), "hand"
            )


class TestModeDifferences:
    def test_thunk_stream_access_costlier(self):
        stim = TraceStimulus(block_items={"in1": 8, "in2": 8})
        hand = build_kernel_program(adder_kernel, stim, "hand")
        thunk = build_kernel_program(adder_kernel, stim, "thunk")

        def io_cycles(prog):
            return sum(s.cycles for s in prog.body
                       if s.kind.startswith("stream"))

        # Per-access adapter overhead: thunk pays double per element.
        assert io_cycles(thunk) == 2 * io_cycles(hand)
        # With 24 accesses the adapter cost exceeds what the persistent
        # loop saves on the per-block invocation overhead.
        io_delta = io_cycles(thunk) - io_cycles(hand)
        invocation_delta = hand.per_block_overhead - thunk.per_block_overhead
        assert io_delta > 0 and invocation_delta > 0

    def test_window_kernel_modes(self):
        hand = build_kernel_program(window_negate_kernel, TraceStimulus(),
                                    "hand")
        thunk = build_kernel_program(window_negate_kernel, TraceStimulus(),
                                     "thunk")
        # tiny compute: the invocation-overhead saving dominates and the
        # extracted variant is not slower by more than the handshake diff
        assert abs(hand.body_cycles_lower_bound -
                   thunk.body_cycles_lower_bound) < 60

    def test_classifications(self):
        stim = TraceStimulus(block_items={"in1": 8, "in2": 8})
        assert build_kernel_program(adder_kernel, stim, "hand") \
            .classification == "stream_loop"


class TestSegments:
    def test_segment_repr(self):
        s = Segment("compute", cycles=5)
        assert "compute" in repr(s)
        s2 = Segment("stream_rd", cycles=1, port="a", words=1)
        assert "stream_rd" in repr(s2)

    def test_program_lower_bound_consistency(self):
        stim = TraceStimulus(block_items={"in1": 2, "in2": 2})
        prog = build_kernel_program(adder_kernel, stim, "hand")
        assert prog.body_cycles_lower_bound == \
            sum(s.cycles for s in prog.body) + prog.per_block_overhead


class TestCaptureGuards:
    def test_source_only_kernel_bounded(self):
        """A kernel that only produces (never consumes budgeted input)
        cannot be trace-bounded; capture fails loudly, not forever."""
        from repro.core import AIE, In, Out, PortSettings, compute_kernel, int32

        RTP = PortSettings(runtime_parameter=True)

        @compute_kernel(realm=AIE)
        async def generator_kernel(seed: In[int32, RTP], o: Out[int32]):
            v = await seed.get()
            while True:
                await o.put(v)
                v = v + 1

        with pytest.raises(SimulationError, match="pure source"):
            build_kernel_program(generator_kernel, TraceStimulus(), "hand")


class TestBatchedCapture:
    """Trace capture is a transport under the ordinary ports, so batched
    port ops are traced like their per-element equivalents, one block
    per read call."""

    @staticmethod
    def _io_kinds(prog):
        return [(s.kind, s.port, s.words) for s in prog.body
                if s.kind != "compute"]

    def test_exact_batch_traces_like_element_ops(self):
        from repro.core import AIE, In, Out, compute_kernel, int32

        @compute_kernel(realm=AIE)
        async def per_element(a: In[int32], o: Out[int32]):
            while True:
                xs = [await a.get() for _ in range(4)]
                for x in xs:
                    await o.put(x)

        @compute_kernel(realm=AIE)
        async def batched(a: In[int32], o: Out[int32]):
            while True:
                await o.put_batch(await a.get_batch(4))

        stim = TraceStimulus(block_items={"a": 4})
        want = build_kernel_program(per_element, stim, "thunk")
        got = build_kernel_program(batched, stim, "thunk")
        assert self._io_kinds(got) == self._io_kinds(want)
        assert got.body_cycles_lower_bound == want.body_cycles_lower_bound

    def test_inexact_batch_reads_one_block_per_call(self):
        from repro.core import AIE, In, Out, compute_kernel, int32

        @compute_kernel(realm=AIE)
        async def drain(a: In[int32], o: Out[int32]):
            while True:
                await o.put_batch(await a.get_batch(64, exact=False))

        prog = build_kernel_program(
            drain, TraceStimulus(block_items={"a": 16}), "hand")
        assert prog.io_words == {"a": 16, "o": 16}

    def test_batch_spanning_blocks_names_port_and_sizes(self):
        """An exact batch larger than the block is reported as such, not
        as a non-stationary trace."""
        from repro.core import AIE, In, Out, compute_kernel, int32

        @compute_kernel(realm=AIE)
        async def two_blocks(a: In[int32], o: Out[int32]):
            while True:
                await o.put_batch(await a.get_batch(32))

        with pytest.raises(SimulationError) as err:
            build_kernel_program(
                two_blocks, TraceStimulus(block_items={"a": 16}), "hand")
        msg = str(err.value)
        assert "'a'" in msg and "32 items" in msg and "16 items" in msg
        assert "non-stationary" not in msg
