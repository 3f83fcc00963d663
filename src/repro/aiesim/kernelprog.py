"""Kernel trace capture and program construction for the AIE simulator.

The cycle-approximate simulator is trace driven: each kernel runs
functionally once (fed synthetic zero data) under a
:class:`~repro.aieintr.tracing.TraceRecorder`.  Its ports are the
ordinary :class:`~repro.core.ports.KernelReadPort` /
``KernelWritePort``, each over a private trace transport that records
every stream/window/RTP element it moves as an I/O micro-op, so
per-element and batched port ops are traced alike.  The trace is split
into a one-time *init* section and the steady-state *loop body* (one
graph iteration == one block), and each compute span is packed into
VLIW cycles by the :class:`~repro.aiesim.timing.CycleModel`.

Body detection uses the capture-diff method: the kernel is traced with
exactly one block of input and again with two; since cgsim kernels are
``while True`` loops with data-independent control flow, the suffix of
the two-block trace beyond the one-block trace is exactly one
steady-state body.  A bulk read returns at most the rest of the current
block (one block per read call), which keeps a batched kernel at one
block per iteration; an exact batch larger than that is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..aieintr.tracing import MicroOp, TraceRecorder, emit
from ..core.dtypes import WindowType
from ..core.kernel import KernelClass
from ..core.ports import KernelReadPort, KernelWritePort, PortSpec
from ..errors import SimulationError
from .timing import IO_OPS, CycleModel, classify_trace

__all__ = ["Segment", "KernelProgram", "build_kernel_program",
           "TraceStimulus"]


class _TraceEnd(Exception):
    """Raised inside a trace transport when its input budget is spent."""


#: Upper bound on writes during trace capture: a kernel whose loop has
#: no budgeted stream/window *input* (a pure source) would otherwise
#: never hit the input-exhaustion stop.
_CAPTURE_WRITE_LIMIT = 200_000


class _TraceTransport:
    """The transport under one kernel port during trace capture: a
    budgeted source of synthetic zeros under a read port (``block``
    items per block), a discarding sink under a write port.  Each
    element or window moved emits its I/O micro-op; capture never
    blocks, so the poison attributes the ports' slow path reads stay
    unset."""

    poisoned = False
    poison_origin = None
    name = "trace"

    def __init__(self, spec: PortSpec, rec: TraceRecorder, budget: int = 0,
                 block: int = 1, rtp_value: Any = 0):
        self.spec = spec
        self.window = isinstance(spec.dtype, WindowType)
        self.rec = rec
        self.budget = budget
        self.block = block
        self.rtp_value = rtp_value
        self.writes = 0
        # (batch size, trace length) of the last read cut at a block end
        self.short: Optional[Tuple[int, int]] = None

    def _read(self):
        spec = self.spec
        if spec.settings.runtime_parameter:
            emit("rtp_rd", 1, spec.dtype.nbytes, port=spec.name)
            return self.rtp_value
        if self.budget <= 0:
            raise _TraceEnd()
        self.budget -= 1
        if self.window:
            dt: WindowType = spec.dtype  # type: ignore[assignment]
            emit("win_rd", dt.count, dt.base.nbytes, port=spec.name)
            # Loading the acquired buffer into registers costs ld issues.
            emit("vld", dt.count, dt.base.nbytes)
            return dt.zero()
        emit("stream_rd", 1, spec.dtype.nbytes, port=spec.name)
        return spec.dtype.zero()

    def try_get(self, consumer_idx: int):
        return True, self._read()

    def try_get_many(self, consumer_idx: int, max_n: int) -> List[Any]:
        """Read at most the items left in the current block: one block
        per read call keeps a batched kernel's trace one block per
        steady-state iteration."""
        if self.short and self.short[1] == len(self.rec.ops):
            # The batch resumed with no micro-op in between: one read.
            raise SimulationError(
                f"trace capture of port {self.spec.name!r}: a batched read "
                f"of {self.short[0]} items spans blocks of {self.block} "
                f"items; capture reads at most one block per call, so an "
                f"exact batch must fit in a block (make block_items a "
                f"multiple of the batch size)"
            )
        n = max_n  # an RTP (budget 0) reads its latched value n times
        if self.budget > 0:
            n = min(max_n, (self.budget - 1) % self.block + 1)
        out = [self._read() for _ in range(n)]
        self.short = (max_n, len(self.rec.ops)) if n < max_n else None
        return out

    def try_put(self, value: Any) -> bool:
        spec = self.spec
        self.writes += 1
        if self.writes > _CAPTURE_WRITE_LIMIT:
            raise SimulationError(
                f"trace capture of port {spec.name!r} exceeded "
                f"{_CAPTURE_WRITE_LIMIT} writes; kernels must consume at "
                f"least one budgeted stream or window input per iteration "
                f"(pure source kernels cannot be trace-bounded)"
            )
        if self.window:
            dt: WindowType = spec.dtype  # type: ignore[assignment]
            emit("vst", dt.count, dt.base.nbytes)
            emit("win_wr", dt.count, dt.base.nbytes, port=spec.name)
        else:
            emit("stream_wr", 1, spec.dtype.nbytes, port=spec.name)
        return True

    def try_put_many(self, values, start: int = 0) -> int:
        for value in values[start:]:
            self.try_put(value)
        return len(values) - start


@dataclass
class TraceStimulus:
    """Synthetic input configuration for trace capture.

    ``block_items[port_name]`` gives the number of stream elements one
    graph iteration consumes on that port (window and RTP ports need no
    entry: windows are one item per block, RTPs are latched).
    ``rtp_values[port_name]`` optionally supplies runtime parameters.
    """

    block_items: Dict[str, int] = field(default_factory=dict)
    rtp_values: Dict[str, Any] = field(default_factory=dict)

    def items_for(self, spec: PortSpec) -> int:
        if isinstance(spec.dtype, WindowType):
            return 1
        if spec.settings.runtime_parameter:
            return 0
        try:
            return self.block_items[spec.name]
        except KeyError:
            raise SimulationError(
                f"stream port {spec.name!r} needs a block_items entry in "
                f"the trace stimulus (set the 'block_items' attribute on "
                f"its connector, or pass it explicitly)"
            ) from None


def _capture(kernel: KernelClass, stim: TraceStimulus,
             n_blocks: int) -> List[MicroOp]:
    """Run *kernel* over *n_blocks* synthetic blocks; return its trace."""
    rec = TraceRecorder()
    ports: List[Any] = []
    for spec in kernel.port_specs:
        if spec.is_input:
            block = stim.items_for(spec)
            ports.append(KernelReadPort(spec, _TraceTransport(
                spec, rec, block * n_blocks, block,
                stim.rtp_values.get(spec.name, 0),
            ), 0))
        else:
            ports.append(KernelWritePort(spec, _TraceTransport(spec, rec)))
    coro = kernel.instantiate(ports)
    with rec:
        try:
            coro.send(None)
            raise SimulationError(
                f"kernel {kernel.name} suspended during trace capture; "
                f"trace ports never block — is it yielding manually?"
            )
        except (_TraceEnd, StopIteration):
            pass  # input budget spent, or a kernel with a finite loop
        finally:
            coro.close()
    return rec.ops


@dataclass(frozen=True)
class Segment:
    """One step of a kernel program.

    kind:
        ``compute`` (cycles of VLIW execution), ``stream_rd``/
        ``stream_wr`` (stream element access: issue cycles + *words* of
        stream traffic), ``win_rd``/``win_wr`` (window handshake:
        lock interaction + buffer hand-over), or ``rtp_rd``.
    """

    kind: str
    cycles: int = 0
    port: str = ""
    words: int = 0

    def __repr__(self):
        if self.kind == "compute":
            return f"Seg(compute,{self.cycles}cyc)"
        return f"Seg({self.kind},{self.port},{self.words}w,{self.cycles}cyc)"


@dataclass
class KernelProgram:
    """The timed program one tile executes: init once, then body per block."""

    name: str
    mode: str                      # 'hand' | 'thunk'
    classification: str
    init: List[Segment]
    body: List[Segment]
    per_block_overhead: int        # invocation / loop overhead cycles
    io_words: Dict[str, int]       # per port: stream words per block

    @property
    def body_compute_cycles(self) -> int:
        return sum(s.cycles for s in self.body if s.kind == "compute")

    @property
    def body_cycles_lower_bound(self) -> int:
        """Block interval if no stall ever occurs."""
        return sum(s.cycles for s in self.body) + self.per_block_overhead


def _segment_ops(ops: List[MicroOp], mode: str, classification: str,
                 model: CycleModel) -> Tuple[List[Segment], Dict[str, int]]:
    """Split a micro-op run into Segments; returns (segments, io_words)."""
    segments: List[Segment] = []
    pending: List[MicroOp] = []
    io_words: Dict[str, int] = {}

    def flush():
        if pending:
            cycles = model.pack_segment(pending, mode, classification)
            segments.append(Segment("compute", cycles=cycles))
            pending.clear()

    for op in ops:
        if op.op not in IO_OPS:
            pending.append(op)
            continue
        flush()
        port = op.get("port", "")
        nbytes = op.lanes * op.ebytes
        words = max(1, (nbytes + 3) // 4)
        if op.op in ("stream_rd", "stream_wr"):
            cycles = model.stream_access_cycles(mode)
        elif op.op in ("win_rd", "win_wr"):
            cycles = model.window_handshake_cycles(mode)
        else:  # rtp
            cycles = 1
            words = 0
        io_words[port] = io_words.get(port, 0) + words
        segments.append(Segment(op.op, cycles=cycles, port=port,
                                words=words))
    flush()
    return segments, io_words


def build_kernel_program(kernel: KernelClass, stim: TraceStimulus,
                         mode: str,
                         model: Optional[CycleModel] = None
                         ) -> KernelProgram:
    """Capture and time one kernel; see module docstring for the method."""
    if mode not in ("hand", "thunk"):
        raise SimulationError(f"unknown timing mode {mode!r}")
    model = model or CycleModel()

    trace1 = _capture(kernel, stim, 1)
    trace2 = _capture(kernel, stim, 2)
    if len(trace2) <= len(trace1):
        raise SimulationError(
            f"kernel {kernel.name}: two-block trace is not longer than "
            f"one-block trace; kernel does not loop over blocks?"
        )
    body_ops = trace2[len(trace1):]
    init_ops = trace1[:len(trace1) - len(body_ops)]
    # Sanity: the tail of trace1 should equal the steady-state body.
    tail = trace1[len(trace1) - len(body_ops):]
    if [o.op for o in tail] != [o.op for o in body_ops]:
        raise SimulationError(
            f"kernel {kernel.name}: non-stationary per-block trace; the "
            f"cycle-approximate model requires data-independent control "
            f"flow"
        )

    classification = classify_trace(body_ops)
    body, io_words = _segment_ops(body_ops, mode, classification, model)
    init, _ = _segment_ops(init_ops, mode, classification, model)
    return KernelProgram(
        name=kernel.name,
        mode=mode,
        classification=classification,
        init=init,
        body=body,
        per_block_overhead=model.per_block_cycles(mode),
        io_words=io_words,
    )
