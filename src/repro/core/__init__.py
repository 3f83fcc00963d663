"""repro.core — the cgsim compute-graph simulation library (paper §3).

Public API surface for building, serializing, and running compute-graph
prototypes embedded in ordinary Python programs::

    from repro.core import (
        compute_kernel, make_compute_graph, extract_compute_graph,
        In, Out, IoC, IoConnector, AIE, float32,
    )

    @compute_kernel(realm=AIE)
    async def adder(in1: In[float32], in2: In[float32], out: Out[float32]):
        while True:
            await out.put((await in1.get()) + (await in2.get()))

    @make_compute_graph
    def the_graph(a: IoC[float32], b: IoC[float32]):
        c = IoConnector(float32)
        adder(a, b, c)
        return c

    result: list = []
    the_graph([1.0, 2.0], [10.0, 20.0], result)
    assert result == [11.0, 22.0]
"""

from .builder import (
    CompiledGraph,
    build_compute_graph,
    extract_compute_graph,
    make_compute_graph,
)
from .connectors import IoC, IoConnector
from .dtypes import (
    ComplexIntType,
    ScalarType,
    StreamType,
    Struct,
    StructType,
    Vec,
    VectorType,
    Window,
    WindowType,
    cint16,
    cint32,
    dtype_by_key,
    float32,
    float64,
    int8,
    int16,
    int32,
    int64,
    register_dtype,
    uint8,
    uint16,
    uint32,
)
from .graph import ComputeGraph, KernelInstance, Net, PortEndpoint
from .kernel import (
    AIE,
    HLS,
    NOEXTRACT,
    PYSIM,
    KernelClass,
    Realm,
    compute_kernel,
    kernel_by_key,
    kernel_registry,
    realm_by_name,
)
from .ports import (
    In,
    KernelReadPort,
    KernelWritePort,
    Out,
    PortDirection,
    PortSettings,
    PortSpec,
    merge_settings,
)
from .queues import DEFAULT_QUEUE_CAPACITY, BroadcastQueue, LatchQueue
from .result import RunResult
from .runtime import RuntimeContext
from .scheduler import CooperativeScheduler, SchedulerStats, TaskState, sched_yield
from .serialize import FORMAT_VERSION, SerializedGraph, flatten_graph
from .sources_sinks import RuntimeParam
from .templates import KernelTemplate, kernel_template
from .transport import (
    Transport,
    TransportInfo,
    _register_builtin_transports,
    available_transports,
    get_transport,
    make_queue,
    register_transport,
)
from .validation import GraphIssue, check_graph, find_kernel_cycles, realm_summary

_register_builtin_transports()

__all__ = [
    # construction
    "compute_kernel", "make_compute_graph", "build_compute_graph",
    "extract_compute_graph", "CompiledGraph", "IoConnector", "IoC",
    # ports
    "In", "Out", "PortSettings", "PortSpec", "PortDirection",
    "KernelReadPort", "KernelWritePort", "merge_settings",
    # realms & kernels
    "Realm", "AIE", "HLS", "NOEXTRACT", "PYSIM", "KernelClass",
    "kernel_registry", "kernel_by_key", "realm_by_name",
    "kernel_template", "KernelTemplate",
    # dtypes
    "StreamType", "ScalarType", "VectorType", "WindowType", "StructType",
    "ComplexIntType", "float32", "float64", "int8", "int16", "int32",
    "int64", "uint8", "uint16", "uint32", "cint16", "cint32",
    "Vec", "Window", "Struct", "register_dtype", "dtype_by_key",
    # graph / serialization
    "ComputeGraph", "Net", "KernelInstance", "PortEndpoint",
    "SerializedGraph", "flatten_graph", "FORMAT_VERSION",
    # runtime
    "RuntimeContext", "RunResult", "RuntimeParam", "BroadcastQueue",
    "LatchQueue", "DEFAULT_QUEUE_CAPACITY", "CooperativeScheduler",
    "SchedulerStats", "TaskState", "sched_yield",
    # transports
    "Transport", "TransportInfo", "register_transport", "get_transport",
    "available_transports", "make_queue",
    # validation
    "GraphIssue", "check_graph", "find_kernel_cycles", "realm_summary",
]
