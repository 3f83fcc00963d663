"""Graph construction: the Python analog of ``make_compute_graph_v``.

cgsim constructs graphs at *compile time* by evaluating a builder lambda
in a ``constexpr`` context (§3.4).  The Python analog is **build-time
tracing**: :func:`make_compute_graph` runs the builder function once,
inside a sealed :class:`BuildContext`, before any data exists.  Kernel
calls and :class:`IoConnector` uses are recorded; the result is frozen
into a flat :class:`~repro.core.serialize.SerializedGraph` exactly like
the paper's constexpr flattening step (§3.5).

The two-phase discipline is preserved: graph topology can never depend on
runtime data, because the builder runs before the program has any.  All
structural errors (type mismatches, incompatible port settings, dangling
connectors) surface here — the analog of compile-time diagnostics.

Typical use, mirroring Figure 4 of the paper::

    @make_compute_graph
    def the_graph(a: IoC[int32]):
        b = IoConnector(int32)
        c = IoConnector(int32)
        k(a, b)
        k(b, c)
        return c
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import BuildContextError, GraphBuildError, PortTypeError
from .connectors import IoConnector, _IoCAnnotation
from .dtypes import StreamType
from .graph import ComputeGraph, GraphIo, KernelInstance, Net, PortEndpoint
from .kernel import KernelClass
from .ports import PortSettings, merge_settings

__all__ = [
    "make_compute_graph",
    "build_compute_graph",
    "CompiledGraph",
    "current_build_context",
    "extract_compute_graph",
]


_tls = threading.local()


def current_build_context(required: bool = True):
    """The innermost active BuildContext, or None/raise when absent."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None and required:
        raise BuildContextError(
            "compute-graph construction API used outside "
            "make_compute_graph(); kernels can only be instantiated inside "
            "a graph definition function"
        )
    return ctx


@dataclass
class _InstanceRecord:
    kernel: KernelClass
    connectors: Tuple[IoConnector, ...]  # one per declared port, in order
    instance_name: str


class KernelInstanceHandle:
    """Returned by calling a kernel inside a builder; allows renaming and
    inspection of the recorded instance."""

    __slots__ = ("_record",)

    def __init__(self, record: _InstanceRecord):
        self._record = record

    @property
    def instance_name(self) -> str:
        return self._record.instance_name

    def named(self, name: str) -> "KernelInstanceHandle":
        """Give this instance an explicit name (shows up in codegen)."""
        if not name or not isinstance(name, str):
            raise GraphBuildError(f"invalid instance name {name!r}")
        self._record.instance_name = name
        return self

    def __repr__(self):
        return f"<kernel instance {self._record.instance_name}>"


class BuildContext:
    """Records connectors and kernel instances during builder execution."""

    def __init__(self, graph_name: str):
        self.graph_name = graph_name
        self.connectors: List[IoConnector] = []
        self.instances: List[_InstanceRecord] = []
        self._name_counts: Dict[str, int] = {}

    # -- registration ------------------------------------------------------------

    def register_connector(self, conn: IoConnector) -> None:
        self.connectors.append(conn)

    def add_kernel_instance(self, kernel: KernelClass, args, kwargs
                            ) -> KernelInstanceHandle:
        """Bind connector arguments to *kernel*'s ports and record the
        instance (a kernel call inside the builder, §3.4)."""
        specs = kernel.port_specs
        bound: List[Optional[IoConnector]] = [None] * len(specs)

        if len(args) > len(specs):
            raise GraphBuildError(
                f"kernel {kernel.name} takes {len(specs)} ports, "
                f"{len(args)} positional arguments given"
            )
        for i, arg in enumerate(args):
            bound[i] = arg
        name_to_idx = {s.name: i for i, s in enumerate(specs)}
        for pname, arg in kwargs.items():
            idx = name_to_idx.get(pname)
            if idx is None:
                raise GraphBuildError(
                    f"kernel {kernel.name} has no port {pname!r}"
                )
            if bound[idx] is not None:
                raise GraphBuildError(
                    f"kernel {kernel.name} port {pname!r} bound twice"
                )
            bound[idx] = arg

        for i, (spec, conn) in enumerate(zip(specs, bound)):
            if conn is None:
                raise GraphBuildError(
                    f"kernel {kernel.name} port {spec.name!r} not connected"
                )
            if not isinstance(conn, IoConnector):
                raise GraphBuildError(
                    f"kernel {kernel.name} port {spec.name!r} must receive "
                    f"an IoConnector, got {type(conn).__name__}"
                )
            conn.unify_dtype(
                spec.dtype,
                where=f" (kernel {kernel.name}, port {spec.name})",
            )

        n = self._name_counts.get(kernel.name, 0)
        self._name_counts[kernel.name] = n + 1
        record = _InstanceRecord(
            kernel=kernel,
            connectors=tuple(bound),  # type: ignore[arg-type]
            instance_name=f"{kernel.name}_{n}",
        )
        self.instances.append(record)
        return KernelInstanceHandle(record)


def _builder_input_connectors(builder: Callable, ctx: BuildContext
                              ) -> List[IoConnector]:
    """Create one input connector per builder parameter (§3.4: the
    lambda's IoConnector parameters become the graph's global inputs)."""
    try:
        sig = inspect.signature(builder, eval_str=True)
    except (NameError, TypeError):
        sig = inspect.signature(builder)
    conns = []
    for pname, param in sig.parameters.items():
        ann = param.annotation
        if not isinstance(ann, _IoCAnnotation):
            raise GraphBuildError(
                f"graph definition parameter {pname!r} must be annotated "
                f"with IoC[<stream type>] (it becomes a global graph "
                f"input), got {ann!r}"
            )
        conns.append(IoConnector(ann.dtype, name=pname))
    return conns


def _normalize_outputs(ret: Any) -> Tuple[IoConnector, ...]:
    if ret is None:
        return ()
    if isinstance(ret, IoConnector):
        return (ret,)
    if isinstance(ret, (tuple, list)):
        for c in ret:
            if not isinstance(c, IoConnector):
                raise GraphBuildError(
                    f"graph definition must return IoConnectors, got "
                    f"{type(c).__name__} in the returned sequence"
                )
        return tuple(ret)
    raise GraphBuildError(
        f"graph definition must return None, an IoConnector, or a sequence "
        f"of IoConnectors, got {type(ret).__name__}"
    )


def _finalize(ctx: BuildContext, inputs: Sequence[IoConnector],
              outputs: Sequence[IoConnector]) -> Tuple[ComputeGraph, List[str]]:
    """Turn the traced records into a ComputeGraph; validate everything."""
    warnings: List[str] = []

    # Collect endpoints per connector.
    producers: Dict[int, List[PortEndpoint]] = {}
    consumers: Dict[int, List[PortEndpoint]] = {}
    for inst_idx, rec in enumerate(ctx.instances):
        for port_idx, conn in enumerate(rec.connectors):
            ep = PortEndpoint(inst_idx, port_idx)
            spec = rec.kernel.port_specs[port_idx]
            side = consumers if spec.is_input else producers
            side.setdefault(conn.uid, []).append(ep)

    input_uids = {c.uid for c in inputs}
    output_uids = {c.uid for c in outputs}

    # Assign net ids to connectors that matter, in creation order.
    nets: List[Net] = []
    uid_to_netid: Dict[int, int] = {}
    for conn in ctx.connectors:
        used = (
            conn.uid in producers or conn.uid in consumers
            or conn.uid in input_uids or conn.uid in output_uids
        )
        if not used:
            warnings.append(f"connector {conn.name!r} is never used")
            continue
        if conn.dtype is None:
            raise PortTypeError(
                f"connector {conn.name!r} has no stream type: it was never "
                f"bound to a typed port and declares no dtype"
            )
        net_id = len(nets)
        uid_to_netid[conn.uid] = net_id

        prods = tuple(producers.get(conn.uid, ()))
        cons = tuple(consumers.get(conn.uid, ()))

        # Merge port settings across every endpoint (§3.4).  The fold
        # starts from the first endpoint's settings: defaults only apply
        # when a connector has no kernel endpoints at all.
        settings = None
        for ep in prods + cons:
            spec = ctx.instances[ep.instance_idx].kernel.port_specs[ep.port_idx]
            if settings is None:
                settings = spec.settings
            else:
                settings = merge_settings(
                    settings, spec.settings,
                    where=f" on connector {conn.name!r}",
                )
        if settings is None:
            settings = PortSettings()

        # Structural validation.
        if cons and not prods and conn.uid not in input_uids:
            raise GraphBuildError(
                f"connector {conn.name!r} feeds kernel inputs but has no "
                f"producer and is not a global graph input"
            )
        if prods and not cons and conn.uid not in output_uids:
            warnings.append(
                f"connector {conn.name!r} is written but never read; its "
                f"data is dropped"
            )
        if conn.uid in input_uids and not cons:
            warnings.append(
                f"global input {conn.name!r} has no consumers"
            )
        if conn.uid in output_uids and not prods and conn.uid not in input_uids:
            raise GraphBuildError(
                f"global output {conn.name!r} has no producer"
            )

        nets.append(Net(
            net_id=net_id,
            name=conn.name,
            dtype=conn.dtype,
            producers=prods,
            consumers=cons,
            attrs=dict(conn.attrs),
            settings=settings,
        ))

    kernels = [
        KernelInstance(
            index=i,
            kernel=rec.kernel,
            instance_name=rec.instance_name,
            port_nets=tuple(uid_to_netid[c.uid] for c in rec.connectors),
        )
        for i, rec in enumerate(ctx.instances)
    ]

    graph_inputs = [
        GraphIo(io_index=i, net_id=uid_to_netid[c.uid], name=c.name,
                dtype=c.dtype, is_input=True)
        for i, c in enumerate(inputs)
    ]
    graph_outputs = [
        GraphIo(io_index=i, net_id=uid_to_netid[c.uid], name=c.name,
                dtype=c.dtype, is_input=False)
        for i, c in enumerate(outputs)
    ]

    graph = ComputeGraph(
        name=ctx.graph_name,
        kernels=kernels,
        nets=nets,
        inputs=graph_inputs,
        outputs=graph_outputs,
    )
    return graph, warnings


class CompiledGraph:
    """A fully constructed, flattened compute graph.

    This object corresponds to the ``constexpr`` variable holding the
    serialized graph in the C++ version: it owns only the flat
    :class:`SerializedGraph` plus source metadata, and it is *callable* —
    invoking it instantiates and runs the graph (§3.6–3.8)::

        report = the_graph(input_list, output_list)

    Positional arguments are data sources for the global inputs (in
    order) followed by data sinks for the global outputs (§3.7).
    """

    def __init__(self, serialized, builder: Optional[Callable] = None,
                 warnings: Optional[List[str]] = None):
        self.serialized = serialized
        self.builder = builder
        self.warnings = list(warnings or [])
        #: Set by :func:`extract_compute_graph`; the extractor only pulls
        #: graphs that carry this mark (the paper's custom attribute, §4.2).
        self.extract_marked = False
        if builder is not None:
            self.module = builder.__module__
            self.qualname = builder.__qualname__
            try:
                self.source_file = inspect.getsourcefile(builder)
            except TypeError:
                self.source_file = None
        else:
            self.module = None
            self.qualname = None
            self.source_file = None
        self._graph_cache: Optional[ComputeGraph] = None
        self._graph_cache_epoch: int = -1

    @property
    def name(self) -> str:
        return self.serialized.name

    @property
    def graph(self) -> ComputeGraph:
        """Deserialize (cached) back to the pointer-based IR (§3.6).

        The cache is keyed on the kernel-registry epoch: re-registering
        a kernel (a mutated definition under a test runner, a reloaded
        module) must not resurrect instances bound to its old
        definition — the same invalidation rule as
        :func:`repro.exec.resolve_graph`'s memo.
        """
        from .kernel import kernel_registry_epoch

        epoch = kernel_registry_epoch()
        if self._graph_cache is None or self._graph_cache_epoch != epoch:
            self._graph_cache = self.serialized.deserialize()
            self._graph_cache_epoch = epoch
        return self._graph_cache

    def __call__(self, *io, **run_options):
        """Instantiate and run the graph with the given sources/sinks
        on the cgsim runtime (options as ``run_graph(backend="cgsim")``
        takes them); returns the :class:`~repro.core.result.RunResult`."""
        from ..exec import run_graph

        return run_graph(self, *io, backend="cgsim", **run_options)

    def __repr__(self):
        return f"<CompiledGraph {self.name!r}>"


def build_compute_graph(builder: Callable, *, name: Optional[str] = None
                        ) -> CompiledGraph:
    """Execute *builder* in a build context and return the compiled graph.

    This is the functional form; :func:`make_compute_graph` is the
    decorator spelling that mirrors the paper's
    ``make_compute_graph_v<[](...){...}>`` template variable.
    """
    if current_build_context(required=False) is not None:
        raise BuildContextError(
            "nested graph construction is not supported: "
            "make_compute_graph() called while another graph is being built"
        )
    graph_name = name or getattr(builder, "__name__", "graph")
    ctx = BuildContext(graph_name)
    _tls.ctx = ctx
    try:
        inputs = _builder_input_connectors(builder, ctx)
        ret = builder(*inputs)
        outputs = _normalize_outputs(ret)
    finally:
        _tls.ctx = None

    graph, warnings = _finalize(ctx, inputs, outputs)

    from .serialize import flatten_graph

    serialized = flatten_graph(graph)
    return CompiledGraph(serialized, builder=builder, warnings=warnings)


def make_compute_graph(builder: Optional[Callable] = None, *,
                       name: Optional[str] = None):
    """Decorator form of graph construction (paper's
    ``make_compute_graph_v``)::

        @make_compute_graph
        def the_graph(a: IoC[int32]):
            ...
            return c

    ``the_graph`` becomes a :class:`CompiledGraph`.
    """
    if builder is None:
        return lambda b: build_compute_graph(b, name=name)
    return build_compute_graph(builder, name=name)


def extract_compute_graph(graph: CompiledGraph) -> CompiledGraph:
    """Mark *graph* for extraction (the paper's custom
    ``extract_compute_graph`` attribute on the constexpr variable, §4.2).

    Usable as a post-call marker or stacked above the graph decorator::

        @extract_compute_graph
        @make_compute_graph
        def the_graph(a: IoC[float32]): ...
    """
    if not isinstance(graph, CompiledGraph):
        raise GraphBuildError(
            "extract_compute_graph() must be applied to a CompiledGraph "
            "(apply it above @make_compute_graph)"
        )
    graph.extract_marked = True
    return graph
