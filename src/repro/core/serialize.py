"""Graph flattening: the analog of cgsim's constexpr serialization (§3.5).

The pointer-based graph built during construction cannot cross the
build/runtime phase boundary (in C++ because constexpr allocations must be
freed before evaluation ends; here because we deliberately enforce the
same discipline).  ``flatten_graph`` converts a
:class:`~repro.core.graph.ComputeGraph` into a
:class:`SerializedGraph`: a frozen structure of **flat tuples of integers
and strings** with index-based vertex references.  Kernels and stream
types are referenced by registry key, mirroring the template-function
pointers that preserve type information in the C++ version.

The serialized form is the *only* interface between graph construction
and (a) the runtime deserializer (§3.6) and (b) the graph extractor
(§4.2).  It round-trips losslessly through JSON, which the extractor's
CLI uses for out-of-process operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..errors import SerializationError
from .dtypes import dtype_by_key
from .graph import ComputeGraph, GraphIo, KernelInstance, Net, PortEndpoint
from .kernel import kernel_by_key
from .ports import PortSettings

__all__ = ["SerializedGraph", "flatten_graph", "FORMAT_VERSION"]

#: Bumped whenever the flat layout changes; deserializers check it.
FORMAT_VERSION = 3


def _freeze_attrs(attrs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(attrs.items()))


@dataclass(frozen=True)
class SerializedGraph:
    """Flattened, array-based compute graph (§3.5).

    Layout (all tuples, no object references):

    ``kernel_table``
        one ``(kernel_registry_key, instance_name)`` per kernel instance;
        the row index is the instance index.
    ``binding_table``
        one ``(net_id, ...)`` per kernel instance: the net bound to each
        declared port, in signature order.
    ``net_table``
        one ``(net_id, name, dtype_key, settings_tuple, attrs)`` per net.
    ``input_table`` / ``output_table``
        one ``(net_id, name, dtype_key)`` per global input/output, in
        positional binding order (§3.7).
    """

    format_version: int
    name: str
    kernel_table: Tuple[Tuple[str, str], ...]
    binding_table: Tuple[Tuple[int, ...], ...]
    net_table: Tuple[Tuple[int, str, str, Tuple, Tuple], ...]
    input_table: Tuple[Tuple[int, str, str], ...]
    output_table: Tuple[Tuple[int, str, str], ...]

    # -- integrity ---------------------------------------------------------------

    def validate(self) -> None:
        """Structural sanity checks; raises SerializationError."""
        if self.format_version != FORMAT_VERSION:
            raise SerializationError(
                f"serialized graph format {self.format_version} != "
                f"supported {FORMAT_VERSION}"
            )
        if len(self.kernel_table) != len(self.binding_table):
            raise SerializationError(
                "kernel table and binding table lengths differ"
            )
        net_ids = {row[0] for row in self.net_table}
        if len(net_ids) != len(self.net_table):
            raise SerializationError("duplicate net ids in net table")
        for bindings in self.binding_table:
            for net_id in bindings:
                if net_id not in net_ids:
                    raise SerializationError(
                        f"binding references unknown net {net_id}"
                    )
        for net_id, name, _dtype in self.input_table + self.output_table:
            if net_id not in net_ids:
                raise SerializationError(
                    f"global I/O {name!r} references unknown net {net_id}"
                )

    # -- reconstruction (§3.6 deserializer) ---------------------------------------

    def deserialize(self) -> ComputeGraph:
        """Reconstruct the pointer-based graph from the flat tables.

        Index-based references are converted back into object references;
        kernel and dtype registry keys are resolved through the live
        registries (the defining modules must be imported — the same
        requirement the C++ version satisfies by linking the kernels in).
        """
        self.validate()

        nets: List[Net] = []
        for net_id, name, dtype_key, settings_t, attrs in sorted(self.net_table):
            nets.append(Net(
                net_id=net_id,
                name=name,
                dtype=dtype_by_key(dtype_key),
                attrs=dict(attrs),
                settings=PortSettings.from_tuple(settings_t),
            ))
        net_by_id = {n.net_id: n for n in nets}

        kernels: List[KernelInstance] = []
        producers: Dict[int, List[PortEndpoint]] = {}
        consumers: Dict[int, List[PortEndpoint]] = {}
        for idx, ((key, iname), bindings) in enumerate(
            zip(self.kernel_table, self.binding_table)
        ):
            kc = kernel_by_key(key)
            if len(bindings) != len(kc.port_specs):
                raise SerializationError(
                    f"instance {iname!r}: {len(bindings)} bindings for "
                    f"{len(kc.port_specs)} ports of kernel {kc.name}"
                )
            for port_idx, net_id in enumerate(bindings):
                spec = kc.port_specs[port_idx]
                net = net_by_id[net_id]
                if net.dtype != spec.dtype:
                    raise SerializationError(
                        f"instance {iname!r} port {spec.name!r}: net dtype "
                        f"{net.dtype.name} != port dtype {spec.dtype.name}"
                    )
                ep = PortEndpoint(idx, port_idx)
                side = consumers if spec.is_input else producers
                side.setdefault(net_id, []).append(ep)
            kernels.append(KernelInstance(
                index=idx, kernel=kc, instance_name=iname,
                port_nets=tuple(bindings),
            ))

        for net in nets:
            net.producers = tuple(producers.get(net.net_id, ()))
            net.consumers = tuple(consumers.get(net.net_id, ()))

        inputs = [
            GraphIo(io_index=i, net_id=nid, name=name,
                    dtype=dtype_by_key(dk), is_input=True)
            for i, (nid, name, dk) in enumerate(self.input_table)
        ]
        outputs = [
            GraphIo(io_index=i, net_id=nid, name=name,
                    dtype=dtype_by_key(dk), is_input=False)
            for i, (nid, name, dk) in enumerate(self.output_table)
        ]
        return ComputeGraph(self.name, kernels, nets, inputs, outputs)

    # -- JSON round trip -----------------------------------------------------------

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps({
            "format_version": self.format_version,
            "name": self.name,
            "kernel_table": [list(r) for r in self.kernel_table],
            "binding_table": [list(r) for r in self.binding_table],
            "net_table": [
                [nid, name, dk, list(st), [list(a) for a in attrs]]
                for nid, name, dk, st, attrs in self.net_table
            ],
            "input_table": [list(r) for r in self.input_table],
            "output_table": [list(r) for r in self.output_table],
        }, indent=indent)

    @staticmethod
    def from_json(text: str) -> "SerializedGraph":
        try:
            d = json.loads(text)
            sg = SerializedGraph(
                format_version=d["format_version"],
                name=d["name"],
                kernel_table=tuple((k, n) for k, n in d["kernel_table"]),
                binding_table=tuple(
                    tuple(int(x) for x in row) for row in d["binding_table"]
                ),
                net_table=tuple(
                    (int(nid), name, dk, tuple(st),
                     tuple((a, v) for a, v in attrs))
                    for nid, name, dk, st, attrs in d["net_table"]
                ),
                input_table=tuple(
                    (int(nid), name, dk)
                    for nid, name, dk in d["input_table"]
                ),
                output_table=tuple(
                    (int(nid), name, dk)
                    for nid, name, dk in d["output_table"]
                ),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise SerializationError(
                f"malformed serialized graph JSON: {exc}"
            ) from exc
        sg.validate()
        return sg

    def __call__(self, *io, **run_options):
        """Run the graph directly from its serialized form.

        Matches the C++ API where the serialized graph object's function
        call operator instantiates and executes the graph (§3.6); the
        options are the compiled graph's call operator's, ``optimize``
        included, and so is the returned
        :class:`~repro.core.result.RunResult`.
        """
        from ..exec import run_graph

        return run_graph(self, *io, backend="cgsim", **run_options)


def flatten_graph(graph: ComputeGraph) -> SerializedGraph:
    """Flatten a pointer-based graph into the array form (§3.5)."""
    sg = SerializedGraph(
        format_version=FORMAT_VERSION,
        name=graph.name,
        kernel_table=tuple(
            (inst.kernel.registry_key, inst.instance_name)
            for inst in graph.kernels
        ),
        binding_table=tuple(inst.port_nets for inst in graph.kernels),
        net_table=tuple(
            (net.net_id, net.name, net.dtype.key,
             net.settings.as_tuple(), _freeze_attrs(net.attrs))
            for net in graph.nets
        ),
        input_table=tuple(
            (io.net_id, io.name, io.dtype.key) for io in graph.inputs
        ),
        output_table=tuple(
            (io.net_id, io.name, io.dtype.key) for io in graph.outputs
        ),
    )
    sg.validate()
    return sg
