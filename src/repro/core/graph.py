"""In-memory (pointer-based) compute graph intermediate representation.

This is the analog of the object graph cgsim builds in the compile-time
heap (§3.4–3.5): kernel instances, nets (one per IoConnector that carries
traffic), and global I/O descriptors.  It exists in two places:

* transiently, at the end of graph construction, before flattening; and
* after deserialization, when the runtime or the extractor reconstructs
  it from the flat :class:`~repro.core.serialize.SerializedGraph`.

Unlike the serialized form, this IR references :class:`KernelClass`
objects and :class:`StreamType` objects directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import GraphBuildError
from .dtypes import StreamType
from .kernel import KernelClass
from .ports import PortDirection, PortSettings, PortSpec

__all__ = ["PortEndpoint", "Net", "KernelInstance", "ComputeGraph"]


@dataclass(frozen=True)
class PortEndpoint:
    """One side of a connection: port *port_idx* of kernel *instance_idx*."""

    instance_idx: int
    port_idx: int


@dataclass
class Net:
    """A stream net: every element written by any producer endpoint is
    broadcast to every consumer endpoint (§3.4, §3.6).

    ``producers``/``consumers`` reference kernel endpoints only; whether a
    net is additionally a graph input/output is recorded on the graph's
    ``inputs``/``outputs`` lists.
    """

    net_id: int
    name: str
    dtype: StreamType
    producers: Tuple[PortEndpoint, ...] = ()
    consumers: Tuple[PortEndpoint, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)
    settings: PortSettings = PortSettings()

    @property
    def is_broadcast(self) -> bool:
        return len(self.consumers) > 1

    @property
    def is_merge(self) -> bool:
        return len(self.producers) > 1

    def queue_depth(self, default: int) -> int:
        """Ring depth for this net: its port settings' ``depth``, else
        a ``depth`` connection attribute, else *default*."""
        depth = self.settings.depth
        if depth is None:
            attr_depth = self.attrs.get("depth")
            depth = int(attr_depth) if attr_depth is not None else default
        return depth


@dataclass
class KernelInstance:
    """One instantiation of a kernel class within a graph.

    ``port_nets[i]`` is the net id bound to the kernel's i-th declared
    port (every port must be bound).
    """

    index: int
    kernel: KernelClass
    instance_name: str
    port_nets: Tuple[int, ...] = ()

    @property
    def realm(self):
        return self.kernel.realm


@dataclass
class GraphIo:
    """A global input or output of the graph (§3.7)."""

    io_index: int
    net_id: int
    name: str
    dtype: StreamType
    is_input: bool


class ComputeGraph:
    """The reconstructed pointer-based compute graph."""

    def __init__(self, name: str, kernels: List[KernelInstance],
                 nets: List[Net], inputs: List[GraphIo],
                 outputs: List[GraphIo]):
        self.name = name
        self.kernels = kernels
        self.nets = nets
        self.inputs = inputs
        self.outputs = outputs
        self._net_by_id = {n.net_id: n for n in nets}

    # -- lookups ----------------------------------------------------------------

    def net(self, net_id: int) -> Net:
        try:
            return self._net_by_id[net_id]
        except KeyError:
            raise GraphBuildError(
                f"graph {self.name!r} has no net {net_id}"
            ) from None

    def kernel_instance(self, idx: int) -> KernelInstance:
        return self.kernels[idx]

    def instances_of(self, kernel: KernelClass) -> List[KernelInstance]:
        return [k for k in self.kernels if k.kernel is kernel]

    def endpoint_spec(self, ep: PortEndpoint) -> PortSpec:
        """The PortSpec a given endpoint refers to."""
        inst = self.kernels[ep.instance_idx]
        return inst.kernel.port_specs[ep.port_idx]

    def input_net_ids(self) -> List[int]:
        return [io.net_id for io in self.inputs]

    def output_net_ids(self) -> List[int]:
        return [io.net_id for io in self.outputs]

    @property
    def realms(self) -> Tuple:
        """All realms present among this graph's kernels, sorted by name."""
        return tuple(
            sorted({k.realm for k in self.kernels}, key=lambda r: r.name)
        )

    # -- structure --------------------------------------------------------------

    def consumers_of_net(self, net_id: int) -> List[Tuple[KernelInstance, PortSpec]]:
        net = self.net(net_id)
        return [
            (self.kernels[ep.instance_idx], self.endpoint_spec(ep))
            for ep in net.consumers
        ]

    def producers_of_net(self, net_id: int) -> List[Tuple[KernelInstance, PortSpec]]:
        net = self.net(net_id)
        return [
            (self.kernels[ep.instance_idx], self.endpoint_spec(ep))
            for ep in net.producers
        ]

    def downstream_instances(self, inst: KernelInstance) -> List[KernelInstance]:
        """Kernel instances fed by any output of *inst*."""
        out = []
        seen = set()
        for port_idx, net_id in enumerate(inst.port_nets):
            if inst.kernel.port_specs[port_idx].is_output:
                for ep in self.net(net_id).consumers:
                    if ep.instance_idx not in seen:
                        seen.add(ep.instance_idx)
                        out.append(self.kernels[ep.instance_idx])
        return out

    def to_networkx(self):
        """Export a networkx MultiDiGraph of kernel instances and I/O.

        Nodes: ``('k', idx)`` for kernels, ``('in', i)`` / ``('out', i)``
        for global I/O.  Edge data carries the net id and dtype name.
        """
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for inst in self.kernels:
            g.add_node(("k", inst.index), label=inst.instance_name,
                       kernel=inst.kernel.name, realm=inst.realm.name)
        for io in self.inputs:
            g.add_node(("in", io.io_index), label=io.name)
        for io in self.outputs:
            g.add_node(("out", io.io_index), label=io.name)

        for net in self.nets:
            srcs = [("k", ep.instance_idx) for ep in net.producers]
            dsts = [("k", ep.instance_idx) for ep in net.consumers]
            srcs += [("in", io.io_index) for io in self.inputs
                     if io.net_id == net.net_id]
            dsts += [("out", io.io_index) for io in self.outputs
                     if io.net_id == net.net_id]
            for s in srcs:
                for d in dsts:
                    g.add_edge(s, d, net=net.net_id, dtype=net.dtype.name)
        return g

    # -- stats ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Structural summary used by tests and the DOT renderer."""
        return {
            "kernels": len(self.kernels),
            "nets": len(self.nets),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "broadcasts": sum(1 for n in self.nets if n.is_broadcast),
            "merges": sum(1 for n in self.nets if n.is_merge),
            "realms": len(self.realms),
        }

    def __repr__(self):
        s = self.stats()
        return (
            f"<ComputeGraph {self.name!r} kernels={s['kernels']} "
            f"nets={s['nets']} io={s['inputs']}+{s['outputs']}>"
        )
