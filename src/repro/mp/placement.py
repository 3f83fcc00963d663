"""Shard placement: kernel instances onto worker processes.

The manager side of the FireSim-style manager/runfarm split.  Placement
starts from the extractor's realm partition (§4.3) and produces one
*shard* (a set of kernel instances) per worker, subject to two rules:

1. **Acyclic worker quotient.**  Inter-worker nets form a DAG over the
   shards.  This is what makes distributed termination trivial: a worker
   finishes only after every upstream worker finished and marked its
   rings EOF, so end-of-stream cascades in topological order with no
   distributed-consensus protocol.  The guarantee comes from
   construction: strongly-connected kernel components are contracted
   first (a feedback loop never crosses a process boundary), the
   condensation is topologically ordered, and shards are cut as
   contiguous segments of that order.  The graph work — an iterative
   Tarjan for the components, Kahn's order of the condensation,
   union-find for the independent parts — is plain stdlib code: no
   networkx import on the run path (importing it costs more than a
   whole small sharded run).
2. **Realm affinity.**  Independent components are grouped by dominant
   realm before balancing, so when workers ≥ realms each realm's
   kernels tend to land together — the placement analog of the
   extractor emitting one artifact per realm backend.

Runtime-parameter nets are exempt from the quotient-DAG rule (a latch
is configuration, not streaming dataflow), but a *kernel-produced* RTP
consumed on another worker has no cross-process latch carrier, so
placement keeps such producer/consumer sets co-located by contracting
them into one unit.

Two further co-location rules keep the transport single-writer:

* all kernel producers of one net stay on one worker, so every stream
  net has exactly **one producing worker** — its local queue holds only
  locally-produced elements, and the export pump can replicate them to
  remote consumers without re-exporting imports (which would duplicate
  data on merge nets);
* global sources are homed on the *minimum* consumer worker and sinks
  on the producing worker, so every inter-worker ring runs from a lower
  worker id to a strictly higher one — the quotient order is the worker
  id order, and end-of-stream cascades upward from worker 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.graph import ComputeGraph
from ..errors import GraphRuntimeError
from ..extractor.partition import RealmPartition, partition_graph

__all__ = ["Placement", "place_graph"]


@dataclass
class Placement:
    """Assignment of every kernel instance to a worker shard."""

    graph: ComputeGraph
    #: Kernel instance indices per worker, topologically ordered shards.
    shards: Tuple[Tuple[int, ...], ...]
    #: instance index -> worker id.
    worker_of: Dict[int, int]
    #: Realm names present in each shard (diagnostics / artifacts).
    shard_realms: Tuple[Tuple[str, ...], ...]
    #: The extractor partition the placement was derived from.
    partition: RealmPartition = field(repr=False, default=None)

    @property
    def n_workers(self) -> int:
        return len(self.shards)

    # -- global I/O homing --------------------------------------------------

    def source_home(self, io_index: int) -> int:
        """Worker that runs ``source[io_index]``: the minimum consumer
        worker, so source-export rings run toward higher worker ids."""
        gio = self.graph.inputs[io_index]
        net = self.graph.net(gio.net_id)
        wids = {self.worker_of[ep.instance_idx] for ep in net.consumers}
        return min(wids) if wids else 0

    def sink_home(self, io_index: int) -> int:
        """Worker that runs ``sink[io_index]``: the net's producing
        worker (sinks never need an inter-worker ring of their own)."""
        gio = self.graph.outputs[io_index]
        net = self.graph.net(gio.net_id)
        wids = {self.worker_of[ep.instance_idx] for ep in net.producers}
        if wids:
            return max(wids)  # singleton: producers are co-located
        for gin in self.graph.inputs:  # input→output passthrough net
            if gin.net_id == gio.net_id:
                return self.source_home(gin.io_index)
        return 0

    # -- ring topology ------------------------------------------------------

    def net_producer_worker(self, net_id: int) -> Optional[int]:
        """The single worker that writes into *net_id* — the co-located
        kernel producers' worker, or the homed source for a pure input
        net.  ``None`` for runtime-parameter nets."""
        net = self.graph.net(net_id)
        if net.settings.runtime_parameter:
            return None
        wids = {self.worker_of[ep.instance_idx] for ep in net.producers}
        if wids:
            return max(wids)
        for gin in self.graph.inputs:
            if gin.net_id == net_id:
                return self.source_home(gin.io_index)
        return None

    def net_consumer_workers(self, net_id: int) -> Set[int]:
        """Workers holding a kernel consumer or a homed sink of *net_id*."""
        net = self.graph.net(net_id)
        wids = {self.worker_of[ep.instance_idx] for ep in net.consumers}
        for gout in self.graph.outputs:
            if gout.net_id == net_id and not net.settings.runtime_parameter:
                wids.add(self.sink_home(gout.io_index))
        return wids

    def ring_keys(self) -> List[Tuple[int, int, int]]:
        """Every inter-worker ring as ``(net_id, src_wid, dst_wid)``.

        By the homing rules above, ``src_wid < dst_wid`` for every key —
        asserted by the manager when it allocates the rings.
        """
        keys: List[Tuple[int, int, int]] = []
        for net in self.graph.nets:
            if net.settings.runtime_parameter:
                continue
            pw = self.net_producer_worker(net.net_id)
            if pw is None:
                continue
            for cw in sorted(self.net_consumer_workers(net.net_id)):
                if cw != pw:
                    keys.append((net.net_id, pw, cw))
        return keys

    def describe(self) -> str:
        lines = [f"placement of {self.graph.name!r}: "
                 f"{len(self.shards)} worker(s)"]
        for w, (shard, realms) in enumerate(
            zip(self.shards, self.shard_realms)
        ):
            names = [self.graph.kernels[i].instance_name for i in shard]
            lines.append(
                f"  worker[{w}] ({', '.join(realms)}): {', '.join(names)}"
            )
        return "\n".join(lines)


def _stream_edges(graph: ComputeGraph) -> List[Tuple[int, int]]:
    """Producer->consumer instance edges over stream (non-RTP) nets."""
    edges = []
    for net in graph.nets:
        if net.settings.runtime_parameter:
            continue
        for p in net.producers:
            for c in net.consumers:
                if p.instance_idx != c.instance_idx:
                    edges.append((p.instance_idx, c.instance_idx))
    return edges


def _rtp_groups(graph: ComputeGraph) -> List[Set[int]]:
    """Endpoint sets of kernel-produced RTP nets (must stay co-located:
    there is no cross-process latch carrier)."""
    groups = []
    for net in graph.nets:
        if not net.settings.runtime_parameter or not net.producers:
            continue
        members = {ep.instance_idx for ep in net.producers}
        members |= {ep.instance_idx for ep in net.consumers}
        if len(members) > 1:
            groups.append(members)
    return groups


def _producer_groups(graph: ComputeGraph) -> List[Set[int]]:
    """Producer sets of merge (multi-producer) stream nets.  Co-locating
    them gives every net a single producing worker, which keeps the
    export pump single-writer (see module docs)."""
    groups = []
    for net in graph.nets:
        if net.settings.runtime_parameter:
            continue
        members = {ep.instance_idx for ep in net.producers}
        if len(members) > 1:
            groups.append(members)
    return groups


def _condense(n: int, edges: List[Tuple[int, int]]):
    """Strongly-connected components of the instance graph and the
    condensation's successor lists.

    An iterative Tarjan, rooted at each unvisited instance in index
    order and walking successors in edge order; components are numbered
    in the order they complete.  Returns ``(sccs, succ)``: member lists
    per component, and per component its distinct successor components
    in first-edge order.
    """
    out: List[Dict[int, None]] = [{} for _ in range(n)]  # ordered sets
    for a, b in edges:
        out[a][b] = None
    preorder = itertools.count(1)
    index = [0] * n                     # DFS preorder, 0 = unvisited
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    path: List[Tuple[int, Iterator[int]]] = []  # the DFS path
    comp = [-1] * n
    sccs: List[List[int]] = []

    def visit(v: int) -> None:
        index[v] = low[v] = next(preorder)
        stack.append(v)
        on_stack[v] = True
        path.append((v, iter(out[v])))

    for root in range(n):
        if index[root]:
            continue
        visit(root)
        while path:
            v, it = path[-1]
            for w in it:
                if not index[w]:
                    visit(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:  # every successor explored: v is done
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:  # v roots a component
                    members: List[int] = []
                    while not members or members[-1] != v:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = len(sccs)
                        members.append(w)
                    sccs.append(members)
    succ: List[Dict[int, None]] = [{} for _ in sccs]
    for a in range(n):
        for b in out[a]:
            if comp[a] != comp[b]:
                succ[comp[a]][comp[b]] = None
    return sccs, succ


def _topo_order(succ: List[Dict[int, None]]) -> List[int]:
    """Kahn's order of a DAG: sources in component order, then each
    newly freed component in the order its last predecessor frees it."""
    indeg = [0] * len(succ)
    for vs in succ:
        for v in vs:
            indeg[v] += 1
    order = [u for u, d in enumerate(indeg) if d == 0]
    for u in order:  # grows while iterated: a FIFO work list
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    return order


def _weak_components(succ: List[Dict[int, None]]) -> List[List[int]]:
    """Weakly-connected components of a DAG by union-find."""
    parent = list(range(len(succ)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, vs in enumerate(succ):
        for v in vs:
            parent[find(u)] = find(v)
    groups: Dict[int, List[int]] = {}
    for u in range(len(succ)):
        groups.setdefault(find(u), []).append(u)
    return list(groups.values())


def place_graph(graph: ComputeGraph, n_workers: int) -> Placement:
    """Place *graph* onto at most *n_workers* shards (see module docs).

    Returns fewer shards than requested when the graph has fewer
    divisible units (a 2-kernel pipeline on 4 workers yields 2 shards).
    """
    if n_workers < 1:
        raise GraphRuntimeError(f"n_workers must be >= 1, got {n_workers}")
    part = partition_graph(graph)
    n_insts = len(graph.kernels)
    if n_insts == 0:
        raise GraphRuntimeError(
            f"graph {graph.name!r} has no kernel instances to place"
        )

    edges = _stream_edges(graph)
    # Contract co-location groups (kernel-produced RTP endpoint sets,
    # producers of merge nets) by threading a cycle through each group,
    # which fuses it into one SCC.
    for grp in _rtp_groups(graph) + _producer_groups(graph):
        ring = sorted(grp)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges += [(a, b), (b, a)]

    sccs, succ = _condense(n_insts, edges)
    topo_pos = {scc: i for i, scc in enumerate(_topo_order(succ))}

    # Group SCCs into weakly-connected components: independent units
    # that can go to any worker without creating quotient edges.
    comps = []
    for comp_sccs in _weak_components(succ):
        comp_sccs.sort(key=topo_pos.__getitem__)
        scc_members = [sorted(sccs[c]) for c in comp_sccs]
        realms = {graph.kernels[i].realm.name
                  for ms in scc_members for i in ms}
        comps.append((min(realms), topo_pos[comp_sccs[0]], scc_members))
    # Realm affinity first, then topological position (stable for the
    # common single-realm case).
    comps.sort(key=lambda c: (c[0], c[1]))

    # One linear order of indivisible units (SCCs) with only forward
    # dataflow edges between units; cut it into contiguous,
    # size-balanced segments.  Cutting only at unit boundaries is what
    # keeps every feedback loop inside one worker.
    units: List[List[int]] = [ms for _, _, scc_members in comps
                              for ms in scc_members]
    k = min(n_workers, len(units))
    shards: List[Tuple[int, ...]] = []
    remaining = n_insts
    u = 0
    for w in range(k):
        target = remaining / (k - w)
        shard: List[int] = []
        while u < len(units) and (not shard
                                  or len(shard) + len(units[u]) / 2 <= target):
            shard.extend(units[u])
            remaining -= len(units[u])
            u += 1
        shards.append(tuple(shard))
    while u < len(units):  # numeric tail-safety: pack leftovers last
        shards[-1] = shards[-1] + tuple(units[u])
        u += 1

    worker_of = {i: w for w, shard in enumerate(shards) for i in shard}
    shard_realms = tuple(
        tuple(sorted({graph.kernels[i].realm.name for i in shard}))
        for shard in shards
    )
    return Placement(graph=graph, shards=tuple(shards),
                     worker_of=worker_of, shard_realms=shard_realms,
                     partition=part)
