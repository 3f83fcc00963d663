"""Optimizing plan compiler: chain fusion analysis (cgsim, §3.8 fast path).

Analyzes a deserialized :class:`~repro.core.graph.ComputeGraph` and
produces an :class:`~repro.core.fused.OptimizedPlan`: which maximal
linear 1-producer/1-consumer kernel chains to fuse, and how.  Broadcast
and merge nets are fusion barriers: an edge joins a chain only when its
net has exactly one producer endpoint, exactly one consumer endpoint,
and is not a graph input/output.  Fusion is a plan-time choice of
transports plus substitution; it adds no scheduler of its own:

* **equivalent substitution** — a registered *fused equivalent* kernel
  (see :func:`register_fused_equivalent`) replaces a run of chain
  members when its port signature matches the segment's external
  boundary.  This is classic operator fusion with a specialised
  implementation: the replacement must be output-identical (enforced by
  the differential tests), and typically batches work across blocks to
  amortise per-call cost.
* **feed/store binding** — a graph input consumed only by a chain is
  bound straight to the user container (``SourceFeed``); a graph output
  produced only by a chain is written straight into the sink container
  (``SinkStore``).  Both remove a source/sink task and its context
  switches.  RTP latches stay latches (they are latched before the run
  starts and never block).

At run time every member, substituted or not, is an ordinary
cooperative-scheduler task, and a net between two members is the
ordinary queue the run spec selects.

Plan construction is pure analysis over the graph structure; results
are cached per serialized-graph structure in ``repro.exec.plan_cache``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.fused import ChainMember, FusedChain, OptimizedPlan
from ..core.graph import ComputeGraph, KernelInstance
from ..errors import GraphRuntimeError

__all__ = [
    "OPTIMIZE_LEVELS",
    "analyze_graph",
    "register_fused_equivalent",
    "clear_fused_equivalents",
    "fusion_registry_epoch",
    "member_instances",
]

#: Valid values for the ``optimize=`` run option.
OPTIMIZE_LEVELS = ("none", "fuse", "full")


# ---------------------------------------------------------------------------
# Fused-equivalent registry
# ---------------------------------------------------------------------------

#: (registry_key, ...) of consecutive chain members -> replacement KernelClass.
_FUSION_REGISTRY: Dict[Tuple[str, ...], object] = {}
_FUSION_EPOCH = 0


def register_fused_equivalent(member_keys, replacement) -> None:
    """Register *replacement* as the fused equivalent of a run of kernels.

    ``member_keys`` is a sequence of kernel registry keys
    (``KernelClass.registry_key``) naming consecutive chain members; a
    single key registers a drop-in single-kernel equivalent (e.g. a
    batched twin).  The replacement's port signature must match the
    segment's external boundary (same directions, dtypes, and RTP flags
    in first-occurrence order); segments that do not match are simply
    not substituted.

    The replacement **must** be output-identical to the sequence it
    replaces — the optimizer trusts this; the differential test suite
    enforces it for the in-repo registrations.
    """
    global _FUSION_EPOCH
    keys = tuple(member_keys)
    if not keys:
        raise GraphRuntimeError("fused equivalent needs at least one member")
    _FUSION_REGISTRY[keys] = replacement
    _FUSION_EPOCH += 1


def clear_fused_equivalents() -> None:
    """Testing hook: forget all registered fused equivalents."""
    global _FUSION_EPOCH
    _FUSION_REGISTRY.clear()
    _FUSION_EPOCH += 1


def fusion_registry_epoch() -> int:
    """Monotonic counter bumped on registry changes (cache keying)."""
    return _FUSION_EPOCH


# ---------------------------------------------------------------------------
# Graph analysis
# ---------------------------------------------------------------------------


def analyze_graph(graph: ComputeGraph, level: str) -> Optional[OptimizedPlan]:
    """Build an :class:`OptimizedPlan` for *graph*, or ``None``.

    ``None`` means "run unfused" — either the level disables the pass or
    the graph offers no chain worth fusing.
    """
    from .spec import check_option

    if check_option("cgsim", "optimize", level) == "none":
        return None

    input_counts: Dict[int, int] = {}
    for gio in graph.inputs:
        input_counts[gio.net_id] = input_counts.get(gio.net_id, 0) + 1
    output_counts: Dict[int, int] = {}
    for gio in graph.outputs:
        output_counts[gio.net_id] = output_counts.get(gio.net_id, 0) + 1

    def is_rtp(net_id: int) -> bool:
        return bool(graph.net(net_id).settings.runtime_parameter)

    by_index = {inst.index: inst for inst in graph.kernels}

    # -- member eligibility --------------------------------------------------
    # A kernel may join a chain only if its RTP inputs are pure graph
    # inputs (latched before the run starts) and it writes no RTP
    # output, so a plan never covers a latch set mid-run.
    eligible = set()
    for inst in graph.kernels:
        ok = True
        for port_idx, net_id in enumerate(inst.port_nets):
            if not is_rtp(net_id):
                continue
            spec = inst.kernel.port_specs[port_idx]
            net = graph.net(net_id)
            if spec.is_output or net.producers or net_id not in input_counts:
                ok = False
                break
        if ok:
            eligible.add(inst.index)

    def stream_outputs(inst: KernelInstance) -> List[int]:
        return [
            nid for p, nid in enumerate(inst.port_nets)
            if inst.kernel.port_specs[p].is_output
        ]

    def stream_inputs(inst: KernelInstance) -> List[int]:
        return [
            nid for p, nid in enumerate(inst.port_nets)
            if inst.kernel.port_specs[p].is_input and not is_rtp(nid)
        ]

    # -- fusable edges -------------------------------------------------------
    # a -> b is fusable when every stream output of a is a private
    # point-to-point net into b (broadcast/merge/graph-I/O nets are
    # barriers) and every stream input of b comes from a.  Interior
    # chain members then have no external stream connections at all.
    nxt: Dict[int, int] = {}
    prv: Dict[int, int] = {}
    for a in graph.kernels:
        if a.index not in eligible:
            continue
        outs = stream_outputs(a)
        if not outs:
            continue
        target: Optional[int] = None
        elidable = True
        for nid in outs:
            net = graph.net(nid)
            if (len(net.producers) != 1 or len(net.consumers) != 1
                    or nid in input_counts or nid in output_counts
                    or is_rtp(nid)):
                elidable = False
                break
            consumer_idx = net.consumers[0].instance_idx
            if target is None:
                target = consumer_idx
            elif target != consumer_idx:
                elidable = False
                break
        if not elidable or target is None or target == a.index:
            continue
        if target not in eligible:
            continue
        b = by_index[target]
        b_ins = stream_inputs(b)
        if not b_ins or set(b_ins) != set(outs):
            continue
        nxt[a.index] = target
        prv[target] = a.index

    # -- maximal chains ------------------------------------------------------
    visited = set()
    raw_chains: List[List[int]] = []
    for inst in graph.kernels:
        i = inst.index
        if i in visited or i not in eligible or i in prv:
            continue
        seq = [i]
        visited.add(i)
        while seq[-1] in nxt:
            j = nxt[seq[-1]]
            if j in visited:  # pragma: no cover - cycles have no head
                break
            seq.append(j)
            visited.add(j)
        raw_chains.append(seq)

    # -- substitution + boundary classification ------------------------------
    chains: List[FusedChain] = []
    for seq in raw_chains:
        members, absorbed = _substitute(graph, by_index, seq)
        chain = _classify(graph, input_counts, output_counts, is_rtp,
                          seq, members, absorbed)
        substituted = any(len(m.fused_from) > 1 or
                          m.kernel is not by_index[idx].kernel
                          for m, idx in _member_origin_pairs(members, seq))
        worth = (
            len(members) > 1
            or substituted
            or chain.feed_nets
            or chain.store_nets
        )
        if worth:
            chains.append(chain)

    if not chains:
        return OptimizedPlan(level=level, graph_name=graph.name, chains=())
    return OptimizedPlan(level=level, graph_name=graph.name,
                         chains=tuple(chains))


def _member_origin_pairs(members, seq):
    """Pair each member with the original instance index it starts at."""
    pairs = []
    pos = 0
    for m in members:
        pairs.append((m, seq[pos]))
        pos += len(m.fused_from)
    return pairs


def _substitute(graph: ComputeGraph, by_index, seq: List[int]
                ) -> Tuple[List[ChainMember], List[int]]:
    """Replace runs of chain members with registered fused equivalents.

    Greedy longest-match scan over the chain's kernel registry keys; a
    candidate only applies if its port signature matches the segment's
    external boundary.  Returns the member list plus the net ids fully
    absorbed inside substituted segments.
    """
    members: List[ChainMember] = []
    absorbed: List[int] = []
    max_len = max((len(k) for k in _FUSION_REGISTRY), default=0)
    i = 0
    n = len(seq)
    while i < n:
        matched = None
        if max_len:
            keys = [by_index[j].kernel.registry_key for j in seq[i:]]
            for length in range(min(max_len, n - i), 0, -1):
                repl = _FUSION_REGISTRY.get(tuple(keys[:length]))
                if repl is None:
                    continue
                built = _build_substituted_member(
                    graph, [by_index[j] for j in seq[i:i + length]], repl
                )
                if built is not None:
                    matched = (built, length)
                    break
        if matched is not None:
            (member, seg_absorbed), length = matched
            members.append(member)
            absorbed.extend(seg_absorbed)
            i += length
        else:
            inst = by_index[seq[i]]
            members.append(ChainMember(
                name=inst.instance_name,
                kernel=inst.kernel,
                port_nets=tuple(inst.port_nets),
                fused_from=(inst.instance_name,),
            ))
            i += 1
    return members, absorbed


def member_instances(task: str) -> Tuple[str, ...]:
    """The instances a task stands for: a substituted chain member is
    named by joining them with ``+`` (below); any other task, itself."""
    return tuple(task.split("+"))


def _build_substituted_member(graph: ComputeGraph,
                              insts: List[KernelInstance], repl):
    """Try to stand *repl* in for the instance run *insts*.

    Computes the segment's external boundary — the net of every member
    port whose peer endpoints are not all inside the segment, in first-
    occurrence signature order (duplicates collapse, which handles a
    shared RTP net read by several members) — and matches it
    positionally against the replacement's port specs.  Returns
    ``((member, absorbed_net_ids))`` or ``None`` on any mismatch.
    """
    seg = {inst.index for inst in insts}

    def net_internal(nid: int) -> bool:
        net = graph.net(nid)
        if net.settings.runtime_parameter:
            return False
        if any(io.net_id == nid for io in graph.inputs):
            return False
        if any(io.net_id == nid for io in graph.outputs):
            return False
        eps = list(net.producers) + list(net.consumers)
        return bool(eps) and all(ep.instance_idx in seg for ep in eps)

    external: List[Tuple[int, bool]] = []  # (net_id, is_input)
    seen = set()
    internal: List[int] = []
    internal_seen = set()
    for inst in insts:
        for p, nid in enumerate(inst.port_nets):
            if net_internal(nid):
                if nid not in internal_seen:
                    internal_seen.add(nid)
                    internal.append(nid)
                continue
            if nid in seen:
                continue  # shared external net (an RTP read twice)
            seen.add(nid)
            external.append((nid, inst.kernel.port_specs[p].is_input))

    specs = repl.port_specs
    if len(specs) != len(external):
        return None
    port_nets = []
    for spec, (nid, is_input) in zip(specs, external):
        net = graph.net(nid)
        if spec.is_input != is_input:
            return None
        if spec.dtype.key != net.dtype.key:
            return None
        if bool(spec.settings.runtime_parameter) != \
                bool(net.settings.runtime_parameter):
            return None
        port_nets.append(nid)

    names = tuple(inst.instance_name for inst in insts)
    member = ChainMember(
        name="+".join(names),
        kernel=repl,
        port_nets=tuple(port_nets),
        fused_from=names,
    )
    return member, internal


def _classify(graph: ComputeGraph, input_counts, output_counts, is_rtp,
              seq: List[int], members: List[ChainMember],
              absorbed: List[int]) -> FusedChain:
    """Classify the chain's nets: member-to-member links, graph inputs
    it alone reads (feeds) and graph outputs it alone writes (stores)."""
    out_net_member: Dict[int, int] = {}
    in_net_member: Dict[int, int] = {}
    for pos, m in enumerate(members):
        for p, nid in enumerate(m.port_nets):
            if m.kernel.port_specs[p].is_output:
                out_net_member[nid] = pos
            elif not is_rtp(nid):
                in_net_member.setdefault(nid, pos)

    link_nets = [nid for nid in out_net_member if nid in in_net_member]
    link_set = set(link_nets)

    feed_nets: List[int] = []
    store_nets: List[int] = []
    for m in members:
        for p, nid in enumerate(m.port_nets):
            if nid in link_set or is_rtp(nid):
                continue
            net = graph.net(nid)
            if m.kernel.port_specs[p].is_input:
                if (input_counts.get(nid) == 1
                        and output_counts.get(nid, 0) == 0
                        and not net.producers
                        and len(net.consumers) == 1):
                    feed_nets.append(nid)
            elif (output_counts.get(nid) == 1
                    and input_counts.get(nid, 0) == 0
                    and not net.consumers
                    and len(net.producers) == 1):
                store_nets.append(nid)

    name = "fused:" + "+".join(
        orig for m in members for orig in m.fused_from
    )
    return FusedChain(
        name=name,
        members=tuple(members),
        link_nets=tuple(link_nets),
        feed_nets=tuple(feed_nets),
        store_nets=tuple(store_nets),
        absorbed_nets=tuple(absorbed),
        instance_idxs=tuple(seq),
    )
