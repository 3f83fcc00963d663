"""Fault plans: declarative, seeded, deterministic fault specifications.

A :class:`FaultPlan` is a tuple of injection specs passed to a run via
the ``faults=`` option (on ``repro.exec.run_graph`` or directly on a
compiled graph call).  Specs name their targets by *graph* identity —
kernel instance name, net name, or graph input name — so one plan works
unchanged on every backend, with or without optimization (targeting a
net that the optimize plan carries on no queue is an error, not a
silent no-op).

Determinism contract: for a fixed plan, backend, and input data, the
injected events are identical run-to-run.  ``KernelFault.at_resume``
counts *scheduling points*, which differ between the cooperative and
threaded engines — so determinism holds per backend, not across them.

The per-run mutable state (counters, recorded events, the tracer hook)
lives in a :class:`FaultSession`, created by ``plan.session(graph)``
after validating every target name against the graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import FaultPlanError
from .injectors import FaultyStreamQueue, injected_kernel

__all__ = [
    "KernelFault",
    "NetCorrupt",
    "NetDrop",
    "QueueFreeze",
    "SourceDelay",
    "FaultPlan",
    "FaultSession",
]


@dataclass(frozen=True)
class KernelFault:
    """Raise :class:`InjectedFaultError` inside kernel *kernel* instead
    of performing its ``at_resume``-th resume."""

    kernel: str
    at_resume: int = 1
    message: str = ""


@dataclass(frozen=True)
class NetCorrupt:
    """Corrupt elements written to net *net*: every *every*-th element
    starting at *offset*, replaced by ``fn(value)`` (default: the
    type-safe additive zero of the value)."""

    net: str
    every: int = 1
    offset: int = 0
    fn: Optional[Callable[[Any], Any]] = None


@dataclass(frozen=True)
class NetDrop:
    """Silently drop every *every*-th element written to net *net*,
    starting at *offset* (the put reports success; nothing is
    delivered)."""

    net: str
    every: int = 1
    offset: int = 0


@dataclass(frozen=True)
class QueueFreeze:
    """Freeze net *net* after it has accepted *after_puts* elements:
    further puts see a full queue (a backpressure storm).  The freeze
    thaws once consumers have retrieved *release_after_gets* elements
    in total; ``None`` freezes permanently — an intentional deadlock,
    for exercising the wait-for-graph detector."""

    net: str
    after_puts: int = 1
    release_after_gets: Optional[int] = None


@dataclass(frozen=True)
class SourceDelay:
    """Starve graph input *input*: every *every*-th element's first put
    attempt fails, forcing the source to yield and let consumers run
    ahead — a slow producer, without wall-clock sleeps."""

    input: str
    every: int = 2


_INJECTION_TYPES = (KernelFault, NetCorrupt, NetDrop, QueueFreeze,
                    SourceDelay)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, reusable set of fault injections.

    ``seed`` documents the RNG seed a generated plan came from (plans
    built by hand leave it ``None``); the plan itself is already fully
    concrete — no randomness remains at injection time.
    """

    injections: Tuple[Any, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def coerce(cls, spec: Any) -> Optional["FaultPlan"]:
        """Accept a plan, a single injection, or a list of injections."""
        if spec is None:
            return None
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, _INJECTION_TYPES):
            return cls((spec,))
        if isinstance(spec, (list, tuple)):
            for inj in spec:
                if not isinstance(inj, _INJECTION_TYPES):
                    raise FaultPlanError(
                        f"faults= entries must be injection specs, got "
                        f"{inj!r}"
                    )
            return cls(tuple(spec))
        raise FaultPlanError(
            f"faults= expects a FaultPlan, an injection spec, or a list "
            f"of specs; got {type(spec).__name__}"
        )

    @classmethod
    def random(cls, graph, seed: int, n: int = 2,
               kinds: Tuple[str, ...] = ("kernel", "corrupt", "drop"),
               ) -> "FaultPlan":
        """Derive a concrete plan for *graph* from *seed* (chaos tests).

        Draws *n* injections over the requested *kinds*.  Net-level
        faults target only internal nets (kernel producer *and* kernel
        consumer) so the plan stays valid under every optimize level
        that preserves those nets; graphs without internal nets fall
        back to kernel faults.
        """
        rng = random.Random(seed)
        kernels = sorted(k.instance_name for k in graph.kernels)
        nets = sorted(
            nt.name for nt in graph.nets
            if nt.producers and nt.consumers
            and not nt.settings.runtime_parameter
        )
        out: List[Any] = []
        for _ in range(max(1, n)):
            kind = rng.choice(list(kinds))
            if kind != "kernel" and not nets:
                kind = "kernel"
            if kind == "kernel":
                out.append(KernelFault(
                    rng.choice(kernels), at_resume=rng.randint(1, 16),
                ))
            elif kind == "corrupt":
                out.append(NetCorrupt(
                    rng.choice(nets), every=rng.randint(1, 4),
                    offset=rng.randint(0, 3),
                ))
            elif kind == "drop":
                out.append(NetDrop(
                    rng.choice(nets), every=rng.randint(2, 5),
                    offset=rng.randint(0, 3),
                ))
            elif kind == "delay":
                inputs = sorted(io.name for io in graph.inputs)
                if inputs:
                    out.append(SourceDelay(
                        rng.choice(inputs), every=rng.randint(2, 4),
                    ))
            else:
                raise FaultPlanError(f"unknown random fault kind {kind!r}")
        return cls(tuple(out), seed=seed)

    def session(self, graph) -> "FaultSession":
        """Validate target names against *graph* and open a per-run
        session."""
        return FaultSession(self, graph)


class FaultSession:
    """Per-run mutable state of an active fault plan.

    Dispatches each injection to its target, records every triggered
    event (both on the ``repro.observe`` trace as ``fault.inject``
    events and on :attr:`events` for the run's failure report), and
    tracks which targeted nets actually got wrapped so targeting a net
    that an optimize plan carries on no queue fails loudly.
    """

    def __init__(self, plan: FaultPlan, graph):
        self.plan = plan
        self.tracer = None
        self.events: List[Dict[str, Any]] = []
        kernel_names = {k.instance_name for k in graph.kernels}
        net_names = {n.name for n in graph.nets}
        rtp_nets = {
            n.name for n in graph.nets if n.settings.runtime_parameter
        }
        input_nets = {
            io.name: graph.net(io.net_id).name for io in graph.inputs
        }
        self._kernel_faults: Dict[str, KernelFault] = {}
        self._net_faults: Dict[str, List[Any]] = {}
        for inj in plan.injections:
            if isinstance(inj, KernelFault):
                if inj.kernel not in kernel_names:
                    raise FaultPlanError(
                        f"fault plan targets kernel {inj.kernel!r}; graph "
                        f"{graph.name!r} has kernels "
                        f"{sorted(kernel_names)}"
                    )
                self._kernel_faults[inj.kernel] = inj
            elif isinstance(inj, (NetCorrupt, NetDrop, QueueFreeze)):
                if inj.net not in net_names:
                    raise FaultPlanError(
                        f"fault plan targets net {inj.net!r}; graph "
                        f"{graph.name!r} has nets {sorted(net_names)}"
                    )
                if inj.net in rtp_nets:
                    raise FaultPlanError(
                        f"net {inj.net!r} is a runtime parameter; stream "
                        f"faults apply to data nets only"
                    )
                self._net_faults.setdefault(inj.net, []).append(inj)
            elif isinstance(inj, SourceDelay):
                net = input_nets.get(inj.input)
                if net is None:
                    raise FaultPlanError(
                        f"fault plan delays input {inj.input!r}; graph "
                        f"{graph.name!r} has inputs "
                        f"{sorted(input_nets)}"
                    )
                self._net_faults.setdefault(net, []).append(inj)
            else:  # pragma: no cover - coerce() already filtered
                raise FaultPlanError(f"unknown injection {inj!r}")
        self._wrapped_nets: set = set()

    # -- wiring ---------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer

    def wrap_kernel(self, name: str, coro,
                    aliases: Tuple[str, ...] = ()):
        """Wrap *coro* if *name* (or one of its fused-member *aliases*,
        the original instance names) is targeted by a kernel fault."""
        fault = self._kernel_faults.get(name)
        target = name
        if fault is None:
            for a in aliases:
                if a in self._kernel_faults:
                    fault = self._kernel_faults[a]
                    target = a
                    break
        if fault is None:
            return coro
        return injected_kernel(coro, fault, target, self)

    def wants_net(self, net_name: str) -> bool:
        return net_name in self._net_faults

    def wrap_queue(self, net_name: str, queue):
        """Install the fault proxy for *net_name* (no-op when the net is
        untargeted)."""
        specs = self._net_faults.get(net_name)
        if not specs:
            return queue
        self._wrapped_nets.add(net_name)
        return FaultyStreamQueue(
            queue, self,
            corrupts=[s for s in specs if isinstance(s, NetCorrupt)],
            drops=[s for s in specs if isinstance(s, NetDrop)],
            freeze=next(
                (s for s in specs if isinstance(s, QueueFreeze)), None),
            delay=next(
                (s for s in specs if isinstance(s, SourceDelay)), None),
        )

    def check_wired(self) -> None:
        """Raise if a targeted net never received its proxy: the active
        optimize plan bound it straight to a caller's container, or
        absorbed it inside a fused equivalent, so no queue carries it."""
        missing = sorted(set(self._net_faults) - self._wrapped_nets)
        if missing:
            raise FaultPlanError(
                f"fault plan targets net(s) {missing} that no queue "
                f"carries under the active optimize plan (bound to a "
                f"caller's container or absorbed by a fused "
                f"equivalent); re-run with optimize='none' or target a "
                f"different net"
            )

    # -- event recording ------------------------------------------------------

    def record(self, fault: str, *, task: str = "", queue: str = "",
               **detail: Any) -> None:
        ev: Dict[str, Any] = {"fault": fault}
        if task:
            ev["task"] = task
        if queue:
            ev["queue"] = queue
        ev.update(detail)
        self.events.append(ev)
        if self.tracer is not None:
            self.tracer.fault_inject(fault, task=task, queue=queue,
                                     **detail)
