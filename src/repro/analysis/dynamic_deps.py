"""Dynamic (profile-guided) memory-dependence analysis.

This profiler reconstructs, from one instrumented execution, the memory
data-flow the paper's infrastructure obtains from LLVM instrumentation:

* **per-loop dependence edges** between *static* instruction sites —
  read-after-write (flow), write-after-read (anti) and write-after-write
  (output) — each tagged with whether the two accesses happened in the
  same iteration and/or invocation of the loop;
* **privatization facts** — whether every iteration that touches a
  location writes it before reading it (Tournavitis et al. [8]);
* access attribution through calls: an access made inside a callee is
  attributed to the (innermost) call site inside the loop's function, so
  loops with helper calls (``push``/``pop``) still produce loop-level
  edges.

Two event sources feed the same recording core:

* the tree-walking interpreter, through the :class:`Observer` interface
  (``on_read``/``on_write`` with the instruction, loop events, the
  interpreter's call stack);
* the codegen backend's profiling lowering
  (:mod:`repro.interp.codegen`), which bakes the hooks returned by
  :meth:`DynamicDepProfiler.codegen_hooks` into the generated source:
  memory hooks carry a static site index, calls push and pop their site
  index, and loop events are emitted per CFG edge.

A profiler built with ``full=False`` records only what iterator
recognition and the static pre-screen read — loop trip counts and
same-invocation flow pairs (:meth:`memory_flow_edges`) — and skips the
anti/output edges, per-location edge sets and privatization state that
only the tiering stage consumes.

Consumers:

* :mod:`repro.core.iterator_recognition` follows same-invocation flow
  edges so that e.g. ``pop(frontier)`` feeding ``frontier->size`` joins
  the iterator slice (the "profile-guided" part of generalized iterator
  recognition);
* the dependence-profiling and DiscoPoP-style baselines decide
  parallelizability from the cross-iteration edges;
* the tiering stage builds its SCC-DAG from the full edge set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.loops import build_loop_forest
from repro.interp.events import Observer
from repro.ir.function import Module

__all__ = [
    "DepEdge",
    "DynamicDepProfiler",
    "LoopDeps",
    "SiteRegistry",
]

#: (func_name, block_name, index)
Site = Tuple[str, str, int]

#: (label, invocation, iteration) snapshots of the loop stack.
LoopSnap = Tuple[str, int, int]


class DepEdge(NamedTuple):
    """A dynamic dependence between two static sites, scoped to a loop."""

    kind: str  # "raw" | "war" | "waw"
    writer: Site
    reader: Site
    same_iteration: bool
    #: The concrete location (valid within the profiled run only); lets
    #: baseline detectors consult privatization facts per edge.
    loc: Tuple = ()


class SiteRegistry:
    """Static sites of a module: indices, loop membership, loop chains.

    Every instruction gets a *site index* — its position in a walk over
    functions, blocks (``block_order``) and instructions, all of which
    the printed module fixes — so compiled code can bake the index in
    and a disk artifact stays valid for any module with the same digest.
    """

    def __init__(self, module: Module):
        self.module = module
        #: site index -> (function, block, instruction index).
        self.sites: List[Site] = []
        #: site index -> loop labels containing the instruction.
        self.loops_of: List[Tuple[str, ...]] = []
        #: id(instr) -> site index.
        self.index_of: Dict[int, int] = {}
        #: function -> block -> loop labels containing the block,
        #: outermost first.
        self.block_chains: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: function -> loop header block -> loop label.
        self.loop_headers: Dict[str, Dict[str, str]] = {}
        self._innermost_cache: Dict[Tuple[Tuple[int, ...], str], Optional[Site]] = {}
        for func in module.functions.values():
            forest = build_loop_forest(func)
            chains: Dict[str, Tuple[str, ...]] = {}
            for block in func.ordered_blocks():
                chain = tuple(l.label for l in forest.loop_chain(block.name))
                chains[block.name] = chain
                for idx, instr in enumerate(block.instrs):
                    self.index_of[id(instr)] = len(self.sites)
                    self.sites.append((func.name, block.name, idx))
                    self.loops_of.append(chain)
            self.block_chains[func.name] = chains
            self.loop_headers[func.name] = {
                loop.header: loop.label for loop in forest.loops.values()
            }

    def innermost_site_in_loop(
        self, chain: Tuple[int, ...], label: str
    ) -> Optional[Site]:
        """Deepest element of an attribution chain (site indices, call
        sites outermost first, the access last) lying inside ``label``.

        Memoized: the same static chains recur once per iteration, so
        the scan runs once per distinct ``(chain, label)`` pair.
        """
        key = (chain, label)
        try:
            return self._innermost_cache[key]
        except KeyError:
            pass
        site = None
        loops_of = self.loops_of
        for index in reversed(chain):
            if label in loops_of[index]:
                site = self.sites[index]
                break
        self._innermost_cache[key] = site
        return site


@dataclass
class LoopDeps:
    """Aggregated dependence facts for one loop label."""

    label: str
    edges: Set[DepEdge] = field(default_factory=set)
    #: Locations with a cross-iteration access of any kind.
    shared_locations: int = 0

    def cross_iteration_edges(self, kind: Optional[str] = None) -> List[DepEdge]:
        return [
            e
            for e in self.edges
            if not e.same_iteration and (kind is None or e.kind == kind)
        ]

    def flow_edges_same_invocation(self) -> Set[Tuple[Site, Site]]:
        """(writer, reader) flow pairs — iterator-recognition input."""
        return {(e.writer, e.reader) for e in self.edges if e.kind == "raw"}


class _Hooks(NamedTuple):
    """The recording entry points shared by both event sources."""

    read: Callable[[Tuple, int], None]
    write: Callable[[Tuple, int], None]
    call: Callable[[int], None]
    ret: Callable[[], None]
    set_chain: Callable[[Tuple[int, ...]], None]
    enter: Callable[[Tuple[str, ...]], None]
    iterate: Callable[[], None]
    leave: Callable[[int], None]


class DynamicDepProfiler(Observer):
    """Profiler building per-loop dependence facts for every loop executed.

    ``full=False`` records only trip counts and same-invocation flow
    pairs; :meth:`deps_for` and :meth:`is_privatizable` then refuse to
    answer instead of answering from facts that were never recorded.
    """

    wants_memory = True
    wants_loops = True

    #: Cap on remembered reads per location between writes.
    _MAX_READS = 6

    def __init__(
        self,
        module: Module,
        registry: Optional[SiteRegistry] = None,
        full: bool = True,
    ):
        self.registry = registry or SiteRegistry(module)
        self.full = full
        self.loop_deps: Dict[str, LoopDeps] = {}
        #: label -> (writer, reader) flow pairs (``full=False`` only).
        self._flow: Dict[str, Set[Tuple[Site, Site]]] = {}
        #: (label, location) -> [invocation, iteration, always written
        #: first, iterations touched] (``full=True`` only).
        self._priv: Dict[Tuple[str, Tuple], List] = {}
        #: Labels of loops that were entered at least once.
        self.executed: set = set()
        #: Highest trip count observed per loop label (across invocations).
        self.max_trips: Dict[str, int] = {}
        self.interp = None  # set by attach()
        #: Interpreter call-stack version the attribution chain mirrors.
        self._chain_version = 0
        self._hooks = self._build_hooks()

    # -- recording core ----------------------------------------------------------

    def _build_hooks(self) -> _Hooks:
        """Closures over the profiler's dynamic state.

        The current call chain and loop-stack snapshot live in closure
        cells so the per-access hooks (the hot path) read them without
        attribute lookups; loop and call events rebind them.
        """
        innermost = self.registry.innermost_site_in_loop
        full = self.full
        max_reads = self._MAX_READS
        loop_deps = self.loop_deps
        flow = self._flow
        priv = self._priv
        executed = self.executed
        max_trips = self.max_trips
        #: location -> (chain, loop snapshot) of the last write.
        last_write: Dict[Tuple, Tuple] = {}
        #: location -> accesses read since the last write (full only).
        reads: Dict[Tuple, List[Tuple]] = {}
        invocations: Dict[str, int] = {}
        lstack: List[LoopSnap] = []
        snap: Tuple[LoopSnap, ...] = ()
        #: label -> innermost active entry of ``snap`` (built lazily).
        active: Optional[Dict[str, LoopSnap]] = None
        chain: Tuple[int, ...] = ()
        chain_stack: List[Tuple[int, ...]] = []

        def _active() -> Dict[str, LoopSnap]:
            nonlocal active
            active = {entry[0]: entry for entry in snap}
            return active

        def emit(kind: str, loc, first_chain, first_loops, second_chain) -> None:
            """Record an edge for every loop containing both accesses
            (the second access is always the current one)."""
            ctx = active if active is not None else _active()
            for label, invocation, iteration in first_loops:
                other = ctx.get(label)
                if other is None or other[1] != invocation:
                    continue  # different invocation (or loop not active)
                w_site = innermost(first_chain, label)
                if w_site is None:
                    continue
                r_site = innermost(second_chain, label)
                if r_site is None:
                    continue
                deps = loop_deps.get(label)
                if deps is None:
                    deps = loop_deps[label] = LoopDeps(label)
                deps.edges.add(
                    DepEdge(kind, w_site, r_site, other[2] == iteration, loc)
                )

        def emit_flow(first_chain, first_loops, second_chain) -> None:
            """:func:`emit` for flow-only profiles, kept separate on the
            hot path: one (writer, reader) pair per loop, no per-location
            edge objects."""
            ctx = active if active is not None else _active()
            for label, invocation, _iteration in first_loops:
                other = ctx.get(label)
                if other is None or other[1] != invocation:
                    continue
                w_site = innermost(first_chain, label)
                if w_site is None:
                    continue
                r_site = innermost(second_chain, label)
                if r_site is None:
                    continue
                pairs = flow.get(label)
                if pairs is None:
                    pairs = flow[label] = set()
                pairs.add((w_site, r_site))

        def update_priv(loc, is_write: bool) -> None:
            for label, invocation, iteration in snap:
                key = (label, loc)
                state = priv.get(key)
                if state is None:
                    state = priv[key] = [-1, -1, True, 0]
                if state[0] != invocation or state[1] != iteration:
                    state[0] = invocation
                    state[1] = iteration
                    state[3] += 1
                    if not is_write:
                        state[2] = False

        if full:

            def read(loc, site: int) -> None:
                here = chain + (site,)
                write = last_write.get(loc)
                if write is not None:
                    emit("raw", loc, write[0], write[1], here)
                pending = reads.get(loc)
                if pending is None:
                    reads[loc] = [(here, snap)]
                elif len(pending) < max_reads:
                    pending.append((here, snap))
                else:
                    pending[-1] = (here, snap)
                update_priv(loc, False)

            def write(loc, site: int) -> None:
                here = chain + (site,)
                prev = last_write.get(loc)
                if prev is not None:
                    emit("waw", loc, prev[0], prev[1], here)
                pending = reads.get(loc)
                if pending:
                    for first_chain, first_loops in pending:  # anti deps
                        emit("war", loc, first_chain, first_loops, here)
                    reads[loc] = []
                last_write[loc] = (here, snap)
                update_priv(loc, True)

        else:

            def read(loc, site: int) -> None:
                write = last_write.get(loc)
                if write is not None:
                    emit_flow(write[0], write[1], chain + (site,))

            def write(loc, site: int) -> None:
                last_write[loc] = (chain + (site,), snap)

        def call(site: int) -> None:
            nonlocal chain
            chain_stack.append(chain)
            chain = chain + (site,)

        def ret() -> None:
            nonlocal chain
            chain = chain_stack.pop()

        def set_chain(new_chain: Tuple[int, ...]) -> None:
            nonlocal chain
            chain = new_chain

        def enter(labels: Tuple[str, ...]) -> None:
            nonlocal snap, active
            for label in labels:
                invocation = invocations.get(label, 0)
                invocations[label] = invocation + 1
                executed.add(label)
                if label not in max_trips:
                    max_trips[label] = 0
                lstack.append((label, invocation, 0))
            snap = tuple(lstack)
            active = None

        def iterate() -> None:
            nonlocal snap, active
            label, invocation, iteration = lstack[-1]
            iteration += 1
            if iteration > max_trips[label]:
                max_trips[label] = iteration
            lstack[-1] = (label, invocation, iteration)
            snap = tuple(lstack)
            active = None

        def leave(n: int) -> None:
            nonlocal snap, active
            del lstack[len(lstack) - n:]
            snap = tuple(lstack)
            active = None

        return _Hooks(
            read, write, call, ret, set_chain,
            enter, iterate, leave,
        )

    def codegen_hooks(self) -> Dict[str, Callable]:
        """Bindings for the names the profiling lowering emits."""
        hooks = self._hooks
        return {
            "_p_read": hooks.read,
            "_p_write": hooks.write,
            "_p_call": hooks.call,
            "_p_ret": hooks.ret,
            "_p_enter": hooks.enter,
            "_p_iter": hooks.iterate,
            "_p_leave": hooks.leave,
        }

    # -- interpreter observer events --------------------------------------------

    def on_loop_enter(self, label: str, invocation: int) -> None:
        # The profiler numbers invocations per label exactly like the
        # interpreter does: one per enter event.
        self._hooks.enter((label,))

    def on_loop_iteration(self, label: str, invocation: int, iteration: int) -> None:
        self._hooks.iterate()

    def on_loop_exit(self, label: str, invocation: int) -> None:
        self._hooks.leave(1)

    def _sync_chain(self) -> None:
        interp = self.interp
        if interp.call_stack_version != self._chain_version:
            index_of = self.registry.index_of
            self._hooks.set_chain(
                tuple([index_of[id(c)] for c in interp.call_stack])
            )
            self._chain_version = interp.call_stack_version

    def on_read(self, loc, instr) -> None:
        self._sync_chain()
        self._hooks.read(loc, self.registry.index_of[id(instr)])

    def on_write(self, loc, instr) -> None:
        self._sync_chain()
        self._hooks.write(loc, self.registry.index_of[id(instr)])

    # -- results ---------------------------------------------------------------

    def _require_full(self, what: str) -> None:
        if not self.full:
            raise ValueError(
                f"{what} needs a full dependence profile "
                f"(this profiler recorded flow pairs only)"
            )

    def deps_for(self, label: str) -> LoopDeps:
        self._require_full("deps_for")
        return self.loop_deps.get(label, LoopDeps(label))

    def is_privatizable(self, label: str, loc) -> bool:
        """Every iteration of ``label`` touching ``loc`` wrote it first."""
        self._require_full("is_privatizable")
        state = self._priv.get((label, loc))
        if state is None:
            return True
        return state[2]

    def facts(self) -> Dict[str, object]:
        """Everything this profile recorded, as plain comparable values.

        Always: ``max_trips``, ``executed`` and the non-empty
        ``memory_flow`` pairs per loop.  A full profile adds ``edges``
        (per loop, every edge with its kind, sites, iteration scope and
        location) and ``privatization`` ((loop, location) -> (always
        written first, iterations touched)).  Two runs of one program
        that recorded the same facts compare equal, whichever backend
        produced the events.
        """
        facts: Dict[str, object] = {
            "max_trips": dict(self.max_trips),
            "executed": set(self.executed),
            "memory_flow": {
                label: pairs
                for label, pairs in self.memory_flow_edges().items()
                if pairs
            },
        }
        if self.full:
            facts["edges"] = {
                label: set(deps.edges) for label, deps in self.loop_deps.items()
            }
            facts["privatization"] = {
                key: (state[2], state[3]) for key, state in self._priv.items()
            }
        return facts

    def memory_flow_edges(self) -> Dict[str, Set[Tuple[Site, Site]]]:
        """Same-invocation flow edges per loop, for iterator recognition.

        A full profile also lists loops that carry only anti/output
        edges (with an empty set); consumers treat empty and missing
        alike.
        """
        if not self.full:
            return {label: set(pairs) for label, pairs in self._flow.items()}
        return {
            label: deps.flow_edges_same_invocation()
            for label, deps in self.loop_deps.items()
        }
