"""The array fast path: flat-array state, event-driven rounds.

The reference loop spends its time in dict lookups and per-object
bookkeeping: every round builds a move dict, validates it, mutates the
:class:`~repro.trees.partial.PartialTree` and allocates metrics records.
This module replays the *same* algorithm — BFDN with the least-loaded
re-anchor policy, sequential robot order, Claim 2's distinct-port rule —
against the tree's contiguous :class:`~repro.trees.tree.TreeArrays` view
(parent/depth/CSR-children tables) with all per-robot and per-node state
held in parallel flat arrays:

* ``next_child[v]`` — BFDN consumes the dangling ports of a node in
  strictly increasing order with no gaps, so a partial tree reduces to
  one claim pointer per node (the dangling ports of ``v`` are exactly
  the child slots ``next_child[v] ..``);
* ``open_dang[v]`` / ``open_count[d]`` — pre-round dangling counts and
  an open-node histogram by depth.  New open nodes are always children
  of open nodes, so the working depth is monotone and a single advancing
  pointer replaces the reference's lazy depth heap;
* per-depth ``(load, node)`` heaps — the exact least-loaded argmin the
  reference policy computes, stale entries and all;
* ``rem[i]`` / ``rpath[i]`` — each robot's breadth-first descent is a
  shared cached root→anchor path plus a countdown, so a round in which
  every robot is mid-descent collapses into one bulk leap.

Claims mutate ``next_child`` immediately (the sequential port hand-out
of Algorithm 1 line 20) but open-ness and the heaps are only folded in
*after* the robot loop, because robots re-anchoring later in the same
round must see the pre-round open state — exactly the select/apply split
of the reference engine.

Instead of mutating a ``PartialTree`` per reveal, the fast path keeps a
flat discovery log and rebuilds the partial tree *lazily* on first
access after the run; metrics are likewise accumulated as flat counters
and decoded into :class:`~repro.sim.metrics.ReanchorRecord` objects on
demand.

:meth:`repro.sim.runloop.RoundEngine.run` offers every run to
:meth:`ArrayBackend.execute` first; :func:`_decline_reason` sends any
run outside the envelope (other algorithms, adversaries, per-round
observers, async clocks, graph/game states) to the scheduler loop.

Parity contract (pinned by ``tests/test_runloop_regression.py`` and
``tests/test_backend_array.py``): final positions, billed/wall rounds,
the complete metrics object (including the ordered re-anchor log), the
rebuilt partial tree's queryable state, and the algorithm's public
``anchors``/``loads`` are indistinguishable from a reference run.
Private incremental caches (the policy's heaps, BFDN's excursion
counters) are reset, not replayed.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Tuple

from ..trees.partial import PartialTree
from .metrics import ExplorationMetrics, ReanchorRecord


# ---------------------------------------------------------------------
# Lazy result objects
# ---------------------------------------------------------------------

class ArrayMetrics(ExplorationMetrics):
    """:class:`~repro.sim.metrics.ExplorationMetrics` with a lazily
    decoded re-anchor log.

    The hot loop appends flat ``(round, robot, anchor, depth)`` tuples;
    ``ReanchorRecord`` objects (thousands per large run) are only
    materialised if somebody reads ``.reanchors``.  Field-wise the
    object is indistinguishable from the reference metrics; only
    ``metrics == metrics`` across the two loops is out of scope
    (dataclass equality is class-gated).
    """

    def __init__(
        self,
        rounds: int,
        idle_rounds: int,
        total_moves: int,
        moves_per_robot: Counter,
        k: int,
        reveals: int,
        reanchor_log: List[Tuple[int, int, int, int]],
    ):
        self.rounds = rounds
        self.idle_rounds = idle_rounds
        self.total_moves = total_moves
        self.moves_per_robot = moves_per_robot
        self.k = k
        self.reveals = reveals
        self._reanchor_log = reanchor_log
        self._materialized: Optional[list] = None

    @property
    def reanchors(self) -> list:
        recs = self._materialized
        if recs is None:
            recs = [ReanchorRecord(*t) for t in self._reanchor_log]
            self._materialized = recs
        return recs

    @reanchors.setter
    def reanchors(self, value: list) -> None:
        self._materialized = list(value)

    def reanchors_per_depth(self) -> Dict[int, int]:
        """Per-depth ``Reanchor`` counts without materialising records."""
        if self._materialized is not None:
            return dict(Counter(rec.depth for rec in self._materialized))
        return dict(Counter(t[3] for t in self._reanchor_log))

    def log_reanchor(self, round_: int, robot: int, anchor: int, depth: int) -> None:
        """Record one anchor assignment (post-run callers only)."""
        self.reanchors.append(ReanchorRecord(round_, robot, anchor, depth))

    def summary(self) -> Dict[str, float]:
        """A flat summary convenient for tables."""
        return {
            "rounds": self.rounds,
            "idle_rounds": self.idle_rounds,
            "total_moves": self.total_moves,
            "reveals": self.reveals,
            "reanchor_calls": (
                len(self._reanchor_log)
                if self._materialized is None
                else len(self._materialized)
            ),
        }


class LazyPartialTree(PartialTree):
    """A :class:`~repro.trees.partial.PartialTree` rebuilt on demand.

    The array fast path never mutates a partial tree during the run; it
    keeps the flat discovery log instead.  Completion queries only need
    the eagerly set scalars (``num_dangling``, ``num_explored``), so the
    common result-row path never pays for the rebuild; the first access
    to any structural attribute replays the log into a full, behaviorally
    identical ``PartialTree`` state.
    """

    def __init__(self, build, root: int, num_dangling: int, num_explored: int):
        # Deliberately does NOT call PartialTree.__init__: the internal
        # tables are filled by ``build`` on first structural access.
        self.__dict__["_lazy_build"] = build
        self.root = root
        self.num_dangling = num_dangling
        self.num_explored = num_explored

    def __getattr__(self, name: str):
        build = self.__dict__.pop("_lazy_build", None)
        if build is None:
            raise AttributeError(name)
        build(self)
        return getattr(self, name)


# ---------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------

def _decline_reason(engine) -> Optional[str]:
    """Why this engine configuration must run on the scheduler loop
    (``None`` when the array fast path applies)."""
    from ..core.bfdn import BFDN
    from ..core.reanchor import LeastLoadedPolicy
    from ..trees.tree import Tree
    from .adversary import NoBreakdowns
    from .engine import AlgorithmPolicy, BreakdownInterference, Exploration, TreeRoundState
    from .runloop import NoInterference, RoundObserver

    scheduler = getattr(engine, "scheduler", None)
    if scheduler is not None and getattr(scheduler, "name", "") != "sync":
        # The flat-array loop is a synchronous-clock accelerator; async
        # schedules run on the reference event loop.
        return f"scheduler {getattr(scheduler, 'name', type(scheduler).__name__)!r}"
    state = engine.state
    if type(state) is not TreeRoundState:
        return f"state {type(state).__name__} is not the tree model"
    policy = engine.policy
    if type(policy) is not AlgorithmPolicy:
        return f"policy {type(policy).__name__} is not an algorithm adapter"
    algorithm = policy.algorithm
    if type(algorithm) is not BFDN:
        return f"algorithm {getattr(algorithm, 'name', type(algorithm).__name__)!r}"
    if algorithm.record_excursions:
        return "record_excursions=True needs per-move bookkeeping"
    if type(algorithm.policy) is not LeastLoadedPolicy:
        return f"reanchor policy {algorithm.policy.name!r}"
    interference = engine.interference
    if type(interference) is BreakdownInterference:
        if type(interference.adversary) is not NoBreakdowns:
            return f"break-down adversary {type(interference.adversary).__name__}"
    elif type(interference) is not NoInterference:
        return f"interference {type(interference).__name__}"
    for obs in engine.observers:
        if not getattr(obs, "supports_batch", False):
            return f"per-round observer {type(obs).__name__}"
        if type(obs).should_stop is not RoundObserver.should_stop:
            return f"early-stop observer {type(obs).__name__}"
    if engine.billed_stop is not None:
        return "billed_stop budget"
    if engine.quiescence_grace:
        return "quiescence_grace"
    if engine.bill_quiescent_round:
        return "bill_quiescent_round"
    expl = state.expl
    if type(expl) is not Exploration:
        return f"exploration state {type(expl).__name__}"
    tree = expl.tree
    if type(tree) is not Tree:
        return f"tree {type(tree).__name__} (adaptive/lazy substrates stay on reference)"
    if expl.round != 0 or expl.ptree.num_explored != 1:
        return "mid-run exploration state"
    root = tree.root
    if any(p != root for p in expl.positions):
        return "robots not at the root"
    return None


# ---------------------------------------------------------------------
# The fast path
# ---------------------------------------------------------------------

class ArrayBackend:
    """Flat-array BFDN executor (see the module docstring)."""

    name = "array"

    _instance: Optional["ArrayBackend"] = None

    @classmethod
    def instance(cls) -> "ArrayBackend":
        inst = cls._instance
        if inst is None:
            inst = cls._instance = cls()
        return inst

    def execute(self, engine) -> Optional[Any]:
        """Run the engine on the fast path, or decline with ``None``."""
        if _decline_reason(engine) is not None:
            return None
        return _run(engine)


def _run(engine):
    """Drive one in-envelope engine to termination on flat arrays."""
    from .runloop import (
        STOP_COMPLETE,
        STOP_QUIESCENT,
        RoundCapExceeded,
        RunOutcome,
    )

    state = engine.state
    expl = state.expl
    tree = expl.tree
    k = expl.k
    root = tree.root
    arrays = tree.as_arrays()
    par = arrays.parent
    depth_arr = arrays.depth
    nch = arrays.num_children
    cptr = arrays.child_ptr
    clist = arrays.child_list
    n = arrays.n

    # Attach for side-effect parity: resets the algorithm's and the
    # re-anchor policy's incremental state exactly like the reference.
    engine.policy.attach(state)
    observers = list(engine.observers)
    for obs in observers:
        obs.on_attach(state)
    started = perf_counter()

    big = 1 << 62
    billed_cap = engine.billed_cap if engine.billed_cap is not None else big
    wall_cap = engine.wall_cap if engine.wall_cap is not None else big
    cap = billed_cap if billed_cap < wall_cap else wall_cap
    stop_complete = engine.stop_when_complete

    # ---- node state -------------------------------------------------
    root_deg = nch[root]
    # Fused claim pointer: ``next_ptr[v]`` indexes straight into
    # ``child_list``; the v-th node's unclaimed slots are
    # ``next_ptr[v] .. cend[v]``.  One indexed read replaces the
    # (counter, base, bound) triple on the hottest branch.
    next_ptr = cptr[:n]
    cend = cptr[1:]
    open_dang = [0] * n
    open_dang[root] = root_deg
    total_dangling = root_deg
    open_count = [0] * (tree.depth + 1)
    if root_deg:
        open_count[0] = 1
    md = 0  # working depth: monotone non-decreasing
    heaps: Dict[int, List[Tuple[int, int]]] = {0: [(k, root)]} if root_deg else {}
    pending: List[List[int]] = [[] for _ in range(tree.depth + 2)]
    load = [0] * n
    load[root] = k

    # ---- robot state ------------------------------------------------
    # Robots descending a re-anchor path are pure spectators until they
    # arrive: their intermediate positions are unobservable (decisions
    # depend only on the partial tree and the load table, which walkers
    # never touch mid-walk).  So the round loop iterates only over
    # ``active`` robots and schedules each walker's first decision round
    # in ``arrivals``; when every robot is walking, the loop leaps
    # straight to the next arrival.
    pos = [root] * k
    anchor = [root] * k
    rpath: List[Optional[List[int]]] = [None] * k
    due = [0] * k
    active = list(range(k))
    departed: List[int] = []
    arrivals: Dict[int, List[int]] = {}
    walkers = 0

    path_cache: Dict[int, List[int]] = {}
    path_depth = -1

    # ---- accounting -------------------------------------------------
    billed = 0
    total_moves = 0
    idle_rounds = 0
    idle_pr = [0] * k
    reanchor_log: List[Tuple[int, int, int, int]] = []
    ev_child: List[int] = []
    stay_list: List[int] = []

    log_append = reanchor_log.append
    ev_append = ev_child.append
    stay_append = stay_list.append
    robots = range(k)
    reason = None

    while True:
        if stop_complete and not total_dangling:
            reason = STOP_COMPLETE
            break
        if walkers:
            bucket = arrivals.pop(billed, None)
            if bucket is not None:
                walkers -= len(bucket)
                for i in bucket:
                    pos[i] = rpath[i][-1]
                # Buckets may interleave launch rounds, so ids can be
                # out of order; decision order is strict robot-id order.
                active.extend(bucket)
                active.sort()
            elif not active:
                # Every robot is mid-descent: the next rounds are fully
                # determined, leap straight to the earliest arrival.
                nxt = min(arrivals)
                if nxt > cap:
                    _raise_cap(engine, cap + 1, RoundCapExceeded)
                total_moves += k * (nxt - billed)
                billed = nxt
                continue
        ev_mark = len(ev_child)
        stays = 0
        for i in active:
            u = pos[i]
            if u == root:
                # -- Reanchor (Algorithm 1 lines 25-30) ---------------
                if total_dangling:
                    while not open_count[md]:
                        md += 1
                    heap = heaps.get(md)
                    if heap is None:
                        # First selection at this depth: every depth-md
                        # node was already discovered (its parent had to
                        # be open, pinning the working depth below md),
                        # and none has carried load yet — one filtered
                        # heapify replaces per-discovery pushes.
                        heap = [(0, c) for c in pending[md] if open_dang[c]]
                        heapify(heap)
                        heaps[md] = heap
                    while True:
                        entry = heap[0]
                        node = entry[1]
                        if open_dang[node] and load[node] == entry[0]:
                            new = node
                            break
                        heappop(heap)
                else:
                    new = root
                old = anchor[i]
                if new != old:
                    lo = load[old] - 1
                    load[old] = lo
                    if open_dang[old]:
                        heappush(heaps[depth_arr[old]], (lo, old))
                    ln = load[new] + 1
                    load[new] = ln
                    if open_dang[new]:
                        heappush(heaps[depth_arr[new]], (ln, new))
                    anchor[i] = new
                if total_dangling:
                    log_append((billed, i, new, depth_arr[new]))
                    if new != root:
                        # Breadth-first descent: shared cached path,
                        # flushed when the working depth advances.
                        if md != path_depth:
                            path_cache.clear()
                            path_depth = md
                        p = path_cache.get(new)
                        if p is None:
                            p = []
                            v = new
                            while v != root:
                                p.append(v)
                                v = par[v]
                            p.reverse()
                            path_cache[new] = p
                        if len(p) > 1:
                            # Multi-round descent: leave the active set,
                            # rejoin at the first post-arrival round.
                            rpath[i] = p
                            a = billed + len(p)
                            due[i] = a
                            b = arrivals.get(a)
                            if b is None:
                                arrivals[a] = [i]
                            else:
                                b.append(i)
                            walkers += 1
                            departed.append(i)
                        else:
                            pos[i] = p[0]
                        continue
                # anchor == root: fall through to the depth-next step
            # -- depth-next: claim the next dangling port, else up ----
            j = next_ptr[u]
            if j < cend[u]:
                next_ptr[u] = j + 1
                c = clist[j]
                pos[i] = c
                ev_append(c)
            elif u != root:
                pos[i] = par[u]
            else:
                stays += 1
                stay_append(i)

        if departed:
            for i in departed:
                active.remove(i)
            del departed[:]
        moved = k - stays
        if not moved:
            # Algorithm 1's unbilled final all-stay round.
            reason = STOP_QUIESCENT
            break
        billed += 1
        total_moves += moved
        if stays:
            idle_rounds += 1
            for i in stay_list:
                idle_pr[i] += 1
            del stay_list[:]

        # -- fold this round's reveals into the open structures -------
        m = len(ev_child)
        if m > ev_mark:
            for j in range(ev_mark, m):
                c = ev_child[j]
                u = par[c]
                od = open_dang[u] - 1
                open_dang[u] = od
                if not od:
                    open_count[depth_arr[u]] -= 1
                ncc = nch[c]
                if ncc:
                    open_dang[c] = ncc
                    dc = depth_arr[c]
                    open_count[dc] += 1
                    # Discovery depth always exceeds the working depth,
                    # so heaps[dc] cannot exist yet: stage the node in
                    # the depth's pending list instead of pushing.
                    pending[dc].append(c)
                total_dangling += ncc - 1

        if billed > cap:
            _raise_cap(engine, billed, RoundCapExceeded)

    elapsed = perf_counter() - started

    # Robots still mid-walk at the stop (possible under
    # ``stop_when_complete``): place them at the step they had actually
    # reached and note the steps left on their stack.
    rem = [0] * k
    if walkers:
        for bucket in arrivals.values():
            for i in bucket:
                left = due[i] - billed
                p = rpath[i]
                if left > 0:
                    rem[i] = left
                    pos[i] = p[len(p) - 1 - left]
                else:
                    pos[i] = p[-1]

    # ---- writeback: indistinguishable final state -------------------
    reveals = len(ev_child)
    moves_pr = Counter()
    for i in robots:
        moves = billed - idle_pr[i]
        if moves:
            moves_pr[i] = moves
    expl.round = billed
    expl.positions = pos
    expl.metrics = ArrayMetrics(
        rounds=billed,
        idle_rounds=idle_rounds,
        total_moves=total_moves,
        moves_per_robot=moves_pr,
        k=k,
        reveals=reveals,
        reanchor_log=reanchor_log,
    )
    expl.ptree = LazyPartialTree(
        _ptree_builder(arrays, root_deg, ev_child, next_ptr, total_dangling),
        root,
        total_dangling,
        1 + reveals,
    )
    algorithm = engine.policy.algorithm
    algorithm._anchors = list(anchor)
    loads: Dict[int, int] = {}
    for a in anchor:
        loads[a] = loads.get(a, 0) + 1
    algorithm._loads = loads
    stacks: List[List[int]] = []
    for i in robots:
        r = rem[i]
        if r:
            p = rpath[i]
            stacks.append(p[len(p) - r:][::-1])
        else:
            stacks.append([])
    algorithm._stacks = stacks
    algorithm._moves_in_excursion = [0] * k
    algorithm._explores_in_excursion = [0] * k
    algorithm._excursion_start = [billed] * k

    outcome = RunOutcome(
        wall_rounds=billed,  # every executed round moved somebody
        billed_rounds=billed,
        stop_reason=reason,
    )
    summary = {
        # The scheduler loop also reports the final unbilled all-stay
        # round to ``on_round``; count it the same way.
        "rounds": billed + (reason == STOP_QUIESCENT),
        "billed": billed,
        "reveals": reveals,
        # Per-round observers' totals: mover moves, idle robot-rounds of
        # billed rounds, and re-anchor calls.
        "moves": total_moves,
        "idle": sum(idle_pr),
        "reanchors": len(reanchor_log),
        "backend": "array",
        "phases": {"select": 0.0, "apply": elapsed, "observe": 0.0},
    }
    for obs in observers:
        obs.on_batch(state, summary)
    for obs in observers:
        obs.on_stop(state, outcome)
    return outcome


def _raise_cap(engine, billed: int, exc_type) -> None:
    """Raise the cap error with the engine's message (wall == billed here)."""
    message = (
        engine.cap_message(billed, billed)
        if engine.cap_message is not None
        else f"run exceeded its round cap (billed={billed}, wall={billed})"
    )
    raise exc_type(message)


# ---------------------------------------------------------------------
# Partial-tree reconstruction
# ---------------------------------------------------------------------

def _ptree_builder(arrays, root_deg, ev_child, next_ptr, total_dangling):
    """A closure that replays the discovery log into ``PartialTree`` state.

    Discovery order (``ev_child``) equals the reference's reveal order —
    robot-id claim order within each round — so ``explored_children``
    lists come out identical.
    """

    def build(pt) -> None:
        par = arrays.parent
        depth_arr = arrays.depth
        nch = arrays.num_children
        root = 0
        depth_d = {root: 0}
        parent_d = {root: -1}
        degree_d = {root: root_deg}
        children_d: Dict[int, List[int]] = {root: []}
        port_child: Dict[Tuple[int, int], int] = {}
        child_port: Dict[int, int] = {}
        revealed = [0] * arrays.n
        for c in ev_child:
            u = par[c]
            children_d[u].append(c)
            # Root ports are 0-based, inner ports 1-based (port 0 is up).
            port = revealed[u] + (0 if u == root else 1)
            revealed[u] += 1
            port_child[(u, port)] = c
            child_port[c] = port
            depth_d[c] = depth_arr[c]
            parent_d[c] = u
            degree_d[c] = nch[c] + 1
            children_d[c] = []
        cptr = arrays.child_ptr
        dangling_d: Dict[int, Set[int]] = {}
        for v in depth_d:
            off = 0 if v == root else 1
            claimed = next_ptr[v] - cptr[v]
            dangling_d[v] = set(range(claimed + off, nch[v] + off))
        open_by_depth: Dict[int, Set[int]] = {}
        for v, ports in dangling_d.items():
            if ports:
                open_by_depth.setdefault(depth_d[v], set()).add(v)
        if total_dangling:
            unfinished = {}
            for v in reversed(list(depth_d)):
                count = len(dangling_d[v])
                for c in children_d[v]:
                    if unfinished[c] > 0:
                        count += 1
                unfinished[v] = count
        else:
            unfinished = dict.fromkeys(depth_d, 0)
        d = pt.__dict__
        d["root"] = root
        d["_depth"] = depth_d
        d["_parent"] = parent_d
        d["_dangling"] = dangling_d
        d["_degree"] = degree_d
        d["_port_child"] = port_child
        d["_child_port"] = child_port
        d["_children"] = children_d
        d["num_dangling"] = total_dangling
        d["num_explored"] = len(depth_d)
        d["_open_by_depth"] = open_by_depth
        d["_depth_heap"] = sorted(open_by_depth)
        d["_unfinished"] = unfinished

    return build


__all__ = ["ArrayBackend", "ArrayMetrics", "LazyPartialTree"]
