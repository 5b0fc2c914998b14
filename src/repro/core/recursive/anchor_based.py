"""Anchor-based algorithm framework (Section 5 and Appendix B).

An *anchor-based algorithm* ``A(k*, k, d)`` explores a (sub)tree with ``k``
robots while bringing anchors to depth ``d`` and maintaining the Appendix B
invariants; its key contract is:

* **Shallow Activity** — while some anchor is above depth ``d`` or open,
  at least ``k*`` robots are active;
* **Open Node Coverage** — every open node lies in the subtree of some
  active robot's anchor;
* **Inactive Depth** — inactive robots rest at depth at most ``d``.

Instances are *sub-algorithms*: they do not own the exploration loop but
contribute moves for their robot subset each round, so the divide-depth
functor (Algorithm 3) can run many of them in parallel, interrupt them all
simultaneously, and hand their anchors to the next iteration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Set

from ...sim.engine import Exploration, Move
from ...trees.partial import RevealEvent


class AnchorBasedInstance(ABC):
    """A running anchor-based sub-algorithm over a subtree ``T(root)``.

    Parameters common to all implementations:

    ``root``
        The node the instance is responsible for (its robots only move
        within ``T(root)``, plus the initial walk towards it).
    ``robots``
        Indices of the robots under this instance's control.
    ``k_star``
        The activity parameter ``k*``.
    ``depth_limit``
        Absolute depth (from the global root) the instance must bring its
        anchors to.
    """

    def __init__(self, root: int, robots: Sequence[int], k_star: int, depth_limit: int):
        self.root = root
        self.robots: List[int] = list(robots)
        self.robot_set: Set[int] = set(robots)
        self.k_star = k_star
        self.depth_limit = depth_limit

    @abstractmethod
    def select(
        self,
        expl: Exploration,
        moves: Dict[int, Move],
        movable: Set[int],
    ) -> None:
        """Contribute this round's moves for the instance's robots."""

    @abstractmethod
    def route_events(self, expl: Exploration, events: Sequence[RevealEvent]) -> None:
        """Feed back the reveals of the last round."""

    @property
    @abstractmethod
    def active_count(self) -> int:
        """Number of active robots (drives the functor's interruption)."""

    @abstractmethod
    def anchor_claims(self, expl: Exploration) -> List[int]:
        """Roots (at depth ``depth_limit``) of the unfinished subtrees
        currently hosted by this instance's active robots.

        These become the roots ``R`` of the next functor iteration; the
        Open Node Coverage invariant guarantees they cover every open node
        of ``T(root)`` once the instance runs deep.
        """


def check_open_node_coverage(
    expl: Exploration, root: int, claims: Sequence[int]
) -> None:
    """Assert the Open Node Coverage invariant: every open node of the
    explored ``T(root)`` lies in ``T(c)`` for some claim ``c``.

    Used by the recursive tests at interruption points (the only moments
    where the claim set is consumed).
    """
    ptree = expl.ptree
    claim_set = set(claims)

    def covered(v: int) -> bool:
        while v != -1:
            if v in claim_set:
                return True
            v = ptree.parent(v)
        return False

    # Walk the explored part of T(root).
    stack = [root]
    while stack:
        u = stack.pop()
        if ptree.is_open(u) and not covered(u):
            raise AssertionError(
                f"open node {u} (depth {ptree.node_depth(u)}) is not covered "
                f"by any claim in {sorted(claim_set)}"
            )
        stack.extend(ptree.explored_children(u))
