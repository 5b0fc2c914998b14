"""Closed-form runtime guarantees for every algorithm in the paper.

All logarithms are natural unless noted.  Two flavours are provided for
each algorithm:

* ``*_bound``      — the exact constant-carrying bound stated by the paper
  (used to check measured runtimes against the theory), and
* ``*_simplified`` — the big-O shape used by the paper's Appendix A to
  draw Figure 1 (constants dropped, as the regions are defined up to
  multiplicative constants depending only on ``k``).

Beyond the source paper it carries the guarantees of the follow-up
algorithms (``tree_mining_*``, ``potential_cte_*``, ``async_cte_*``).
Which bound monitors which algorithm, and where each comes from, is
recorded once, in :data:`repro.registry.ALGORITHM_ENTRIES`.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = [
    "bfdn_bound",
    "bfdn_simplified",
    "theorem3_bound",
    "lemma2_bound",
    "adversarial_bound",
    "cte_simplified",
    "yostar_simplified",
    "dfs_simplified",
    "bfdn_ell_bound",
    "bfdn_ell_simplified",
    "best_bfdn_ell_simplified",
    "max_ell",
    "tree_mining_ell",
    "tree_mining_bound",
    "tree_mining_simplified",
    "POTENTIAL_CTE_CONSTANT",
    "potential_cte_bound",
    "potential_cte_simplified",
    "ASYNC_CTE_CONSTANT",
    "async_cte_bound",
    "async_cte_simplified",
    "offline_lower_bound_value",
    "competitive_overhead",
    "competitive_ratio",
]


def _require_team(k: int) -> None:
    if k < 1:
        raise ValueError(f"team size k must be >= 1, got {k}")


def _log_term(k: int, delta: Optional[int]) -> float:
    """``min(log Delta, log k)`` with ``Delta`` optional."""
    lk = math.log(k) if k > 1 else 0.0
    if delta is None or delta <= 1:
        return lk if delta is None else 0.0
    return min(math.log(delta), lk)


def bfdn_bound(n: int, depth: int, k: int, delta: Optional[int] = None) -> float:
    """Theorem 1: ``2n/k + D^2 (min(log Delta, log k) + 3)``."""
    return 2 * n / k + depth * depth * (_log_term(k, delta) + 3)


def bfdn_simplified(n: float, depth: float, k: int) -> float:
    """Figure 1's shape for BFDN: ``2n/k + D^2 log k``."""
    return 2 * n / k + depth * depth * max(math.log(k), 1.0)


def theorem3_bound(k: int, delta: Optional[int] = None) -> float:
    """Theorem 3: ``k min(log Delta, log k) + 2k``."""
    return k * _log_term(k, delta) + 2 * k


def lemma2_bound(k: int, delta: Optional[int] = None) -> float:
    """Lemma 2: re-anchors at any depth ``d`` are at most
    ``k (min(log k, log Delta) + 3)``."""
    return k * (_log_term(k, delta) + 3)


def adversarial_bound(n: int, depth: int, k: int) -> float:
    """Proposition 7: exploration is complete once the average number of
    allowed moves reaches ``2n/k + D^2 (log k + 3)``.

    The ``log Delta`` refinement is unavailable here — the adversary can
    pin all robots at one anchor (see Section 4.2).
    """
    lk = math.log(k) if k > 1 else 0.0
    return 2 * n / k + depth * depth * (lk + 3)


def cte_simplified(n: float, depth: float, k: int) -> float:
    """CTE's guarantee shape (Fraigniaud et al. [10]): ``n / log k + D``."""
    return n / max(math.log(k), 1.0) + depth


def yostar_simplified(n: float, depth: float, k: int) -> float:
    """Yo*'s guarantee (Ortolf–Schindelhauer [13]), as simplified in the
    paper: ``2^{sqrt(log D loglog k)} log k (log n + log k) (n/k + D)``."""
    loglog_k = math.log(max(math.log(k), math.e)) if k > 2 else 1.0
    log_d = math.log(depth) if depth > 1 else 0.0
    blowup = 2.0 ** math.sqrt(max(log_d * loglog_k, 0.0))
    lk = max(math.log(k), 1.0)
    return blowup * lk * (math.log(max(n, 2)) + lk) * (n / k + depth)


def max_ell(k: int) -> int:
    """The constraint of Figure 1's caption: ``ell <= log k / loglog k``
    (BFDN_ell can only beat CTE when ``k^{1/ell} > log k``)."""
    if k < 3:
        return 1
    lk = math.log(k)
    return max(1, int(lk / math.log(lk)))


def bfdn_ell_bound(
    n: int, depth: int, k: int, ell: int, delta: Optional[int] = None
) -> float:
    """Theorem 10: ``4n/k^{1/ell} + 2^{ell+1} (ell + 1 +
    min(log Delta, log k / ell)) D^{1+1/ell}``."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    lk = (math.log(k) if k > 1 else 0.0) / ell
    log_term = lk if delta is None or delta <= 1 else min(math.log(delta), lk)
    return 4 * n / k ** (1 / ell) + 2 ** (ell + 1) * (ell + 1 + log_term) * depth ** (
        1 + 1 / ell
    )


def bfdn_ell_simplified(n: float, depth: float, k: int, ell: int) -> float:
    """Figure 1's shape for BFDN_ell:
    ``n / k^{1/ell} + 2^ell log k D^{1+1/ell}``."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return n / k ** (1 / ell) + 2**ell * max(math.log(k), 1.0) * depth ** (1 + 1 / ell)


def best_bfdn_ell_simplified(n: float, depth: float, k: int, min_ell: int = 2) -> float:
    """Best simplified BFDN_ell guarantee over the admissible ``ell`` range
    (``ell >= 2`` by default, since ``ell = 1`` *is* BFDN up to constants)."""
    top = max(max_ell(k), min_ell)
    return min(
        bfdn_ell_simplified(n, depth, k, ell) for ell in range(min_ell, top + 1)
    )


def dfs_simplified(n: float, depth: float, k: int) -> float:
    """The single-robot DFS baseline's shape: ``2n`` (a lone robot walks
    every edge twice, whatever ``k`` is).  Included in the extended region
    map as the scale anchor every collective strategy must beat."""
    return 2 * n


def tree_mining_ell(k: int) -> int:
    """The tree-mining recursion depth ``ell(k) = ceil(sqrt(log2 k))``.

    Instantiating Theorem 10 (``BFDN_ell``) at this ``ell`` turns the
    ``n``-term ``4n/k^{1/ell}`` into ``4n / 2^{sqrt(log2 k)}``, i.e. a
    competitive ratio of ``O(k / 2^{sqrt(log2 k)})`` — the
    barrier-breaking schedule of arXiv:2309.07011, chosen uniformly from
    ``k`` alone (no a-priori knowledge of ``n`` or ``D``)."""
    _require_team(k)
    if k < 2:
        return 1
    return max(1, math.ceil(math.sqrt(math.log2(k))))


def tree_mining_bound(
    n: int, depth: int, k: int, delta: Optional[int] = None
) -> float:
    """Tree-mining's constant-carrying guarantee: Theorem 10 at
    ``ell = tree_mining_ell(k)``, i.e. ``4n / 2^{sqrt(log2 k)} +
    2^{ell+1} (ell + 1 + min(log Delta, log k / ell)) D^{1+1/ell}``."""
    return bfdn_ell_bound(n, depth, k, tree_mining_ell(k), delta)


def tree_mining_simplified(n: float, depth: float, k: int) -> float:
    """Region-map shape for tree-mining: the BFDN_ell shape at the
    uniform ``ell(k)`` (``n / 2^{sqrt(log2 k)} + 2^{ell} log k
    D^{1+1/ell}``)."""
    return bfdn_ell_simplified(n, depth, k, tree_mining_ell(k))


#: Implementation-pinned constant of the ``2n/k + C D^2`` guarantee for
#: ``potential-cte``.  arXiv:2311.01354 proves the *shape* (no ``log k``
#: on the additive term); the constant here covers this repo's
#: locally-greedy implementation and is validated empirically across the
#: registry's tree families (see tests/test_algos_zoo.py).
POTENTIAL_CTE_CONSTANT = 8.0


def potential_cte_bound(n: int, depth: int, k: int) -> float:
    """Potential-function CTE's guarantee: ``2n/k + C D^2`` with the
    implementation-pinned ``C`` of :data:`POTENTIAL_CTE_CONSTANT`."""
    _require_team(k)
    return 2 * n / k + POTENTIAL_CTE_CONSTANT * depth * depth


def potential_cte_simplified(n: float, depth: float, k: int) -> float:
    """Region-map shape for potential-function CTE: ``n/k + D^2`` —
    BFDN's shape with the ``log k`` factor removed from the additive
    term."""
    return n / k + depth * depth


#: Implementation-pinned constant of the ``2n/k + C D^2`` guarantee for
#: ``async-cte``'s *completion time* (normalised time units, every
#: traversal at most one unit).  arXiv:2507.15658 proves the shape for
#: the distributed asynchronous algorithm under arbitrary speed
#: schedules; the constant here covers this repo's whiteboard
#: implementation and is validated empirically across the registry's
#: tree families and speed schedules (see tests/test_async_scheduler.py).
ASYNC_CTE_CONSTANT = 4.0


def async_cte_bound(n: int, depth: int, k: int) -> float:
    """Asynchronous CTE's guarantee on completion *time*: ``2n/k + C D^2``
    with the implementation-pinned ``C`` of :data:`ASYNC_CTE_CONSTANT`.

    Time is the paper's normalisation: the schedule gives every edge
    traversal a duration in ``(0, 1]``, and the bound holds for *any*
    such schedule — faster agents only help.
    """
    _require_team(k)
    return 2 * n / k + ASYNC_CTE_CONSTANT * max(depth, 1) ** 2


def async_cte_simplified(n: float, depth: float, k: int) -> float:
    """Region-map shape for asynchronous CTE: ``n/k + D^2`` — the
    potential-CTE shape, achieved without the round barrier."""
    return n / k + depth * depth


def offline_lower_bound_value(n: float, depth: float, k: int) -> float:
    """``max(2n/k, 2D)`` — the offline cost every online run is compared
    to; ``0.0`` on degenerate instances with nothing to explore (at most
    one node and depth 0)."""
    _require_team(k)
    if n <= 1 and depth <= 0:
        return 0.0
    return max(2 * n / k, 2 * depth)


def competitive_overhead(rounds: float, n: int, k: int) -> float:
    """The additive overhead ``T - 2n/k`` studied by [1] and this paper.

    Defined for every input with ``k >= 1``: on degenerate instances the
    offline term is ~0 and the overhead is simply the rounds spent."""
    _require_team(k)
    return rounds - 2 * n / k


def competitive_ratio(rounds: float, n: int, depth: int, k: int) -> float:
    """``T / (n/k + D)`` — the classical competitive ratio denominator.

    When the offline denominator is 0 (degenerate instance: ``n <= 0``
    and ``depth <= 0``, e.g. size-normalised inputs with no edges) the
    ratio is defined instead of raising ``ZeroDivisionError``: ``1.0``
    for a 0-round run (trivially optimal), else the rounds spent counted
    against a one-round offline floor — finite and monotone in
    ``rounds``."""
    _require_team(k)
    denominator = n / k + depth
    if denominator <= 0:
        return max(1.0, float(rounds))
    return rounds / denominator
