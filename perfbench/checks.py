"""Correctness gate: every row must be complete, home, and within budget.

A row passes when it reports ``complete`` and ``all_home``, its rounds
sit at or below the algorithm's budget from :mod:`repro.bounds` (or the
paper bound the repo states next to the engine) and at or above the
offline lower bound, and - for specs pinned in ``pins.json`` - its
rounds equal the pinned count.  A failing row counts as a failed
operation, never as a slow one.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Optional

from repro.baselines.offline import offline_lower_bound
from repro.bounds.guarantees import (
    async_cte_bound,
    bfdn_bound,
    potential_cte_bound,
    theorem3_bound,
    tree_mining_bound,
)
from repro.graphs.exploration import proposition9_bound

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: Tolerance for float budgets (rounds are integers, bounds are reals).
_EPS = 1e-9


def load_pins() -> Dict[str, int]:
    """Pinned rounds by spec fingerprint (empty when no pin file)."""
    try:
        with open(PINS_PATH, encoding="utf-8") as handle:
            return {fp: int(r) for fp, r in json.load(handle).items()}
    except FileNotFoundError:
        return {}


def _budget(kind: str, algorithm: str, row: Dict) -> Optional[float]:
    """The upper bound on the row's bounded quantity, or None."""
    n, depth, k, delta = row["n"], row["depth"], row["k"], row["max_degree"]
    if kind == "tree":
        if algorithm == "bfdn":
            return bfdn_bound(n, depth, k, delta)
        if algorithm == "tree-mining":
            return tree_mining_bound(n, depth, k, delta)
        if algorithm == "potential-cte":
            return potential_cte_bound(n, depth, k)
        return None  # cte: the repo states no constant-carrying bound
    if kind == "async-tree":
        return async_cte_bound(n, depth, k)
    if kind == "graph":
        return proposition9_bound(n, depth, k, delta)
    if kind == "game":
        return theorem3_bound(k, depth)
    return None


def _lower(kind: str, row: Dict) -> float:
    if kind == "graph":
        # A robot must reach the farthest node and come back.
        return 2 * row["depth"]
    if kind == "game":
        return 1
    return offline_lower_bound(row["n"], row["depth"], row["k"])


def check_row(spec, row: Optional[Dict], pins: Dict[str, int]) -> str:
    """``""`` when the row is correct for ``spec``, else the reason."""
    if not row:
        return "no row"
    if row.get("fingerprint") != spec.fingerprint():
        return "row fingerprint does not match the spec"
    if not (row.get("complete") and row.get("all_home")):
        return "run did not complete or robots not home"
    rounds = row["rounds"]
    # The asynchronous budget caps completion time, not batch count.
    measured = row["clock_time"] if spec.kind == "async-tree" else rounds
    budget = _budget(spec.kind, spec.algorithm, row)
    if budget is not None and measured > budget + _EPS:
        return f"{measured} exceeds budget {budget:.1f}"
    lower = _lower(spec.kind, row)
    if rounds < math.floor(lower):
        return f"{rounds} rounds below lower bound {lower}"
    pinned = pins.get(row["fingerprint"])
    if pinned is not None and pinned != rounds:
        return f"{rounds} rounds != pinned {pinned}"
    return ""
