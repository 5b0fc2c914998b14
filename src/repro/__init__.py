"""repro — a full reproduction of "Efficient Collaborative Tree
Exploration with Breadth-First Depth-Next" (Cosson, Massoulie, Viennot,
PODC 2023).

Quickstart::

    from repro import BFDN, Simulator, generators

    tree = generators.random_recursive(500)
    result = Simulator(tree, BFDN(), k=8).run()
    print(result.rounds)

See the package sub-modules for the urns-and-balls game (``repro.game``),
the baselines (``repro.baselines``), the guarantee formulas and Figure 1
regions (``repro.bounds``), graph exploration (``repro.graphs``) and the
recursive ``BFDN_ell`` (``repro.core.recursive``).
"""

from .baselines import CTE, OnlineDFS, offline_lower_bound, offline_split_runtime
from .core import BFDN, BFDNEll, WriteReadBFDN, run_with_breakdowns
from .scenario import ScenarioSpec, run_scenario, scenario_grid
from .sim import AsyncSimulator, Simulator
from .trees import PartialTree, Tree, generators, tree_from_edges

__version__ = "1.0.0"

_MISSION_NAMES = frozenset({"MissionPlan", "MissionReport", "plan_mission", "run_mission"})


def __getattr__(name):
    # The mission planner is re-exported here but run only by ``repro
    # mission``; it loads on first use.
    if name in _MISSION_NAMES:
        from . import mission

        return getattr(mission, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BFDN",
    "BFDNEll",
    "WriteReadBFDN",
    "CTE",
    "OnlineDFS",
    "Simulator",
    "AsyncSimulator",
    "plan_mission",
    "run_mission",
    "MissionPlan",
    "MissionReport",
    "ScenarioSpec",
    "run_scenario",
    "scenario_grid",
    "Tree",
    "PartialTree",
    "tree_from_edges",
    "generators",
    "offline_lower_bound",
    "offline_split_runtime",
    "run_with_breakdowns",
    "__version__",
]
