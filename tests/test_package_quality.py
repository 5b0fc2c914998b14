"""Package-wide quality gates: imports, __all__ consistency, docstrings.

These tests walk the whole ``repro`` package, so adding a module without
docs or with a broken export list fails CI immediately.
"""

import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro


def walk_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield info.name, importlib.import_module(info.name)


MODULES = dict(walk_modules())


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_importable_and_documented(name):
    module = MODULES[name]
    assert module.__doc__ and module.__doc__.strip(), f"{name} has no docstring"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_all_exports_exist(name):
    module = MODULES[name]
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_public_classes_documented(name):
    module = MODULES[name]
    for attr_name, obj in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            assert inspect.getdoc(obj), f"{name}.{attr_name} has no docstring"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_public_functions_documented(name):
    module = MODULES[name]
    for attr_name, obj in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            assert inspect.getdoc(obj), f"{name}.{attr_name} has no docstring"


def test_package_has_expected_subpackages():
    expected = {
        "repro.core", "repro.trees", "repro.graphs", "repro.sim",
        "repro.game", "repro.baselines", "repro.bounds", "repro.analysis",
        "repro.viz",
    }
    assert expected <= set(MODULES)


def test_version_is_exported():
    assert repro.__version__ == "1.0.0"


def test_py_typed_marker_present():
    import os

    pkg_dir = os.path.dirname(repro.__file__)
    assert os.path.exists(os.path.join(pkg_dir, "py.typed"))



def run_fresh(script, *args):
    """Run ``script`` in a new interpreter; return its last stdout line as JSON."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


#: Modules that explore, sweep and serve never run: importing the
#: entry-point packages, or running a tree scenario, must not load them.
ON_DEMAND = (
    "networkx",
    "repro.analysis",
    "repro.game",
    "repro.mission",
    "repro.obs.report",
    "repro.perf.bench",
    "repro.sim.render",
    "repro.viz",
)


def test_cold_import_loads_only_the_run_path():
    report = run_fresh("""
        import json, sys
        import repro, repro.scenario, repro.obs, repro.orchestrator
        import repro.serve, repro.cli
        from repro.orchestrator import TreeSpec
        from repro.scenario import ScenarioSpec

        on_demand = json.loads(sys.argv[1])
        loaded = lambda: [m for m in on_demand if m in sys.modules]
        after_import = loaded()
        ScenarioSpec(kind="tree", algorithm="bfdn",
                     substrate=TreeSpec.named("random", 40), k=2).build().run()
        after_run = loaded()

        from repro.trees import are_isomorphic, generators
        from repro.trees.serialization import tree_from_networkx, tree_to_networkx
        tree = generators.caterpillar(8, 2)
        rebuilt = tree_from_networkx(tree_to_networkx(tree))
        print(json.dumps({"import": after_import, "run": after_run,
                          "networkx": "networkx" in sys.modules,
                          "round_trip": are_isomorphic(rebuilt, tree)}))
    """, json.dumps(ON_DEMAND))
    assert report["import"] == []
    assert report["run"] == []
    assert report["networkx"] and report["round_trip"]


def test_preload_covers_the_run_path_of_every_kind():
    # Sweep parents and the server call preload() before forking or
    # serving; a first run of any kind must then import nothing more.
    report = run_fresh("""
        import json, sys
        from repro.orchestrator import TreeSpec
        from repro.scenario import KINDS, ScenarioSpec, preload

        specs = {
            "tree": dict(algorithm="bfdn", substrate=TreeSpec.named("random", 40)),
            "reactive": dict(algorithm="bfdn", substrate=TreeSpec.named("random", 40),
                             adversary="block-deepest"),
            "async-tree": dict(algorithm="async-cte",
                               substrate=TreeSpec.named("random", 40), speed="unit"),
            "graph": dict(algorithm="graph-bfdn", substrate=TreeSpec.named("maze", 40)),
            "game": dict(algorithm="urn-game", substrate=TreeSpec.named("urns", 8)),
        }
        assert set(specs) == set(KINDS)
        preload()
        before = set(sys.modules)
        for kind, fields in specs.items():
            ScenarioSpec(kind=kind, k=2, compute_bounds=True, **fields).build().run()
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert report == []
