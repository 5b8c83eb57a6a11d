import os
import subprocess
import sys
from pathlib import Path

import pytest

import bipx
from bipx import cluster_opt, design, estimator, graph_core, simulate

# Each public name of the package and the module that defines it.
EXPORTED = {
    "BipartiteGraph": graph_core,
    "Clustering": design,
    "DesignSpec": design,
    "ExposureMoments": design,
    "OutcomeModel": estimator,
    "LocalSearchConfig": cluster_opt,
    "ObjectiveValue": cluster_opt,
    "ScenarioSpec": simulate,
    "SimulationReport": simulate,
}


def test_public_names_are_their_modules_objects():
    assert sorted(bipx.__all__) == sorted([*EXPORTED, "__version__"])
    star = {}
    exec("from bipx import *", star)
    for name, module in EXPORTED.items():
        assert getattr(bipx, name) is getattr(module, name)
        assert star[name] is getattr(module, name)
    assert star["__version__"] == bipx.__version__ == "0.1.0"


def test_import_loads_no_module_and_dir_lists_the_public_names():
    # In a fresh process, before any name has been looked up.
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bipx; print(*dir(bipx)); "
         "print(*sorted(m for m in sys.modules if m.startswith('bipx.')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, modules = proc.stdout.split("\n")[:2]
    assert set(bipx.__all__) <= set(names.split())
    assert modules == ""


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Design'"):
        bipx.Design
    with pytest.raises(ImportError):
        exec("from bipx import Design", {})
