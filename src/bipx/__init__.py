"""Bipartite experiment design and exposure-reweighted estimation toolkit.

A weighted bipartite graph connects outcome units (rows) to diversion units
(columns). Treatments are assigned to diversion units; each outcome unit
receives a weighted-average exposure. This package builds independent
cluster designs over the diversion units, computes exact exposure moments,
evaluates the exposure reweighted linear (ERL) estimator of the average
treatment effect, and replicates designed experiments in simulation.

The public names below are imported from their modules on first access,
so that `import bipx.cli` loads only the modules a command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, and the module of the package that defines it.
_EXPORTS = {
    "BipartiteGraph": "graph_core",
    "Clustering": "design",
    "DesignSpec": "design",
    "ExposureMoments": "design",
    "OutcomeModel": "estimator",
    "LocalSearchConfig": "cluster_opt",
    "ObjectiveValue": "cluster_opt",
    "ScenarioSpec": "simulate",
    "SimulationReport": "simulate",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    # Later lookups find the name without this call.
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
