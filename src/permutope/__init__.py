"""Consecutive pattern statistics of permutations and the exact geometry of
their feasible region, the cycle polytope of the overlap graph.

The public names below are loaded on first use: ``permutope.mix`` imports
``permutope.perms``, ``permutope.feasible_region`` imports the geometry
layers, and ``import permutope`` alone imports none of them.  Each access
reads the name from its defining module, so the package never holds a copy
that could go stale.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names of each module, all of them re-exported here.
_PUBLIC = {
    "errors": (
        "ArityError", "CapacityError", "DistinctnessError", "EmptyError", "EmptyPolytopeError",
        "NotFullError", "NotInPolytopeError", "PermutopeError", "RationalityError", "SizeError",
    ),
    "feasible": (
        "ConvergenceReport", "FeasibleRegion", "RealizationPlan", "convergence_report",
        "feasible_region", "monotone_sum_generator",
    ),
    "graphs": (
        "Multigraph", "SimpleCycle", "Walk", "WalkDecomposition", "decompose_walk",
        "eulerian_circuit", "iter_simple_cycles",
    ),
    "overlap": (
        "OverlapGraph", "build_overlap_graph", "eulerian_universal_permutation", "walk_of",
    ),
    "perms": (
        "PatternVector", "Permutation", "all_patterns", "cocc", "cocc_proportion", "direct_sum",
        "mix", "occ", "occ_proportion", "pattern_at", "proportion_vector", "repeat_sum",
        "standardize", "substitute",
    ),
    "polytope": ("CyclePolytope", "CycleVector", "FaceHandle", "FacePoset", "MembershipResult"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = (
    "cli", "errors", "feasible", "graphs", "limits", "overlap", "perms", "polytope", "rationals"
)

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
