"""Consecutive pattern statistics of permutations and the exact geometry of
their feasible region, the cycle polytope of the overlap graph."""

from .errors import (
    ArityError,
    CapacityError,
    DistinctnessError,
    DistributionError,
    EmptyError,
    EmptyPolytopeError,
    NotFullError,
    NotInPolytopeError,
    PermutopeError,
    RationalityError,
    SizeError,
)
from .feasible import (
    ConvergenceReport,
    FeasibleRegion,
    RealizationPlan,
    convergence_report,
    derandomize,
    derandomize_weights,
    feasible_region,
    mix,
    monotone_sum_generator,
)
from .graphs import (
    Multigraph,
    SimpleCycle,
    Walk,
    WalkDecomposition,
    decompose_walk,
    eulerian_circuit,
    iter_simple_cycles,
)
from .overlap import (
    OverlapGraph,
    begin_pattern,
    build_overlap_graph,
    end_pattern,
    eulerian_universal_permutation,
    hamiltonian_cycle,
    walk_of,
)
from .perms import (
    PatternVector,
    Permutation,
    all_patterns,
    cocc,
    cocc_proportion,
    direct_sum,
    is_interval,
    occ,
    occ_proportion,
    pattern_at,
    proportion_vector,
    repeat_sum,
    standardize,
    substitute,
    window_pattern,
)
from .polytope import (
    CyclePolytope,
    CycleVector,
    FaceHandle,
    FacePoset,
    MembershipResult,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
