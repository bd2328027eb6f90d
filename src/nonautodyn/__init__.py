"""Simulation and finite-horizon property checking for non-autonomous
dynamical systems generated by uniformly convergent map sequences.

The package models a system as an indexed family of maps f_1, f_2, ... on a
compact space converging uniformly to a limit map f, and compares the
dynamics of the time-varying system against the autonomous limit system:
orbit-deviation bounds, hypothesis profiles (commutation, summability,
feeble openness, isometry), and empirical verdicts for equicontinuity,
minimality, transitivity, mixing, sensitivity, periodicity, and proximality.
"""

__version__ = "0.1.0"

from .space import (
    BinaryWord,
    CircleAngle,
    DistanceInfo,
    IntervalPoint,
    PhaseSpace,
    Point,
    ResolutionError,
    SpaceError,
    SpaceKind,
    distance,
    distance_info,
)
from .descriptors import (
    AffineCircle,
    Compose,
    Delete,
    Lookup,
    MapDescriptor,
    OdometerAdd,
    PiecewiseLinear,
    Rotation,
    SupEstimate,
    apply,
    compose,
    sup_metric,
)
from .family import (
    HypothesisProfile,
    MapFamily,
    SummabilityReport,
    TENT,
    PLATEAU_HEAD,
    commutes_with_limit,
    family_from_config,
    feeble_open_check,
    isometry_shrinking_check,
    make_builtin_family,
    profile_hypotheses,
    step_table_family,
    summability_estimate,
    surjectivity_check,
)
from .orbit import omega
from .bounds import (
    ConvergenceProfile,
    DeviationRecord,
    collective_convergence_profile,
    deviation_series,
)
from .checkers import (
    CheckConfig,
    PairPredicate,
    check_cofinite_sensitivity,
    check_dense_periodicity,
    check_equicontinuity,
    check_minimality,
    check_sensitivity,
    check_topological_mixing,
    check_transitivity,
    check_weak_mixing,
)
from .report import reproduce
from .verdict import Outcome, Verdict

__all__ = [
    "__version__",
    # space
    "BinaryWord", "CircleAngle", "DistanceInfo", "IntervalPoint", "PhaseSpace",
    "Point", "ResolutionError", "SpaceError", "SpaceKind", "distance", "distance_info",
    # descriptors
    "AffineCircle", "Compose", "Delete", "Lookup", "MapDescriptor", "OdometerAdd",
    "PiecewiseLinear", "Rotation", "SupEstimate", "apply", "compose", "sup_metric",
    # family
    "HypothesisProfile", "MapFamily", "SummabilityReport", "TENT", "PLATEAU_HEAD",
    "commutes_with_limit", "family_from_config",
    "feeble_open_check", "isometry_shrinking_check", "make_builtin_family",
    "profile_hypotheses", "step_table_family", "summability_estimate", "surjectivity_check",
    # orbit
    "omega",
    # bounds
    "ConvergenceProfile", "DeviationRecord", "collective_convergence_profile",
    "deviation_series",
    # checkers
    "CheckConfig", "PairPredicate",
    "check_cofinite_sensitivity", "check_dense_periodicity", "check_equicontinuity",
    "check_minimality", "check_sensitivity", "check_topological_mixing",
    "check_transitivity", "check_weak_mixing",
    # report
    "reproduce",
    # verdicts
    "Outcome", "Verdict",
]
