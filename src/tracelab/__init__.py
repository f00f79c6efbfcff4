"""Verification laboratory for trace identities of twisted compact quotients.

The package instantiates the multiplicity-weighted trace identity in two
exactly computable regimes (finite-index subgroups of discrete groups and
the integer lattice in the real line with non-unitary monodromy) and
cross-checks the spectral machinery behind it (generalized eigenspaces,
spectral projectors, composition series, Jordan-Hoelder multiplicities)
on finite-dimensional models.
"""

import importlib

from .errors import (
    BackendMismatch,
    BadLambda,
    ExactEigenvalueNotInField,
    FloatRangeExceeded,
    GrowthInadmissible,
    IllFormedCosetAction,
    IrreducibilityUndecided,
    NonConvergence,
    NonIrreduciblePi,
    NotInSubgroup,
    NotStable,
    ParseError,
    RelationViolation,
    SchemaError,
    SigmaNotSpectral,
    SizeLimit,
    SlowContraction,
    TailBoundExceedsTolerance,
    TraceLabError,
    TraceMismatch,
)
from .linalg import (
    GenEigenData,
    Matrix,
    generalized_eigenspaces,
    intertwiner_space,
    nullspace,
    resolvent,
)
from .scalars import (
    APPROX,
    EXACT,
    GaussianRational,
    ToleranceContext,
    parse_gaussian_rational,
)
from .spectral import (
    AdmissibleModel,
    Filtration,
    MultiplicityTable,
    PiClass,
    composition_series,
    composition_series_data,
    is_isomorphic,
    model,
    multiplicity,
    multiplicity_table,
    pi_class,
    random_pi_filtration_length,
    spectral_projection_direct,
    spectral_projection_power_iteration,
    spectral_trace,
    spectrum,
    subquotient_spectrum_check,
)
from .groups import (
    FiniteGroup,
    FiniteIndexSubgroup,
    FreeAbelianGroup,
    FreeGroup,
    KernelSubgroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    finite_subgroup,
    lattice_subgroup,
    quaternion_group,
    symmetric_group,
)
from .discrete import (
    DiscreteTestFunction,
    InducedRep,
    Twist,
    centralizer_volume,
    conjugacy_classes_meeting,
    delta_function,
    geometric_side_discrete,
    induce,
    operator_of_test_function,
    orbital_sum,
    trivial_twist,
    verify_discrete,
)
from .reporting import Scenario, TraceReport, emit, load_scenario, parse_scenario, run

# The circle case loads on first use of one of its names, or of
# ``tracelab.torus`` itself (PEP 562), so a discrete or spectral-model run
# never imports it.
_TORUS_NAMES = frozenset({
    "BumpTestFunction",
    "GaussianTestFunction",
    "TorusTwist",
    "TruncationParams",
    "geometric_side_torus",
    "laplacian_expected_spectrum",
    "spectral_characters",
    "spectral_side_torus",
    "trivial_torus_twist",
    "twisted_laplacian_model",
    "verify_torus",
})


def __getattr__(name):
    if name == "torus" or name in _TORUS_NAMES:
        # not ``from . import torus``, which asks this hook for "torus" again
        torus = importlib.import_module(".torus", __name__)
        return torus if name == "torus" else getattr(torus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _TORUS_NAMES | {"torus"})


__version__ = "0.1.0"
