"""Shared exception taxonomy for the verification laboratory."""


class TraceLabError(Exception):
    """Base class for all library errors."""


class BackendMismatch(TraceLabError):
    """Operands live on different scalar backends, or an operation is
    restricted to one backend."""


class SizeLimit(TraceLabError):
    """A matrix or induced model exceeds the supported dimension budget."""


class ExactEigenvalueNotInField(TraceLabError):
    """The exact backend met an eigenvalue outside the Gaussian rationals
    and no spectrum hint was supplied."""


class NonConvergence(TraceLabError):
    """The numeric eigensolver failed to converge."""


class SpectralPole(TraceLabError):
    """Resolvent requested at (or within tolerance of) a spectral value."""


class SigmaNotSpectral(TraceLabError):
    """A spectral projection was requested at a point that is not a
    spectral value of the distinguished operator."""


class SlowContraction(TraceLabError):
    """Power iteration cannot contract the spectral complement within the
    step budget."""


class BadLambda(TraceLabError):
    """The shift point violates the power-iteration proximity
    precondition (it must be closer to the target spectral value than to
    any other one, and off the spectrum)."""


class NonIrreduciblePi(TraceLabError):
    """A class representative failed its irreducibility certificate."""


class IrreducibilityUndecided(TraceLabError):
    """The irreducibility machinery ran out of conclusive probes.  This is
    an honest 'cannot decide', never a silent guess; see the module notes
    on exact-backend completeness."""


class NotStable(TraceLabError):
    """A subspace that must be invariant (under the group action, the
    distinguished operator, or a supplied operator) is not."""


class TraceMismatch(TraceLabError):
    """Two computations of the same trace disagree beyond tolerance.
    Signals an internal bug or an inconsistent scenario, never a math
    failure of the verified identity."""


class RelationViolation(TraceLabError):
    """Twist images do not satisfy the defining relations of the
    subgroup family."""


class IllFormedCosetAction(TraceLabError):
    """The coset action of a finite-index subgroup is inconsistent."""


class NotInSubgroup(TraceLabError):
    """An element expected to lie in the subgroup does not."""


class GrowthInadmissible(TraceLabError):
    """The test function's decay does not dominate the twist's growth at
    the requested truncation, so the lattice sum has no certified tail."""


class FloatRangeExceeded(TraceLabError):
    """A float evaluation overflowed, divided by a value that underflowed to
    zero, or met an inf/nan intermediate: the input lies outside what
    double precision can evaluate."""


class TailBoundExceedsTolerance(TraceLabError):
    """A certified truncation tail is larger than the tolerance the
    caller asked to resolve."""


class ParseError(TraceLabError):
    """A scenario file is not syntactically valid."""


class SchemaError(TraceLabError):
    """A scenario file parses but violates its case schema."""
