"""Exception taxonomy for the toolkit.

Every validation failure raises a named subclass of FellBundleError so callers
(and the CLI, which maps them to exit code 2) can tell malformed input apart
from a mathematical check that ran and failed.
"""


class FellBundleError(Exception):
    """Base class for all toolkit errors."""


# group layer

class NotAPermutationRow(FellBundleError):
    """A Cayley table row or column is not a permutation of the elements."""


class MissingIdentity(FellBundleError):
    """No element acts as a two-sided identity at index 0."""


class NonAssociativeTable(FellBundleError):
    """The Cayley table fails associativity."""


class NotASubgroup(FellBundleError):
    """A member list is not closed under the group operations."""


class NotNormal(FellBundleError):
    """A subgroup is not invariant under conjugation."""


class TrivialN(FellBundleError):
    """A construction requires a nontrivial normal subgroup."""


# matrix layer

class DimensionMismatch(FellBundleError):
    """Matrices of inconsistent shapes were combined."""


class NotAnAlgebra(FellBundleError):
    """A subspace is not closed under multiplication (or adjoints)."""


class NotUnital(FellBundleError):
    """An algebra has no unit element."""


# bundle layer

class GroupMismatch(FellBundleError):
    """Bundle and quotient data are indexed by different groups."""


class ShapeMismatch(FellBundleError):
    """Fiber data does not match the declared ambient dimension."""


class AxiomViolation(FellBundleError):
    """A construction's precondition bundle fails the grading axioms."""


class InvalidAction(FellBundleError):
    """A map claimed to be an action is not a homomorphism into *-automorphisms."""


class InvalidTwist(FellBundleError):
    """A twist fails unitarity or one of its compatibility identities."""


class NonUnitalUnitFiber(FellBundleError):
    """fiber(e) has no unit, so a unit-dependent construction cannot run."""


class InvalidMultiplierFamily(FellBundleError):
    """A multiplier family fails unitarity, order compatibility, or covariance."""


class DegenerateFunctional(FellBundleError):
    """The declared functional is not positive definite on the section space."""


class MultiplierNotOrderCompatible(FellBundleError):
    """A multiplier value lies outside the fiber its index requires."""


class FiberNotPrincipal(FellBundleError):
    """A fiber is not generated by the unit fiber times the given multiplier."""


# module / section layer

class NotInAlgebra(FellBundleError):
    """An ambient matrix is outside the section algebra."""


class NotAHomomorphism(FellBundleError):
    """A map fails multiplicativity, the adjoint, or nondegeneracy."""


class ProjectionsNotResolving(FellBundleError):
    """Claimed spectral projections are not orthogonal or do not sum to 1."""


class ValueOutsideUnitFiber(FellBundleError):
    """A witness value is not a member of fiber(e)."""


class GNormExceeded(FellBundleError):
    """A scalar witness exceeds the unit ball of the 2-norm."""


# serialization

class ParseError(FellBundleError):
    """A spec file is malformed."""
