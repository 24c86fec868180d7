"""Gradings of matrix algebras by finite groups, with machine-checked axioms.

The layers build on each other: groups and matrix subspaces, graded bundles
with their axiom battery, the crossed product, the imprimitivity bimodule
between a pulled-back crossed product and the subgroup algebra,
reconstruction dualities for twisted actions and graded ideals, and
approximation-property witnesses.  The cli module exposes all of it over
JSON files.
"""

from . import approximation, bundles, cli, duality, errors, groups, imprimitivity, matrices, sections
from .approximation import (
    EPWitness,
    amenability_report,
    averaging_map,
    ep_defect,
    ep_pullback_witness,
    ep_witness,
    matrix_coefficient,
    uniform_witness,
)
from .bundles import (
    GradedBundle,
    TwistedAction,
    UnitaryMultiplierFamily,
    concretize,
    pullback,
    quotient_bundle,
    restrict,
    semidirect_bundle,
    trivial_bundle,
    twisted_semidirect_bundle,
    verify_fell_axioms,
)
from .duality import (
    GSetAction,
    extract_twist,
    graded_ideals,
    is_g_simple,
    landstad_reconstruct,
    olesen_pedersen_forward,
    stabilizer_obstruction,
)
from .groups import FiniteGroup, NormalSubgroup, Quotient, cyclic, dihedral, quotient, symmetric
from .imprimitivity import bimodule_check
from .matrices import MatrixSubspace, orthonormalize

__version__ = "0.1.0"
