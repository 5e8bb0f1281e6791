"""Twisted Reeb orbit and equivariant GF(2) homology toolkit."""

from .complexes import CyclicAction, GradedF2Complex, HomologyTable, homology, quotient_by_action, validate
from .czindex import cz_index_unitary, relative_index
from .f2 import F2Matrix, matmul, rank
from .geometry import (
    RadialProfile,
    RotationTwist,
    RoundSphere,
    liouville_form_eval,
    load_model,
    normalize_to_sphere,
    reeb_field,
)
from .lifting import DeckElement, QuotientLoop, classify_orbit_loop, lift_loop
from .orbits import (
    SolverSettings,
    SpectrumTable,
    TwistedOrbit,
    action,
    analytic_spectrum,
    monodromy,
    shoot_orbit,
    twisted_index,
)
from .pearls import build_pearl_complex, compare_with_oracle, tate_homology

__version__ = "0.1.0"
