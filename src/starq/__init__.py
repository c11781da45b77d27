"""Exact symbolic star products for gradient-type Poisson structures on R^3.

The package constructs Weyl-type deformation quantizations level by level,
solving the cohomological equation for each bidifferential correction and
checking that the obstruction at the next level vanishes, all over exact
rational arithmetic.
"""

from .cochains import Cochain, delta_terms
from .jets import JetPolynomial, NABLA_PHI, PSI_NABLA_PHI
from .multiindex import mi
from .opo import AbstractTerm, concretize, enumerate_terms, is_opo, parse_term
from .polynomials import XPoly, parse_poly
from .star import (GradingError, InfeasibleError, ObstructionError,
                   ObstructionReport, StarProduct, build_star, obstruction)
from .verify import (PoissonVector, associator, commutator_probe,
                     jacobi_residual, moyal_level, verify_star)
from .experiment import opo_audit, psi_opo_experiment

__version__ = "0.1.0"

__all__ = [
    "AbstractTerm",
    "Cochain",
    "GradingError",
    "InfeasibleError",
    "JetPolynomial",
    "NABLA_PHI",
    "ObstructionError",
    "ObstructionReport",
    "PSI_NABLA_PHI",
    "PoissonVector",
    "StarProduct",
    "XPoly",
    "associator",
    "build_star",
    "commutator_probe",
    "concretize",
    "delta_terms",
    "enumerate_terms",
    "is_opo",
    "jacobi_residual",
    "mi",
    "moyal_level",
    "obstruction",
    "opo_audit",
    "parse_poly",
    "parse_term",
    "psi_opo_experiment",
    "verify_star",
    "__version__",
]
