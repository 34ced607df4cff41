"""Exact models and fine gradings of the real Lie algebra e6(-14).

The package constructs four concrete models of the 78-dimensional real Lie
algebra with Killing signature -14 (Albert, Tits, flag, Chevalley), builds
six fine gradings on them, and machine-verifies every finite claim in exact
arithmetic: algebra axioms, dimensions, signatures, grading compatibility,
type vectors, universal grading groups and the supporting computations of
the exclusion arguments.
"""

from .scalar import Cyc, I, OMEGA, ZETA
from .abgroup import FgAbelianGroup
from .structalg import AlgebraTable, Subspace, derivations, killing_form
from .gradings import (GradedDecomposition, build_named_grading,
                       check_grading, interval_check, type_vector,
                       universal_group)
from .liemodels import (Model, build_albert, build_chevalley_form,
                        build_flag, build_tits, corollary_basis_report)

__all__ = [
    "Cyc", "I", "OMEGA", "ZETA", "FgAbelianGroup",
    "AlgebraTable", "Subspace", "derivations", "killing_form",
    "GradedDecomposition", "build_named_grading", "check_grading",
    "interval_check", "type_vector", "universal_group",
    "Model", "build_albert", "build_chevalley_form", "build_flag",
    "build_tits", "corollary_basis_report",
]

__version__ = "0.1.0"
