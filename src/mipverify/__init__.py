"""Verification toolkit for non-isomorphic 2-groups with isomorphic modular group algebras."""

from .algebra import AlgebraElement, FpMatrix, GroupAlgebra, is_unit, unit_order
from .ambient import (DEFAULT_GUARD, AmbientDescriptor, Element,
                      GuardExceeded, make_ambient)
from .family import (FamilyInstance, VerificationReport, build_family,
                     compare_variants, verify_structure)
from .groups import FiniteGroup, closure, subgroup_from_elements
from .invariants import (InvariantReport, abelian_type, compute_N,
                         ideal_subring_dim, invariant_report,
                         reports_invariant_equal)
from .isomorphism import (DEFAULT_ORACLE_BOUND, find_presentation_witness,
                          isomorphic_bruteforce)
from .report import SCHEMA_VERSION, canonical_json, certificate_as_dict
from .witness import (IsomorphismCertificate, UnitGroupSubgroup, build_beta,
                      build_beta_general, build_beta_k3, unit_closure,
                      verify_witness)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "AmbientDescriptor", "DEFAULT_GUARD",
    "DEFAULT_ORACLE_BOUND", "Element", "FamilyInstance", "FiniteGroup",
    "FpMatrix", "GroupAlgebra", "GuardExceeded", "InvariantReport",
    "IsomorphismCertificate", "SCHEMA_VERSION", "UnitGroupSubgroup",
    "VerificationReport", "abelian_type", "build_beta", "build_beta_general",
    "build_beta_k3", "build_family", "canonical_json", "certificate_as_dict",
    "closure", "compare_variants", "compute_N", "find_presentation_witness",
    "ideal_subring_dim", "invariant_report", "is_unit",
    "isomorphic_bruteforce", "make_ambient",
    "reports_invariant_equal",
    "subgroup_from_elements", "unit_closure",
    "unit_order",
    "verify_structure", "verify_witness", "__version__",
]
