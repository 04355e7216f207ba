"""Exact verification toolkit for finite groupoids.

Builds finite groupoids from explicit tables or generators, checks
homomorphisms into commutative groups and the affine-congruence axioms of
the partitions they induce, constructs scalar pairings (semi-inner
products) and the norms they define, and verifies every law with exact
rational and Gaussian-rational arithmetic. Counterexamples are reported as
witnesses, never approximated.
"""

from __future__ import annotations

from . import errors
from .families import (
    affine_cyclic,
    complex_pair,
    cyclic_group_table,
    generate,
    group_groupoid,
    pair_groupoid,
)
from .groupoid import FiniteGroupoid, RawGroupoid, validate_groupoid
from .homs import (
    AbelianGroupSig,
    Component,
    GroupoidHom,
    Partition,
    congruence_from_hom,
    congruence_profile,
    is_monomorphism,
    product_hom,
    validate_affine_congruence,
    validate_hom,
)
from .norm import (
    NormTable,
    consistency_check,
    norm_from_sip,
    norm_table,
    polarize,
    validate_norm,
    validate_polarized,
)
from .scalars import GaussianRational, abs_sq, conj, gaussian, rational, sqrt_leq
from .sip import (
    Bihom,
    b_partition,
    b_relate,
    scalar_set,
    sip_from_thetas,
    validate_bihom,
    validate_sip,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupSig",
    "Bihom",
    "Component",
    "FiniteGroupoid",
    "GaussianRational",
    "GroupoidHom",
    "NormTable",
    "Partition",
    "RawGroupoid",
    "abs_sq",
    "affine_cyclic",
    "b_partition",
    "b_relate",
    "complex_pair",
    "congruence_from_hom",
    "congruence_profile",
    "conj",
    "consistency_check",
    "cyclic_group_table",
    "errors",
    "gaussian",
    "generate",
    "group_groupoid",
    "is_monomorphism",
    "norm_from_sip",
    "norm_table",
    "pair_groupoid",
    "polarize",
    "product_hom",
    "rational",
    "scalar_set",
    "sip_from_thetas",
    "sqrt_leq",
    "validate_affine_congruence",
    "validate_bihom",
    "validate_groupoid",
    "validate_hom",
    "validate_norm",
    "validate_polarized",
    "validate_sip",
]
