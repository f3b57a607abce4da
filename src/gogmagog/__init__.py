"""Alternating sign matrices, totally symmetric self-complementary plane
partitions, their triangle encodings, the statistic-preserving permutation
bijection, exhaustive enumeration, and the partial orders these objects
carry."""

from . import bijections, claims, enumeration, orders, poset, statistics, triangles
from .bijections import (
    asm_to_monotone,
    boolean_to_monotone_perm,
    boolean_to_permutation,
    bracket_vector,
    monotone_perm_to_boolean,
    monotone_to_asm,
    permutation_to_boolean,
)
from .enumeration import FamilyId, count, generate
from .poset import Poset
from .statistics import (
    StatBundle,
    avoids,
    distribution,
    inversion_number,
    is_permutation_boolean,
    is_permutation_magog,
    is_permutation_matrix,
    is_permutation_tsscpp,
    perm_inversions,
    stat_bundle,
)
from .triangles import (
    Asm,
    BooleanTriangle,
    FundamentalDomain,
    MagogTriangle,
    MonotoneTriangle,
    NilpNest,
    Permutation,
    PlanePartition,
    expand_fundamental,
    fundamental_domain,
    from_json,
    to_json,
    validate_asm,
    validate_boolean,
    validate_magog,
    validate_monotone,
    validate_tsscpp,
)

__version__ = "0.1.0"
