"""Generators and certificates for defining ideals of nilpotent orbit closures."""

from .membership import (
    MEMBER,
    NON_MEMBER,
    GradedPiece,
    ideal_contains,
    scheduled_generators,
    verify_minimal,
    verify_redundant,
)
from .minors import (
    family_rank,
    minor,
    minor_sum_basis,
    minor_sum_family,
    prefixed_minor_sum,
    principal_minor_sum,
)
from .orbit import (
    OrbitSample,
    check_vanishing,
    jordan_matrix,
    kernel_dimensions,
    sample_orbit,
)
from .partitions import (
    Partition,
    admits_minor_space,
    excluded_depths,
    full_schedule,
    minimal_schedule,
    minor_space_vanishes,
    necessity_witness,
    parse_partition,
    partitions_of,
    rank_variety_schedule,
    redundancy_witness,
)
from .polyring import Polynomial, monomials_of_degree
from .schur import dimension_table, layer_basis, layer_dimension, layer_tags

__version__ = "0.1.0"

__all__ = [
    "MEMBER",
    "NON_MEMBER",
    "GradedPiece",
    "ideal_contains",
    "scheduled_generators",
    "verify_minimal",
    "verify_redundant",
    "family_rank",
    "minor",
    "minor_sum_basis",
    "minor_sum_family",
    "prefixed_minor_sum",
    "principal_minor_sum",
    "OrbitSample",
    "check_vanishing",
    "jordan_matrix",
    "kernel_dimensions",
    "sample_orbit",
    "Partition",
    "admits_minor_space",
    "excluded_depths",
    "full_schedule",
    "minimal_schedule",
    "minor_space_vanishes",
    "necessity_witness",
    "parse_partition",
    "partitions_of",
    "rank_variety_schedule",
    "redundancy_witness",
    "Polynomial",
    "monomials_of_degree",
    "dimension_table",
    "layer_basis",
    "layer_dimension",
    "layer_tags",
    "__version__",
]
