"""Exact flat counts for extended Catalan and Shi hyperplane arrangements.

The library computes intersection-poset sizes three independent ways: the
triangular matrix formulas, generic species composition (also exposed as a
small expression language), and brute-force oracles over connected
partitions or exact linear algebra. It also realizes the explicit
bijections between nested-list structures and one-dimensional flats.
"""

from .species import (
    CompositionConstantTerm,
    CountSeq,
    bell_transform,
    seq_cycles_nonempty,
    seq_k_set,
    seq_lists,
    seq_lists_nonempty,
    seq_sets,
    seq_sets_nonempty,
)
from .triangles import (
    DEFAULT_ORDER,
    Triangle,
    catalan_triangle,
    identity_triangle,
    lah_matrix,
    lah_power_closed,
    mat_mul,
    mat_pow,
    shi_triangle,
    stirling1_matrix,
    stirling2_matrix,
    total_flats,
)
from .oracle import (
    GainInterval,
    HeightFunction,
    enumerate_connected_blocks,
    enumerate_flats_gain,
    enumerate_flats_linear,
)
from .bijections import (
    NotConnected,
    catalan_structure_to_height,
    enumerate_catalan_structures,
    enumerate_nested_lists,
    height_to_catalan_structure,
    height_to_shi_structure,
    shi_structure_to_height,
    structure_depth,
)
from .dsl import ParseError, evaluate, evaluate_text, parse, render

__version__ = "0.1.0"
