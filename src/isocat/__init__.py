"""Exact-arithmetic engine for categories of triples over a Q-species.

Everything computes over exact rationals: scenario data (division algebras,
bimodules, the triangular matrix ring), valued graphs and their Cartan/root
data, Hom and Ext groups of triples, universal extensions and length-1
projective resolutions, Krull-Schmidt decompositions, representation-type
classification, and the partition model of the char-p unipotent isogeny
category.
"""

from .exactalg import (
    AlgebraSpec,
    Polynomial,
    RatMatrix,
    algebra_center,
    factor_rational,
    kernel_basis,
    min_poly,
    quotient_space,
    radical,
)
from .species import (
    Bimodule,
    DivisionAlgebraHandle,
    RootDatum,
    SpeciesScenario,
    ValuedGraph,
    cartan_matrix,
    dynkin_name,
    is_finite_type,
    number_field,
    positive_roots,
    rationals,
    ring_center,
    valued_graph,
)
from .extcat import (
    ExtResult,
    TripleMorphism,
    TripleObject,
    abelian_ops,
    decompose,
    direct_sum,
    end_algebra,
    ext1,
    euler_form,
    hom,
    hom_ext_dims,
    is_projective,
    is_universal,
    projective_resolution,
    torsion_pair,
    universal_extension,
    validate,
)
from .reptype import (
    Classification,
    build_root_table,
    classify,
    construct_indecomposable,
    highest_root_d4,
    indecomposable_vectors,
)
from .wittmod import VModule, WittPartition, hom_dim, realize_partition, witt_partition
from .catalog import CATALOG_IDS, catalog_scenario

__version__ = "0.1.0"
