"""Generalized adjoints of homogeneous polynomial maps.

Exact (rational) verification of the calculus of q |-> q(P(.))^n —
composition, homogeneity, non-additivity, inversion, injectivity,
linearization and finite-type expansion — plus numeric sup-norm
certificates on the float backend.
"""
from .algebra import (
    F64,
    RATIONAL,
    HomPoly,
    PolyMap,
    SymForm,
    additivity_defect,
    compose_map,
    compose_scalar,
    enumerate_multi_indices,
    multinomial,
    polarize,
)
from .adjoint import (
    adjoint_apply,
    composition_identity_defect,
    diagram_defect,
    evaluation_embedding,
    injectivity_witness,
    integer_points,
    inverse_adjoint_defects,
    materialize_adjoint,
    nonadditivity_witness,
)
from .linearization import (
    LinearMap,
    adjoint_matrix,
    adjoint_rank_bound,
    coefficient_matrix,
    linearization_matrix,
    linearize,
    map_rank,
    relabeling_map,
    tensor_power,
    transpose_identity_defect,
)
from .finite_type import (
    expand_adjoint,
    expansion_defect,
    finite_rank_rep,
    multilinear_functional,
)
from .norms import (
    NormConfig,
    check_adjoint_norm,
    check_embedding_norm,
    check_metric_injection,
    check_norm_duality,
    norming_functional,
    sup_norm,
    vector_norm,
)
from .composition import (
    CompositionInstance,
    check_factorization_identities,
    check_linear_recovery,
    check_recovery_identities,
    check_two_sided_norm,
    compose_three,
    normalization_witness,
    rank_one_map,
)
from .serialization import (
    expansion_to_obj,
    materialized_to_obj,
    polymap_dumps,
    polymap_from_obj,
    polymap_loads,
    polymap_to_obj,
    sha256_hex,
)
from . import errors, sampling, serialization

__version__ = "0.1.0"
