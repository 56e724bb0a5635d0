"""Isomorphism-invariant hashing and exhaustive enumeration of colored DAGs."""

from .graphs import (
    ComputationalGraph,
    Permutation,
    GraphError,
    CapabilityExceeded,
    EdgeOrderViolation,
    ColorOutOfRange,
    PathConditionViolation,
    NotLinearExtension,
    CycleDetected,
    validate,
    normalize_dag,
    apply_permutation,
    linear_extensions,
    pack_edges,
)
from .hashing import (
    BACKENDS,
    Digest,
    digest_hex,
    graph_invariant,
    graph_invariants,
    refinement_trace,
    refine_round,
    vertex_init_digest,
    final_digest,
)
from .isomorphism import (
    ORACLE_MAX_VERTICES,
    OracleCapExceeded,
    IsoWitness,
    are_isomorphic,
    verify_witness,
)
from .enumeration import (
    EnumerationConfig,
    CanonicalRecord,
    EnumerationReport,
    FalseMerge,
    enumerate_graphs,
    verify_buckets,
)
from .adversarial import (
    AdversarialPair,
    ConstructionDegenerate,
    counterexample_pair,
    bipartite_adversarial_pair,
    middle_component_sizes,
)

__version__ = "0.1.0"
