"""Sign deloopings on concrete finite sets.

Labeled sets and bijections, permutation parity and factorization, cycle
forms of self-maps, quotients of decidable equivalence relations, and four
functorial two-element-family constructions with recognition and
uniqueness checkers.
"""

from .cycles import (
    CycleDecomposition,
    CyclicStructure,
    EndoDecomposition,
    RootedTree,
    canonical_form,
    cycle_decompose,
    decompose_endofunction,
    is_cyclic,
    orbit_partition,
    recompose,
    recompose_endofunction,
)
from .deloopings import (
    CONSTRUCTIONS,
    Construction,
    FixedPointElement,
    NaturalFamily,
    Orientation,
    RecognitionReport,
    TwoElementFamily,
    all_orientations,
    alternating_kernel,
    canonical_orientation,
    cartier_delooping,
    check_recognition,
    exhaustive_fixed_points,
    fixed_point_delooping,
    fixed_point_elements,
    mutate_family,
    natural_isomorphism,
    orbit_delooping,
    orientation_action,
    orientation_class,
    relative_inversions,
    sign_from_delooping,
    simpson_delooping,
)
from .errors import (
    ArityMismatch,
    ArityTooSmall,
    CarrierMismatch,
    ContractError,
    DomainMismatch,
    MalformedDecomposition,
    NaturalityFailure,
    NotADelooping,
    NotMember,
    NotReflexive,
    NotSubset,
    NotSymmetric,
    NotTransitive,
    SizeGuard,
    TooSmall,
    WrongCardinality,
    ZeroModulus,
)
from .finite import (
    Bijection,
    LabeledSet,
    Subset,
    enumerate_bijections,
    extend,
    fin,
    identity,
    k_subsets,
    order_bijection,
    puncture,
    support,
    swap_two,
    transposition_of_pair,
)
from .perms import (
    MINUS,
    PLUS,
    InversionPair,
    Sign,
    factor_into_transpositions,
    inversions,
    permutation,
    product_of_transpositions,
    sign_inversions,
    succ_cycle,
    transposition,
)
from .quotients import (
    Partition,
    QuotientSet,
    SigmaDecomposition,
    partition_from_relation,
    partition_of_sigma,
    quotient,
    sigma_decomposition,
)
from .verify import VerifyReport, run_verification

__version__ = "0.1.0"
