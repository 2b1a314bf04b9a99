"""Verification toolkit for finite connected posets: the monotone, admissible
and proper edge-bijection groups, the exact incidence algebra, and the
decision whether every Lie automorphism of the algebra is proper.
"""

from .algebra import (
    IncidenceElement,
    LinearMapOnIA,
    bracket,
    center,
    check_proper_decomposition,
    commutator_subspace,
    induced_map,
    inner_map,
    invert_element,
    is_lie_automorphism,
    multiplicative_map,
)
from .bijections import (
    CountStats,
    Direction,
    EdgeBijection,
    build_compatible_sigma,
    chain_action,
    count_stats,
    count_stats_row,
    count_stats_rows,
    edge_map_of,
    enumerate_AM,
    enumerate_M,
    enumerate_P,
    image_chain,
    in_M,
    is_admissible,
    is_admissible_oracle,
    is_compatible,
    is_separating,
    proper_witness,
    satisfies_crown_criterion,
)
from .chains import (
    ChainClass,
    ProperVerdict,
    SupportMap,
    chain_classes,
    decide_all_proper,
    induced_class_map,
    linked,
    support_maps,
)
from .errors import (
    BoundExceeded,
    CocycleError,
    CycleError,
    DisconnectedError,
    ExtractionError,
    InvalidParameter,
    NotClosed,
    NotInvertible,
    NotLieAutomorphism,
    NotProperWitness,
    ParseError,
    PosetLieError,
    PreconditionError,
    StructureMismatch,
    WellDefinednessError,
)
from .fields import RATIONALS, PrimeField, RationalField, parse_field_spec
from .groups import (
    FiniteGroupOnEdges,
    crown_parity_witness,
    dihedral_witness,
    verify_group,
)
from .poset import (
    MapKind,
    Poset,
    PosetMap,
    WeakCrown,
    closed_semiwalks,
    order_isomorphisms,
    parse_poset,
    poset_maps,
    weak_crowns,
)

__version__ = "0.1.0"
