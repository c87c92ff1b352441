"""Pachner moves, the (3,3) tensor relation, and state sums on triangulated
manifolds of any dimension."""

from .groups import FinAbGroup, parse_group
from .scalars import Comparison, Scalar, ScalarRing, compare, get_ring
from .simplicial import (
    MoveSite,
    Triangulation,
    apply_move,
    boundary_face,
    face_map,
    find_move_sites,
    pachner_sides,
    simplex_boundary,
)
from .solutions import (
    SolutionSpec,
    TripleSpec,
    check_compatibility,
    parse_solution,
    pentagon_map,
    perturb_q,
    q_from_bicharacter,
    q_from_triple,
    set_q,
    symmetry_kernels,
    triple_from_table,
)
from .statesum import (
    StateSumAssignment,
    build_assignment,
    invariance_run,
    partition,
    partition_bruteforce,
    partition_value,
)
from .tensors import DOWN, UP, GroupTensor, contract, tensor_equal
from .verify import (
    dense_p33_oracle,
    p33_sides,
    verify_p33,
    verify_pentagon,
    verify_set_p33,
    verify_theorem,
    verify_yb_family,
)

__version__ = "0.1.0"

__all__ = [
    "Comparison",
    "DOWN",
    "FinAbGroup",
    "GroupTensor",
    "MoveSite",
    "Scalar",
    "ScalarRing",
    "SolutionSpec",
    "StateSumAssignment",
    "Triangulation",
    "TripleSpec",
    "UP",
    "apply_move",
    "boundary_face",
    "build_assignment",
    "check_compatibility",
    "compare",
    "contract",
    "dense_p33_oracle",
    "face_map",
    "find_move_sites",
    "get_ring",
    "invariance_run",
    "p33_sides",
    "pachner_sides",
    "parse_group",
    "parse_solution",
    "partition",
    "partition_bruteforce",
    "partition_value",
    "pentagon_map",
    "perturb_q",
    "q_from_bicharacter",
    "q_from_triple",
    "set_q",
    "simplex_boundary",
    "symmetry_kernels",
    "tensor_equal",
    "triple_from_table",
    "verify_p33",
    "verify_pentagon",
    "verify_set_p33",
    "verify_theorem",
    "verify_yb_family",
]
