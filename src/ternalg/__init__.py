"""ternalg: exact verification of finite-dimensional algebra identities.

Defines algebras by rational structure constants and mechanically checks or
constructs ternary F-manifold algebras, their representations, pre-structures,
and the relative Rota-Baxter / Nijenhuis / symplectic machinery connecting
them.  All arithmetic is exact; checks enumerate basis tuples exhaustively.
"""

from .constructions import (
    TraceFunctional,
    check_induced_condition,
    check_trace,
    direct_sum,
    fix_slot_bracket,
    subadjacent_commutator,
    subadjacent_ternary_fmanifold,
    symmetrize_zinbiel,
    tensor_with_comm_assoc,
    trace_induced,
)
from .errors import (
    ArityMismatch,
    BundleError,
    DimensionMismatch,
    InternalError,
    MissingRep,
    MissingTensor,
    NotATrace,
    NotCoherent,
    NotNijenhuis,
    NotRelativeRB,
    NotRotaBaxter,
    NotSkew,
    PreconditionError,
    SchemaError,
    SingularMatrix,
    TernalgError,
)
from .linalg import (
    InterMap,
    Matrix,
    Scalar,
    Tensor3,
    Tensor4,
    Vec,
    apply_bilinear,
    apply_trilinear,
    invert,
)
from .operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_relative_rb_3lie,
    check_relative_rb_comm,
    check_symplectic,
    deform,
    induced_3prelie,
    induced_pre_fmanifold,
    induced_rep_on_A,
    induced_zinbiel,
    invertible_rb_to_pre,
    lift_nijenhuis,
    rb_induced_pre,
    symplectic_induced_pre,
)
from .representations import (
    BiRep,
    LinRep,
    RepBundle,
    RepKind,
    adjoint_rep,
    check_coherence,
    check_representation,
    dual_rep,
    fix_slot_rep,
    l1,
    l2,
    l3,
    rep_of_subadjacent,
    semidirect,
)
from .structures import (
    AlgebraBundle,
    CheckReport,
    Counterexample,
    StructureKind,
    check_axioms,
    check_homomorphism,
    dimension_cap,
    eval_defect,
    f1,
    f2,
    k_op,
    leibnizator2,
    leibnizator3,
    set_dimension_cap,
)

__version__ = "0.1.0"
