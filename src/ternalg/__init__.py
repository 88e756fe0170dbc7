"""ternalg: exact verification of finite-dimensional algebra identities.

Defines algebras by rational structure constants and mechanically checks or
constructs ternary F-manifold algebras, their representations, pre-structures,
and the relative Rota-Baxter / Nijenhuis / symplectic machinery connecting
them.  All arithmetic is exact; checks enumerate basis tuples exhaustively.

Submodules load on first use (PEP 562): `ternalg.check_axioms` imports
`ternalg.structures` when it is first read, and `ternalg.schema` and the other
submodules are attributes too, so a process pays only for what it runs.
"""

import sys

# Each submodule and the public names it exports here.
_EXPORTS = {
    "catalog": (),
    "cli": (),
    "constructions": (
        "TraceFunctional", "check_induced_condition", "check_trace", "direct_sum",
        "fix_slot_bracket", "subadjacent_commutator", "subadjacent_ternary_fmanifold",
        "symmetrize_zinbiel", "tensor_with_comm_assoc", "trace_induced",
    ),
    "errors": (
        "ArityMismatch", "BundleError", "DimensionMismatch", "InternalError", "MissingRep",
        "MissingTensor", "NotATrace", "NotCoherent", "NotNijenhuis", "NotRelativeRB",
        "NotRotaBaxter", "NotSkew", "PreconditionError", "SchemaError", "SingularMatrix",
        "TernalgError",
    ),
    "linalg": ("InterMap", "Matrix", "Scalar", "Tensor", "Vec", "invert"),
    "operators": (
        "BilinearForm", "check_cyclic_2cocycle", "check_nijenhuis", "check_relative_rb",
        "check_relative_rb_3lie", "check_relative_rb_comm", "check_symplectic", "deform",
        "induced_3prelie", "induced_pre_fmanifold", "induced_rep_on_A", "induced_zinbiel",
        "invertible_rb_to_pre", "lift_nijenhuis", "rb_induced_pre", "symplectic_induced_pre",
    ),
    "representations": (
        "BiRep", "LinRep", "RepBundle", "RepKind", "adjoint_rep", "check_coherence",
        "check_representation", "dual_rep", "fix_slot_rep", "l1", "l2", "l3",
        "rep_of_subadjacent", "semidirect",
    ),
    "schema": (),
    "structures": (
        "AlgebraBundle", "CheckReport", "Counterexample", "StructureKind", "check_axioms",
        "check_homomorphism", "dimension_cap", "eval_defect", "f1", "f2", "k_op",
        "leibnizator2", "leibnizator3", "set_dimension_cap",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's machinery: -X importtime lists it
    value = sys.modules[f"{__name__}.{module}"]
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
