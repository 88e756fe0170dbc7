"""What each checker, evaluator and builder raises for an input that lacks
one component it reads, or whose map, form or trace has the wrong shape.

Each case has exactly one fault, except those of a representation with no
action over a bundle that also lacks a tensor its conditions read: they get
the error of the first component in the order of `structures._MISSING`, the
algebra's tensors before the actions, and a map's wrong shape before both.
Where a check runs several conditions,
some cases make an earlier condition fail at k = 1, so the budget is full
before the condition that reads the missing component: the error must
come before any scan.  The table runs once more under `python -O`.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from ternalg.catalog import fil4, gl2_trace, trunc
from ternalg.constructions import (
    TraceFunctional,
    check_induced_condition,
    check_trace,
    subadjacent_commutator,
    subadjacent_ternary_fmanifold,
    symmetrize_zinbiel,
)
from ternalg.linalg import InterMap, Matrix, Tensor, Vec
from ternalg.operators import (
    BilinearForm,
    check_cyclic_2cocycle,
    check_nijenhuis,
    check_relative_rb,
    check_relative_rb_3lie,
    check_relative_rb_comm,
    check_symplectic,
    lift_nijenhuis,
)
from ternalg.representations import (
    BiRep,
    LinRep,
    RepBundle,
    adjoint_rep,
    check_coherence,
    check_representation,
    l1,
    l2,
    l3,
)
from ternalg.structures import (
    AlgebraBundle,
    check_axioms,
    check_homomorphism,
    eval_defect,
    f1,
    f2,
    k_op,
    leibnizator2,
    leibnizator3,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

T3 = trunc(3)  # product, zero bracket, n = 3
F4 = fil4()  # zero product, bracket, n = 4
GL2, TAU = gl2_trace()  # zero product, binary bracket, n = 4
PRODUCT_ONLY = AlgebraBundle(3, product=T3.product)
BRACKET_ONLY = AlgebraBundle(3, bracket=T3.bracket)
BINARY_ONLY = AlgebraBundle(4, binary_bracket=GL2.binary_bracket)
NO_BINARY = AlgebraBundle(4, product=GL2.product)
EMPTY = AlgebraBundle(3)
# e1 * e2 = e1 and e2 * e1 = 0: comm fails at (0, 1), the first pair it scans
SKEWED = AlgebraBundle(3, product=Tensor(3, 3, [((0, 1, 0), 1)]))

ADJ3 = adjoint_rep(T3)  # a zero pair action and mu, n = m = 3
MU_ONLY = RepBundle(algebra=T3, mu=ADJ3.mu)
RHO_ONLY = RepBundle(algebra=T3, rho=ADJ3.rho)
LINEAR_RHO = RepBundle(algebra=T3, rho=LinRep.zero(3, 3), mu=ADJ3.mu)
NO_BRACKET_REP = RepBundle(algebra=PRODUCT_ONLY, rho=ADJ3.rho, mu=ADJ3.mu)
NO_PRODUCT_REP = RepBundle(algebra=BRACKET_ONLY, rho=ADJ3.rho, mu=ADJ3.mu)
BINARY_REP = RepBundle(algebra=NO_BINARY, rho=LinRep.zero(4, 2), mu=LinRep.zero(4, 2))
PAIR_ON_BINARY = RepBundle(algebra=GL2, rho=BiRep.zero(4, 2), mu=LinRep.zero(4, 2))
# rho(e1, e2) != -rho(e2, e1): rho-skew fails at its first tuple
UNSKEWED_RHO = BiRep.from_tensor(3, 3, Tensor(3, 4, [((0, 1, 0, 0), 1)]))
SKEW_FAILS_NO_MU = RepBundle(algebra=T3, rho=UNSKEWED_RHO)
SKEW_FAILS_NO_BRACKET = RepBundle(algebra=PRODUCT_ONLY, rho=UNSKEWED_RHO, mu=ADJ3.mu)
NO_ACTION = RepBundle(algebra=T3)
NO_ACTION_NO_PRODUCT = RepBundle(algebra=BRACKET_ONLY)
NO_ACTION_NO_BRACKET = RepBundle(algebra=PRODUCT_ONLY)
# the identity map fails rb-comm on the unital trunc(3) at (0, 0)
NO_BRACKET_RB = RepBundle(algebra=PRODUCT_ONLY, rho=BiRep.zero(3, 3), mu=ADJ3.mu)

E3 = T3.basis_vectors()
E4 = GL2.basis_vectors()
FORM3 = BilinearForm(Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
FORM2 = BilinearForm(Matrix([[0, 1], [-1, 0]]))
DOUBLE = InterMap(Matrix.identity(3).scale(2))

MISSING, REP, SHAPE = "MissingTensor", "MissingRep", "DimensionMismatch"

# (id, call, exception class name, MissingTensor.slot or None)
CASES = [
    # tensor operations and evaluators
    ("mul", lambda: BRACKET_ONLY.mul(E3[0], E3[1]), MISSING, "product"),
    ("br3", lambda: PRODUCT_ONLY.br3(E3[0], E3[1], E3[2]), MISSING, "bracket"),
    ("br2", lambda: T3.br2(E3[0], E3[1]), MISSING, "binary_bracket"),
    ("eval-comm", lambda: eval_defect("comm", BRACKET_ONLY, E3[:2]), MISSING, "product"),
    ("eval-fundamental", lambda: eval_defect("fundamental", PRODUCT_ONLY, E3 + E3[:2]),
     MISSING, "bracket"),
    ("eval-hm2", lambda: eval_defect("hm2", NO_BINARY, E4), MISSING, "binary_bracket"),
    ("leibnizator3-product", lambda: leibnizator3(BRACKET_ONLY, *E3, E3[0]), MISSING, "product"),
    ("leibnizator3-bracket", lambda: leibnizator3(PRODUCT_ONLY, *E3, E3[0]), MISSING, "bracket"),
    ("leibnizator2-product", lambda: leibnizator2(BINARY_ONLY, *E4[:3]), MISSING, "product"),
    ("leibnizator2-binary", lambda: leibnizator2(NO_BINARY, *E4[:3]), MISSING, "binary_bracket"),
    ("f1", lambda: f1(PRODUCT_ONLY, *E3, E3[0]), MISSING, "bracket"),
    ("f2", lambda: f2(BRACKET_ONLY, *E3, E3[0]), MISSING, "product"),
    ("k_op", lambda: k_op(PRODUCT_ONLY, *E3, E3[0]), MISSING, "bracket"),
    ("l1-bracket", lambda: l1(NO_BRACKET_REP, *E3, E3[0]), MISSING, "bracket"),
    ("l1-mu", lambda: l1(RHO_ONLY, *E3, E3[0]), REP, None),
    ("l2-product", lambda: l2(NO_PRODUCT_REP, *E3, E3[0]), MISSING, "product"),
    ("l2-rho", lambda: l2(MU_ONLY, *E3, E3[0]), REP, None),
    ("l3-pair", lambda: l3(LINEAR_RHO, *E3, E3[0]), REP, None),
    # structure checks
    ("axioms-3-lie", lambda: check_axioms("3-lie", PRODUCT_ONLY), MISSING, "bracket"),
    ("axioms-comm-assoc", lambda: check_axioms("comm-assoc", BRACKET_ONLY), MISSING, "product"),
    ("axioms-lie", lambda: check_axioms("lie", T3), MISSING, "binary_bracket"),
    ("axioms-after-failure", lambda: check_axioms("f-manifold", SKEWED),
     MISSING, "binary_bracket"),
    ("coherence", lambda: check_coherence(PRODUCT_ONLY), MISSING, "bracket"),
    ("coherence-after-failure", lambda: check_coherence(SKEWED), MISSING, "bracket"),
    # representation checks
    ("rep-mu", lambda: check_representation("comm-assoc-rep", RHO_ONLY), REP, None),
    ("rep-rho", lambda: check_representation("three-lie-rep", MU_ONLY), REP, None),
    ("rep-linear-rho", lambda: check_representation("lie-rep", PAIR_ON_BINARY), REP, None),
    ("rep-pair-rho", lambda: check_representation("ternary-fmanifold-rep", LINEAR_RHO),
     REP, None),
    ("rep-product", lambda: check_representation("ternary-fmanifold-rep", NO_PRODUCT_REP),
     MISSING, "product"),
    ("rep-binary", lambda: check_representation("fmanifold-rep", BINARY_REP),
     MISSING, "binary_bracket"),
    ("rep-after-failure-mu", lambda: check_representation(
        "ternary-fmanifold-rep", SKEW_FAILS_NO_MU), REP, None),
    ("rep-after-failure-bracket", lambda: check_representation(
        "three-lie-rep", SKEW_FAILS_NO_BRACKET), MISSING, "bracket"),
    # relative Rota-Baxter checks
    ("rb-comm-mu", lambda: check_relative_rb_comm(DOUBLE, RHO_ONLY), REP, None),
    ("rb-comm-product", lambda: check_relative_rb_comm(DOUBLE, NO_PRODUCT_REP),
     MISSING, "product"),
    ("rb-3lie-rho", lambda: check_relative_rb_3lie(DOUBLE, MU_ONLY), REP, None),
    ("rb-3lie-pair", lambda: check_relative_rb_3lie(DOUBLE, LINEAR_RHO), REP, None),
    ("rb-3lie-bracket", lambda: check_relative_rb_3lie(DOUBLE, NO_BRACKET_REP),
     MISSING, "bracket"),
    ("rb-after-failure-rho", lambda: check_relative_rb(InterMap.identity(3), MU_ONLY),
     REP, None),
    ("rb-after-failure-bracket", lambda: check_relative_rb(InterMap.identity(3), NO_BRACKET_RB),
     MISSING, "bracket"),
    # a representation with no action, over a bundle lacking a tensor too
    ("no-action-comm-assoc-rep", lambda: check_representation(
        "comm-assoc-rep", NO_ACTION_NO_PRODUCT), MISSING, "product"),
    ("no-action-lie-rep", lambda: check_representation("lie-rep", NO_ACTION),
     MISSING, "binary_bracket"),
    ("no-action-three-lie-rep", lambda: check_representation(
        "three-lie-rep", NO_ACTION_NO_BRACKET), MISSING, "bracket"),
    ("no-action-fmanifold-rep", lambda: check_representation("fmanifold-rep", NO_ACTION),
     MISSING, "binary_bracket"),
    ("no-action-ternary-fmanifold-rep", lambda: check_representation(
        "ternary-fmanifold-rep", NO_ACTION_NO_PRODUCT), MISSING, "product"),
    ("no-action-dual-conditions", lambda: check_representation(
        "dual-conditions", NO_ACTION_NO_BRACKET), MISSING, "bracket"),
    ("no-action-l1", lambda: l1(NO_ACTION_NO_BRACKET, *E3, E3[0]), MISSING, "bracket"),
    ("no-action-rb-comm", lambda: check_relative_rb_comm(DOUBLE, NO_ACTION_NO_PRODUCT),
     MISSING, "product"),
    ("no-action-rb-3lie", lambda: check_relative_rb_3lie(DOUBLE, NO_ACTION_NO_BRACKET),
     MISSING, "bracket"),
    ("no-action-rb", lambda: check_relative_rb(DOUBLE, RepBundle(algebra=EMPTY)),
     MISSING, "product"),
    ("no-action-rb-T", lambda: check_relative_rb(InterMap.zero(4, 3), NO_ACTION_NO_PRODUCT),
     SHAPE, None),
    # forms, Nijenhuis operators, traces and homomorphisms
    ("cocycle", lambda: check_cyclic_2cocycle(FORM3, BRACKET_ONLY), MISSING, "product"),
    ("symplectic", lambda: check_symplectic(FORM3, PRODUCT_ONLY), MISSING, "bracket"),
    ("nijenhuis", lambda: check_nijenhuis(InterMap.identity(3), EMPTY), MISSING, "product"),
    ("trace", lambda: check_trace(NO_BINARY, TAU), MISSING, "binary_bracket"),
    ("induced-product", lambda: check_induced_condition(BINARY_ONLY, TAU), MISSING, "product"),
    ("induced-binary", lambda: check_induced_condition(NO_BINARY, TAU),
     MISSING, "binary_bracket"),
    ("hom-source", lambda: check_homomorphism(InterMap.identity(3), EMPTY, T3),
     MISSING, "product"),
    ("hom-target", lambda: check_homomorphism(InterMap.identity(3), T3, PRODUCT_ONLY),
     MISSING, "bracket"),
    ("hom-after-failure", lambda: check_homomorphism(DOUBLE, T3, PRODUCT_ONLY),
     MISSING, "bracket"),
    # builders that read sub-maps
    ("symmetrize_zinbiel", lambda: symmetrize_zinbiel(BRACKET_ONLY), MISSING, "product"),
    ("subadjacent_commutator", lambda: subadjacent_commutator(PRODUCT_ONLY), MISSING, "bracket"),
    ("subadjacent-product", lambda: subadjacent_ternary_fmanifold(BRACKET_ONLY),
     MISSING, "product"),
    ("subadjacent-bracket", lambda: subadjacent_ternary_fmanifold(PRODUCT_ONLY),
     MISSING, "bracket"),
    # wrong shapes
    ("rb-comm-T", lambda: check_relative_rb_comm(InterMap.zero(3, 2), ADJ3), SHAPE, None),
    ("rb-3lie-T", lambda: check_relative_rb_3lie(InterMap.zero(2, 3), ADJ3), SHAPE, None),
    ("rb-T", lambda: check_relative_rb(InterMap.zero(3, 4), ADJ3), SHAPE, None),
    ("lift_nijenhuis-T", lambda: lift_nijenhuis(InterMap.zero(2, 3), ADJ3), SHAPE, None),
    ("nijenhuis-N", lambda: check_nijenhuis(InterMap.zero(3, 2), T3), SHAPE, None),
    ("cocycle-form", lambda: check_cyclic_2cocycle(FORM2, T3), SHAPE, None),
    ("symplectic-form", lambda: check_symplectic(FORM2, F4), SHAPE, None),
    ("trace-tau", lambda: check_trace(GL2, TraceFunctional.zero(3)), SHAPE, None),
    ("induced-tau", lambda: check_induced_condition(GL2, TraceFunctional(Vec([0] * 5))),
     SHAPE, None),
    ("hom-f", lambda: check_homomorphism(InterMap.zero(3, 2), T3, T3), SHAPE, None),
]

# the cases whose error must come before a scan, and the same check with the
# missing component supplied: the earlier condition fails there at k = 1
EARLIER_FAILURE = {
    "axioms-after-failure": lambda: check_axioms("f-manifold", AlgebraBundle(
        3, product=SKEWED.product, binary_bracket=Tensor(3, 3, []))),
    "coherence-after-failure": lambda: check_coherence(
        AlgebraBundle(3, product=SKEWED.product, bracket=T3.bracket)),
    "rep-after-failure-mu": lambda: check_representation(
        "ternary-fmanifold-rep", RepBundle(algebra=T3, rho=UNSKEWED_RHO, mu=ADJ3.mu)),
    "rep-after-failure-bracket": lambda: check_representation(
        "three-lie-rep", RepBundle(algebra=T3, rho=UNSKEWED_RHO, mu=ADJ3.mu)),
    "rb-after-failure-rho": lambda: check_relative_rb(InterMap.identity(3), ADJ3),
    "rb-after-failure-bracket": lambda: check_relative_rb(InterMap.identity(3), ADJ3),
    "hom-after-failure": lambda: check_homomorphism(DOUBLE, T3, T3),
}


def outcome(call) -> list:
    """The class name of what call raises, and its `slot` if it has one."""
    try:
        call()
    except Exception as exc:  # the class is what the cases assert
        return [type(exc).__name__, getattr(exc, "slot", None)]
    return ["no error", None]


@pytest.mark.parametrize("name, call, error, slot", CASES, ids=[c[0] for c in CASES])
def test_single_fault_raises_its_error(name, call, error, slot):
    assert outcome(call) == [error, slot]


@pytest.mark.parametrize("name", sorted(EARLIER_FAILURE))
def test_earlier_condition_fails_at_k_1(name):
    report = EARLIER_FAILURE[name]()
    assert not report.passed and len(report.counterexamples) == 1
    # the condition that read the missing component comes later in the list
    assert report.checked_identities[-1] == report.counterexamples[0].identity


OPTIMIZED = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import test_preconditions as t
    print(json.dumps([[name] + t.outcome(call) for name, call, _, _ in t.CASES]))
""")


def test_single_fault_errors_survive_python_O():
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    tests = str(pathlib.Path(__file__).parent)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED, tests],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[name, error, slot] for name, _, error, slot in CASES]
