"""The value contract of ternalg's value classes, all built on `linalg.Value`:
the same fields, constructors, equality, hashing and reprs as when they were
dataclasses, frozen instances, copy and pickle, and their validation at
construction, also under `python -O`."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from ternalg.catalog import fil4, r_int, trunc
from ternalg.constructions import TraceFunctional, fix_slot_bracket
from ternalg.errors import BundleError, DimensionMismatch, InternalError
from ternalg.linalg import InterMap, Matrix, Tensor, Vec, as_scalar
from ternalg.operators import BilinearForm
from ternalg.representations import BiRep, LinRep, RepBundle, adjoint_rep
from ternalg.schema import Document
from ternalg.structures import (
    IDENTITIES,
    AlgebraBundle,
    CheckReport,
    Counterexample,
    Identity,
    Symmetry,
    _Maps,
    _op,
    check_axioms,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

FIELDS = {
    Vec: ("entries",),
    Matrix: ("entries",),
    Tensor: ("shape", "constants"),
    InterMap: ("matrix",),
    AlgebraBundle: ("dim", "basis_labels", "product", "bracket", "binary_bracket", "unit"),
    Counterexample: ("identity", "indices", "residual"),
    CheckReport: ("passed", "kind", "checked_identities", "counterexamples", "tuple_count"),
    Identity: ("name", "terms", "sorts", "out", "tensors"),
    Symmetry: ("blocks", "assumes"),
    _Maps: ("base", "tensors"),
    BiRep: ("tensor",),
    LinRep: ("tensor",),
    RepBundle: ("algebra", "rho", "mu"),
    TraceFunctional: ("row",),
    BilinearForm: ("matrix",),
    Document: ("bundle", "rep", "maps", "form"),
}


def test_every_value_class_has_its_fields_in_order():
    for cls, fields in FIELDS.items():
        assert cls._fields == fields, cls


def unit_bundle():
    prod = Tensor(2, 3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return AlgebraBundle(2, product=prod, bracket=Tensor(2, 4, {}), unit=Vec([1, 0]),
                         basis_labels=("one", "x"))


def report(kind="3-lie", count=12):
    return CheckReport(False, kind, ("skew3", "fundamental"),
                       (Counterexample("skew3", (0, 0, 1), Vec([1, 0])),), count)


FUND = IDENTITIES["fundamental"]


def by_field():
    """(value, an equal value built apart, values that differ from it in one
    field each) for every class compared by its fields."""
    yield Vec([1, 2]), Vec([Fraction(1), "2"]), [Vec([1, 3]), Vec([1, 2, 0])]
    yield (Matrix([[1, 2], [3, 4]]), Matrix([[1, 2], [3, 4]]),
           [Matrix([[1, 2], [3, 5]]), Matrix([[1, 2]])])
    half = ((0, 1, 1), Fraction(1, 2))
    yield Tensor(2, 3, {(0, 1, 1): 1}), Tensor((2, 2, 2), [half, half]), [
        Tensor(3, 3, {(0, 1, 1): 1}), Tensor(2, 4, {(0, 1, 1, 1): 1}),
        Tensor(2, 3, {(0, 1, 0): 1}), Tensor((2, 2, 3), {(0, 1, 1): 1})]
    yield InterMap(Matrix([[1, 0]])), InterMap(Matrix([[1, 0]])), [InterMap(Matrix([[1, 1]]))]
    ce = Counterexample("fundamental", (0, 1), Vec([1]))
    yield ce, Counterexample("fundamental", (0, 1), Vec([1])), [
        Counterexample("hm3", (0, 1), Vec([1])), Counterexample("fundamental", (1, 1), Vec([1])),
        Counterexample("fundamental", (0, 1), Vec([2]))]
    yield report(), report(), [
        CheckReport(True, "3-lie", ("skew3", "fundamental"), (), 12), report(kind="lie"),
        CheckReport(False, "3-lie", ("skew3",), report().counterexamples, 12),
        CheckReport(False, "3-lie", ("skew3", "fundamental"), (ce,), 12), report(count=13)]
    yield FUND, Identity(FUND.name, FUND.terms, FUND.sorts, FUND.out, frozenset(FUND.tensors)), [
        Identity("other", FUND.terms, FUND.sorts, FUND.out, FUND.tensors),
        Identity(FUND.name, FUND.terms[1:], FUND.sorts, FUND.out, FUND.tensors),
        Identity(FUND.name, FUND.terms, ("V",) * 5, FUND.out, FUND.tensors),
        Identity(FUND.name, FUND.terms, FUND.sorts, "V", FUND.tensors),
        Identity(FUND.name, FUND.terms, FUND.sorts, FUND.out, frozenset({"mul"}))]
    blocks = (((0, 1), -1),)
    yield Symmetry(blocks, ("skew3",)), Symmetry(blocks, ("skew3",)), [
        Symmetry((((0, 1), 1),), ("skew3",)), Symmetry(blocks, ())]
    # fil4's adjoint rho on a module of dim 3 as well as 4, so that the
    # module dim alone can differ: its constants at module index 3 dropped
    rho = BiRep(Tensor(4, 4, [
        (idx, v) for idx, v in adjoint_rep(fil4()).rho.tensor.nonzeros() if max(idx[2:]) < 3]))
    yield rho, BiRep(rho.tensor), [
        BiRep.zero(4, 4), BiRep(Tensor((4, 4, 3, 3), rho.tensor.nonzeros()))]
    identities = {(i, p, p): 1 for i in range(2) for p in range(3)}
    yield LinRep.zero(2, 3), LinRep(Tensor((2, 3, 3), {})), [
        LinRep.zero(2, 2), LinRep.zero(3, 3), LinRep(Tensor((2, 3, 3), identities))]
    yield TraceFunctional(Vec([1, 0])), TraceFunctional(Vec([1, 0])), [TraceFunctional(Vec([0, 1]))]
    yield (BilinearForm(Matrix([[0, 1], [-1, 0]])), BilinearForm(Matrix([[0, 1], [-1, 0]])),
           [BilinearForm(Matrix([[0, 2], [-2, 0]]))])


BY_FIELD = list(by_field())


@pytest.mark.parametrize("value, twin, others", BY_FIELD,
                         ids=[type(v).__name__ for v, _, _ in BY_FIELD])
def test_equality_and_hash_follow_the_fields(value, twin, others):
    assert value is not twin and value == twin and not value != twin
    assert hash(value) == hash(twin)
    for other in others:
        assert value != other and other != value, other
    assert len({value, twin, *others}) == 1 + len(others)
    # only an instance of the same class is equal, and no value is a tuple
    fields = tuple(getattr(value, name) for name in type(value)._fields)
    sub = type("Sub", (type(value),), {})
    clone = object.__new__(sub)
    for name, field in zip(type(value)._fields, fields):
        object.__setattr__(clone, name, field)
    assert value != clone and clone != value
    assert value != fields and not isinstance(value, tuple)


def test_a_report_is_not_iterable():
    # as a NamedTuple it would be, and equal to the plain tuple of its fields
    with pytest.raises(TypeError):
        iter(report())


def test_a_tensors_lookup_takes_no_part_in_equality_hash_or_repr():
    t = Tensor(2, 3, {(0, 1, 1): 1})
    u = Tensor(2, 3, {(0, 1, 1): 1})
    object.__setattr__(u, "_values", {})
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    assert "_values" not in repr(t) and u[0, 1, 1] == 0


def identity_values():
    b = unit_bundle()
    yield b, lambda: AlgebraBundle(2, product=b.product, bracket=b.bracket, unit=b.unit,
                                   basis_labels=("one", "x"))
    yield RepBundle(b), lambda: RepBundle(b)
    yield _Maps(b, {}), lambda: _Maps(b, {})


@pytest.mark.parametrize("value, rebuild", list(identity_values()),
                         ids=["AlgebraBundle", "RepBundle", "_Maps"])
def test_bundles_reps_and_maps_compare_and_hash_by_identity(value, rebuild):
    twin = rebuild()
    assert value == value and value != twin and repr(value) == repr(twin)
    assert hash(value) == object.__hash__(value) and len({value, twin}) == 2


def test_a_document_compares_by_its_fields_and_is_unhashable():
    b = unit_bundle()
    first, second = Document(b), Document(b)
    assert first == second and first.maps == {} and first.maps is not second.maps
    assert Document(b, maps={"tau": InterMap(Matrix([[1, 0]]))}) != first
    assert Document(unit_bundle()) != first
    assert Document(b, RepBundle(b)) != first
    with pytest.raises(TypeError):  # its maps are a dict
        hash(first)


REPRS = [
    (lambda: Vec([1, Fraction(-2, 3), 0]), "Vec(1, -2/3, 0)"),
    (lambda: Counterexample("fundamental", (0, 1, 2, 3, 0), Vec([0, Fraction(1, 2)])),
     "Counterexample(identity='fundamental', indices=(0, 1, 2, 3, 0), residual=Vec(0, 1/2))"),
    (report,
     "CheckReport(passed=False, kind='3-lie', checked_identities=('skew3', 'fundamental'), "
     "counterexamples=(Counterexample(identity='skew3', indices=(0, 0, 1), "
     "residual=Vec(1, 0)),), tuple_count=12)"),
    (lambda: InterMap(Matrix([[1, 0], [Fraction(-1, 2), 3]])),
     "InterMap(matrix=Matrix(1 0; -1/2 3))"),
    (unit_bundle,
     "AlgebraBundle(dim=2, basis_labels=('one', 'x'), product=Tensor(shape=(2, 2, 2), "
     "constants=(((0, 0, 0), Fraction(1, 1)), ((0, 1, 1), Fraction(1, 1)), ((1, 0, 1), "
     "Fraction(1, 1)))), bracket=Tensor(shape=(2, 2, 2, 2), constants=()), "
     "binary_bracket=None, unit=Vec(1, 0))"),
    (lambda: Symmetry((((0, 1), -1), ((2, 3, 4), 1)), ("skew3",)),
     "Symmetry(blocks=(((0, 1), -1), ((2, 3, 4), 1)), assumes=('skew3',))"),
    (lambda: LinRep(Tensor((2, 2, 2), {(0, 1, 0): 1})),
     "LinRep(tensor=Tensor(shape=(2, 2, 2), constants=(((0, 1, 0), Fraction(1, 1)),)))"),
    (lambda: TraceFunctional(Vec([1, 0])), "TraceFunctional(row=Vec(1, 0))"),
    (lambda: BilinearForm(Matrix([[0, 1], [-1, 0]])), "BilinearForm(matrix=Matrix(0 1; -1 0))"),
    (lambda: RepBundle(AlgebraBundle(1)),
     "RepBundle(algebra=AlgebraBundle(dim=1, basis_labels=('e1',), product=None, bracket=None, "
     "binary_bracket=None, unit=None), rho=None, mu=None)"),
    (lambda: Document(AlgebraBundle(1)),
     "Document(bundle=AlgebraBundle(dim=1, basis_labels=('e1',), product=None, bracket=None, "
     "binary_bracket=None, unit=None), rep=None, maps={}, form=None)"),
]


@pytest.mark.parametrize("build, expected", REPRS, ids=[e.split("(")[0] for _, e in REPRS])
def test_repr_is_as_the_dataclasses_printed_it(build, expected):
    assert repr(build()) == expected


def frozen_values():
    for value, _, _ in BY_FIELD:
        yield value
    for value, _ in identity_values():
        yield value
    yield Document(unit_bundle())


@pytest.mark.parametrize("value", list(frozen_values()),
                         ids=lambda v: type(v).__name__)
def test_frozen_values_refuse_assignment_and_deletion(value):
    before = repr(value)
    for name in type(value)._fields + ("new_attribute",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, type(value)._fields[0])
    assert repr(value) == before and not hasattr(value, "new_attribute")


def test_caches_kept_on_a_value_are_set_through_object_setattr():
    b = fil4()
    check_axioms("3-lie", b)
    tables = vars(b)["_ops_int"]
    assert check_axioms("3-lie", b).passed and vars(b)["_ops_int"] is tables
    maps = _Maps(b, {})
    with pytest.raises(AttributeError):  # an operator check's owner is frozen too
        maps.tensors = {"N": InterMap.identity(2).tensor}
    assert maps.tensors == {}


@pytest.mark.parametrize("value", [v for v, _, _ in BY_FIELD],
                         ids=lambda v: type(v).__name__)
def test_copy_and_pickle_give_equal_values(value):
    for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)
        assert repr(twin) == repr(value)


def test_copy_and_pickle_keep_the_fields_of_identity_values():
    b = unit_bundle()
    doc = Document(b, maps={"tau": InterMap(Matrix([[1, 0]]))})
    for value in (b, adjoint_rep(fil4()), _Maps(b, {"T": b.product}), doc):
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and repr(twin) == repr(value)
    assert pickle.loads(pickle.dumps(doc)).maps == doc.maps
    t = pickle.loads(pickle.dumps(Tensor(2, 3, {(1, 1, 0): 5})))
    assert t[1, 1, 0] == 5


def test_keyword_and_default_construction():
    b = unit_bundle()
    assert RepBundle(b).rho is None and RepBundle(b).mu is None
    mu = LinRep.zero(2, 2)
    by_keyword = RepBundle(algebra=b, mu=mu)
    assert by_keyword.rho is None and by_keyword.mu is mu and by_keyword.algebra is b
    assert repr(RepBundle(b, None, mu)) == repr(by_keyword)
    r = report()
    assert CheckReport(passed=False, kind="3-lie", checked_identities=r.checked_identities,
                       counterexamples=r.counterexamples, tuple_count=12) == r
    assert CheckReport(False, "3-lie", r.checked_identities, tuple_count=12,
                       counterexamples=r.counterexamples) == r
    assert Counterexample(residual=Vec([1]), indices=(0,), identity="x") == Counterexample(
        "x", (0,), Vec([1]))
    assert Identity(name=FUND.name, terms=FUND.terms, sorts=FUND.sorts, out=FUND.out,
                    tensors=FUND.tensors) == FUND
    assert Symmetry(assumes=(), blocks=()) == Symmetry((), ())
    assert InterMap(matrix=Matrix([[1]])) == InterMap(Matrix([[1]]))
    assert TraceFunctional(row=Vec([1])) == TraceFunctional(Vec([1]))
    assert BilinearForm(matrix=Matrix([[1]])) == BilinearForm(Matrix([[1]]))
    maps = _Maps(base=b, tensors={})
    assert maps.base is b and maps.tensors == {}
    doc = Document(bundle=b, form=BilinearForm(Matrix([[0, 1], [-1, 0]])))
    assert doc.rep is None and doc.maps == {} and doc.form.dim == 2
    assert Document(b, None, {"t": InterMap.identity(2)}).maps == {"t": InterMap.identity(2)}


@pytest.mark.parametrize("build", [
    lambda: Counterexample("x", (0,)),
    lambda: Counterexample("x", (0,), Vec([1]), None),
    lambda: Counterexample("x", (0,), Vec([1]), identity="y"),
    lambda: Counterexample("x", (0,), Vec([1]), extra=1),
    lambda: TraceFunctional(),
    lambda: RepBundle(),
    lambda: RepBundle(rho=None),
    lambda: Document(),
    lambda: InterMap(Matrix([[1]]), 2),
    lambda: LinRep(2, [Matrix.zero(2, 2)] * 2),
], ids=["missing", "too-many", "repeated", "unknown", "no-row", "no-algebra",
        "only-default", "no-bundle", "intermap-extra", "action-dense"])
def test_bad_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


VALIDATION = textwrap.dedent("""
    from ternalg.linalg import Matrix, Vec
    from ternalg.operators import BilinearForm
    from ternalg.representations import BiRep, LinRep, RepBundle
    from ternalg.structures import AlgebraBundle, CheckReport, Counterexample

    b = AlgebraBundle(2)
    ce = (Counterexample("skew3", (0,), Vec([1, 0])),)
    for build in (lambda: CheckReport(True, "3-lie", (), ce, 1),
                  lambda: CheckReport(passed=False, kind="3-lie", checked_identities=(),
                                      counterexamples=(), tuple_count=1),
                  lambda: RepBundle(b, rho=3),
                  lambda: RepBundle(b, LinRep.zero(3, 2)),
                  lambda: RepBundle(b, BiRep.zero(3, 2)),
                  lambda: RepBundle(algebra=b, mu=LinRep.zero(3, 2)),
                  lambda: RepBundle(b, BiRep.zero(2, 2), LinRep.zero(2, 3)),
                  lambda: BilinearForm(Matrix([[1, 2]])),
                  lambda: BilinearForm(matrix=Matrix([[1], [2]]))):
        try:
            build()
            print("accepted")
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}")
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_validation_at_construction_survives_python_O(flags):
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, *flags, "-c", VALIDATION],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "InternalError: a report passes exactly when it has no counterexamples",
        "InternalError: a report passes exactly when it has no counterexamples",
        "TypeError: rho must be a BiRep or LinRep",
        "DimensionMismatch: RepBundle: rho1 of shape (3, 2, 2) disagrees with dim 2, "
        "module dim 2: expected (2, 2, 2)",
        "DimensionMismatch: RepBundle: rho of shape (3, 3, 2, 2) disagrees with dim 2, "
        "module dim 2: expected (2, 2, 2, 2)",
        "DimensionMismatch: RepBundle: mu of shape (3, 2, 2) disagrees with dim 2, "
        "module dim 2: expected (2, 2, 2)",
        "DimensionMismatch: RepBundle: mu of shape (2, 3, 3) disagrees with dim 2, "
        "module dim 2: expected (2, 2, 2)",
        "DimensionMismatch: bilinear form matrix must be square",
        "DimensionMismatch: bilinear form matrix must be square",
    ]


# Input checks no other test reaches: (call, exception, message).  The
# report's pass/counterexample invariant and a non-square form are
# `VALIDATION`'s, and a tensor of the wrong order is checked in
# test_structures.py.
INPUT_CHECKS = {
    "bundle-dim": (lambda: AlgebraBundle(0), BundleError, "bundle dimension must be positive"),
    "bundle-dim-bool": (lambda: AlgebraBundle(True, product=Tensor(1, 3, {})), BundleError,
                        "bundle dimension must be an int, not True"),
    "bundle-dim-float": (lambda: AlgebraBundle(2.5), BundleError,
                         "bundle dimension must be an int, not 2.5"),
    "bundle-dim-str": (lambda: AlgebraBundle("3"), BundleError,
                       "bundle dimension must be an int, not '3'"),
    "bundle-dim-none": (lambda: AlgebraBundle(None), BundleError,
                        "bundle dimension must be an int, not None"),
    "bundle-labels": (lambda: AlgebraBundle(2, basis_labels=["a"]), BundleError,
                      "expected 2 basis labels, got 1"),
    "bundle-shape": (lambda: AlgebraBundle(2, bracket=Tensor(3, 4, {})), DimensionMismatch,
                     "AlgebraBundle: br3 of shape (3, 3, 3, 3) disagrees with dim 2: "
                     "expected (2, 2, 2, 2)"),
    "unit-no-product": (lambda: AlgebraBundle(2, unit=Vec([1, 0])), BundleError,
                        "unit given but bundle has no product"),
    "unit-dim": (lambda: AlgebraBundle(2, product=Tensor(2, 3, {}), unit=Vec([1, 0, 0])),
                 BundleError, "unit has dim 3, bundle has dim 2"),
    "op-arity": (lambda: _op("mul")(0), InternalError, "mul takes 2 arguments, not 1"),
    "scalar-type": (lambda: as_scalar(0.5), TypeError,
                    "cannot build an exact scalar from float: 0.5"),
    "basis-index": (lambda: Vec.basis(2, 2), DimensionMismatch,
                    "basis index 2 out of range for dimension 2"),
    "vec-dims": (lambda: Vec([1, 2]) + Vec([1]), DimensionMismatch,
                 "vector dimensions differ: 2 vs 1"),
    "matrix-ragged": (lambda: Matrix([[1, 2], [3]]), DimensionMismatch,
                      "matrix rows have unequal lengths"),
    "matrix-apply": (lambda: Matrix([[1, 2]]) @ Vec([1]), DimensionMismatch,
                     "matrix is 1x2, vector has dim 1"),
    "matrix-matmul": (lambda: Matrix([[1, 2]]) @ Matrix([[1, 2]]), DimensionMismatch,
                      "cannot multiply 1x2 by 1x2"),
    "matrix-add": (lambda: Matrix([[1]]) + Matrix([[1, 2]]), DimensionMismatch,
                   "matrix shapes differ: 1x1 vs 1x2"),
    "matrix-sub": (lambda: Matrix([[1], [2]]) - Matrix([[1]]), DimensionMismatch,
                   "matrix shapes differ: 2x1 vs 1x1"),
    "anchor-dim": (lambda: fix_slot_bracket(fil4(), Vec([1, 0])), DimensionMismatch,
                   "anchor has dim 2, bundle has dim 4"),
    "trunc-0": (lambda: trunc(0), BundleError, "trunc(n) needs n >= 1"),
    "r_int-1": (lambda: r_int(1), BundleError, "r_int(n) needs n >= 2"),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_input_checks_raise_their_errors(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
