import itertools
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ternalg.errors import DimensionMismatch, SingularMatrix
from ternalg.linalg import (
    InterMap,
    Matrix,
    Tensor,
    Vec,
    invert,
)
from ternalg.structures import AlgebraBundle, _ops, _support, _table

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def rand_vec(rng, n):
    return Vec([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])


def trunc_product(n):
    return Tensor(n, 3, {(i, j, i + j): 1 for i in range(n) for j in range(n - i)})


def mul(t, x, y):
    return AlgebraBundle(t.dim, product=t).mul(x, y)


def br3(f, x, y, z):
    return AlgebraBundle(f.dim, bracket=f).br3(x, y, z)


def fil4_bracket():
    from ternalg.catalog import fil4

    return fil4().bracket


# -- scalar layer sanity ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_scalar_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_scalar_lowest_terms():
    x = Fraction(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert Fraction(1, -2).denominator == 2


# -- products through AlgebraBundle.mul -----------------------------------------

def test_bilinear_zero_tensor():
    t = Tensor(3, 3, {})
    rng = random.Random(1)
    assert mul(t, rand_vec(rng, 3), rand_vec(rng, 3)) == Vec.zero(3)


def test_bilinear_trunc3_monomial():
    t = trunc_product(3)
    e2 = Vec.basis(3, 1)  # t
    assert mul(t, e2, e2) == Vec.basis(3, 2)  # t^2


def test_bilinear_matches_polynomial_product():
    # independent oracle: truncated coefficientwise polynomial multiplication
    n = 4
    t = trunc_product(n)
    rng = random.Random(7)
    for _ in range(25):
        x, y = rand_vec(rng, n), rand_vec(rng, n)
        conv = [Fraction(0)] * n
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    conv[i + j] += x[i] * y[j]
        assert mul(t, x, y) == Vec(conv)


def test_bilinear_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mul(trunc_product(3), Vec.zero(2), Vec.zero(3))


# -- brackets through AlgebraBundle.br3 -----------------------------------------

def test_trilinear_table_values():
    f = fil4_bracket()
    e = [Vec.basis(4, i) for i in range(4)]
    assert br3(f, e[0], e[1], e[2]) == e[3]
    assert br3(f, e[0], e[0], e[2]) == Vec.zero(4)
    assert br3(f, e[1], e[0], e[2]) == -e[3]


@settings(max_examples=40, deadline=None)
@given(rationals, rationals, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_multilinearity_first_slot(a, b, i, j, k):
    t = trunc_product(3)
    x, y, z = Vec.basis(3, i), Vec.basis(3, j), Vec.basis(3, k)
    lhs = mul(t, x.scale(a) + y.scale(b), z)
    rhs = mul(t, x, z).scale(a) + mul(t, y, z).scale(b)
    assert lhs == rhs


def test_trilinearity_random_exact():
    f = fil4_bracket()
    rng = random.Random(3)
    for _ in range(20):
        x, y, z, w = (rand_vec(rng, 4) for _ in range(4))
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = br3(f, x, y.scale(a) + z, w)
        rhs = br3(f, x, y, w).scale(a) + br3(f, x, z, w)
        assert lhs == rhs


# -- invert -------------------------------------------------------------------

def test_invert_identity():
    assert invert(Matrix.identity(3)) == Matrix.identity(3)


def test_invert_rotation():
    m = Matrix([[0, 1], [-1, 0]])
    assert invert(m) == Matrix([[0, -1], [1, 0]])


def test_invert_singular():
    with pytest.raises(SingularMatrix):
        invert(Matrix([[1, 1], [1, 1]]))


def test_invert_non_square():
    with pytest.raises(DimensionMismatch):
        invert(Matrix.zero(2, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=9, max_size=9))
def test_invert_roundtrip(flat):
    m = Matrix([flat[0:3], flat[3:6], flat[6:9]])
    try:
        mi = invert(m)
    except SingularMatrix:
        return
    assert m @ mi == Matrix.identity(3)
    assert mi @ m == Matrix.identity(3)


# -- misc ----------------------------------------------------------------------

def test_matrix_apply_and_matmul():
    m = Matrix([[1, 2], [3, 4]])
    assert m.apply(Vec([1, 1])) == Vec([3, 7])
    assert m @ Matrix.identity(2) == m
    assert m.T == Matrix([[1, 3], [2, 4]])


def test_intermap_dims():
    t = InterMap(Matrix.zero(4, 2))
    assert t.src_dim == 2 and t.dst_dim == 4
    assert t.apply(Vec([1, 1])) == Vec.zero(4)


INTERMAP_TENSOR = textwrap.dedent("""
    from fractions import Fraction
    from ternalg.linalg import InterMap, Matrix

    for t in (InterMap(Matrix([[1, 0, Fraction(-2, 3)], [0, 5, 7]])),
              InterMap(Matrix([[0, 3, 0, -1, 2]])), InterMap.zero(4, 2)):
        m = t.matrix
        tensor = t.tensor
        fresh = InterMap(Matrix(m.entries))  # its tensor never read
        print(tensor.order == 2, tensor.shape == (t.src_dim, t.dst_dim),
              all(tensor[j, i] == m.entries[i][j]
                  for i in range(m.rows) for j in range(m.cols)),
              len(tensor.nonzeros()) == len(m.nonzeros()),
              fresh == t, hash(fresh) == hash(t), repr(fresh) == repr(t),
              fresh.tensor == tensor, repr(t) == f"InterMap(matrix={m!r})",
              t._fields == ("matrix",))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_intermap_tensor_is_derived_from_the_matrix(flags):
    # tensor[j, i] is row i, column j of the matrix, of shape (src, dst);
    # it takes no part in ==, hash or repr
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, *flags, "-c", INTERMAP_TENSOR],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [["True"] * 10] * 3


def test_tensor_shape_validation():
    with pytest.raises(DimensionMismatch):
        Tensor(2, 3, {(0, 1): 1})  # too few indices
    with pytest.raises(DimensionMismatch):
        Tensor(2, 4, {(0, 1, 2, 0): 1})  # index 2 out of range
    with pytest.raises(DimensionMismatch):
        Tensor(2, 3, {(0, -1, 0): 1})


def test_tensor_is_structural_and_sparse():
    t = Tensor(3, 3, {(2, 0, 1): Fraction(3, 4), (0, 1, 2): -1, (1, 1, 1): 0})
    assert t == Tensor(3, 3, [((0, 1, 2), -2), ((2, 0, 1), Fraction(3, 4)), ((0, 1, 2), 1)])
    every_cell = {idx: t[idx] for idx in itertools.product(range(3), repeat=3)}  # zeros too
    assert hash(t) == hash(Tensor(3, 3, every_cell))
    assert t.nonzeros() == (((0, 1, 2), -1), ((2, 0, 1), Fraction(3, 4)))
    assert t[2, 0, 1] == Fraction(3, 4) and t[1, 1, 1] == 0
    assert t != Tensor(3, 4, {}) and Tensor(3, 3, {(0, 0, 0): 0}).is_zero()
    assert t.den_lcm() == 4
    # a bundle's integer tables of t, times its scale 4; exact values come
    # from t itself, at basis and at rational vectors
    b = AlgebraBundle(3, product=t)
    fast = _ops(b)
    assert fast.scales["mul"] == 4
    assert _support(fast, "mul") == [(0, 1, 2, -4), (2, 0, 1, 3)]
    assert _table(fast, "mul")[2][0] == ((1, 3),) and _table(fast, "mul")[0][1] == ((2, -4),)
    assert t.apply(Vec.basis(3, 2), Vec.basis(3, 0)) == Vec([0, Fraction(3, 4), 0])
    assert t.apply(Vec.basis(3, 0), Vec.basis(3, 1)) == Vec([0, 0, -1])
    x, y = Vec([Fraction(1, 2), 0, 2]), Vec([1, Fraction(1, 3), 0])
    assert t.apply(x, y) == b.mul(x, y) == Vec([0, Fraction(3, 2), Fraction(-1, 6)])
