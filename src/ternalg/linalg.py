"""Exact rational vectors, matrices and sparse structure-constant tensors.

Scalars are `fractions.Fraction`: arbitrary precision, always in lowest
terms with positive denominator, so equality is structural and arithmetic
never rounds.  All container types are immutable after construction and
every operation is a pure function, so values are safe to share between
threads.  `Value` is the base of every value class in the package: fields
declared once, equality, hashing and repr by them, and frozen instances.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, SingularMatrix

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class Value:
    """An immutable value with named fields, the base of ternalg's values.

    A subclass declares its fields as annotations, in order, after those
    of its base; a class attribute of the same name is the field's default.
    The constructor takes the fields by position or keyword.  Instances are
    equal when they are of the same class and their fields are equal, hash
    by their fields and print as `Cls(field=value, ...)`.  Assigning or
    deleting an attribute raises AttributeError, so a subclass's own
    constructor, and a cache kept on an instance, use `object.__setattr__`.
    `class C(Value, eq=False)` keeps identity equality and hashing.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True):
        cls._fields += tuple(vars(cls).get("__annotations__", ()))
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)}); got "
                            f"{len(args)} positional and {sorted(kwargs)} by keyword")
        kwargs.update(zip(names, args))
        for name in names:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
            object.__setattr__(self, name, kwargs[name] if name in kwargs else getattr(cls, name))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def parse_rational(text: str) -> Fraction:
    """The rational written as an optional sign, digits and an optional
    "/digits" ("3", "-3/2"); ValueError for any other text or a zero
    denominator.  Exponents and decimals are refused: "1e999999999" would
    otherwise expand to a billion-digit integer."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError("expected an integer or p/q")
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ValueError("zero denominator")
    return Fraction(int(num), int(den or 1))


def as_scalar(x) -> Fraction:
    """Coerce an int, string ("3", "-3/2") or Fraction to an exact scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"cannot build an exact scalar from {type(x).__name__}: {x!r}")


class Vec(Value):
    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(as_scalar(e) for e in entries))

    def _integers(self) -> tuple[dict, int]:
        """({i: integer}, d): the nonzero coordinates over their common d."""
        if "_ints" not in self.__dict__:
            nonzero = [(i, x) for i, x in enumerate(self.entries) if x]
            d = lcm(*[x.denominator for _, x in nonzero])
            object.__setattr__(self, "_ints", (
                {i: x.numerator * (d // x.denominator) for i, x in nonzero}, d))
        return self._ints

    @staticmethod
    def zero(n: int) -> "Vec":
        return Vec([ZERO] * n)

    @staticmethod
    def basis(n: int, i: int) -> "Vec":
        if not 0 <= i < n:
            raise DimensionMismatch(f"basis index {i} out of range for dimension {n}")
        return Vec([ONE if j == i else ZERO for j in range(n)])

    @property
    def dim(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check(other)
        return Vec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vec":
        return Vec(-a for a in self.entries)

    def scale(self, c) -> "Vec":
        c = as_scalar(c)
        return Vec(c * a for a in self.entries)

    def dot(self, other: "Vec") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), ZERO)

    def _check(self, other: "Vec"):
        if len(self.entries) != len(other.entries):
            raise DimensionMismatch(
                f"vector dimensions differ: {len(self.entries)} vs {len(other.entries)}"
            )

    def __repr__(self):
        return "Vec(%s)" % ", ".join(str(e) for e in self.entries)


class Matrix(Value):
    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(tuple(as_scalar(e) for e in row) for row in rows)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise DimensionMismatch("matrix rows have unequal lengths")
        object.__setattr__(self, "entries", grid)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Vec]) -> "Matrix":
        if not cols:
            return Matrix([])
        return Matrix([[col[i] for col in cols] for i in range(cols[0].dim)])

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def T(self) -> "Matrix":
        return Matrix(zip(*self.entries)) if self.entries else Matrix([])

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    def nonzeros(self) -> list:
        """((row, column), value) for each nonzero entry, row by row."""
        return [((i, j), v) for i, row in enumerate(self.entries) for j, v in enumerate(row) if v]

    def row(self, i: int) -> Vec:
        return Vec(self.entries[i])

    def column(self, j: int) -> Vec:
        return Vec(row[j] for row in self.entries)

    def apply(self, v: Vec) -> Vec:
        if self.cols != v.dim:
            raise DimensionMismatch(f"matrix is {self.rows}x{self.cols}, vector has dim {v.dim}")
        out = [ZERO] * self.rows
        for j, vj in enumerate(v.entries):
            if vj:
                for i in range(self.rows):
                    e = self.entries[i][j]
                    if e:
                        out[i] += e * vj
        return Vec(out)

    def __matmul__(self, other):
        if isinstance(other, Vec):
            return self.apply(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other.entries
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.entries):
            oi = out[i]
            for k, a in enumerate(row):
                if a:
                    rk = ot[k]
                    for j, b in enumerate(rk):
                        if b:
                            oi[j] += a * b
        return Matrix(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        return Matrix(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        return Matrix(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)
        )

    def __neg__(self) -> "Matrix":
        return Matrix([-a for a in row] for row in self.entries)

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix([c * a for a in row] for row in self.entries)

    def _check_same(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(
                f"matrix shapes differ: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __repr__(self):
        return "Matrix(%s)" % "; ".join(
            " ".join(str(e) for e in row) for row in self.entries
        )


def invert(m: Matrix) -> Matrix:
    """Exact inverse by Gaussian elimination; raises SingularMatrix below full rank."""
    n = m.rows
    if n != m.cols:
        raise DimensionMismatch(f"cannot invert a {m.rows}x{m.cols} matrix")
    a = [list(row) for row in m.entries]
    inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrix(f"matrix is singular (rank < {n})")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        if p != 1:
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return Matrix(inv)


class Tensor(Value):
    """Structure constants of a multilinear operation, stored sparse.

    An order-k tensor sends basis vectors (e_i1, ..., e_i(k-1)) to
    sum_j c[i1, ..., i(k-1), j] e_j: order 3 for a product or binary
    bracket, 4 for a ternary bracket.  Its shape is the size of each index
    position, the value's last, so a map between spaces of different sizes
    is held on its own spaces.  Only the nonzero constants are kept, sorted
    by indices, so equality is structural and a tensor is hashable;
    `t[i, j, k]` reads one constant, zero when absent.
    """

    shape: tuple[int, ...]
    constants: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __init__(self, shape, *args):
        """`Tensor(shape, nonzeros)`, or `Tensor(dim, order, nonzeros)` for the
        square shape.  `nonzeros` maps index tuples to scalars, or lists
        (indices, value) pairs whose values at repeated indices add up; zeros
        are dropped.  Each index must lie below its position's size."""
        if isinstance(shape, int):
            shape, args = (shape,) * args[0], args[1:]
        (nonzeros,) = args
        shape, values = tuple(shape), {}
        for idx, v in nonzeros.items() if isinstance(nonzeros, Mapping) else nonzeros:
            idx = tuple(idx)
            if len(idx) != len(shape) or not all(
                    isinstance(i, int) and 0 <= i < n for i, n in zip(idx, shape)):
                raise DimensionMismatch(f"indices {list(idx)} do not fit the shape {shape}")
            values[idx] = values.get(idx, ZERO) + as_scalar(v)
        values = {idx: v for idx, v in sorted(values.items()) if v}
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "constants", tuple(values.items()))
        object.__setattr__(self, "_values", values)  # read by [], not a field

    order = property(lambda self: len(self.shape))
    dim = property(lambda self: self.shape[-1])  # the value's size, every slot's if square

    def nonzeros(self):
        return self.constants

    def is_zero(self) -> bool:
        return not self.constants

    def __getitem__(self, idx) -> Fraction:
        return self._values.get(tuple(idx), ZERO)

    def den_lcm(self) -> int:
        """The lcm of the constants' denominators: the least integer that
        makes every constant integral."""
        return lcm(*(v.denominator for _, v in self.constants))

    def apply(self, *vecs: Vec) -> Vec:
        """The operation at vectors, one per position but the value's: the
        sum of c[i1, ..., ik, j] times the vectors' coordinates at i1, ...,
        ik, at e_j, in integers over the constants' and each vector's common
        denominator, the constants grouped by leading indices on first use."""
        if [v.dim for v in vecs] != list(self.shape[:-1]):
            raise DimensionMismatch(f"shape {self.shape}, vector dims {[v.dim for v in vecs]}")
        if "_rows" not in self.__dict__:
            den = self.den_lcm()
            object.__setattr__(self, "_rows", (den, {
                head: [(idx[-1], v.numerator * (den // v.denominator)) for idx, v in run]
                for head, run in itertools.groupby(self.constants, lambda e: e[0][:-1])}))
        den, rows = self._rows
        ints, dens = zip(*[v._integers() for v in vecs]) if vecs else ((), ())
        out = [0] * self.shape[-1]
        for head in itertools.product(*ints):  # each choice of nonzero coordinates
            row = rows.get(head)
            if row:
                c = prod(map(dict.get, ints, head))
                for l, w in row:
                    out[l] += c * w
        den *= prod(dens)
        result = object.__new__(Vec)  # no coercion: the entries are Fractions already
        object.__setattr__(result, "entries", tuple(Fraction(x, den) if x else ZERO for x in out))
        object.__setattr__(result, "_ints", ({l: x for l, x in enumerate(out) if x}, den))
        return result


def nested_rows(sizes: Sequence[int], entries: Iterable[tuple]) -> list:
    """The nested sparse rows of `entries` (i1, ..., ik, j, value) in rank
    order, i1 ranging over sizes[0] and so on: rows[i1]...[ik] is the tuple
    of the (j, value) pairs there.  Laid out in one pass: every last level
    is a list [()] * sizes[-1] and only the rows with entries are set."""

    def empty(d):
        if d == len(sizes) - 1:
            return [()] * sizes[d]
        return [empty(d + 1) for _ in range(sizes[d])]

    rows = empty(0)
    for idx, run in itertools.groupby(entries, lambda e: e[:-2]):
        level = rows
        for i in idx[:-1]:
            level = level[i]
        level[idx[-1]] = tuple(e[-2:] for e in run)
    return rows


class _FixedOrder:
    """Square `Tensor`s of one order, unexported, for their last users,
    `perfbench/gen.py` and `perfbench/test_perfbench.py`: these go in the first
    change after the benchmark moves those to `Tensor` (ROADMAP item 1, stage 2)."""

    def __init__(self, order: int):
        self.order = order

    def zero(self, n: int) -> Tensor:
        return Tensor(n, self.order, {})

    def from_nonzeros(self, n: int, nonzeros) -> Tensor:
        return Tensor(n, self.order, nonzeros)


Tensor3 = _FixedOrder(3)
Tensor4 = _FixedOrder(4)


class InterMap(Value):
    """A linear map between two spaces, held as an exact matrix (columns = images)."""

    matrix: Matrix

    @property
    def src_dim(self) -> int:
        return self.matrix.cols

    @property
    def dst_dim(self) -> int:
        return self.matrix.rows

    @property
    def tensor(self) -> Tensor:
        """The map as an order-2 tensor of shape (src_dim, dst_dim): its
        constant at (j, i) is row i, column j of the matrix."""
        return Tensor((self.src_dim, self.dst_dim),
                      (((j, i), v) for (i, j), v in self.matrix.nonzeros()))

    def apply(self, v: Vec) -> Vec:
        return self.matrix.apply(v)

    @staticmethod
    def zero(dst_dim: int, src_dim: int) -> "InterMap":
        return InterMap(Matrix.zero(dst_dim, src_dim))

    @staticmethod
    def identity(n: int) -> "InterMap":
        return InterMap(Matrix.identity(n))
