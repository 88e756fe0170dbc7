"""Exact rational vectors, matrices and dense structure-constant tensors.

Scalars are `fractions.Fraction`: arbitrary precision, always in lowest
terms with positive denominator, so equality is structural and arithmetic
never rounds.  All container types are immutable after construction and
every operation is a pure function, so values are safe to share between
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionMismatch, SingularMatrix

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


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


@dataclass(frozen=True)
class Vec:
    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(as_scalar(e) for e in entries))

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


@dataclass(frozen=True)
class Matrix:
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


@dataclass(frozen=True)
class Tensor3:
    """Structure constants of a binary product: e_i * e_j = sum_k c[i][j][k] e_k."""

    dim: int
    entries: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def __init__(self, entries: Iterable[Iterable[Iterable]]):
        grid = tuple(tuple(tuple(as_scalar(e) for e in row) for row in plane) for plane in entries)
        n = len(grid)
        if any(len(p) != n for p in grid) or any(len(r) != n for p in grid for r in p):
            raise DimensionMismatch("Tensor3 must be n x n x n")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", grid)

    @staticmethod
    def zero(n: int) -> "Tensor3":
        return Tensor3([[[ZERO] * n for _ in range(n)] for _ in range(n)])

    @staticmethod
    def build(n: int, fn: Callable[[int, int, int], object]) -> "Tensor3":
        return Tensor3(
            [[[as_scalar(fn(i, j, k)) for k in range(n)] for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_nonzeros(n: int, nonzeros: Mapping[tuple[int, int, int], object]) -> "Tensor3":
        grid = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in nonzeros.items():
            grid[i][j][k] = as_scalar(v)
        return Tensor3(grid)

    def is_zero(self) -> bool:
        return all(e == 0 for p in self.entries for r in p for e in r)

    def nonzeros(self):
        for i, plane in enumerate(self.entries):
            for j, row in enumerate(plane):
                for k, v in enumerate(row):
                    if v:
                        yield (i, j, k), v


@dataclass(frozen=True)
class Tensor4:
    """Structure constants of a ternary bracket: [e_i,e_j,e_k] = sum_l f[i][j][k][l] e_l."""

    dim: int
    entries: tuple

    def __init__(self, entries):
        grid = tuple(
            tuple(tuple(tuple(as_scalar(e) for e in row) for row in plane) for plane in cube)
            for cube in entries
        )
        n = len(grid)
        ok = all(
            len(cube) == n and all(len(p) == n and all(len(r) == n for r in p) for p in cube)
            for cube in grid
        )
        if not ok:
            raise DimensionMismatch("Tensor4 must be n x n x n x n")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", grid)

    @staticmethod
    def zero(n: int) -> "Tensor4":
        return Tensor4([[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)])

    @staticmethod
    def build(n: int, fn: Callable[[int, int, int, int], object]) -> "Tensor4":
        return Tensor4(
            [
                [[[as_scalar(fn(i, j, k, l)) for l in range(n)] for k in range(n)] for j in range(n)]
                for i in range(n)
            ]
        )

    @staticmethod
    def from_nonzeros(n: int, nonzeros: Mapping[tuple[int, int, int, int], object]) -> "Tensor4":
        grid = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j, k, l), v in nonzeros.items():
            grid[i][j][k][l] = as_scalar(v)
        return Tensor4(grid)

    def is_zero(self) -> bool:
        return all(e == 0 for c in self.entries for p in c for r in p for e in r)

    def nonzeros(self):
        for i, cube in enumerate(self.entries):
            for j, plane in enumerate(cube):
                for k, row in enumerate(plane):
                    for l, v in enumerate(row):
                        if v:
                            yield (i, j, k, l), v


def apply_bilinear(t: Tensor3, x: Vec, y: Vec) -> Vec:
    """Expand x*y through the structure constants; bilinear in both arguments."""
    n = t.dim
    if x.dim != n or y.dim != n:
        raise DimensionMismatch(f"tensor has dim {n}, vectors have dims {x.dim}, {y.dim}")
    out = [ZERO] * n
    for i, xi in enumerate(x.entries):
        if xi:
            plane = t.entries[i]
            for j, yj in enumerate(y.entries):
                if yj:
                    c = xi * yj
                    for k, v in enumerate(plane[j]):
                        if v:
                            out[k] += c * v
    return Vec(out)


def apply_trilinear(t: Tensor4, x: Vec, y: Vec, z: Vec) -> Vec:
    """Expand [x,y,z] through the structure constants; trilinear."""
    n = t.dim
    if x.dim != n or y.dim != n or z.dim != n:
        raise DimensionMismatch(
            f"tensor has dim {n}, vectors have dims {x.dim}, {y.dim}, {z.dim}"
        )
    out = [ZERO] * n
    for i, xi in enumerate(x.entries):
        if xi:
            cube = t.entries[i]
            for j, yj in enumerate(y.entries):
                if yj:
                    plane = cube[j]
                    cij = xi * yj
                    for k, zk in enumerate(z.entries):
                        if zk:
                            c = cij * zk
                            for l, v in enumerate(plane[k]):
                                if v:
                                    out[l] += c * v
    return Vec(out)


@dataclass(frozen=True)
class InterMap:
    """A linear map between two spaces, held as an exact matrix (columns = images)."""

    matrix: Matrix

    @property
    def src_dim(self) -> int:
        return self.matrix.cols

    @property
    def dst_dim(self) -> int:
        return self.matrix.rows

    def apply(self, v: Vec) -> Vec:
        return self.matrix.apply(v)

    @staticmethod
    def zero(dst_dim: int, src_dim: int) -> "InterMap":
        return InterMap(Matrix.zero(dst_dim, src_dim))

    @staticmethod
    def identity(n: int) -> "InterMap":
        return InterMap(Matrix.identity(n))
