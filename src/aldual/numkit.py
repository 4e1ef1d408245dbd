"""Exact rational scalars, vectors, matrices and elimination kernels.

All numeric state in the package is built from :class:`fractions.Fraction`,
which already stores values in lowest terms with a positive denominator.
Vectors and matrices are immutable; every operation is a pure function, so
values are safe to share across threads.

Exact elimination has one kernel here: :func:`pivot`, a fraction-free
Gauss-Jordan step on a tableau of Python ints (Edmonds; Bareiss; Gaertner
1999, "Exact arithmetic at low cost") whose every division is checked
exact.  Rows of Fractions reach it through :func:`int_rows`, and
:func:`echelon` pivots columns in order.  The PSD test and
``convexsolve``'s simplex and working-set seed pivot through it, and every
linear solve goes through :func:`factor`, which reduces ``[M | I]`` once
and then reads the solution for any right-hand side, and the kernel, off
that one reduction (the reduced row echelon form is unique, so the numbers
are those of any exact elimination).  Its one read takes a right-hand
side of ints and gives ints over the reduction's determinant; the read of
a vector of Fractions wraps it.  ``solve_linear`` and ``nullspace_basis``
are one line over it.  Every conversion of a vector or matrix between
Fractions and ints is here too: :func:`int_vector` and :func:`int_matrix`
write one over its common denominator, :func:`int_rows` each row over its
own, and :func:`rat_vector` builds the Fractions back, so the solvers can
carry ints and build Fractions only for what they return.

Integer points have one kernel too: :func:`affine_at_ints` evaluates
``base - M x`` at an integer x with each row of ``[M | base]`` scaled once
by its own common denominator, so a point costs one int sum and one
Fraction per entry; :func:`quadratic_at_ints` does the same for
``c.x + 1/2 x^T Q x`` over one denominator.  ``ald``'s slice table is built
with them.  Vector and matrix operations build their results with the
private ``_trusted`` constructors, which skip the public constructors'
coercion: only this module's operations, whose entries are Fractions
already, may call them.

Serialization convention: a rational renders as ``"p/q"`` (or ``"p"`` when
the denominator is 1), base 10, with an optional leading minus on the
numerator only.  :func:`to_wire` is the one renderer: every value in a JSON
document or CSV cell the package writes goes through it, so vectors become
lists, matrices lists of rows and report dataclasses objects keyed by their
field names, while integers (counts, bounds, assignments) stay JSON integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .errors import (
    DimMismatchError,
    InternalInvariantError,
    NotSquareError,
    NotSymmetricError,
    RationalParseError,
)

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RAT_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def rat(value) -> Fraction:
    """Coerce ints, Fractions and ``p/q`` strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise RationalParseError(f"cannot interpret {value!r} as a rational")


def parse_rat(text: str) -> Fraction:
    """Parse the strict ``p/q`` wire format (minus sign on p only, q > 0)."""
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise RationalParseError(f"malformed rational {text!r}")
    p, _, q = text.partition("/")
    try:
        num, den = int(p), int(q or 1)
    except ValueError as exc:  # more digits than int() converts
        raise RationalParseError(str(exc)) from exc
    if den == 0:
        raise RationalParseError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rat(value: Fraction) -> str:
    """Render a rational in the ``p/q`` wire format."""
    return str(Fraction(value))


def to_wire(value):
    """Render a value as a JSON-ready document in the wire format.

    A Fraction becomes its ``p/q`` string, a RatMat a list of rows, a RatVec,
    tuple or list a list, and a dataclass an object of its fields in
    declaration order (attributes outside the fields are not rendered);
    ints, bools, strings and None pass through unchanged.
    """
    if isinstance(value, Fraction):
        return format_rat(value)
    if isinstance(value, RatMat):
        return [to_wire(row) for row in value.row_list()]
    if isinstance(value, (RatVec, tuple, list)):
        return [to_wire(v) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_wire(getattr(value, f.name)) for f in fields(value)}
    if value is None or isinstance(value, (int, str)):
        return value
    raise TypeError(f"no wire format for {type(value).__name__}")


def common_denominator(values: Iterable[Fraction]) -> int:
    """The least common multiple of the values' denominators."""
    den = 1
    for a in values:
        den = lcm(den, a.denominator)
    return den


def ceil_rat(value: Fraction) -> int:
    """Smallest integer >= value."""
    value = Fraction(value)
    return -((-value.numerator) // value.denominator)


def floor_rat(value: Fraction) -> int:
    """Largest integer <= value."""
    value = Fraction(value)
    return value.numerator // value.denominator


def ceil_sqrt(value) -> int:
    """Smallest nonnegative integer k with k*k >= value (value >= 0)."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("ceil_sqrt of a negative value")
    k = isqrt(floor_rat(value))
    while k * k < value:
        k += 1
    return k


_SQRT_GRID_BITS = 20


def sqrt_upper(value) -> Fraction:
    """Smallest multiple of 2**-_SQRT_GRID_BITS whose square is >= value.

    A monotone rational upper bound on sqrt(value); exact at dyadic squares.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("sqrt_upper of a negative value")
    scale = 1 << _SQRT_GRID_BITS
    t = ceil_sqrt(value * scale * scale)
    return Fraction(t, scale)


class RatVec(Sequence):
    """Immutable vector of exact rationals.

    The constructor coerces every entry through :func:`rat`.  The module's
    own operations build their results with :meth:`_trusted`, which skips
    that pass: their entries are already Fractions.
    """

    __slots__ = ("_e",)

    def __init__(self, entries: Iterable):
        self._e = tuple(rat(e) for e in entries)

    @classmethod
    def _trusted(cls, entries: tuple) -> "RatVec":
        """Wrap a tuple whose entries are all Fractions, without coercion."""
        v = object.__new__(cls)
        v._e = entries
        return v

    @staticmethod
    def zeros(dim: int) -> "RatVec":
        return RatVec._trusted((_ZERO,) * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "RatVec":
        return RatVec._trusted(tuple(_ONE if j == i else _ZERO
                                     for j in range(dim)))

    def __len__(self) -> int:
        return len(self._e)

    def __iter__(self):
        return iter(self._e)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RatVec._trusted(self._e[i])
        return self._e[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RatVec) and self._e == other._e

    def __hash__(self) -> int:
        return hash(self._e)

    def __add__(self, other: "RatVec") -> "RatVec":
        self._check_dim(other)
        return RatVec._trusted(tuple(a + b for a, b in zip(self._e, other._e)))

    def __sub__(self, other: "RatVec") -> "RatVec":
        self._check_dim(other)
        return RatVec._trusted(tuple(a - b for a, b in zip(self._e, other._e)))

    def __neg__(self) -> "RatVec":
        return RatVec._trusted(tuple(-a for a in self._e))

    def scale(self, k) -> "RatVec":
        k = rat(k)
        return RatVec._trusted(tuple(k * a for a in self._e))

    def dot(self, other: "RatVec") -> Fraction:
        """Sum of the products, over the terms with both factors nonzero."""
        self._check_dim(other)
        return sum((a * b for a, b in zip(self._e, other._e) if a and b), _ZERO)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._e)

    def _check_dim(self, other: "RatVec") -> None:
        if len(self._e) != len(other._e):
            raise DimMismatchError(
                f"vector dims differ: {len(self._e)} vs {len(other._e)}"
            )

    def __repr__(self) -> str:
        return "RatVec([%s])" % ", ".join(format_rat(a) for a in self._e)


class RatMat:
    """Immutable row-major matrix of exact rationals.

    The constructor coerces every entry through :func:`rat` and checks the
    shape.  The module's own block operations build their results with
    :meth:`_trusted`, which skips both: their rows are tuples of Fractions
    of one width already.  The hash is computed once, on first use, and
    kept: a matrix never changes.
    """

    __slots__ = ("_rows", "rows", "cols", "_hash")

    def __init__(self, rows: Iterable[Iterable], cols: int | None = None):
        data = tuple(tuple(rat(e) for e in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimMismatchError("ragged rows in matrix")
        else:
            if cols is None:
                cols = 0
            width = cols
        if cols is not None and cols != width:
            raise DimMismatchError(f"expected {cols} columns, got {width}")
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    @classmethod
    def _trusted(cls, rows: tuple, cols: int) -> "RatMat":
        """Wrap a tuple of ``cols``-long tuples of Fractions, unchecked."""
        M = object.__new__(cls)
        object.__setattr__(M, "_rows", rows)
        object.__setattr__(M, "rows", len(rows))
        object.__setattr__(M, "cols", cols)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("RatMat is immutable")

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMat":
        return RatMat._trusted(((_ZERO,) * cols,) * rows, cols)

    @staticmethod
    def identity(n: int) -> "RatMat":
        return RatMat._trusted(tuple(
            tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n)

    @staticmethod
    def vstack(parts: Sequence["RatMat"], cols: int | None = None) -> "RatMat":
        widths = {p.cols for p in parts if p.rows > 0}
        if len(widths) > 1:
            raise DimMismatchError("vstack with differing column counts")
        if cols is None:
            cols = widths.pop() if widths else 0
        elif widths and cols not in widths:
            raise DimMismatchError(f"expected {cols} columns, got {widths.pop()}")
        rows: tuple = ()
        for p in parts:
            rows += p._rows
        return RatMat._trusted(rows, cols)

    @staticmethod
    def hstack(parts: Sequence["RatMat"]) -> "RatMat":
        heights = {p.rows for p in parts}
        if len(heights) > 1:
            raise DimMismatchError("hstack with differing row counts")
        n = heights.pop() if heights else 0
        rows = []
        for i in range(n):
            row: tuple = ()
            for p in parts:
                row += p._rows[i]
            rows.append(row)
        return RatMat._trusted(tuple(rows), sum(p.cols for p in parts))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> RatVec:
        return RatVec._trusted(self._rows[i])

    def row_list(self) -> list[list[Fraction]]:
        """Mutable copy of the entries for elimination routines."""
        return [list(r) for r in self._rows]

    def transpose(self) -> "RatMat":
        return RatMat._trusted(tuple(zip(*self._rows)) if self.rows
                               else ((),) * self.cols, self.rows)

    def matvec(self, v: RatVec) -> RatVec:
        """M v, summing each row over the terms with both factors nonzero."""
        if self.cols != len(v):
            raise DimMismatchError(f"matvec: {self.rows}x{self.cols} with dim {len(v)}")
        e = tuple(v)
        return RatVec._trusted(tuple(
            sum((a * b for a, b in zip(row, e) if a and b), _ZERO)
            for row in self._rows))

    def tmatvec(self, v: RatVec) -> RatVec:
        """Transpose-apply: returns M^T v."""
        if self.rows != len(v):
            raise DimMismatchError(
                f"tmatvec: {self.rows}x{self.cols} with dim {len(v)}"
            )
        out = [_ZERO] * self.cols
        for row, vi in zip(self._rows, v):
            if vi == 0:
                continue
            for j, a in enumerate(row):
                if a != 0:
                    out[j] = out[j] + vi * a
        return RatVec._trusted(tuple(out))

    def matmul(self, other: "RatMat") -> "RatMat":
        if self.cols != other.rows:
            raise DimMismatchError("matmul dims")
        ot = other.transpose()
        return RatMat._trusted(tuple(
            tuple(sum((a * b for a, b in zip(row, orow)), _ZERO) for orow in ot._rows)
            for row in self._rows), other.cols)

    def __add__(self, other: "RatMat") -> "RatMat":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimMismatchError("matrix add dims")
        return RatMat._trusted(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)), self.cols)

    def scale(self, k) -> "RatMat":
        k = rat(k)
        return RatMat._trusted(tuple(tuple(k * a for a in row) for row in self._rows),
                               self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMat":
        rows = self._rows
        return RatMat._trusted(tuple(tuple(rows[i][j] for j in col_idx)
                                     for i in row_idx), len(col_idx))

    def col_block(self, j0: int, j1: int) -> "RatMat":
        if not 0 <= j0 <= j1 <= self.cols:
            raise DimMismatchError(f"col_block {j0}:{j1} of {self.cols} columns")
        return RatMat._trusted(tuple(r[j0:j1] for r in self._rows), j1 - j0)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for row in self._rows for a in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMat)
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self._rows, self.cols))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rat(a) for a in row) for row in self._rows
        )
        return f"RatMat({self.rows}x{self.cols}: {body})"


def quad_form(M: RatMat, x: RatVec) -> Fraction:
    """x^T M x."""
    return x.dot(M.matvec(x))


def kkt_matrix(Q: RatMat, C: RatMat) -> RatMat:
    """The saddle-point matrix [[Q, C^T], [C, 0]] of Q (n x n) and C."""
    if not Q.is_square() or C.cols != Q.cols:
        raise DimMismatchError(f"kkt_matrix: Q {Q.rows}x{Q.cols}, C {C.rows}x{C.cols}")
    width = Q.cols + C.rows
    tail = (_ZERO,) * C.rows
    return RatMat._trusted(
        tuple(q + c for q, c in zip(Q._rows, C.transpose()._rows))
        + tuple(c + tail for c in C._rows), width)


def affine_at_ints(base: RatVec, M: RatMat):
    """The map x -> base - M x at integer points x, on Python ints.

    Each row of [M | base] is scaled once by its own common denominator
    (as :func:`int_rows` scales), keeping its nonzero entries.  At a point
    each row is one int sum, and each entry of the result one Fraction of
    it over the row's denominator: the exact value, in lowest terms.
    """
    if M.rows != len(base):
        raise DimMismatchError(f"affine_at_ints: {M.rows} rows vs base dim {len(base)}")
    terms = []
    for row, b in zip(M._rows, base._e):
        den = lcm(common_denominator(row), b.denominator)
        terms.append((b.numerator * (den // b.denominator),
                      tuple((j, a.numerator * (den // a.denominator))
                            for j, a in enumerate(row) if a), den))
    ncols = M.cols

    def at(x: Sequence[int]) -> RatVec:
        if len(x) != ncols:
            raise DimMismatchError(f"affine_at_ints: {ncols} columns vs point dim {len(x)}")
        out = []
        for num, coeffs, den in terms:
            for j, a in coeffs:
                num -= a * x[j]
            out.append(Fraction(num, den))
        return RatVec._trusted(tuple(out))

    return at


def quadratic_at_ints(Q: RatMat, c: RatVec):
    """The map x -> c.x + 1/2 x^T Q x at integer points x, on Python ints:
    Q and c are scaled once by one common denominator L, and each value is
    one Fraction of an int over 2 L."""
    if not Q.is_square() or Q.cols != len(c):
        raise DimMismatchError(f"quadratic_at_ints: Q {Q.rows}x{Q.cols}, c dim {len(c)}")
    L = lcm(common_denominator(c._e), *(common_denominator(row) for row in Q._rows))
    lin = tuple((j, 2 * a.numerator * (L // a.denominator))
                for j, a in enumerate(c._e) if a)
    quad = tuple((i, j, a.numerator * (L // a.denominator))
                 for i, row in enumerate(Q._rows) for j, a in enumerate(row) if a)
    den = 2 * L

    def at(x: Sequence[int]) -> Fraction:
        if len(x) != len(c):
            raise DimMismatchError(f"quadratic_at_ints: dim {len(c)} vs point dim {len(x)}")
        num = 0
        for j, a in lin:
            num += a * x[j]
        for i, j, a in quad:
            num += a * x[i] * x[j]
        return Fraction(num, den)

    return at


def int_rows(rows: Iterable[Sequence[Fraction]]) -> list[list[int]]:
    """Each row of Fractions times its own common denominator, as ints."""
    out = []
    for row in rows:
        den = common_denominator(row)
        out.append([a.numerator * (den // a.denominator) for a in row])
    return out


def int_matrix(M: RatMat) -> tuple[list[list[int]], int]:
    """M over its common denominator L: the rows of int numerators and L."""
    L = lcm(*(common_denominator(row) for row in M._rows))
    return [[a.numerator * (L // a.denominator) for a in row] for row in M._rows], L


def int_vector(v: RatVec) -> tuple[list[int], int]:
    """v over its common denominator L: the int numerators and L."""
    L = common_denominator(v._e)
    return [a.numerator * (L // a.denominator) for a in v._e], L


def rat_vector(nums: Sequence[int], den: int) -> RatVec:
    """The vector of Fractions ``nums / den``, each in lowest terms
    (``den`` > 0)."""
    return RatVec._trusted(tuple(Fraction(a, den) if a else _ZERO for a in nums))


def pivot(T: list[list[int]], r: int, c: int, det: int) -> int:
    """One fraction-free Gauss-Jordan step on (r, c); returns the new det.

    The integer tableau ``T`` stands for ``T / det``.  Row r is kept and
    every other row becomes ``(p * row - row[c] * T[r]) / det`` with
    p = T[r][c], each division checked exact (every entry is a minor of
    the tableau ``T`` started from; Edmonds; Bareiss), so a remainder
    raises InternalInvariantError.  A negative p negates the tableau, so
    the returned det, |p|, stays positive.
    """
    prow = T[r]
    p = prow[c]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            row = [p * a - f * b for a, b in zip(row, prow)]
        elif p != det:
            row = [p * a for a in row]
        else:
            continue
        if det != 1:
            for j, a in enumerate(row):
                if a:
                    q, rem = divmod(a, det)
                    if rem:
                        raise InternalInvariantError("inexact integer pivot division")
                    row[j] = q
        T[i] = row
    if p < 0:
        for i, row in enumerate(T):
            T[i] = [-a for a in row]
        p = -p
    return p


def echelon(T: list[list[int]], ncols: int) -> tuple[int, list[int]]:
    """Reduce the integer tableau ``T`` in place; returns (det, pivot columns).

    Columns ``0 .. ncols-1`` are taken in order, each pivoted with
    :func:`pivot` on the first nonzero row at or below the rows already
    pivoted (swapped up), so the pivot columns are the first independent
    ones.  Afterwards row i has ``det`` in the i-th pivot column and 0 in
    the other pivot columns: ``T / det`` is in reduced row echelon form.
    """
    det = 1
    cols: list[int] = []
    for c in range(ncols):
        r = len(cols)
        if r == len(T):
            break
        pr = next((i for i in range(r, len(T)) if T[i][c]), None)
        if pr is None:
            continue
        T[r], T[pr] = T[pr], T[r]
        det = pivot(T, r, c, det)
        cols.append(c)
    return det, cols


@dataclass(frozen=True)
class PsdReport:
    """Outcome of the exact semidefiniteness test.

    Unless ``is_psd``, ``witness`` satisfies w^T M w < 0 exactly.
    """

    is_psd: bool
    witness: RatVec | None


def ldl_psd_check(M: RatMat) -> PsdReport:
    """Decide M >= 0 exactly by symmetric pivoted elimination.

    Pivots are taken with :func:`pivot` on positive diagonal entries of
    ``int_rows(M)``: positive row scalings keep the sign of every entry of
    each Schur complement.  A negative diagonal, or a zero diagonal with a
    nonzero residual row, yields a negative-curvature direction in the
    unpivoted indices; the witness lifts it by solving the pivoted rows,
    read off the reduced tableau, and is checked in Fractions.
    """
    if not M.is_square():
        raise NotSquareError(f"matrix is {M.rows}x{M.cols}")
    if not M.is_symmetric():
        raise NotSymmetricError("matrix is not symmetric")
    n = M.rows
    T = int_rows(M.row_list())
    det = 1
    pivoted: list[int] = []
    active = list(range(n))

    def lift(free: dict[int, Fraction]) -> PsdReport:
        full = [_ZERO] * n
        for j, vj in free.items():
            full[j] = vj
        # each pivoted row of T / det reads w_p + sum_j T[p][j] w_j / det = 0
        for p in pivoted:
            full[p] = -sum(T[p][j] * vj for j, vj in free.items()) / det
        w = RatVec._trusted(tuple(full))
        if quad_form(M, w) >= 0:
            raise InternalInvariantError("lifted witness lost negative curvature")
        return PsdReport(False, w)

    while active:
        neg = next((i for i in active if T[i][i] < 0), None)
        if neg is not None:
            return lift({neg: _ONE})
        pos = next((i for i in active if T[i][i] > 0), None)
        if pos is None:
            # all remaining diagonals are zero: rows must vanish entirely
            for ai, i in enumerate(active):
                for j in active[ai + 1 :]:
                    if T[i][j] != 0:
                        return lift({i: _ONE, j: -_ONE if T[i][j] > 0 else _ONE})
            break
        det = pivot(T, pos, pos, det)
        pivoted.append(pos)
        active.remove(pos)
    return PsdReport(True, None)


UNIQUE = "unique"
UNDERDETERMINED = "underdetermined"
INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class LinearSolveReport:
    """Exact solution description for M x = v.

    ``x`` is a particular solution (free variables at zero) when the system
    is consistent; ``nullspace`` is a basis of ker(M), one vector per free
    column, so the full solution set is x + span(nullspace).
    """

    status: str
    x: RatVec | None
    rank: int
    nullspace: tuple[RatVec, ...]


class Factor:
    """One reduction of a matrix M, read for any right-hand side.

    The tableau ``[int_rows(M) | I]`` is reduced once by :func:`echelon` on
    the columns of M.  Each row i of ``int_rows(M)`` is row i of M times
    its common denominator ``d_i``, so afterwards the tableau is
    ``[S D M | S]`` for D = diag(d) and the row operations S, and
    ``S D M / det`` is the reduced row echelon form of M, which is unique:
    every number read off it is the one any exact elimination of M gives.
    There is one read, :meth:`solve_ints`, on a right-hand side of ints:
    ``S D v`` is one int matvec, and the solution is that vector's pivot
    entries over ``det``.  :meth:`solve` is that read on ``L v``, L the
    common denominator of a vector of Fractions.  ``kernel`` holds one
    basis vector of ker(M) per free column, read once here.
    """

    __slots__ = ("rows", "cols", "rank", "det", "kernel", "_den", "_pivots",
                 "_transform")

    def __init__(self, M: RatMat):
        nr, nc = M.rows, M.cols
        T = int_rows(M._rows)
        self._den = tuple(common_denominator(row) for row in M._rows)
        for i, row in enumerate(T):
            row.extend(1 if j == i else 0 for j in range(nr))
        det, pivot_cols = echelon(T, nc)
        self.rows, self.cols, self.rank = nr, nc, len(pivot_cols)
        self.det, self._pivots = det, tuple(pivot_cols)
        self._transform = [row[nc:] for row in T]
        pivoted = set(pivot_cols)
        basis = []
        for fc in range(nc):
            if fc in pivoted:
                continue
            z = [_ZERO] * nc
            for row, c in zip(T, pivot_cols):
                if row[fc]:
                    z[c] = Fraction(-row[fc], det)
            z[fc] = _ONE
            basis.append(RatVec._trusted(tuple(z)))
        self.kernel = tuple(basis)

    def solve_ints(self, v: Sequence[int]) -> list[int] | None:
        """M x = v for a vector of ints: the numerators over ``det`` of the
        solution with the free variables at zero, or None when the system
        is inconsistent."""
        if self.rows != len(v):
            raise DimMismatchError(f"linear solve: {self.rows} rows vs rhs dim {len(v)}")
        rhs = [(j, d * a) for j, (d, a) in enumerate(zip(self._den, v)) if a]
        out = [sum(row[j] * a for j, a in rhs) for row in self._transform]
        rank = self.rank
        if any(out[rank:]):
            return None
        x = [0] * self.cols
        for c, a in zip(self._pivots, out):
            x[c] = a
        return x

    def solve(self, v: RatVec) -> LinearSolveReport:
        """M x = v: the solution with the free variables at zero and the
        kernel, or INCONSISTENT; :meth:`solve_ints` on ``L v``, each entry
        of x one Fraction over ``det * L``."""
        nums, L = int_vector(v)
        x = self.solve_ints(nums)
        if x is None:
            return LinearSolveReport(INCONSISTENT, None, self.rank, ())
        status = UNIQUE if self.rank == self.cols else UNDERDETERMINED
        return LinearSolveReport(status, rat_vector(x, self.det * L), self.rank,
                                 self.kernel)


def factor(M: RatMat) -> Factor:
    """The one exact elimination of M (see :class:`Factor`)."""
    return Factor(M)


def solve_linear(M: RatMat, v: RatVec) -> LinearSolveReport:
    """Solve M x = v exactly: ``factor(M).solve(v)``."""
    return factor(M).solve(v)


def nullspace_basis(M: RatMat) -> tuple[RatVec, ...]:
    """Basis of ker(M), one vector per free column of the elimination."""
    return factor(M).kernel
