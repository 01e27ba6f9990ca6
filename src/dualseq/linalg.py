"""Exact dense linear algebra over prime fields and the rationals.

Matrices are immutable, row-major, and tiny (the library works at desk
scale), so everything here is Gauss-Jordan elimination with exact scalars:
Python ints reduced mod p, or ``fractions.Fraction``.  No floats anywhere.
Storage is dense, but the elimination follows the arithmetic actually
needed: a pivot row with few nonzero entries updates the other rows at
those entries only (the constraint systems of the hom windows are about
5% nonzero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ValidationFailed


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """A coefficient field: ``F_p`` for prime ``p`` or the rationals (``p=None``)."""

    p: Optional[int]

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p < 2**31):
                raise ValidationFailed(f"field characteristic out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValidationFailed(f"field characteristic must be prime: {self.p}")

    @staticmethod
    def prime(p: int) -> "Field":
        return Field(p)

    @staticmethod
    def rationals() -> "Field":
        return Field(None)

    @property
    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x):
        """Normalize an int/Fraction/string scalar into this field."""
        if self.p is not None:
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ValidationFailed(f"denominator not invertible mod {self.p}")
                return x.numerator * pow(x.denominator, -1, self.p) % self.p
            return int(x) % self.p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def neg(self, x):
        return (-x) % self.p if self.p is not None else -x

    def inv(self, x):
        if self.p is not None:
            return pow(x, -1, self.p)
        return Fraction(1) / x

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


@dataclass(frozen=True)
class Matrix:
    """Immutable ``rows x cols`` matrix with row-major flat storage."""

    field: Field
    rows: int
    cols: int
    data: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValidationFailed("negative matrix dimension")
        if len(self.data) != self.rows * self.cols:
            raise ValidationFailed("matrix data length mismatch")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValidationFailed("ragged matrix rows")
            flat.extend(field.coerce(x) for x in row)
        return Matrix(field, r, c, tuple(flat))

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (field.zero,) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return Matrix(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def scalar_matrix(field: Field, n: int, value) -> "Matrix":
        v = field.coerce(value)
        z = field.zero
        return Matrix(field, n, n, tuple(v if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def column(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, len(entries), 1, tuple(field.coerce(x) for x in entries))

    # -- accessors ----------------------------------------------------

    def entry(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.data[i * self.cols:(i + 1) * self.cols])

    def col(self, j: int) -> list:
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def to_lists(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def column_matrix(self, j: int) -> "Matrix":
        return Matrix(self.field, self.rows, 1, tuple(self.col(j)))

    @property
    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for x in self.data)

    # -- arithmetic ---------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValidationFailed("matrix shape/field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        if p is not None:
            data = tuple((a + b) % p for a, b in zip(self.data, other.data))
        else:
            data = tuple(a + b for a, b in zip(self.data, other.data))
        return Matrix(self.field, self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        if p is not None:
            data = tuple((a - b) % p for a, b in zip(self.data, other.data))
        else:
            data = tuple(a - b for a, b in zip(self.data, other.data))
        return Matrix(self.field, self.rows, self.cols, data)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        if p is not None:
            data = tuple((-a) % p for a in self.data)
        else:
            data = tuple(-a for a in self.data)
        return Matrix(self.field, self.rows, self.cols, data)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        p = self.field.p
        if p is not None:
            data = tuple((c * a) % p for a in self.data)
        else:
            data = tuple(c * a for a in self.data)
        return Matrix(self.field, self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.rows:
            raise ValidationFailed(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        p = self.field.p
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for j in range(m):
                s = 0 if p is not None else Fraction(0)
                for t in range(k):
                    s += arow[t] * b[t * m + j]
                out.append(s % p if p is not None else s)
        return Matrix(self.field, n, m, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(self.data[i * self.cols + j]
                            for j in range(self.cols) for i in range(self.rows)))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.field != other.field:
            raise ValidationFailed("hstack shape mismatch")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return Matrix(self.field, self.rows, self.cols + other.cols, tuple(out))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols or self.field != other.field:
            raise ValidationFailed("vstack shape mismatch")
        return Matrix(self.field, self.rows + other.rows, self.cols, self.data + other.data)


def block_matrix(field: Field, grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a block matrix from a rectangular grid of blocks."""
    if not grid:
        return Matrix.zeros(field, 0, 0)
    rows = []
    for band in grid:
        stacked = band[0]
        for blk in band[1:]:
            stacked = stacked.hstack(blk)
        rows.append(stacked)
    out = rows[0]
    for r in rows[1:]:
        out = out.vstack(r)
    return out


@dataclass(frozen=True)
class EchelonData:
    """Reduced row echelon form of a matrix plus the reduction witness.

    ``transform`` is an invertible ``rows x rows`` matrix with
    ``transform @ m == rref``, so the same reduction can be replayed on any
    matrix with compatible row count via :meth:`apply`.
    """

    rref: Matrix
    rank: int
    pivots: tuple
    transform: Matrix

    def apply(self, other: Matrix) -> Matrix:
        return self.transform @ other


def _rref(field: Field, a: list, width: int) -> tuple:
    """Gauss-Jordan on a list of row lists; returns (rank, pivots).

    ``a`` is rewritten in place: each of its rows is first replaced by a
    copy (so the caller's row lists are never mutated, and a row object
    passed twice, as in ``[row] * 3``, is reduced as two separate rows),
    and on return ``a`` holds the rref rows, nonzero ones first.

    Only the first ``width`` columns are eliminated; trailing columns come
    along for the ride.  That is how reduction witnesses are tracked
    (augment with the identity, reduce, split).

    After the pivot row is normalized, its nonzero columns from the pivot on
    are collected (it is zero before the pivot).  When they are under a
    third of the remaining columns, each other row is updated in place at
    those columns only; otherwise the row is rebuilt from the pivot column
    on.  Both updates do the same arithmetic on every entry that can change,
    so rank, pivots and rows do not depend on which one runs.
    """
    a[:] = [list(row) for row in a]
    m = len(a)
    p = field.p
    pivots = []
    r = 0
    for c in range(width):
        pr = None
        for i in range(r, m):
            if a[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        row = a[r]
        piv = row[c]
        if piv != 1:
            if p is not None:
                inv = pow(piv, -1, p)
                a[r] = row = [(x * inv) % p for x in row]
            else:
                inv = Fraction(1) / piv
                a[r] = row = [x * inv for x in row]
        n = len(row)
        nz = [j for j in range(c, n) if row[j]]
        sparse = 3 * len(nz) < n - c
        if sparse:
            nz = [(j, row[j]) for j in nz]
        else:
            tail = row[c:]
        for i in range(m):
            if i == r:
                continue
            ai = a[i]
            f = ai[c]
            if not f:
                continue
            if sparse:
                if p is not None:
                    for j, y in nz:
                        ai[j] = (ai[j] - f * y) % p
                else:
                    for j, y in nz:
                        ai[j] -= f * y
            elif p is not None:
                a[i] = ai[:c] + [(x - f * y) % p for x, y in zip(ai[c:], tail)]
            else:
                a[i] = ai[:c] + [x - f * y for x, y in zip(ai[c:], tail)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return r, tuple(pivots)


def reduce(m: Matrix) -> EchelonData:
    """Reduced row echelon form with a recorded transform witness."""
    f = m.field
    n = m.rows
    aug = []
    one, zero = f.one, f.zero
    for i in range(n):
        row = m.row(i)
        row.extend(one if j == i else zero for j in range(n))
        aug.append(row)
    rank, pivots = _rref(f, aug, m.cols)
    rref_rows = [row[:m.cols] for row in aug]
    t_rows = [row[m.cols:] for row in aug]
    rref = Matrix(f, n, m.cols, tuple(x for row in rref_rows for x in row))
    transform = Matrix(f, n, n, tuple(x for row in t_rows for x in row))
    return EchelonData(rref, rank, pivots, transform)


@dataclass(frozen=True)
class SubspaceData:
    """Kernel/image/cokernel of a matrix, with canonical bases.

    * ``kernel``: columns form a basis of ``ker m`` (shape ``cols x nullity``).
    * ``image``: columns of ``m`` at its pivot columns (shape ``rows x rank``).
    * ``coker_proj``: surjection ``k^rows -> k^(rows-rank)`` whose kernel is
      exactly ``im m`` (the zero-row part of the reduction transform).
    """

    kernel: Matrix
    image: Matrix
    coker_proj: Matrix


def subspaces(m: Matrix) -> SubspaceData:
    f = m.field
    ech = reduce(m)
    rank, pivots = ech.rank, set(ech.pivots)
    free = [j for j in range(m.cols) if j not in pivots]
    # kernel basis: one column per free variable
    kdata = []
    row_of = {c: r for r, c in enumerate(ech.pivots)}
    for i in range(m.cols):
        row = []
        r = row_of.get(i)
        for fj in free:
            if i == fj:
                row.append(f.one)
            elif r is not None:
                row.append(f.neg(ech.rref.entry(r, fj)))
            else:
                row.append(f.zero)
        kdata.extend(row)
    kernel = Matrix(f, m.cols, len(free), tuple(kdata))
    image_cols = [m.col(j) for j in ech.pivots]
    image = Matrix(f, m.rows, rank,
                   tuple(image_cols[j][i] for i in range(m.rows) for j in range(rank)))
    # bottom rows of the transform kill the column space
    cp_rows = [ech.transform.row(i) for i in range(rank, m.rows)]
    coker_proj = Matrix(f, m.rows - rank, m.rows,
                        tuple(x for row in cp_rows for x in row))
    return SubspaceData(kernel, image, coker_proj)


def rank(m: Matrix) -> int:
    return _rref(m.field, m.to_lists(), m.cols)[0]


def complement(sub: Matrix, ambient_dim: int) -> Matrix:
    """Standard basis vectors completing the column span of ``sub`` to a basis
    of ``k^ambient_dim``; deterministic (non-pivot coordinates of the span)."""
    if sub.rows != ambient_dim:
        raise ValidationFailed("complement: ambient dimension mismatch")
    f = sub.field
    _, pivots = _rref(f, [sub.col(j) for j in range(sub.cols)], ambient_dim)
    pivots = set(pivots)
    free = [j for j in range(ambient_dim) if j not in pivots]
    data = tuple(f.one if i == j else f.zero for i in range(ambient_dim) for j in free)
    return Matrix(f, ambient_dim, len(free), data)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Canonical solution ``x`` of ``a @ x == b`` (free variables zero), or None."""
    if a.rows != b.rows:
        raise ValidationFailed("solve: row mismatch")
    f = a.field
    ech = reduce(a)
    tb = ech.apply(b)
    # consistency: zero rows of the rref must pair with zero rhs rows
    z = f.zero
    for i in range(ech.rank, a.rows):
        if any(x != z for x in tb.row(i)):
            return None
    xdata = [[z] * b.cols for _ in range(a.cols)]
    for r, c in enumerate(ech.pivots):
        xdata[c] = tb.row(r)
    return Matrix(f, a.cols, b.cols, tuple(x for row in xdata for x in row))


def inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ValidationFailed("inverse of non-square matrix")
    ech = reduce(a)
    if ech.rank != a.rows:
        raise ValidationFailed("matrix not invertible")
    return ech.transform


def row_space(mat_rows: list, field: Field, width: int) -> tuple:
    """Echelonize a list of coordinate rows (list-of-lists, consumed in place).

    Returns ``(rows, pivots)`` where ``rows`` holds the nonzero rref rows.
    Used for coset reduction in the Hom machinery, where working on raw lists
    avoids Matrix overhead.
    """
    rank_, pivots = _rref(field, mat_rows, width)
    return mat_rows[:rank_], pivots


def reduce_row_mod(row: list, basis_rows: list, pivots: tuple, field: Field) -> list:
    """Canonical representative of ``row`` modulo the row space ``basis_rows``.

    ``basis_rows`` must be in rref with the given pivot columns; the result
    has zeros in every pivot coordinate.
    """
    p = field.p
    out = list(row)
    for r, c in enumerate(pivots):
        coef = out[c]
        if coef:
            br = basis_rows[r]
            if p is not None:
                out = [(x - coef * y) % p for x, y in zip(out, br)]
            else:
                out = [x - coef * y for x, y in zip(out, br)]
    return out
