"""Exact linear algebra over prime fields and the rationals.

Matrices are immutable, row-major, dense, and tiny (the library works at
desk scale), and scalars are exact: Python ints reduced mod p, or
``fractions.Fraction``.  No floats anywhere.  Every elimination goes through
one sparse core, ``_rref``, on rows stored as dicts ``{column: nonzero}``:
its cost follows the nonzeros, which is what the constraint systems of the
hom windows need (a few nonzeros per row), and its result is exactly the
Gauss-Jordan one, so callers with dense rows see no difference.  Nothing
carries a transform witness: ``subspaces`` reads the kernel and image off
one elimination of the matrix's own rows, ``solve`` eliminates ``[a | b]``
and reads the solution off the trailing columns, and ``inverse`` is
``solve(a, identity)``.

Zero matrices are shared: ``Matrix.zeros`` returns one immutable object per
shape.  Most blocks of the enlarged category (composites, cone parts,
extension classes) are zero, so the arithmetic skips zero operands before
any loop: a product with a zero factor is the shared zero, and a sum,
difference, negation or scaling with a zero operand or scalar returns an
operand or the shared zero.  Any other product sums only the products from
the nonzero entries of each row.  Results are the same, entry types
included, as the dense loops give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import ValidationFailed

# Entries kept by each cache of shared immutable blocks (zero matrices here,
# signed identities in seq); one pass of the hom_cold benchmark pool asks
# for 115 zero shapes and 26 signed identities.
SHARED_BLOCKS = 512


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
        """The zero matrix; one shared (immutable) object per shape."""
        return _zeros(field.p, rows, cols)

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
        return not any(self.data)

    # -- arithmetic ---------------------------------------------------

    def _check_same_shape(self, other: "Matrix"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValidationFailed("matrix shape/field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        p = self.field.p
        if p is not None:
            data = tuple((a + b) % p for a, b in zip(self.data, other.data))
        else:
            data = tuple(a + b for a, b in zip(self.data, other.data))
        return Matrix(self.field, self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        p = self.field.p
        if p is not None:
            data = tuple((a - b) % p for a, b in zip(self.data, other.data))
        else:
            data = tuple(a - b for a, b in zip(self.data, other.data))
        return Matrix(self.field, self.rows, self.cols, data)

    def __neg__(self) -> "Matrix":
        if self.is_zero:
            return self
        p = self.field.p
        if p is not None:
            data = tuple((-a) % p for a in self.data)
        else:
            data = tuple(-a for a in self.data)
        return Matrix(self.field, self.rows, self.cols, data)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        if not c:
            return _zeros(self.field.p, self.rows, self.cols)
        if self.is_zero:
            return self
        p = self.field.p
        if p is not None:
            data = tuple((c * a) % p for a in self.data)
        else:
            data = tuple(c * a for a in self.data)
        return Matrix(self.field, self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field.p != other.field.p or self.cols != other.rows:
            raise ValidationFailed(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        field = self.field
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.data, other.data
        # most blocks of the enlarged category are zero: a zero factor
        # (this covers k == 0) costs one scan and allocates nothing
        if not any(a) or not any(b):
            return _zeros(field.p, n, m)
        p, zero = field.p, field.zero
        out = []
        for i in range(0, n * k, k):
            # (offset of row t of b, a[i, t]) for the nonzero entries of row i;
            # an entry starts from the field's zero, so over Q it is a Fraction
            nz = [(t * m, x) for t, x in enumerate(a[i:i + k]) if x]
            for j in range(m):
                s = zero
                for o, x in nz:
                    s += x * b[o + j]
                out.append(s if p is None else s % p)
        return Matrix(field, n, m, tuple(out))

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


# Keyed on the characteristic, so that a lookup hashes ints only (the
# generated ``Field.__hash__`` runs in Python).
@lru_cache(maxsize=SHARED_BLOCKS)
def _zeros(p: Optional[int], rows: int, cols: int) -> Matrix:
    field = Field(p)
    return Matrix(field, rows, cols, (field.zero,) * (rows * cols))


def block_matrix(field: Field, grid: Sequence[Sequence[Matrix]]) -> Matrix:
    """Assemble a block matrix from a grid of blocks, given as bands: the
    blocks of a band have one height, and the bands one total width."""
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


def _sub_row(row: dict, f, items, p) -> None:
    """``row -= f * other`` on a dict row, in place, where ``items`` are the
    ``(column, entry)`` pairs of ``other``.  Entries that become zero are
    dropped."""
    get = row.get
    for j, y in items:
        x = get(j, 0) - f * y
        if p is not None:
            x %= p
        if x:
            row[j] = x
        else:
            del row[j]


def _rref(field: Field, a: list, width: int, reduced: bool = True) -> tuple:
    """Gauss-Jordan on a list of rows; returns (rank, pivots).

    Rows are dicts ``{column: nonzero entry}`` or dense lists.  Dict rows are
    eliminated in place.  Dense rows keep the list contract: each is copied
    into a dict first (so the caller's row lists are never mutated, and a
    row object passed twice, as in ``[row] * 3``, is reduced as two separate
    rows), and ``a`` is rewritten with dense lists at the end.  On return
    ``a`` holds the rref rows, nonzero ones first.

    Only the first ``width`` columns are eliminated; trailing columns come
    along for the ride.  That is how ``solve`` carries its right-hand sides.

    The work follows the nonzeros.  Each row's lead column is kept in a list
    (``min(row)``; a lead ``>= width`` means the row is zero on the
    eliminated columns).  Pivots are taken in Gauss-Jordan's order: the
    next pivot column is the least lead at or below the current row, and
    the pivot row the first row there with that lead, swapped up.  Only the
    rows below the pivot are eliminated; back substitution then runs from
    the last pivot row up.  With ``reduced=False`` it is skipped and the
    nonzero rows are left in echelon form: the rank and pivots are the
    same, and they are all a rank needs.

    The result is exactly Gauss-Jordan's, trailing columns included.  Both
    take the same pivots and swaps, and the rows below the current one get
    the same forward steps, so zero rows agree.  In Gauss-Jordan each final
    pivot row is its echelon row plus multiples of later echelon rows,
    made zero at the later pivots; that vector is unique because the later
    echelon rows are triangular at their pivots, and back substitution
    builds the same one.
    """
    dense = bool(a) and not isinstance(a[0], dict)
    if dense:
        n = len(a[0])
        a[:] = _dict_rows(a)
    m = len(a)
    p = field.p
    leads = [min(row) if row else width for row in a]
    pivots = []
    r = 0
    while r < m:
        c = min(leads[r:])
        if c >= width:
            break
        i = leads.index(c, r)
        if i != r:
            a[r], a[i] = a[i], a[r]
            leads[r], leads[i] = leads[i], leads[r]
        row = a[r]
        piv = row[c]
        if piv != 1:
            inv = field.inv(piv)
            a[r] = row = ({j: x * inv % p for j, x in row.items()} if p is not None
                          else {j: x * inv for j, x in row.items()})
        items = row.items()
        # the other rows with lead c lie below i, the first one found
        for _ in range(leads.count(c) - 1):
            i = leads.index(c, i + 1)
            ai = a[i]
            _sub_row(ai, ai[c], items, p)
            leads[i] = min(ai) if ai else width
        pivots.append(c)
        r += 1
    if reduced:
        # back substitution: final rows are zero at every other pivot, so
        # the coefficients can all be read off the echelon row first
        pos = {c: k for k, c in enumerate(pivots)}
        final = [None] * r
        for k in range(r - 1, -1, -1):
            row = a[k]
            for c, x in [(c, x) for c, x in row.items() if c in pos and pos[c] > k]:
                _sub_row(row, x, final[pos[c]], p)
            final[k] = list(row.items())
    if dense:
        a[:] = _dense_rows(a, n, field.zero)
    return r, tuple(pivots)


def _dict_rows(rows) -> list:
    """Dense rows (any sequences) as dict rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _dense_rows(rows: list, n: int, zero) -> list:
    """Dict rows as dense lists over the first ``n`` columns."""
    out = []
    for row in rows:
        full = [zero] * n
        for j, x in row.items():
            if j < n:
                full[j] = x
        out.append(full)
    return out


def _kernel_vectors(field: Field, rows: list, pivots: tuple, n: int) -> list:
    """A basis of the kernel of a system in echelon form with pivot entries
    1 (as ``_rref`` leaves it, reduced or not), as dense lists of length
    ``n``: for each free column, the vector with 1 there and 0 at the other
    free columns.  Its pivot coordinates follow by back substitution, from
    the last pivot row up: each pivot variable is minus its row applied to
    the later variables, kept as a combination of the free ones.  On rref
    rows a row has no later pivot column, so that combination is just the
    negated row."""
    zero, one, p = field.zero, field.one, field.p
    pivset = set(pivots)
    comb, vecs = {}, {}
    for j in range(n):
        if j not in pivset:
            comb[j] = ((j, one),)
            vecs[j] = vec = [zero] * n
            vec[j] = one
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        e = {}
        for j, x in rows[k].items():
            if j != c:
                _sub_row(e, x, comb[j], p)
        comb[c] = e.items()
    for c in pivots:
        for j, x in comb[c]:
            vecs[j][c] = x
    return list(vecs.values())


def _matrix_rows(m: Matrix) -> list:
    """The rows of ``m`` as dict rows."""
    k = m.cols
    return _dict_rows(m.data[i * k:(i + 1) * k] for i in range(m.rows))


@dataclass(frozen=True)
class SubspaceData:
    """Kernel and image of a matrix, with canonical bases.

    * ``kernel``: columns form a basis of ``ker m`` (shape ``cols x nullity``),
      one per free column of the rref of ``m``.
    * ``image``: columns of ``m`` at its pivot columns (shape ``rows x rank``).
    """

    kernel: Matrix
    image: Matrix


def subspaces(m: Matrix) -> SubspaceData:
    f = m.field
    k = m.cols
    rows = _matrix_rows(m)
    _, pivots = _rref(f, rows, k)
    ker = _kernel_vectors(f, rows, pivots, k)
    kernel = tuple(vec[i] for i in range(k) for vec in ker)    # a column per vector
    image = tuple(m.data[i * k + c] for i in range(m.rows) for c in pivots)
    return SubspaceData(Matrix(f, k, len(ker), kernel), Matrix(f, m.rows, len(pivots), image))


def rank(m: Matrix) -> int:
    return _rref(m.field, _matrix_rows(m), m.cols, reduced=False)[0]


def complement(sub: Matrix, ambient_dim: int) -> Matrix:
    """Standard basis vectors completing the column span of ``sub`` to a basis
    of ``k^ambient_dim``; deterministic (non-pivot coordinates of the span)."""
    if sub.rows != ambient_dim:
        raise ValidationFailed("complement: ambient dimension mismatch")
    f = sub.field
    _, pivots = _rref(f, [sub.col(j) for j in range(sub.cols)], ambient_dim,
                      reduced=False)
    pivots = set(pivots)
    free = [j for j in range(ambient_dim) if j not in pivots]
    data = tuple(f.one if i == j else f.zero for i in range(ambient_dim) for j in free)
    return Matrix(f, ambient_dim, len(free), data)


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Canonical solution ``x`` of ``a @ x == b`` (free variables zero), or None.

    ``[a | b]`` is eliminated on ``a``'s columns, so ``a``'s part ends in its
    rref.  A solution with the free variables zero then sets each pivot
    variable to the trailing entries of its pivot row.
    """
    if a.rows != b.rows:
        raise ValidationFailed("solve: row mismatch")
    f = a.field
    k, m = a.cols, b.cols
    aug = _matrix_rows(a)
    for i, row in enumerate(aug):
        for j, x in enumerate(b.data[i * m:(i + 1) * m], k):
            if x:
                row[j] = x
    rank_, pivots = _rref(f, aug, k)
    # rows below the rank are zero on a's columns: the system is consistent
    # exactly when their right-hand sides vanish too
    if any(aug[rank_:]):
        return None
    z = f.zero
    xdata = [z] * (k * m)
    for row, c in zip(aug, pivots):
        for j, x in row.items():
            if j >= k:
                xdata[c * m + j - k] = x
    return Matrix(f, k, m, tuple(xdata))


def inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ValidationFailed("inverse of non-square matrix")
    inv = solve(a, Matrix.identity(a.field, a.rows))
    if inv is None:
        raise ValidationFailed("matrix not invertible")
    return inv
