"""Exact linear algebra over prime fields and the rationals.

Matrices are immutable, row-major, dense, and tiny (the library works at
desk scale), and scalars are exact: Python ints reduced mod p, or
``fractions.Fraction``.  No floats anywhere.  Every elimination of a
system goes through one sparse core, ``_rref``, on rows stored as dicts
``{column: nonzero}``: its cost follows the nonzeros, which is what the
constraint systems of the hom windows need (a few nonzeros per row).  It
builds an echelon basis of the rows by insertion, each row reduced by the
stored pivot row at its lead until its lead is new or it is zero.  Every
echelon basis of a row space has the same pivot set, the leads of its
nonzero vectors, so the rank and pivots are Gauss-Jordan's.  Which echelon
basis comes out depends on the order of the rows, but no answer read off
it does, since each is unique once the pivots are fixed:

* the kernel basis with 1 at one free column and 0 at the others
  (``_kernel_vectors``);
* the solution of ``a x = b`` with every free variable zero: for each
  column of ``b``, the kernel vector of ``[a | b]`` with -1 there
  (``_solve_rows``);
* the representative of a coset with zeros at every pivot
  (``_reduce_vec``).

``_back_substitute`` reads the first two off the rows, from the last pivot
row up.  ``rank`` and ``subspaces`` eliminate the matrix's own rows once,
``inverse`` is ``solve(a, identity)``, and ``split_map``, the bases
adapted to a map, reads its cokernel coordinates and its section off the
kernel of ``[image^T | I_r]``.
``barcode.decompose`` runs the elder rule as ``_rref`` of the images of
the live bars, oldest first, with an identity tail: each leftover row
names a dying bar and its coefficients over the older kept bars.

Over Q the kernels compute on Python ints, and a ``Fraction`` is built
only for what they hand back: a ``Matrix`` entry, a returned row or
vector.  ``Matrix.__matmul__`` scales each factor to integers by the least
common denominator of its entries and divides once per output entry.
``_rref`` scales a row to integers when a step first uses it, and each
step is ``row := piv * row - x * pivot_row`` with the content (the gcd of
the entries) removed, where the rational step subtracts ``x / piv`` times
the pivot row.  Each integer row is a nonzero multiple of the rational row
it stands for, so the zero patterns, and with them the pivots, are those of
the rational steps, and a pivot row divided by its pivot entry on exit is
the rational pivot row.  ``_back_substitute`` and ``_reduce_vec`` scale
the rows they read the same way.  ``Field.zero`` and ``Field.one`` are one
shared ``Fraction`` each.

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
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import ValidationFailed

# Entries kept by each cache of shared immutable blocks (zero matrices here,
# signed identities in seq); one pass of the hom_cold benchmark pool asks
# for 115 zero shapes and 26 signed identities.
SHARED_BLOCKS = 512

# the zero and one of Q, shared like the zero blocks (a Fraction is immutable)
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


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
        return 0 if self.p is not None else _Q_ZERO

    @property
    def one(self):
        return 1 if self.p is not None else _Q_ONE

    def coerce(self, x):
        """Normalize a scalar into this field.  Anything but an int is read
        exactly as a ``Fraction`` first, so over F5 both ``0.5`` and ``"1/2"``
        are 3, as they are 1/2 over Q."""
        p = self.p
        if isinstance(x, int):
            return x % p if p is not None else Fraction(x)
        if not isinstance(x, Fraction):
            try:
                x = Fraction(x)
            except (ValueError, OverflowError, TypeError, ZeroDivisionError) as e:
                raise ValidationFailed(f"not a scalar: {x!r}") from e
        if p is None:
            return x
        if x.denominator % p == 0:
            raise ValidationFailed(f"denominator not invertible mod {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def neg(self, x):
        return (-x) % self.p if self.p is not None else -x

    def inv(self, x):
        if self.p is not None:
            return pow(x, -1, self.p)
        return _Q_ONE / x

    def __repr__(self):
        return "Q" if self.p is None else f"F{self.p}"


@dataclass(frozen=True, slots=True)
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

    # -- accessors ----------------------------------------------------

    def entry(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.data[i * self.cols:(i + 1) * self.cols])

    def col(self, j: int) -> list:
        return [self.data[i * self.cols + j] for i in range(self.rows)]

    def to_lists(self) -> list:
        return [self.row(i) for i in range(self.rows)]

    def row_block(self, start: int, stop: int) -> "Matrix":
        """Rows ``start..stop-1`` as a ``(stop - start) x cols`` matrix."""
        if not 0 <= start <= stop <= self.rows:
            raise ValidationFailed(
                f"row block {start}:{stop} outside a matrix with {self.rows} rows")
        k = self.cols
        return Matrix(self.field, stop - start, k, self.data[start * k:stop * k])

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
        p = field.p
        if p is None:
            # integer numerators over one denominator per factor
            (a, da), (b, db) = _numerators(a), _numerators(b)
        out = []
        for i in range(0, n * k, k):
            # (offset of row t of b, a[i, t]) for the nonzero entries of row i
            nz = [(t * m, x) for t, x in enumerate(a[i:i + k]) if x]
            for j in range(m):
                s = 0
                for o, x in nz:
                    s += x * b[o + j]
                out.append(s % p if p is not None else _rational(s, da * db))
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


def _numerators(xs) -> tuple:
    """The rationals ``xs`` (ints allowed) as a list of integer numerators
    over their least common denominator, and that denominator."""
    pairs = [x.as_integer_ratio() for x in xs]
    d = lcm(*[q for _, q in pairs])
    if d == 1:
        return [x for x, _ in pairs], 1
    return [x * (d // q) for x, q in pairs], d


def _rational(x: int, d: int) -> Fraction:
    """``x / d`` as a Fraction, zero and one the shared ones."""
    if not x:
        return _Q_ZERO
    if x == d:
        return _Q_ONE
    return Fraction(x) if d == 1 else Fraction(x, d)


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


def _int_row(row: dict) -> tuple:
    """A dict row of rationals as integers, content removed: ``(ints, num,
    den)`` with ``ints = row * num / den``."""
    ints, d = _numerators(row.values())
    ints, g = _primitive(dict(zip(row, ints)))
    return ints, d, g


def _primitive(row: dict) -> tuple:
    """The integer dict row ``row`` divided by its content ``g``, and ``g``."""
    g = gcd(*row.values())
    return ({j: x // g for j, x in row.items()}, g) if g > 1 else (row, 1)


def _int_step(row: dict, piv: int, x: int, items) -> tuple:
    """``piv * row - x * other`` on integer dict rows, as a new row with its
    content ``g`` removed, and ``g``; zero entries are dropped."""
    out = {j: piv * y for j, y in row.items()} if piv != 1 else dict(row)
    _sub_row(out, x, items, None)
    return _primitive(out)


def _rref(field: Field, a: list, width: int) -> tuple:
    """An echelon basis of a list of dict rows ``{column: nonzero entry}``
    on their first ``width`` columns, built by insertion in place; returns
    (rank, pivots), which are Gauss-Jordan's (module docstring).

    Trailing columns come along for the ride; that is how ``_solve_rows``
    carries its right-hand sides.  A row's lead is ``min(row)``, and a lead
    ``>= width`` means the row is zero on the eliminated columns.  Each row
    in turn is reduced by the stored pivot row at its lead, found by one
    dict lookup, until either its lead is new, and it is stored with pivot
    entry 1, or it is zero on the first ``width`` columns.  Every row the
    input rows span is reduced to zero by the stored rows, so these are an
    echelon basis of the row space.  On return ``a`` holds the pivot rows
    in increasing pivot order, each zero before its pivot, followed by the
    leftover rows, which are zero on the first ``width`` columns; each
    leftover row is its input row minus a combination of pivot rows.  The
    pivot rows need not be Gauss-Jordan's rref rows, but their rref is,
    and every answer read off them is unique once the pivots are fixed
    (module docstring), so none depends on the order of the rows.

    On ``[rows | identity]``, each row possibly scaled (input row ``t`` has
    one trailing entry, a nonzero at ``width + t``), every pivot row is a
    multiple of its own input row plus a combination of earlier input rows
    that became pivot rows, so no step on a row touches its own trailing
    column.  A leftover row thus keeps its input entry there, nonzero and
    its largest column; its other trailing entries name only earlier rows
    that became pivot rows; and its trailing entries, each divided by its
    input row's own, are the coefficients of a combination of the input
    rows that is zero on the first ``width`` columns.  ``barcode.decompose``
    reads the elder rule off this.

    Over Q the steps run on integer rows: a row is scaled to integers when
    a step first uses it, and holds ``num / den`` times its rational row
    from then on.  A pivot row handed back is made a Fraction row with
    pivot entry 1 unless it came in with pivot 1 and no step touched it.
    """
    p = field.p
    basis, rest = {}, []    # pivot column -> pivot row; the leftover rows
    ints = {}               # over Q: pivot column -> its pivot row as integers
    for row in a:
        c = min(row) if row else width
        if p is not None:
            while c < width:
                other = basis.get(c)
                if other is None:
                    x = row[c]
                    if x != 1:
                        inv = field.inv(x)
                        row = {j: y * inv % p for j, y in row.items()}
                    basis[c] = row
                    break
                _sub_row(row, row[c], other.items(), p)
                c = min(row) if row else width
            else:
                rest.append(row)
            continue
        num = None
        while c < width:
            if c not in basis:
                basis[c] = row
                if num is not None:
                    ints[c] = row
                break
            other = ints.get(c)
            if other is None:
                ints[c] = other = _int_row(basis[c])[0]
            if num is None:
                row, num, den = _int_row(row)
            piv = other[c]
            row, g = _int_step(row, piv, row[c], other.items())
            num, den = num * piv, den * g
            c = min(row) if row else width
        else:
            if num is not None:
                row = {j: _rational(x * den, num) for j, x in row.items()}
            rest.append(row)
    pivots = sorted(basis)
    if p is None:
        for c in pivots:
            row = basis[c]
            if ints.get(c) is row or row[c] != 1:
                row = ints.get(c) or _int_row(row)[0]
                piv = row[c]
                basis[c] = {j: _rational(x, piv) for j, x in row.items()}
    a[:] = [basis[c] for c in pivots] + rest
    return len(pivots), tuple(pivots)


def _dict_rows(rows) -> list:
    """Dense rows (any sequences) as dict rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _back_substitute(field: Field, rows: list, pivots: tuple, seed: dict) -> list:
    """Back substitution on a system in echelon form with pivot entries 1
    (as ``_rref`` leaves it): for each free column ``j`` of ``seed``, the
    kernel vector with ``seed[j]`` at ``j`` and 0 at every other free
    column.  Returns its pivot coordinates as triples (pivot column, ``j``,
    nonzero entry).

    From the last pivot row up, each pivot variable is minus its row
    applied to the later variables, kept as a combination of the seeded
    ones; a free column not in ``seed`` is a zero variable and is skipped,
    and so is the pivot column itself, which has no combination yet.  Over
    Q a combination is kept as integers over one denominator, from the row
    scaled to integers."""
    p = field.p
    comb = {j: (((j, x),), 1) for j, x in seed.items()}
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        e = {}
        if p is not None:
            for j, x in rows[k].items():
                if j in comb:
                    _sub_row(e, x, comb[j][0], p)
            comb[c] = (e.items(), 1)
            continue
        row = _int_row(rows[k])[0]
        d = lcm(*[comb[j][1] for j in row if j in comb])
        for j, x in row.items():
            if j in comb:
                items, dj = comb[j]
                _sub_row(e, x * (d // dj), items, None)
        # the pivot variable is e / d
        d *= row[c]
        g = gcd(d, *e.values())
        comb[c] = ({j: x // g for j, x in e.items()}.items(), d // g)
    return [(c, j, x if p is not None else _rational(x, d))
            for c in pivots for items, d in [comb[c]] for j, x in items]


def _kernel_vectors(field: Field, rows: list, pivots: tuple, n: int) -> list:
    """A basis of the kernel of a system in echelon form with pivot entries
    1 (as ``_rref`` leaves it), as dense lists of length ``n``: for each
    free column, the vector with 1 there and 0 at the other free columns,
    its pivot coordinates from ``_back_substitute``."""
    zero, one = field.zero, field.one
    pivset = set(pivots)
    vecs = {}
    for j in range(n):
        if j not in pivset:
            vecs[j] = vec = [zero] * n
            vec[j] = one
    for c, j, x in _back_substitute(field, rows, pivots, dict.fromkeys(vecs, 1)):
        vecs[j][c] = x
    return list(vecs.values())


def _reduce_vec(field: Field, rows, pivots, vec) -> list:
    """``vec`` reduced by ``rows``, as a new list: dict rows in echelon form
    with pivot entries 1 and increasing pivots (as ``_rref`` leaves them).
    Subtracting each row at its pivot, in that order,
    zeroes the pivot coordinate for good, since the later rows are zero
    there.  So the result is the unique representative of ``vec`` modulo
    the row space with zeros at every pivot, and it is zero exactly when
    ``vec`` lies in the row space.  Only the nonzeros of the rows are
    visited, and the rows are only read.  Over Q ``vec``, once a row is to
    be subtracted, and each row subtracted are scaled to integers, and
    ``vec`` by each row's pivot in turn."""
    p = field.p
    out, d = list(vec), None
    for row, c in zip(rows, pivots):
        coef = out[c]
        if not coef:
            continue
        if p is not None:
            for j, y in row.items():
                out[j] = (out[j] - coef * y) % p
            continue
        if d is None:
            out, d = _numerators(out)
            coef = out[c]
        row = _int_row(row)[0]
        piv = row[c]
        if piv != 1:
            out = [piv * x for x in out]
            d *= piv
        for j, y in row.items():
            out[j] -= coef * y
    return out if d is None else [_rational(x, d) for x in out]


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
    * ``pivots``: those pivot columns.
    """

    kernel: Matrix
    image: Matrix
    pivots: tuple


def subspaces(m: Matrix) -> SubspaceData:
    f = m.field
    k = m.cols
    rows = _matrix_rows(m)
    _, pivots = _rref(f, rows, k)
    ker = _kernel_vectors(f, rows, pivots, k)
    kernel = tuple(vec[i] for i in range(k) for vec in ker)    # a column per vector
    image = tuple(m.data[i * k + c] for i in range(m.rows) for c in pivots)
    return SubspaceData(Matrix(f, k, len(ker), kernel), Matrix(f, m.rows, len(pivots), image),
                        pivots)


def rank(m: Matrix) -> int:
    return _rref(m.field, _matrix_rows(m), m.cols)[0]


def _placed(f: Field, rows: int, cols: int, entries) -> Matrix:
    """The matrix with the entries ``((i, j), x)`` and zeros elsewhere."""
    data = [f.zero] * (rows * cols)
    for (i, j), x in entries:
        data[i * cols + j] = x
    return Matrix(f, rows, cols, tuple(data))


@dataclass(frozen=True)
class SplitMap:
    """Bases adapted to ``m: k^b -> k^a`` (``split_map``): k^b = ker m (+)
    span(comp), with the kernel coordinates ``pker`` along comp, and k^a =
    im m (+) span(rest), with the rest coordinates ``pi`` along im m.
    ``sec`` maps into span(comp), and ``m . sec`` projects onto im m along
    span(rest).  The fields come from the first elimination; ``rest``,
    ``pi`` and ``sec`` from a second, run when one of them is first read."""

    rank: int
    kernel: Matrix      # b x (b - rank)
    comp: Matrix        # b x rank: e_P, for the pivot columns P of m
    pker: Matrix        # (b - rank) x b
    image: Matrix       # a x rank: m . comp
    pivots: tuple       # P

    @cached_property
    def _cok(self) -> tuple:
        # [image^T | I_r] has full row rank and its pivots Q lie below a;
        # rest = e_N for the others, N.  On the columns below a, the kernel
        # vector with 1 at i in N is row pos[i] of pi, and the one with -1
        # at a + k, whose product with image is e_k, is row pivots[k] of sec
        g, b, r = self.image, self.comp.rows, self.rank
        f, a, one = g.field, g.rows, g.field.one
        img = [{i: x for i, x in enumerate(g.col(k)) if x} | {a + k: one} for k in range(r)]
        _, q = _rref(f, img, a)
        other = sorted(set(range(a)) - set(q))
        pos = {i: t for t, i in enumerate(other)}
        pi = [((t, i), one) for t, i in enumerate(other)]
        sec = []
        seed = dict.fromkeys(other, 1) | dict.fromkeys(range(a, a + r), -1)
        for qi, j, x in _back_substitute(f, img, q, seed):
            if j < a:
                pi.append(((pos[j], qi), x))
            else:
                sec.append(((self.pivots[j - a], qi), x))
        return (_placed(f, a, a - r, (((i, t), one) for t, i in enumerate(other))),
                _placed(f, a - r, a, pi), _placed(f, b, a, sec))

    rest = cached_property(lambda self: self._cok[0])     # a x (a - rank)
    pi = cached_property(lambda self: self._cok[1])       # (a - rank) x a
    sec = cached_property(lambda self: self._cok[2])      # b x a


def split_map(m: Matrix) -> SplitMap:
    """The ``SplitMap`` of ``m``: ``subspaces(m)`` gives ``kernel``, and its
    pivot columns P give ``comp = e_P``, so ``pker`` selects the others.

    ``comp`` is the one choice (docs/NOTES.md, "Cost of a cone").  ``kernel``
    and ``rest`` are read off the pivots of m and of the span im m, ``pi`` is
    fixed by im m and span(rest), and on ker m ``pker`` inverts ``kernel``:
    only ``sec``, and ``pker`` off ker m, depend on ``comp``.  The cone's U
    reads ``pker`` on ker h1, which d_V preserves; the minimal model reads
    ``pker`` on ker d1, which deps preserves (d1 deps = -deps d1), and ``pi``
    of an injective map; the connecting class of a short exact sequence
    reads ``sec`` of an injective map, its inverse on the image, and of a
    surjective one, a section, on which the class does not depend.
    """
    f, b = m.field, m.cols
    sub = subspaces(m)
    piv, r = sub.pivots, sub.image.cols
    free = sorted(set(range(b)) - set(piv))
    return SplitMap(r, sub.kernel, _placed(f, b, r, (((c, k), f.one) for k, c in enumerate(piv))),
                    _placed(f, b - r, b, (((t, j), f.one) for t, j in enumerate(free))),
                    sub.image, piv)


def _solve_rows(field: Field, aug: list, k: int, m: int) -> Optional[list]:
    """Canonical solution ``x`` (free variables zero) of a system given as
    dict rows ``[a | b]``: ``a`` on the columns ``0..k-1`` and ``m``
    right-hand sides on ``k..k+m-1``.  Returns the row-major entries of the
    ``k x m`` matrix ``x``, or None when there is no solution.  ``aug`` is
    eliminated in place.

    The elimination runs on ``a``'s columns.  Column ``t`` of ``x`` is the
    kernel vector of ``[a | b]`` with -1 at ``k + t`` and 0 at the other
    free columns, on ``a``'s columns: ``a x = b`` there, and the free
    variables of ``a`` are zero.
    """
    rank_, pivots = _rref(field, aug, k)
    # rows below the rank are zero on a's columns: the system is consistent
    # exactly when their right-hand sides vanish too
    if any(aug[rank_:]):
        return None
    x = [field.zero] * (k * m)
    for c, j, y in _back_substitute(field, aug, pivots, dict.fromkeys(range(k, k + m), -1)):
        x[c * m + j - k] = y
    return x


def solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Canonical solution ``x`` of ``a @ x == b`` (free variables zero), or None."""
    if a.rows != b.rows:
        raise ValidationFailed("solve: row mismatch")
    if a.field != b.field:
        raise ValidationFailed(f"solve: matrix over {a.field}, right-hand side over {b.field}")
    f = a.field
    k, m = a.cols, b.cols
    aug = _matrix_rows(a)
    for i, row in enumerate(aug):
        for j, x in enumerate(b.data[i * m:(i + 1) * m], k):
            if x:
                row[j] = x
    x = _solve_rows(f, aug, k, m)
    return None if x is None else Matrix(f, k, m, tuple(x))


def inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise ValidationFailed("inverse of non-square matrix")
    inv = solve(a, Matrix.identity(a.field, a.rows))
    if inv is None:
        raise ValidationFailed("matrix not invertible")
    return inv
