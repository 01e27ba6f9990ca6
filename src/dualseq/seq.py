"""Z-indexed sequences of finite-dimensional vector spaces with tame tails.

A ``Seq`` stores a finite window ``[lo, hi]`` of dimensions and the maps
``d^i : V^i -> V^(i+1)`` inside it.  Behaviour outside the window is declared
per side:

* ``Tail.ZERO``  - every degree beyond the window is the zero space;
* ``Tail.ISO``   - every degree beyond the window keeps the boundary
  dimension and the transition maps are ``(-1)^i * identity``.

The alternating sign is the normal form used throughout the package: with it,
shifting by ``n`` sends the rank-one interval object supported on ``[a, b]``
to the one supported on ``[a-n, b-n]`` on the nose, and all tail formulas
become periodic with period at most 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple

from .errors import ValidationFailed
from .linalg import SHARED_BLOCKS, Field, Matrix, block_matrix

NEG_INF = -math.inf
POS_INF = math.inf


class Tail(Enum):
    ZERO = "zero"
    ISO = "iso"


def signed_identity(field: Field, n: int, degree: int) -> Matrix:
    """The transition ``(-1)^degree * id`` used by ISO tails (one shared
    matrix per field, size and parity)."""
    return _signed_identity(field.p, n, degree % 2)


# keyed on the characteristic, as ``linalg._zeros`` is
@lru_cache(maxsize=SHARED_BLOCKS)
def _signed_identity(p: Optional[int], n: int, parity: int) -> Matrix:
    return Matrix.scalar_matrix(Field(p), n, -1 if parity else 1)


@dataclass(frozen=True)
class Seq:
    field: Field
    lo: int
    hi: int
    dims: Tuple[int, ...]
    maps: Tuple[Matrix, ...]
    left_tail: Tail
    right_tail: Tail

    def __post_init__(self):
        if self.hi < self.lo:
            raise ValidationFailed("window must satisfy lo <= hi")
        n = self.hi - self.lo + 1
        if len(self.dims) != n:
            raise ValidationFailed("dims length does not match window")
        if len(self.maps) != n - 1:
            raise ValidationFailed("maps length does not match window")
        _check_maps(self.field, self.lo, self.dims, self.maps)

    # -- degreewise access (tail-aware) --------------------------------

    def dim(self, i: int) -> int:
        if i < self.lo:
            return self.dims[0] if self.left_tail is Tail.ISO else 0
        if i > self.hi:
            return self.dims[-1] if self.right_tail is Tail.ISO else 0
        return self.dims[i - self.lo]

    def map_at(self, i: int) -> Matrix:
        """The map ``d^i : V^i -> V^(i+1)``, materializing tails on demand."""
        if self.lo <= i < self.hi:
            return self.maps[i - self.lo]
        if i >= self.hi:
            if self.right_tail is Tail.ISO:
                return signed_identity(self.field, self.dims[-1], i)
            return Matrix.zeros(self.field, self.dim(i + 1), self.dim(i))
        # i < lo
        if self.left_tail is Tail.ISO:
            return signed_identity(self.field, self.dims[0], i)
        return Matrix.zeros(self.field, self.dim(i + 1), self.dim(i))

    # -- global facts ---------------------------------------------------

    @property
    def is_zero_object(self) -> bool:
        return (all(d == 0 for d in self.dims)
                and self.left_tail is Tail.ZERO and self.right_tail is Tail.ZERO)

    def stable_dim(self, side: str) -> int:
        if side == "left":
            return self.dims[0] if self.left_tail is Tail.ISO else 0
        return self.dims[-1] if self.right_tail is Tail.ISO else 0


def _check_maps(field: Field, lo: int, dims: tuple, maps: tuple) -> None:
    """Dimensions are nonnegative and each map ``dims[k] -> dims[k+1]`` has
    that shape, over ``field``."""
    if any(d < 0 for d in dims):
        raise ValidationFailed("negative dimension")
    for k, m in enumerate(maps):
        if m.field != field:
            raise ValidationFailed("map over wrong field")
        if m.rows != dims[k + 1] or m.cols != dims[k]:
            raise ValidationFailed(
                f"map at degree {lo + k} has shape {m.rows}x{m.cols}, "
                f"expected {dims[k + 1]}x{dims[k]}")


def make_seq(field: Field, lo: int, dims, maps, left_tail: Tail, right_tail: Tail) -> Seq:
    """Build a Seq in normal form, the one form every constructor goes through.

    An ISO tail whose edge dimension is 0 is the same object as a ZERO tail,
    and becomes one first.  Then the left end is trimmed, then the right: an
    edge degree is dropped while it is a tail degree for its side, that is
    dimension 0 under ZERO, or the dimension of its neighbour with the signed
    identity of its parity as the map under ISO.  A result with no finite
    structure, the zero object or a single degree under two ISO tails, has
    window [0,0].  Every map is checked against ``dims`` before anything is
    trimmed, so a wrong shape next to a dropped degree is still refused.
    """
    dims = tuple(dims)
    maps = tuple(maps)
    if len(dims) != len(maps) + 1:
        raise ValidationFailed("dims/maps length mismatch")
    _check_maps(field, lo, dims, maps)
    if dims[0] == 0:
        left_tail = Tail.ZERO
    if dims[-1] == 0:
        right_tail = Tail.ZERO

    def tail_edge(tail, d, d_next, m, degree):
        if tail is Tail.ZERO:
            return d == 0
        return d == d_next and m == signed_identity(field, d, degree)

    a, b = 0, len(dims) - 1
    while a < b and tail_edge(left_tail, dims[a], dims[a + 1], maps[a], lo + a):
        a += 1
    while a < b and tail_edge(right_tail, dims[b], dims[b - 1], maps[b - 1], lo + b - 1):
        b -= 1
    start = lo + a
    if a == b and (dims[a] == 0 or left_tail is right_tail is Tail.ISO):
        start = 0
    return Seq(field, start, start + b - a, dims[a:b + 1], maps[a:b], left_tail, right_tail)


def zero_seq(field: Field) -> Seq:
    return make_seq(field, 0, (0,), (), Tail.ZERO, Tail.ZERO)


def interval(field: Field, a, b) -> Seq:
    """The interval indecomposable: rank one on degrees ``a..b`` with
    transitions ``(-1)^i``, zero elsewhere.  Endpoints may be ``-inf``/``inf``."""
    left_inf = a == NEG_INF
    right_inf = b == POS_INF
    if not left_inf and not isinstance(a, int):
        raise ValidationFailed(f"bad interval endpoint: {a!r}")
    if not right_inf and not isinstance(b, int):
        raise ValidationFailed(f"bad interval endpoint: {b!r}")
    if not left_inf and not right_inf and a > b:
        raise ValidationFailed("interval endpoints out of order")
    # the finite endpoints span the window; with none, any degree will do
    ends = [x for x in (a, b) if isinstance(x, int)] or [0]
    lo, hi = ends[0], ends[-1]
    return make_seq(field, lo, (1,) * (hi - lo + 1),
                    [signed_identity(field, 1, i) for i in range(lo, hi)],
                    Tail.ISO if left_inf else Tail.ZERO,
                    Tail.ISO if right_inf else Tail.ZERO)


def shift(v: Seq, n: int) -> Seq:
    """Degree shift: ``shift(v, n)`` has ``V^(n+i)`` in degree ``i`` and
    differential ``(-1)^n d^(n+i)``."""
    if n % 2 == 0:
        maps = v.maps
    else:
        maps = tuple(-m for m in v.maps)
    return make_seq(v.field, v.lo - n, v.dims, maps, v.left_tail, v.right_tail)


def glue(field: Field, lo: int, hi: int, xdim, ydim, dx, dy, f,
         ends: Tuple[Seq, Seq]) -> Seq:
    """E^i = X^i (+) Y^(i-1) on ``[lo, hi]``, X first, with the map ``[[d_X^i,
    0], [-f^i, -d_Y^(i-1)]]`` (X and Y given degreewise by dimensions and
    maps); a tail is ISO when either of ``ends`` has an ISO tail on that
    side.  Beyond ``[lo, hi]`` E continues by its tails."""
    dims = tuple(xdim(i) + ydim(i - 1) for i in range(lo, hi + 1))
    maps = [block_matrix(field, [[dx(i), Matrix.zeros(field, xdim(i + 1), ydim(i - 1))],
                                 [-f(i), -dy(i - 1)]]) for i in range(lo, hi)]
    a, b = ends
    lt = Tail.ISO if Tail.ISO in (a.left_tail, b.left_tail) else Tail.ZERO
    rt = Tail.ISO if Tail.ISO in (a.right_tail, b.right_tail) else Tail.ZERO
    return make_seq(field, lo, dims, maps, lt, rt)


def summand_blocks(field: Field, x: int, y: int) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """The blocks ``[I; 0], [0; I], [I, 0], [0, I]`` of the inclusions and
    projections of S = X (+) Y, X first, for dim X = x and dim Y = y (one
    shared tuple per field and shape)."""
    return _summand_blocks(field.p, x, y)


@lru_cache(maxsize=SHARED_BLOCKS)
def _summand_blocks(p: Optional[int], x: int, y: int) -> tuple:
    field = Field(p)
    ix, iy = Matrix.identity(field, x), Matrix.identity(field, y)
    zxy, zyx = Matrix.zeros(field, x, y), Matrix.zeros(field, y, x)
    return ix.vstack(zyx), zxy.vstack(iy), ix.hstack(zxy), zyx.hstack(iy)


def direct_sum_seq(v: Seq, w: Seq) -> Seq:
    """Blockwise direct sum on the union window: ``glue`` of v and
    ``shift(w, 1)`` along zero."""
    if v.field != w.field:
        raise ValidationFailed("direct sum over different fields")
    lo = min(v.lo, w.lo)
    hi = max(v.hi, w.hi)
    # one past the union window both summands are stable, so the boundary
    # dimension there is the true stable dimension of the sum
    if Tail.ISO in (v.left_tail, w.left_tail):
        lo -= 1
    if Tail.ISO in (v.right_tail, w.right_tail):
        hi += 1
    f = v.field
    y = shift(w, 1)
    return glue(f, lo, hi, v.dim, y.dim, v.map_at, y.map_at,
                lambda i: Matrix.zeros(f, y.dim(i), v.dim(i)), (v, w))
