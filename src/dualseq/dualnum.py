"""Complexes of finite-rank free modules over the dual numbers k[eps].

A differential is stored split as ``D = d1 + eps * deps``; ``D^2 = 0`` is
equivalent to the two relations

    d1^(i+1) d1^i = 0
    d1^(i+1) deps^i + deps^(i+1) d1^i = 0 .

``minimize`` reduces any valid complex to one with ``d1 = 0`` by choosing,
in every degree, a basis adapted to ``B = im(d1) <= Z = ker(d1)`` and a
complement ``C`` with ``d1 : C -> B`` the identity in the new coordinates.
The reduction comes with a homotopy equivalence whose maps are pairs
a1 + eps*ae, composed by ``_times`` as (a1 + eps ae)(b1 + eps be) =
a1 b1 + eps (a1 be + ae b1).  Its certificate is four identities of pairs,
D_N f = f D_M, D_M g = g D_N, f g = 1 and g f - 1 = D_M k + k D_M, checked
exactly in both parts in every degree.

Minimal complexes are the same data as sequences with both tails Zero
(``D = eps * d_V``); ``to_seq``/``from_seq`` realize that dictionary.
``hom_k`` counts homotopy classes of chain maps: they are ``Hom_S`` and
``Hom_eps`` of the two sequences, so it reads both dimensions off
``hom.get_context``; the independent check is the dense window solve in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import ValidationFailed
from .hom import get_context
from .linalg import Field, Matrix, block_matrix, rank as matrix_rank, split_map
from .seq import Seq, Tail, make_seq


@dataclass(frozen=True)
class EpsComplex:
    """Free k[eps]-modules of the given ranks with differential d1 + eps*deps."""

    field: Field
    lo: int
    ranks: Tuple[int, ...]
    d1: Tuple[Matrix, ...]
    deps: Tuple[Matrix, ...]

    def __post_init__(self):
        if not self.ranks:
            raise ValidationFailed("complex needs at least one degree")
        if any(r < 0 for r in self.ranks):
            raise ValidationFailed("negative rank")
        n = len(self.ranks)
        if len(self.d1) != n - 1 or len(self.deps) != n - 1:
            raise ValidationFailed("wrong number of differentials")
        for k in range(n - 1):
            for part, name in ((self.d1[k], "d1"), (self.deps[k], "deps")):
                if part.field != self.field:
                    raise ValidationFailed(f"{name} over wrong field")
                if part.rows != self.ranks[k + 1] or part.cols != self.ranks[k]:
                    raise ValidationFailed(
                        f"{name} at degree {self.lo + k} has shape "
                        f"{part.rows}x{part.cols}, expected "
                        f"{self.ranks[k + 1]}x{self.ranks[k]}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.ranks) - 1

    def rank_at(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.ranks[i - self.lo]
        return 0

    def d1_at(self, i: int) -> Matrix:
        if self.lo <= i < self.hi:
            return self.d1[i - self.lo]
        return Matrix.zeros(self.field, self.rank_at(i + 1), self.rank_at(i))

    def deps_at(self, i: int) -> Matrix:
        if self.lo <= i < self.hi:
            return self.deps[i - self.lo]
        return Matrix.zeros(self.field, self.rank_at(i + 1), self.rank_at(i))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    degree: Optional[int] = None
    law: Optional[str] = None

    def __str__(self):
        if self.ok:
            return "ok"
        return f"violated {self.law} at degree {self.degree}"


def _times(a: Tuple[Matrix, Matrix], b: Tuple[Matrix, Matrix]) -> Tuple[Matrix, Matrix]:
    """The product of two maps given as (1-part, eps-part) pairs: since
    eps^2 = 0, (a1 + eps ae)(b1 + eps be) = a1 b1 + eps (a1 be + ae b1).
    A product with a zero part (a minimal complex's d1) is not formed."""
    (a1, ae), (b1, be) = a, b
    zero = Matrix.zeros(a1.field, a1.rows, b1.cols)

    def times(x: Matrix, y: Matrix) -> Matrix:
        return zero if x.is_zero or y.is_zero else x @ y

    return times(a1, b1), times(a1, be) + times(ae, b1)


def _d(c: EpsComplex, i: int) -> Tuple[Matrix, Matrix]:
    return c.d1_at(i), c.deps_at(i)


def validate(c: EpsComplex) -> ValidationReport:
    """Check D^2 = 0: the 1-part of D^(i+1) D^i is d1.d1 and its eps part
    d1.deps + deps.d1.  Reports the lowest degree that breaks the first law,
    else the lowest that breaks the second."""
    mixed = None
    for i in range(c.lo, c.hi - 1):
        one, eps = _times(_d(c, i + 1), _d(c, i))
        if not one.is_zero:
            return ValidationReport(False, i, "d1.d1 = 0")
        if mixed is None and not eps.is_zero:
            mixed = i
    if mixed is None:
        return ValidationReport(True)
    return ValidationReport(False, mixed, "d1.deps + deps.d1 = 0")


@dataclass(frozen=True)
class MinimalComplex:
    """A complex whose differential is pure eps: D = eps * deps."""

    field: Field
    lo: int
    ranks: Tuple[int, ...]
    deps: Tuple[Matrix, ...]

    def __post_init__(self):
        as_complex(self)  # reuse the shape validation

    @property
    def hi(self) -> int:
        return self.lo + len(self.ranks) - 1


def as_complex(n: MinimalComplex) -> EpsComplex:
    zero_d1 = tuple(Matrix.zeros(n.field, n.ranks[k + 1], n.ranks[k])
                    for k in range(len(n.ranks) - 1))
    return EpsComplex(n.field, n.lo, n.ranks, zero_d1, n.deps)


def make_minimal(field: Field, lo: int, ranks, deps) -> MinimalComplex:
    """Normal form: the normal form of the sequence (ranks, deps) with both
    tails Zero, which trims zero ranks at the ends."""
    return from_seq(make_seq(field, lo, ranks, deps, Tail.ZERO, Tail.ZERO))


# -- the dictionary with sequences ----------------------------------------


def to_seq(n: MinimalComplex) -> Seq:
    """Minimal complexes are sequences with both tails Zero: D = eps*d_V."""
    return make_seq(n.field, n.lo, n.ranks, n.deps, Tail.ZERO, Tail.ZERO)


def from_seq(v: Seq) -> MinimalComplex:
    """Read a sequence with both tails Zero as a minimal complex; ``v`` is
    already in normal form, so nothing is trimmed."""
    if v.left_tail is not Tail.ZERO or v.right_tail is not Tail.ZERO:
        raise ValidationFailed(
            "only sequences with both tails Zero correspond to finite "
            "complexes of free modules")
    return MinimalComplex(v.field, v.lo, v.dims, v.maps)


# -- cohomology ------------------------------------------------------------


def cohomology(v: Seq) -> Dict[int, int]:
    """dim H^i = dim ker(d^i) + dim cok(d^(i-1)), degree by degree.

    Both tails contribute nothing (zero maps on zero spaces, or signed
    identities), so the support lies inside the window.
    """
    out: Dict[int, int] = {}
    prev_rank = matrix_rank(v.map_at(v.lo - 1))
    for i in range(v.lo, v.hi + 1):
        r = matrix_rank(v.map_at(i))
        out[i] = 2 * v.dim(i) - r - prev_rank
        prev_rank = r
    return out


def total_matrix(d1: Matrix, deps: Matrix) -> Matrix:
    """The differential over k on the underlying 2r-dimensional spaces,
    in the basis (e, eps*e)."""
    f = d1.field
    zero = Matrix.zeros(f, d1.rows, d1.cols)
    return block_matrix(f, [[d1, zero], [deps, d1]])


def eps_cohomology(c: EpsComplex) -> Dict[int, int]:
    """Cohomology dimensions of the complex over k (the underlying total
    complex); homotopy equivalences over k[eps] preserve these."""
    out: Dict[int, int] = {}
    prev_rank = 0
    for i in range(c.lo, c.hi + 1):
        here = total_matrix(c.d1_at(i), c.deps_at(i))
        r = matrix_rank(here)
        out[i] = 2 * c.rank_at(i) - r - prev_rank
        prev_rank = r
    return out


# -- minimal model reduction ------------------------------------------------


@dataclass(frozen=True, eq=False)
class HomotopyEquivalence:
    """Chain maps f: M -> N, g: N -> M and homotopy k with f g = 1 and
    g f - 1 = D k + k D, stored as (1, eps) parts per degree.

    Component index t corresponds to degree M.lo + t; f, g have one entry
    per degree of M's window, k maps degree i to i-1.
    """

    src: EpsComplex
    dst: MinimalComplex
    f1: Tuple[Matrix, ...]
    feps: Tuple[Matrix, ...]
    g1: Tuple[Matrix, ...]
    geps: Tuple[Matrix, ...]
    k1: Tuple[Matrix, ...]
    keps: Tuple[Matrix, ...]

    def _pairs_at(self, n: EpsComplex, i: int) -> list:
        """The (1, eps) pairs of f, g and k at degree i, for n = as_complex(dst):
        index i - src.lo of the stored components, zero beyond them."""
        m, t = self.src, i - self.src.lo
        return [(one[t], eps[t]) if 0 <= t < len(one) else (Matrix.zeros(m.field, r, c),) * 2
                for one, eps, r, c in ((self.f1, self.feps, n.rank_at(i), m.rank_at(i)),
                                       (self.g1, self.geps, m.rank_at(i), n.rank_at(i)),
                                       (self.k1, self.keps, m.rank_at(i - 1), m.rank_at(i)))]

    def verify(self) -> None:
        """Check the four pair identities (module docstring), both parts, in
        every degree from min lo - 1 to max hi + 1."""
        m, n = self.src, as_complex(self.dst)
        lo, hi = min(m.lo, n.lo) - 1, max(m.hi, n.hi) + 1
        (f, g, k), dm_prev = self._pairs_at(n, lo), _d(m, lo - 1)
        for i in range(lo, hi + 1):
            (f_n, g_n, k_n), dm, dn = self._pairs_at(n, i + 1), _d(m, i), _d(n, i)
            rn, one_m = n.rank_at(i), Matrix.identity(m.field, m.rank_at(i))
            dk, kd = _times(dm_prev, k), _times(k_n, dm)
            for name, lhs, rhs in (
                    ("D_N f = f D_M", _times(dn, f), _times(f_n, dm)),
                    ("D_M g = g D_N", _times(dm, g), _times(g_n, dn)),
                    ("f g = 1", _times(f, g),
                     (Matrix.identity(m.field, rn), Matrix.zeros(m.field, rn, rn))),
                    ("g f - 1 = D_M k + k D_M", _times(g, f),
                     (one_m + dk[0] + kd[0], dk[1] + kd[1]))):
                for part, a, b in zip(("1", "eps"), lhs, rhs):
                    if a != b:
                        raise ValidationFailed(f"{name} fails at degree {i} in the {part}-part")
            f, g, k, dm_prev = f_n, g_n, k_n, dm


def minimize(c: EpsComplex) -> Tuple[MinimalComplex, HomotopyEquivalence]:
    """Reduce to a complex with d1 = 0 and certify the reduction.

    Per degree the basis is reordered as P_i = (B_i | H_i | C_i): image of
    the previous d1, a complement of it inside the kernel, and a complement
    of the kernel.  The new basis of B_(i+1) is d1(C_i), which makes d1 the
    identity from the C block to the next B block.  P_i is never formed:
    s = split_map(d1^i) gives the kernel K, C_i = s.comp and s.pker, and
    t = split_map(s.pker B_i) gives H_i = K t.rest and the B and H rows of
    Q_i = P_i^-1, Q_i^B = t.sec s.pker and Q_i^H = t.pi s.pker.  With
    E_i^XY = Q_(i+1)^X deps^i Y_i, the minimal model is the H blocks with
    differential E_i^HH, and

        f1^i = Q_i^H                   feps^i = -E_(i-1)^HC Q_i^B
        g1^i = H_i                     geps^i = -C_i E_i^BH
        k1^i = -C_(i-1) Q_i^B          keps^i = C_(i-1) E_(i-1)^BC Q_i^B

    with the terms of degree lo - 1 or hi + 1 zero (docs/NOTES.md, "Minimal
    models in adapted coordinates").
    """
    report = validate(c)
    if not report.ok:
        raise ValidationFailed(f"cannot minimize: {report}")
    f = c.field
    lo, hi = c.lo, c.hi
    # per degree i = lo + t: the blocks H_i, C_i of P_i, and Q_i^B, Q_i^H
    H, C, QB, QH = [], [], [], []
    b = Matrix.zeros(f, c.rank_at(lo), 0)
    for i in range(lo, hi + 1):
        s = split_map(c.d1_at(i))           # the kernel is everything at i = hi
        beta = s.pker @ b                   # B_i in kernel coordinates
        if s.kernel @ beta != b:
            raise ValidationFailed("internal: vector outside subspace")
        t = split_map(beta)
        if t.rank != b.cols:
            raise ValidationFailed("internal: basis count mismatch")
        H.append(s.kernel @ t.rest)
        C.append(s.comp)
        QB.append(t.sec @ s.pker)
        QH.append(t.pi @ s.pker)
        b = c.d1_at(i) @ s.comp
    deps_n, e_bh, e_hc, e_bc = [], [], [], []
    for t in range(hi - lo):
        dh, dc = c.deps[t] @ H[t], c.deps[t] @ C[t]
        deps_n.append(QH[t + 1] @ dh)
        e_bh.append(QB[t + 1] @ dh)
        e_hc.append(QH[t + 1] @ dc)
        e_bc.append(QB[t + 1] @ dc)
    nmin = make_minimal(f, lo, tuple(h.cols for h in H), deps_n)

    # degree lo has no B block and degree hi no C block
    z, r_lo = Matrix.zeros, c.rank_at(lo)
    feps = (z(f, H[0].cols, r_lo),) + tuple(-e @ qb for e, qb in zip(e_hc, QB[1:]))
    geps = tuple(-cc @ e for cc, e in zip(C, e_bh)) + (z(f, c.rank_at(hi), H[-1].cols),)
    k1 = (z(f, 0, r_lo),) + tuple(-cc @ qb for cc, qb in zip(C, QB[1:]))
    keps = (z(f, 0, r_lo),) + tuple(cc @ e @ qb for cc, e, qb in zip(C, e_bc, QB[1:]))
    he = HomotopyEquivalence(c, nmin, tuple(QH), feps, tuple(H), geps, k1, keps)
    he.verify()
    return nmin, he


# -- homotopy classes of chain maps ------------------------------------------


def hom_k(m: MinimalComplex, n: MinimalComplex) -> Tuple[int, int]:
    """(dim of 1-part chain maps, dim of eps classes) between minimal
    complexes: chain maps are pairs (f1 intertwining deps, feps arbitrary),
    and null-homotopic ones are exactly f1 = 0 with feps of the form
    deps k1 + k1 deps.  These are the kernel of ``d^0`` and the cokernel of
    ``d^-1`` in the Hom complex of ``to_seq(m)`` and ``to_seq(n)``, whose
    hom context has both dimensions."""
    ctx = get_context(to_seq(m), to_seq(n))
    return ctx.dim_hom, ctx.dim_eps
