"""Phantom-morphism detection and a finite derivation harness.

A morphism is phantom when it dies against every truncation inclusion
beta_n: V^(>=n) -> V.  Only the type-eps part can survive that test, and for
a compact source (left tail Zero) the truncations exhaust V, so a phantom
out of a compact object is zero.  For a left-Iso source the vanishing
conditions form a decreasing chain of subspaces of Hom_eps(V, W): level n
is the kernel of the constraint rows of all truncations down to n, kept as
one system in rref that each level extends.  The chain is certified
empirically by requiring three consecutive equal levels, and it is kept
on the hom context of the pair once it has stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import StabilizationDepthExceeded, ValidationFailed
from .hom import (HatMorphism, _require_one_field, compose_hat, get_context,
                  zero_hat)
from .linalg import _dict_rows, _kernel_vectors, _reduce_vec, _rref, _solve_rows
from .seq import Seq, Tail
from .triang import inclusion_element


@dataclass(frozen=True)
class PhantomCertificate:
    """Stabilization record: kernel dimension per truncation level.

    The chain is accepted after three consecutive equal levels.  That rule
    is empirical: no bound is proven that the chain cannot drop again
    further down, unlike the hom window margin (``dualseq.hom``).
    """

    levels: Tuple[Tuple[int, int], ...]   # (n, dim of kernel at level n)
    stable_run: int

    def __str__(self):
        trail = ", ".join(f"n={n}: {d}" for n, d in self.levels)
        return f"stable after {len(self.levels)} levels ({trail})"


@dataclass(frozen=True)
class PhantomVerdict:
    phantom: bool
    reason: str
    certificate: Optional[PhantomCertificate] = None


_STABLE_RUN = 3


def _require_depth(depth: int) -> None:
    if depth < 1:
        raise ValidationFailed(f"phantom depth must be at least 1, got {depth}")


def _require_h_projective(v: Seq, w: Seq) -> None:
    # h-projective means a Zero right tail (``barcode.classify``)
    if v.right_tail is not Tail.ZERO or w.right_tail is not Tail.ZERO:
        raise ValidationFailed("phantom detection requires h-projective endpoints")


def _kernel_chain(v: Seq, w: Seq, depth: int):
    """Stable subspace of classes killed by every truncation inclusion, as
    coordinate dict rows in rref, with its level-by-level certificate.

    The chain is an invariant of the pair, so the first call that
    stabilizes keeps it on the hom context of (V, W) (``phantom_chain``),
    and every call gets copies of the kept rows.  A call whose ``depth`` is
    below the number of levels the chain took raises, as the loop of
    ``_stable_chain`` would after ``depth`` levels."""
    ctx = get_context(v, w)
    if ctx.phantom_chain is None:
        ctx.phantom_chain = _stable_chain(ctx, v, w, depth)
    rows, cert = ctx.phantom_chain
    if depth < len(cert.levels):
        raise StabilizationDepthExceeded(
            f"phantom chain did not stabilize within {depth} truncation levels", depth)
    return [dict(r) for r in rows], ctx, cert


def _stable_chain(ctx, v: Seq, w: Seq, depth: int):
    """The chain of ``_kernel_chain``, run level by level.

    Each level ``n`` contributes one constraint row over the eps coordinates
    of Hom_eps(V, W) per eps coordinate of Hom_eps(V^(>=n), W).  The rows of
    all levels so far are one system, held in rref: a class is killed at
    every level so far exactly when it lies in the kernel of that system,
    so the dimension of a level is ``k`` minus its rank.  The stable rows
    are the rref basis of the final kernel."""
    k = ctx.dim_eps
    if k == 0:
        return (), PhantomCertificate(((v.lo, 0),), _STABLE_RUN)
    reps = ctx.eps_basis()
    f = ctx.field
    system, rank_ = [], 0
    levels = []
    run = 0
    # the chain is decreasing, so levels above both windows are redundant:
    # start where the truncation point has passed all finite structure
    n = min(v.lo, w.lo) - 1
    for step in range(depth):
        incl = inclusion_element(v, n)
        tctx = get_context(incl.src, w)
        cols = [tctx.eps_coords_at(lambda i, e=rep.component: e(i) @ incl.component(i))
                for rep in reps]
        system += _dict_rows(zip(*cols))
        new_rank, pivots = _rref(f, system, k)
        del system[new_rank:]
        run = run + 1 if new_rank == rank_ else 1
        rank_ = new_rank
        levels.append((n, k - rank_))
        if run >= _STABLE_RUN:
            rows = _dict_rows(_kernel_vectors(f, system, pivots, k))
            _rref(f, rows, k)           # in place: the rref basis of the kernel
            return tuple(rows), PhantomCertificate(tuple(levels), _STABLE_RUN)
        n -= 1
    raise StabilizationDepthExceeded(
        f"phantom chain did not stabilize within {depth} truncation levels", depth)


def is_phantom(h: HatMorphism, depth: int = 12) -> PhantomVerdict:
    """Decide phantomness of a morphism between h-projective objects."""
    _require_depth(depth)
    v, w = h.src, h.dst
    _require_h_projective(v, w)
    if not h.is_type_eps and not h.is_zero:
        return PhantomVerdict(False, "type-1 part is nonzero")
    if v.left_tail is Tail.ZERO:
        return PhantomVerdict(h.is_zero, "compact source: phantom iff zero")
    rows, ctx, cert = _kernel_chain(v, w, depth)
    coords = ctx.eps_coords(h.feps)
    if not any(coords):
        return PhantomVerdict(True, "zero class", cert)
    # the class lies in the stable space when the rref rows (each pivot
    # its least column) reduce it to zero; they are only read
    if not any(_reduce_vec(ctx.field, rows, [min(r) for r in rows], coords)):
        return PhantomVerdict(True, "class killed by every truncation", cert)
    return PhantomVerdict(False, "survives some truncation inclusion", cert)


def phantom_basis(v: Seq, w: Seq,
                  depth: int = 12) -> Tuple[List[HatMorphism], PhantomCertificate]:
    """Basis of the phantom subspace of Hom_eps(v, w)."""
    _require_depth(depth)
    _require_h_projective(v, w)
    if v.left_tail is Tail.ZERO:
        _require_one_field(v, w)
        return [], PhantomCertificate(((v.lo, 0),), _STABLE_RUN)
    rows, ctx, cert = _kernel_chain(v, w, depth)
    zero = ctx.field.zero
    return [ctx.eps_hat([r.get(j, zero) for j in range(ctx.dim_eps)]) for r in rows], cert


# -- finite diagrams and derivations ---------------------------------------


@dataclass(frozen=True, eq=False)
class Diagram:
    """Named objects, named generating morphisms, and a composition table.

    Each relation (outer, inner, equals) asserts that the composite
    generators[outer] . generators[inner] equals generators[equals]; the
    assertion is checked exactly at construction time.
    """

    objects: Mapping[str, Seq]
    generators: Mapping[str, Tuple[str, str, HatMorphism]]
    relations: Tuple[Tuple[str, str, str], ...] = ()

    def __post_init__(self):
        for name, (sn, dn, mor) in self.generators.items():
            if sn not in self.objects or dn not in self.objects:
                raise ValidationFailed(f"generator {name}: unknown endpoint name")
            if mor.src != self.objects[sn] or mor.dst != self.objects[dn]:
                raise ValidationFailed(f"generator {name}: endpoints do not match")
        for outer, inner, equals in self.relations:
            for nm in (outer, inner, equals):
                if nm not in self.generators:
                    raise ValidationFailed(f"relation references unknown generator {nm}")
            go = self.generators[outer][2]
            gi = self.generators[inner][2]
            ge = self.generators[equals][2]
            if gi.dst != go.src:
                raise ValidationFailed(
                    f"relation ({outer}, {inner}): generators not composable")
            if compose_hat(go, gi) != ge:
                raise ValidationFailed(
                    f"relation ({outer}, {inner}) = {equals} does not hold")


@dataclass(frozen=True, eq=False)
class Derivation:
    """Assignment of a type-eps value to every generator of a diagram."""

    diagram: Diagram
    assignment: Mapping[str, HatMorphism]

    def __post_init__(self):
        full = dict(self.assignment)
        extra = sorted(full.keys() - self.diagram.generators.keys())
        if extra:
            raise ValidationFailed(f"derivation value on {extra[0]}: not a generator")
        for name, (sn, dn, mor) in self.diagram.generators.items():
            if name not in full:
                full[name] = zero_hat(mor.src, mor.dst)
            val = full[name]
            if not (val.is_type_eps or val.is_zero):
                raise ValidationFailed(f"derivation value on {name} must be type-eps")
            if val.src != mor.src or val.dst != mor.dst:
                raise ValidationFailed(f"derivation value on {name}: endpoint mismatch")
        object.__setattr__(self, "assignment", full)

    def at(self, name: str) -> HatMorphism:
        return self.assignment[name]


def check_derivation(diag: Diagram, der: Derivation) -> Optional[Tuple[str, str, str]]:
    """Leibniz check over the composition table; None when every declared
    composite satisfies D(g.f) = D(g).f + g.D(f)."""
    for outer, inner, equals in diag.relations:
        g = diag.generators[outer][2]
        f = diag.generators[inner][2]
        lhs = der.at(equals)
        rhs = compose_hat(der.at(outer), f) + compose_hat(g, der.at(inner))
        if lhs != rhs:
            return (outer, inner, equals)
    return None


def inner_derivation(diag: Diagram, theta: Mapping[str, HatMorphism]) -> Derivation:
    """The derivation D(f) = f.theta_src - theta_dst.f induced by per-object
    type-eps endomorphisms."""
    def theta_at(nm):   # the zero of an object theta leaves out, built only then
        return theta[nm] if nm in theta else zero_hat(diag.objects[nm], diag.objects[nm])

    assignment = {}
    for name, (sn, dn, mor) in diag.generators.items():
        assignment[name] = compose_hat(mor, theta_at(sn)) - compose_hat(theta_at(dn), mor)
    return Derivation(diag, assignment)


def solve_inner(diag: Diagram, der: Derivation) -> Optional[Dict[str, HatMorphism]]:
    """Realize a derivation as inner, if the finite linear system allows it.

    Unknowns are the coordinates of theta_V in Hom_eps(V, V) for every
    object; each generator contributes one block of equations.  Returns the
    canonical solution (free coordinates zero), or None.
    """
    names = sorted(diag.objects)
    ctxs = {nm: get_context(diag.objects[nm], diag.objects[nm]) for nm in names}
    offs = {}
    total = 0
    for nm in names:
        offs[nm] = total
        total += ctxs[nm].dim_eps
    rows: List[dict] = []
    f = None
    for gname in sorted(diag.generators):
        sn, dn, mor = diag.generators[gname]
        pctx = get_context(mor.src, mor.dst)
        f = pctx.field
        # one dict row per eps coordinate of the generator, the RHS in column total
        block = [{total: y} if y else {} for y in pctx.eps_coords(der.at(gname).feps)]
        f1 = mor.f1.component
        cols = [(offs[sn] + j, 1, lambda i, e=rep.component: f1(i) @ e(i))
                for j, rep in enumerate(ctxs[sn].eps_basis())]
        cols += [(offs[dn] + j, -1, lambda i, e=rep.component: e(i) @ f1(i))
                 for j, rep in enumerate(ctxs[dn].eps_basis())]
        for c, sign, g_at in cols:
            for row, x in zip(block, pctx.eps_coords_at(g_at)):
                if x:
                    row[c] = row.get(c, 0) + sign * x
        rows += [{c: y for c, x in row.items() if (y := f.coerce(x))} for row in block]
    if f is None:
        return {nm: zero_hat(diag.objects[nm], diag.objects[nm]) for nm in names}
    sol = _solve_rows(f, rows, total, 1)
    if sol is None:
        return None
    return {nm: ctxs[nm].eps_hat(sol[offs[nm]:offs[nm] + ctxs[nm].dim_eps]) for nm in names}
