"""Phantom-morphism detection and a finite derivation harness.

A morphism is phantom when it dies against every truncation inclusion
beta_n: V^(>=n) -> V.  Only the type-eps part can survive that test, and for
a compact source (left tail Zero) the truncations exhaust V, so a phantom
out of a compact object is zero.  For a left-Iso source the vanishing
conditions form a decreasing chain of subspaces of Hom_eps(V, W); the chain
is certified empirically by requiring three consecutive equal levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .barcode import classify
from .errors import StabilizationDepthExceeded, ValidationFailed
from .graded import compose
from .hom import (HatMorphism, _require_one_field, compose_hat, get_context,
                  hat_eps, zero_hat)
from .linalg import Matrix, _rref, reduce_row_mod, solve, subspaces
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


def _require_h_projective(v: Seq, w: Seq) -> None:
    if not classify(v).h_projective or not classify(w).h_projective:
        raise ValidationFailed("phantom detection requires h-projective endpoints")


def _kernel_chain(v: Seq, w: Seq, depth: int):
    """Stable subspace of classes killed by every truncation inclusion, as
    coordinate rows in rref with their pivots, with its level-by-level
    certificate."""
    ctx = get_context(v, w)
    k = ctx.dim_eps
    if k == 0:
        return [], (), ctx, PhantomCertificate(((v.lo, 0),), _STABLE_RUN)
    reps = [e for e in ctx.eps_basis()]
    f = ctx.field
    # current subspace of coordinate space k^k, held as rref rows
    rows = [[f.one if i == j else f.zero for j in range(k)] for i in range(k)]
    pivots = list(range(k))
    levels = []
    run = 0
    # the chain is decreasing, so levels above both windows are redundant:
    # start where the truncation point has passed all finite structure
    n = min(v.lo, w.lo) - 1
    for step in range(depth):
        incl = inclusion_element(v, n)
        tctx = get_context(incl.src, w)
        cols = [tctx.eps_coords(compose(rep, incl)) for rep in reps]
        constraint = [[cols[j][r] for j in range(k)] for r in range(len(cols[0]))] \
            if cols and cols[0] else []
        # kernel of the constraint matrix, intersected with the running space
        work = list(constraint)
        if work:
            m = Matrix(f, len(work), k, tuple(x for row in work for x in row))
            ker = subspaces(m).kernel
            cand = [ker.col(j) for j in range(ker.cols)]
        else:
            cand = [[f.one if i == j else f.zero for j in range(k)] for i in range(k)]
        inter = _intersect(rows, cand, f, k)
        new_rows, new_pivots = inter
        if len(new_rows) == len(rows):
            run += 1
        else:
            run = 1
        rows, pivots = new_rows, new_pivots
        levels.append((n, len(rows)))
        if run >= _STABLE_RUN:
            return rows, pivots, ctx, PhantomCertificate(tuple(levels), _STABLE_RUN)
        n -= 1
    raise StabilizationDepthExceeded(
        f"phantom chain did not stabilize within {depth} truncation levels", depth)


def _intersect(rows, cand_vecs, f, width):
    """Intersection of a subspace given by rref rows with the span of
    candidate vectors; both live in k^width.  Returns new rref rows/pivots."""
    # express: x in span(rows) and x in span(cand): solve stacked system
    a_cols = [list(r) for r in rows]
    b_cols = [list(c) for c in cand_vecs]
    if not a_cols or not b_cols:
        return [], []
    big = Matrix(f, width, len(a_cols) + len(b_cols),
                 tuple(f.coerce(x) for i in range(width)
                       for x in ([a[i] for a in a_cols] + [b[i] for b in b_cols])))
    ker = subspaces(big).kernel
    vecs = []
    for j in range(ker.cols):
        coeffs = ker.col(j)[:len(a_cols)]
        vec = [f.zero] * width
        for c, basis_row in zip(coeffs, a_cols):
            if c:
                for i in range(width):
                    term = c * basis_row[i]
                    vec[i] = vec[i] + term
        if f.p is not None:
            vec = [x % f.p for x in vec]
        vecs.append(vec)
    rank, pivots = _rref(f, vecs, width)
    return vecs[:rank], pivots


def _member(rows, pivots, vec, f, width) -> bool:
    red = reduce_row_mod(list(vec), rows, pivots, f)
    return all(x == f.zero for x in red)


def is_phantom(h: HatMorphism, depth: int = 12) -> PhantomVerdict:
    """Decide phantomness of a morphism between h-projective objects."""
    v, w = h.src, h.dst
    _require_h_projective(v, w)
    if not h.is_type_eps and not h.is_zero:
        return PhantomVerdict(False, "type-1 part is nonzero")
    if v.left_tail is Tail.ZERO:
        return PhantomVerdict(h.is_zero, "compact source: phantom iff zero")
    rows, pivots, ctx, cert = _kernel_chain(v, w, depth)
    coords = ctx.eps_coords(h.feps)
    if all(c == ctx.field.zero for c in coords):
        return PhantomVerdict(True, "zero class", cert)
    ok = rows and _member(rows, pivots, coords, ctx.field, ctx.dim_eps)
    if ok:
        return PhantomVerdict(True, "class killed by every truncation", cert)
    return PhantomVerdict(False, "survives some truncation inclusion", cert)


def phantom_basis(v: Seq, w: Seq,
                  depth: int = 12) -> Tuple[List[HatMorphism], PhantomCertificate]:
    """Basis of the phantom subspace of Hom_eps(v, w)."""
    _require_h_projective(v, w)
    if v.left_tail is Tail.ZERO:
        _require_one_field(v, w)
        return [], PhantomCertificate(((v.lo, 0),), _STABLE_RUN)
    rows, _, ctx, cert = _kernel_chain(v, w, depth)
    return [hat_eps(ctx.eps_from_coords(r)) for r in rows], cert


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
    assignment = {}
    for name, (sn, dn, mor) in diag.generators.items():
        t_src = theta.get(sn, zero_hat(diag.objects[sn], diag.objects[sn]))
        t_dst = theta.get(dn, zero_hat(diag.objects[dn], diag.objects[dn]))
        assignment[name] = compose_hat(mor, t_src) - compose_hat(t_dst, mor)
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
    rows: List[list] = []
    rhs: List = []
    f = None
    for gname in sorted(diag.generators):
        sn, dn, mor = diag.generators[gname]
        pctx = get_context(mor.src, mor.dst)
        f = pctx.field
        target = pctx.eps_coords(der.at(gname).feps)
        ncoords = len(target)
        block = [[f.zero] * total for _ in range(ncoords)]
        for j, rep in enumerate(ctxs[sn].eps_basis()):
            col = pctx.eps_coords(compose(mor.f1, rep))
            for r in range(ncoords):
                block[r][offs[sn] + j] = block[r][offs[sn] + j] + col[r]
        for j, rep in enumerate(ctxs[dn].eps_basis()):
            col = pctx.eps_coords(compose(rep, mor.f1))
            for r in range(ncoords):
                cur = block[r][offs[dn] + j] - col[r]
                block[r][offs[dn] + j] = cur
        if f.p is not None:
            block = [[x % f.p for x in row] for row in block]
        rows.extend(block)
        rhs.extend(target)
    if f is None:
        return {nm: zero_hat(diag.objects[nm], diag.objects[nm]) for nm in names}
    a = Matrix(f, len(rows), total, tuple(x for row in rows for x in row))
    b = Matrix.column(f, rhs)
    sol = solve(a, b)
    if sol is None:
        return None
    out = {}
    for nm in names:
        k = ctxs[nm].dim_eps
        coords = [sol.entry(offs[nm] + j, 0) for j in range(k)]
        out[nm] = hat_eps(ctxs[nm].eps_from_coords(coords))
    return out
