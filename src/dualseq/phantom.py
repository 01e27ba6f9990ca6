"""Phantom-morphism detection and a finite derivation harness.

A morphism is phantom when it dies against every truncation inclusion
beta_n: V^(>=n) -> V.  Only the type-eps part can survive that test, and a
phantom out of a compact source (left tail Zero) is zero, since the
truncations exhaust it.  Between h-projective objects every phantom is
zero: beta_n^*: Hom_eps(V, W) -> Hom_eps(V^(>=n), W) is injective for n <= w.lo.

Proof.  Take f o beta_n = d^-1(h') with h' in Hom^-1(V^(>=n), W).  Keep
h^i = h'^i for i >= n, and for i < n solve f^i = d_W^(i-1) h^i + h^(i+1) d_V^i
downward.  Since i <= n - 1 < w.lo, the left tail of W decides each step:
for a Zero tail W^i = 0, so f^i = 0 and h^i = 0 works (h'^n maps into
W^(n-1) = 0 too); for an Iso tail d_W^(i-1) is a signed identity, so
h^i = (d_W^(i-1))^-1 (f^i - h^(i+1) d_V^i).  So f = d^-1(h) and [f] = 0.
The margin proof in ``dualseq.hom`` shows that the windowed Hom_eps is this
cokernel on all of Z.

The answers keep the form of the kernel chain that once computed them
(``kernel_chain`` in ``tests/oracles.py``): level n, the classes killed by
every truncation from n0 = min(v.lo, w.lo) - 1 down to n, accepted after
three equal levels.  Each such n is at most w.lo, so the certificate is
``((n0, 0), (n0-1, 0), (n0-2, 0))`` when Hom_eps(V, W) is nonzero, else
``((v.lo, 0),)``, and a ``depth`` below its length raises, as the chain did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import StabilizationDepthExceeded, ValidationFailed
from .hom import (HatMorphism, HomContext, _require_one_field, _vanishes,
                  compose_hat, get_context, zero_hat)
from .linalg import _solve_rows
from .seq import Seq, Tail


@dataclass(frozen=True)
class PhantomCertificate:
    """Stabilization record: kernel dimension per truncation level.

    Every level is proven 0 (module docstring), not sampled: the record
    has the form of the three equal levels the kernel chain accepted.
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


def _require_valid(v: Seq, w: Seq, depth: int) -> None:
    if depth < 1:
        raise ValidationFailed(f"phantom depth must be at least 1, got {depth}")
    # h-projective means a Zero right tail (``barcode.classify``)
    if v.right_tail is not Tail.ZERO or w.right_tail is not Tail.ZERO:
        raise ValidationFailed("phantom detection requires h-projective endpoints")


def _certificate(ctx: HomContext, depth: int) -> PhantomCertificate:
    """The proven levels of the pair of ``ctx`` (module docstring)."""
    v, w = ctx.src, ctx.dst
    n0 = min(v.lo, w.lo) - 1
    levels = (tuple((n0 - j, 0) for j in range(_STABLE_RUN)) if ctx.dim_eps
              else ((v.lo, 0),))
    if depth < len(levels):
        raise StabilizationDepthExceeded(
            f"phantom chain did not stabilize within {depth} truncation levels", depth)
    return PhantomCertificate(levels, _STABLE_RUN)


def is_phantom(h: HatMorphism, depth: int = 12) -> PhantomVerdict:
    """Decide phantomness of a morphism between h-projective objects."""
    v, w = h.src, h.dst
    _require_valid(v, w, depth)
    if not h.is_type_eps and not h.is_zero:
        return PhantomVerdict(False, "type-1 part is nonzero")
    if v.left_tail is Tail.ZERO:
        return PhantomVerdict(h.is_zero, "compact source: phantom iff zero")
    ctx = get_context(v, w)
    cert = _certificate(ctx, depth)
    if not any(ctx.eps_coords(h.feps)):
        return PhantomVerdict(True, "zero class", cert)
    return PhantomVerdict(False, "survives some truncation inclusion", cert)


def phantom_basis(v: Seq, w: Seq,
                  depth: int = 12) -> Tuple[List[HatMorphism], PhantomCertificate]:
    """Basis of the phantom subspace of Hom_eps(v, w), which is 0 (module
    docstring), with its certificate."""
    _require_valid(v, w, depth)
    if v.left_tail is Tail.ZERO:
        _require_one_field(v, w)
        return [], PhantomCertificate(((v.lo, 0),), _STABLE_RUN)
    return [], _certificate(get_context(v, w), depth)


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
    composite satisfies D(g.f) = D(g).f + g.D(f).  Values of D are type eps,
    so ``hom._vanishes`` decides each relation from the type-1 part of
    D(g.f), zero, and the blocks D(g.f)_eps - D(g)_eps f_1 - g_1 D(f)_eps."""
    for outer, inner, equals in diag.relations:
        g1 = diag.generators[outer][2].f1.component
        f1 = diag.generators[inner][2].f1.component
        dg, df = der.at(outer).feps.component, der.at(inner).feps.component
        lhs = der.at(equals)
        dgf = lhs.feps.component
        if not _vanishes(lhs.src, lhs.dst, lhs.f1.lo, lhs.f1.hi, lhs.f1.component,
                         lambda i: dgf(i) - dg(i) @ f1(i) - g1(i) @ df(i)):
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
