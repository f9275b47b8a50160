"""Poisson-operator deformations, defining-equation residuals, homogeneity.

The defining property of the hierarchy's Hamiltonian operator A is

    sum_{xi,k} A_k[b,xi] d^k delta_xi (a,p+1; unit,0)  =  dx (a,p; b,0)

for all (a, p, b).  Deforming both the table entries and the operator along
an upper-triangular generator and linearizing yields an inhomogeneous
equation for the operator deformation; this module implements its explicit
solution (the paper's twelve blocks, built from table entries, triple
correlators and the undeformed operator; the right-hand blocks read the
higher Euler operators only through one cell, E_g of `diffop.euler_cell`,
and blocks 5 and 7, and 3 and 6, are one term each), the one-block
solution for lower-triangular generators, the dispatch between them by
generator kind (`bracket_deformation`), and the residual evaluator that
certifies both against the defining equation; its undeformed case gives
the genus-0 uniqueness residuals.  It also houses the weighted-degree
homogeneity checker and the two operator-commutation identities used by
the derivation, exposed as seeded property checks.

The block sum of the upper deformation runs over all integer splittings
i + j = level - 1; the extension convention for negative descendant indices
makes all but the window i in [-1, level] vanish, and the boundary
splittings carry the linear terms of the table deformation.  This window is
load-bearing: dropping the boundary terms breaks the defining equation.
Blocks 2, 10, 11 and 12 are linear in the triple correlators, so they run
once, on the correlators summed over the window, and the left factors of
blocks 1, 4, 8 and 10 are summed too and composed with A once per (beta, g).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .diffop import DiffOperator, apply_entry, commutator, euler_cell, finish, is_skew, leibniz
from .givental import (
    GiventalGen,
    OmegaTable,
    _sgn,
    entry_deformation,
    r_deform_omega,  # noqa: F401  (perfbench's tracer test reads bracket.r_deform_omega)
    triple_omega,
)
from .jetcalc import HbarSeries, JetPoly, Sum, evolve


class PoissonOp:
    """Skew operator defining a local Poisson bracket.

    Operators arising from hierarchy data carry no order-0 term; that is
    enforced.  The deformations and residuals read only `op`.
    """

    __slots__ = ("op",)

    def __init__(self, op: DiffOperator):
        for a in range(1, op.dim + 1):
            for b in range(1, op.dim + 1):
                if not op.coeff(a, b, 0).is_zero():
                    raise ValueError("Poisson operator must have no order-0 term")
        if not is_skew(op):
            raise ValueError("Poisson operator must be skew-adjoint")
        self.op = op

    @staticmethod
    def dx(dim: int, trunc: int) -> "PoissonOp":
        return PoissonOp(DiffOperator.dx_op(dim, trunc))


# ---------------------------------------------------------------------------
# upper-kind operator deformation
# ---------------------------------------------------------------------------

def r_deform_bracket(table: OmegaTable, pop: PoissonOp, gen: GiventalGen) -> DiffOperator:
    """Operator deformation for an upper generator (the twelve-block solution).

    The result, together with the table deformation of the same generator,
    satisfies the linearized defining equation; `def_a_residual` certifies
    this exactly.  Every block is linear in the factors that carry the
    second color nu, so the blocks run once per splitting (i, j) and color
    mu, on those factors contracted with the row M[mu][.], with factor
    c = (-1)^(i+1): o = sum_nu M[mu][nu] (unit,0; nu,j) = dx P, the
    `UpperDeformation.right` factors sum_nu M[mu][nu] (nu,j; beta,0) at j
    and, under dx, at j-1 (read as (beta,0; nu,j), so the table must be
    symmetric, as built tables are by construction), and hbar/2 times the triple
    correlators sum_nu M[mu][nu] (z,0; mu,i; nu,j), summed with c over the
    window into t3[z].  A triple correlator does not depend on the order of
    its indices, and the window meets one index multiset several times (at
    i and at l-1-i, and at i = 0 from z and from mu), so each is evaluated,
    with its three-pick check, once per sorted multiset through a dict
    local to the call.  With f_xi = (mu,i; xi,0) and the higher-Euler cell
    E_g of `diffop.euler_cell`: blocks 5 and 7 are one term, c (A[beta,g] o
    E_g(o) without its order-0 term, every order lowered by one) o f_xi d;
    blocks 3 and 6 are one term, -c [A[beta,g] o E_g(f_xi), P] o d
    (`diffop.commutator`), where E_g(f_xi) is built only for the colors g
    of f_xi and skipped where empty; block 9 adds directly.  Blocks 1, 4
    and 8 give left factors of the row A[g, .], summed per (beta, g) over
    the window.  The blocks linear in t3 run once,
    after the window: block 10 adds the left factor d o sum_n
    dt3[beta]/dw[g,n] d^n, and the left factors are composed with A once
    per (beta, g); block 11 is -A[beta,g] o E_g(t3[xi]) o d; blocks 2 and 12
    move A's coefficients along the linear transport field and dx t3.
    Every composition is `diffop.leibniz`.
    """
    if gen.kind != "r":
        raise ValueError("upper-kind generator required")
    A = pop.op
    s, ell = table.dim, gen.level
    colors = range(1, s + 1)
    deform = entry_deformation(table, gen)  # the table's, shared with the entry deformations
    acc = {(b, x): defaultdict(Sum) for b in colors for x in colors}
    a_cells = {(b, x): A.entry(b, x) for b in colors for x in colors}
    # block 9 reads the cells of A of order >= 2 only
    high = [(g, xi, k, ac) for (g, xi), cell in a_cells.items()
            for k, ac in cell.items() if k >= 2]
    high_colors = sorted({g for g, _, _, _ in high})
    left = {(b, g): defaultdict(Sum) for b in colors for g in colors}
    t3_sum = {z: Sum() for z in colors}
    triples = {}  # sorted index multiset -> its correlator, for this call only
    for t in t3_sum.values():
        t.add(HbarSeries.zero(table.trunc))

    for i in range(-1, ell + 1):
        j = ell - 1 - i
        cfac = _sgn(i + 1)
        for mu in colors:
            row = [(nu, m) for nu, m in enumerate(gen.matrix[mu - 1], 1) if m]
            if not row:
                continue
            o_mu_i = table.unit_ext(mu, i)            # (mu,i; unit,0)
            o_mu_i1 = table.unit_ext(mu, i + 1)       # (mu,i+1; unit,0)
            fs = {xi: table.ext(mu, i, xi, 0) for xi in colors}
            # E_g(f_xi) is empty unless color g occurs in f_xi
            e_f = {(g, xi): euler_cell(fs[xi], g) for xi in colors
                   for g in {g for g, _ in fs[xi].variables()}}
            o = deform.unit_right(mu, j)
            halves = [(nu, cfac * m / 2) for nu, m in row]
            for z in colors:
                for nu, k in halves:
                    idx = tuple(sorted([(z, 0), (mu, i), (nu, j)]))
                    t = triples.get(idx)
                    if t is None:
                        t = triples[idx] = triple_omega(table, *idx)
                    t3_sum[z].add(t, k, shift=1)
            # block 9's products A_k[g,xi] delta_g (mu,i+1; unit,0), k >= 2
            grads = {g: o_mu_i1.var_deriv(g) for g in high_colors}
            b9 = [(xi, k, ac * grads[g]) for g, xi, k, ac in high if grads[g]]

            for beta in colors:
                # blocks 1, 4 and 8: left factors of the row A[g, .]
                f1 = fs[beta]
                f4 = deform.right(mu, j, beta, 0)
                pre = deform.right(mu, j - 1, beta, 0).dx()
                for (g, n) in sorted(f1.variables()):
                    left[(beta, g)][n].add_product(o, f1.partial(g, n), cfac)
                if f4:
                    for (g, n) in sorted(o_mu_i.variables()):
                        left[(beta, g)][n].add_product(f4, o_mu_i.partial(g, n), cfac)
                if pre:
                    for (g, m) in sorted(o_mu_i1.variables()):
                        dpart = o_mu_i1.partial(g, m)
                        for u in range(m):
                            left[(beta, g)][m - 1 - u].add_product(pre, dpart.dx_pow(u),
                                                                   -cfac * _sgn(u))
                    # block 9: boundary transport with the shifted index
                    for xi, k, prod in b9:
                        for f in range(2, k + 1):
                            acc[(beta, xi)][f - 1].add_product(pre, prod.dx_pow(k - f),
                                                               -cfac * _sgn(k - f))

            # blocks 3, 5, 6 and 7: right factors of the column A[., g]
            o_colors = {g for g, _ in o.variables()}
            for g in colors:
                e_o = euler_cell(o, g) if g in o_colors else {}
                for beta in colors:
                    cell = {k: cfac * a for k, a in a_cells[(beta, g)].items()}
                    if not cell:
                        continue
                    low = {k - 1: c for k, c in finish(leibniz(cell, e_o)).items() if k > 0}
                    for xi in colors:
                        out = acc[(beta, xi)]
                        if fs[xi]:   # blocks 5 and 7
                            leibniz(low, {1: fs[xi]}, out)
                        e = e_f.get((g, xi))
                        if e:   # blocks 3 and 6, before the final d
                            right = commutator(finish(leibniz(cell, e)), o)
                            for k, c in finish(right).items():
                                out[k + 1].add(c, -1)

    t3 = {z: t.value() for z, t in t3_sum.items()}
    for beta in colors:   # block 10
        for (g, n) in sorted(t3[beta].variables()):
            leibniz({1: 1}, {n: t3[beta].partial(g, n)}, left[(beta, g)])
    # blocks 1, 4, 8 and 10, composed with the row A[g, .]
    for (beta, g), cell in left.items():
        lg = finish(cell)
        for xi in colors:
            if lg and a_cells[(g, xi)]:
                leibniz(lg, a_cells[(g, xi)], acc[(beta, xi)])
    # E_g(t3[xi]) is empty unless color g occurs in t3[xi]
    e_t = {(g, xi): euler_cell(t3[xi], g) for xi in colors
           for g in {g for g, _ in t3[xi].variables()}}
    for (beta, g), cell in a_cells.items():   # block 11, before the final d
        for xi in colors:
            e = e_t.get((g, xi))
            if e:
                for k, c in finish(leibniz(cell, e)).items():
                    acc[(beta, xi)][k + 1].add(c, -1)

    # blocks 2 and 12 on the window sums
    flows = {z: t.dx() for z, t in t3.items()}
    for (beta, xi), cell in a_cells.items():
        for k, ac in cell.items():
            move = acc[(beta, xi)][k]
            move.add(evolve(ac, flows), -1)
            deform.transport(ac, move, -1)

    return DiffOperator(s, table.trunc, {key: finish(cell) for key, cell in acc.items()})


def s_deform_bracket(pop: PoissonOp, gen: GiventalGen) -> DiffOperator:
    """Operator deformation for a lower generator: only level 1 contributes."""
    if gen.kind != "s":
        raise ValueError("lower-kind generator required")
    A = pop.op
    if gen.level != 1:
        return DiffOperator.zero(A.dim, A.trunc)
    shift = gen.unit_shift(A.trunc)
    entries: dict[tuple[int, int], dict] = {}
    for (beta, xi), k, coeff in A.entries():
        entries.setdefault((beta, xi), {})[k] = -evolve(coeff, shift)
    return DiffOperator(A.dim, A.trunc, entries)


def bracket_deformation(table: OmegaTable, pop: PoissonOp,
                        gen: GiventalGen) -> DiffOperator:
    """The operator deformation along `gen`, of either kind."""
    if gen.kind == "r":
        return r_deform_bracket(table, pop, gen)
    return s_deform_bracket(pop, gen)


# ---------------------------------------------------------------------------
# defining-equation residual
# ---------------------------------------------------------------------------

def unit_sum_grads(table: OmegaTable, pop: PoissonOp, deformed: dict,
                   dP: DiffOperator, a: int, p: int) -> list:
    """The two terms [(dP, {g: delta_g undeformed}), (A, {g: delta_g deformed})]
    of the linearized relation at (a, p), with the variational derivatives
    of the unit sums (a, p+1; unit, 0) for every color g whose column of
    the operator has a nonzero cell.  `deformed` must supply (a, p+1, c, 0)
    for every color c.  They do not depend on the color b of a residual, so
    `defining_equation_residuals` builds them once per (a, p).
    """
    colors = range(1, table.dim + 1)
    undeformed_u = table.unit_ext(a, p + 1)
    deformed_u = Sum()
    for c in colors:
        deformed_u.add(deformed[(a, p + 1, c, 0)])
    deformed_u = deformed_u.value()

    def used(op: DiffOperator, g: int) -> bool:
        return any(op.entry(b, g) for b in colors)

    return [(dP, {g: undeformed_u.var_deriv(g) for g in colors if used(dP, g)}),
            (pop.op, {g: deformed_u.var_deriv(g) for g in colors if used(pop.op, g)})]


def def_a_residual(terms: list, entry: HbarSeries, b: int) -> HbarSeries:
    """Defining-relation residual at (a, p, b); zero certifies.

    It is dx entry - sum_{g,k} B_k[b,g] dx^k grads[g], summed over the
    `terms` [(B, grads)].  Linearized, `entry` is the deformed table entry
    (a, p, b, 0) and `terms` the `unit_sum_grads` at (a, p).
    """
    res = Sum()
    res.add(entry.dx())
    for op, grads in terms:
        for g in range(1, op.dim + 1):
            for k, c in op.entry(b, g).items():
                res.add_product(c, grads[g].dx_pow(k), -1)
    return res.value()


def deformed_entries_for_residual(table: OmegaTable, gen: GiventalGen,
                                  pmax: int) -> dict:
    """Table deformations `def_a_residual` needs at every (a, p <= pmax).

    Each entry (a, p', b, 0), p' <= pmax + 1, is computed once, by the entry
    deformation the table keeps for `gen` (`givental.entry_deformation`),
    which `r_deform_bracket` has usually built already.
    """
    deform = entry_deformation(table, gen)
    colors = range(1, table.dim + 1)
    return {(a, p, b, 0): deform(a, p, b, 0)
            for a in colors for p in range(pmax + 2) for b in colors}


def defining_equation_residuals(table: OmegaTable, pop: PoissonOp,
                                gen: GiventalGen, dP: DiffOperator,
                                pmax: int) -> list:
    """[((a, p, b), residual)] of `def_a_residual` for every color pair, p <= pmax.

    All-zero residuals certify that dP and the table deformation of `gen`
    together satisfy the linearized defining equation.
    """
    ent = deformed_entries_for_residual(table, gen, pmax)
    colors = range(1, table.dim + 1)
    out = []
    for a in colors:
        for p in range(pmax + 1):
            terms = unit_sum_grads(table, pop, ent, dP, a, p)
            out += [((a, p, b), def_a_residual(terms, ent[(a, p, b, 0)], b))
                    for b in colors]
    return out


# ---------------------------------------------------------------------------
# homogeneity checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomogeneityVerdict:
    ok: bool
    failures: tuple


def check_series_homogeneity(x: HbarSeries, offset: int) -> HomogeneityVerdict:
    """Each hbar^g coefficient polynomial and homogeneous of degree 2g+offset."""
    failures = []
    for g, polynomial, degrees in x.gradings():
        if not polynomial:
            failures.append((g, "laurent", sorted(degrees)))
        elif degrees != {2 * g + offset}:
            failures.append((g, "degree", sorted(degrees)))
    return HomogeneityVerdict(not failures, tuple(failures))


def check_operator_homogeneity(op: DiffOperator) -> HomogeneityVerdict:
    """Order-k coefficient at hbar^g homogeneous of degree 2g - k + 1.

    This is the degree rule satisfied by conjugates of the constant operator
    d: constant coefficients sit exactly at orders k = 2g + 1 and need no
    special casing.  Each coefficient is checked by `check_series_homogeneity`
    at offset 1 - k; a failure reads ((row, col), k, g, "laurent"/"degree").
    """
    failures = tuple(((row, col), k, g, why)
                     for (row, col), k, coeff in op.entries()
                     for g, why, _ in check_series_homogeneity(coeff, 1 - k).failures)
    return HomogeneityVerdict(not failures, failures)


# ---------------------------------------------------------------------------
# genus-0 uniqueness residuals
# ---------------------------------------------------------------------------

def uniqueness_residuals(table, B: DiffOperator, pmax: int) -> list:
    """Residuals certifying that only d solves the dispersionless relation.

    For each (a, p <= pmax, b) evaluates

        sum_{xi,k} B_k[b,xi] dx^k delta_xi (a,p+1; unit,0)  -  dx (a,p; b,0)

    on a dispersionless table (`trr_extend`), `def_a_residual` negated.
    All-zero residuals for B = d together with the nondegeneracy of the jet
    coordinates certify uniqueness; perturbed operators must produce nonzero
    residuals.
    """
    colors = range(1, table.dim + 1)
    out = []
    for a in colors:
        for p in range(pmax + 1):
            target = table.unit_ext(a, p + 1)
            terms = [(B, {xi: target.var_deriv(xi) for xi in colors})]
            out += [((a, p, b), -def_a_residual(terms, table.entry(a, p, b, 0), b))
                    for b in colors]
    return out


# ---------------------------------------------------------------------------
# operator-commutation identities (seeded property checks)
# ---------------------------------------------------------------------------

def dx_commutator_residual(bfun: JetPoly, zeta: int, test: JetPoly) -> JetPoly:
    """Residual of  [dx, sum_n dx^n(B) d/dw[zeta,n]]  applied to a test function."""
    flow = {zeta: bfun}
    return evolve(test, flow).dx() - evolve(test.dx(), flow)


def euler_commutator_residual(afun: JetPoly, s_ord: int, gamma: int,
                                    bfun: JetPoly, zeta: int,
                                    test: JetPoly) -> JetPoly:
    """Residual of the commutator identity for A d^s delta_gamma against
    sum_n dx^n(B) d/dw[zeta,n], applied to a test function; only its right
    side reads B's higher-Euler cell (`diffop.euler_cell`), so it checks it."""
    def bop(f):
        return evolve(f, {zeta: bfun})

    def aop(f):
        return afun * f.var_deriv(gamma).dx_pow(s_ord)

    lhs = aop(bop(test)) - bop(aop(test))
    rhs = (afun * apply_entry(euler_cell(bfun, gamma), test.var_deriv(zeta)).dx_pow(s_ord)
           - bop(afun) * test.var_deriv(gamma).dx_pow(s_ord))
    return lhs - rhs
