"""Dispersionless tables from small-phase-space Hessian data.

The input is the symmetric matrix of second derivatives of a genus-0
prepotential restricted to the small phase space, as polynomial functions
of the flat coordinates v_1..v_s (order-0 jet variables).  The descendant
entries are produced by integrating the topological recursion

    d/dv_gamma  T[a,p+1; b,q]  =  sum_xi  T[a,p; xi,0] * d/dv_gamma T[xi,0; b,q]

with the normalization T(v=0) = 0.  Every integration step first checks
that the right-hand side is a closed gradient; failure aborts rather than
fabricating an inconsistent table.

The unit direction is the sum of all basis vectors, so index contraction
with the unit means summation over colors; the input must satisfy
sum_nu hessian[a][nu] = v_a.

The recursion runs on JetPoly; the finished table is an OmegaTable whose
entries are hbar-series truncated at hbar^0, the genus-0 part of the
dispersive two-point functions.
"""

from __future__ import annotations

from .givental import OmegaTable
from .jetcalc import HbarSeries, JetPoly


class NotClosed(ValueError):
    """The recursion right-hand side is not a gradient (invalid input data)."""


def _grad_integrate(grads: dict[int, JetPoly], dim: int) -> JetPoly:
    """Polynomial potential of a closed gradient, normalized to vanish at 0.

    Uses the Euler homotopy: group sum_g v_g * grads[g] by total degree and
    divide each monomial by its degree.
    """
    for g in range(1, dim + 1):
        for h in range(g + 1, dim + 1):
            if grads[g].partial(h, 0) != grads[h].partial(g, 0):
                raise NotClosed(
                    f"cross-derivatives in colors ({g},{h}) disagree"
                )
    euler = JetPoly.zero()
    for g in range(1, dim + 1):
        euler = euler + JetPoly.var(g, 0) * grads[g]
    terms = {}
    for mono, c in euler.terms():
        total = sum(e for _, _, e in mono)
        terms[mono] = c / total
    return JetPoly(terms)


class Genus0Data:
    """Hessian of a prepotential on the small phase space, validated."""

    __slots__ = ("dim", "hessian")

    def __init__(self, dim: int, hessian: dict):
        hess: dict[tuple[int, int], JetPoly] = {}
        for a in range(1, dim + 1):
            for b in range(1, dim + 1):
                p = hessian.get((a, b), JetPoly.zero())
                if p.max_order() > 0:
                    raise ValueError("Hessian entries must be order-0 functions")
                if not p.is_polynomial():
                    raise ValueError("Hessian entries must be polynomial")
                hess[(a, b)] = p
        for a in range(1, dim + 1):
            for b in range(a + 1, dim + 1):
                if hess[(a, b)] != hess[(b, a)]:
                    raise ValueError("Hessian must be symmetric")
        for a in range(1, dim + 1):
            unit_row = JetPoly.zero()
            for nu in range(1, dim + 1):
                unit_row = unit_row + hess[(a, nu)]
            if unit_row != JetPoly.var(a, 0):
                raise ValueError(
                    f"unit normalization fails in color {a}: "
                    "sum_nu hessian[a][nu] must equal v_a"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "hessian", hess)


def trr_extend(data: Genus0Data, pmax: int, qmax: int) -> OmegaTable:
    """Build the table for 0 <= p <= pmax, 0 <= q <= qmax from the Hessian,
    as an OmegaTable truncated at hbar^0."""
    s = data.dim
    ent: dict[tuple, JetPoly] = {}
    for a in range(1, s + 1):
        for b in range(1, s + 1):
            ent[(a, 0, b, 0)] = data.hessian[(a, b)]
    edge = max(pmax, qmax)
    # first build the (p, 0) edge, then raise p for each fixed q
    for q in range(0, qmax + 1):
        top = edge if q == 0 else pmax
        for p in range(0, top):
            for a in range(1, s + 1):
                for b in range(1, s + 1):
                    if (a, p + 1, b, q) in ent:
                        continue
                    grads = {}
                    for g in range(1, s + 1):
                        rhs = JetPoly.zero()
                        for xi in range(1, s + 1):
                            rhs = rhs + ent[(a, p, xi, 0)] * ent[(xi, 0, b, q)].partial(g, 0)
                        grads[g] = rhs
                    ent[(a, p + 1, b, q)] = _grad_integrate(grads, s)
        if q < qmax:
            # seed the next column from the transposed edge
            for a in range(1, s + 1):
                for b in range(1, s + 1):
                    ent[(a, 0, b, q + 1)] = ent[(b, q + 1, a, 0)]
    keep = {k: HbarSeries(0, [v]) for k, v in ent.items()
            if k[1] <= pmax and k[3] <= qmax}
    return OmegaTable(s, pmax, qmax, 0, keep)


def hamiltonian_density0(table: OmegaTable, a: int, p: int) -> HbarSeries:
    """Density of the (a,p) Hamiltonian: the unit-contracted (a,p+1) entry.

    The index p = -1 is allowed and returns the unit-contracted (a,0) entry,
    which is the coordinate v_a itself.
    """
    if p < -1:
        raise IndexError("Hamiltonian index must be >= -1")
    return table.unit_ext(a, p + 1)


def check_commutation(table: OmegaTable, a: int, p: int, b: int, q: int) -> HbarSeries:
    """Residual of the commutation identity; zero certifies Poisson commuting.

    Evaluates  sum_g  delta(h[a,p])/dv_g * dx( delta(h[b,q])/dv_g )
    minus dx of the (a,p+1; b,q) entry.
    """
    lhs = HbarSeries.zero(table.trunc)
    ha = hamiltonian_density0(table, a, p)
    hb = hamiltonian_density0(table, b, q)
    for g in range(1, table.dim + 1):
        lhs = lhs + ha.var_deriv(g) * hb.var_deriv(g).dx()
    return lhs - table.entry(a, p + 1, b, q).dx()
