"""Dispersionless tables from small-phase-space Hessian data.

The input is the symmetric matrix of second derivatives of a genus-0
prepotential restricted to the small phase space, as polynomial functions
of the flat coordinates v_1..v_s (order-0 jet variables).  The descendant
entries are produced by integrating the topological recursion

    d/dv_gamma  T[a,p+1; b,q]  =  sum_xi  T[a,p; xi,0] * d/dv_gamma T[xi,0; b,q]

with the normalization T(v=0) = 0.  Every integration step first checks
that the right-hand side is a closed gradient, failing rather than
fabricating an inconsistent table, and then takes its potential by the
package's one Euler homotopy, `jetcalc.potential`.

The unit direction is the sum of all basis vectors, so index contraction
with the unit means summation over colors; the input must satisfy
sum_nu hessian[a][nu] = v_a.

The recursion runs on JetPoly; the finished table is an OmegaTable whose
entries are hbar-series truncated at hbar^0, the genus-0 part of the
dispersive two-point functions.  The density of the (a,p) Hamiltonian is
the unit sum `table.ext(a, p + 1)`, for p >= -1.
"""

from __future__ import annotations

from .givental import OmegaTable
from .jetcalc import HbarSeries, JetPoly, Sum, potential


class NotClosed(ValueError):
    """The recursion right-hand side is not a gradient (invalid input data)."""


def _grad_integrate(grads: dict[int, JetPoly], dim: int) -> JetPoly:
    """Polynomial potential of a closed gradient in the order-0 jets,
    normalized to vanish at 0."""
    for g in range(1, dim + 1):
        for h in range(g + 1, dim + 1):
            if grads[g].partial(h, 0) != grads[h].partial(g, 0):
                raise NotClosed(
                    f"cross-derivatives in colors ({g},{h}) disagree"
                )
    return potential(grads, 0)


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
        self.dim = dim
        self.hessian = hess


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
                    grads = {}
                    for g in range(1, s + 1):
                        rhs = Sum()
                        for xi in range(1, s + 1):
                            rhs.add_product(ent[(a, p, xi, 0)], ent[(xi, 0, b, q)].partial(g, 0))
                        grads[g] = rhs.value()
                    ent[(a, p + 1, b, q)] = _grad_integrate(grads, s)
        if q < qmax:
            # seed the next column from the transposed edge
            for a in range(1, s + 1):
                for b in range(1, s + 1):
                    ent[(a, 0, b, q + 1)] = ent[(b, q + 1, a, 0)]
    keep = {k: HbarSeries(0, [v]) for k, v in ent.items()
            if k[1] <= pmax and k[3] <= qmax}
    return OmegaTable(s, pmax, qmax, 0, keep)


def check_commutation(table: OmegaTable, a: int, p: int, b: int, q: int) -> HbarSeries:
    """Residual of the commutation identity; zero certifies Poisson commuting.

    Evaluates  sum_g  delta(h[a,p])/dv_g * dx( delta(h[b,q])/dv_g )
    minus dx of the (a,p+1; b,q) entry, with the Hamiltonian densities
    h[a,p] = (a,p+1; unit,0).
    """
    lhs = Sum()
    lhs.add(HbarSeries.zero(table.trunc))
    ha = table.ext(a, p + 1)
    hb = table.ext(b, q + 1)
    for g in range(1, table.dim + 1):
        lhs.add_product(ha.var_deriv(g), hb.var_deriv(g).dx())
    lhs.add(table.entry(a, p + 1, b, q).dx(), -1)
    return lhs.value()
