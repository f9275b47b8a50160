"""The KdV base point: explicit tables, the quasi-Miura transform, tensor powers.

The one-color hierarchy with cubic prepotential is the anchor where every
structure is explicitly polynomial.  Its table entries come by two routes:

  * every entry to first order in hbar, first rows included: a closed
    formula, the dispersionless v^(p+q+1) / (p! q! (p+q+1)) plus its
    genus-1 correction.  That correction is the second flow derivative of
    the genus-1 density (1/24) log v_x, corrected by the quasi-Miura term;
    its rational parts cancel to two terms.  The tests derive it that way,
    entry by entry, as the oracle of the formula;
  * entries to hbar^2: the first rows (0;q), q <= 2, by the Lenard
    recursion of the second bracket, and the mixed entries as first-row
    data transported along the flows and integrated.  The flows are dx of
    the first rows.

The quasi-Miura transform (rational in v_x) maps the dispersionless
hierarchy to the dispersive one; only derivatives of log v_x are ever
materialized, so all values stay inside the Laurent polynomial ring.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diffop import MiuraChange
from .givental import OmegaTable
from .jetcalc import HbarSeries, JetPoly, Sum, dx, evolve, formal_integrate

V1 = 1  # the single color of the base point


class OutOfDerivableRange(ValueError):
    """Entry not derivable from the base-point data at the requested order."""


def _v(n: int, exp: int = 1) -> JetPoly:
    return JetPoly.var(V1, n, exp)


def quasi_miura_h1() -> JetPoly:
    """hbar coefficient of the coordinate change: (1/24) (log v_x)_xx."""
    return dx(_v(2) * _v(1, -1)) / 24


def quasi_miura_h2() -> JetPoly:
    """hbar^2 coefficient: the printed rational density, twice differentiated."""
    density = (_v(4) * _v(1, -2) / 1152
               - 7 * _v(2) * _v(3) * _v(1, -3) / 1920
               + _v(2, 3) * _v(1, -4) / 360)
    return dx(dx(density))


def quasi_miura(direction: str, trunc: int) -> MiuraChange:
    """The rational coordinate change between the two hierarchies."""
    if trunc > 2:
        raise OutOfDerivableRange("transform is tabulated through hbar^2 only")
    coeffs = [_v(0), quasi_miura_h1(), quasi_miura_h2()][: trunc + 1]
    fwd = MiuraChange([HbarSeries(trunc, coeffs)])
    if direction == "forward":
        return fwd
    if direction == "inverse":
        return fwd.inverse()
    raise ValueError("direction must be 'forward' or 'inverse'")


# ---------------------------------------------------------------------------
# table entries
# ---------------------------------------------------------------------------

def _entry_closed_form(p: int, q: int, trunc: int) -> HbarSeries:
    """Entry (p;q) to hbar^trunc, trunc <= 1, from its closed form, n = p+q:

        v^(n+1) / (p! q! (n+1))
          + hbar [(p(p-1) + pq + q(q-1)) v^(n-2) v_1^2 + 2n v^(n-1) v_2] / (24 p! q!)

    The hbar part is the second flow derivative of the genus-1 density
    (1/24) log v_x, corrected by the quasi-Miura term `quasi_miura_h1`, with
    its rational parts cancelled.  A term with coefficient zero is dropped,
    and so is the factor v^0.
    """
    n, pq = p + q, math.factorial(p) * math.factorial(q)

    def mono(k, *jets):
        return ((V1, 0, k),) * (k > 0) + jets

    if not trunc:
        return HbarSeries._raw(0, ({mono(n + 1): 1},), pq * (n + 1))
    c1 = p * (p - 1) + p * q + q * (q - 1)
    h1 = {m: c * (n + 1) for m, c in ((mono(n - 2, (V1, 1, 2)), c1),
                                      (mono(n - 1, (V1, 2, 1)), 2 * n)) if c}
    return HbarSeries._reduced(1, ({mono(n + 1): 24}, h1), 24 * pq * (n + 1))


def _lenard_rows(trunc: int):
    """q -> first-row entry (0;q) to hbar^trunc, by the Lenard recursion of
    the second bracket P2 = v d + v_1/2 + (hbar/8) d^3:

        (0;q) = 2/(2q+1) * integral of P2 (0;q-1),   (0;-1) = 1.

    The returned function derives each row once and keeps it: build one per
    table."""
    rows = {-1: HbarSeries.const(1, trunc)}

    def lenard_row(q: int) -> HbarSeries:
        if q not in rows:
            prev, p2 = lenard_row(q - 1), Sum()
            p2.add_product(_v(0), prev.dx())
            p2.add_product(_v(1), prev, Fraction(1, 2))
            p2.add(prev.dx_pow(3), Fraction(1, 8), 1)
            rows[q] = formal_integrate(p2.value()) * Fraction(2, 2 * q + 1)
        return rows[q]

    return lenard_row


def _transport(p: int, q: int, lenard_row) -> HbarSeries:
    """Mixed entry from first-row data: integrate the p-flow image of (0;q)."""
    return formal_integrate(evolve(lenard_row(q), {V1: lenard_row(p).dx()}))


def _route(p: int, q: int, trunc: int) -> str:
    """The provenance tag of the dispersive entry (p;q) at truncation `trunc`.

    Derivable set: first-row entries with max(p,q) <= 2 at any truncation
    <= 2; everything at truncation <= 1 via the genus-1 completion; mixed
    entries with p,q <= 2 at truncation 2 via flow transport.  Anything else
    raises OutOfDerivableRange.
    """
    if trunc > 2:
        raise OutOfDerivableRange("base-point data stops at hbar^2")
    if min(p, q) == 0 and max(p, q) <= 2:
        return "flow-integration"
    if trunc <= 1:
        return "genus1-completion"
    if max(p, q) <= 2:
        return "flow-transport"
    raise OutOfDerivableRange(
        f"entry ({p};{q}) at truncation {trunc} is outside the derivable set"
    )


def _full_omega(p: int, q: int, trunc: int, lenard_row) -> HbarSeries:
    """Dispersive entry (p;q) in the derivable set of `_route`, given the
    Lenard rows `lenard_row` of its table.  At truncation <= 1 every entry,
    first rows included, is the closed form; at truncation 2 a first-row
    entry is a Lenard row and a mixed one its transport."""
    if trunc <= 1:
        return _entry_closed_form(p, q, trunc)
    if min(p, q) == 0:
        return lenard_row(max(p, q))
    return _transport(p, q, lenard_row)


def kdv_omega_table(pmax: int, qmax: int, trunc: int) -> OmegaTable:
    """Table on 0..pmax x 0..qmax, each entry built on its first read.  Every
    route is checked here, so an entry outside the derivable set raises
    OutOfDerivableRange at once.  A symmetric pair is one entry.  Below
    hbar^2 every entry is the closed form; at hbar^2 the Lenard rows are
    derived once a table."""
    lenard_row = _lenard_rows(trunc)
    prov = {(V1, p, V1, q): _route(p, q, trunc)
            for p in range(pmax + 1) for q in range(qmax + 1)}

    def build(_, __, p, ___, q):
        return _full_omega(p, q, trunc, lenard_row)

    return OmegaTable(1, pmax, qmax, trunc, {}, prov, build)


def tensor_power(table: OmegaTable, dim: int) -> OmegaTable:
    """Block-diagonal table of `dim` decoupled copies of the base point.

    Diagonal color blocks repeat the one-color entries in that color's jet
    variables; mixed-color entries vanish (product partition functions have
    no mixed second derivatives), and are one shared zero.  Each entry is
    built on its first read; the table answers (a,q; a,p) from (a,p; a,q),
    so each source entry with p <= q is recolored once per color but color
    1, whose entries are the source entries themselves.
    """
    if table.dim != 1:
        raise ValueError("tensor_power expects a one-color source table")
    if dim < 1:
        raise ValueError("tensor power must be >= 1")
    prov = {(a, p, a, q): tag for (_, p, _, q), tag in table.provenance.items()
            for a in range(1, dim + 1)}
    zero = HbarSeries.zero(table.trunc)

    def build(_, a, p, b, q):
        if a != b:
            return zero
        return table.entry(V1, p, V1, q) if a == V1 else table.entry(V1, p, V1, q).recolor(a)

    return OmegaTable(dim, table.pmax, table.qmax, table.trunc, {}, prov, build)
