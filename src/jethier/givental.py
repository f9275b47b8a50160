"""Triangular symmetry generators and first-order deformations of the tables.

A generator is a matrix-valued Lie-algebra element r_l z^l (upper kind) or
s_l z^-l (lower kind), l >= 1, whose matrix satisfies the parity constraint

    M^T = (-1)^(l+1) M      (self-adjoint for odd l, skew for even l).

Index shifts follow the fixed sign convention: with both indices up as the
stored matrix, lowering the first index is free, while the mixed position
with the first index up picks up the parity sign,

    X[a]^b   = X^(ab) = M[a][b],        X^a[b] = (-1)^(l+1) M[a][b] = M[b][a],
    X[ab]    = M[a][b].

The unit index means contraction (summation) over all colors.

An OmegaTable stores the two-point functions of the dispersive hierarchy as
truncated hbar-series in the jet variables, indexed by (a,p;b,q) with the
convention for negative descendant indices

    (a,p;b,q) = (-1)^p delta[ab] delta[p+q,-1]   if q < 0 <= p  (and
    symmetrically with (-1)^q if p < 0 <= q; zero if both are negative).

The module computes triple correlators and the first-order (in the group
parameter) deformations of table entries for both generator kinds.  The
upper-kind deformation is the simplified form, whose single sum runs over
the finite extension window; the tests keep the unsimplified long form as
an independent oracle that it must agree with.
"""

from __future__ import annotations

from fractions import Fraction

from .diffop import apply_entry, leibniz
from .jetcalc import HbarSeries, evolve, rat


def _sgn(k: int) -> int:
    """(-1)**k, exact for any integer k."""
    return -1 if k % 2 else 1


class InconsistentTable(ValueError):
    """Triple correlator evaluations disagree across index choices."""


class GiventalGen:
    """Parity-constrained matrix generator of the upper or lower kind."""

    __slots__ = ("kind", "level", "dim", "matrix")

    def __init__(self, kind: str, level: int, matrix):
        if kind not in ("r", "s"):
            raise ValueError("generator kind must be 'r' (upper) or 's' (lower)")
        if level < 1:
            raise ValueError("generator level must be >= 1")
        rows = tuple(tuple(rat(x) for x in row) for row in matrix)
        dim = len(rows)
        if any(len(row) != dim for row in rows):
            raise ValueError("generator matrix must be square")
        sign = 1 if level % 2 == 1 else -1
        for i in range(dim):
            for j in range(dim):
                if rows[j][i] != sign * rows[i][j]:
                    want = "symmetric" if sign == 1 else "skew-symmetric"
                    raise ValueError(
                        f"level-{level} generator matrix must be {want}"
                    )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    # index-position accessors (1-based colors); with both indices up, both
    # down, or the first one down, an entry is matrix[a-1][b-1] itself

    def up_low(self, a: int, b: int) -> Fraction:
        return self.matrix[b - 1][a - 1]

    def low_low_unit(self, a: int) -> Fraction:
        """Contraction of the second lowered index with the unit direction."""
        return sum(self.matrix[a - 1], Fraction(0))

    def unit_shift(self, trunc: int) -> dict:
        """The constant shift w_g -> w_g + low_low_unit(g) of a level-1 lower
        generator, as a flow for `evolve`."""
        return {g: HbarSeries.const(self.low_low_unit(g), trunc)
                for g in range(1, self.dim + 1)}


def gen_from_obj(obj: dict) -> GiventalGen:
    kind = {"r": "r", "upper": "r", "s": "s", "lower": "s"}.get(str(obj["kind"]))
    if kind is None:
        raise ValueError(f"unknown generator kind {obj['kind']!r}")
    return GiventalGen(kind, int(obj["level"]), obj["matrix"])


def gen_to_obj(g: GiventalGen) -> dict:
    return {
        "kind": g.kind,
        "level": g.level,
        "matrix": [[str(x) for x in row] for row in g.matrix],
    }


class OmegaTable:
    """Two-point functions of the dispersive hierarchy, with extension."""

    __slots__ = ("dim", "pmax", "qmax", "trunc", "_entries", "provenance")

    def __init__(self, dim: int, pmax: int, qmax: int, trunc: int,
                 entries: dict, provenance: dict | None = None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pmax", pmax)
        object.__setattr__(self, "qmax", qmax)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_entries", dict(entries))
        object.__setattr__(self, "provenance", dict(provenance or {}))

    def entry(self, a: int, p: int, b: int, q: int) -> HbarSeries:
        got = self._entries.get((a, p, b, q))
        if got is None:
            raise IndexError(
                f"table entry ({a},{p};{b},{q}) outside stored bounds "
                f"(pmax={self.pmax}, qmax={self.qmax})"
            )
        return got

    def ext(self, a: int, p: int, b: int, q: int) -> HbarSeries:
        """Stored entry for p,q >= 0; the delta-constant extension otherwise."""
        if p >= 0 and q >= 0:
            return self.entry(a, p, b, q)
        if p >= 0:  # q < 0
            val = (-1) ** p if (a == b and p + q == -1) else 0
        elif q >= 0:  # p < 0
            val = (-1) ** q if (a == b and p + q == -1) else 0
        else:
            val = 0
        return HbarSeries.const(val, self.trunc)

    def unit_ext(self, a: int, p: int) -> HbarSeries:
        """Entry with the second pair contracted against the unit direction."""
        out = HbarSeries.zero(self.trunc)
        for nu in range(1, self.dim + 1):
            out = out + self.ext(a, p, nu, 0)
        return out

    def items(self):
        return sorted(self._entries.items())


def table_to_obj(table: OmegaTable) -> dict:
    from .jetcalc import series_to_obj

    out = {
        "dim": table.dim,
        "pmax": table.pmax,
        "qmax": table.qmax,
        "trunc": table.trunc,
        "entries": {
            f"{a}.{p}.{b}.{q}": series_to_obj(v)
            for (a, p, b, q), v in table.items()
        },
    }
    if table.provenance:
        out["provenance"] = {
            f"{a}.{p}.{b}.{q}": tag
            for (a, p, b, q), tag in sorted(table.provenance.items())
        }
    return out


def table_from_obj(obj: dict) -> OmegaTable:
    from .jetcalc import series_from_obj

    entries = {}
    for key, val in obj["entries"].items():
        a, p, b, q = (int(x) for x in key.split("."))
        entries[(a, p, b, q)] = series_from_obj(val)
    prov = {}
    for key, tag in obj.get("provenance", {}).items():
        a, p, b, q = (int(x) for x in key.split("."))
        prov[(a, p, b, q)] = tag
    return OmegaTable(int(obj["dim"]), int(obj["pmax"]), int(obj["qmax"]),
                      int(obj["trunc"]), entries, prov)


# ---------------------------------------------------------------------------
# triple correlators
# ---------------------------------------------------------------------------

def triple_omega(table: OmegaTable, i1, i2, i3) -> HbarSeries:
    """Three-point function, zero when any descendant index is negative.

    Evaluates  sum_{xi,n} dx^(n+1) (g_i,k_i; xi,0) * d(g_j,k_j; g_l,k_l)/dw[xi,n]
    for every choice of the distinguished slot and checks agreement; a
    mismatch means the table does not satisfy the recursion it should.
    """
    idx = (i1, i2, i3)
    if any(k < 0 for _, k in idx):
        return HbarSeries.zero(table.trunc)
    vals = []
    for pick in range(3):
        (ga, ka) = idx[pick]
        (gb, kb), (gc, kc) = (idx[(pick + 1) % 3], idx[(pick + 2) % 3])
        other = table.entry(gb, kb, gc, kc)
        colors = {xi for xi, _ in other.variables()}
        vals.append(evolve(other, {xi: table.entry(ga, ka, xi, 0).dx()
                                   for xi in colors}))
    if not (vals[0] == vals[1] and vals[1] == vals[2]):
        raise InconsistentTable(
            f"triple correlator {idx} differs across distinguished-index choices"
        )
    return vals[0]


# ---------------------------------------------------------------------------
# upper-kind deformation of table entries
# ---------------------------------------------------------------------------

def jet_transport(lead: HbarSeries, tail: HbarSeries, n: int) -> HbarSeries:
    """sum_{k=0..n} C(n+1,k) dx^k(lead) dx^(n-k)(tail).

    The change of the jet variable of order n under the coordinate change
    that a generator induces; both the table and the operator deformations
    weight the partial derivatives by it.  It is d^(n+1) o lead with its
    order-0 term dropped, one order lower, applied to tail.
    """
    expanded = leibniz({n + 1: 1}, {0: lead})
    return apply_entry({k - 1: c for k, c in expanded.items() if k > 0}, tail)


def r_deform_omega(table: OmegaTable, gen: GiventalGen, a: int, p: int,
                   b: int, q: int) -> HbarSeries:
    """First-order change of the (a,p;b,q) entry under an upper generator.

    One product block is summed over the finite extension window
    d in [-p-1, l+q], where the linear terms of the unsimplified display
    come from the boundary values of d.
    """
    if gen.kind != "r":
        raise ValueError("upper-kind generator required")
    ell = gen.level
    s = table.dim
    H = table.trunc
    base = table.entry(a, p, b, q)
    base_vars = sorted(base.variables())
    out = HbarSeries.zero(H)
    for d in range(-p - 1, ell + q + 1):
        sign = _sgn(d + 1)
        for mu in range(1, s + 1):
            for nu in range(1, s + 1):
                c = gen.matrix[mu - 1][nu - 1] * sign
                if c == 0:
                    continue
                term = table.ext(a, p, mu, d) * table.ext(nu, ell - 1 - d, b, q)
                for (g, n) in base_vars:
                    dbase = base.partial(g, n)
                    if not dbase:
                        continue
                    term = term - dbase * jet_transport(
                        table.ext(g, 0, mu, d), table.unit_ext(nu, ell - 1 - d), n)
                hterm = HbarSeries.zero(H)
                for (g, n) in base_vars:
                    for (z, m) in base_vars:
                        second = base.partial(g, n).partial(z, m)
                        if not second:
                            continue
                        hterm = hterm + second * (
                            table.ext(g, 0, mu, d).dx_pow(n + 1)
                            * table.ext(nu, ell - 1 - d, z, 0).dx_pow(m + 1))
                term = term + hterm.hbar_shift() / 2
                out = out + c * term
    return out


# ---------------------------------------------------------------------------
# lower-kind deformation
# ---------------------------------------------------------------------------

def s_deform_omega(table: OmegaTable, gen: GiventalGen, a: int, p: int,
                   b: int, q: int) -> HbarSeries:
    """First-order change of the (a,p;b,q) entry under a lower generator.

    Only four blocks contribute: index-lowering sums on both slots, a
    constant term at level p+q+1, and (for level 1) the order-0 coordinate
    shift.
    """
    if gen.kind != "s":
        raise ValueError("lower-kind generator required")
    ell = gen.level
    s = table.dim
    H = table.trunc
    out = HbarSeries.zero(H)
    if ell <= p:
        for mu in range(1, s + 1):
            out = out + gen.up_low(mu, a) * table.entry(mu, p - ell, b, q)
    if ell <= q:
        for mu in range(1, s + 1):
            out = out + gen.up_low(mu, b) * table.entry(a, p, mu, q - ell)
    if ell == p + q + 1:
        out = out + HbarSeries.const(_sgn(p) * gen.matrix[a - 1][b - 1], H)
    if ell == 1:
        out = out - evolve(table.entry(a, p, b, q), gen.unit_shift(H))
    return out
