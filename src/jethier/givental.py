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

Of its three blocks only the product block (a,p;mu,d)(nu,l-1-d;b,q) depends
on the entry, and its window d in [-p-1, l+q] with it.  The other two weight
the entry's partials by transport factors built from (g,0;mu,d) and
(nu,l-1-d;.,0).  By the extension convention the first vanishes for d < -1
and the second for d > l, so their sums run over d in [-1, l] for every
entry; at d = -1 and d = l one of them is a delta constant, whose
x-derivatives vanish, which leaves d in [0, l-1] for the second-order
factors.  So the factors depend on the table and the generator only, and
`UpperDeformation` builds them once for all entries.  The same instance
serves the operator deformation of `bracket.r_deform_bracket`: its blocks
read the contracted second factors and the linear transport (`transport`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

from .jetcalc import HbarSeries, Sum, evolve, rat


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
        self.kind = kind
        self.level = level
        self.dim = dim
        self.matrix = rows

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
    """The generator of a JSON object with the keys `kind`, `level` (a JSON
    integer) and `matrix` (a non-empty list of lists), and no other."""
    if not isinstance(obj, dict):
        raise ValueError("generator must be a JSON object")
    unknown = sorted(set(obj) - {"kind", "level", "matrix"})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    for key in ("kind", "level", "matrix"):
        if key not in obj:
            raise ValueError(f"generator is missing {key!r}")
    kind, level, matrix = obj["kind"], obj["level"], obj["matrix"]
    if kind not in ("r", "s"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if type(level) is not int:  # a bool is not a level either
        raise ValueError(f"generator level must be an integer, got {level!r}")
    if not (isinstance(matrix, list) and matrix
            and all(isinstance(row, list) for row in matrix)):
        raise ValueError(f"generator matrix must be a non-empty list of lists, got {matrix!r}")
    return GiventalGen(kind, level, matrix)


def gen_to_obj(g: GiventalGen) -> dict:
    return {
        "kind": g.kind,
        "level": g.level,
        "matrix": [[str(x) for x in row] for row in g.matrix],
    }


class OmegaTable:
    """Two-point functions of the dispersive hierarchy, with extension.

    A table is given its entries, or a builder `build(table, a, p, b, q)`
    that makes an entry in bounds (colors 1..dim, p <= pmax, q <= qmax) on
    its first read; it answers (a,p;b,q) with q < p <= qmax from (b,q;a,p),
    so it is symmetric by construction.  The table keeps each entry, and what
    it derives from its entries, for as long as it lives: the unit
    contractions `unit_ext(a, p)`, the constant series of `ext`, and the one
    `UpperDeformation` per upper generator value that `entry_deformation`
    hands out.  No entry changes once read, so what is kept stays valid.
    """

    __slots__ = ("dim", "pmax", "qmax", "trunc", "_entries", "provenance", "_build",
                 "_units", "_consts", "_deforms")

    def __init__(self, dim: int, pmax: int, qmax: int, trunc: int,
                 entries: dict, provenance: dict | None = None, build=None):
        self.dim = dim
        self.pmax = pmax
        self.qmax = qmax
        self.trunc = trunc
        self._entries = dict(entries)
        self.provenance = dict(provenance or {})
        self._build = build
        self._units: dict[tuple[int, int], HbarSeries] = {}
        self._consts: dict[int, HbarSeries] = {}
        self._deforms: dict[tuple, UpperDeformation] = {}

    def entry(self, a: int, p: int, b: int, q: int) -> HbarSeries:
        got = self._entries.get((a, p, b, q))
        if got is None:
            if not (self._build and 0 < a <= self.dim and 0 < b <= self.dim
                    and 0 <= p <= self.pmax and 0 <= q <= self.qmax):
                raise IndexError(
                    f"table entry ({a},{p};{b},{q}) outside stored bounds "
                    f"(pmax={self.pmax}, qmax={self.qmax})"
                )
            got = self._entries[(a, p, b, q)] = self._make(a, p, b, q)
        return got

    def _make(self, a: int, p: int, b: int, q: int) -> HbarSeries:
        """The entry (a,p;b,q) in bounds of a built table: (b,q;a,p) if q < p <= qmax."""
        return self.entry(b, q, a, p) if q < p <= self.qmax else self._build(self, a, p, b, q)

    def ext(self, a: int, p: int, b: int | None = None, q: int = 0) -> HbarSeries:
        """Stored entry for p,q >= 0; the delta-constant extension otherwise.
        With no color b, the unit sum (a,p;unit,0) = `unit_ext(a, p)`."""
        if b is None:
            return self.unit_ext(a, p)
        if p >= 0 and q >= 0:
            return self.entry(a, p, b, q)
        if p >= 0:  # q < 0
            val = (-1) ** p if (a == b and p + q == -1) else 0
        elif q >= 0:  # p < 0
            val = (-1) ** q if (a == b and p + q == -1) else 0
        else:
            val = 0
        got = self._consts.get(val)
        if got is None:
            got = self._consts[val] = HbarSeries.const(val, self.trunc)
        return got

    def unit_ext(self, a: int, p: int) -> HbarSeries:
        """Entry with the second pair contracted against the unit direction,
        built on first use and kept."""
        got = self._units.get((a, p))
        if got is None:
            out = Sum()
            for nu in range(1, self.dim + 1):
                out.add(self.ext(a, p, nu, 0))
            got = self._units[(a, p)] = out.value()
        return got

    def items(self):
        """Every entry of the grid, by index; a builder table builds those it has not yet."""
        colors = range(1, self.dim + 1)
        grid = list(product(colors, range(self.pmax + 1), colors, range(self.qmax + 1)))
        for index in grid:
            if index not in self._entries:  # a hole in a given table: entry() names it
                self._entries[index] = self._make(*index) if self._build else self.entry(*index)
        return [(index, self._entries[index]) for index in grid]


def table_to_obj(table: OmegaTable) -> dict:
    """The table's output tree; its entries are the HbarSeries values, and
    `json.loads(to_json(...))` gives the plain form (`series_to_obj` entries)."""
    out = {
        "dim": table.dim,
        "pmax": table.pmax,
        "qmax": table.qmax,
        "trunc": table.trunc,
        "entries": {
            f"{a}.{p}.{b}.{q}": v for (a, p, b, q), v in table.items()
        },
    }
    if table.provenance:
        out["provenance"] = {
            f"{a}.{p}.{b}.{q}": tag
            for (a, p, b, q), tag in sorted(table.provenance.items())
        }
    return out


# ---------------------------------------------------------------------------
# triple correlators
# ---------------------------------------------------------------------------

def triple_omega(table: OmegaTable, i1, i2, i3) -> HbarSeries:
    """Three-point function, zero when any descendant index is negative.

    Evaluates  sum_{xi,n} dx^(n+1) (g_i,k_i; xi,0) * d(g_j,k_j; g_l,k_l)/dw[xi,n]
    for every choice of the distinguished slot and checks agreement; a
    mismatch means the table does not satisfy the recursion it should.
    A zero two-point entry evolves to itself, so it is taken as it is.
    """
    idx = (i1, i2, i3)
    if any(k < 0 for _, k in idx):
        return HbarSeries.zero(table.trunc)
    vals = []
    for pick in range(3):
        (ga, ka) = idx[pick]
        (gb, kb), (gc, kc) = (idx[(pick + 1) % 3], idx[(pick + 2) % 3])
        other = table.entry(gb, kb, gc, kc)
        if not other:
            vals.append(other)
            continue
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

class UpperDeformation:
    """First-order change of the table entries under one upper generator.

    Calling it with (a, p, b, q) gives the change of that entry, and with
    (a, p), as it is linear in the (b, q) slot, the change of the unit sum
    (a,p;unit,0) = sum_b (a,p;b,0) in one pass.  Of the
    three blocks of the deformation only the product block depends on the
    entry; the other two weight the entry's first and second partials by
    transport factors that depend on the table and the generator alone:

        lin[g,n]          sum_{d,mu,nu} (-1)^(d+1) M[mu][nu]
                              T_n((g,0;mu,d), (nu,l-1-d;unit,0))
        quad[(g,n),(z,m)] sum_{d,mu,nu} (-1)^(d+1) M[mu][nu]
                              dx^(n+1) (g,0;mu,d) * dx^(m+1) (nu,l-1-d;z,0)

    with the jet transport T_n of `lin`, which recurses in n.  quad is
    symmetric in its two pairs: substituting d -> l-1-d and swapping mu and
    nu maps one order onto the other, since M[nu][mu] = (-1)^(l+1) M[mu][nu]
    and the table is symmetric.  So the entry's quadratic block runs over
    unordered pairs of its variables, with weight 1 off the diagonal and
    1/2 on it, and builds quad in one order only.  These and the
    second factors contracted over nu (`right`) are built on
    first use and kept, so one instance serves every entry of the table and
    the operator deformation.  `entry_deformation` hands out the one
    instance the table keeps per generator value.  The x-derivatives and
    partials they use are the ones the table entries and the contracted
    factors keep themselves (`HbarSeries.dx`, `HbarSeries.partial`).
    """

    __slots__ = ("table", "gen", "_right", "_lin", "_quad")

    def __init__(self, table: OmegaTable, gen: GiventalGen):
        if gen.kind != "r":
            raise ValueError("upper-kind generator required")
        self.table = table
        self.gen = gen
        self._right: dict[tuple, HbarSeries] = {}
        self._lin: dict[tuple, HbarSeries] = {}
        self._quad: dict[tuple, HbarSeries] = {}

    def right(self, mu: int, j: int, b: int | None = None, q: int = 0) -> HbarSeries:
        """sum_nu M[mu][nu] (nu,j;b,q): the second factor, contracted over nu;
        with no color b, over the unit sums (nu,j;unit,0)."""
        key = (mu, j, b, q)
        got = self._right.get(key)
        if got is None:
            out = Sum()
            for nu, c in enumerate(self.gen.matrix[mu - 1], 1):
                out.add(self.table.ext(nu, j, b, q), c)
            got = self._right[key] = out.value()
        return got

    def lin(self, g: int, n: int) -> HbarSeries:
        """The linear transport field lin[g,n].

        Its jet transport

            T_n(lead, tail) = sum_{k=0..n} C(n+1,k) dx^k(lead) dx^(n-k)(tail)

        is the change of the jet variable of order n under the coordinate
        change the generator induces: d^(n+1) o lead with its order-0 term
        dropped, one order lower, applied to tail.  Table entries and
        operator coefficients both move along this field.  Pascal's rule
        C(n+1,k) = C(n,k-1) + C(n,k) gives the recursion

            T_n = dx T_(n-1) + dx^n(lead) tail,      T_0 = lead tail,

        and dx is linear, so lin[g,n] is dx lin[g,n-1] plus one product per
        (d, mu); that dx is the one lin[g,n-1] keeps.
        """
        key = (g, n)
        got = self._lin.get(key)
        if got is None:
            table, ell = self.table, self.gen.level
            out = Sum()
            out.add(self.lin(g, n - 1).dx() if n else HbarSeries.zero(table.trunc))
            for d in range(-1, ell + 1):
                for mu in range(1, table.dim + 1):
                    out.add_product(table.ext(g, 0, mu, d).dx_pow(n),
                                    self.right(mu, ell - 1 - d), _sgn(d + 1))
            got = self._lin[key] = out.value()
        return got

    def transport(self, f, out: Sum, k) -> None:
        """Add k times the transport of f, sum_{g,n} lin[g,n] df/dw[g,n], into `out`."""
        for (g, n) in sorted(f.variables()):
            out.add_product(f.partial(g, n), self.lin(g, n), k)

    def quad(self, g: int, n: int, z: int, m: int) -> HbarSeries:
        """The quadratic factor quad[(g,n),(z,m)]."""
        key = (g, n, z, m)
        got = self._quad.get(key)
        if got is None:
            table, ell = self.table, self.gen.level
            out = Sum()
            out.add(HbarSeries.zero(table.trunc))
            # at d = -1 and d = l one factor is constant, so its dx vanishes
            for d in range(ell):
                for mu in range(1, table.dim + 1):
                    lead = table.ext(g, 0, mu, d)
                    tail = self.right(mu, ell - 1 - d, z, 0)
                    if lead and tail:
                        out.add_product(lead.dx_pow(n + 1), tail.dx_pow(m + 1), _sgn(d + 1))
            got = self._quad[key] = out.value()
        return got

    def __call__(self, a: int, p: int, b: int | None = None, q: int = 0) -> HbarSeries:
        """The change of the (a,p;b,q) entry, or with no color b of the unit
        sum (a,p;unit,0).

        The product block is summed over the finite extension window
        d in [-p-1, l+q], where the linear terms of the unsimplified display
        come from the boundary values of d.  The quadratic block runs over
        unordered pairs (g,n) <= (z,m) of the entry's variables, quad being
        symmetric (see the class docstring).
        """
        table, ell = self.table, self.gen.level
        out = Sum()  # below d = 0 only ext(a, p, a, -p-1) is nonzero: it sets the truncation
        for d in range(-p - 1, ell + q + 1):
            for mu in range(1, table.dim + 1):
                lead = table.ext(a, p, mu, d)
                if lead:
                    out.add_product(lead, self.right(mu, ell - 1 - d, b, q), _sgn(d + 1))
        base = table.ext(a, p, b, q)
        self.transport(base, out, -1)
        base_vars = sorted(base.variables())
        for at, (g, n) in enumerate(base_vars):
            dbase = base.partial(g, n)  # nonzero: w[g,n] occurs in base
            for (z, m) in base_vars[at:]:
                second = dbase.partial(z, m)
                if second:
                    weight = Fraction(1, 2) if (z, m) == (g, n) else 1
                    out.add_product(second, self.quad(g, n, z, m), weight, shift=1)
        return out.value()


def r_deform_omega(table: OmegaTable, gen: GiventalGen, a: int, p: int,
                   b: int, q: int) -> HbarSeries:
    """First-order change of the (a,p;b,q) entry under an upper generator.

    A one-shot `UpperDeformation`; build that once to deform many entries
    of the same table along the same generator.
    """
    return UpperDeformation(table, gen)(a, p, b, q)


def entry_deformation(table: OmegaTable, gen: GiventalGen):
    """(a, p, b, q) -> the first-order change of that entry under `gen`;
    (a, p) -> that of the unit sum (a,p;unit,0).

    For an upper generator that is the `UpperDeformation` the table keeps
    for the generator's value, built on the first call: the entry
    deformations and `bracket.r_deform_bracket` of one table and generator
    share its factors.
    """
    if gen.kind == "r":
        key = (gen.level, gen.matrix)
        got = table._deforms.get(key)
        if got is None:
            got = table._deforms[key] = UpperDeformation(table, gen)
        return got
    return partial(s_deform_omega, table, gen)


# ---------------------------------------------------------------------------
# lower-kind deformation
# ---------------------------------------------------------------------------

def s_deform_omega(table: OmegaTable, gen: GiventalGen, a: int, p: int,
                   b: int | None = None, q: int = 0) -> HbarSeries:
    """First-order change of the (a,p;b,q) entry under a lower generator, or
    with no color b of the unit sum (a,p;unit,0), in one pass.

    Only four blocks contribute: index-lowering sums on both slots, weighted
    by M[mu][a] and M[mu][b], a constant term at level p+q+1, and (for
    level 1) the order-0 coordinate shift.  At even levels, where M is
    skew, the two-point string equation fixes the sign of the lowering
    blocks against the constant.  On the unit sum the first and last blocks
    read unit sums, the second is empty and the constant reads the row sum
    `gen.low_low_unit(a)`.
    """
    if gen.kind != "s":
        raise ValueError("lower-kind generator required")
    ell = gen.level
    s = table.dim
    H = table.trunc
    out = Sum()
    out.add(HbarSeries.zero(H))
    if ell <= p:
        for mu in range(1, s + 1):
            out.add(table.ext(mu, p - ell, b, q), gen.up_low(a, mu))
    if ell <= q:
        for mu in range(1, s + 1):
            out.add(table.entry(a, p, mu, q - ell), gen.up_low(b, mu))
    if ell == p + q + 1:
        m = gen.low_low_unit(a) if b is None else gen.matrix[a - 1][b - 1]
        out.add(HbarSeries.const(_sgn(p) * m, H))
    if ell == 1:
        out.add(evolve(table.ext(a, p, b, q), gen.unit_shift(H)), -1)
    return out.value()
