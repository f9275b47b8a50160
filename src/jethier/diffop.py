"""Matrix differential operators sum_k A_k d^k and Miura-type coordinate changes.

An operator is an s-by-s matrix whose (row, col) entry is a finite sum of
terms  coeff * d^k  with HbarSeries coefficients and k >= 0.  Composition
and the adjoint go through one cell-level Leibniz rule (`leibniz`), which
expands d^k o f; the adjoint sends f d^k to (-d)^k o f and transposes the
matrix.  A cell under construction accumulates one `jetcalc.Sum` per order
and is finished once (`finish`).  Applying a cell to a function f is
sum_k coeff_k dx^k(f) (`apply_entry`).  The bracket deformation reads two
more cells: the higher-Euler cell E_g(f), the adjoint of f's linearization
(`euler_cell`), and a commutator [X, P] known through o = dx P alone
(`commutator`).  `leibniz` reads each coefficient's lowest nonzero hbar
order once, and skips a pair of coefficients whose lowest orders sum past
the pair's truncation before any jet is taken: dx keeps hbar order, so
every product of the pair is zero.  Every coefficient of an operator is
known to the operator's own hbar order.  Conjugation under a coordinate
change, which must be the identity at hbar^0,

    w_a = m_a(v, v_1, ...),   m_a = v_a + O(hbar)

follows the standard transformation law  L o P o adjoint(L)  with
L[a,mu] = sum_e (dm_a/dv[mu,e]) d^e, after which coefficients are
re-expressed in the target jets through the inverse change.  A change keeps
what it derives: its inverse images, solved once (and not solved at all for
a change made by `inverse()`, whose inverse is the known forward map), and
one `Substitution` by them that caches the powers of the prolonged jets
across every coefficient it rewrites.  Those images are the identity modulo
hbar, so the substitution passes the top hbar part of each coefficient
through unchanged.  The x-derivatives the Leibniz rule reads are kept by
each coefficient series itself (`HbarSeries.dx`, one derivative of the
series' numerator store, computed once), so every row of a composition
reads the same ones.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .jetcalc import (HbarSeries, JetPoly, Substitution, Sum, evolve, is_var_mod_hbar, rat,
                      series_to_obj)

Entry = dict  # {order k: HbarSeries}


class DiffOperator:
    """Immutable s-by-s differential operator with HbarSeries coefficients."""

    __slots__ = ("dim", "trunc", "_entries")

    def __init__(self, dim: int, trunc: int, entries: dict):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        clean: dict[tuple[int, int], Entry] = {}
        for (row, col), orders in entries.items():
            if not (1 <= row <= dim and 1 <= col <= dim):
                raise ValueError(f"entry ({row},{col}) outside 1..{dim}")
            cell: Entry = {}
            for k, coeff in orders.items():
                if k < 0:
                    raise ValueError("negative operator order")
                if coeff.trunc < trunc:
                    raise ValueError(f"order-{k} coefficient of ({row},{col}) "
                                     f"stops at hbar^{coeff.trunc} < hbar^{trunc}")
                c = coeff.truncate(trunc)
                if c:
                    cell[k] = c
            if cell:
                clean[(row, col)] = cell
        self.dim = dim
        self.trunc = trunc
        self._entries = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: int, trunc: int) -> "DiffOperator":
        return DiffOperator(dim, trunc, {})

    @staticmethod
    def dx_op(dim: int, trunc: int, scale=1) -> "DiffOperator":
        """scale * d times the identity matrix."""
        c = HbarSeries.const(rat(scale), trunc)
        return DiffOperator(dim, trunc, {(a, a): {1: c} for a in range(1, dim + 1)})

    # -- queries ------------------------------------------------------

    def entry(self, row: int, col: int) -> Entry:
        return dict(self._entries.get((row, col), {}))

    def coeff(self, row: int, col: int, k: int) -> HbarSeries:
        got = self._entries.get((row, col), {}).get(k)
        return got if got is not None else HbarSeries.zero(self.trunc)

    def is_zero(self) -> bool:
        return not self._entries

    def entries(self):
        """Iterate ((row, col), order, coeff) deterministically."""
        for (row, col) in sorted(self._entries):
            for k in sorted(self._entries[(row, col)]):
                yield (row, col), k, self._entries[(row, col)][k]

    # -- negation and equality (for is_skew) --------------------------

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(
            self.dim, self.trunc,
            {key: {k: -c for k, c in cell.items()} for key, cell in self._entries.items()},
        )

    def __eq__(self, other) -> bool:
        """Equality within the smaller truncation; the constructor's cells are
        canonical, so equal operators have equal cells."""
        if not isinstance(other, DiffOperator):
            return NotImplemented
        h = min(self.trunc, other.trunc)
        a, b = (p if p.trunc == h else DiffOperator(p.dim, h, p._entries)
                for p in (self, other))
        return a.dim == b.dim and a._entries == b._entries

    def __repr__(self):
        return f"DiffOperator(dim={self.dim}, trunc={self.trunc}, entries={len(self._entries)})"


def finish(cell: dict) -> Entry:
    """The cell a cell under construction sums to, each order's sum reduced
    once and the zero coefficients dropped."""
    return {k: c for k, s in cell.items() if (c := s.value())}


def _screen(c) -> tuple:
    """(lowest nonzero hbar order, truncation) of a cell coefficient: the index
    of a series' first nonempty part (one past its last part for zero) and its
    trunc, or (0, None) for a JetPoly, int or Fraction."""
    if type(c) is not HbarSeries:
        return 0, None
    parts = c.parts
    low = 0
    while low < len(parts) and not parts[low]:
        low += 1
    return low, c.trunc


def _moves(c) -> bool:
    """Whether dx(c) is nonzero, i.e. some monomial of c is not constant."""
    if type(c) is HbarSeries:
        return any(map(any, c.parts))  # the constant monomial () is falsy
    return type(c) is JetPoly and c.max_order() >= 0


def _past(ta, tb, low: int) -> bool:
    """Whether a product whose factors are known to hbar^ta and hbar^tb (None:
    to every order) and whose lowest order is `low` is zero in the truncation."""
    t = ta if tb is None or (ta is not None and ta < tb) else tb
    return t is not None and low > t


def leibniz(a: Entry, b: Entry, out: dict | None = None) -> dict:
    """Add the scalar composition a o b into the cell under construction
    `out`, a defaultdict(Sum), and return it; `finish` gives the cell.

    Cells map orders to coefficients, {k: c} standing for sum_k c d^k (those
    of a may be ints or Fractions); the Leibniz rule
    d^k1 o (f d^k2) = sum_i C(k1,i) dx^i(f) d^(k1-i+k2)  expands the product.
    The jets dx^i(f) are the ones f keeps, so calls with the same b share
    them; the walk stops at the first jet that vanishes.

    Each coefficient's lowest hbar order is read once (`_screen`).  A pair
    whose lowest orders sum past the pair's truncation takes no jet: dx
    keeps hbar order, so every product it would add is zero.  It still adds
    a zero term (k = 0) to each sum its nonzero jets would reach, all k1+1
    unless f is constant, so every sum keeps the truncation it would have.
    """
    if out is None:
        out = defaultdict(Sum)
    sa = [(k1, ca, *_screen(ca)) for k1, ca in a.items()]
    for k2, cb in b.items():
        if not cb:
            continue
        lb, tb = _screen(cb)
        moves = None
        for k1, ca, la, ta in sa:
            if _past(ta, tb, la + lb):
                if moves is None:
                    moves = _moves(cb)
                for i in range(k1 + 1 if moves else 1):
                    out[k1 - i + k2].add_product(ca, cb, 0)
                continue
            jet = cb
            for i in range(k1 + 1):
                if not jet:
                    break
                out[k1 - i + k2].add_product(ca, jet, math.comb(k1, i))
                if i < k1:
                    jet = jet.dx()
    return out


def apply_entry(cell: Entry, f):
    """The scalar operator `cell` applied to f: sum_k c_k dx^k(f)."""
    out = Sum()
    out.add(f, 0)
    for k, c in cell.items():
        out.add_product(c, f.dx_pow(k))
    return out.value()


def euler_cell(f, g: int) -> Entry:
    """E_g(f) = sum_k (-1)^k T[g,k](f) d^k, the adjoint of f's linearization
    sum_n (df/dw[g,n]) d^n, with T the higher Euler operators (`t_op`): each
    partial is taken once, and `leibniz` reads its kept jets."""
    lin = {n: f.partial(g, n) for n in sorted({m for gg, m in f.variables() if gg == g})}
    return finish(_adjoint_cell(lin, defaultdict(Sum)))


def commutator(x: Entry, o) -> dict:
    """The cell [X, P], under construction, for any function P with dx P = o,
    which need not be in the ring:
    [d^k, P] = sum_{i=1..k} C(k,i) dx^(i-1)(o) d^(k-i)."""
    out = defaultdict(Sum)
    for k, xk in x.items():
        jet = o
        for i in range(1, k + 1):
            if not jet:
                break
            out[k - i].add_product(xk, jet, math.comb(k, i))
            if i < k:
                jet = jet.dx()
    return out


def compose(p: DiffOperator, q: DiffOperator) -> DiffOperator:
    """Operator composition p o q with matrix contraction over the inner color."""
    if p.dim != q.dim:
        raise ValueError("operator dimensions do not match")
    out = defaultdict(lambda: defaultdict(Sum))
    for (row, mid), cell_p in p._entries.items():
        for col in range(1, q.dim + 1):
            cell_q = q._entries.get((mid, col))
            if cell_q:
                leibniz(cell_p, cell_q, out[(row, col)])
    cells = {key: finish(cell) for key, cell in out.items()}
    return DiffOperator(p.dim, min(p.trunc, q.trunc), cells)


def _adjoint_cell(cell: Entry, out: dict) -> dict:
    """Add the scalar adjoint sum_k (-d)^k o c_k of the cell sum_k c_k d^k
    into the cell under construction `out`, and return it."""
    for k, a in cell.items():
        leibniz({k: -1 if k % 2 else 1}, {0: a}, out)
    return out


def adjoint(p: DiffOperator) -> DiffOperator:
    """Formal adjoint: f d^k -> (-d)^k o f, colors transposed."""
    out = defaultdict(lambda: defaultdict(Sum))
    for (row, col), cell in p._entries.items():
        _adjoint_cell(cell, out[(col, row)])
    return DiffOperator(p.dim, p.trunc, {key: finish(cell) for key, cell in out.items()})


def apply_op(p: DiffOperator, vec) -> list:
    """Apply to a vector of HbarSeries (index 0 is color 1)."""
    if len(vec) != p.dim:
        raise ValueError("vector length does not match operator dimension")
    out = [HbarSeries.zero(p.trunc) for _ in range(p.dim)]
    for (row, col), cell in p._entries.items():
        out[row - 1] = out[row - 1] + apply_entry(cell, vec[col - 1])
    return out


def is_skew(p: DiffOperator) -> bool:
    """True iff adjoint(p) == -p exactly within the truncation."""
    return adjoint(p) == -p


# ---------------------------------------------------------------------------
# Miura-type coordinate changes
# ---------------------------------------------------------------------------

class MiuraChange:
    """Coordinate change w_a = m_a(v, v_1, ...), the identity at hbar^0.

    `forward` holds one HbarSeries per color, written in the source jets,
    and the hbar^0 part of component a must be v_a itself, as for the weak
    quasi-Miura class.  The inverse is computed on demand by fixed-point
    substitution, which is triangular in the hbar grading.  The inverse
    modulo hbar^(trunc+1) is unique, so `inverse()` hands its result the
    forward map as its inverse instead of solving for it again.
    `express_in_target` substitutes through one `Substitution` by the
    inverse images, built on first use and kept.
    """

    __slots__ = ("dim", "trunc", "forward", "_inverse", "_to_target")

    def __init__(self, forward):
        fwd = tuple(forward)
        if not fwd:
            raise ValueError("empty coordinate change")
        h = min(f.trunc for f in fwd)
        fwd = tuple(f.truncate(h) for f in fwd)
        for alpha, f in enumerate(fwd, start=1):
            if not is_var_mod_hbar(f, alpha):
                raise ValueError(f"hbar^0 part of component {alpha} must be w[{alpha},0]")
        self.dim = len(fwd)
        self.trunc = h
        self.forward = fwd
        self._inverse = None
        self._to_target = None

    def inverse_images(self) -> tuple:
        """Components of the inverse change, expressed in the target jets."""
        if self._inverse is not None:
            return self._inverse
        h = self.trunc
        # v_a = w_a - tail_a(v), with tail_a the hbar-positive part of m_a
        tails = [f - JetPoly.var(a, 0) for a, f in enumerate(self.forward, start=1)]
        wvars = [HbarSeries.var(a, 0, h) for a in range(1, self.dim + 1)]
        cur = wvars
        for _ in range(h):
            sub = Substitution(dict(enumerate(cur, start=1)), h)
            cur = [wvars[a] - sub(tails[a]) for a in range(self.dim)]
        self._inverse = tuple(cur)
        return self._inverse

    def inverse(self) -> "MiuraChange":
        """The inverse change; its own inverse is this change's forward map."""
        inv = MiuraChange(self.inverse_images())
        inv._inverse = self.forward
        return inv

    def express_in_target(self, x):
        """Rewrite a source-jet JetPoly or HbarSeries in the target jets."""
        if self._to_target is None:
            images = dict(enumerate(self.inverse_images(), start=1))
            self._to_target = Substitution(images, self.trunc)
        return self._to_target(x)

    def jacobian(self) -> DiffOperator:
        """L[a,mu] = sum_e (dm_a/dv[mu,e]) d^e, in source jets."""
        out: dict[tuple[int, int], Entry] = {}
        for alpha, f in enumerate(self.forward, start=1):
            for (mu, e) in sorted(f.variables()):
                # nonzero: w[mu,e] occurs in f
                out.setdefault((alpha, mu), {})[e] = f.partial(mu, e)
        return DiffOperator(self.dim, self.trunc, out)

    def push_flow(self, rhs) -> list:
        """Transport a flow v_t = rhs (source jets) to the target coordinates."""
        if len(rhs) != self.dim:
            raise ValueError("flow length does not match dimension")
        fields = dict(enumerate(rhs, start=1))
        return [self.express_in_target(evolve(f, fields)) for f in self.forward]


def conjugate_by_miura(p: DiffOperator, m: MiuraChange) -> DiffOperator:
    """Transform a Poisson-type operator under the change of coordinates m.

    Computes L o P o adjoint(L) in the source jets and then re-expresses all
    coefficients in the target jets through the inverse change.
    """
    if p.dim != m.dim:
        raise ValueError("operator and coordinate change dimensions differ")
    jac = m.jacobian()
    raw = compose(compose(jac, p), adjoint(jac))
    trunc = min(p.trunc, m.trunc)
    out: dict[tuple[int, int], Entry] = {}
    for (key, k, coeff) in raw.entries():
        c = m.express_in_target(coeff.truncate(trunc))
        if c:
            out.setdefault(key, {})[k] = c
    return DiffOperator(p.dim, trunc, out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def operator_to_obj(p: DiffOperator, leaf=series_to_obj) -> dict:
    """The operator's output tree, each coefficient given as `leaf(series)`:
    plain JSON by default; the identity keeps the HbarSeries values as
    leaves, which `to_json` writes straight from their numerators."""
    return {
        "rows": p.dim,
        "cols": p.dim,
        "trunc": p.trunc,
        "entries": [
            {"row": row, "col": col, "order": k, "coeff": leaf(c)}
            for (row, col), k, c in p.entries()
        ],
    }
