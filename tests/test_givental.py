"""Generators, extension conventions, triple correlators, table deformations."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from jethier.jetcalc import HbarSeries, JetPoly, Sum, evolve, series_to_obj, to_json
from jethier.givental import (
    GiventalGen,
    InconsistentTable,
    OmegaTable,
    UpperDeformation,
    entry_deformation,
    gen_from_obj,
    gen_to_obj,
    r_deform_omega,
    s_deform_omega,
    table_to_obj,
    triple_omega,
)
from jethier.bracket import check_series_homogeneity
from jethier.genus0 import Genus0Data, trr_extend
from jethier.kdvbase import kdv_omega_table, tensor_power
from readers import hbar_shift, table_from_obj

W = JetPoly.var


def w(n, exp=1):
    return W(1, n, exp)


def r_gen(level, matrix):
    return GiventalGen("r", level, matrix)


def s_gen(level, matrix):
    return GiventalGen("s", level, matrix)


def r_deform_long(table, gen, a, p, b, q):
    """Unsimplified display of the upper-kind entry deformation.

    Linear terms with the level added to one descendant index, interior
    products, the transport of the coordinate change and the hbar/2
    second-derivative block, each written out separately: an independent
    transcription that `r_deform_omega` must agree with.
    """
    M = gen.matrix
    ell = gen.level
    s = table.dim
    H = table.trunc
    base = table.entry(a, p, b, q)
    base_vars = sorted(base.variables())
    out = HbarSeries.zero(H)
    # linear terms with the level added to one descendant index
    for mu in range(1, s + 1):
        out = out + M[a - 1][mu - 1] * table.entry(mu, p + ell, b, q)
        out = out + M[b - 1][mu - 1] * table.entry(a, p, mu, q + ell)
    # interior product terms
    for i in range(ell):
        sign = (-1) ** (i + 1)
        for mu in range(1, s + 1):
            for nu in range(1, s + 1):
                c = M[mu - 1][nu - 1] * sign
                if c == 0:
                    continue
                out = out + c * (table.entry(a, p, mu, i)
                                 * table.entry(nu, ell - 1 - i, b, q))
    # transport of the coordinate change, through first partials
    for (g, n) in base_vars:
        dbase = base.partial(g, n)
        if not dbase:
            continue
        inner = HbarSeries.zero(H)
        for mu in range(1, s + 1):
            cu = gen.up_low(mu, g)
            if cu != 0:
                inner = inner + cu * table.ext(mu, ell).dx_pow(n)
            cl = sum(M[c][mu - 1] for c in range(s))
            if cl != 0:
                inner = inner + (n + 1) * cl * table.entry(g, 0, mu, ell).dx_pow(n)
            for nu in range(1, s + 1):
                c = M[mu - 1][nu - 1]
                if c == 0:
                    continue
                for i in range(ell):
                    si = (-1) ** (i + 1)
                    for k in range(n):
                        inner = inner + (c * si * math.comb(n, k)) * (
                            table.entry(g, 0, mu, i).dx_pow(k + 1)
                            * table.ext(nu, ell - 1 - i).dx_pow(n - k - 1))
                    inner = inner + (c * si) * (
                        table.entry(g, 0, mu, i)
                        * table.ext(nu, ell - 1 - i)).dx_pow(n)
        out = out - dbase * inner
    # second-derivative block, weighted by hbar/2
    hterm = HbarSeries.zero(H)
    for (g, n) in base_vars:
        for (z, m) in base_vars:
            second = base.partial(g, n).partial(z, m)
            if not second:
                continue
            inner = HbarSeries.zero(H)
            for i in range(ell):
                si = (-1) ** (i + 1)
                for mu in range(1, s + 1):
                    for nu in range(1, s + 1):
                        c = M[mu - 1][nu - 1] * si
                        if c == 0:
                            continue
                        inner = inner + c * (
                            table.entry(g, 0, mu, i).dx_pow(n + 1)
                            * table.entry(nu, ell - 1 - i, z, 0).dx_pow(m + 1))
            hterm = hterm + second * inner
    return out + hbar_shift(hterm) / 2




# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_parity_validation():
    r_gen(1, [[1]])                      # odd level: symmetric ok
    r_gen(2, [[0, 2], [-2, 0]])          # even level: skew ok
    with pytest.raises(ValueError):
        r_gen(2, [[1]])                  # even level needs skew, 1x1 nonzero fails
    with pytest.raises(ValueError):
        r_gen(1, [[0, 1], [-1, 0]])      # odd level needs symmetric
    with pytest.raises(ValueError):
        GiventalGen("x", 1, [[1]])
    with pytest.raises(ValueError):
        GiventalGen("r", 0, [[1]])


def test_index_shift_signs():
    g = r_gen(2, [[0, 3], [-3, 0]])
    assert g.matrix[0][1] == 3           # up-up, low-up and low-low positions
    assert g.up_low(1, 2) == -3          # picks up (-1)^(l+1) = -1
    godd = s_gen(3, [[1, 2], [2, 5]])
    assert godd.up_low(1, 2) == 2        # symmetric level: no sign
    assert godd.low_low_unit(1) == 3


def test_gen_json_roundtrip():
    g = s_gen(1, [["1/2", -2], [-2, 0]])
    assert gen_from_obj(gen_to_obj(g)).matrix == g.matrix


# ---------------------------------------------------------------------------
# extension convention
# ---------------------------------------------------------------------------

def test_extension_values():
    table = kdv_omega_table(2, 2, 1)
    one = HbarSeries.const(1, 1)
    assert table.ext(1, -1, 1, 0) == one
    assert table.ext(1, 1, 1, -2) == -one
    assert table.ext(1, -1, 1, 5).is_zero()
    assert table.ext(1, -2, 1, -1).is_zero()
    assert table.ext(1, -1) == one
    with pytest.raises(IndexError):
        table.ext(1, 5, 1, 0)


def test_items_of_a_given_table_with_a_hole_names_it():
    # a table given its entries, not a builder, has none to fill the hole with
    table = OmegaTable(1, 1, 1, 0, {(1, 0, 1, 0): HbarSeries.const(1, 0)})
    for read in (lambda: table.entry(1, 0, 1, 1), table.items):
        with pytest.raises(IndexError, match=r"table entry \(1,0;1,1\)"):
            read()


def test_table_keeps_what_it_derives():
    table = tensor_power(kdv_omega_table(3, 3, 1), 2)
    for a in (1, 2):
        for p in range(-2, 4):
            got = table.ext(a, p)
            assert table.ext(a, p) is got
            assert got == table.ext(a, p, 1, 0) + table.ext(a, p, 2, 0)
    assert table.ext(1, -1, 1, 0) is table.ext(2, 0, 2, -1)
    assert table.ext(1, -1, 2, 0) is table.ext(1, -3, 1, -2)
    # one upper deformation per generator value, none shared across tables
    gen = GiventalGen("r", 1, [[1, 2], [2, 3]])
    deform = entry_deformation(table, gen)
    assert isinstance(deform, UpperDeformation)
    assert entry_deformation(table, GiventalGen("r", 1, [["1", "2"], ["2", "3"]])) is deform
    assert entry_deformation(table, GiventalGen("r", 1, [[1, 2], [2, 4]])) is not deform
    assert entry_deformation(tensor_power(kdv_omega_table(3, 3, 1), 2), gen) is not deform


def test_built_table_is_symmetric_by_construction():
    # the builder makes a new series on every call, yet the table answers
    # (a,p; b,q) with q < p <= qmax from (b,q; a,p) and never asks for it
    asked = []

    def build(_, a, p, b, q):
        asked.append((a, p, b, q))
        return HbarSeries.const(10 * p + q, 0)

    table = OmegaTable(2, 3, 2, 0, {}, build=build)
    assert table.entry(1, 1, 1, 0) is table.entry(1, 0, 1, 1)
    assert table.entry(1, 0, 2, 2) is table.entry(2, 2, 1, 0)
    entries = dict(table.items())
    # three (p, q) with q < p <= 2, for each of the four color pairs, are not built
    assert len(asked) == len(set(asked)) == len(entries) - 3 * 4 == 36
    assert not [(a, p, b, q) for a, p, b, q in asked if q < p <= table.qmax]
    for (a, p, b, q), got in entries.items():
        if q < p <= table.qmax:
            assert got is entries[(b, q, a, p)]
    # past qmax an index has no transpose in bounds, so it is built
    assert entries[(2, 3, 1, 1)] == HbarSeries.const(31, 0)


# ---------------------------------------------------------------------------
# triple correlators
# ---------------------------------------------------------------------------

def test_triple_examples():
    table = kdv_omega_table(2, 2, 2)
    got = triple_omega(table, (1, 0), (1, 0), (1, 0))
    assert got == HbarSeries.of(w(1), 2)
    assert triple_omega(table, (1, -1), (1, 0), (1, 0)).is_zero()
    got = triple_omega(table, (1, 1), (1, 0), (1, 0))
    assert got == HbarSeries(2, [w(0) * w(1), w(3) / 12])


def triple_omega_every_pick(table, i1, i2, i3):
    """`triple_omega` evolving every pick, the zero ones too: the reference
    its zero-pick shortcut must agree with."""
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


@pytest.mark.parametrize("trunc", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_triple_matches_every_pick_reference(dim, trunc):
    table = tensor_power(kdv_omega_table(2, 2, trunc), dim)
    slots = [(a, k) for a in range(1, dim + 1) for k in range(3)]
    zero_picks = 0
    for idx in combinations_with_replacement(slots, 3):
        got = triple_omega(table, *idx)
        want = triple_omega_every_pick(table, *idx)
        assert got == want and got.trunc == want.trunc == trunc, idx
        # order-free: `r_deform_bracket` evaluates one order per multiset
        for order in permutations(idx):
            assert triple_omega(table, *order) == want, order
        zero_picks += sum(not table.entry(*idx[(i + 1) % 3], *idx[(i + 2) % 3])
                          for i in range(3))
    # one color has no zero entry; more colors have mixed-color zeros
    assert (zero_picks > 0) == (dim > 1)


def test_triple_consistency_guard():
    table = kdv_omega_table(1, 1, 0)
    table.items()
    # a zero entry is a pick too: it must disagree with the nonzero ones
    for bad_value in (HbarSeries.of(w(0) ** 5, 0), HbarSeries.zero(0)):
        bad_entries = dict(table._entries)
        bad_entries[(1, 1, 1, 1)] = bad_value
        bad = OmegaTable(1, 1, 1, 0, bad_entries)
        for order in set(permutations([(1, 1), (1, 1), (1, 0)])):
            with pytest.raises(InconsistentTable):
                triple_omega(bad, *order)


def test_triple_degree_grading():
    table = kdv_omega_table(3, 3, 1)
    for k in [(0, 0, 1), (1, 1, 0), (2, 1, 0), (1, 1, 1)]:
        t = triple_omega(table, (1, k[0]), (1, k[1]), (1, k[2]))
        assert not check_series_homogeneity(t, 1)


# ---------------------------------------------------------------------------
# upper-kind deformation
# ---------------------------------------------------------------------------

def test_r_deform_zero_matrix():
    table = kdv_omega_table(3, 3, 1)
    g = r_gen(2, [[0]])
    assert r_deform_omega(table, g, 1, 0, 1, 0).is_zero()


def test_r_deform_coordinate_entry_is_fixed():
    # the (0;0) entry is the coordinate itself in every frame
    table = kdv_omega_table(4, 4, 1)
    for level in (1, 3):
        g = r_gen(level, [[1]])
        assert r_deform_omega(table, g, 1, 0, 1, 0).is_zero(), level


def test_r_deform_level1_golden_values():
    # hand-derived from the deformation formula at the one-color base point
    table2 = kdv_omega_table(2, 2, 2)
    g = r_gen(1, [[1]])
    got = r_deform_omega(table2, g, 1, 1, 1, 0)
    want = HbarSeries(2, [JetPoly.zero(), -w(1) ** 2 / 2, -w(4) / 60])
    assert got == want

    table1 = kdv_omega_table(4, 4, 1)
    got = r_deform_omega(table1, g, 1, 2, 1, 0)
    assert got == HbarSeries(1, [JetPoly.zero(), -w(0) * w(1) ** 2 / 2])
    got = r_deform_omega(table1, g, 1, 3, 1, 0)
    assert got == HbarSeries(1, [JetPoly.zero(), -w(0) ** 2 * w(1) ** 2 / 4])


def test_r_deform_long_equals_simplified():
    table = kdv_omega_table(5, 5, 1)
    for level in (1, 3):
        g = r_gen(level, [[1]])
        for (p, q) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
            lhs = r_deform_omega(table, g, 1, p, 1, q)
            rhs = r_deform_long(table, g, 1, p, 1, q)
            assert lhs == rhs, (level, p, q)


def test_r_deform_symmetry():
    table = kdv_omega_table(5, 5, 1)
    for level in (1, 3):
        g = r_gen(level, [[1]])
        for p in range(3):
            for q in range(3):
                lhs = r_deform_omega(table, g, 1, p, 1, q)
                rhs = r_deform_omega(table, g, 1, q, 1, p)
                assert lhs == rhs, (level, p, q)


def test_r_deform_homogeneity_preserved():
    table = kdv_omega_table(5, 5, 1)
    for level in (1, 3):
        g = r_gen(level, [[1]])
        for (p, q) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]:
            out = r_deform_omega(table, g, 1, p, 1, q)
            assert not check_series_homogeneity(out, 0)


def test_r_deform_window_is_sharp():
    # one index beyond the extension window contributes nothing: widening
    # the d-range in the simplified form is checked here indirectly by
    # comparing against the long form on a shifted-bounds table
    table = kdv_omega_table(6, 6, 1)
    g = r_gen(3, [[1]])
    got = r_deform_omega(table, g, 1, 2, 1, 0)
    # beyond-window extension factors all vanish
    for d in (-4, 6):
        sign = (-1) ** (d + 1)
        term = table.ext(1, 2, 1, d) * table.ext(1, g.level - 1 - d, 1, 0)
        assert term.is_zero()
    assert got == r_deform_long(table, g, 1, 2, 1, 0)


def test_r_deform_two_color_even_level():
    table = tensor_power(kdv_omega_table(4, 4, 1), 2)
    g = r_gen(2, [[0, 1], [-1, 0]])
    for (a, p, b, q) in [(1, 0, 2, 0), (1, 1, 2, 0), (2, 1, 1, 1), (1, 2, 2, 1)]:
        lhs = r_deform_omega(table, g, a, p, b, q)
        rhs = r_deform_omega(table, g, b, q, a, p)
        assert lhs == rhs
        assert lhs == r_deform_long(table, g, a, p, b, q)
        assert not check_series_homogeneity(lhs, 0)


def seeded_matrix(seed, colors, level):
    """A dense matrix with the generator's parity: symmetric at odd levels,
    skew at even ones, every entry the parity allows nonzero."""
    rng = random.Random(seed)
    sign = 1 if level % 2 else -1
    m = [[Fraction(0)] * colors for _ in range(colors)]
    for i in range(colors):
        for j in range(i if sign == 1 else i + 1, colors):
            v = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))
            m[i][j], m[j][i] = v, sign * v
    return m


@pytest.mark.parametrize("colors, level, matrix, hbar", [
    (2, 1, [[1, 2], [2, -3]], 1),
    (2, 1, [[1, 2], [2, -3]], 2),
    (2, 2, [[0, "3/2"], ["-3/2", 0]], 1),
    (3, 1, [[1, 2, 0], [2, -1, "1/2"], [0, "1/2", 3]], 1),
    (3, 3, [[2, -1, 1], [-1, 0, 3], [1, 3, 1]], 1),
    (3, 2, seeded_matrix(1, 3, 2), 1),
    (4, 2, seeded_matrix(2, 4, 2), 1),
    (3, 4, seeded_matrix(3, 3, 4), 1),
    (4, 4, seeded_matrix(4, 4, 4), 1),
    (3, 1, seeded_matrix(5, 3, 1), 2),
], ids=["2c-level1-h1", "2c-level1-h2", "2c-level2-h1", "3c-level1-h1", "3c-level3-h1",
        "3c-level2-seeded", "4c-level2-seeded", "3c-level4-seeded", "4c-level4-seeded",
        "3c-level1-h2-seeded"])
def test_r_deform_dense_generators_match_long_form(colors, level, matrix, hbar):
    # off-diagonal entries of a dense matrix reach the contraction over nu in
    # every block: mixed-color entries (zero on a tensor power) see it in the
    # product block, diagonal ones in the transport factors too.  One
    # deformation serves every entry, so its kept factors are reused across
    # entries; at hbar^2 they are reached at jet orders above 0.  The entry's
    # quadratic block runs over unordered variable pairs, which needs every
    # quad factor symmetric in its two pairs: checked on each one built.  Only
    # the hbar^2 rows meet pairs off the diagonal: at hbar^1 the block reads
    # the hbar^0 parts, which depend on w[.,0] alone
    if hbar == 1:
        table = kdv_omega_table(max(5, 2 + level), max(5, 2 + level), 1)
        indices = [(1, 0, 2, 1), (2, 1, 1, 2), (1, 2, colors, 1), (colors, 2, 1, 2),
                   (1, 1, 1, 2), (2, 2, 2, 1), (colors, 0, colors, 2)]
    else:
        table = kdv_omega_table(2, 2, 2)
        indices = [(1, 0, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1), (2, 0, 2, 1), (1, 1, 1, 0)]
    table = tensor_power(table, colors)
    g = r_gen(level, matrix)
    deform = UpperDeformation(table, g)
    for (a, p, b, q) in indices:
        assert deform(a, p, b, q) == r_deform_long(table, g, a, p, b, q), (a, p, b, q)
    built = list(deform._quad)
    assert built
    for (g_, n, z, m) in built:
        assert deform.quad(g_, n, z, m) == deform.quad(z, m, g_, n), (g_, n, z, m)


def window_unskipped(deform, a, p, b, q):
    """`UpperDeformation.__call__` with every (d, mu) of the window added,
    zero first factors included."""
    table, ell = deform.table, deform.gen.level
    base = table.entry(a, p, b, q)
    out = Sum()
    for d in range(-p - 1, ell + q + 1):
        for mu in range(1, table.dim + 1):
            out.add_product(table.ext(a, p, mu, d), deform.right(mu, ell - 1 - d, b, q),
                            (-1) ** ((d + 1) % 2))
    base_vars = sorted(base.variables())
    for (g, n) in base_vars:
        dbase = base.partial(g, n)
        out.add_product(dbase, deform.lin(g, n), -1)
        for (z, m) in base_vars:
            second = dbase.partial(z, m)
            if second:
                out.add_product(second, deform.quad(g, n, z, m), Fraction(1, 2), shift=1)
    return out.value()


def test_entry_deformation_skips_zero_window_factors(monkeypatch):
    # below d = 0 the window's first factor is zero but at d = -p-1, mu = a:
    # skipping the zero ones changes no entry and saves products
    table = tensor_power(kdv_omega_table(6, 6, 1), 2)
    table.items()
    g = r_gen(3, [[1, 2], [2, -3]])
    calls = []
    add_product = Sum.add_product

    def spy(self, *args, **kwargs):
        calls.append(args)
        return add_product(self, *args, **kwargs)

    monkeypatch.setattr(Sum, "add_product", spy)
    for (a, p, b, q) in [(1, 2, 2, 1), (2, 1, 1, 0), (2, 0, 2, 2)]:
        start = len(calls)
        got = UpperDeformation(table, g)(a, p, b, q)
        mid = len(calls)
        want = window_unskipped(UpperDeformation(table, g), a, p, b, q)
        assert got == want and got.trunc == want.trunc == 1, (a, p, b, q)
        assert mid - start < len(calls) - mid, (a, p, b, q)


def transport_closed_form(table, gen, g, n):
    """lin[g,n] from its definition: the sum over d and mu of
    (-1)^(d+1) T_n((g,0;mu,d), sum_nu M[mu][nu] (nu,l-1-d;unit,0)), with
    T_n(lead, tail) = sum_{k=0..n} C(n+1,k) dx^k(lead) dx^(n-k)(tail)."""
    colors = range(1, table.dim + 1)
    ell = gen.level
    out = HbarSeries.zero(table.trunc)
    for d in range(-1, ell + 1):
        for mu in colors:
            lead = table.ext(g, 0, mu, d)
            tail = sum((gen.matrix[mu - 1][nu - 1] * table.ext(nu, ell - 1 - d)
                        for nu in colors), HbarSeries.zero(table.trunc))
            for k in range(n + 1):
                out = out + (-1) ** (d + 1) * math.comb(n + 1, k) * (
                    lead.dx_pow(k) * tail.dx_pow(n - k))
    return out


@pytest.fixture(scope="module")
def transport_points():
    from test_bracket import ROT, rotate  # the coupled three-color point

    one = kdv_omega_table(5, 5, 1)
    square = tensor_power(one, 2)
    cube = tensor_power(kdv_omega_table(4, 4, 1), 3)
    sym3, skew3 = [[1, 2, 3], [2, -1, 5], [3, 5, 2]], [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]
    points = [(one, 1, [[1]]), (one, 3, [[1]]), (kdv_omega_table(2, 2, 2), 1, [[1]]),
              (square, 1, [[1, 2], [2, -3]]), (square, 2, [[0, 1], [-1, 0]]),
              (square, 3, [[2, 1], [1, 0]])]
    for table in (cube, rotate(cube, ROT)):
        points += [(table, 1, sym3), (table, 2, skew3), (table, 3, sym3)]
    return points


def test_lin_recursion_matches_closed_form(transport_points):
    # lin[g,n] = dx lin[g,n-1] + sum (-1)^(d+1) dx^n(lead) tail, by Pascal's
    # rule, against the binomial sum it replaces
    for table, level, matrix in transport_points:
        g = r_gen(level, matrix)
        deform = UpperDeformation(table, g)
        for color in range(1, table.dim + 1):
            for n in range(6):
                assert deform.lin(color, n) == transport_closed_form(table, g, color, n), (
                    table.dim, table.trunc, level, color, n)


def test_r_deform_first_order_recursion_preserved():
    # linearized descendant recursion at the dispersionless level:
    # d/dv of the deformed (a,p+1;b,q) entry stays consistent with the
    # deformed product rule, to first order in the group parameter
    table = kdv_omega_table(5, 5, 1)
    g = r_gen(1, [[1]])

    def om(p, q):
        return table.entry(1, p, 1, q).coeffs[0]

    def dom(p, q):
        return r_deform_omega(table, g, 1, p, 1, q).coeffs[0]

    for p in range(3):
        for q in range(3):
            lhs = dom(p + 1, q).partial(1, 0)
            rhs = (dom(p, 0) * om(0, q).partial(1, 0)
                   + om(p, 0) * dom(0, q).partial(1, 0))
            assert lhs == rhs, (p, q)


# ---------------------------------------------------------------------------
# lower-kind deformation
# ---------------------------------------------------------------------------

def test_s_deform_zero_matrix():
    table = kdv_omega_table(2, 2, 1)
    assert s_deform_omega(table, s_gen(1, [[0]]), 1, 0, 1, 0).is_zero()


def test_s_deform_level1_cancellation():
    table = kdv_omega_table(2, 2, 2)
    g = s_gen(1, [[1]])
    # constant block cancels against the coordinate-shift block
    assert s_deform_omega(table, g, 1, 0, 1, 0).is_zero()
    assert s_deform_omega(table, g, 1, 1, 1, 0).is_zero()
    assert s_deform_omega(table, g, 1, 2, 1, 0).is_zero()


def test_s_deform_all_sums_empty():
    table = kdv_omega_table(3, 3, 1)
    g = s_gen(3, [[1]])
    # level > p, level > q, level != p+q+1: every block is empty
    assert s_deform_omega(table, g, 1, 1, 1, 0).is_zero()
    # level == p+q+1 leaves only the constant block
    got = s_deform_omega(table, g, 1, 2, 1, 0)
    assert got == HbarSeries.const(1, 1)


@pytest.mark.parametrize("level, matrix", [(1, [[1, 2], [2, 3]]), (2, [[0, 1], [-1, 0]])])
def test_s_deform_symmetric(level, matrix):
    # the two index-lowering blocks act on the two slots: swapping the slots
    # swaps the blocks, so each slot's block is checked against the other's
    table = tensor_power(kdv_omega_table(4, 4, 1), 2)
    g = s_gen(level, matrix)
    nonzero = 0
    for a in (1, 2):
        for b in (1, 2):
            for p in range(3):
                for q in range(3):
                    got = s_deform_omega(table, g, a, p, b, q)
                    assert got == s_deform_omega(table, g, b, q, a, p), (a, p, b, q)
                    nonzero += not got.is_zero()
    assert nonzero


def string_residuals(table, deform, bound):
    """Two-point string-equation residuals of a deformation D = `deform` of
    `table`, p, q <= bound:  d_e D(a,p;b,q) - D(a,p-1;b,q) - D(a,p;b,q-1),
    with d_e = sum_g d/dw[g,0] and D zero at a negative index."""
    colors = range(1, table.dim + 1)

    def d(a, p, b, q):
        return deform(a, p, b, q) if min(p, q) >= 0 else HbarSeries.zero(table.trunc)

    out = []
    for a, p, b, q in product(colors, range(bound + 1), colors, range(bound + 1)):
        got = d(a, p, b, q)
        lhs = Sum()
        for g in colors:
            lhs.add(got.partial(g, 0))
        lhs.add(d(a, p - 1, b, q), -1)
        lhs.add(d(a, p, b, q - 1), -1)
        out.append(lhs.value())
    return out


# (odd-level, even-level) generator matrices: symmetric and skew
MATRICES = {2: ([[1, 2], [2, 3]], [[0, 1], [-1, 0]]),
            3: ([[1, 2, 0], [2, 3, 1], [0, 1, 2]], [[0, 1, 2], [-1, 0, 1], [-2, -1, 0]])}


def on_colors(cases):
    """(kind, level, colors): every case on two colors, and levels 1 and 2 of
    both kinds on three colors too."""
    return ([pytest.param(kind, level, 2, id=f"{kind}-{level}") for kind, level in cases]
            + [pytest.param(kind, level, 3, id=f"{kind}-{level}-3colors")
               for kind in ("s", "r") for level in (1, 2)])


def deformed_table(kind, level, colors, bound, trunc):
    """A tensor power of the KdV table and its entry deformation."""
    table = tensor_power(kdv_omega_table(bound, bound, trunc), colors)
    matrix = MATRICES[colors][0 if level % 2 else 1]
    return table, entry_deformation(table, GiventalGen(kind, level, matrix))


@pytest.mark.parametrize("trunc", [0, 1])
@pytest.mark.parametrize("kind, level, colors", on_colors(
    [("s", 1), ("s", 2), ("s", 3), ("s", 4), ("r", 1), ("r", 2)]))
def test_deformation_keeps_string_equation(kind, level, colors, trunc):
    # the string equation holds for the two-point functions of every
    # calibrated Frobenius manifold, so it holds for a deformation to first
    # order; at even lower levels it pins the sign of the index-lowering
    # blocks against the constant block
    table, deform = deformed_table(kind, level, colors, 5, trunc)
    bound = 3 if colors == 2 else 2
    residuals = string_residuals(table, deform, bound)
    assert len(residuals) == (colors * (bound + 1)) ** 2
    assert any(deform(a, p, b, q) for a, p, b, q in product(
        range(1, colors + 1), range(bound + 1), range(1, colors + 1), range(bound + 1)))
    assert [i for i, r in enumerate(residuals) if not r.is_zero()] == []


def trr_residuals(table, deform, pmax, qmax):
    """Genus-0 TRR residuals of a deformation D = `deform` of `table`, p <= pmax,
    q <= qmax, one for each color g: with E and D the hbar^0 parts and
    d_g = d/dw[g,0],

        d_g D(a,p+1;b,q) - sum_xi [D(a,p;xi,0) d_g E(xi,0;b,q) + E(a,p;xi,0) d_g D(xi,0;b,q)],

    the TRR d_g E(a,p+1;b,q) = sum_xi E(a,p;xi,0) d_g E(xi,0;b,q) linearized."""
    colors = range(1, table.dim + 1)

    def e(a, p, b, q):
        return table.entry(a, p, b, q).coeffs[0]

    def d(a, p, b, q):
        return deform(a, p, b, q).coeffs[0]

    out = []
    for a, p, b, q, g in product(colors, range(pmax + 1), colors, range(qmax + 1), colors):
        lhs = Sum()
        lhs.add(d(a, p + 1, b, q).partial(g, 0))
        for xi in colors:
            lhs.add_product(d(a, p, xi, 0), e(xi, 0, b, q).partial(g, 0), -1)
            lhs.add_product(e(a, p, xi, 0), d(xi, 0, b, q).partial(g, 0), -1)
        out.append(lhs.value())
    return out


@pytest.mark.parametrize("trunc", [0, 1])
@pytest.mark.parametrize("kind, level, colors", on_colors(
    [("s", 1), ("s", 2), ("s", 3), ("s", 4), ("r", 1), ("r", 2), ("r", 3)]))
def test_deformation_keeps_genus0_trr(kind, level, colors, trunc):
    # the genus-0 part of a deformation keeps the topological recursion
    # relation of the table to first order; at even lower levels it pins the
    # sign of the index-lowering blocks, as the string equation does
    table, deform = deformed_table(kind, level, colors, 9 if colors == 2 else 5, trunc)
    pmax, qmax = (3, 4) if colors == 2 else (2, 2)
    residuals = trr_residuals(table, deform, pmax, qmax)
    assert len(residuals) == colors ** 3 * (pmax + 1) * (qmax + 1)
    assert any(deform(a, p, b, q).coeffs[0] for a, p, b, q in product(
        range(1, colors + 1), range(qmax + 1), range(1, colors + 1), range(qmax + 1)))
    assert [i for i, r in enumerate(residuals) if not r.is_zero()] == []


@pytest.fixture(scope="module")
def coupled_point():
    """The genus-0 table of F = (v1^3 + v2^3)/6 + (v1 - v2)^4/24 to 5 x 5: a
    two-color point with nonzero mixed entries, not a tensor power."""
    cross = (W(1, 0) - W(2, 0)) ** 2 / 2
    hess = {(1, 1): W(1, 0) + cross, (1, 2): -cross, (2, 1): -cross, (2, 2): W(2, 0) + cross}
    return trr_extend(Genus0Data(2, hess), 5, 5)


@pytest.mark.parametrize("kind, level", [("s", 1), ("s", 2), ("s", 3), ("s", 4), ("r", 1)])
def test_deformation_on_coupled_point_keeps_trr_and_string_equation(coupled_point, kind,
                                                                      level):
    # both certificates on a point whose mixed entries are nonzero; at even
    # lower levels they pin the sign of the index-lowering blocks there too
    gen = GiventalGen(kind, level, MATRICES[2][0 if level % 2 else 1])
    deform = entry_deformation(coupled_point, gen)
    assert any(deform(a, p, b, q) for a, p, b, q in product((1, 2), range(3), (1, 2), range(3)))
    trr = trr_residuals(coupled_point, deform, 2, 2)
    string = string_residuals(coupled_point, deform, 2)
    assert (len(trr), len(string)) == (72, 36)
    assert [i for i, r in enumerate(trr) if not r.is_zero()] == []
    assert [i for i, r in enumerate(string) if not r.is_zero()] == []


def test_s_deform_requires_lower_kind():
    table = kdv_omega_table(1, 1, 1)
    with pytest.raises(ValueError):
        s_deform_omega(table, r_gen(1, [[1]]), 1, 0, 1, 0)
    with pytest.raises(ValueError):
        r_deform_omega(table, s_gen(1, [[1]]), 1, 0, 1, 0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_table_json_roundtrip():
    # table_to_obj holds the entries as values: read back what the CLI writes
    for table in (kdv_omega_table(2, 2, 1), tensor_power(kdv_omega_table(2, 2, 2), 2)):
        back = table_from_obj(json.loads(to_json(table_to_obj(table))))
        assert back.items() == table.items()
        assert table.provenance and back.provenance == table.provenance


@pytest.mark.parametrize("bounds", [
    (2, 2, 0), (5, 1, 0), (1, 4, 0), (2, 2, 1), (5, 1, 1), (0, 3, 1), (2, 2, 2), (2, 1, 2),
])
@pytest.mark.parametrize("colors", [1, 2, 3])
def test_table_json_matches_plain_form(bounds, colors):
    # tensor powers share one series per symmetric pair and color (all of
    # them on square bounds, some on the others), and the writer formats each
    # shared value once: the bytes still equal the standard encoder's
    table = tensor_power(kdv_omega_table(*bounds), colors)
    obj = table_to_obj(table)
    plain = dict(obj, entries={k: series_to_obj(v) for k, v in obj["entries"].items()})
    assert to_json(obj) == json.dumps(plain, sort_keys=True, separators=(",", ": "), indent=2)


def test_extension_window_scan_beyond_bounds():
    # every block of the simplified deformation vanishes one (and two)
    # indices beyond the window [-p-1, level+q]: below it the first factor
    # is an extension zero, above it the second factor is
    table = kdv_omega_table(6, 6, 1)
    g = r_gen(3, [[1]])
    for (p, q) in [(0, 0), (2, 0), (1, 2)]:
        for d in (-p - 2, -p - 3):
            assert table.ext(1, p, 1, d).is_zero(), (p, q, d)
            assert table.ext(1, 0, 1, d).is_zero()
        for d in (g.level + q + 1, g.level + q + 2):
            assert table.ext(1, g.level - 1 - d, 1, q).is_zero(), (p, q, d)
            assert table.ext(1, g.level - 1 - d).is_zero()


def test_table_is_graded():
    def graded(table):
        return all(not check_series_homogeneity(series, 0)
                   for _, series in table.items())

    assert graded(kdv_omega_table(3, 3, 1))
    assert graded(kdv_omega_table(2, 2, 2))
    bad = OmegaTable(1, 0, 0, 1, {(1, 0, 1, 0): HbarSeries.of(w(1), 1)})
    assert not graded(bad)
