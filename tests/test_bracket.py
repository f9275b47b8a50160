"""Operator deformations, defining-equation residuals, homogeneity, uniqueness."""

import random
from collections import defaultdict
from fractions import Fraction

import pytest

from jethier.jetcalc import HbarSeries, JetPoly, Substitution, Sum, evolve, random_jetpoly
from jethier.diffop import DiffOperator, commutator, euler_cell, finish, is_skew, leibniz
from jethier.genus0 import Genus0Data, trr_extend
from jethier.givental import (
    GiventalGen,
    InconsistentTable,
    OmegaTable,
    _sgn,
    entry_deformation,
    r_deform_omega,
    triple_omega,
)
from jethier.kdvbase import kdv_omega_table, tensor_power
from jethier import bracket
from jethier.bracket import (
    PoissonOp,
    check_operator_homogeneity,
    check_series_homogeneity,
    def_a_residual,
    defining_equation_residuals,
    deformed_entries_for_residual,
    dx_commutator_residual,
    euler_commutator_residual,
    r_deform_bracket,
    s_deform_bracket,
    uniqueness_residuals,
    unit_sum_grads,
)

W = JetPoly.var


def w(n, exp=1):
    return W(1, n, exp)


def r_gen(level, matrix):
    return GiventalGen("r", level, matrix)


def s_gen(level, matrix):
    return GiventalGen("s", level, matrix)


def level_points(table):
    """(level, table, matrix) for levels 1-3 over a one-color table.

    Levels 2 and 3 run on the two-color tensor square: [[0]] is the only
    skew 1x1 matrix, and on one color the level-3 operator deformation is
    zero at hbar^1, so neither would certify an operator block.
    """
    square = tensor_power(table, 2)
    return [(1, table, [[1]]),
            (2, square, [[0, 1], [-1, 0]]),
            (3, square, [[1, 2], [2, 3]])]


class SkewOp:
    """Stand-in for PoissonOp on a synthetic skew operator with an order-0
    term, such as w d + w_x/2, which PoissonOp rejects; the bracket
    deformations and residuals read only `.op`."""

    def __init__(self, op):
        assert is_skew(op)
        self.op = op


def minus_hbar_d3(trunc):
    return DiffOperator(1, trunc, {
        (1, 1): {3: HbarSeries(trunc, [JetPoly.zero(), JetPoly.const(-1)])}})


# ---------------------------------------------------------------------------
# PoissonOp invariants
# ---------------------------------------------------------------------------

def test_poisson_op_invariants():
    PoissonOp.dx(1, 1)
    with pytest.raises(ValueError):
        PoissonOp(DiffOperator(1, 1, {(1, 1): {1: HbarSeries.of(w(0), 1)}}))
    with pytest.raises(ValueError):
        PoissonOp(DiffOperator(1, 1, {(1, 1): {0: HbarSeries.of(w(1), 1)}}))
    # hydrodynamic synthetic operator: skew but with an order-0 term
    syn = DiffOperator(1, 1, {(1, 1): {1: HbarSeries.of(w(0), 1),
                                       0: HbarSeries.of(w(1) / 2, 1)}})
    with pytest.raises(ValueError):
        PoissonOp(syn)
    SkewOp(syn)


# ---------------------------------------------------------------------------
# upper-kind bracket deformation
# ---------------------------------------------------------------------------

def test_zero_generator_gives_zero_operator():
    table = kdv_omega_table(3, 3, 1)
    dP = r_deform_bracket(table, PoissonOp.dx(1, 1), r_gen(2, [[0]]))
    assert dP.is_zero()


def test_level1_bracket_deformation_golden():
    # forced by the defining equation: the unique solution is -hbar d^3
    table = kdv_omega_table(3, 3, 1)
    dP = r_deform_bracket(table, PoissonOp.dx(1, 1), r_gen(1, [[1]]))
    assert dP == minus_hbar_d3(1)
    table2 = kdv_omega_table(2, 2, 2)
    dP2 = r_deform_bracket(table2, PoissonOp.dx(1, 2), r_gen(1, [[1]]))
    assert dP2 == minus_hbar_d3(2)


def nonconstant_op():
    """The skew operator
    w d + w_x/2 + hbar (w d^3 + 3/2 w_x d^2 + 3/2 w_xx d + 1/2 w_xxx)."""
    z = JetPoly.zero()
    cell = {3: HbarSeries(1, [z, w(0)]), 2: HbarSeries(1, [z, 3 * w(1) / 2]),
            1: HbarSeries(1, [w(0), 3 * w(2) / 2]),
            0: HbarSeries(1, [w(1) / 2, w(3) / 2])}
    return SkewOp(DiffOperator(1, 1, {(1, 1): cell}))


def test_nonconstant_operator_blocks_pinned():
    # blocks 2, 9 and 12 act only on operators with non-constant
    # coefficients; pin the full result on nonconstant_op()
    z = JetPoly.zero()
    dP = r_deform_bracket(kdv_omega_table(4, 4, 1), nonconstant_op(), r_gen(1, [[1]]))
    want = {0: -5 * w(1) * w(2) / 2 - w(3) / 24,
            1: -2 * w(1) ** 2 - w(2) / 3,
            2: -3 * w(0) * w(1) - 9 * w(1) / 8,
            3: -w(0)}
    assert dP == DiffOperator(1, 1, {(1, 1): {
        k: HbarSeries(1, [z, c]) for k, c in want.items()}})


def test_block9_reads_no_variational_derivative_for_d(monkeypatch):
    # block 9 reads only the cells of A of order >= 2, and d has none; its
    # products are built once per (i, mu), not once per beta
    calls = []
    var_deriv = HbarSeries.var_deriv
    monkeypatch.setattr(HbarSeries, "var_deriv",
                        lambda self, alpha: calls.append(alpha) or var_deriv(self, alpha))
    table = tensor_power(kdv_omega_table(6, 6, 1), 2)
    for level, matrix in ((1, [[1, 2], [2, 3]]), (2, [[0, 1], [-1, 0]])):
        r_deform_bracket(table, PoissonOp.dx(2, 1), r_gen(level, matrix))
    assert calls == []
    # nonconstant_op() has cells of order 2 and 3: one gradient per (i, mu),
    # for each of i = -1, 0, 1, whatever the number of cells and of beta
    r_deform_bracket(kdv_omega_table(4, 4, 1), nonconstant_op(), r_gen(1, [[1]]))
    assert len(calls) == 3


def test_operator_coefficients_move_once(monkeypatch):
    # blocks 2 and 12 are linear in their fields, so each of the four
    # coefficients of the operator moves once, not once per window term
    moved = []
    evolve = bracket.evolve
    monkeypatch.setattr(bracket, "evolve",
                        lambda f, fields: moved.append(f) or evolve(f, fields))
    r_deform_bracket(kdv_omega_table(4, 4, 1), nonconstant_op(), r_gen(1, [[1]]))
    assert len(moved) == 4


def test_def_a_residuals_vanish_kdv():
    for level, table, matrix in level_points(kdv_omega_table(6, 6, 1)):
        pop = PoissonOp.dx(table.dim, 1)
        g = r_gen(level, matrix)
        dP = r_deform_bracket(table, pop, g)
        assert not dP.is_zero(), level
        for index, res in defining_equation_residuals(table, pop, g, dP, 2):
            assert res.is_zero(), (level, index)


def test_def_a_nonzero_without_operator_deformation():
    table = kdv_omega_table(3, 3, 1)
    pop = PoissonOp.dx(1, 1)
    g = r_gen(1, [[1]])
    zero_dp = DiffOperator.zero(1, 1)
    [(index, res)] = defining_equation_residuals(table, pop, g, zero_dp, 0)
    assert index == (1, 0, 1)
    assert not res.is_zero()


def test_deformed_entries_cover_every_p():
    table = kdv_omega_table(4, 4, 1)
    g = r_gen(1, [[1]])
    ent = deformed_entries_for_residual(table, g, 2)
    assert sorted(ent) == [(1, p, 1, 0) for p in range(4)]
    for (a, p, b, q), series in ent.items():
        assert series == r_deform_omega(table, g, a, p, b, q)
    # every color a, through one deformation of the table
    table2 = tensor_power(table, 2)
    g2 = r_gen(2, [[0, 1], [-1, 0]])
    ent = deformed_entries_for_residual(table2, g2, 1)
    assert sorted(ent) == [(a, p, b, 0) for a in (1, 2) for p in range(3)
                           for b in (1, 2)]
    for (a, p, b, q), series in ent.items():
        assert series == r_deform_omega(table2, g2, a, p, b, q)


def test_def_a_trivial_all_zero():
    table = kdv_omega_table(2, 2, 1)
    pop = PoissonOp.dx(1, 1)
    zeros = {key: HbarSeries.zero(1) for key in
             [(1, 0, 1, 0), (1, 1, 1, 0)]}
    dP = DiffOperator.zero(1, 1)
    terms = unit_sum_grads(table, pop, zeros, dP, 1, 0)
    res = def_a_residual(terms, zeros[(1, 0, 1, 0)], 1)
    assert res.is_zero()


def test_unit_sum_grads_built_once_per_a_p(monkeypatch):
    # the unit sums depend on (a, p) only: 3 colors x 3 values of p, each
    # with one variational derivative per color of the undeformed and of the
    # deformed sum, not one set per residual color b
    table = tensor_power(kdv_omega_table(6, 6, 1), 3)
    pop = PoissonOp.dx(3, 1)
    g = r_gen(3, [[1, 2, 3], [2, 1, 1], [3, 1, 2]])
    dP = r_deform_bracket(table, pop, g)
    calls = []
    var_deriv = HbarSeries.var_deriv

    def counted(self, alpha):
        calls.append(alpha)
        return var_deriv(self, alpha)

    monkeypatch.setattr(HbarSeries, "var_deriv", counted)
    residuals = defining_equation_residuals(table, pop, g, dP, 2)
    assert len(residuals) == 27
    assert len(calls) == 54
    for index, res in residuals:
        assert res.is_zero(), index


def test_bracket_deformation_skew_and_no_order0():
    table = kdv_omega_table(6, 6, 1)
    pop = PoissonOp.dx(1, 1)
    for level in (1, 3):
        dP = r_deform_bracket(table, pop, r_gen(level, [[1]]))
        assert is_skew(dP)
        assert dP.coeff(1, 1, 0).is_zero()


def test_two_color_level2_residuals_and_structure():
    table = tensor_power(kdv_omega_table(5, 5, 1), 2)
    pop = PoissonOp.dx(2, 1)
    g = r_gen(2, [[0, 1], [-1, 0]])
    dP = r_deform_bracket(table, pop, g)
    assert not dP.is_zero()
    assert is_skew(dP)
    assert check_operator_homogeneity(dP).ok
    residuals = defining_equation_residuals(table, pop, g, dP, 1)
    assert [index for index, _ in residuals] == [
        (a, p, b) for a in (1, 2) for p in range(2) for b in (1, 2)]
    for index, res in residuals:
        assert res.is_zero(), index


# ---------------------------------------------------------------------------
# coupled tables: a tensor power in rotated coordinates
# ---------------------------------------------------------------------------

# rational orthogonal, fixing the unit vector (1, 1, 1): the Cayley transform
# of the skew K = 1/2 [[0,-1,1],[1,0,-1],[-1,1,0]]
ROT = tuple(tuple(Fraction(x, 7) for x in row)
            for row in ((3, -2, 6), (6, 3, -2), (-2, 6, 3)))


def rotate(table, rot, change=None):
    """The same point in the coordinates u of the jet change w = change u,
    by default change = rot^T:

        Omega'(a,p;b,q) = sum rot[a][al] rot[b][be] Omega(al,p;be,q)(w(u)).

    `rot` preserves the metric, the unit and the operator d, so every
    certificate of `table` must hold on the result; on a tensor power its
    mixed-color entries no longer vanish.
    """
    s, h = table.dim, table.trunc
    colors = range(1, s + 1)
    if change is None:
        change = [[rot[c][al] for c in range(s)] for al in range(s)]
    sub = Substitution({al: sum((HbarSeries.var(c, 0, h) * change[al - 1][c - 1]
                                 for c in colors), HbarSeries.zero(h))
                        for al in colors}, h)
    moved = {key: sub(v) for key, v in table.items()}
    entries = {
        (a, p, b, q): sum((moved[(al, p, be, q)] * (rot[a - 1][al - 1] * rot[b - 1][be - 1])
                           for al in colors for be in colors), HbarSeries.zero(h))
        for (a, p, b, q) in moved}
    return OmegaTable(s, table.pmax, table.qmax, h, entries)


@pytest.fixture(scope="module")
def rotated():
    """(tensor power, the same rotated), three colors, p, q <= 4, hbar^1."""
    base = tensor_power(kdv_omega_table(4, 4, 1), 3)
    return base, rotate(base, ROT)


def test_rotated_table_is_coupled_and_consistent(rotated):
    base, table = rotated
    mixed = [v for (a, _, b, _), v in table.items() if a != b]
    assert len(mixed) == 150 and all(mixed)
    assert all(not v for (a, _, b, _), v in base.items() if a != b)
    for (p, q) in ((0, 0), (1, 0), (1, 1), (2, 1)):
        assert triple_omega(table, (1, p), (2, q), (3, 1))
    # the other convention, w = rot u, is not the same point
    wrong = rotate(base, ROT, change=ROT)
    with pytest.raises(InconsistentTable):
        triple_omega(wrong, (1, 0), (2, 0), (3, 1))


@pytest.mark.parametrize("kind, level, matrix", [
    ("r", 1, [[1, 2, 3], [2, -1, 5], [3, 5, 2]]),
    ("r", 2, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]),
    ("s", 1, [[1, 2, 3], [2, -1, 5], [3, 5, 2]]),
])
def test_rotated_table_defining_equation(rotated, kind, level, matrix):
    # mixed-color terms of the transport factors and of dP only show here:
    # every entry the residuals read at p <= 1 is coupled
    _, table = rotated
    pop = PoissonOp.dx(3, 1)
    g = GiventalGen(kind, level, matrix)
    dP = r_deform_bracket(table, pop, g) if kind == "r" else s_deform_bracket(pop, g)
    assert is_skew(dP)
    assert check_operator_homogeneity(dP).ok
    residuals = defining_equation_residuals(table, pop, g, dP, 1)
    assert len(residuals) == 18
    for index, res in residuals:
        assert res.is_zero(), index


@pytest.mark.parametrize("matrix", [[[1, 2, 3], [2, 1, 1], [3, 1, 2]],
                                    [[0, 0, 0], [0, 1, 2], [0, 2, 1]]])
def test_upper_bracket_runs_once_per_generator_row(rotated, monkeypatch, matrix):
    # the blocks are linear in the factors that carry nu, so they run once per
    # (i, mu) on the contracted row, and not at all for a zero row; each
    # triple correlator with M[mu][nu] != 0 is still evaluated, and its three
    # picks checked, once per z.  On a tensor power f_xi = (mu,i; xi,0) lives
    # in color mu alone and is constant at i = -1, so with A = d the one
    # nonempty cell of blocks 3 and 6 makes one commutator per (i >= 0, mu).
    # Per (i, mu) an Euler cell is built only for the colors g of its
    # argument: E_g(f_xi) once at i >= 0 and not at i = -1, and E_g(o), with
    # o = sum_nu M[mu][nu] (unit,0; nu,j), once per nonzero entry of the row,
    # except at the one splitting where o has no jet variable.  Block 11
    # builds E_g(t3[xi]) once per call on the window sums, which have no jet
    # variable on this point, so it builds none
    base, _ = rotated
    calls = {"triple_omega": 0, "commutator": 0, "euler_cell": 0}
    for name in calls:
        real = getattr(bracket, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(bracket, name, counted)
    dP = r_deform_bracket(base, PoissonOp.dx(3, 1), r_gen(3, matrix))
    splittings = 5  # i in [-1, 3]
    rows = sum(1 for row in matrix if any(row))
    nonzero = sum(1 for row in matrix for m in row if m)
    assert calls == {"triple_omega": splittings * nonzero * 3,
                     "commutator": (splittings - 1) * rows,
                     "euler_cell": (splittings - 1) * (rows + nonzero)}
    assert is_skew(dP) and not dP.is_zero()


def r_deform_bracket_per_window(table, pop, gen):
    """The twelve blocks as `r_deform_bracket` ran them before the blocks
    linear in the window-summed correlators and the left factors of the
    row A[g, .] were hoisted out of the window: every block runs once per
    splitting (i, j) and color mu, on the correlators t3 of that splitting,
    and every cell is composed whether it is empty or not."""
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
    t3_sum = {z: Sum() for z in colors}

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
            e_f = {(g, xi): euler_cell(fs[xi], g) for g in colors for xi in colors}
            o = deform.unit_right(mu, j)
            t3 = {}
            for z in colors:
                t = Sum()
                t.add(HbarSeries.zero(table.trunc))
                for nu, m in row:
                    t.add(triple_omega(table, (z, 0), (mu, i), (nu, j)), m / 2, shift=1)
                t3[z] = t.value()
                t3_sum[z].add(t3[z], cfac)
            # block 9's products A_k[g,xi] delta_g (mu,i+1; unit,0), k >= 2
            grads = {g: o_mu_i1.var_deriv(g) for g in high_colors}
            b9 = [(xi, k, ac * grads[g]) for g, xi, k, ac in high if grads[g]]

            for beta in colors:
                # blocks 1, 4, 8 and 10: left factors of the row A[g, .]
                f1 = fs[beta]
                f4 = deform.right(mu, j, beta, 0)
                pre = deform.right(mu, j - 1, beta, 0).dx()
                left = {g: defaultdict(Sum) for g in colors}
                for (g, n) in sorted(f1.variables()):
                    left[g][n].add_product(o, f1.partial(g, n), cfac)
                if f4:
                    for (g, n) in sorted(o_mu_i.variables()):
                        left[g][n].add_product(f4, o_mu_i.partial(g, n), cfac)
                if pre:
                    for (g, m) in sorted(o_mu_i1.variables()):
                        dpart = o_mu_i1.partial(g, m)
                        for u in range(m):
                            left[g][m - 1 - u].add_product(pre, dpart.dx_pow(u), -cfac * _sgn(u))
                for (g, n) in sorted(t3[beta].variables()):
                    leibniz({1: cfac}, {n: t3[beta].partial(g, n)}, left[g])
                for g in colors:
                    lg = finish(left[g])
                    for xi in colors:
                        if lg and a_cells[(g, xi)]:
                            leibniz(lg, a_cells[(g, xi)], acc[(beta, xi)])

                # block 9: boundary transport with the shifted index
                if pre:
                    for xi, k, prod in b9:
                        for f in range(2, k + 1):
                            acc[(beta, xi)][f - 1].add_product(pre, prod.dx_pow(k - f),
                                                               -cfac * _sgn(k - f))

            # blocks 3, 5, 6, 7 and 11: right factors of the column A[., g]
            for g in colors:
                e_o = euler_cell(o, g)
                e_t = {xi: euler_cell(t3[xi], g) for xi in colors}
                for beta in colors:
                    cell = {k: cfac * a for k, a in a_cells[(beta, g)].items()}
                    if not cell:
                        continue
                    low = {k - 1: c for k, c in finish(leibniz(cell, e_o)).items() if k > 0}
                    for xi in colors:
                        out = acc[(beta, xi)]
                        if fs[xi]:   # blocks 5 and 7
                            leibniz(low, {1: fs[xi]}, out)
                        # blocks 3 and 6, then 11, before the final d
                        right = commutator(finish(leibniz(cell, e_f[(g, xi)])), o)
                        for k, c in finish(leibniz(cell, e_t[xi], right)).items():
                            out[k + 1].add(c, -1)

    # blocks 2 and 12, once, on the fields summed over the window
    flows = {z: t.value().dx() for z, t in t3_sum.items()}
    for (beta, xi), cell in a_cells.items():
        for k, ac in cell.items():
            move = acc[(beta, xi)][k]
            move.add(evolve(ac, flows), -1)
            for (g, n) in ac.variables():
                move.add_product(deform.lin(g, n), ac.partial(g, n), -1)

    return DiffOperator(s, table.trunc, {key: finish(cell) for key, cell in acc.items()})


@pytest.fixture(scope="module")
def oracle_points(rotated):
    """(table, operator, generator) points the per-window oracle must match:
    dense matrices on the coupled three-color table, the operator with
    live blocks 2, 9 and 12, hbar^2, and a generator with a zero row."""
    _, table = rotated
    dx3 = PoissonOp.dx(3, 1)
    cube = tensor_power(kdv_omega_table(4, 4, 1), 3)
    return [(table, dx3, r_gen(1, [[1, 2, 3], [2, -1, 5], [3, 5, 2]])),
            (table, dx3, r_gen(2, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])),
            (table, dx3, r_gen(3, [[2, -1, 1], [-1, 3, 2], [1, 2, -2]])),
            (kdv_omega_table(4, 4, 1), nonconstant_op(), r_gen(1, [[1]])),
            (kdv_omega_table(2, 2, 2), PoissonOp.dx(1, 2), r_gen(1, [[1]])),
            (cube, dx3, r_gen(3, [[1, 0, 2], [0, 0, 0], [2, 0, -1]])),
            (table, dx3, r_gen(2, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]))]


@pytest.mark.parametrize("point", range(7))
def test_window_hoisting_matches_per_window_blocks(oracle_points, point):
    # blocks 2, 10, 11 and 12 run once on the window sums, the left factors
    # are composed with A once per (beta, g), empty cells are skipped; the
    # operator is the per-window one, cell by cell
    table, pop, gen = oracle_points[point]
    got = r_deform_bracket(table, pop, gen)
    want = r_deform_bracket_per_window(table, pop, gen)
    assert not want.is_zero() and got.trunc == want.trunc
    for b in range(1, table.dim + 1):
        for x in range(1, table.dim + 1):
            assert got.entry(b, x) == want.entry(b, x), (b, x)


# ---------------------------------------------------------------------------
# lower-kind bracket deformation
# ---------------------------------------------------------------------------

def test_s_deform_constant_operator_is_zero():
    assert s_deform_bracket(PoissonOp.dx(1, 2), s_gen(1, [[1]])).is_zero()
    assert s_deform_bracket(PoissonOp.dx(1, 2), s_gen(1, [[0]])).is_zero()


def test_s_deform_synthetic_operator():
    syn = DiffOperator(1, 1, {(1, 1): {1: HbarSeries.of(w(0), 1),
                                       0: HbarSeries.of(w(1) / 2, 1)}})
    got = s_deform_bracket(SkewOp(syn), s_gen(1, [["3"]]))
    assert got == DiffOperator.dx_op(1, 1, scale=-3)


def test_s_deform_higher_level_contributes_nothing():
    syn = DiffOperator(1, 1, {(1, 1): {1: HbarSeries.of(w(0), 1),
                                       0: HbarSeries.of(w(1) / 2, 1)}})
    got = s_deform_bracket(SkewOp(syn), s_gen(3, [[5]]))
    assert got.is_zero()


def test_s_def_a_residuals_vanish_kdv():
    for level, table, matrix in level_points(kdv_omega_table(6, 6, 1)):
        pop = PoissonOp.dx(table.dim, 1)
        g = s_gen(level, matrix)
        dP = s_deform_bracket(pop, g)
        assert dP.is_zero()
        for index, res in defining_equation_residuals(table, pop, g, dP, 2):
            assert res.is_zero(), (level, index)


# ---------------------------------------------------------------------------
# homogeneity checker
# ---------------------------------------------------------------------------

def test_series_homogeneity_examples():
    good = HbarSeries(2, [w(0) ** 3 / 6,
                          w(1) ** 2 / 24 + w(0) * w(2) / 12,
                          w(4) / 240])
    assert check_series_homogeneity(good, 0).ok
    bad = HbarSeries(1, [w(1)])
    v = check_series_homogeneity(bad, 0)
    assert not v.ok and v.failures[0][1] == "degree"
    laurent = HbarSeries(1, [JetPoly.zero(), w(3) * w(1, -1)])
    assert not check_series_homogeneity(laurent, 0).ok
    # triple correlators carry offset 1
    assert check_series_homogeneity(HbarSeries(1, [w(1), w(3)]), 1).ok


def test_operator_homogeneity_examples():
    assert check_operator_homogeneity(DiffOperator.dx_op(1, 2)).ok
    # -hbar d^3 sits at order 2g+1, the degree 2g-k+1 of a constant
    assert check_operator_homogeneity(minus_hbar_d3(1)).ok
    bad = DiffOperator(1, 1, {(1, 1): {1: HbarSeries.of(w(1), 1)}})
    assert not check_operator_homogeneity(bad).ok


# ---------------------------------------------------------------------------
# genus-0 uniqueness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def table0():
    return trr_extend(Genus0Data(1, {(1, 1): w(0)}), 5, 5)


def test_uniqueness_dx_passes(table0):
    res = uniqueness_residuals(table0, DiffOperator.dx_op(1, 0), 3)
    assert all(r.is_zero() for _, r in res)


def test_uniqueness_scaled_fails(table0):
    res = uniqueness_residuals(table0, DiffOperator.dx_op(1, 0, scale=2), 3)
    assert any(not r.is_zero() for _, r in res)
    first = dict((ix, r) for ix, r in res)[(1, 0, 1)]
    assert first == HbarSeries.of(w(1), 0)  # factor-2 mismatch against v_x


def test_uniqueness_perturbed_fails(table0):
    pert = DiffOperator(1, 0, {(1, 1): {1: HbarSeries.const(1, 0),
                                        2: HbarSeries.of(w(1), 0)}})
    res = uniqueness_residuals(table0, pert, 2)
    assert any(not r.is_zero() for _, r in res)


# ---------------------------------------------------------------------------
# commutation identities on seeded random data
# ---------------------------------------------------------------------------

def test_dx_commutator_identity_seeded():
    rng = random.Random(7)
    for _ in range(25):
        b = random_jetpoly(rng)
        f = random_jetpoly(rng)
        zeta = rng.randint(1, 3)
        assert dx_commutator_residual(b, zeta, f).is_zero()


def test_mixed_commutator_identity_seeded():
    rng = random.Random(7)
    for _ in range(15):
        a = random_jetpoly(rng, n_terms=2)
        b = random_jetpoly(rng, n_terms=2)
        f = random_jetpoly(rng, n_terms=2)
        s_ord = rng.randint(0, 3)
        gamma = rng.randint(1, 3)
        zeta = rng.randint(1, 3)
        assert euler_commutator_residual(a, s_ord, gamma, b, zeta, f).is_zero()

