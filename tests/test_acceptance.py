"""Acceptance criteria: exact identities at the KdV base point, one per test.

Every comparison is exact rational arithmetic with zero tolerance; each
criterion also carries a wall-clock budget and prints one pass/fail line
(run with `pytest -s` to see them as they complete).
"""

import math
import time

import pytest

from jethier.jetcalc import HbarSeries, JetPoly, formal_integrate, random_jetpoly
from jethier.diffop import DiffOperator, conjugate_by_miura, is_skew
from jethier.genus0 import Genus0Data, check_commutation, trr_extend
from jethier.givental import GiventalGen, r_deform_omega, triple_omega
from jethier.kdvbase import kdv_omega_table, quasi_miura, tensor_power
from jethier.bracket import (
    PoissonOp,
    check_operator_homogeneity,
    check_series_homogeneity,
    defining_equation_residuals,
    deformed_entries_for_residual,
    dx_commutator_residual,
    euler_commutator_residual,
    r_deform_bracket,
    s_deform_bracket,
    uniqueness_residuals,
)
from readers import kdv_flows

W = JetPoly.var


def w(n, exp=1):
    return W(1, n, exp)


def record(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"criterion {number:02d} {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def level_point(table, level):
    """The table and generator matrix a level-`level` check runs on.

    Levels 2 and 3 run on the two-color tensor square: [[0]] is the only
    skew 1x1 matrix, and on one color the level-3 operator deformation is
    zero at hbar^1, so neither would certify an operator block.
    """
    if level == 1:
        return table, [[1]]
    if level == 2:
        return tensor_power(table, 2), [[0, 1], [-1, 0]]
    return tensor_power(table, 2), [[1, 2], [2, 3]]


@pytest.fixture(scope="module")
def kdv_h1():
    return kdv_omega_table(6, 6, 1)


@pytest.fixture(scope="module")
def kdv_h2():
    return kdv_omega_table(2, 2, 2)


@pytest.fixture(scope="module")
def genus0_table():
    return trr_extend(Genus0Data(1, {(1, 1): w(0)}), 7, 6)


@pytest.fixture(scope="module")
def upper_runs(kdv_h1, kdv_h2):
    """Criterion-6 data: operator deformations, deformed entries and residuals
    at both truncations, as (tag, level, gen, dP, entries, residuals)."""
    runs = []
    for tag, table, levels, pmax in (("hbar1", kdv_h1, (1, 2, 3), 2),
                                     ("hbar2", kdv_h2, (1,), 0)):
        for level in levels:
            point, matrix = level_point(table, level)
            pop = PoissonOp.dx(point.dim, point.trunc)
            gen = GiventalGen("r", level, matrix)
            dP = r_deform_bracket(point, pop, gen)
            entries = deformed_entries_for_residual(point, gen, pmax)
            runs.append((tag, level, gen, dP, entries,
                         defining_equation_residuals(point, pop, gen, dP, pmax)))
    return runs


def test_criterion_01_kdv_flows():
    started = time.monotonic()
    # the generated tables give the hand-typed flows as dx of their first
    # rows, truncated to each table's order
    flows = kdv_flows()
    for trunc in range(3):
        table = kdv_omega_table(0, 2, trunc)
        for q in range(3):
            got = table.entry(1, 0, 1, q).dx()
            assert got.trunc == trunc and got == flows[q].truncate(trunc), (trunc, q)
    record(1, "kdv-flows", started, 1.0)


def test_criterion_02_hamiltonian_densities(kdv_h2):
    started = time.monotonic()
    h = {p: kdv_h2.unit_ext(1, p + 1) for p in (-1, 0, 1)}
    assert h[-1] == HbarSeries.of(w(0), 2)
    assert h[0] == HbarSeries(2, [w(0) ** 2 / 2, w(2) / 12])
    want_h1 = HbarSeries(2, [w(0) ** 3 / 6,
                             (w(1) ** 2 + 2 * w(0) * w(2)) / 24,
                             w(4) / 240])
    assert h[1] == want_h1
    # normalization statement: agreement modulo total-derivative terms means
    # the difference integrates exactly; here it is literally zero
    diff = h[1] - want_h1
    assert all(formal_integrate(c).is_zero() for c in diff.coeffs)
    record(2, "hamiltonian-densities", started, 1.0)


def test_criterion_03_dispersionless_closed_form():
    started = time.monotonic()
    table = trr_extend(Genus0Data(1, {(1, 1): w(0)}), 6, 6)
    for p in range(7):
        for q in range(7 - p):
            denom = math.factorial(p) * math.factorial(q) * (p + q + 1)
            assert table.entry(1, p, 1, q) == w(0, p + q + 1) / denom
    record(3, "dispersionless-closed-form", started, 1.0)


def test_criterion_04_commutation_identity(genus0_table):
    started = time.monotonic()
    for p in range(4):
        for q in range(4):
            assert check_commutation(genus0_table, 1, p, 1, q).is_zero(), (p, q)
    record(4, "commutation-identity", started, 5.0)


def test_criterion_05_commutation_lemmas():
    started = time.monotonic()
    import random
    rng = random.Random(7)
    for _ in range(100):
        b = random_jetpoly(rng)
        f = random_jetpoly(rng)
        assert dx_commutator_residual(b, rng.randint(1, 3), f).is_zero()
    for _ in range(100):
        a = random_jetpoly(rng, n_terms=2)
        b = random_jetpoly(rng, n_terms=2)
        f = random_jetpoly(rng, n_terms=2)
        assert euler_commutator_residual(
            a, rng.randint(0, 3), rng.randint(1, 3),
            b, rng.randint(1, 3), f).is_zero()
    record(5, "commutation-lemmas", started, 30.0)


def test_criterion_06_defining_equation_consistency(upper_runs):
    started = time.monotonic()
    for tag, level, gen, dP, _, residuals in upper_runs:
        for index, res in residuals:
            assert res.is_zero(), (tag, level, index)
        assert not dP.is_zero(), (tag, level)
        assert is_skew(dP), (tag, level)
    record(6, "defining-equation-consistency", started, 600.0)


def test_criterion_07_lower_triangular_consistency(kdv_h1):
    started = time.monotonic()
    for level in (1, 2, 3):
        point, matrix = level_point(kdv_h1, level)
        pop = PoissonOp.dx(point.dim, 1)
        gen = GiventalGen("s", level, matrix)
        dP = s_deform_bracket(pop, gen)
        assert dP.is_zero()  # constant-coefficient base operator
        for index, res in defining_equation_residuals(point, pop, gen, dP, 2):
            assert res.is_zero(), (level, index)
    record(7, "lower-triangular-consistency", started, 60.0)


def test_criterion_08_hbar_homogeneity(upper_runs):
    started = time.monotonic()
    for tag, level, gen, dP, entries, _ in upper_runs:
        for key, series in entries.items():
            failures = check_series_homogeneity(series, 0)
            assert not failures, (tag, level, key, failures)
            assert all(c.is_polynomial() for c in series.coeffs)
        # operator coefficients follow the degree law 2g - k + 1: the
        # constant-coefficient blocks land exactly at orders k = 2g + 1
        failures = check_operator_homogeneity(dP)
        assert not failures, (tag, level, failures)
        for _, _, coeff in dP.entries():
            assert all(c.is_polynomial() for c in coeff.coeffs)
    record(8, "hbar-homogeneity", started, 60.0)


def test_criterion_09_quasi_miura(kdv_h2):
    started = time.monotonic()
    m = quasi_miura("forward", 2)
    d = DiffOperator.dx_op(1, 2)
    assert conjugate_by_miura(d, m) == d
    riemann = [HbarSeries.of(w(0) * w(1), 2)]
    assert m.push_flow(riemann)[0] == kdv_flows()[1]
    record(9, "quasi-miura-consequences", started, 30.0)


def test_criterion_10_uniqueness(genus0_table):
    started = time.monotonic()
    good = uniqueness_residuals(genus0_table, DiffOperator.dx_op(1, 0), 3)
    assert all(r.is_zero() for _, r in good)
    scaled = uniqueness_residuals(
        genus0_table, DiffOperator.dx_op(1, 0, scale=2), 3)
    assert any(not r.is_zero() for _, r in scaled)
    pert_op = DiffOperator(1, 0, {(1, 1): {1: HbarSeries.const(1, 0),
                                           2: HbarSeries.of(w(1), 0)}})
    pert = uniqueness_residuals(genus0_table, pert_op, 2)
    assert any(not r.is_zero() for _, r in pert)
    conj = conjugate_by_miura(DiffOperator.dx_op(1, 2), quasi_miura("inverse", 2))
    assert conj.coeff(1, 1, 0).is_zero()
    record(10, "uniqueness", started, 60.0)


def test_criterion_11_symmetry_and_well_definedness(kdv_h1, kdv_h2, upper_runs):
    started = time.monotonic()
    for level in (1, 3):
        gen = GiventalGen("r", level, [[1]])
        for p in range(3):
            for q in range(3):
                lhs = r_deform_omega(kdv_h1, gen, 1, p, 1, q)
                rhs = r_deform_omega(kdv_h1, gen, 1, q, 1, p)
                assert lhs == rhs, (level, p, q)
    gen = GiventalGen("r", 1, [[1]])
    for p in range(2):
        for q in range(2):
            assert r_deform_omega(kdv_h2, gen, 1, p, 1, q) \
                == r_deform_omega(kdv_h2, gen, 1, q, 1, p)
    # triple correlators: the evaluator itself asserts agreement over all
    # three distinguished-index choices and raises on mismatch
    for table in (kdv_h1, kdv_h2):
        for idx in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1), (2, 2, 0)]:
            triple_omega(table, (1, idx[0]), (1, idx[1]), (1, idx[2]))
    record(11, "symmetry-and-well-definedness", started, 60.0)
