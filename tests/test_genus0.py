"""Dispersionless table construction and its structural identities."""

import math

import pytest

from jethier.jetcalc import HbarSeries, JetPoly, dx, evolve
from jethier.genus0 import (
    Genus0Data,
    NotClosed,
    check_commutation,
    trr_extend,
)
from jethier.givental import OmegaTable

V = JetPoly.var


def v(n=0, exp=1):
    return V(1, n, exp)


def kdv_data():
    return Genus0Data(1, {(1, 1): v()})


def principal_rhs(table, b, q):
    """Flow right-hand sides dv_a/dt[b,q] = dx of entry (a,0;b,q)."""
    if not (1 <= b <= table.dim and 0 <= q <= table.qmax):
        raise IndexError(f"flow index ({b},{q}) outside table bounds")
    return [table.entry(a, 0, b, q).dx() for a in range(1, table.dim + 1)]


def flow_derivative(table, f, b, q):
    """Time derivative of a jet function along the (b,q) flow."""
    return evolve(f, dict(enumerate(principal_rhs(table, b, q), start=1)))


def closed_form(p, q):
    return v() ** (p + q + 1) / (math.factorial(p) * math.factorial(q) * (p + q + 1))


def test_unit_normalization_enforced():
    with pytest.raises(ValueError):
        Genus0Data(1, {(1, 1): v() ** 2})
    with pytest.raises(ValueError):
        Genus0Data(2, {(1, 1): V(1, 0), (1, 2): V(2, 0),
                       (2, 1): V(2, 0), (2, 2): JetPoly.zero()})


def test_closed_form_monomials():
    table = trr_extend(kdv_data(), 6, 6)
    for p in range(7):
        for q in range(7):
            if p + q <= 6:
                assert table.entry(1, p, 1, q) == closed_form(p, q)


def test_one_step():
    table = trr_extend(kdv_data(), 1, 0)
    assert isinstance(table, OmegaTable) and table.trunc == 0
    assert table.entry(1, 1, 1, 0) == HbarSeries(0, [v() ** 2 / 2])


def test_symmetry():
    table = trr_extend(kdv_data(), 4, 4)
    for p in range(5):
        for q in range(5):
            assert table.entry(1, p, 1, q) == table.entry(1, q, 1, p)


def test_two_decoupled_points_block_structure():
    hess = {(1, 1): V(1, 0), (1, 2): JetPoly.zero(),
            (2, 1): JetPoly.zero(), (2, 2): V(2, 0)}
    table = trr_extend(Genus0Data(2, hess), 3, 3)
    for p in range(4):
        for q in range(4):
            assert table.entry(1, p, 2, q).is_zero()
            assert table.entry(2, p, 1, q).is_zero()
            got = table.entry(2, p, 2, q)
            want = V(2, 0) ** (p + q + 1) / (
                math.factorial(p) * math.factorial(q) * (p + q + 1))
            assert got == want


def test_not_closed_rejected():
    f = V(1, 0) ** 2
    hess = {(1, 1): V(1, 0) - f, (1, 2): f,
            (2, 1): f, (2, 2): V(2, 0) - f}
    data = Genus0Data(2, hess)
    with pytest.raises(NotClosed):
        trr_extend(data, 2, 2)


def test_principal_rhs_examples():
    table = trr_extend(kdv_data(), 2, 2)
    assert principal_rhs(table, 1, 0) == [v(1)]
    assert principal_rhs(table, 1, 1) == [v() * v(1)]
    with pytest.raises(IndexError):
        principal_rhs(table, 1, 9)


def density(table, a, p):
    """Density of the (a,p) Hamiltonian: the unit-contracted (a,p+1) entry."""
    return table.ext(a, p + 1)


def test_hamiltonian_densities():
    table = trr_extend(kdv_data(), 3, 3)
    assert density(table, 1, 0) == v() ** 2 / 2
    assert density(table, 1, 1) == v() ** 3 / 6
    assert density(table, 1, -1) == v()


def test_commutation_residuals_vanish():
    table = trr_extend(kdv_data(), 4, 3)
    for p in range(4):
        for q in range(4):
            assert check_commutation(table, 1, p, 1, q).is_zero()


def test_commutation_hand_cases():
    table = trr_extend(kdv_data(), 2, 1)
    # (0,0): v*v_x against dx(v^2/2)
    h0 = density(table, 1, 0)
    assert h0.var_deriv(1) * dx(h0.var_deriv(1)) == v() * v(1) * 1  # v * v_x form
    assert check_commutation(table, 1, 0, 1, 0).is_zero()
    assert check_commutation(table, 1, 1, 1, 0).is_zero()


def test_flows_commute_mixed_derivatives():
    table = trr_extend(kdv_data(), 4, 4)
    coord = v()
    for (q1, q2) in [(0, 1), (0, 2), (1, 2), (1, 1), (0, 3), (2, 1)]:
        first = flow_derivative(table, principal_rhs(table, 1, q2)[0], 1, q1)
        second = flow_derivative(table, principal_rhs(table, 1, q1)[0], 1, q2)
        assert first == second, (q1, q2)
    assert flow_derivative(table, coord, 1, 2) == dx(table.entry(1, 0, 1, 2))


def test_recursion_holds_at_all_stored_indices():
    table = trr_extend(kdv_data(), 3, 3)
    for p in range(3):
        for q in range(4):
            lhs = table.entry(1, p + 1, 1, q).partial(1, 0)
            rhs = table.entry(1, p, 1, 0) * table.entry(1, 0, 1, q).partial(1, 0)
            assert lhs == rhs, (p, q)
