"""KdV base point: flows, tables, genus-1 completion, quasi-Miura transform."""

import json
import math
from fractions import Fraction
from itertools import product

import pytest

from jethier import kdvbase
from jethier.bracket import check_series_homogeneity
from jethier.cli import main
from jethier.givental import OmegaTable, table_to_obj
from jethier.jetcalc import HbarSeries, JetPoly, NotExact, dx, evolve, formal_integrate, to_json
from jethier.diffop import DiffOperator, conjugate_by_miura
from jethier.kdvbase import (
    OutOfDerivableRange,
    kdv_omega_table,
    quasi_miura,
    quasi_miura_h1,
    tensor_power,
)
from readers import kdv_flows

W = JetPoly.var


def w(n, exp=1):
    return W(1, n, exp)


# ---------------------------------------------------------------------------
# the oracle: the genus-1 completion, derived entry by entry
# ---------------------------------------------------------------------------

def kdv_dispersionless_omega(p, q):
    """Closed-form dispersionless entry v^(p+q+1)/(p! q! (p+q+1))."""
    return w(0, p + q + 1) / (math.factorial(p) * math.factorial(q) * (p + q + 1))


def flow_vector(p):
    """Dispersionless flow  v^p/p! * v_1."""
    return w(0, p) * w(1) / math.factorial(p)


def flow_derivation(f, p):
    """Derivative along the dispersionless p-th flow."""
    return evolve(f, {1: flow_vector(p)})


def genus1_flow_derivative(p):
    """Derivative of the genus-1 density (1/24) log v_x along the p-th flow:
    (1/24) dx(flow)/v_x, which stays in the Laurent ring."""
    return dx(flow_vector(p)) * w(1, -1) / 24


def genus1_completion(p, q, omega):
    """hbar coefficient of the (p;q) entry, given its hbar^0 coefficient
    omega: the p-th flow derivative of the genus-1 density along the q-th
    flow, less the coordinate-change correction.  The rational parts must
    cancel, which is checked."""
    out = flow_derivation(genus1_flow_derivative(p), q) - omega.partial(1, 0) * quasi_miura_h1()
    if not out.is_polynomial():
        raise NotExact(f"genus-1 completion of entry ({p};{q}) left rational terms")
    return out


def derived_entry(p, q, trunc):
    """Entry (p;q) at truncation trunc <= 1 by the derivation."""
    omega = kdv_dispersionless_omega(p, q)
    return HbarSeries(trunc, [omega] + ([genus1_completion(p, q, omega)] if trunc else []))


def kdv_full_omega(p, q, trunc=2):
    """Entry (p;q) and its provenance tag, read off the smallest table that
    holds it; out of the derivable range, building it raises."""
    table = kdv_omega_table(p, q, trunc)
    return table.entry(1, p, 1, q), table.provenance[(1, p, 1, q)]


def test_flows_match_tabulated_equations():
    # dx of the first rows, at every truncation, against the hand-typed flows
    flows = kdv_flows()
    for trunc in range(3):
        table = kdv_omega_table(0, 2, trunc)
        for q in range(3):
            got = table.entry(1, 0, 1, q).dx()
            assert got.trunc == trunc and got == flows[q].truncate(trunc), (trunc, q)
    with pytest.raises(OutOfDerivableRange):
        kdv_omega_table(0, 3, 2)


@pytest.mark.parametrize("trunc", [0, 1])
def test_lenard_rows_equal_closed_form(trunc):
    # the derivation the "flow-integration" tag names, run where the table
    # takes the closed form instead: the Lenard recursion of the second
    # bracket gives every first row, storage and all
    row = kdvbase._lenard_rows(trunc)
    for q in range(11):
        got, want = row(q), kdvbase._entry_closed_form(0, q, trunc)
        assert (got.trunc, got.den, got.parts) == (want.trunc, want.den, want.parts), q


def test_dispersionless_closed_form():
    assert kdv_dispersionless_omega(0, 0) == w(0)
    assert kdv_dispersionless_omega(1, 0) == w(0) ** 2 / 2
    assert kdv_dispersionless_omega(2, 0) == w(0) ** 3 / 6


def test_first_row_integrated_entries():
    e01, tag = kdv_full_omega(0, 1)
    assert tag == "flow-integration"
    assert e01 == HbarSeries(2, [w(0) ** 2 / 2, w(2) / 12])
    e02, _ = kdv_full_omega(0, 2)
    assert e02 == HbarSeries(2, [
        w(0) ** 3 / 6, w(1) ** 2 / 24 + w(0) * w(2) / 12, w(4) / 240])


def test_transport_entry_1_1():
    # oracle: apply the first flow to the (0;1) entry and integrate
    h0 = HbarSeries(2, [w(0) ** 2 / 2, w(2) / 12])
    integrand = HbarSeries.zero(2)
    for (_, n) in sorted(h0.variables()):
        integrand = integrand + h0.dx_pow(n + 1) * h0.partial(1, n)
    want = formal_integrate(integrand)
    got, tag = kdv_full_omega(1, 1, 2)
    assert tag == "flow-transport"
    assert got == want
    assert got == HbarSeries(2, [
        w(0) ** 3 / 3, w(1) ** 2 / 24 + w(0) * w(2) / 6, w(4) / 144])


def test_genus1_completion_matches_flow_route():
    # the closed-form entries at hbar^1 against the integrated and
    # transported flows at hbar^2, truncated: the two share no code
    closed, flows = kdv_omega_table(2, 2, 1), kdv_omega_table(2, 2, 2)
    for (p, q) in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        assert flows.entry(1, p, 1, q).truncate(1) == closed.entry(1, p, 1, q), (p, q)
    assert closed.provenance[(1, 1, 1, 2)] == "genus1-completion"
    assert flows.provenance[(1, 1, 1, 2)] == "flow-transport"


@pytest.mark.parametrize("trunc", [0, 1])
def test_closed_form_equals_derivation(trunc):
    # every entry of the table, closed form or first row, against the
    # genus-1 derivation, storage and all
    table = kdv_omega_table(12, 12, trunc)
    for p in range(13):
        for q in range(13):
            got, want = table.entry(1, p, 1, q), derived_entry(p, q, trunc)
            assert (got.trunc, got.den, got.parts) == (want.trunc, want.den, want.parts), (p, q)


def test_genus1_completion_closed_form():
    # frozen coefficients (c1, c2) of (1/24)(c1 v^(p+q-2) v1^2 + c2 v^(p+q-1) v2)
    def c12(p, q):
        def inv_fact(k):
            return Fraction(1, math.factorial(k)) if k >= 0 else Fraction(0)
        c1 = (inv_fact(p - 2) * inv_fact(q) + inv_fact(p - 1) * inv_fact(q - 1)
              + inv_fact(p) * inv_fact(q - 2))
        c2 = 2 * (inv_fact(p - 1) * inv_fact(q) + inv_fact(p) * inv_fact(q - 1))
        return c1, c2

    for p in range(0, 5):
        for q in range(0, 5):
            c1, c2 = c12(p, q)
            want = JetPoly.zero()
            if c1:
                want = want + c1 * w(0, p + q - 2) * w(1) ** 2 / 24 if p + q >= 2 \
                    else want + c1 * w(1) ** 2 / 24
            if c2:
                want = want + c2 * w(0, p + q - 1) * w(2) / 24 if p + q >= 1 \
                    else want + c2 * w(2) / 24
            omega = kdv_dispersionless_omega(p, q)
            assert genus1_completion(p, q, omega) == want, (p, q)


def test_full_omega_derivable_range():
    with pytest.raises(OutOfDerivableRange):
        kdv_full_omega(0, 3, 2)
    with pytest.raises(OutOfDerivableRange):
        kdv_full_omega(3, 1, 2)
    # fine at hbar-truncation 1
    series, tag = kdv_full_omega(0, 5, 1)
    assert tag == "genus1-completion"
    assert series.coeffs[0] == kdv_dispersionless_omega(0, 5)


def test_table_symmetry_and_homogeneity():
    table = kdv_omega_table(4, 4, 1)
    for p in range(5):
        for q in range(5):
            e = table.entry(1, p, 1, q)
            assert e == table.entry(1, q, 1, p)
            assert not check_series_homogeneity(e, 0)


def test_transport_consistency_triples():
    # equality d/dt_a (b;c) = d/dt_c (b;a) of flow derivatives at hbar <= 1
    table = kdv_omega_table(4, 4, 1)

    def t_deriv(f, p):
        out = HbarSeries.zero(1)
        flow = table.entry(1, 0, 1, p).dx()
        for (_, n) in sorted(f.variables()):
            out = out + f.partial(1, n) * flow.dx_pow(n)
        return out

    for a in range(0, 5):
        for b in range(0, 5):
            for c in range(0, 5):
                if a + b + c <= 4:
                    lhs = t_deriv(table.entry(1, b, 1, c), a)
                    rhs = t_deriv(table.entry(1, b, 1, a), c)
                    assert lhs == rhs, (a, b, c)


# ---------------------------------------------------------------------------
# quasi-Miura transform
# ---------------------------------------------------------------------------

def test_forward_identity_at_leading_order():
    m = quasi_miura("forward", 2)
    assert m.forward[0].coeffs[0] == w(0)


def test_forward_then_inverse_is_identity():
    m = quasi_miura("forward", 2)
    assert m.express_in_target(m.forward[0]) == HbarSeries.var(1, 0, 2)


def test_h1_term_is_genus1_density_second_x_derivative():
    # (log v_x)_xx via the flow-derivative chain with the translation flow
    assert genus1_flow_derivative(0) == w(2) * w(1, -1) / 24
    assert quasi_miura_h1() == dx(genus1_flow_derivative(0))


def test_bracket_invariance_under_quasi_miura():
    m = quasi_miura("forward", 2)
    conj = conjugate_by_miura(DiffOperator.dx_op(1, 2), m)
    assert conj == DiffOperator.dx_op(1, 2)


def test_inverse_conjugate_keeps_zero_order0():
    m_inv = quasi_miura("inverse", 2)
    conj = conjugate_by_miura(DiffOperator.dx_op(1, 2), m_inv)
    assert conj.coeff(1, 1, 0).is_zero()


def test_riemann_flow_maps_to_dispersive_flow():
    m = quasi_miura("forward", 2)
    riemann = [HbarSeries.of(w(0) * w(1), 2)]
    got = m.push_flow(riemann)[0]
    assert got == kdv_flows()[1]  # hbar^2 coefficient cancels exactly


def test_translation_flow_is_fixed():
    m = quasi_miura("forward", 2)
    got = m.push_flow([HbarSeries.of(w(1), 2)])[0]
    assert got == kdv_flows()[0]


# ---------------------------------------------------------------------------
# tensor powers
# ---------------------------------------------------------------------------

def test_tensor_power_identity():
    # color 1 is the source's own color: its entries are the source objects
    table = kdv_omega_table(2, 2, 1)
    t1, t3 = tensor_power(table, 1), tensor_power(table, 3)
    for (key, series) in table.items():
        assert t1.entry(*key) is series
        assert t3.entry(*key) is series


def test_tensor_power_blocks():
    table = kdv_omega_table(2, 2, 1)
    t2 = tensor_power(table, 2)
    assert t2.entry(1, 1, 2, 1).is_zero()
    assert t2.entry(2, 0, 1, 2).is_zero()
    got = t2.entry(2, 0, 2, 1)
    want_h0 = W(2, 0) ** 2 / 2
    assert got.coeffs[0] == want_h0
    assert got.coeffs[1] == W(2, 2) / 12
    # unit contraction reduces to the per-color coordinate
    assert t2.unit_ext(2, 0) == HbarSeries.of(W(2, 0), 1)


@pytest.mark.parametrize("trunc", [0, 1, 2])
def test_tensor_power_shares_symmetric_entries(trunc):
    # a built table answers (a,p; b,q) and (b,q; a,p) with one object: the
    # KdV table, and every color pair of its tensor powers
    table = kdv_omega_table(2, 2, trunc)
    for t in [table] + [tensor_power(table, dim) for dim in (1, 2, 3)]:
        colors = range(1, t.dim + 1)
        for a, p, b, q in product(colors, range(3), colors, range(3)):
            got = t.entry(a, p, b, q)
            assert got is t.entry(b, q, a, p), (t.dim, a, p, b, q)
            if a == b:
                assert got == table.entry(1, p, 1, q).recolor(a)
            else:
                assert got.is_zero()


def eager_kdv_table(pmax, qmax, trunc):
    """kdv_omega_table with every entry built at construction, each symmetric
    pair once, from the same routes and value builder."""
    lenard_row = kdvbase._lenard_rows(trunc)
    entries, prov = {}, {}
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            if q < p <= qmax:
                entries[(1, p, 1, q)] = entries[(1, q, 1, p)]
                prov[(1, p, 1, q)] = prov[(1, q, 1, p)]
                continue
            prov[(1, p, 1, q)] = kdvbase._route(p, q, trunc)
            entries[(1, p, 1, q)] = kdvbase._full_omega(p, q, trunc, lenard_row)
    return OmegaTable(1, pmax, qmax, trunc, entries, prov)


def eager_tensor_power(table, dim):
    zero = HbarSeries.zero(table.trunc)
    colors = range(1, dim + 1)
    entries = {(a, p, b, q): series.recolor(a) if a == b else zero
               for (_, p, _, q), series in table.items() for a in colors for b in colors}
    prov = {(a, p, a, q): tag for (_, p, _, q), tag in table.provenance.items() for a in colors}
    return OmegaTable(dim, table.pmax, table.qmax, table.trunc, entries, prov)


@pytest.mark.parametrize("pmax, qmax, trunc", [(3, 3, 0), (4, 2, 0), (3, 3, 1), (2, 5, 1),
                                               (5, 1, 1), (2, 2, 2), (2, 1, 2), (0, 2, 2)])
def test_tables_built_on_read_print_as_built_eagerly(pmax, qmax, trunc):
    # entries built on first read, in any order, give the bytes of the table
    # built at construction, for the one-color table and its tensor powers
    eager = eager_kdv_table(pmax, qmax, trunc)
    lazy = kdv_omega_table(pmax, qmax, trunc)
    lazy.entry(1, pmax, 1, 0)  # the symmetric partner of (0; pmax) first, where it has one
    assert to_json(table_to_obj(lazy)) == to_json(table_to_obj(eager))
    for dim in (1, 2, 3):
        power = tensor_power(kdv_omega_table(pmax, qmax, trunc), dim)
        power.entry(dim, 0, 1, qmax)
        power.entry(dim, pmax, dim, 0)
        want = to_json(table_to_obj(eager_tensor_power(eager, dim)))
        assert to_json(table_to_obj(power)) == want, dim


def test_out_of_bounds_index_raises_as_before():
    # a table built on read refuses the indices a table given its entries refuses
    base = kdv_omega_table(2, 1, 1)
    for table in (eager_kdv_table(2, 1, 1), base, tensor_power(base, 2)):
        for (a, p, b, q) in ((1, 3, 1, 0), (1, 0, 1, 2), (table.dim + 1, 0, 1, 0),
                             (1, 0, 0, 0), (1, -1, 1, 0)):
            with pytest.raises(IndexError) as err:
                table.entry(a, p, b, q)
            assert str(err.value) == (f"table entry ({a},{p};{b},{q}) outside stored "
                                      "bounds (pmax=2, qmax=1)")


def test_unread_entries_never_built(monkeypatch, tmp_path, capsys):
    # the deformation of an upper level-3 generator on three colors at pmax 2
    # (the r3-t3-p2 class of the deform-bracket benchmark mix) reads its
    # tables at bound 6: each entry it reads is built once, itself or as its
    # transpose, and no other
    reads, builds = set(), []

    class SpiedTable(OmegaTable):
        __slots__ = ()

        def __init__(self, dim, pmax, qmax, trunc, entries, provenance, build):
            def spy(table, *index):
                builds.append((dim, index))
                return build(table, *index)

            super().__init__(dim, pmax, qmax, trunc, entries, provenance, spy)

        def entry(self, *index):
            reads.add((self.dim, index))
            return super().entry(*index)

    values = []
    real = kdvbase._full_omega
    monkeypatch.setattr(kdvbase, "OmegaTable", SpiedTable)
    monkeypatch.setattr(kdvbase, "_full_omega", lambda p, q, trunc, lenard_row: (
        values.append((p, q)) or real(p, q, trunc, lenard_row)))
    gen = tmp_path / "r3.json"
    gen.write_text(json.dumps({"kind": "r", "level": 3,
                               "matrix": [[1, 2, 3], [2, -1, 5], [3, 5, 2]]}))
    assert main(["deform", "bracket", "--generator", str(gen), "--tensor", "3",
                 "--pmax", "2", "--hbar", "1"]) == 0
    capsys.readouterr()
    assert len(builds) == len(set(builds))
    # a transpose the table answers from its partner is read, not built
    assert set(builds) <= reads
    assert all((dim, index) in builds or (dim, index[2:] + index[:2]) in builds
               for dim, index in reads)
    # of the 28 distinct one-color entries (symmetric pairs once), 13 are built
    assert len(values) == len(set(values)) == 13
    assert len([1 for dim, _ in builds if dim == 3]) < 3 * 3 * 7 * 7 // 2


def test_out_of_range_table_fails_at_construction(capsys, tmp_path):
    # the routes are checked when the table is made, not when an entry is read
    with pytest.raises(OutOfDerivableRange,
                       match=r"^entry \(0;3\) at truncation 2 is outside the derivable set$"):
        kdv_omega_table(3, 3, 2)
    gen = tmp_path / "r1.json"
    gen.write_text(json.dumps({"kind": "r", "level": 1, "matrix": [[1]]}))
    code = main(["deform", "omega", "--generator", str(gen), "--hbar", "2",
                 "--pmax", "2", "--qmax", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: deformation at hbar-truncation 2 needs table bounds 5: "
                   "entry (0;3) at truncation 2 is outside the derivable set\n")


def test_first_rows_integrated_once_per_table(monkeypatch):
    # (0;0), (0;1), (0;2) are the only first rows of kdv_omega_table(2, 2, 2):
    # each integrates its Lenard integrand P2 (0;q-1) = (2q+1)/2 dw/dt_q once,
    # and the transports to (1;1), (1;2), (2;2) reuse them
    integrands = [Fraction(2 * q + 1, 2) * flow for q, flow in enumerate(kdv_flows())]
    integrated = []
    real = kdvbase.formal_integrate
    monkeypatch.setattr(kdvbase, "formal_integrate",
                        lambda f: integrated.append(f) or real(f))
    table = kdv_omega_table(2, 2, 2)
    table.items()
    assert [sum(f == g for f in integrated) for g in integrands] == [1, 1, 1]
    assert len(integrated) == 6
    assert table.provenance[(1, 2, 1, 2)] == "flow-transport"


def test_kdv_point_bundle():
    # the base-point data the package exposes, one function each
    assert kdv_omega_table(2, 2, 2).entry(1, 0, 1, 0) == HbarSeries.of(w(0), 2)
    assert quasi_miura("forward", 2).dim == 1
    assert tensor_power(kdv_omega_table(0, 0, 0), 2).dim == 2


def test_closed_form_table_calls_no_evolve(monkeypatch):
    # reading every entry of a table at hbar^1 evolves nothing: the entries
    # outside the first rows are closed formulas
    calls = []
    real = kdvbase.evolve
    monkeypatch.setattr(kdvbase, "evolve", lambda *a: calls.append(a) or real(*a))
    table = kdv_omega_table(10, 10, 1)
    table.items()
    assert calls == []
    assert table.provenance[(1, 2, 1, 3)] == "genus1-completion"


@pytest.mark.parametrize("trunc", [0, 1])
def test_closed_form_table_calls_no_integration(monkeypatch, trunc):
    # below hbar^2 the first rows are closed formulas too: no Lenard row is
    # derived, so nothing is integrated
    calls = []
    real = kdvbase.formal_integrate
    monkeypatch.setattr(kdvbase, "formal_integrate", lambda f: calls.append(f) or real(f))
    table = kdv_omega_table(10, 10, trunc)
    table.items()
    assert calls == []
    assert table.provenance[(1, 0, 1, 2)] == "flow-integration"


def test_flow_derivation_leibniz():
    f = w(0) * w(1)
    g = w(2)
    lhs = flow_derivation(f * g, 1)
    rhs = flow_derivation(f, 1) * g + f * flow_derivation(g, 1)
    assert lhs == rhs
