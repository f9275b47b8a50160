"""Operator algebra: composition, adjoint, skewness, Miura conjugation."""

import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from jethier.jetcalc import (HbarSeries, JetPoly, Substitution, Sum, dx, random_jetpoly,
                             substitute)
from jethier.diffop import (
    DiffOperator,
    MiuraChange,
    adjoint,
    apply_entry,
    apply_op,
    compose,
    commutator,
    conjugate_by_miura,
    euler_cell,
    finish,
    is_skew,
    leibniz,
    operator_to_obj,
)
from jethier import diffop
from jethier.kdvbase import quasi_miura
from readers import hbar_shift, operator_from_obj

W = JetPoly.var


def w(n, exp=1):
    return W(1, n, exp)


def sop(trunc, orders, dim=1):
    """Scalar operator from {order: JetPoly or HbarSeries}."""
    cell = {
        k: (c if isinstance(c, HbarSeries) else HbarSeries.of(c, trunc))
        for k, c in orders.items()
    }
    return DiffOperator(dim, trunc, {(1, 1): cell})


def test_compose_leibniz():
    # d o (w id) = w d + w_x
    p = DiffOperator.dx_op(1, 2)
    q = sop(2, {0: w(0)})
    assert compose(p, q) == sop(2, {1: w(0), 0: w(1)})


def test_coefficient_below_operator_truncation_rejected():
    # a coefficient known to hbar^1 has no hbar^2 part to store: padding it
    # with zero would invent one
    low = HbarSeries(1, [JetPoly.const(1), w(0)])
    with pytest.raises(ValueError):
        DiffOperator(1, 2, {(1, 1): {1: low}})
    # a coefficient known further is cut to the operator's truncation
    op = DiffOperator(1, 1, {(1, 1): {1: HbarSeries(2, [JetPoly.const(1), w(0), w(1)])}})
    assert op.coeff(1, 1, 1) == low and op.coeff(1, 1, 1).trunc == 1


def test_leibniz_cells_and_apply():
    # (w d^2 + 3) o (f d) = w f d^3 + 2 w f_x d^2 + (w f_xx + 3 f) d
    f = HbarSeries.of(w(0) * w(1), 1)
    cell = {2: HbarSeries.of(w(0), 1), 0: HbarSeries.const(3, 1)}
    full = finish(leibniz(cell, {1: f}))
    assert full == {3: f * w(0), 2: f.dx() * w(0) * 2, 1: f.dx_pow(2) * w(0) + f * 3}
    acc = leibniz(cell, {1: f})
    assert leibniz(cell, {1: -f}, acc) is acc
    assert set(acc) == {1, 2, 3} and finish(acc) == {}
    assert apply_entry(cell, f) == f.dx_pow(2) * w(0) + f * 3


@pytest.mark.parametrize("seed", range(4))
def test_euler_cell_is_adjoint_of_linearization(seed):
    # E_g(f) against the adjoint, through leibniz, of sum_n (df/dw[g,n]) d^n,
    # and against the higher Euler operators, which `t_op` runs by Horner's
    # rule and not through leibniz
    rng = random.Random(seed)
    poly = random_jetpoly(rng, colors=3, max_order=3, n_terms=4)
    series = HbarSeries(2, [random_jetpoly(rng, colors=3, max_order=3) for _ in range(3)])
    for f in (poly, series):
        for g in (1, 2, 3):
            orders = sorted(n for gg, n in f.variables() if gg == g)
            got = euler_cell(f, g)
            if orders:
                assert max(got) == orders[-1]
            else:
                assert got == {}
            want = adjoint(sop(2, {n: f.partial(g, n) for n in orders}))
            assert sop(2, got) == want
            # the definition through the higher Euler operators, at every k
            # up to the top jet order the data can have
            for k in range(4):
                assert got.get(k, f * 0) == (-1) ** k * f.t_op(g, k), (g, k)


def test_leibniz_and_commutator_multiply_by_no_vanishing_jet(monkeypatch):
    # with a constant right factor, as every coefficient of d is, each jet
    # past the factor itself vanishes, and so does every product with it
    x = {k: HbarSeries.of(w(0) * w(k), 1) for k in range(4)}
    vanishing = []
    add_product = Sum.add_product

    def counted(self, a, b, k=1, shift=0):
        if not (a and b):
            vanishing.append((a, b))
        return add_product(self, a, b, k, shift)

    monkeypatch.setattr(Sum, "add_product", counted)
    composed = finish(leibniz(x, {1: HbarSeries.const(1, 1)}))
    bracket = finish(commutator(x, HbarSeries.const(2, 1)))
    monkeypatch.undo()
    assert vanishing == []
    assert composed == {k + 1: c for k, c in x.items()}
    assert bracket == {k - 1: c * (2 * k) for k, c in x.items() if k}


def test_commutator_with_an_explicit_primitive():
    # [X, P] = X o P - P X, built with leibniz, from o = dx P alone
    rng = random.Random(20)
    for _ in range(4):
        prim = HbarSeries(1, [random_jetpoly(rng, colors=2, max_order=2),
                              random_jetpoly(rng, colors=2, max_order=2)])
        x = {k: HbarSeries.of(random_jetpoly(rng, colors=2, n_terms=2), 1)
             for k in range(4)}
        want = leibniz(x, {0: prim})
        for k, c in finish(leibniz({0: prim}, x)).items():
            want[k].add(c, -1)
        got = finish(commutator(x, prim.dx()))
        assert 3 not in got
        assert sop(1, got) == sop(1, finish(want))


def identity(dim, trunc):
    one = HbarSeries.const(1, trunc)
    return DiffOperator(dim, trunc, {(a, a): {0: one} for a in range(1, dim + 1)})


def test_compose_identity():
    rng = random.Random(1)
    p = sop(2, {0: random_jetpoly(rng, colors=1), 2: random_jetpoly(rng, colors=1)})
    assert compose(p, identity(1, 2)) == p
    assert compose(identity(1, 2), p) == p


def test_compose_first_order():
    # (A d) o (B d) = AB d^2 + A dx(B) d
    a, b = w(0) ** 2, w(1)
    lhs = compose(sop(1, {1: a}), sop(1, {1: b}))
    assert lhs == sop(1, {2: a * b, 1: a * dx(b)})


def test_compose_associative_random():
    rng = random.Random(9)
    for _ in range(6):
        ops = []
        for _ in range(3):
            ops.append(sop(1, {
                0: random_jetpoly(rng, colors=1, max_order=2, n_terms=2),
                rng.randint(1, 2): random_jetpoly(rng, colors=1, max_order=2, n_terms=2),
            }))
        p, q, r = ops
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_adjoint_examples():
    d = DiffOperator.dx_op(1, 2)
    assert adjoint(d) == DiffOperator.dx_op(1, 2, scale=-1)
    f = w(0)
    assert adjoint(sop(2, {1: f})) == sop(2, {1: -f, 0: -dx(f)})


def test_adjoint_involution_and_antihom():
    rng = random.Random(10)
    for _ in range(5):
        p = sop(1, {0: random_jetpoly(rng, colors=1, n_terms=2),
                    2: random_jetpoly(rng, colors=1, n_terms=2)})
        q = sop(1, {1: random_jetpoly(rng, colors=1, n_terms=2)})
        assert adjoint(adjoint(p)) == p
        assert adjoint(compose(p, q)) == compose(adjoint(q), adjoint(p))


def test_apply_examples():
    d = DiffOperator.dx_op(1, 1)
    v = HbarSeries.of(w(0) ** 2, 1)
    assert apply_op(d, [v])[0] == HbarSeries.of(2 * w(0) * w(1), 1)
    z = DiffOperator.zero(1, 1)
    assert apply_op(z, [v])[0].is_zero()
    p = sop(1, {1: w(0), 0: w(1)})
    assert apply_op(p, [HbarSeries.of(w(0), 1)])[0] == HbarSeries.of(2 * w(0) * w(1), 1)


def test_is_skew():
    assert is_skew(DiffOperator.dx_op(1, 1))
    assert not is_skew(sop(1, {1: w(0)}))
    assert is_skew(sop(1, {1: w(0), 0: w(1) / 2}))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        compose(DiffOperator.dx_op(1, 1), DiffOperator.dx_op(2, 1))
    with pytest.raises(ValueError):
        apply_op(DiffOperator.dx_op(2, 1), [HbarSeries.zero(1)])


# ---------------------------------------------------------------------------
# Miura changes
# ---------------------------------------------------------------------------

def test_miura_requires_identity_leading_part():
    with pytest.raises(ValueError):
        MiuraChange([HbarSeries.of(w(0) ** 2, 1)])
    with pytest.raises(ValueError):
        MiuraChange([HbarSeries.of(W(2, 0), 1), HbarSeries.of(W(2, 0), 1)])
    # linear and invertible, but a swap of the colors
    with pytest.raises(ValueError):
        MiuraChange([HbarSeries.of(W(2, 0), 1), HbarSeries.of(W(1, 0), 1)])
    # the identity plus a constant, or plus a term of the other color
    with pytest.raises(ValueError):
        MiuraChange([HbarSeries.of(w(0) + 1, 1)])
    with pytest.raises(ValueError):
        MiuraChange([HbarSeries.of(W(1, 0) + W(2, 0), 1), HbarSeries.var(2, 0, 1)])


def test_miura_constant_rescaling_rejected():
    # w = 3 v is linear and invertible but not the identity at hbar^0
    with pytest.raises(ValueError):
        MiuraChange([HbarSeries.of(3 * w(0), 2)])


def test_miura_identity_conjugation():
    m = MiuraChange([HbarSeries.var(1, 0, 2)])
    d = DiffOperator.dx_op(1, 2)
    assert conjugate_by_miura(d, m) == d


def test_miura_inverse_roundtrip():
    rng = random.Random(3)
    fwd = HbarSeries(2, [w(0),
                         random_jetpoly(rng, colors=1, max_order=2, n_terms=2),
                         random_jetpoly(rng, colors=1, max_order=3, n_terms=2)])
    m = MiuraChange([fwd])
    inv = m.inverse()
    # forward then inverse is the identity modulo hbar^3
    comp = m.express_in_target(fwd)
    assert comp == HbarSeries.var(1, 0, 2)
    back = inv.express_in_target(inv.forward[0])
    assert back == HbarSeries.var(1, 0, 2)


def test_conjugation_roundtrip_under_inverse():
    rng = random.Random(4)
    fwd = HbarSeries(2, [w(0),
                         random_jetpoly(rng, colors=1, max_order=2, n_terms=2),
                         random_jetpoly(rng, colors=1, max_order=2, n_terms=2)])
    m = MiuraChange([fwd])
    d = DiffOperator.dx_op(1, 2)
    once = conjugate_by_miura(d, m)
    back = conjugate_by_miura(once, m.inverse())
    assert back == d


def test_exact_derivative_tail_keeps_zero_constant_term():
    # w = v + hbar*dx(G1) + hbar^2*dx(G2): the conjugate of dx has no d^0 term
    rng = random.Random(5)
    for _ in range(5):
        g1 = random_jetpoly(rng, colors=1, max_order=2, n_terms=2)
        g2 = random_jetpoly(rng, colors=1, max_order=2, n_terms=2)
        m = MiuraChange([HbarSeries(2, [w(0), dx(g1), dx(g2)])])
        conj = conjugate_by_miura(DiffOperator.dx_op(1, 2), m)
        assert conj.coeff(1, 1, 0).is_zero()


def test_multicolor_identity_conjugation():
    fwd = [HbarSeries.var(1, 0, 1), HbarSeries.var(2, 0, 1)]
    m = MiuraChange(fwd)
    d2 = DiffOperator.dx_op(2, 1)
    assert conjugate_by_miura(d2, m) == d2


def test_operator_json_roundtrip():
    rng = random.Random(6)
    p = DiffOperator(2, 1, {
        (1, 2): {1: HbarSeries.of(random_jetpoly(rng, colors=2, n_terms=2), 1)},
        (2, 2): {0: HbarSeries(1, [JetPoly.zero(), w(1)])},
    })
    assert operator_from_obj(operator_to_obj(p)) == p


def rand_op2(rng, trunc=1):
    """Random 2-color operator with off-diagonal entries."""
    entries = {}
    for row in (1, 2):
        for col in (1, 2):
            if rng.random() < 0.75:
                entries[(row, col)] = {
                    rng.randint(0, 2): HbarSeries.of(
                        random_jetpoly(rng, colors=2, max_order=2, n_terms=2), trunc)}
    return DiffOperator(2, trunc, entries)


def test_two_color_compose_associative_and_adjoint():
    rng = random.Random(12)
    for _ in range(4):
        p, q, r = rand_op2(rng), rand_op2(rng), rand_op2(rng)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))
        assert adjoint(compose(p, q)) == compose(adjoint(q), adjoint(p))
        assert adjoint(adjoint(p)) == p


def test_two_color_apply_consistent_with_compose():
    rng = random.Random(13)
    for _ in range(4):
        p, q = rand_op2(rng), rand_op2(rng)
        vec = [HbarSeries.of(random_jetpoly(rng, colors=2, max_order=1, n_terms=2), 1)
               for _ in range(2)]
        direct = apply_op(compose(p, q), vec)
        staged = apply_op(p, apply_op(q, vec))
        assert direct == staged


def coupled_change(trunc=2):
    """Two-color change w_a = v_a + hbar dx(g_a) with g_a coupling both colors."""
    rng = random.Random(14)
    g1 = random_jetpoly(rng, colors=2, max_order=1, n_terms=2)
    g2 = random_jetpoly(rng, colors=2, max_order=1, n_terms=2)
    return MiuraChange([HbarSeries(trunc, [W(1, 0), dx(g1)]),
                        HbarSeries(trunc, [W(2, 0), dx(g2)])])


def test_compose_differentiates_each_right_coefficient_once(monkeypatch):
    # the jets dx^i of a right-hand coefficient are kept by the coefficient
    # series, so every left row reads the same derivative objects
    L = coupled_change().jacobian()
    right = compose(DiffOperator.dx_op(2, 2), adjoint(L))
    calls = []  # (series, derivative), both kept so no id is reused
    series_dx = HbarSeries.dx

    def counted(self):
        got = series_dx(self)
        calls.append((self, got))
        return got

    monkeypatch.setattr(HbarSeries, "dx", counted)
    got = compose(L, right)
    monkeypatch.undo()
    first = {}
    for series, result in calls:
        assert first.setdefault(id(series), result) is result
    assert len(first) < len(calls)  # some series is read more than once
    want = compose(compose(L, DiffOperator.dx_op(2, 2)), adjoint(L))
    assert got == want


def test_two_color_coupled_miura_conjugation():
    m = coupled_change()
    d2 = DiffOperator.dx_op(2, 2)
    conj = conjugate_by_miura(d2, m)
    for row in (1, 2):
        for col in (1, 2):
            assert conj.coeff(row, col, 0).is_zero()
    assert is_skew(conj)
    assert conjugate_by_miura(conj, m.inverse()) == d2


# ---------------------------------------------------------------------------
# what a change keeps: the known inverse and one cached substitution
# ---------------------------------------------------------------------------

def naive_substitute(p, images, trunc):
    """Reference substitution: every factor prolonged and powered afresh."""
    series = p if isinstance(p, HbarSeries) else HbarSeries.of(p, trunc)
    out = HbarSeries.zero(trunc)
    for g, c in enumerate(series.coeffs[: trunc + 1]):
        for mono, coeff in c.terms():
            term = HbarSeries.const(coeff, trunc)
            for alpha, n, exp in mono:
                jet = images[alpha].truncate(trunc).dx_pow(n)
                base = jet if exp > 0 else jet.inverse()
                for _ in range(abs(exp)):
                    term = term * base
            out = out + hbar_shift(term, g)
    return out


@pytest.mark.parametrize("change", [lambda: quasi_miura("forward", 1),
                                    lambda: quasi_miura("forward", 2),
                                    coupled_change])
def test_fixed_point_inverse_of_inverse_is_forward(change):
    m = change()
    # built directly, so the fixed point runs rather than inverse()'s shortcut
    again = MiuraChange(m.inverse_images()).inverse_images()
    assert len(again) == m.dim
    for got, want in zip(again, m.forward):
        assert got.trunc == want.trunc and got == want
    assert m.inverse().inverse_images() == m.forward


def test_express_in_target_reuses_its_substitution():
    m = quasi_miura("forward", 2)
    images = dict(enumerate(m.inverse_images(), start=1))
    laurent = m.forward[0]  # its hbar^1 and hbar^2 parts have w[1,1]^-k
    assert not all(c.is_polynomial() for c in laurent.coeffs)
    mixed = w(3) * w(1, -2) + w(1) ** 2 * w(2) + w(1, -1)  # w[1,1] to both signs
    inputs = [laurent, laurent.coeffs[2], mixed, laurent]
    for x in inputs + inputs:
        got = m.express_in_target(x)
        assert got == substitute(x, images, m.trunc)
        assert got == naive_substitute(x, images, m.trunc)
    assert m.express_in_target(laurent) == HbarSeries.var(1, 0, 2)


# ---------------------------------------------------------------------------
# the screen by lowest hbar order, against the unscreened rules
# ---------------------------------------------------------------------------

def leibniz_unscreened(a, b, out=None):
    """`leibniz` without the screen: every pair walks its jets."""
    if out is None:
        out = defaultdict(Sum)
    for k2, cb in b.items():
        for k1, ca in a.items():
            jet = cb
            for i in range(k1 + 1):
                if not jet:
                    break
                out[k1 - i + k2].add_product(ca, jet, math.comb(k1, i))
                if i < k1:
                    jet = jet.dx()
    return out


def compose_unscreened(p, q):
    out = defaultdict(lambda: defaultdict(Sum))
    for (row, mid), cell_p in p._entries.items():
        for col in range(1, q.dim + 1):
            cell_q = q._entries.get((mid, col))
            if cell_q:
                leibniz_unscreened(cell_p, cell_q, out[(row, col)])
    return DiffOperator(p.dim, min(p.trunc, q.trunc),
                        {key: finish(cell) for key, cell in out.items()})


def adjoint_unscreened(p):
    out = defaultdict(lambda: defaultdict(Sum))
    for (row, col), cell in p._entries.items():
        for k, a in cell.items():
            leibniz_unscreened({k: -1 if k % 2 else 1}, {0: a}, out[(col, row)])
    return DiffOperator(p.dim, p.trunc, {key: finish(cell) for key, cell in out.items()})


def same_value(got, want):
    """Equal values of one type, series at one truncation."""
    assert type(got) is type(want)
    assert getattr(got, "trunc", None) == getattr(want, "trunc", None)
    assert got == want


def same_sums(got, want):
    """Cells under construction that reached the same orders, each summing
    to the same value at the same truncation; so their finished cells agree."""
    assert list(got) == list(want)
    for k in want:
        same_value(got[k].value(), want[k].value())
    assert list(finish(got)) == list(finish(want))


def late_coeff(rng, low, trunc, constant=False, colors=2):
    """A coefficient known to hbar^trunc whose first nonzero part is hbar^low
    (a constant one has only vanishing jets)."""
    def part():
        if constant:
            return JetPoly.const(rng.choice([-2, 1, 3]))
        return random_jetpoly(rng, colors=colors, max_order=2, n_terms=2) or W(1, 1)
    return HbarSeries(trunc, [JetPoly.zero()] * low + [part() for _ in range(low, trunc + 1)])


def screened_cells(rng, n, truncs):
    """A cell of n orders mixing late, constant, zero, JetPoly and int
    coefficients."""
    cell = {}
    for k in rng.sample(range(4), n):
        t = rng.choice(truncs)
        kind = rng.randrange(6)
        if kind == 0:
            cell[k] = rng.choice([-1, 2, Fraction(1, 3)])
        elif kind == 1:
            cell[k] = random_jetpoly(rng, colors=2, max_order=2, n_terms=2) or W(2, 0)
        elif kind == 5:
            cell[k] = HbarSeries.zero(t)
        else:
            cell[k] = late_coeff(rng, rng.randint(0, t), t, constant=kind == 2)
    return cell


@pytest.mark.parametrize("truncs", [(2,), (1, 2, 3)], ids=["trunc2", "mixed"])
def test_screened_cells_match_the_unscreened_rules(truncs):
    # coefficients that start at hbar^1 and hbar^2, int left factors,
    # constants whose jets vanish, and, in "mixed", truncations 1 to 3 side
    # by side, so that a skipped pair may hold the lowest truncation of a sum
    rng = random.Random(2022)
    for _ in range(40):
        a = screened_cells(rng, rng.randint(1, 3), truncs)
        b = {k: c for k, c in screened_cells(rng, rng.randint(1, 3), truncs).items()
             if not isinstance(c, (int, Fraction))}
        x = {k: c for k, c in a.items() if not isinstance(c, (int, Fraction))}
        same_sums(leibniz(a, b), leibniz_unscreened(a, b))
        # a shared cell under construction, as compose passes it
        got, want = leibniz(a, b), leibniz_unscreened(a, b)
        same_sums(leibniz(b, x, got), leibniz_unscreened(b, x, want))


def late_operator(rng, trunc):
    """A two-color operator whose coefficients mostly start at hbar^1 or hbar^2."""
    entries = {}
    for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
        entries[key] = {k: late_coeff(rng, rng.choice([0, 1, 1, 2, 2]), trunc,
                                      constant=rng.random() < 0.2)
                        for k in rng.sample(range(4), rng.randint(1, 3))}
    return DiffOperator(2, trunc, entries)


def test_screened_compose_and_adjoint_match_the_unscreened_rules():
    rng = random.Random(23)
    for _ in range(12):
        p, q = late_operator(rng, 2), late_operator(rng, rng.choice([1, 2, 3]))
        for got, want in ((compose(p, q), compose_unscreened(p, q)),
                          (compose(q, p), compose_unscreened(q, p)),
                          (adjoint(p), adjoint_unscreened(p))):
            assert got.trunc == want.trunc and got == want
            assert [(key, k, c.trunc) for key, k, c in got.entries()] == \
                [(key, k, c.trunc) for key, k, c in want.entries()]


# ---------------------------------------------------------------------------
# the pass-through of the top hbar part, against the naive substitution
# ---------------------------------------------------------------------------

def substitution_images(kind, rng, trunc):
    """Two-color images: exactly w at hbar^0 ("fixed"), 2*w there
    ("doubled"), or the colors swapped there ("rotated")."""
    images = {}
    for alpha, lead in ((1, W(1, 0)), (2, W(2, 0))):
        if kind == "doubled":
            lead = 2 * lead
        elif kind == "rotated":
            lead = W(3 - alpha, 0)
        tail = [random_jetpoly(rng, colors=2, max_order=1, n_terms=2) for _ in range(trunc)]
        images[alpha] = HbarSeries(trunc, [lead] + tail)
    return images


@pytest.mark.parametrize("kind, fixes", [("fixed", True), ("doubled", False),
                                         ("rotated", False)])
def test_substitution_matches_the_naive_one(kind, fixes):
    rng = random.Random(9)
    laurent = W(1, 1, -2) * W(2, 0) + W(2, 2, -1) * W(1, 1) ** 2 + W(1, 0) ** 3
    for h in (0, 1, 2):
        images = substitution_images(kind, rng, h + 1)  # known past h
        sub = Substitution(images, h)
        assert sub._fixes is fixes
        inputs = [laurent, JetPoly.const(3), HbarSeries(h, [laurent] * (h + 1)),
                  HbarSeries(h + 1, [JetPoly.zero()] * h + [laurent, W(1, 1)])]
        inputs += [HbarSeries(h, [random_jetpoly(rng, colors=2, max_order=2, n_terms=3)
                                  for _ in range(h + 1)]) for _ in range(3)]
        for x in inputs:
            got = sub(x)
            assert got.trunc == h
            assert got == naive_substitute(x, images, h)


def test_miura_conjugation_substitutes_no_monomial_modulo_hbar(monkeypatch):
    # every image of a Miura change is w modulo hbar, so the hbar^trunc part
    # of each coefficient passes through and no monomial is rebuilt at
    # truncation 0
    m = quasi_miura("forward", 2)
    d = DiffOperator.dx_op(1, 2)
    truncs = []
    monomial = Substitution.monomial

    def counted(self, mono, trunc):
        truncs.append(trunc)
        return monomial(self, mono, trunc)

    monkeypatch.setattr(Substitution, "monomial", counted)
    conj = conjugate_by_miura(d, m)
    monkeypatch.undo()
    assert truncs and min(truncs) == 1
    assert conjugate_by_miura(conj, m.inverse()) == d


# ---------------------------------------------------------------------------
# the skew check on the upper triangle, against adjoint(p) == -p
# ---------------------------------------------------------------------------

def negated(p):
    return DiffOperator(p.dim, p.trunc, {key: {k: -c for k, c in cell.items()}
                                         for key, cell in p._entries.items()})


def skew_oracle(p):
    return adjoint(p) == negated(p)


def with_terms(p, terms):
    """p plus the terms ((row, col), k, coeff)."""
    out = defaultdict(lambda: defaultdict(Sum))
    for key, k, c in list(p.entries()) + list(terms):
        out[key][k].add(c)
    return DiffOperator(p.dim, p.trunc, {key: finish(cell) for key, cell in out.items()})


def mixed_operator(rng, dim, trunc):
    """A dim-color operator with some cells empty and coefficients of mixed
    kinds, as `late_operator` draws them: late, constant, in every color."""
    entries = {}
    for row in range(1, dim + 1):
        for col in range(1, dim + 1):
            if rng.random() < 0.7:
                entries[(row, col)] = {
                    k: late_coeff(rng, rng.randint(0, trunc), trunc,
                                  constant=rng.random() < 0.25, colors=dim)
                    for k in rng.sample(range(4), rng.randint(1, 3))}
    return DiffOperator(dim, trunc, entries)


def skew_cases(rng, dim, trunc):
    """(kind, operator): X - adjoint(X), and that with one defect placed
    below the diagonal, at an odd order of a diagonal cell (a constant
    there keeps the operator skew), or in the top hbar part only."""
    x = mixed_operator(rng, dim, trunc)
    skew = with_terms(x, [(key, k, -c) for key, k, c in adjoint(x).entries()])
    yield "skew", skew
    yield "raw", x

    def defect(low, constant=False):
        return late_coeff(rng, low, trunc, constant=constant, colors=dim)

    if dim > 1:
        row = rng.randint(2, dim)
        yield "below", with_terms(skew, [((row, rng.randint(1, row - 1)),
                                          rng.randrange(4), defect(rng.randint(0, trunc)))])
    a = rng.randint(1, dim)
    for constant in (False, True):
        yield "odd-diagonal", with_terms(skew, [((a, a), rng.choice([1, 3]),
                                                 defect(rng.randint(0, trunc), constant))])
    key = (rng.randint(1, dim), rng.randint(1, dim))
    yield "top-hbar", with_terms(skew, [(key, rng.randrange(4), defect(trunc))])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_is_skew_matches_the_oracle(dim):
    rng = random.Random(340 + dim)
    seen = defaultdict(set)
    for trunc in (0, 1, 2):
        for _ in range(4):
            for kind, p in skew_cases(rng, dim, trunc):
                want = skew_oracle(p)
                assert is_skew(p) is want, (kind, trunc)
                seen[kind].add(want)
    assert seen["skew"] == {True} and False in seen["raw"]
    assert seen["odd-diagonal"] == {True, False} and False in seen["top-hbar"]
    assert dim == 1 or seen["below"] == {False}


def test_is_skew_builds_the_upper_triangle_only(monkeypatch):
    # s(s+1)/2 adjoint cells on a skew operator, where no cell ends the check
    # early, and no adjoint operator
    rng = random.Random(34)
    built = []
    adjoint_cell = diffop._adjoint_cell

    def counted(cell, out):
        built.append(cell)
        return adjoint_cell(cell, out)

    def refused(p):
        raise AssertionError("is_skew built adjoint(p)")

    for dim in (1, 2, 3, 4):
        skew = next(skew_cases(rng, dim, 1))[1]
        built.clear()
        monkeypatch.setattr(diffop, "_adjoint_cell", counted)
        monkeypatch.setattr(diffop, "adjoint", refused)
        assert is_skew(skew)
        monkeypatch.undo()
        assert len(built) == dim * (dim + 1) // 2


# ---------------------------------------------------------------------------
# the inverse solve from the first iterate, against h passes from v = w
# ---------------------------------------------------------------------------

def inverse_by_h_passes(m):
    """The fixed point v_a = w_a - tail_a(v) by h substitution passes from v = w."""
    h = m.trunc
    tails = [f - W(a, 0) for a, f in enumerate(m.forward, start=1)]
    wvars = [HbarSeries.var(a, 0, h) for a in range(1, m.dim + 1)]
    cur = wvars
    for _ in range(h):
        sub = Substitution(dict(enumerate(cur, start=1)), h)
        cur = [wvars[a] - sub(tails[a]) for a in range(m.dim)]
    return tuple(cur)


def one_color_change(trunc):
    rng = random.Random(30 + trunc)
    return MiuraChange([HbarSeries(trunc, [w(0)] + [
        random_jetpoly(rng, colors=1, max_order=2, n_terms=2) for _ in range(trunc)])])


SOLVED_CHANGES = ([pytest.param(lambda t=t: coupled_change(t), id=f"coupled-h{t}")
                   for t in (1, 2, 3)]
                  + [pytest.param(lambda t=t: one_color_change(t), id=f"one-color-h{t}")
                     for t in (1, 2, 3)]
                  + [pytest.param(lambda t=t: quasi_miura("forward", t), id=f"quasi-h{t}")
                     for t in (0, 1, 2)])


@pytest.mark.parametrize("change", SOLVED_CHANGES)
def test_inverse_solve_matches_h_passes(change, monkeypatch):
    m = change()
    made = []

    class Counted(Substitution):
        def __init__(self, images, trunc):
            made.append(trunc)
            super().__init__(images, trunc)

    monkeypatch.setattr(diffop, "Substitution", Counted)
    got = m.inverse_images()
    monkeypatch.undo()
    assert len(made) == max(m.trunc - 1, 0)
    want = inverse_by_h_passes(m)
    assert len(got) == len(want) == m.dim
    for g, v in zip(got, want):
        same_value(g, v)


# ---------------------------------------------------------------------------
# inputs known to a lower hbar order than the change
# ---------------------------------------------------------------------------

def test_conjugation_below_the_change_order():
    d = DiffOperator.dx_op(1, 1)
    got = conjugate_by_miura(d, quasi_miura("forward", 2))
    assert got.trunc == 1
    assert got == d and got == conjugate_by_miura(d, quasi_miura("forward", 1))
    m = coupled_change(3)
    got = conjugate_by_miura(DiffOperator.dx_op(2, 1), m)
    want = conjugate_by_miura(DiffOperator.dx_op(2, 1), coupled_change(1))
    assert [(key, k, c.trunc) for key, k, c in got.entries()] == \
        [(key, k, c.trunc) for key, k, c in want.entries()]
    assert got == want


def test_push_flow_below_the_change_order():
    riemann = [HbarSeries.of(w(0) * w(1), 1)]
    got = quasi_miura("forward", 2).push_flow(riemann)
    want = quasi_miura("forward", 1).push_flow(riemann)
    assert len(got) == len(want) == 1
    same_value(got[0], want[0])


# ---------------------------------------------------------------------------
# constant right coefficients in leibniz, against the unscreened rules
# ---------------------------------------------------------------------------

def test_constant_right_coefficients_match_the_unscreened_rules():
    # b holds constants known at hbar^0 only, at truncations below, equal to
    # and above a's; with c = 1 the sum keeps a's coefficient itself, and
    # where the constant's truncation is the lower one it lowers the sum's
    rng = random.Random(341)
    kept = lowered = 0
    for c in (1, -2, Fraction(1, 3)):
        for t in (1, 2, 3):
            for _ in range(6):
                a = screened_cells(rng, rng.randint(1, 3), (2,))
                b = {k: HbarSeries.const(c, t) for k in rng.sample(range(3), rng.randint(1, 2))}
                same_sums(leibniz(a, b), leibniz_unscreened(a, b))
                x = {k: c for k, c in a.items() if not isinstance(c, (int, Fraction))}
                got, want = leibniz(a, b), leibniz_unscreened(a, b)
                same_sums(leibniz(b, x, got), leibniz_unscreened(b, x, want))
                for k1, ca in a.items():
                    if isinstance(ca, (int, Fraction)):
                        continue
                    value = leibniz({k1: ca}, {0: b[min(b)]})[k1].value()
                    kept += value is ca
                    lowered += bool(value) and value.trunc == t and (
                        type(ca) is JetPoly or t < ca.trunc)
    assert kept and lowered
