"""Core calculus: derivations, grading, integration, series, serialization."""

import enum
import json
import math
import operator
import random
from collections import OrderedDict, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jethier import jetcalc
from jethier.cli import main
from jethier.jetcalc import (
    HbarSeries,
    JetPoly,
    NotExact,
    Substitution,
    Sum,
    dx,
    evolve,
    formal_integrate,
    jetpoly_to_obj,
    random_jetpoly,
    render,
    render_series,
    series_to_obj,
    substitute,
    to_json,
)
from readers import hbar_shift, jetpoly_from_obj, series_from_obj

W = JetPoly.var  # W(alpha, order[, exp])


def w(n, exp=1):
    return W(1, n, exp)


def degrees(p):
    """The weighted degrees (sum of order times exponent) of p's monomials."""
    return {sum(n * e for _, n, e in mono) for mono, _ in p.terms()}


def recolor(p, color):
    """p with every factor relabelled to `color`."""
    return JetPoly({tuple((color, n, e) for _, n, e in mono): c for mono, c in p.terms()})


# ---------------------------------------------------------------------------
# arithmetic basics
# ---------------------------------------------------------------------------

def test_zero_coefficients_dropped():
    p = w(0) - w(0)
    assert p.is_zero()
    assert p.num_terms() == 0


def test_laurent_rule_rejects_order0_denominator():
    with pytest.raises(ValueError):
        W(1, 0, -1)


def test_laurent_allowed_on_positive_order():
    p = W(1, 1, -2)
    assert not p.is_polynomial()
    assert degrees(p) == {-2}


def test_pow_negative_monomial():
    p = w(1, 2) * Fraction(3)
    inv = p ** (-1)
    assert inv * p == JetPoly.const(1)
    with pytest.raises(ValueError):
        (w(0) + w(1)) ** (-1)
    with pytest.raises(ValueError):  # the Laurent rule holds for powers too
        w(0) ** -2


@pytest.mark.parametrize("seed", range(6))
def test_pow_is_the_repeated_product(seed):
    rng = random.Random(seed)
    p = rational_jetpoly(rng, n_terms=rng.randint(0, 3))
    mono = JetPoly({((1, 1, rng.randint(-2, 2) or 1), (2, 3, rng.randint(1, 2))):
                    Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 4))})
    want_p, want_m = JetPoly.const(1), JetPoly.const(1)
    for k in range(7):
        assert p ** k == want_p and mono ** k == want_m
        assert (mono ** -k) * want_m == JetPoly.const(1)
        want_p, want_m = want_p * p, want_m * mono


def test_pow_squares_and_multiplies(monkeypatch):
    calls = []

    def counted(self, other):  # counts, and multiplies nothing
        calls.append(other)
        return self

    monkeypatch.setattr(JetPoly, "__mul__", counted)
    (w(0) + w(1)) ** 1000
    assert 0 < len(calls) <= 2 * (1000).bit_length()


# ---------------------------------------------------------------------------
# dx
# ---------------------------------------------------------------------------

def test_dx_square():
    assert dx(w(0) ** 2) == 2 * w(0) * w(1)


def test_dx_constant():
    assert dx(JetPoly.const(Fraction(5, 7))).is_zero()


def test_dx_laurent_chain_rule():
    # d/dx of 1/w1 is -w2/w1^2
    assert dx(w(1, -1)) == -(w(2) * w(1, -2))


@pytest.mark.parametrize("p, want", [
    # w[1,2] present with exponent -1: the bump cancels it
    (w(1) * w(2, -1), JetPoly.const(1) - w(1) * w(2, -2) * w(3)),
    (w(1, 2) * w(2, -1), 2 * w(1) - w(1, 2) * w(2, -2) * w(3)),
    (w(0) * w(1, -1), JetPoly.const(1) - w(0) * w(1, -2) * w(2)),
    # exponent 1 and 2: the bump raises it
    (w(1) * w(2), w(2) ** 2 + w(1) * w(3)),
    (w(1) * w(2, 2), w(2, 3) + 2 * w(1) * w(2) * w(3)),
    (w(0, 2) * w(1, 2), 2 * w(0) * w(1, 3) + 2 * w(0, 2) * w(1) * w(2)),
    # w[2,n+1] is not w[1,n+1]: insert, do not merge across colors
    (W(1, 1) * W(2, 2), W(1, 2) * W(2, 2) + W(1, 1) * W(2, 3)),
])
def test_dx_bumps_the_next_factor(p, want):
    assert p.dx() == want
    assert model(p.dx()) == o_dx(model(p))


def test_dx_raises_degree_by_one():
    rng = random.Random(11)
    for _ in range(20):
        p = random_jetpoly(rng)
        for d in degrees(p):
            comp = JetPoly({m: c for m, c in p.terms()
                            if sum(n * e for _, n, e in m) == d})
            degs = degrees(dx(comp))
            assert degs <= {d + 1}


def fresh(p):
    """An equal polynomial that has not been differentiated."""
    return JetPoly(dict(p.terms()))


def test_dx_is_kept_by_the_value():
    rng = random.Random(17)
    for _ in range(10):
        p = random_jetpoly(rng)
        assert p.dx() is p.dx()
        assert p.dx_pow(3) is p.dx().dx().dx()
        s = HbarSeries(2, [p, random_jetpoly(rng), JetPoly.zero()])
        assert s.dx() is s.dx()
        assert s.dx_pow(2) is s.dx().dx()
        t = s.truncate(1)
        assert t.dx_pow(2) is t.dx().dx()
    assert JetPoly.zero().dx() is JetPoly.zero()


@pytest.mark.parametrize("sign", [1, -1])
def test_dx_pow_is_repeated_dx(sign):
    # sign -1 differentiates negated values, which keep no derivative yet
    rng = random.Random(19)
    for _ in range(10):
        p = sign * random_jetpoly(rng)
        s = sign * HbarSeries(1, [p, random_jetpoly(rng)])
        want_p, want_s = fresh(p), HbarSeries(1, [fresh(c) for c in s.coeffs])
        for k in range(5):
            assert p.dx_pow(k) == want_p
            assert s.dx_pow(k) == want_s
            want_p = fresh(want_p).dx()
            want_s = HbarSeries(1, [fresh(c).dx() for c in want_s.coeffs])


def test_hash_ignores_the_kept_derivative():
    rng = random.Random(23)
    for _ in range(10):
        p = random_jetpoly(rng)
        q = fresh(p)
        p.dx_pow(2)
        assert p == q and hash(p) == hash(q)
        assert p.dx() == q.dx() and hash(p.dx()) == hash(q.dx())


def dx_num_oracle(num):
    """`jetcalc._dx_num` as it was before the per-monomial rules were kept:
    every factor of every monomial differentiated afresh, in the same order."""
    out = {}
    get = out.get
    for mono, coeff in num.items():
        for idx, (alpha, n, exp) in enumerate(mono):
            head = mono[:idx] if exp == 1 else mono[:idx] + ((alpha, n, exp - 1),)
            nxt = mono[idx + 1] if idx + 1 < len(mono) else None
            if nxt is not None and nxt[0] == alpha and nxt[1] == n + 1:
                e = nxt[2] + 1
                tail = (((alpha, n + 1, e),) if e else ()) + mono[idx + 2:]
            else:
                tail = ((alpha, n + 1, 1),) + mono[idx + 1:]
            new = head + tail
            c = coeff * exp
            acc = get(new)
            if acc is None:
                out[new] = c
            else:
                acc = acc + c
                if acc == 0:
                    del out[new]
                else:
                    out[new] = acc
    return out


def laurent_jetpoly(rng, n_terms=6):
    """A random three-color Laurent polynomial: exponents -3..3 on jets of
    order >= 1, 1..3 on order 0, adjacent orders of one color frequent."""
    terms = {}
    for _ in range(n_terms):
        factors = {}
        for _ in range(rng.randint(0, 4)):
            a, n = rng.randint(1, 3), rng.randint(0, 3)
            factors[(a, n)] = rng.randint(1, 3) if n == 0 else rng.choice([-3, -2, -1, 1, 2, 3])
            if n and rng.random() < 0.5:
                factors[(a, n + 1)] = rng.choice([-2, -1, 1])
        mono = tuple((a, n, e) for (a, n), e in sorted(factors.items()))
        terms[mono] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
    return JetPoly(terms)


def assert_dx_matches_oracle(values):
    for v in values:
        for num in (v._num,) if type(v) is JetPoly else v.parts:
            got = jetcalc._dx_num(num)
            # same monomials, numerators and insertion order
            assert list(got.items()) == list(dx_num_oracle(num).items())


def test_dx_rule_memo_matches_the_oracle():
    rng = random.Random(29)
    values = [laurent_jetpoly(rng) for _ in range(20)]
    values += [HbarSeries(2, [laurent_jetpoly(rng), JetPoly.zero(), laurent_jetpoly(rng)])
               for _ in range(10)]
    # bumps that cancel and bumps that do not
    values += [w(1, -1) * w(2), w(1) * w(2, -1), W(2, 1, -2) * W(2, 2, 2) * W(3, 1, -1),
               W(1, 1) * W(1, 2, -1) * W(1, 3, -1)]
    monos = [m for v in values for num in ((v._num,) if type(v) is JetPoly else v.parts)
             for m in num]
    memo = jetcalc._dx_rule
    memo.cache_clear()
    assert_dx_matches_oracle(values)  # cold: each distinct monomial derived once
    assert memo.cache_info()[:2] == (len(monos) - len(set(monos)), len(set(monos)))
    assert_dx_matches_oracle(values)  # warm: none derived again
    assert memo.cache_info()[:2] == (2 * len(monos) - len(set(monos)), len(set(monos)))
    # more distinct monomials than the memo holds
    bound = memo.cache_info().maxsize
    assert bound is not None
    many = {}
    for a, b in [(1, 1), (1, 2), (2, 3)]:
        for n in range(1, 6):
            for m in range(1, 6):
                for e in (-3, -2, -1, 1, 2, 3):
                    for f in (-2, -1, 1, 2):
                        if (a, n) < (b, m):
                            many[((a, n, e), (b, m, f))] = e - f or 1
    assert len(many) > bound
    assert list(jetcalc._dx_num(many).items()) == list(dx_num_oracle(many).items())
    assert memo.cache_info().currsize <= bound
    assert_dx_matches_oracle(values)  # after eviction
    assert memo.cache_info().currsize <= bound
    for v in values:
        assert v.dx() == (JetPoly._reduced(dx_num_oracle(v._num), v._den) if type(v) is JetPoly
                          else HbarSeries._reduced(v.trunc, tuple(map(dx_num_oracle, v.parts)),
                                                   v.den))


def test_deform_bracket_stdout_same_cold_and_warm(tmp_path, capsys):
    rng = random.Random(31)
    x, y, z = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"kind": "r", "level": 1, "matrix": [[x, y], [y, z]]}))
    argv = ["deform", "bracket", "--generator", str(path), "--tensor", "2",
            "--hbar", "1", "--pmax", "1"]
    outs = []
    jetcalc._dx_rule.cache_clear()
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out.encode())
    assert jetcalc._dx_rule.cache_info().hits > 0
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["all_pass"] is True


# ---------------------------------------------------------------------------
# partial
# ---------------------------------------------------------------------------

def test_partial_simple():
    p = w(0) * w(2)
    assert p.partial(1, 2) == w(0)
    assert (w(0) ** 3).partial(1, 1).is_zero()


def test_partial_laurent():
    assert w(1, -1).partial(1, 1) == -w(1, -2)


def test_partials_commute():
    rng = random.Random(5)
    for _ in range(10):
        p = random_jetpoly(rng)
        assert p.partial(1, 0).partial(2, 1) == p.partial(2, 1).partial(1, 0)


# ---------------------------------------------------------------------------
# var_deriv
# ---------------------------------------------------------------------------

def test_var_deriv_examples():
    assert (w(0) * w(2)).var_deriv(1) == 2 * w(2)
    assert (w(1) ** 2 / 2).var_deriv(1) == -w(2)


def test_var_deriv_h1_density():
    # h = w^3/6 + a*(w1^2 + 2 w w2)/24 + b*w4/240 has Euler derivative
    # w^2/2 + a*w2/12 for any constants a, b (taking a, b = 1 here).
    h = w(0) ** 3 / 6 + (w(1) ** 2 + 2 * w(0) * w(2)) / 24 + w(4) / 240
    assert h.var_deriv(1) == w(0) ** 2 / 2 + w(2) / 12


def test_var_deriv_kills_dx_random():
    rng = random.Random(23)
    for _ in range(25):
        p = random_jetpoly(rng)
        for alpha in range(1, 4):
            assert dx(p).var_deriv(alpha).is_zero()


# ---------------------------------------------------------------------------
# t_op
# ---------------------------------------------------------------------------

def test_t_op_negative_k_is_zero():
    rng = random.Random(2)
    p = random_jetpoly(rng)
    assert p.t_op(1, -1).is_zero()


def test_t_op_zero_is_var_deriv():
    rng = random.Random(3)
    for _ in range(10):
        p = random_jetpoly(rng)
        assert p.t_op(2, 0) == p.var_deriv(2)


def test_t_op_shift_under_dx():
    # holds for every integer k (negative k gives zero on both sides)
    rng = random.Random(4)
    for _ in range(10):
        p = random_jetpoly(rng)
        for k in range(-2, 5):
            assert dx(p).t_op(1, k) == p.t_op(1, k - 1)


def test_evolve_examples():
    assert evolve(w(0) * w(2), {1: w(1)}) == w(1) * w(2) + w(0) * w(3)
    assert evolve(W(2, 1), {1: w(0)}).is_zero()  # colors without a flow stay
    s = HbarSeries(1, [w(0) ** 2, w(2)])
    got = evolve(s, {1: HbarSeries.of(w(1), 1)})
    assert got == HbarSeries(1, [2 * w(0) * w(1), w(3)])


def test_evolve_is_a_derivation_commuting_with_dx():
    rng = random.Random(5)
    for _ in range(20):
        f, g, x1, x2 = (random_jetpoly(rng, colors=2) for _ in range(4))
        flows = {1: x1, 2: x2}
        assert evolve(f * g, flows) == evolve(f, flows) * g + f * evolve(g, flows)
        assert evolve(dx(f), flows) == dx(evolve(f, flows))


def minus_dx_pow(x, k):
    """(-dx)^k x."""
    return x.dx_pow(k) * (-1) ** k


def test_delta_leibniz_product_rule():
    # delta(XY) = sum_k ( T_k X (-dx)^k Y + (-dx)^k X T_k Y )
    rng = random.Random(7)
    for _ in range(8):
        x = random_jetpoly(rng, colors=2, max_order=2)
        y = random_jetpoly(rng, colors=2, max_order=2)
        lhs = (x * y).var_deriv(1)
        kmax = max((n for _, n in (x * y).variables()), default=0)
        rhs = JetPoly.zero()
        for k in range(kmax + 1):
            rhs = rhs + x.t_op(1, k) * minus_dx_pow(y, k)
            rhs = rhs + minus_dx_pow(x, k) * y.t_op(1, k)
        assert lhs == rhs


def test_t_op_generalized_leibniz():
    # T_p(XY) = sum_k C(k+p,k) ( T_{k+p}X (-dx)^k Y + (-dx)^k X T_{k+p}Y )
    import math
    rng = random.Random(8)
    for _ in range(6):
        x = random_jetpoly(rng, colors=2, max_order=2)
        y = random_jetpoly(rng, colors=2, max_order=2)
        kmax = max((n for _, n in (x * y).variables()), default=0)
        for p in range(0, 4):
            lhs = (x * y).t_op(1, p)
            rhs = JetPoly.zero()
            for k in range(kmax + 1):
                c = math.comb(k + p, k)
                rhs = rhs + c * (x.t_op(1, k + p) * minus_dx_pow(y, k))
                rhs = rhs + c * (minus_dx_pow(x, k) * y.t_op(1, k + p))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# formal_integrate
# ---------------------------------------------------------------------------

def test_integrate_examples():
    assert formal_integrate(2 * w(0) * w(1)) == w(0) ** 2
    assert formal_integrate(JetPoly.zero()).is_zero()
    with pytest.raises(NotExact):
        formal_integrate(w(1) ** 2)


def test_integrate_constant_rejected():
    with pytest.raises(NotExact):
        formal_integrate(JetPoly.const(1))


def test_integrate_rejects_nonzero_variational_derivative():
    # no pre-check of var_deriv: the slice steps and the final dx check reject
    for p in (w(0) * w(2), w(0) ** 2 * w(1) ** 2, W(1, 0) * W(2, 1),
              w(1) ** 3 * w(2, -1), w(0) * w(1) + w(0) * w(2)):
        assert any(p.var_deriv(alpha) for alpha, _ in p.variables())
        with pytest.raises(NotExact):
            formal_integrate(p)


def test_integrate_exact_iff_variational_derivative_vanishes():
    # on polynomials without constant term, exact = kernel of var_deriv
    rng = random.Random(37)
    for _ in range(30):
        p = random_jetpoly(rng, colors=2, max_order=2, n_terms=3)
        p = dx(p) + rng.randint(0, 1) * random_jetpoly(rng, colors=2, max_order=2, n_terms=1)
        p = p - JetPoly.const(p.constant_term())
        if any(p.var_deriv(alpha) for alpha in (1, 2)):
            with pytest.raises(NotExact):
                formal_integrate(p)
        else:
            assert dx(formal_integrate(p)) == p


def test_integrate_log_sector_rejected():
    # w2/w1 = dx(log w1) is outside the Laurent ring
    with pytest.raises(NotExact):
        formal_integrate(w(2) * w(1, -1))


def potential_reference(grads, n):
    """The Euler homotopy on `Fraction` coefficients: each term of
    sum_g w[g,n] grads[g] divided by its degree in the order-n jets."""
    terms = {}
    for g, grad in grads.items():
        for mono, c in (W(g, n) * grad).terms():
            terms[mono] = terms.get(mono, 0) + c
    return JetPoly({mono: c / sum(e for _, m, e in mono if m == n)
                    for mono, c in terms.items()})


def test_potential_matches_fraction_reference():
    # closed gradients in two and three colors whose monomials have several
    # distinct degrees in the order-n jets, over several denominators
    rng = random.Random(41)
    for n in (0, 1, 2):
        for colors in (2, 3):
            for _ in range(8):
                psi = JetPoly.zero()
                for _ in range(4):  # each term has at least one order-n factor
                    term = JetPoly.const(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)))
                    for _ in range(rng.randint(1, 4)):
                        term = term * W(rng.randint(1, colors), n)
                    if rng.random() < 0.5:
                        term = term * W(rng.randint(1, colors), n + 1, rng.choice([-1, 1, 2]))
                    psi = psi + term
                grads = {g: psi.partial(g, n) for g in range(1, colors + 1)}
                got, want = jetcalc.potential(grads, n), potential_reference(grads, n)
                assert (got._den, got._num) == (want._den, want._num)
                assert got == psi
    with pytest.raises(NotExact):  # w[1,1] * w[1,1]^-1 has degree 0: a logarithm
        jetcalc.potential({1: w(1, -1), 2: W(2, 1)}, 1)


def test_integrate_roundtrip_random():
    rng = random.Random(31)
    for _ in range(30):
        p = random_jetpoly(rng)
        p = p - JetPoly.const(p.constant_term())
        q = formal_integrate(dx(p))
        # agreement modulo pure constants; normalization drops constants
        assert q == p


def test_integrate_laurent_roundtrip():
    p = w(3) * w(1, -2) + w(2, 3) * w(1, -1)
    assert formal_integrate(dx(p)) == p


def test_integrate_multicolor():
    p = W(1, 1) * W(2, 1) ** 2 + W(1, 0) * W(2, 0)
    assert formal_integrate(dx(p)) == p


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_integrate_roundtrip_hypothesis(seed):
    rng = random.Random(seed)
    p = random_jetpoly(rng, colors=2, max_order=2, n_terms=2)
    p = p - JetPoly.const(p.constant_term())
    assert formal_integrate(dx(p)) == p


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(1, 3))
def test_var_deriv_annihilates_dx_hypothesis(seed, alpha):
    rng = random.Random(seed)
    p = random_jetpoly(rng, n_terms=3)
    assert dx(p).var_deriv(alpha).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(-1, 4))
def test_t_op_shift_hypothesis(seed, k):
    rng = random.Random(seed)
    p = random_jetpoly(rng, n_terms=3)
    assert dx(p).t_op(1, k) == p.t_op(1, k - 1)


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------

def test_weighted_degree_examples():
    assert degrees(w(1) ** 2) == {2}
    assert degrees(w(0) ** 5) == {0}
    p = w(3) * w(1, -1) + w(2) ** 2 * w(1, -2)
    assert degrees(p) == {2}
    s = HbarSeries(2, [w(0) + w(1), JetPoly.zero(), p])
    assert s.gradings() == [(0, True, {0, 1}), (2, False, {2})]


# ---------------------------------------------------------------------------
# hbar series
# ---------------------------------------------------------------------------

def test_series_product_truncates_at_min():
    a = HbarSeries(2, [w(0), w(1), w(2)])
    b = HbarSeries(1, [JetPoly.const(1), w(0)])
    assert (a * b).trunc == 1
    assert a * b == HbarSeries(1, [w(0), w(1) + w(0) ** 2])


def test_series_shift_drops_overflow():
    a = HbarSeries(1, [w(0), w(1)])
    assert hbar_shift(a) == HbarSeries(1, [JetPoly.zero(), w(0)])
    assert hbar_shift(a, 0) == a
    assert hbar_shift(a, 3) == HbarSeries.zero(1)
    # a shifted term of a Sum is the same shift, known to hbar^(1+k)
    for k in range(4):
        out = Sum()
        out.add(a, shift=k)
        got = out.value()
        assert got.trunc == 1 + k and got.truncate(1) == hbar_shift(a, k)


def test_series_shift_rejects_negative_power():
    # hbar^-1 is not a series; the oracles' shift must not return the series unshifted
    with pytest.raises(ValueError):
        hbar_shift(HbarSeries(1, [w(0), w(1)]), -1)


@pytest.mark.parametrize("bad", ["1/2", "3", 0.5])
def test_inexact_operands_raise(bad):
    for x in (w(0) + w(1) / 2, HbarSeries(1, [w(0), w(1) / 3])):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, bad)
            with pytest.raises(TypeError):
                op(bad, x)
    assert JetPoly.const(3) != "3" and HbarSeries.const(3, 1) != "3"


def test_series_inverse():
    s = HbarSeries(2, [w(1), w(0), w(2)])
    assert (s * s.inverse()) == HbarSeries.const(1, 2)
    with pytest.raises(ValueError):
        HbarSeries(1, [w(0) + w(1)]).inverse()


def test_series_truncate_never_extends():
    # a series known modulo hbar^2 says nothing of hbar^2: truncate(2) used
    # to pad a zero there
    s = HbarSeries(1, [w(0), w(1) / 2])
    for bad in (2, 5, -1):
        with pytest.raises(ValueError):
            s.truncate(bad)
    assert s.truncate(1) is s
    assert s.truncate(0) == HbarSeries(0, [w(0)]) and s.truncate(0).trunc == 0


def test_substitution_refuses_images_below_its_order():
    # the hbar^2 part of (w + hbar w_1 + O(hbar^2))^2 needs the image's
    # hbar^2 part, which nobody computed: it used to come out as w_1^2
    images = {1: HbarSeries(1, [w(0), w(1)])}
    for make in (lambda: substitute(w(0) ** 2, images, 2),
                 lambda: Substitution(images, 2),
                 lambda: substitute(images[1], {1: HbarSeries.var(1, 0, 2)}, 2)):
        with pytest.raises(ValueError, match="stops at hbar"):
            make()
    assert substitute(w(0) ** 2, images, 1) == HbarSeries(1, [w(0) ** 2, 2 * w(0) * w(1)])


def test_substitution_refuses_a_color_without_image():
    # it used to be a bare KeyError from `power`; the hbar^trunc part, which
    # passes through when the images are w modulo hbar, is checked as well
    for images in ({1: HbarSeries.var(1, 0, 1)}, {1: HbarSeries(1, [2 * w(0), w(1)])}):
        for p in (HbarSeries(1, [JetPoly.zero(), W(2, 0)]), HbarSeries(1, [W(2, 0)]),
                  HbarSeries(1, [w(0) * W(2, 1, -1), w(0)]), W(2, 1)):
            with pytest.raises(ValueError, match="color 2 has no image"):
                substitute(p, images, 1)
    with pytest.raises(ValueError, match="color 2 has no image"):
        substitute(W(2, 0), {1: HbarSeries.var(1, 0, 0)}, 0)


def test_series_equality_within_truncation():
    a = HbarSeries(2, [w(0), w(1), w(2)])
    b = HbarSeries(1, [w(0), w(1)])
    assert a == b


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitution_keeps_leading_factor_products(monkeypatch):
    # the image of a monomial's leading factors is kept by (factors,
    # truncation): substituting a three-factor monomial again multiplies no
    # series
    sub = Substitution({1: HbarSeries(2, [w(0), w(2), w(0) * w(1)])}, 2)
    p = w(0) * w(1) * w(3) + 2 * w(0) ** 2 * w(2) * w(4)
    products = []
    mul = HbarSeries.__mul__
    monkeypatch.setattr(HbarSeries, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    first = sub(p)
    assert products
    products.clear()
    assert sub(p) == first
    assert sub(w(0) * w(1) * w(2)) == sub(w(0) * w(1)) * sub(w(2))
    assert products == [1]  # the one product on the right-hand side


def test_substitute_identity():
    p = w(0) ** 2 * w(1) + w(2, -1)
    images = {1: HbarSeries.var(1, 0, 2)}
    assert substitute(p, images, 2) == HbarSeries.of(p, 2)


def test_substitute_prolongs_derivatives():
    # w[1,1] -> dx(image)
    images = {1: HbarSeries(1, [w(0), w(0) ** 2])}
    got = substitute(w(1), images, 1)
    assert got == HbarSeries(1, [w(1), 2 * w(0) * w(1)])


def test_substitute_laurent_power():
    images = {1: HbarSeries(1, [w(0), w(0) ** 2])}
    got = substitute(w(1, -1), images, 1)
    # (w1 + h*2 w w1)^-1 = w1^-1 - h * 2 w / w1  + O(h^2)
    want = HbarSeries(1, [w(1, -1), -2 * w(0) * w(1, -1)])
    assert got == want


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_jetpoly_json_roundtrip_and_determinism():
    rng = random.Random(13)
    for _ in range(10):
        p = random_jetpoly(rng)
        obj = jetpoly_to_obj(p)
        assert jetpoly_from_obj(obj) == p
        assert json.dumps(obj) == json.dumps(jetpoly_to_obj(jetpoly_from_obj(obj)))


def test_series_json_roundtrip():
    s = HbarSeries(2, [w(0) ** 2, w(1) / 2, JetPoly.const(Fraction(-3, 7))])
    assert series_from_obj(series_to_obj(s)) == s


def dumps(obj) -> str:
    """The JSON form the CLI prints, by the standard library's encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2)


# quotes, backslashes, control characters, non-ASCII and astral text
TEXT_CHARS = 'ab /"\\\n\t\x00\x1f\x7f\u00e9\u2028\u2603\U0001f600'


def random_text(rng):
    return "".join(rng.choice(TEXT_CHARS) for _ in range(rng.randint(0, 5)))


def random_tree(rng, depth=0):
    kind = rng.randrange(6 if depth < 4 else 4)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, rng.randint(-10**6, 10**6), -(10**40) - 7, 2**70])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([[], {}])
    if kind == 4:
        return [random_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {random_text(rng): random_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))}


class Text(str):
    pass


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


def test_to_json_plain_trees_match_json_dumps():
    rng = random.Random(5)
    for _ in range(300):
        tree = random_tree(rng)
        assert to_json(tree) == dumps(tree)
        tree = {random_text(rng): [tree, random_tree(rng)]}
        assert to_json(tree) == dumps(tree)
    assert to_json({"": {}, "a": [[], {}], "b": [True, False, None]}) == \
        dumps({"": {}, "a": [[], {}], "b": [True, False, None]})
    # subclasses miss the exact-type tests and take the isinstance fallbacks
    tree = OrderedDict([("z", Text('q"\u00e9')), ("a", defaultdict(list, {
        Text("k"): [Level.HIGH, Text(""), OrderedDict()], "j": Level.LOW}))])
    assert to_json(tree) == dumps(tree)
    assert to_json([Level.LOW, Text("t"), defaultdict(int)]) == \
        dumps([Level.LOW, Text("t"), defaultdict(int)])


def jetpoly_cases():
    rng = random.Random(17)
    cases = [random_jetpoly(rng) / rng.randint(1, 12) + Fraction(rng.randint(-5, 5), 6)
             for _ in range(40)]
    cases += [
        # negative exponents at order >= 1
        JetPoly({((1, 1, -2), (2, 3, 1)): Fraction(-5, 6), ((1, 2, -1),): 3}),
        JetPoly.const(Fraction(-7, 3)) + w(0),  # a constant term
        JetPoly.const(4),
        JetPoly.zero(),
        # mixed denominators: over the shared 12 the numerators are 6, 4, 15, 72
        w(0) / 2 + w(1) / 3 + w(2) * Fraction(5, 4) + 6,
        w(0) * (10**30 + 1) / 7 - w(1) ** 3 / (2 * 10**25),
    ]
    return cases


def test_to_json_jetpoly_matches_plain_form():
    for p in jetpoly_cases():
        assert to_json(p) == dumps(jetpoly_to_obj(p))
        assert to_json({"k": [p]}) == dumps({"k": [jetpoly_to_obj(p)]})


def test_to_json_series_matches_plain_form():
    polys = jetpoly_cases()
    rng = random.Random(23)
    for trunc in range(4):
        series = [HbarSeries(trunc), HbarSeries(trunc, [JetPoly.zero(), w(1)])]
        series += [HbarSeries(trunc, rng.sample(polys, trunc + 1)) for _ in range(8)]
        for s in series:
            assert to_json(s) == dumps(series_to_obj(s))
            assert to_json({"k": [s]}) == dumps({"k": [series_to_obj(s)]})


def test_to_json_shared_values_at_two_depths():
    # one series and one polynomial object, each written at two depths, with
    # monomials in common: a value and a factor block are written with other
    # bytes at another depth, so the writer's memo keys both by depth
    s = HbarSeries(2, [w(0) ** 2 / 2, w(0) * w(2) / 12, JetPoly.zero()])
    p = w(0) ** 2 - w(0) * w(2) / 3
    tree = {"a": s, "b": {"c": [s, p]}, "d": p}
    plain = {"a": series_to_obj(s), "b": {"c": [series_to_obj(s), jetpoly_to_obj(p)]},
             "d": jetpoly_to_obj(p)}
    assert to_json(tree) == dumps(plain)


@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), (1, 2), {1: "a"}, {"a": [{"b": 0.0}]}, {"k": {(1,): 1}},
])
def test_to_json_rejects_what_json_cannot_hold_exactly(obj):
    with pytest.raises(TypeError):
        to_json(obj)


def test_render_fixed_order():
    p = w(0) ** 2 - w(2) / 2
    assert render(p) == "w[1,0]^2 - 1/2*w[1,2]"
    # the empty monomial prints as its coefficient alone, first in order
    assert render(JetPoly.const(Fraction(-3, 2))) == "-3/2"
    assert render(JetPoly.var(1, 0) + 2) == "2 + w[1,0]"
    assert render_series(HbarSeries(1, [JetPoly.const(1), JetPoly.var(1, 2) / 12])) == (
        "1 + hbar*(1/12*w[1,2])")


# ---------------------------------------------------------------------------
# the coefficient layer against a {Mono: Fraction} oracle
# ---------------------------------------------------------------------------

def rational_jetpoly(rng, n_terms=3, colors=2, max_order=3):
    """Random polynomial with fractional coefficients and Laurent monomials."""
    terms = {}
    for _ in range(n_terms):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            a, n = rng.randint(1, colors), rng.randint(0, max_order)
            e = rng.choice((1, 2) if n == 0 else (-2, -1, 1, 2))
            exps[(a, n)] = exps.get((a, n), 0) + e
        mono = tuple((a, n, e) for (a, n), e in sorted(exps.items()) if e)
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return JetPoly(terms)


def model(p):
    """The oracle form {mono: Fraction} of p, after checking p's storage is
    canonical: int numerators, never zero, over an int denominator >= 1 with
    gcd(den, *numerators) == 1."""
    num, den = p._num, p._den
    assert type(den) is int and den >= 1
    for m in num:
        keys = [(a, n) for a, n, _ in m]
        assert keys == sorted(set(keys)) and all(e for _, _, e in m)
    assert all(type(c) is int and c != 0 for c in num.values())
    assert math.gcd(den, *num.values()) == 1
    out = dict(p.terms())
    assert all(type(c) is Fraction for c in out.values())
    return out


def o_clean(a):
    return {m: c for m, c in a.items() if c}


def o_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return o_clean(out)


def o_scale(a, k):
    return o_clean({m: c * k for m, c in a.items()})


def o_mono(exps):
    return tuple((a, n, e) for (a, n), e in sorted(exps.items()) if e)


def o_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = {}
            for al, n, e in ma + mb:
                exps[(al, n)] = exps.get((al, n), 0) + e
            m = o_mono(exps)
            out[m] = out.get(m, 0) + ca * cb
    return o_clean(out)


def o_partial(a, alpha, n):
    out = {}
    for m, c in a.items():
        exps = {(al, k): e for al, k, e in m}
        e = exps.get((alpha, n), 0)
        if e:
            exps[(alpha, n)] = e - 1
            mm = o_mono(exps)
            out[mm] = out.get(mm, 0) + c * e
    return o_clean(out)


def o_vars(a):
    return {(al, n) for m in a for al, n, _ in m}


def o_dx(a):
    out = {}
    for alpha, n in o_vars(a):
        out = o_add(out, o_mul(o_partial(a, alpha, n), {((alpha, n + 1, 1),): Fraction(1)}))
    return out


def o_dx_pow(a, k):
    for _ in range(k):
        a = o_dx(a)
    return a


def o_t_op(a, alpha, k):
    out = {}
    for n in {n for al, n in o_vars(a) if al == alpha and n >= k}:
        term = o_dx_pow(o_partial(a, alpha, n), n - k)
        out = o_add(out, o_scale(term, math.comb(n, k) * (-1) ** (n - k)))
    return out


def o_series_mul(a, b):
    h = len(a) - 1
    out = [{} for _ in range(h + 1)]
    for i in range(h + 1):
        for j in range(h + 1 - i):
            out[i + j] = o_add(out[i + j], o_mul(a[i], b[j]))
    return out


def o_series_inverse(a):
    (m, c), = a[0].items()
    lead_inv = {tuple((al, n, -e) for al, n, e in m): 1 / c}
    tail = [{}] + [o_scale(o_mul(x, lead_inv), -1) for x in a[1:]]
    out = [{(): Fraction(1)}] + [{} for _ in a[1:]]
    power = list(out)
    for _ in a[1:]:
        power = o_series_mul(power, tail)
        out = [o_add(x, y) for x, y in zip(out, power)]
    return [o_mul(x, lead_inv) for x in out]


def o_substitute(series, images, h):
    """sum hbar^g c * prod dx^n(images[alpha])^exp, modulo hbar^(h+1)."""
    out = [{} for _ in range(h + 1)]
    for g, a in enumerate(series[: h + 1]):
        for m, c in a.items():
            term = [{}] * g + [{(): c}] + [{} for _ in range(h - g)]
            for alpha, n, e in m:
                jet = [o_dx_pow(x, n) for x in images[alpha]]
                base = jet if e > 0 else o_series_inverse(jet)
                for _ in range(abs(e)):
                    term = o_series_mul(term, base)
            out = [o_add(x, y) for x, y in zip(out, term)]
    return out


def test_coefficient_layer_against_oracle():
    rng = random.Random(41)
    for _ in range(40):
        p, q = rational_jetpoly(rng), rational_jetpoly(rng)
        mp, mq = model(p), model(q)
        assert model(p + q) == o_add(mp, mq)
        assert model(p - q) == o_add(mp, o_scale(mq, -1))
        assert model(-p) == o_scale(mp, -1)
        assert model(p * q) == o_mul(mp, mq)
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert model(p * k) == o_scale(mp, k)
        assert model(p * 6) == o_scale(mp, 6)
        for c in (k, -3):  # a Fraction and an int constant
            mc = o_clean({(): Fraction(c)})
            assert model(c + p) == model(p + c) == o_add(mp, mc)
            assert model(p - c) == o_add(mp, o_scale(mc, -1))
            assert model(c - p) == o_add(mc, o_scale(mp, -1))
            assert model(c * p) == o_scale(mp, c)
        # adding zero or scaling by one gives p itself, with what p keeps
        for same in (p + 0, 0 + p, p - 0, p * 1, 1 * p):
            assert same is p
        if k:
            assert model(p / k) == o_scale(mp, 1 / k)
        assert model(p ** 2) == o_mul(mp, mp)
        assert model(p.dx()) == o_dx(mp)
        for alpha, n in sorted(p.variables()):
            assert model(p.partial(alpha, n)) == o_partial(mp, alpha, n)
        for alpha in (1, 2):
            assert model(p.var_deriv(alpha)) == o_t_op(mp, alpha, 0)
            for kk in (1, 2, 3):
                assert model(p.t_op(alpha, kk)) == o_t_op(mp, alpha, kk)
        assert p.constant_term() == mp.get((), 0)
        for mono, c in mp.items():
            term = JetPoly({mono: c})
            if all(n > 0 for _, n, _ in mono):
                inv = {tuple((a, n, -e) for a, n, e in mono): 1 / c}
                assert model(term ** -2) == o_mul(inv, inv)


def random_series(rng, trunc):
    """Fractional-coefficient series with some hbar parts zero."""
    return HbarSeries(trunc, [rational_jetpoly(rng) if rng.random() < 0.7 else JetPoly.zero()
                              for _ in range(trunc + 1)])


def test_series_arithmetic_against_oracle():
    rng = random.Random(59)
    for _ in range(40):
        s, t = random_series(rng, rng.randint(0, 3)), random_series(rng, rng.randint(0, 3))
        ms, mt = [model(c) for c in s.coeffs], [model(c) for c in t.coeffs]
        h = min(s.trunc, t.trunc)
        for got, want in ((s * t, o_series_mul(ms[: h + 1], mt[: h + 1])),
                          (t * s, o_series_mul(mt[: h + 1], ms[: h + 1])),
                          (s + t, [o_add(a, b) for a, b in zip(ms, mt)]),
                          (s - t, [o_add(a, o_scale(b, -1)) for a, b in zip(ms, mt)])):
            assert got.trunc == h
            assert [model(c) for c in got.coeffs] == want
        k = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        p = rational_jetpoly(rng)
        for x, mx in ((p, model(p)), (k, o_clean({(): k})), (rng.randint(-3, 3), None)):
            if mx is None:
                mx = o_clean({(): Fraction(x)})
            lifted = [mx] + [{}] * s.trunc
            for got, want in ((s * x, [o_mul(a, mx) for a in ms]),
                              (x * s, [o_mul(mx, a) for a in ms]),
                              (s + x, [o_add(a, b) for a, b in zip(ms, lifted)]),
                              (x + s, [o_add(b, a) for a, b in zip(ms, lifted)]),
                              (s - x, [o_add(a, o_scale(b, -1)) for a, b in zip(ms, lifted)]),
                              (x - s, [o_add(b, o_scale(a, -1)) for a, b in zip(ms, lifted)])):
                assert got.trunc == s.trunc
                assert [model(c) for c in got.coeffs] == want


def partial_num(num, alpha, n):
    """The numerators of d/dw[alpha,n] by one rescan per variable: the loop
    `partial` ran before values kept their gradient."""
    out = {}
    for mono, coeff in num.items():
        for idx, (a, m, exp) in enumerate(mono):
            if a == alpha and m == n:
                if exp == 1:
                    rest = mono[:idx] + mono[idx + 1:]
                else:
                    rest = mono[:idx] + ((a, m, exp - 1),) + mono[idx + 1:]
                out[rest] = coeff * exp
                break
    return out


def rescan_partial(x, alpha, n):
    """d/dw[alpha,n] of a JetPoly or HbarSeries through `partial_num`."""
    if isinstance(x, JetPoly):
        return JetPoly({m: Fraction(c, x._den) for m, c in partial_num(x._num, alpha, n).items()})
    return HbarSeries(x.trunc, [JetPoly({m: Fraction(c, x.den) for m, c in
                                         partial_num(part, alpha, n).items()})
                                for part in x.parts])


def test_partial_matches_the_per_variable_rescan():
    rng = random.Random(67)
    for _ in range(40):
        # Laurent monomials, and absent variables of both present and new colors
        p = rational_jetpoly(rng, n_terms=rng.randint(0, 4), max_order=4)
        s = random_series(rng, rng.randint(0, 3))
        for x in (p, s, s.dx()):
            keys = sorted(x.variables()) + [(1, 6), (3, 0)]
            rng.shuffle(keys)
            for alpha, n in keys + keys:
                got, want = x.partial(alpha, n), rescan_partial(x, alpha, n)
                assert type(got) is type(want)
                if isinstance(x, JetPoly):
                    assert got._num == want._num and got._den == want._den
                else:
                    assert got.trunc == x.trunc
                    assert got.parts == want.parts and got.den == want.den
                # second partials come from the kept first partial's own gradient
                for beta, m in keys[:3]:
                    assert got.partial(beta, m) == rescan_partial(want, beta, m)


def test_gradient_is_swept_once_per_value(monkeypatch):
    sweeps = []
    sweep = jetcalc._grad_num

    def counted(parts):
        sweeps.append(parts)
        return sweep(parts)

    monkeypatch.setattr(jetcalc, "_grad_num", counted)
    rng = random.Random(71)
    for _ in range(10):
        p = rational_jetpoly(rng, max_order=4)
        s = random_series(rng, 2)
        for x in (p, s):
            del sweeps[:]
            first = {key: x.partial(*key) for key in sorted(x.variables())}
            for alpha in (1, 2):
                x.var_deriv(alpha)
                for k in range(4):
                    x.t_op(alpha, k)
            evolve(x, {1: w(0), 2: w(1)})
            assert all(x.partial(*key) is got for key, got in first.items())
            assert len(sweeps) == 1
            x.partial(5, 0)  # an absent variable reads the kept gradient too
            assert len(sweeps) == 1


@pytest.mark.parametrize("k", range(-1, 5))
def test_horner_t_op_matches_the_binomial_sum(k):
    rng = random.Random(73 + k)
    for _ in range(20):
        p = rational_jetpoly(rng, n_terms=rng.randint(1, 4), max_order=5)
        s = random_series(rng, rng.randint(0, 2))
        for alpha in (1, 2, 3):
            want = o_t_op(model(p), alpha, k) if k >= 0 else {}
            got = p.t_op(alpha, k)
            assert type(got) is JetPoly and model(got) == want
            got = s.t_op(alpha, k)
            assert type(got) is HbarSeries and got.trunc == s.trunc
            assert [model(c) for c in got.coeffs] == [
                o_t_op(model(c), alpha, k) if k >= 0 else {} for c in s.coeffs]


def test_integrate_against_oracle():
    rng = random.Random(43)
    for _ in range(30):
        p = rational_jetpoly(rng)
        p = p - JetPoly.const(p.constant_term())
        q = formal_integrate(dx(p))
        assert o_dx(model(q)) == model(dx(p))
        assert () not in model(q)


def test_substitution_against_oracle():
    rng = random.Random(47)
    h = 2
    for _ in range(12):
        # hbar^0 part a fractional multiple of w[a,0], so every prolonged
        # image is invertible and Laurent monomials substitute
        images = {a: HbarSeries(h, [JetPoly.var(a, 0) * Fraction(rng.randint(1, 5), rng.randint(1, 5))]
                                + [rational_jetpoly(rng, n_terms=2) for _ in range(h)])
                  for a in (1, 2)}
        oracle_images = {a: [model(c) for c in s.coeffs] for a, s in images.items()}
        p = rational_jetpoly(rng, n_terms=4)
        got = substitute(p, images, h)
        assert [model(c) for c in got.coeffs] == o_substitute([model(p)], oracle_images, h)
        s = HbarSeries(h, [p, rational_jetpoly(rng), rational_jetpoly(rng)])
        got = substitute(s, images, h)
        assert [model(c) for c in got.coeffs] == o_substitute(
            [model(c) for c in s.coeffs], oracle_images, h)


def test_equal_values_built_differently_are_equal_and_hash_equal():
    rng = random.Random(53)
    for _ in range(30):
        p, q, r = (rational_jetpoly(rng) for _ in range(3))
        pairs = [((p * q) * r, p * (q * r)),
                 ((p + q) - q, p),
                 (p * Fraction(2, 3) * Fraction(3, 2), p),
                 ((p + q) * r, p * r + q * r),
                 (p.dx() + q.dx(), (p + q).dx()),
                 (JetPoly(dict(p.terms())), p)]
        for a, b in pairs:
            model(a)
            model(b)
            assert a == b
            assert hash(a) == hash(b)
    assert JetPoly.const(Fraction(4, 2)) == 2 and hash(JetPoly.const(2)) == hash(2 * JetPoly.const(1))


def test_constant_hashes_as_its_fraction():
    # JetPoly.const(2) == 2, so both must hash alike for sets and dicts
    assert JetPoly.const(2) == 2 and hash(JetPoly.const(2)) == hash(2)
    assert len({JetPoly.const(2), 2}) == 1
    assert {JetPoly.const(Fraction(1, 3)): 1}[Fraction(1, 3)] == 1
    assert len({JetPoly.zero(), 0, Fraction(0)}) == 1
    assert hash(w(0) + 2) != hash(JetPoly.const(2))  # not a constant


# ---------------------------------------------------------------------------
# the series store against a coefficient-wise JetPoly oracle
# ---------------------------------------------------------------------------

class Coeffwise:
    """A truncated series as a list of trunc+1 JetPoly coefficients, with
    every operation done coefficient by coefficient."""

    def __init__(self, cs):
        self.cs = list(cs)

    @property
    def trunc(self):
        return len(self.cs) - 1

    @staticmethod
    def of(s):
        return Coeffwise(fresh(c) for c in s.coeffs)

    def add(self, o, sign=1):
        return Coeffwise(x + sign * y for x, y in zip(self.cs, o.cs))

    def mul(self, o):
        h = min(self.trunc, o.trunc)
        return Coeffwise(sum((self.cs[i] * o.cs[g - i] for i in range(g + 1)), JetPoly.zero())
                         for g in range(h + 1))

    def each(self, f):
        return Coeffwise(f(c) for c in self.cs)

    def shift(self, k):
        return Coeffwise(([JetPoly.zero()] * k + self.cs)[: self.trunc + 1])

    def eq(self, o):
        return all(x == y for x, y in zip(self.cs, o.cs))


def store(s):
    """The list of coefficients of s, after checking its storage is
    canonical: trunc+1 numerator dicts of nonzero ints, over an int den >= 1
    with gcd(den, every numerator) == 1, and the storage a series built from
    those coefficients has."""
    assert type(s.parts) is tuple and len(s.parts) == s.trunc + 1
    assert type(s.den) is int and s.den >= 1
    nums = [c for part in s.parts for c in part.values()]
    assert all(type(c) is int and c != 0 for c in nums)
    assert math.gcd(s.den, *nums) == 1
    cs = [JetPoly({m: Fraction(c, s.den) for m, c in part.items()}) for part in s.parts]
    again = HbarSeries(s.trunc, cs)
    assert again.parts == s.parts and again.den == s.den
    assert list(s.coeffs) == cs
    return cs


def mixed_series(rng, trunc):
    """Fractional Laurent coefficients, some parts zero, sometimes all of them,
    and sometimes a shared factor that cancels against the denominator."""
    if rng.random() < 0.1:
        return HbarSeries.zero(trunc)
    cs = [rational_jetpoly(rng, n_terms=rng.randint(1, 3)) if rng.random() < 0.6
          else JetPoly.zero() for _ in range(trunc + 1)]
    if rng.random() < 0.3:
        cs = [c * Fraction(rng.choice((2, 6, 12)), rng.randint(1, 3)) for c in cs]
    return HbarSeries(trunc, cs)


def test_series_store_against_coefficientwise_oracle():
    rng = random.Random(61)
    for _ in range(150):
        s = mixed_series(rng, rng.randint(0, 3))
        t = mixed_series(rng, rng.randint(0, 3))
        os_, ot = Coeffwise(store(s)), Coeffwise(store(t))
        p = rational_jetpoly(rng) if rng.random() < 0.8 else JetPoly.zero()
        k = rng.choice((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 5)))
        lifted = Coeffwise([p] + [JetPoly.zero()] * s.trunc)
        const = Coeffwise([JetPoly.const(k)] + [JetPoly.zero()] * s.trunc)
        checks = [
            (s + t, os_.add(ot)), (s - t, os_.add(ot, -1)), (-s, os_.each(lambda c: -c)),
            (s * t, os_.mul(ot)), (t * s, ot.mul(os_)),
            (s * p, os_.each(lambda c: c * p)), (p * s, os_.each(lambda c: p * c)),
            (s + p, os_.add(lifted)), (p - s, lifted.add(os_, -1)),
            (s * k, os_.each(lambda c: c * k)), (k * s, os_.each(lambda c: k * c)),
            (s + k, os_.add(const)), (k - s, const.add(os_, -1)),
            (s.dx(), os_.each(JetPoly.dx)), (s.dx_pow(2), os_.each(lambda c: c.dx_pow(2))),
        ]
        if k:
            checks.append((s / k, os_.each(lambda c: c / k)))
        for alpha, n in sorted(s.variables()) + [(2, 5)]:
            checks.append((s.partial(alpha, n), os_.each(lambda c: c.partial(alpha, n))))
        for alpha in (1, 2):
            for kk in (-1, 0, 1, 2):
                checks.append((s.t_op(alpha, kk), os_.each(lambda c: c.t_op(alpha, kk))))
            checks.append((s.var_deriv(alpha), os_.each(lambda c: c.var_deriv(alpha))))
        for kk in range(s.trunc + 2):
            shifted = Sum()
            shifted.add(s, shift=kk)
            checks.append((shifted.value().truncate(s.trunc), os_.shift(kk)))
        for h in range(s.trunc + 1):
            checks.append((s.truncate(h), Coeffwise(os_.cs[: h + 1])))
        if len(s.parts[0]) == 1 and all(n for _, n, _ in next(iter(s.parts[0]))):
            inv = s.inverse()
            checks.append((inv * s, Coeffwise([JetPoly.const(1)] + [JetPoly.zero()] * s.trunc)))
        for got, want in checks:
            assert got.trunc == want.trunc
            assert store(got) == want.cs
        # equality within the smaller truncation, truth, sizes and variables
        assert (s == t) == os_.eq(ot) == (t == s)
        assert (s == p) == os_.eq(lifted) and (s == k) == os_.eq(const)
        assert bool(s) == any(os_.cs) and s.is_zero() == (not any(os_.cs))
        assert s.num_terms() == sum(c.num_terms() for c in os_.cs)
        assert s.variables() == set().union(*(c.variables() for c in os_.cs))
        assert [c.is_polynomial() for c in s.coeffs] == [c.is_polynomial() for c in os_.cs]
        assert s.gradings() == [(g, c.is_polynomial(), degrees(c))
                                for g, c in enumerate(os_.cs) if c]
        u = HbarSeries(2, [rational_jetpoly(rng, colors=1) for _ in range(2)])
        assert store(u.recolor(3)) == [recolor(c, 3) for c in store(u)]
        # the operands are values: no operation changed them
        assert store(s) == os_.cs and store(t) == ot.cs


# ---------------------------------------------------------------------------
# Sum against the coefficient-wise JetPoly oracle
# ---------------------------------------------------------------------------

def sum_operand(rng, polys):
    """A JetPoly or, unless polys, as often a series of truncation 0-3; now
    and then zero or a constant of its kind, whose monomial is ()."""
    series = not polys and rng.random() < 0.6
    trunc = rng.randint(0, 3)
    r = rng.random()
    if r < 0.12:
        return HbarSeries.zero(trunc) if series else JetPoly.zero()
    if r < 0.24:
        c = Fraction(rng.choice((-3, 1, 2, 5)), rng.choice((1, 2, 3)))
        return HbarSeries.const(c, trunc) if series else JetPoly.const(c)
    return mixed_series(rng, trunc) if series else rational_jetpoly(rng)


def oracle_of(x):
    """(trunc, coefficients) of a Sum operand; a JetPoly or a scalar is known
    to every hbar order (trunc None) and has one coefficient."""
    if type(x) is HbarSeries:
        return x.trunc, Coeffwise.of(x).cs
    return None, [x if type(x) is JetPoly else JetPoly.const(x)]


def oracle_term(operands, k, shift):
    """(trunc, coefficients) of k * product(operands) * hbar^shift, each
    coefficient a chain of JetPoly operations."""
    (t, cs), *rest = map(oracle_of, operands)
    for tb, cb in rest:
        t = tb if t is None else t if tb is None else min(t, tb)
        n = 1 if t is None else t + 1
        ca, cb = (c + [JetPoly.zero()] * (n - len(c)) for c in (cs, cb))
        cs = [sum((ca[i] * cb[g - i] for i in range(g + 1)), JetPoly.zero()) for g in range(n)]
    return (None if t is None else t + shift), [JetPoly.zero()] * shift + [k * c for c in cs]


def integral(x):
    """x times its denominator: integer numerators over denominator 1."""
    return x * (x.den if type(x) is HbarSeries else x._den)


def sum_term(rng, polys, start):
    """One seeded term: (method, args, oracle term).  Series terms have
    truncations 0-3 and shifts 0-2; a factor k is an int, 0 included, or a
    Fraction, and add_product's first operand is sometimes a scalar.

    `start` forces the first terms of a chain.  "kept" adds a value with
    k = 1 and no shift, which the sum keeps whole, and "kept1" one over
    denominator 1.  After "kept1", "spill" gives a Fraction factor, whose
    denominator does not divide the running one; after "kept", "whole" gives
    an int factor on operands over denominator 1, which divides it."""
    if start in ("kept", "kept1"):
        x = sum_operand(rng, polys)
        x = integral(x) if start == "kept1" else x
        return "add", (x,), oracle_term((x,), 1, 0)
    k = rng.choice((1, 1, -1, 3, 0, Fraction(1, 2), Fraction(-5, 6), Fraction(4, 3)))
    if start == "spill":
        k = Fraction(rng.choice((1, -1, 5)), rng.choice((2, 3, 7)))
    elif start == "whole":
        k = rng.choice((-1, 2, 3))
    shift = 0 if polys else rng.choice((0, 0, 1, 2))
    if rng.random() < 0.4:
        a = sum_operand(rng, polys)
        a = integral(a) if start == "whole" else a
        return "add", (a, k, shift), oracle_term((a,), k, shift)
    a = (rng.choice((2, -1, Fraction(3, 4))) if rng.random() < 0.1 and start is None
         else sum_operand(rng, polys))
    b = sum_operand(rng, polys)
    if start == "whole":
        a, b = integral(a), integral(b)
    return "add_product", (a, b, k, shift), oracle_term((a, b), k, shift)


@pytest.mark.parametrize("seed", range(90))
def test_sum_matches_the_coefficientwise_chain(seed):
    # mixed denominators, unequal truncations, shifts and factors, zero and
    # constant operands, JetPoly and series terms in one sum; the sum
    # truncates at its least term truncation, hbar^shift counted, and is a
    # JetPoly while every term is one
    rng = random.Random(seed)
    polys = seed % 4 == 0
    starts = [(), ("kept1", "spill"), ("kept", "whole")][seed % 3]
    acc, terms = Sum(), []
    for n in range(rng.randint(len(starts) or 1, 6)):
        method, args, term = sum_term(rng, polys, starts[n] if n < len(starts) else None)
        getattr(acc, method)(*args)
        terms.append(term)
    got = acc.value()
    truncs = [t for t, _ in terms if t is not None]
    if not truncs:
        want = sum((cs[0] for _, cs in terms), JetPoly.zero())
        assert type(got) is JetPoly and (got._num, got._den) == (want._num, want._den)
        return
    h = min(truncs)
    cs = [sum((c[g] for _, c in terms if g < len(c)), JetPoly.zero()) for g in range(h + 1)]
    assert type(got) is HbarSeries and got.trunc == h and store(got) == cs
    oracle = HbarSeries(h, cs)
    assert (got.parts, got.den) == (oracle.parts, oracle.den)


def test_sum_cancels_to_the_canonical_zero():
    rng = random.Random(5)
    for trunc in range(3):
        a, b = mixed_series(rng, trunc), mixed_series(rng, trunc)
        acc = Sum()
        acc.add_product(a, b, Fraction(2, 3), 1)
        acc.add_product(b, a, Fraction(-2, 3), 1)
        got = acc.value()
        assert got.trunc == trunc + 1 and not got and got.den == 1
    p = rational_jetpoly(rng)
    acc = Sum()
    acc.add(p, Fraction(1, 7))
    acc.add_product(p, JetPoly.const(Fraction(-1, 7)))
    assert acc.value() is JetPoly.zero()


def test_sum_rescales_when_a_denominator_grows():
    acc = Sum()
    acc.add(w(0))                          # kept whole
    acc.add(w(1), Fraction(1, 2))          # den 2
    acc.add_product(w(0), w(1) / 3)        # den 6
    acc.add(w(0), 5)                       # den 6 divides: no rescale
    acc.add_product(w(1) / 2, JetPoly.const(Fraction(-5, 2)))  # den 12
    got = acc.value()
    assert got == 6 * w(0) + Fraction(1, 2) * w(1) + w(0) * w(1) / 3 - Fraction(5, 4) * w(1)
    assert (got._num, got._den) == ({((1, 0, 1),): 72, ((1, 1, 1),): -9,
                                     ((1, 0, 1), (1, 1, 1)): 4}, 12)


def test_sum_of_one_value_is_that_value():
    # the value keeps the x-derivatives it has computed
    s = HbarSeries(2, [w(0), w(1) / 2])
    s.dx()
    for start in ((), (HbarSeries.zero(2),), (HbarSeries.zero(3), JetPoly.zero())):
        acc = Sum()
        for zero in start:
            acc.add(zero)
        acc.add(s)
        assert acc.value() is s
    acc = Sum()
    acc.add(HbarSeries.zero(1))
    acc.add(s)
    got = acc.value()
    assert got.trunc == 1 and store(got) == [w(0), w(1) / 2]
    acc = Sum()
    acc.add(s, 0)
    acc.add(w(0))
    assert acc.value() == HbarSeries.of(w(0), 2)


def test_mul_into_skips_the_merge_for_constant_monomials(monkeypatch):
    # a constant monomial () times m is m: no merge, and cancellation still
    # drops the numerator
    merges = []
    merge = jetcalc._mono_mul

    def counted(a, b):
        merges.append((a, b))
        return merge(a, b)

    monkeypatch.setattr(jetcalc, "_mono_mul", counted)
    x, y = ((1, 0, 1),), ((1, 1, -1), (2, 0, 2))
    for dst, a, b, k, want in [
        ({}, {(): 2}, {x: 3, y: -1}, 1, {x: 6, y: -2}),    # () on the left
        ({}, {x: 3, y: -1}, {(): 2}, -1, {x: -6, y: 2}),   # () on the right
        ({(): 1}, {(): 2}, {(): 5}, 3, {(): 31}),           # () on both sides
        ({x: 6, (): 4}, {(): 2, x: 1}, {(): -2}, 1, {x: 4}),  # () cancels
        ({x: -6}, {(): 2}, {x: 3}, 1, {}),                  # cancels to zero
    ]:
        jetcalc._mul_into(dst, a, b, k)
        assert dst == want
    assert merges == []
    dst = {}
    jetcalc._mul_into(dst, {x: 1}, {y: 1}, 1)
    assert dst == {x + y: 1} and merges == [(x, y)]


def test_sum_takes_scalar_factors_without_lifting(monkeypatch):
    calls = []
    mul = jetcalc._mul_into

    def counted(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(jetcalc, "_mul_into", counted)
    s = HbarSeries(1, [w(0) / 3, w(2)])
    acc = Sum()
    acc.add_product(3, s, Fraction(1, 2))
    acc.add_product(Fraction(-1, 2), s, 2, 1)
    got = acc.value()
    assert calls == []
    assert store(got) == [w(0) / 2, Fraction(3, 2) * w(2) - w(0) / 3]
