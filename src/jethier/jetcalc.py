"""Exact calculus on differential Laurent polynomials in jet variables.

A jet variable w[alpha, n] stands for the n-th x-derivative of the alpha-th
dependent variable of a formal loop, alpha = 1..s, n >= 0.  A differential
polynomial is a finite rational-coefficient combination of monomials in the
jet variables.  Negative exponents (the Laurent sector) are permitted only
on variables of order n >= 1; dependence on the order-0 variables is always
polynomial.

Representation is sparse and exact:

  Mono       = tuple[(alpha, n, exp), ...]   sorted by (alpha, n), exp != 0
  JetPoly    = { Mono: int } / den           integer numerators over one
                                             shared denominator den >= 1
  HbarSeries = ({ Mono: int }, ...) / den    one numerator dict per hbar order
                                             g = 0..trunc (`parts`), all over
                                             one shared denominator `den`

In both, no numerator is zero and gcd(den, every numerator) == 1.  The form
is canonical, so equal values have equal storage.  Rationals appear only at
the edges: constructor input, `terms()`, `constant_term()`,
`jetpoly_to_obj`/`series_to_obj` and `render`, which all speak `Fraction`.

The loops run on numerator dicts, in module-level kernels that both value
types share: `_mul_into` (the one product loop, k*a*b added into an
accumulator in place, its factor k applied once per outer term, a constant
monomial () taken as is with no merge), `_add_into`, `_dx_num` and
`_grad_num`.  `Sum` is the one place where a sum of products is reduced:
each term k*x or k*a*b goes into numerators per hbar order over one running
denominator, and `value()` reduces to canonical form once.  Every sum and
product of values goes through it: `+`, `-` and `*` of JetPoly and
HbarSeries alike (the one `_add` and the one `_mul`, an int or Fraction
operand taken as a constant), substitution, `evolve` and
`formal_integrate`.  Negation is a sign flip, which keeps the form
canonical.  A term costs its part pairs i + j <= trunc and little else: the
truncation is updated inline, a term with no such pair stops there, and an
int factor over a denominator that divides the running one is scaled
inline.  A series has no JetPoly per part: `coeffs` builds those views on
each read.

The x-derivative and the gradient are properties of the value: `dx()` of a
JetPoly or an HbarSeries is computed once and kept by the value that owns
it, so dx^n(f) costs n derivatives once however often it is read.  The
first `partial()` sweeps f once for all its first partials (`_grad_num`)
and keeps them; each is reduced when first read, and a repeated `partial`
returns that object.  Both live exactly as long as f; equality and hashing
ignore them.  The Euler operators run by Horner's rule from the top order
down (`_t_op`), so T[xi,k] of a value of top order N takes N-k derivatives;
the loop adds the kept partials' numerators over f's denominator with
`_dx_num` and `_add_into`, and reduces once.

Beneath every derivative, each monomial's rule is derived once per process:
`_dx_rule(mono)` gives dx(mono) as the pairs (mono', exp) of its factors,
and `_dx_num` only adds coeff*exp over them.  Flows, transports,
compositions and substitutions differentiate the same few monomials over
and over: in one pass of each benchmark mix, 92-98 % of the monomials
differentiated are repeats, among 377 to 1,486 distinct ones.  The memo
keeps the 1,024 most recently used rules and no more: a long-lived process
meets ever new monomials, and a memo that kept them all would grow with
every one.

A `Substitution` keeps the powers of the prolonged images it computes.
When every image is w[alpha,0] modulo hbar, as a Miura change's are, the
hbar^trunc part of its argument passes through unchanged: that part is only
needed modulo hbar, where every prolonged jet, and each of its powers, is
the jet variable itself.

The module provides the derivations of the variational calculus:

  dx           total x-derivative (each w[a,n] -> w[a,n+1] by the chain rule)
  partial      formal partial derivative with respect to one jet variable
  t_op         higher Euler operators  T[xi,k] = sum_n C(n,k) (-dx)^(n-k) d/dw[xi,n]
  var_deriv    variational (Euler) derivative  T[xi,0] = sum_n (-dx)^n d/dw[xi,n]
  evolve       evolutionary derivation  sum_{g,n} dx^n(X_g) d/dw[g,n]

the first four as methods of JetPoly and HbarSeries, `evolve` as the one
function every flow, transport and commutator of the package goes through.
It also has the one Euler homotopy of the package (`potential`, the
potential of a closed gradient in the jets of one order, built on integer
numerators and reduced once), the formal left inverse of dx built on it
(`formal_integrate`), weighted-degree bookkeeping (deg w[a,n] = n),
truncated power series in hbar over these polynomials, substitution of
series into jet variables, and a canonical JSON form: `to_json` writes a
tree whose leaves may be JetPoly or HbarSeries values straight from their
numerators, byte for byte as `json.dumps(..., sort_keys=True,
separators=(",", ": "), indent=2)` writes the plain form that
`jetpoly_to_obj`/`series_to_obj` give.  It tests a node's exact type
before `isinstance`, values first, and formats each distinct value and
each monomial's factor block once per call and depth.

All arithmetic is exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

Mono = tuple  # tuple[tuple[int, int, int], ...]


class NotExact(ValueError):
    """No total-derivative preimage exists inside the Laurent ring."""


def rat(x) -> Fraction:
    """Coerce an int (not a bool), string like '3/4', or Fraction to an exact
    rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _validate_mono(mono: Mono) -> None:
    prev = None
    for alpha, n, exp in mono:
        if alpha < 1 or n < 0 or exp == 0:
            raise ValueError(f"bad factor {(alpha, n, exp)} in monomial")
        if exp < 0 and n == 0:
            raise ValueError(
                f"negative exponent on order-0 variable w[{alpha},0]: "
                "the Laurent sector is restricted to jets of order >= 1"
            )
        key = (alpha, n)
        if prev is not None and key <= prev:
            raise ValueError("monomial factors not strictly sorted")
        prev = key


def _mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two nonempty sorted factor tuples, adding exponents."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        fa, fb = a[i], b[j]
        # compare (alpha, n) field by field, without building key tuples
        if fa[0] == fb[0]:
            if fa[1] == fb[1]:
                e = fa[2] + fb[2]
                if e != 0:
                    out.append((fa[0], fa[1], e))
                i += 1
                j += 1
            elif fa[1] < fb[1]:
                out.append(fa)
                i += 1
            else:
                out.append(fb)
                j += 1
        elif fa[0] < fb[0]:
            out.append(fa)
            i += 1
        else:
            out.append(fb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


# ---------------------------------------------------------------------------
# kernels on numerator dicts (shared by JetPoly and HbarSeries)
# ---------------------------------------------------------------------------

def _add_into(dst: dict, src: dict, k: int) -> None:
    """dst += k*src in place, dropping numerators that cancel."""
    get = dst.get
    for mono, c in src.items():
        acc = get(mono)
        if acc is None:
            dst[mono] = c * k
        else:
            acc += c * k
            if acc:
                dst[mono] = acc
            else:
                del dst[mono]


def _mul_into(dst: dict, a: dict, b: dict, k: int) -> None:
    """dst += k*a*b in place, dropping numerators that cancel: the module's one
    product loop.  Denominators are the caller's: a*b is over den_a * den_b.
    A constant monomial () is the other one unchanged, with no merge."""
    get = dst.get
    for ma, ca in a.items():
        ca *= k
        for mb, cb in b.items():
            mono = _mono_mul(ma, mb) if ma and mb else ma or mb
            acc = get(mono)
            if acc is None:
                dst[mono] = ca * cb
            else:
                acc += ca * cb
                if acc:
                    dst[mono] = acc
                else:
                    del dst[mono]


@functools.lru_cache(maxsize=1024)
def _dx_rule(mono: Mono) -> tuple:
    """dx of one monomial as ((mono', exp), ...), one pair per factor in
    order: dx(mono) = sum exp * mono'.  Kept in a bounded memo (see the
    module docstring)."""
    rule = []
    for idx, (alpha, n, exp) in enumerate(mono):
        head = mono[:idx] if exp == 1 else mono[:idx] + ((alpha, n, exp - 1),)
        # w[alpha,n+1] sorts right after w[alpha,n]: bump it if present
        nxt = mono[idx + 1] if idx + 1 < len(mono) else None
        if nxt is not None and nxt[0] == alpha and nxt[1] == n + 1:
            e = nxt[2] + 1
            tail = (((alpha, n + 1, e),) if e else ()) + mono[idx + 2:]
        else:
            tail = ((alpha, n + 1, 1),) + mono[idx + 1:]
        rule.append((head + tail, exp))
    return tuple(rule)


def _dx_num(num: dict) -> dict:
    """Numerators of the total x-derivative, over the same denominator."""
    out: dict[Mono, int] = {}
    get = out.get
    for mono, coeff in num.items():
        for new, exp in _dx_rule(mono):
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


def _grad_num(parts) -> dict:
    """Numerators of every first partial of a value, in one sweep over its
    parts: {(alpha, n): [numerators of d/dw[alpha,n] of each part]}, over the
    value's denominator.  Only variables that occur get a key."""
    out: dict = {}
    get = out.get
    count = len(parts)
    for g, num in enumerate(parts):
        for mono, coeff in num.items():
            for idx, (a, m, exp) in enumerate(mono):
                if exp == 1:
                    rest = mono[:idx] + mono[idx + 1:]
                else:
                    rest = mono[:idx] + ((a, m, exp - 1),) + mono[idx + 1:]
                nums = get((a, m))
                if nums is None:
                    nums = out[(a, m)] = [{} for _ in range(count)]
                # lowering one exponent is injective: no two terms meet
                nums[g][rest] = coeff * exp
    return out


def _recolor(num: dict, color: int) -> dict:
    return {tuple((color, n, e) for _, n, e in mono): c for mono, c in num.items()}


def _gradient(f) -> dict:
    """The first partials f keeps, swept by `_grad_num` on the first call:
    {(alpha, n): the numerator list, or the value once it has been read}."""
    grad = f._grad
    if grad is None:
        grad = f._grad = _grad_num((f._num,) if type(f) is JetPoly else f.parts)
    return grad


def _t_op(f, alpha: int, k: int):
    """T[alpha,k](f) = sum_n C(n,k) (-dx)^(n-k) df/dw[alpha,n] for a JetPoly or
    HbarSeries f; zero for k < 0.

    By Horner's rule from the top order N of alpha in f down to k,

        acc = (-1)^(n-k) C(n,k) df/dw[alpha,n] + dx(acc),

    which takes N-k derivatives where the sum takes sum_n (n-k).  The loop
    runs on numerators over f's denominator: the partials' numerator lists
    that `_gradient` keeps, or, for a partial already read and kept reduced,
    its numerators scaled back to that denominator.  The result is reduced
    once, at the end."""
    grad = _gradient(f)
    top = max((m for a, m in grad if a == alpha), default=-1)
    if not 0 <= k <= top:
        out = Sum()
        out.add(f, 0)  # the zero of f's type and truncation
        return out.value()
    jet = type(f) is JetPoly
    den = f._den if jet else f.den
    acc = None
    for n in range(top, k - 1, -1):
        c = -math.comb(n, k) if (n - k) % 2 else math.comb(n, k)
        if acc is not None:
            acc = [_dx_num(part) for part in acc]
        got = grad.get((alpha, n))
        if got is None:
            continue
        if type(got) is not list:  # a partial already read: back over den
            c *= den // (got._den if jet else got.den)
            got = (got._num,) if jet else got.parts
        if acc is None:
            acc = [{m: v * c for m, v in part.items()} for part in got]
        else:
            for dst, part in zip(acc, got):
                _add_into(dst, part, c)
    return JetPoly._reduced(acc[0], den) if jet else HbarSeries._reduced(f.trunc, tuple(acc), den)


class JetPoly:
    """Immutable exact-rational Laurent differential polynomial.

    Integer numerators `_num` over one denominator `_den`, in the canonical
    form of the module docstring; every operation returns that form.  `_dx`
    keeps the x-derivative once `dx()` has computed it, `_grad` the first
    partials once `partial()` has swept them.
    """

    __slots__ = ("_num", "_den", "_dx", "_grad")

    def __init__(self, terms: dict):
        coeffs: dict[Mono, Fraction] = {}
        for mono, coeff in terms.items():
            c = rat(coeff)
            if c == 0:
                continue
            _validate_mono(mono)
            coeffs[mono] = c
        # with den the lcm of reduced denominators, gcd(den, *numerators) == 1
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self._num = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        self._den = den
        self._dx = None
        self._grad = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "JetPoly":
        return _ZERO

    @staticmethod
    def const(c) -> "JetPoly":
        c = rat(c)
        if c == 0:
            return _ZERO
        return JetPoly._raw({(): c.numerator}, c.denominator)

    @staticmethod
    def var(alpha: int, n: int, exp: int = 1) -> "JetPoly":
        if exp == 0:
            return JetPoly.const(1)
        mono = ((alpha, n, exp),)
        _validate_mono(mono)
        return JetPoly._raw({mono: 1}, 1)

    @staticmethod
    def _raw(num: dict, den: int) -> "JetPoly":
        """Internal: wrap numerators already in canonical form, without checks."""
        p = JetPoly.__new__(JetPoly)
        p._num = num
        p._den = den
        p._dx = None
        p._grad = None
        return p

    @staticmethod
    def _reduced(num: dict, den: int) -> "JetPoly":
        """Internal: the JetPoly num/den for nonzero numerators over den >= 1,
        sharing num when it is already canonical and else dividing out their
        common factor with den into a new dict."""
        if not num:
            return _ZERO
        g = math.gcd(den, *num.values()) if den != 1 else 1
        return JetPoly._raw(num if g == 1 else {m: c // g for m, c in num.items()}, den // g)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def terms(self) -> Iterator[tuple[Mono, Fraction]]:
        """Iterate (monomial, coefficient) in the canonical order."""
        den = self._den
        return ((mono, Fraction(c, den)) for mono, c in sorted(self._num.items()))

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((), 0), self._den)

    def variables(self) -> set[tuple[int, int]]:
        """All (alpha, n) pairs occurring in some monomial: the keys of the
        kept gradient, which callers read next."""
        return set(_gradient(self))

    def max_order(self) -> int:
        """Largest jet order present; -1 for a constant or zero polynomial."""
        best = -1
        for mono in self._num:
            for _, n, _ in mono:
                if n > best:
                    best = n
        return best

    def is_polynomial(self) -> bool:
        """True iff no negative exponent occurs (no Laurent sector)."""
        return all(exp > 0 for mono in self._num for _, _, exp in mono)

    def num_terms(self) -> int:
        return len(self._num)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return JetPoly._raw({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        return _add(self, other, -1)

    def __rsub__(self, other):
        return _add(other, self, -1)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Fraction(1, x) takes rationals only: a str or a float raises TypeError
        return self * Fraction(1, other)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return JetPoly.const(1)
        if len(self._num) == 1:  # a monomial: scale its exponents and coefficient
            (mono, c), = self._num.items()
            return JetPoly({tuple((a, n, e * k) for a, n, e in mono): Fraction(c, self._den) ** k})
        if k < 0:
            raise ValueError("negative power of a non-monomial polynomial")
        half = self ** (k // 2)  # square and multiply
        return half * half * self if k % 2 else half * half

    def __eq__(self, other):
        if type(other) is not JetPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = JetPoly.const(other)
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant equals its Fraction (see __eq__), so it hashes as one
        if not self._num or (len(self._num) == 1 and () in self._num):
            return hash(self.constant_term())
        return hash((frozenset(self._num.items()), self._den))

    def __repr__(self):
        return f"JetPoly({render(self)})"

    # -- derivations --------------------------------------------------

    def dx(self) -> "JetPoly":
        """Total x-derivative: chain rule, each w[a,n] -> w[a,n+1].

        Computed on the first call and kept; later calls return that object.
        """
        got = self._dx
        if got is None:
            got = self._dx = JetPoly._reduced(_dx_num(self._num), self._den)
        return got

    def dx_pow(self, k: int):
        """Apply dx k times, along the kept derivatives."""
        p = self
        for _ in range(k):
            p = p.dx()
        return p

    def partial(self, alpha: int, n: int) -> "JetPoly":
        """Formal partial derivative with respect to w[alpha, n].

        The first call sweeps every first partial at once and keeps them;
        each is reduced on its first read, and later calls return that object.
        """
        got = _gradient(self).get((alpha, n))
        if got is None:
            return _ZERO
        if type(got) is list:
            got = self._grad[(alpha, n)] = JetPoly._reduced(got[0], self._den)
        return got

    def var_deriv(self, alpha: int) -> "JetPoly":
        """Variational derivative  sum_n (-dx)^n  d/dw[alpha,n] = T[alpha,0]."""
        return self.t_op(alpha, 0)

    def t_op(self, alpha: int, k: int) -> "JetPoly":
        """Higher Euler operator T[alpha,k]; zero for k < 0, T[.,0] = var_deriv."""
        return _t_op(self, alpha, k)


_ZERO = JetPoly._raw({}, 1)


# ---------------------------------------------------------------------------
# module-level operation names (work on JetPoly and HbarSeries alike)
# ---------------------------------------------------------------------------

def dx(p):
    return p.dx()


def evolve(f, fields: dict):
    """Evolutionary derivation  sum_{g,n} dx^n(fields[g]) * df/dw[g,n].

    `fields` maps colors to the flow of each; colors it omits do not move.
    Works on JetPoly and HbarSeries alike, in `f` and in the fields.
    """
    out = Sum()
    out.add(f, 0)
    for g, n in sorted(_gradient(f)):
        if g in fields:
            jet = fields[g].dx_pow(n)
            if jet:
                out.add_product(f.partial(g, n), jet)
    return out.value()


def potential(grads: dict, n: int) -> JetPoly:
    """Euler homotopy: a potential psi with d psi / d w[g,n] = grads[g].

    Sums  w[g,n] * grads[g]  and divides each monomial by its degree in the
    order-n jets: numerators over the sum's denominator times the lcm of the
    degrees, reduced once.  The gradient must be closed, which the caller
    checks; a monomial of degree 0 would need a logarithm and raises NotExact.
    """
    euler = Sum()
    for g, grad in grads.items():
        euler.add_product(JetPoly.var(g, n), grad)
    value = euler.value()
    degs = {mono: sum(e for _, m, e in mono if m == n) for mono in value._num}
    if 0 in degs.values():
        raise NotExact("potential needs a logarithm or is not closed")
    lcm = math.lcm(*set(degs.values()))
    return JetPoly._reduced({mono: c * (lcm // degs[mono]) for mono, c in value._num.items()},
                            value._den * lcm)


def formal_integrate(p: JetPoly) -> JetPoly:
    """Formal left inverse of dx, normalized with no pure constant term.

    Works slice by slice: the top-order jets of an exact polynomial occur
    linearly, and their coefficients form a gradient in the next-lower
    slice, whose `potential` the step subtracts.  Each pass strictly lowers
    the top jet order, so the loop ends.  The result q is verified to satisfy
    dx(q) == p, which is the certificate; failure of any step raises
    NotExact.  Inputs whose preimage would need a logarithm (d log sectors
    such as w[1,2]/w[1,1]) are rejected the same way.
    """
    if isinstance(p, HbarSeries):
        return HbarSeries(p.trunc, [formal_integrate(c) for c in p.coeffs])
    if p.constant_term() != 0:
        raise NotExact("nonzero constant term has no dx-preimage")
    psis = Sum()
    rem = p
    while rem:
        top = rem.max_order()
        if top < 1:
            raise NotExact("residue depends on order-0 variables only")
        # linear coefficients of the top slice, one per color present
        grads = {}
        for alpha in sorted({a for a, n in rem.variables() if n == top}):
            coeff = rem.partial(alpha, top)
            if coeff.max_order() >= top:
                raise NotExact("top jet slice occurs nonlinearly")
            grads[alpha] = coeff
        psi = potential(grads, top - 1)
        new_rem = rem - psi.dx()
        if any(n >= top for _, n in new_rem.variables()):
            raise NotExact("top slice is not a gradient")
        psis.add(psi)
        rem = new_rem
    result = psis.value()
    if result.dx() != p:
        raise NotExact("reconstruction failed verification")
    return result


# ---------------------------------------------------------------------------
# truncated series in hbar
# ---------------------------------------------------------------------------

class HbarSeries:
    """Truncated formal series in hbar with differential-polynomial coefficients.

    `parts[g]` holds the integer numerators of the hbar^g coefficient,
    g = 0..trunc, all over the one denominator `den`, in the canonical form
    of the module docstring; every operation returns that form.  Arithmetic
    never silently exceeds the truncation order: sums and products truncate
    at the minimum of the operand truncations, and `truncate` only lowers
    it.  Like a JetPoly, a series keeps its x-derivative in `_dx` once
    `dx()` has computed it, and its first partials in `_grad`.
    """

    __slots__ = ("trunc", "parts", "den", "_dx", "_grad")

    def __init__(self, trunc: int, coeffs: Sequence[JetPoly] = ()):
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        cs = list(coeffs)[: trunc + 1]
        cs += [_ZERO] * (trunc + 1 - len(cs))
        # canonical JetPolys over the lcm of their denominators stay canonical
        den = math.lcm(*[c._den for c in cs])
        self.trunc = trunc
        self.parts = tuple([c._num if c._den == den else
                            {m: v * (den // c._den) for m, v in c._num.items()} for c in cs])
        self.den = den
        self._dx = None
        self._grad = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def _raw(trunc: int, parts: tuple, den: int) -> "HbarSeries":
        """Internal: wrap trunc+1 numerator dicts already in canonical form."""
        s = HbarSeries.__new__(HbarSeries)
        s.trunc = trunc
        s.parts = parts
        s.den = den
        s._dx = None
        s._grad = None
        return s

    @staticmethod
    def _reduced(trunc: int, parts: tuple, den: int) -> "HbarSeries":
        """Internal: wrap trunc+1 numerator dicts over den >= 1, dividing out
        their common factor with den.  The dicts may be shared with other
        values, so a reduction builds new ones."""
        if den != 1:
            g = den
            for part in parts:
                if part:
                    g = math.gcd(g, *part.values())
                    if g == 1:
                        break
            if g != 1:  # an all-zero series reduces to den 1
                den //= g
                parts = tuple([{m: c // g for m, c in part.items()} if part else part
                               for part in parts])
        return HbarSeries._raw(trunc, parts, den)

    @staticmethod
    def zero(trunc: int) -> "HbarSeries":
        return HbarSeries._raw(trunc, ({},) * (trunc + 1), 1)

    @staticmethod
    def const(c, trunc: int) -> "HbarSeries":
        c = rat(c)
        if c == 0:
            return HbarSeries.zero(trunc)
        return HbarSeries._raw(trunc, ({(): c.numerator},) + ({},) * trunc, c.denominator)

    @staticmethod
    def of(p: JetPoly, trunc: int) -> "HbarSeries":
        return HbarSeries._raw(trunc, (p._num,) + ({},) * trunc, p._den)

    @staticmethod
    def var(alpha: int, n: int, trunc: int) -> "HbarSeries":
        return HbarSeries.of(JetPoly.var(alpha, n), trunc)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.parts)

    def __bool__(self) -> bool:
        return any(self.parts)

    @property
    def coeffs(self) -> tuple:
        """The hbar^g coefficients as JetPolys, built on each read."""
        return tuple([JetPoly._reduced(part, self.den) for part in self.parts])

    def num_terms(self) -> int:
        return sum(map(len, self.parts))

    def variables(self) -> set[tuple[int, int]]:
        return set(_gradient(self))

    def gradings(self) -> list:
        """(g, polynomial?, weighted degrees) of every nonzero hbar^g part."""
        out = []
        for g, part in enumerate(self.parts):
            if part:
                degrees, polynomial = set(), True
                for mono in part:
                    deg = 0
                    for _, n, exp in mono:
                        deg += n * exp
                        if exp < 0:
                            polynomial = False
                    degrees.add(deg)
                out.append((g, polynomial, degrees))
        return out

    def recolor(self, color: int) -> "HbarSeries":
        """Every factor relabelled to `color`, for a series in one color only
        (so that the relabelled monomials stay sorted and distinct)."""
        return HbarSeries._raw(self.trunc, tuple([_recolor(part, color) for part in self.parts]),
                               self.den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return HbarSeries._raw(self.trunc, tuple([{m: -c for m, c in part.items()}
                                                  for part in self.parts]), self.den)

    def __sub__(self, other):
        return _add(self, other, -1)

    def __rsub__(self, other):
        return _add(other, self, -1)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    __truediv__ = JetPoly.__truediv__

    def truncate(self, trunc: int) -> "HbarSeries":
        """The series modulo hbar^(trunc+1), for trunc <= self.trunc: a series
        known to hbar^self.trunc says nothing about higher orders."""
        if trunc == self.trunc:
            return self
        if not 0 <= trunc < self.trunc:
            raise ValueError(f"cannot truncate a series known to hbar^{self.trunc} "
                             f"at hbar^{trunc}")
        wrap = HbarSeries._reduced if any(self.parts[trunc + 1:]) else HbarSeries._raw
        return wrap(trunc, self.parts[: trunc + 1], self.den)

    def inverse(self) -> "HbarSeries":
        """Multiplicative inverse; the hbar^0 part must be a single monomial."""
        if len(self.parts[0]) != 1:
            raise ValueError("inverse needs a single-monomial leading coefficient")
        lead = JetPoly._reduced(self.parts[0], self.den)
        lead_inv = lead ** (-1)
        # (m + r)^-1 = m^-1 sum_k (-r m^-1)^k   with r the hbar-positive tail
        tail = (self - lead) * -lead_inv
        out, power = Sum(), HbarSeries.const(1, self.trunc)
        while power:  # tail^k vanishes beyond k = trunc
            out.add_product(power, lead_inv)
            power = power * tail
        return out.value()

    def __eq__(self, other):
        if type(other) is not HbarSeries:
            if isinstance(other, (int, Fraction)):
                other = JetPoly.const(other)
            if type(other) is not JetPoly:
                return NotImplemented
            other = HbarSeries.of(other, self.trunc)
        a, o = self, other
        if a.trunc != o.trunc:  # compare within the smaller truncation
            h = min(a.trunc, o.trunc)
            a, o = a.truncate(h), o.truncate(h)
        return a.den == o.den and a.parts == o.parts

    def __repr__(self):
        return f"HbarSeries({render_series(self)})"

    # -- derivations (part by part) ------------------------------------

    def dx(self) -> "HbarSeries":
        """x-derivative of every coefficient, computed on the first call and kept."""
        got = self._dx
        if got is None:
            got = self._dx = HbarSeries._reduced(
                self.trunc, tuple([_dx_num(part) if part else part for part in self.parts]),
                self.den)
        return got

    dx_pow = JetPoly.dx_pow

    def partial(self, alpha: int, n: int) -> "HbarSeries":
        """Formal partial derivative of every coefficient, kept like a
        JetPoly's (`JetPoly.partial`)."""
        got = _gradient(self).get((alpha, n))
        if got is None:
            return HbarSeries.zero(self.trunc)
        if type(got) is list:
            got = self._grad[(alpha, n)] = HbarSeries._reduced(self.trunc, tuple(got), self.den)
        return got

    def var_deriv(self, alpha: int) -> "HbarSeries":
        return self.t_op(alpha, 0)

    def t_op(self, alpha: int, k: int) -> "HbarSeries":
        return _t_op(self, alpha, k)


# ---------------------------------------------------------------------------
# sums of products
# ---------------------------------------------------------------------------

class Sum:
    """A sum of terms k*x*hbar^shift (`add`) and k*a*b*hbar^shift
    (`add_product`) of JetPoly and HbarSeries values, reduced once by `value`.

    Terms go into integer numerators per hbar order over one running
    denominator, rescaled when a term's denominator does not divide it.  A
    factor k, and a scalar a in `add_product`, is an int or Fraction, never
    lifted to a value.  The sum truncates at the least truncation of its
    series terms, hbar^shift counted, and stays a JetPoly while every term is
    one, and so does `+` of values, which is such a sum; a term with k = 0
    counts too, so `add(f, 0)` starts at the zero of f's type and truncation.
    One value added with k = 1 and shift 0 is the sum itself, with the
    derivatives it keeps: so `p + 0` and `p * 1` are p, for p nonzero.

    A term costs its part pairs (see the module docstring); only a Fraction k,
    a new denominator, new hbar orders or a kept term to spill reach `_scale`.
    """

    __slots__ = ("_nums", "_den", "_trunc", "_one")

    def __init__(self):
        # numerators per hbar order over den; one: the first term, kept whole
        # while there are no numerators, so a term that finds them has none to spill
        self._nums, self._den, self._trunc, self._one = [], 1, None, None

    def add(self, x, k=1, shift: int = 0) -> None:
        """Add k * x * hbar^shift."""
        top = self._trunc
        if type(x) is JetPoly:  # known to every hbar order
            parts, d = (x._num,), x._den
        else:
            parts, d, t = x.parts, x.den, x.trunc + shift
            if top is None or t < top:
                top = self._trunc = t
                del self._nums[t + 1:]
        top = shift if top is None else top
        if not k or top < shift or not any(parts):
            return
        if not self._nums and k == 1 and not shift and self._one is None:
            self._one = x
            return
        k = (k * (self._den // d) if type(k) is int and len(self._nums) > top
             and not self._den % d else self._scale(d, k, top))
        for g, part in enumerate(parts[: top + 1 - shift], shift):
            if part:
                _add_into(self._nums[g], part, k)

    def add_product(self, a, b, k=1, shift: int = 0) -> None:
        """Add k * a * b * hbar^shift; a may be an int or Fraction."""
        if type(a) is HbarSeries:
            pa, da, t = a.parts, a.den, a.trunc + shift
        elif type(a) is JetPoly:
            pa, da, t = (a._num,), a._den, None
        else:
            return self.add(b, k * a, shift)
        if type(b) is JetPoly:
            pb, db = (b._num,), b._den
        else:
            pb, db, tb = b.parts, b.den, b.trunc + shift
            t = tb if t is None or tb < t else t
        top = self._trunc
        if t is not None and (top is None or t < top):
            top = self._trunc = t
            del self._nums[t + 1:]
        top = shift if top is None else top
        if not k or top < shift or not any(pa) or not any(pb):
            return
        i0 = j0 = 0  # the lowest nonzero parts of a and b
        while not pa[i0]:
            i0 += 1
        while not pb[j0]:
            j0 += 1
        if i0 + j0 + shift > top:
            return
        d = da * db
        k = (k * (self._den // d) if type(k) is int and len(self._nums) > top
             and not self._den % d else self._scale(d, k, top))
        for i, p in enumerate(pa[i0: top + 1 - shift - j0], i0 + shift):
            if p:
                for j, q in enumerate(pb[j0: top + 1 - i], i + j0):
                    if q:
                        _mul_into(self._nums[j], p, q, k)

    def _scale(self, d: int, k, top: int) -> int:
        """The integer factor of a term over d with factor k, once the kept term
        is spilled and the numerators reach order top over a multiple of d*k's denominator."""
        if self._one is not None:
            one, self._one, self._nums = self._one, None, [{}]
            self.add(one)
        if type(k) is not int:
            d, k = d * k.denominator, k.numerator
        nums = self._nums
        if self._den % d:
            new = math.lcm(self._den, d)
            f = new // self._den
            for num in nums:
                for m in num:
                    num[m] *= f
            self._den = new
        while len(nums) <= top:
            nums.append({})
        return k * (self._den // d)

    def value(self):
        """The sum in canonical form."""
        one, h, nums = self._one, self._trunc, self._nums
        if one is not None:
            return one if h is None else (
                HbarSeries.of(one, h) if type(one) is JetPoly else one.truncate(h))
        if h is None:
            out = JetPoly._reduced(nums[0] if nums else {}, self._den)
        else:
            out = HbarSeries._reduced(h, tuple(nums + [{}] * (h + 1 - len(nums))), self._den)
        # out owns the numerators now: a later term starts from out
        self._nums, self._den, self._one = [], 1, out
        return out


def _add(x, y, sign: int):
    """x + sign*y through one `Sum`: the addition of both value types.  Each
    operand is checked once: a value passes, an int or Fraction is a
    constant, and anything else gives NotImplemented."""
    out = Sum()
    for term, k in ((x, 1), (y, sign)):
        if type(term) is not JetPoly and type(term) is not HbarSeries:
            if not isinstance(term, (int, Fraction)):
                return NotImplemented
            term = JetPoly.const(term)
        out.add(term, k)
    return out.value()


def _mul(x, y):
    """x * y through one `Sum`, for a value x: the product of both value
    types.  A value y passes, an int or Fraction is a constant factor, and
    anything else gives NotImplemented."""
    if type(y) is not JetPoly and type(y) is not HbarSeries and not isinstance(y, (int, Fraction)):
        return NotImplemented
    out = Sum()
    out.add_product(y, x)
    return out.value()


# ---------------------------------------------------------------------------
# substitution of series into jet variables
# ---------------------------------------------------------------------------

def is_var_mod_hbar(s: HbarSeries, alpha: int) -> bool:
    """True iff the series s is w[alpha,0] modulo hbar: its hbar^0 numerators
    are exactly w[alpha,0] over the series' denominator."""
    return s.parts[0] == {((alpha, 0, 1),): s.den}


class Substitution:
    """The substitution w[alpha,n] -> dx^n(images[alpha]), modulo hbar^(trunc+1).

    Calling it maps a JetPoly or HbarSeries to an HbarSeries.  The images,
    and a series it is called on, must be known to hbar^trunc, and every
    color it meets must have an image.  It keeps the powers of the prolonged
    jets (inverse powers included) as it computes them, and the image of a
    monomial's leading factors, and of their own leading factors, at each
    lower truncation it is read at, so one instance serves every polynomial
    substituted with the same images; the jets themselves are the kept
    x-derivatives of the truncated images.  Negative exponents require the
    prolonged image to be invertible (its hbar^0 part a single monomial).

    When every image is w[alpha,0] modulo hbar (`is_var_mod_hbar`), as a
    Miura change's inverse images and the fixed-point iterates that solve
    for them are, the hbar^trunc part of the argument passes through
    unchanged.  That is exact: that part is only needed modulo hbar, and
    modulo hbar every prolonged jet dx^n(images[alpha]) is w[alpha,n], and
    each of its powers, inverse powers included, is w[alpha,n]^exp.
    """

    __slots__ = ("images", "trunc", "_powers", "_fixes")

    def __init__(self, images: dict[int, HbarSeries], trunc: int):
        for alpha, image in images.items():
            if image.trunc < trunc:
                raise ValueError(f"image of w[{alpha},0] stops at hbar^{image.trunc}, "
                                 f"below the substitution's hbar^{trunc}")
        self.images = images
        self.trunc = trunc
        self._powers: dict[tuple, HbarSeries] = {}  # and (mono, trunc) -> its image
        # the identity modulo hbar: the top part of an argument passes through
        self._fixes = all(is_var_mod_hbar(image, alpha) for alpha, image in images.items())

    def power(self, alpha: int, n: int, exp: int) -> HbarSeries:
        """dx^n(images[alpha]) ** exp, for exp != 0."""
        key = (alpha, n, exp)
        got = self._powers.get(key)
        if got is None:
            if exp == 1:
                if n:
                    got = self.power(alpha, 0, 1).dx_pow(n)
                else:
                    self._imaged((alpha,))
                    got = self.images[alpha].truncate(self.trunc)
            elif exp == -1:
                got = self.power(alpha, n, 1).inverse()
            else:
                unit = 1 if exp > 0 else -1
                got = self.power(alpha, n, exp - unit) * self.power(alpha, n, unit)
            self._powers[key] = got
        return got

    def _imaged(self, colors) -> None:
        """Refuse colors with no image."""
        missing = set(colors) - self.images.keys()
        if missing:
            raise ValueError(f"color {min(missing)} has no image in the substitution")

    def monomial(self, mono: Mono, trunc: int) -> HbarSeries:
        """The image of one monomial of at least one factor, modulo
        hbar^(trunc+1), kept by (mono, trunc)."""
        out = self._powers.get((mono, trunc))
        if out is None:
            out = (self.power(*mono[0]).truncate(trunc) if len(mono) == 1
                   else self.monomial(mono[:-1], trunc) * self.power(*mono[-1]))
            self._powers[mono, trunc] = out
        return out

    def __call__(self, p) -> HbarSeries:
        h = self.trunc
        if type(p) is HbarSeries:
            if p.trunc < h:
                raise ValueError(f"series stops at hbar^{p.trunc}, below the "
                                 f"substitution's hbar^{h}")
            parts, pden = p.parts[: h + 1], p.den
        else:
            parts, pden = (p._num,), p._den
        out = Sum()
        out.add(HbarSeries.zero(h))
        if self._fixes and len(parts) > h:  # the hbar^h part maps to itself
            top, parts = parts[h], parts[:h]
            self._imaged({a for mono in top for a, _, _ in mono})
            out.add(JetPoly._reduced(top, pden), 1, h)
        for g, part in enumerate(parts):
            for mono, coeff in part.items():
                # the hbar^g part is only needed modulo hbar^(h-g+1)
                k = Fraction(coeff, pden) if pden != 1 else coeff
                if len(mono) > 1:  # its last factor goes straight into the sum
                    out.add_product(self.monomial(mono[:-1], h - g), self.power(*mono[-1]), k, g)
                else:  # the sum truncates a single factor itself
                    out.add(self.power(*mono[0]) if mono else JetPoly.const(1), k, g)
        return out.value()


def substitute(p, images: dict[int, HbarSeries], trunc: int) -> HbarSeries:
    """Substitute images[alpha] for w[alpha,0], prolonging derivatives by dx.

    Every jet variable w[alpha,n] is replaced by dx^n(images[alpha]).  A
    one-shot `Substitution`; build that once to substitute many polynomials
    with the same images.
    """
    return Substitution(images, trunc)(p)


# ---------------------------------------------------------------------------
# canonical serialization and rendering
# ---------------------------------------------------------------------------

def _num_obj(num: dict, den: int) -> list:
    return [{"coeff": str(Fraction(c, den)), "mono": [list(f) for f in mono]}
            for mono, c in sorted(num.items())]


def jetpoly_to_obj(p: JetPoly) -> list:
    """Canonical JSON form: sorted list of {"coeff": "num/den", "mono": [[a,n,e],..]}."""
    return _num_obj(p._num, p._den)


def series_to_obj(s: HbarSeries) -> dict:
    return {"trunc": s.trunc, "coeffs": [_num_obj(part, s.den) for part in s.parts]}


def to_json(obj) -> str:
    """Indented canonical JSON of a tree whose leaves may be values.

    The bytes are `json.dumps(plain, sort_keys=True, separators=(",", ": "),
    indent=2)`, with `plain` the tree after `jetpoly_to_obj`/`series_to_obj`
    of each JetPoly/HbarSeries leaf, but values are written straight from
    their numerators.  Other leaves are str, int, bool or None, keys are
    str; anything else raises TypeError.

    A node's exact type is tested before `isinstance`, values first, and a
    dict writes its value and str leaves itself.  Each distinct value, each
    monomial's factor block and each value depth's indentation strings are
    built once per call: a memo local to the call keys them by (id, nl),
    (mono, nl) and nl, with nl the indentation they are written at.  The
    tree keeps every leaf alive for the call, and values are immutable, so
    an id names one value throughout.
    """
    return _json(obj, "\n", {})


def _json(obj, nl: str, memo: dict) -> str:
    # nl is the newline and indentation that closes obj's brackets
    t = type(obj)
    if t is not dict and t is not list:  # a leaf, or a subclass of dict or list
        if t is HbarSeries or t is JetPoly or isinstance(obj, (JetPoly, HbarSeries)):
            return memo.get((id(obj), nl)) or _value_json(obj, nl, memo)
        if t is str or isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if obj is None or obj is True or obj is False:
            return "null" if obj is None else "true" if obj else "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if not isinstance(obj, (dict, list)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    if isinstance(obj, list):
        return "[" + ",".join([inner + _json(val, inner, memo) for val in obj]) + nl + "]"
    items = []
    for key, val in sorted(obj.items()):
        t = type(val)
        if t is HbarSeries or t is JetPoly:
            val = memo.get((id(val), inner)) or _value_json(val, inner, memo)
        else:
            val = encode_basestring_ascii(val) if t is str else _json(val, inner, memo)
        # encode_basestring_ascii raises TypeError on a key that is not str
        items.append(f"{inner}{encode_basestring_ascii(key)}: {val}")
    return "{" + ",".join(items) + nl + "}"


def _value_json(obj, nl: str, memo: dict) -> str:
    """A JetPoly or HbarSeries written at nl, formatted and kept in `memo`."""
    pads = memo.get(nl)
    if pads is None:  # nl and the six indentation levels below it
        pads = memo[nl] = tuple([nl + "  " * k for k in range(7)])
    if isinstance(obj, JetPoly):
        out = _num_json(obj._num, obj._den, pads, memo)
    else:
        inner, n2, sub = pads[1], pads[2], pads[2:]
        coeffs = ",".join([n2 + _num_json(part, obj.den, sub, memo) for part in obj.parts])
        out = f'{{{inner}"coeffs": [{coeffs}{inner}],{inner}"trunc": {obj.trunc}{nl}}}'
    memo[(id(obj), nl)] = out
    return out


def _num_json(num: dict, den: int, pads: tuple, memo: dict) -> str:
    """`_num_obj(num, den)` as indented JSON at nl = `pads[0]`: per term, the
    numerator and the denominator reduced by their gcd, then one factor
    block, looked up in `memo` by (mono, nl) or formatted and kept there."""
    if not num:
        return "[]"
    nl, n1, n2, n3, n4 = pads[:5]
    items = []
    for mono, c in sorted(num.items()):
        g = math.gcd(c, den)
        coeff = f"{c // g}/{den // g}" if g != den else f"{c // g}"
        mono_json = memo.get((mono, nl))
        if mono_json is None:
            factors = ",".join(f"{n3}[{n4}{a},{n4}{n},{n4}{e}{n3}]" for a, n, e in mono)
            mono_json = memo[(mono, nl)] = f"[{factors}{n2}]" if mono else "[]"
        items.append(f'{n1}{{{n2}"coeff": "{coeff}",{n2}"mono": {mono_json}{n1}}}')
    return "[" + ",".join(items) + nl + "]"


def render(p: JetPoly, letter: str = "w") -> str:
    """Deterministic plain-text form in the canonical monomial order."""
    return _render(p._num, p._den, letter)


def _render(num: dict, den: int, letter: str) -> str:
    if not num:
        return "0"
    parts = []
    for mono, c in sorted(num.items()):
        coeff = Fraction(c, den)
        factors = []
        for alpha, n, exp in mono:
            v = f"{letter}[{alpha},{n}]"
            factors.append(v if exp == 1 else f"{v}^{exp}")
        body = "*".join(factors)
        if not factors:
            piece = str(abs(coeff))
        elif abs(coeff) == 1:
            piece = body
        else:
            piece = f"{abs(coeff)}*{body}"
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, piece))
    first_sign, first = parts[0]
    out = (first_sign if first_sign == "-" else "") + first
    for sign, piece in parts[1:]:
        out += f" {sign} {piece}"
    return out


def render_series(s: HbarSeries, letter: str = "w") -> str:
    parts = []
    for g, part in enumerate(s.parts):
        if not part:
            continue
        body = _render(part, s.den, letter)
        if g == 0:
            parts.append(body)
        else:
            h = "hbar" if g == 1 else f"hbar^{g}"
            parts.append(f"{h}*({body})")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# seeded random polynomials for property tests
# ---------------------------------------------------------------------------

def random_jetpoly(rng, colors: int = 3, max_order: int = 3, max_exp: int = 2,
                   coeff_bound: int = 3, n_terms: int = 3) -> JetPoly:
    """Small random differential polynomial with bounded data.

    Colors <= `colors`, jet orders <= `max_order`, exponents in 1..max_exp,
    integer coefficients in -coeff_bound..coeff_bound (zero coefficients
    dropped).  Deterministic given the rng state.
    """
    out = _ZERO
    for _ in range(n_terms):
        n_factors = rng.randint(1, 3)
        factors: dict[tuple[int, int], int] = {}
        for _ in range(n_factors):
            a = rng.randint(1, colors)
            n = rng.randint(0, max_order)
            factors[(a, n)] = factors.get((a, n), 0) + rng.randint(1, max_exp)
        mono = tuple((a, n, e) for (a, n), e in sorted(factors.items()))
        c = rng.randint(-coeff_bound, coeff_bound)
        out = out + JetPoly({mono: c}) if c else out
    return out
