"""Exact multivariate arithmetic over the rationals.

Everything symbolic in this package runs on two types defined here:

* ``Polynomial``: a sparse multivariate polynomial with ``fractions.Fraction``
  coefficients.  A monomial is an exponent tuple over a closed, build-time
  variable alphabet (``ALPHABET``); there is no dynamic variable creation, so
  exponent tuples from different expressions always line up.
* ``RationalFunction``: a quotient of two polynomials kept in a canonical
  form, so that ``==`` is exact mathematical equality.

Canonical form of a quotient: numerator and denominator are coprime, and
scaled so the denominator has integer coprime coefficients ("content 1") and
a positive leading coefficient under the graded-lexicographic order induced
by the alphabet order.  The zero function is ``0/1``.

Only the public constructor divides by the gcd of the full numerator and
denominator.  The field operations and ``partial`` start from canonical
operands and cancel only against the factor the operands share (Henrici's
rule): a product cancels each numerator against the other denominator, a
sum takes the gcd of the two denominators and then cancels the new
numerator against that gcd alone.

Rational numbers themselves are plain ``fractions.Fraction``; nothing here
wraps them.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Mapping, Union

# Closed variable alphabet.  Order matters: it fixes the monomial order and
# therefore every canonical form and every rendered string.
ALPHABET = (
    "t", "c", "alpha", "y", "yp", "q", "p",
    "y1", "z1", "y2", "z2", "y3", "z3", "y4", "z4",
    "y5", "z5", "y6", "z6", "y7", "z7", "y8", "z8", "v8",
    "y9", "z9", "y10", "z10", "y11", "z11", "y12", "z12",
    "Y", "z", "x0", "x1", "x2", "x3",
)
NVARS = len(ALPHABET)
_INDEX = {name: i for i, name in enumerate(ALPHABET)}
_ZERO_EXP = (0,) * NVARS

Scalar = Union[int, Fraction]


class ExactError(Exception):
    """Base class for errors raised by the exact kernel."""


class UnknownVariable(ExactError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not in the fixed alphabet")
        self.name = name


class DivisionByZero(ExactError):
    """Division by the zero polynomial or zero rational function."""


class IdenticallyZeroDenominator(ExactError):
    """A substitution produced a denominator that vanishes identically."""


class NotPolynomial(ExactError):
    """``as_polynomial`` was called on a quotient with nontrivial denominator."""

    def __init__(self, denominator: "Polynomial"):
        super().__init__(f"denominator is not constant: {denominator}")
        self.denominator = denominator


def var_index(name: str) -> int:
    try:
        return _INDEX[name]
    except KeyError:
        raise UnknownVariable(name) from None


def _grlex_key(exp):
    return (sum(exp), exp)


class Polynomial:
    """Sparse polynomial: ``{exponent tuple: nonzero Fraction}``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        if terms:
            self.terms = {e: q for e, q in terms.items() if q}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "Polynomial":
        q = Fraction(value)
        return cls({_ZERO_EXP: q}) if q else cls()

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        i = var_index(name)
        exp = tuple(1 if j == i else 0 for j in range(NVARS))
        return cls({exp: Fraction(1)})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ExactError("polynomial is not constant")
        return self.terms[_ZERO_EXP]

    def variables(self) -> tuple[str, ...]:
        present = set()
        for e in self.terms:
            for i, p in enumerate(e):
                if p:
                    present.add(i)
        return tuple(ALPHABET[i] for i in sorted(present))

    def degree_in(self, name: str) -> int:
        i = var_index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def leading(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) under graded lex; error on zero."""
        if not self.terms:
            raise ExactError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def coeff_in(self, name: str, power: int) -> "Polynomial":
        """Coefficient of ``name**power``, a polynomial in the other variables."""
        i = var_index(name)
        out = {}
        for e, q in self.terms.items():
            if e[i] == power:
                out[e[:i] + (0,) + e[i + 1:]] = q
        return Polynomial(out)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other)
        return None

    def __eq__(self, other) -> bool:
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self.terms == p.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -q for e, q in self.terms.items()})

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out = dict(self.terms)
        for e, q in p.terms.items():
            s = out.get(e, Fraction(0)) + q
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial(out)

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out: dict = {}
        for e1, q1 in self.terms.items():
            for e2, q2 in p.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + q1 * q2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ExactError("negative power of a polynomial; use RationalFunction")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus and substitution ------------------------------------

    def diff(self, name: str) -> "Polynomial":
        i = var_index(name)
        out: dict = {}
        for e, q in self.terms.items():
            p = e[i]
            if p:
                out[e[:i] + (p - 1,) + e[i + 1:]] = q * p
        return Polynomial(out)

    def subs_poly(self, bindings: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables (others untouched)."""
        idx = {var_index(n): p for n, p in bindings.items()}
        result = Polynomial.zero()
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        for e, q in self.terms.items():
            term = Polynomial.const(q)
            rest = list(e)
            for i, p in idx.items():
                k = rest[i]
                if k:
                    rest[i] = 0
                    key = (i, k)
                    if key not in pow_cache:
                        pow_cache[key] = p ** k
                    term = term * pow_cache[key]
            term = term * Polynomial({tuple(rest): Fraction(1)})
            result = result + term
        return result

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Fully evaluate; every variable present must be bound."""
        vals = {}
        for n, v in bindings.items():
            vals[var_index(n)] = Fraction(v)
        total = Fraction(0)
        for e, q in self.terms.items():
            prod = q
            for i, p in enumerate(e):
                if p:
                    if i not in vals:
                        raise ExactError(f"unbound variable {ALPHABET[i]!r} in evaluation")
                    prod *= vals[i] ** p
            total += prod
        return total

    # -- integer normalization ----------------------------------------

    def signed_content(self) -> Fraction:
        """Rational r with self == r * primitive, primitive having coprime
        integer coefficients and positive leading coefficient.  Zero for 0."""
        if not self.terms:
            return Fraction(0)
        num_gcd = 0
        den_lcm = 1
        for q in self.terms.values():
            num_gcd = _int_gcd(num_gcd, abs(q.numerator))
            den_lcm = den_lcm * q.denominator // _int_gcd(den_lcm, q.denominator)
        r = Fraction(num_gcd, den_lcm)
        _, lc = self.leading()
        if lc < 0:
            r = -r
        return r

    def primitive(self) -> "Polynomial":
        if not self.terms:
            return self
        r = self.signed_content()
        return Polynomial({e: q / r for e, q in self.terms.items()})

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            q = self.terms[e]
            factors = []
            for i, p in enumerate(e):
                if p == 1:
                    factors.append(ALPHABET[i])
                elif p > 1:
                    factors.append(f"{ALPHABET[i]}^{p}")
            body = "*".join(factors)
            aq = abs(q)
            if not body:
                chunk = str(aq)
            elif aq == 1:
                chunk = body
            else:
                chunk = f"{aq}*{body}"
            sign = "-" if q < 0 else "+"
            parts.append((sign, chunk))
        first_sign, first_chunk = parts[0]
        text = ("-" if first_sign == "-" else "") + first_chunk
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    __repr__ = __str__


# ---------------------------------------------------------------------------
# gcd machinery (primitive PRS)


def divexact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact multivariate division; raises ExactError if b does not divide a."""
    if b.is_zero():
        raise DivisionByZero("exact division by zero polynomial")
    if a.is_zero():
        return a
    eb, cb = b.leading()
    quotient: dict = {}
    rem = a
    while not rem.is_zero():
        er, cr = rem.leading()
        diff = tuple(x - y for x, y in zip(er, eb))
        if any(d < 0 for d in diff):
            raise ExactError("inexact polynomial division")
        q = cr / cb
        quotient[diff] = quotient.get(diff, Fraction(0)) + q
        rem = rem - Polynomial({diff: q}) * b
    return Polynomial(quotient)


def _top_var(p: Polynomial) -> int | None:
    """Highest alphabet index present, or None for constants."""
    best = None
    for e in p.terms:
        for i in range(NVARS - 1, -1, -1):
            if e[i]:
                if best is None or i > best:
                    best = i
                break
    return best


def _deg_idx(p: Polynomial, i: int) -> int:
    return max((e[i] for e in p.terms), default=-1)


def _coeffs_idx(p: Polynomial, i: int) -> dict[int, Polynomial]:
    out: dict[int, dict] = {}
    for e, q in p.terms.items():
        d = e[i]
        out.setdefault(d, {})[e[:i] + (0,) + e[i + 1:]] = q
    return {d: Polynomial(t) for d, t in out.items()}

def _mul_power(p: Polynomial, i: int, k: int) -> Polynomial:
    if k == 0:
        return p
    return Polynomial({e[:i] + (e[i] + k,) + e[i + 1:]: q for e, q in p.terms.items()})


def _content_wrt(p: Polynomial, i: int) -> Polynomial:
    cs = list(_coeffs_idx(p, i).values())
    g = cs[0]
    for c in cs[1:]:
        g = poly_gcd(g, c)
        if g.is_constant():
            break
    return g


def _prem(a: Polynomial, b: Polynomial, i: int) -> Polynomial:
    """Pseudo-remainder of a by b with respect to variable index i."""
    db = _deg_idx(b, i)
    lcb = _coeffs_idx(b, i)[db]
    r = a
    e = _deg_idx(a, i) - db + 1
    while not r.is_zero():
        dr = _deg_idx(r, i)
        if dr < db:
            break
        lcr = _coeffs_idx(r, i)[dr]
        r = lcb * r - _mul_power(lcr * b, i, dr - db)
        e -= 1
    for _ in range(max(e, 0)):
        r = lcb * r
    return r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd over Q, returned with coprime integer coefficients and positive
    leading coefficient (so it is unique)."""
    if a.is_zero():
        return b.primitive()
    if b.is_zero():
        return a.primitive()
    if len(a.terms) == 1:
        return _monomial_gcd(a, b)
    if len(b.terms) == 1:
        return _monomial_gcd(b, a)
    a = a.primitive()
    b = b.primitive()
    if a == b:
        return a
    return _prs_gcd(a, b)


def _prs_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd of two nonzero primitive polynomials by the primitive PRS in
    their top variable, recursing into the contents."""
    va, vb = _top_var(a), _top_var(b)
    if va is None or vb is None:
        return Polynomial.const(1)
    i = max(va, vb)
    # i is the top variable of at least one argument.  If the other one is
    # free of it, any common divisor is too, so it divides that content.
    if _deg_idx(a, i) == 0:
        return poly_gcd(a, _content_wrt(b, i))
    if _deg_idx(b, i) == 0:
        return poly_gcd(_content_wrt(a, i), b)
    ca, cb = _content_wrt(a, i), _content_wrt(b, i)
    g_cont = poly_gcd(ca, cb)
    pa, pb = divexact(a, ca), divexact(b, cb)
    if _deg_idx(pa, i) < _deg_idx(pb, i):
        pa, pb = pb, pa
    while True:
        r = _prem(pa, pb, i)
        if r.is_zero():
            g = pb
            break
        if _deg_idx(r, i) == 0:
            g = Polynomial.const(1)
            break
        pa, pb = pb, divexact(r, _content_wrt(r, i)).primitive()
    g = divexact(g, _content_wrt(g, i)) if _deg_idx(g, i) > 0 else g
    return (g_cont * g).primitive()


def _monomial_gcd(m: Polynomial, b: Polynomial) -> Polynomial:
    """gcd of a one-term polynomial with a nonzero b: every divisor of a
    monomial is a monomial, so it is the least exponent per variable."""
    (low,) = m.terms
    for e in b.terms:
        if not any(low):
            break
        low = tuple(map(min, low, e))
    return Polynomial({low: Fraction(1)})


def _is_one(p: Polynomial) -> bool:
    return len(p.terms) == 1 and p.terms.get(_ZERO_EXP) == 1


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero() or b.is_zero():
        return Polynomial.zero()
    return divexact(a * b, poly_gcd(a, b)).primitive()


# ---------------------------------------------------------------------------
# rational functions


class RationalFunction:
    """Canonical quotient of two ``Polynomial`` values."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.const(1)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if not _is_one(g):
                num = divexact(num, g)
                den = divexact(den, g)
        self._scale(num, den)

    @classmethod
    def _coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Quotient of a pair known to have no common factor, skipping the
        gcd that the public constructor takes."""
        self = object.__new__(cls)
        self._scale(num, den)
        return self

    def _scale(self, num: Polynomial, den: Polynomial) -> None:
        """Store a coprime pair with the denominator scaled to content 1
        and a positive leading coefficient."""
        if num.is_zero():
            self.num = Polynomial.zero()
            self.den = Polynomial.const(1)
            return
        r = den.signed_content()
        if r != 1:
            den = Polynomial({e: q / r for e, q in den.terms.items()})
            num = Polynomial({e: q / r for e, q in num.terms.items()})
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: Scalar) -> "RationalFunction":
        return cls._coprime(Polynomial.const(value), Polynomial.const(1))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls._coprime(Polynomial.variable(name), Polynomial.const(1))

    @staticmethod
    def coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, Polynomial):
            return RationalFunction._coprime(x, Polynomial.const(1))
        if isinstance(x, (int, Fraction)):
            return RationalFunction.const(x)
        raise ExactError(f"cannot interpret {x!r} as a rational function")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def __eq__(self, other) -> bool:
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations ---------------------------------------------
    #
    # Operands are canonical, so num and den of each are coprime; every
    # result is assembled so that it is coprime too, and only gcds
    # against the factors the operands share are ever taken.

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    def __add__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        d1, d2 = self.den, o.den
        g = poly_gcd(d1, d2)
        if _is_one(g):
            # a prime dividing d1 and the top would divide n1 * d2
            return RationalFunction._coprime(self.num * d2 + o.num * d1,
                                             d1 * d2)
        e1, e2 = divexact(d1, g), divexact(d2, g)
        # the top is coprime to e1 * e2; only g can share a factor with it
        top = self.num * e2 + o.num * e1
        h = poly_gcd(top, g)
        if not _is_one(h):
            top, d2 = divexact(top, h), divexact(d2, h)
        return RationalFunction._coprime(top, e1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        return _cross_cancel(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        if o.is_zero():
            raise DivisionByZero("division by zero rational function")
        return _cross_cancel(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RationalFunction._coprime(self.den ** (-n), self.num ** (-n))
        return RationalFunction._coprime(self.num ** n, self.den ** n)

    # -- substitution and calculus ------------------------------------

    def substitute(self, bindings: Mapping[str, "RationalFunction | Polynomial | Scalar"]) -> "RationalFunction":
        """Simultaneously replace variables by rational functions.

        Raises IdenticallyZeroDenominator if the substituted denominator
        collapses to the zero polynomial.
        """
        rf_bindings = {n: RationalFunction.coerce(v) for n, v in bindings.items()}
        new_num = _subs_poly_rf(self.num, rf_bindings)
        new_den = _subs_poly_rf(self.den, rf_bindings)
        if new_den.is_zero():
            raise IdenticallyZeroDenominator(
                "substitution sends the denominator to zero identically")
        return new_num / new_den

    def partial(self, name: str) -> "RationalFunction":
        """Partial derivative (quotient rule, exact)."""
        var_index(name)
        n, d = self.num, self.den
        dn, dd = n.diff(name), d.diff(name)
        # (n/d)' = (dn*e - n*f) / (g*e^2) with g = gcd(d, dd), e = d/g,
        # f = dd/g; the top is coprime to e, so only g can share a factor
        # (when dd = 0, g is d itself and this cancels dn against d)
        g = poly_gcd(d, dd)
        e, f = divexact(d, g), divexact(dd, g)
        top = dn * e - n * f
        h = poly_gcd(top, g)
        if not _is_one(h):
            top, g = divexact(top, h), divexact(g, h)
        return RationalFunction._coprime(top, g * e * e)

    def as_polynomial(self) -> Polynomial:
        if not self.den.is_constant():
            raise NotPolynomial(self.den)
        d = self.den.constant_value()
        if d == 1:
            return self.num
        return Polynomial({e: q / d for e, q in self.num.terms.items()})

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        den = self.den.eval_fractions(bindings)
        if den == 0:
            raise DivisionByZero("denominator vanishes at the evaluation point")
        return self.num.eval_fractions(bindings) / den

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


def _subs_poly_rf(p: Polynomial, bindings: Mapping[str, RationalFunction]) -> RationalFunction:
    idx = {var_index(n): v for n, v in bindings.items()}
    total = RationalFunction.const(0)
    pow_cache: dict[tuple[int, int], RationalFunction] = {}
    for e, q in p.terms.items():
        rest = list(e)
        factor = RationalFunction.const(q)
        for i, v in idx.items():
            k = rest[i]
            if k:
                rest[i] = 0
                key = (i, k)
                if key not in pow_cache:
                    pow_cache[key] = v ** k
                factor = factor * pow_cache[key]
        factor = factor * Polynomial({tuple(rest): Fraction(1)})
        total = total + factor
    return total


def _cross_cancel(n1: Polynomial, d1: Polynomial,
                  n2: Polynomial, d2: Polynomial) -> RationalFunction:
    """(n1/d1) * (n2/d2) for coprime pairs: cancelling n1 against d2 and
    n2 against d1 leaves a coprime product."""
    if n1.is_zero() or n2.is_zero():
        return RationalFunction.const(0)
    g1 = poly_gcd(n1, d2)
    if not _is_one(g1):
        n1, d2 = divexact(n1, g1), divexact(d2, g1)
    g2 = poly_gcd(n2, d1)
    if not _is_one(g2):
        n2, d1 = divexact(n2, g2), divexact(d1, g2)
    return RationalFunction._coprime(n1 * n2, d1 * d2)


# ---------------------------------------------------------------------------
# small convenience layer used throughout the package


def rf(x) -> RationalFunction:
    return RationalFunction.coerce(x)


def rfvar(name: str) -> RationalFunction:
    return RationalFunction.variable(name)


def rfvars(*names: str) -> tuple[RationalFunction, ...]:
    return tuple(RationalFunction.variable(n) for n in names)
