"""Exact multivariate arithmetic over the rationals.

Everything symbolic in this package runs on three types defined here:

* ``Polynomial``: a sparse multivariate polynomial with rational
  coefficients over a closed, build-time variable alphabet (``ALPHABET``);
  there is no dynamic variable creation, so monomials from different
  expressions always line up.
* ``RationalFunction``: a quotient of two polynomials kept in a canonical
  form, so that ``==`` is exact mathematical equality.
* ``Quotient``: a pair (num, den) for checks that only ask whether an
  expression is zero.  It adds, multiplies, substitutes and
  differentiates (by the plain quotient rule) with no gcd, and reuses a
  denominator when both operands share it.  It is zero exactly when its
  numerator is, and ``==`` cross-multiplies; with no canonical form, it
  is not hashable.  It becomes canonical only when rendered, through the
  public ``RationalFunction(num, den)`` constructor; a zero renders as
  ``0`` with no gcd.

All substitution runs on ``Quotient``, in one loop (``_subs_cleared``):
``RationalFunction.substitute`` expands the pair under the bindings with
every inner denominator cleared and canonicalizes the result once, and
``Polynomial.subs_poly`` is the same loop with unit denominators.  When
every binding is a monomial or zero over a monomial, the loop sends each
term to one term by moving its packed key (``_subs_monomial``), with no
polynomial product.  Bindings used more than once are prepared once as a
``Substitution``, which each of the three takes in place of a mapping.

A monomial is stored packed into one int (Monagan & Pearce's packed
monomials): one 8-bit field per variable, ``ALPHABET[0]`` highest, and the
total degree in a field above them all.  Integer order is then exactly the
graded-lexicographic order, and multiplying monomials is adding ints.  The
top bit of every field is a guard bit that stays 0, so one subtraction
tests divisibility in every field at once.  A total degree above
``MAX_DEGREE`` raises ``ExactError``: products check it before they add, so
a carry never passes from one field into the next.  The packing is private
to this module: ``Polynomial`` takes and ``Polynomial.terms`` shows
exponent tuples, and other modules move exponents by substitution.

Canonical form of a ``RationalFunction``: numerator and denominator are
coprime, and scaled so the denominator has integer coprime coefficients
("content 1") and a positive leading coefficient under the
graded-lexicographic order induced by the alphabet order.  The zero
function is ``0/1``.

Only the public constructor divides by the gcd of the full numerator and
denominator.  The field operations and ``partial`` start from canonical
operands and cancel only against the factor the operands share (Henrici's
rule): a product cancels each numerator against the other denominator, a
sum takes the gcd of the two denominators and then cancels the new
numerator against that gcd alone.

A coefficient is stored as a plain ``int`` when it is integral and as a
``_Rat`` otherwise: a numerator and a denominator above 1, coprime ints
with the sign on the numerator.  ``_Rat``'s operators do the int
arithmetic with ``math.gcd`` and hand back an int wherever the value is
integral, so the products and sums of coefficients run on ints and
never reach ``fractions.Fraction``'s operators or its constructor.
Division is the one operation that needs care, since ``int / int`` is a
float: ``divexact`` multiplies by the stored inverse of the divisor's
leading coefficient, and ``_scaled`` and ``_coef`` build each quotient
with ``_ratio``.  The contents stay on ints too: ``_content`` of an
all-int polynomial is the ``math.gcd`` of its coefficients, else the gcd
of the numerators over the lcm of the denominators.  Every operation
also takes ``Fraction`` coefficients, alone or mixed with the stored
ones, and gives the same values, since both compare, hash and print by
value.  The public views (``terms``, ``leading``, ``constant_value``,
``signed_content``, ``eval_fractions``) return ``Fraction``; a ``_Rat``
never leaves this module.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from numbers import Rational
from sys import hash_info as _HASH
from types import MappingProxyType

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

# Packed monomials: byte 0 (most significant) of the big-endian encoding is
# the total degree, byte 1 + i the exponent of ALPHABET[i].
_NBYTES = NVARS + 1
MAX_DEGREE = 0x7F                      # a field's value bits; bit 7 is the guard
_SHIFT = tuple(8 * (NVARS - 1 - i) for i in range(NVARS))
_DEG_SHIFT = 8 * NVARS
_ONE = tuple((1 << _DEG_SHIFT) | (1 << s) for s in _SHIFT)   # x_i, packed
_GUARDS = int.from_bytes(b"\x80" * _NBYTES, "big")

Scalar = int | Fraction


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
    """``as_polynomial`` was called on a quotient with a non-constant
    denominator, or ``subs_poly`` on a binding whose denominator is not 1."""

    def __init__(self, denominator: "Polynomial"):
        super().__init__(f"denominator is not 1: {denominator}")
        self.denominator = denominator


def var_index(name: str) -> int:
    try:
        return _INDEX[name]
    except KeyError:
        raise UnknownVariable(name) from None


def _degree(key: int) -> int:
    return key >> _DEG_SHIFT


def _check_degree(deg: int) -> None:
    if deg > MAX_DEGREE:
        raise ExactError(f"total degree {deg} exceeds {MAX_DEGREE}")


def _pack(exp) -> int:
    """Packed int of an exponent tuple over the whole alphabet."""
    exp = tuple(exp)
    if len(exp) != NVARS:
        raise ExactError(f"exponent tuple has {len(exp)} entries, not {NVARS}")
    if min(exp) < 0:
        raise ExactError(f"negative exponent in {exp}")
    deg = sum(exp)
    _check_degree(deg)
    return int.from_bytes(bytes((deg, *exp)), "big")


def _unpack(key: int) -> tuple:
    """Exponent tuple of a packed monomial."""
    return tuple(key.to_bytes(_NBYTES, "big")[1:])


class _Rat:
    """A rational that is not an integer, as ``Polynomial`` stores one:
    ``numerator`` and ``denominator`` are coprime ints, the denominator
    above 1 and the sign on the numerator.  The operators take an int, a
    ``_Rat`` or a ``Fraction`` and return an int where the value is
    integral, so no integral ``_Rat`` is ever built; ``==``, ``<``,
    ``hash`` and ``str`` agree with ``Fraction``'s, and ``Fraction(x)``
    converts one.  The constructor does not reduce; ``_ratio`` does."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator = n
        self.denominator = d

    def __add__(a, b):
        n, d = a.numerator, a.denominator
        if type(b) is int:
            return _Rat(n + b * d, d)
        if isinstance(b, _RATIONALS):
            return _ratio(n * b.denominator + b.numerator * d, d * b.denominator)
        return NotImplemented

    __radd__ = __add__

    def __sub__(a, b):
        n, d = a.numerator, a.denominator
        if type(b) is int:
            return _Rat(n - b * d, d)
        if isinstance(b, _RATIONALS):
            return _ratio(n * b.denominator - b.numerator * d, d * b.denominator)
        return NotImplemented

    def __rsub__(a, b):
        n, d = a.numerator, a.denominator
        if type(b) is int:
            return _Rat(b * d - n, d)
        if isinstance(b, _RATIONALS):
            return _ratio(b.numerator * d - n * b.denominator, d * b.denominator)
        return NotImplemented

    def __mul__(a, b):
        if isinstance(b, _RATIONALS):
            return _ratio(a.numerator * b.numerator, a.denominator * b.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(a, b):
        if not isinstance(b, _RATIONALS):
            return NotImplemented
        if not b:
            raise ZeroDivisionError(f"{a} / 0")
        return _ratio(a.numerator * b.denominator, a.denominator * b.numerator)

    def __rtruediv__(a, b):
        if isinstance(b, _RATIONALS):
            return _ratio(b.numerator * a.denominator, b.denominator * a.numerator)
        return NotImplemented

    def __pow__(a, k):
        if type(k) is not int or k < 0:
            return NotImplemented
        return _Rat(a.numerator ** k, a.denominator ** k) if k else 1

    def __neg__(a):
        return _Rat(-a.numerator, a.denominator)

    def __abs__(a):
        return _Rat(abs(a.numerator), a.denominator)

    def __eq__(a, b):
        if type(b) is int:
            return False
        if isinstance(b, _RATIONALS):
            return a.numerator == b.numerator and a.denominator == b.denominator
        return NotImplemented

    def __lt__(a, b):
        if isinstance(b, _RATIONALS):
            return a.numerator * b.denominator < b.numerator * a.denominator
        return NotImplemented

    def __gt__(a, b):
        if isinstance(b, _RATIONALS):
            return a.numerator * b.denominator > b.numerator * a.denominator
        return NotImplemented

    def __hash__(a):
        # Python's hash of the rational n/d, which Fraction and int share
        n, d = a.numerator, a.denominator
        try:
            h = hash(hash(abs(n)) * pow(d, -1, _HASH.modulus))
        except ValueError:              # d is a multiple of the modulus
            h = _HASH.inf
        return h if n >= 0 else -h       # hash() itself turns -1 into -2

    def __str__(a):
        return f"{a.numerator}/{a.denominator}"

    __repr__ = __str__


Rational.register(_Rat)        # Fraction(x), ==, < read its two ints
_RATIONALS = (int, _Rat, Fraction)


def _ratio(n: int, d: int) -> "int | _Rat":
    """n/d for ints n and d != 0, as stored: an int where d divides n,
    else a _Rat in lowest terms."""
    g = _int_gcd(n, d)
    if d < 0:
        g = -g
    d //= g
    return n // g if d == 1 else _Rat(n // g, d)


def _coef(value: Scalar) -> "int | _Rat":
    """A coefficient as stored: an int when integral, else a _Rat."""
    if type(value) is int or type(value) is _Rat:
        return value
    q = value if type(value) is Fraction else Fraction(value)
    return _ratio(q.numerator, q.denominator)


def _content(t: dict) -> "int | _Rat":
    """The signed content of nonempty terms: the gcd of the numerators
    over the lcm of the denominators, which are coprime, with the sign of
    the leading coefficient."""
    vals = t.values()
    if all(type(q) is int for q in vals):
        r = _int_gcd(*vals)
    else:
        r = _ratio(_int_gcd(*(q.numerator for q in vals)),
                   _int_lcm(*(q.denominator for q in vals)))
    return -r if t[max(t)] < 0 else r


def _add_into(out: dict, terms) -> None:
    """out += terms, given as (key, coefficient) pairs, dropping terms that
    cancel; a new monomial goes last."""
    for e, q in terms:
        if e in out:
            s = out[e] + q
            if s:
                out[e] = s
            else:
                del out[e]
        else:
            out[e] = q


class Polynomial:
    """Sparse polynomial: ``{packed monomial: nonzero coefficient}``, each
    coefficient an int when integral and a ``_Rat`` otherwise.  The public
    views return the coefficients as Fractions."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        """From a mapping of exponent tuples (over the whole alphabet) to
        rational coefficients; zero coefficients are dropped."""
        if terms:
            self._terms = {_pack(e): _coef(q) for e, q in terms.items() if q}
        else:
            self._terms = {}

    @classmethod
    def _new(cls, terms: dict) -> "Polynomial":
        """Wrap a packed dict of nonzero coefficients: ints and _Rat, as
        the kernel stores them, or any mix with Fractions, which gives the
        same values, only slower."""
        p = object.__new__(cls)
        p._terms = terms
        return p

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """Exponent tuple -> Fraction coefficient, read-only, in the
        polynomial's own term order."""
        return MappingProxyType({_unpack(e): Fraction(q)
                                 for e, q in self._terms.items()})

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._new({})

    @classmethod
    def const(cls, value: Scalar) -> "Polynomial":
        q = _coef(value)
        return cls._new({0: q} if q else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls._new({_ONE[var_index(name)]: 1})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ExactError("polynomial is not constant")
        return Fraction(self._terms[0])

    def variables(self) -> tuple[str, ...]:
        present = 0
        for e in self._terms:
            present |= e
        return tuple(ALPHABET[i] for i, p in enumerate(_unpack(present)) if p)

    def degree_in(self, name: str) -> int:
        return _deg_idx(self, var_index(name))

    def leading(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) under graded lex; error on zero."""
        if not self._terms:
            raise ExactError("zero polynomial has no leading term")
        e = max(self._terms)
        return _unpack(e), Fraction(self._terms[e])

    def coeff_in(self, name: str, power: int) -> "Polynomial":
        """Coefficient of ``name**power``, a polynomial in the other variables."""
        i = var_index(name)
        s, drop = _SHIFT[i], power * _ONE[i]
        return Polynomial._new({e - drop: q for e, q in self._terms.items()
                                if (e >> s) & 0xFF == power})

    def strip_var(self, name: str) -> tuple["Polynomial", int]:
        """(self / name**k, k) for the largest power name**k dividing self;
        zero gives (0, 0)."""
        i = var_index(name)
        s = _SHIFT[i]
        k = min(((e >> s) & 0xFF for e in self._terms), default=0)
        if not k:
            return self, 0
        drop = k * _ONE[i]
        return Polynomial._new({e - drop: q for e, q in self._terms.items()}), k

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
        return self._terms == p._terms

    def __hash__(self):
        # a constant equals its Fraction, so it hashes as one
        if self.is_constant():
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial._new({e: -q for e, q in self._terms.items()})

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        out = dict(self._terms)
        _add_into(out, p._terms.items())
        return Polynomial._new(out)

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
        if not isinstance(other, Polynomial):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return Polynomial._new({})
        # no terms dict is written after _new, so a unit factor can hand
        # back the other operand itself; a one-term factor shifts every key
        # of the other one, in its order, and distinct keys stay distinct.
        # The top monomial has the top degree; below the bound no field
        # carries.
        if len(t2) == 1:
            ((e2, q2),) = t2.items()
            if not e2 and q2 == 1:
                return self
            if len(t1) == 1:
                ((e1, q1),) = t1.items()
                if not e1 and q1 == 1:
                    return other
                e = e1 + e2
                _check_degree(_degree(e))
                return Polynomial._new({e: q1 * q2})
            _check_degree(_degree(max(t1)) + _degree(e2))
            return Polynomial._new({e1 + e2: q1 * q2 for e1, q1 in t1.items()})
        if len(t1) == 1:
            ((e1, q1),) = t1.items()
            if not e1 and q1 == 1:
                return other
            _check_degree(_degree(e1) + _degree(max(t2)))
            return Polynomial._new({e1 + e2: q1 * q2 for e2, q2 in t2.items()})
        _check_degree(_degree(max(t1)) + _degree(max(t2)))
        out: dict = {}
        for e1, q1 in t1.items():
            for e2, q2 in t2.items():
                e = e1 + e2
                if e in out:
                    s = out[e] + q1 * q2
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                else:
                    out[e] = q1 * q2
        return Polynomial._new(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ExactError("negative power of a polynomial; use RationalFunction")
        if not n:
            return Polynomial.const(1)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        # the square-and-multiply product from the constant 1: its first
        # factor, or the int 1 when that factor is a unit
        result = Polynomial._new({0: 1}) if _is_one(base) else base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    # -- calculus and substitution ------------------------------------

    def diff(self, name: str) -> "Polynomial":
        i = var_index(name)
        s, one = _SHIFT[i], _ONE[i]
        out: dict = {}
        for e, q in self._terms.items():
            p = (e >> s) & 0xFF
            if p:
                out[e - one] = q * p
        return Polynomial._new(out)

    def subs_poly(self, bindings: "Mapping[str, Polynomial] | Substitution") -> "Polynomial":
        """Substitute polynomials for variables (others untouched).  A
        binding whose denominator is not 1 raises ``NotPolynomial``."""
        s = Substitution.of(bindings)
        if s._top0 is None:
            raise NotPolynomial(next(v.den for v in s._subs.values()
                                     if not _is_one(v.den)))
        return _subs_cleared(self, s._subs, s._top0, s._maps0)

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        """Fully evaluate; every variable present must be bound."""
        vals = {}
        for n, v in bindings.items():
            vals[var_index(n)] = _coef(v)
        total = 0
        for e, q in self._terms.items():
            prod = q
            for i, p in enumerate(_unpack(e)):
                if p:
                    if i not in vals:
                        raise ExactError(f"unbound variable {ALPHABET[i]!r} in evaluation")
                    prod *= vals[i] ** p
            total += prod
        return Fraction(total)

    # -- integer normalization ----------------------------------------

    def signed_content(self) -> Fraction:
        """Rational r with self == r * primitive, primitive having coprime
        integer coefficients and positive leading coefficient.  Zero for 0."""
        return Fraction(_content(self._terms)) if self._terms else Fraction(0)

    def primitive(self) -> "Polynomial":
        if not self._terms:
            return self
        return _scaled(self, _content(self._terms))

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            q = self._terms[e]
            factors = []
            for i, p in enumerate(_unpack(e)):
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


def _scaled(p: Polynomial, r) -> Polynomial:
    """p / r for a nonzero int, _Rat or Fraction r, each quotient stored,
    so a primitive polynomial has only int coefficients."""
    n, d = r.numerator, r.denominator
    return Polynomial._new({e: _ratio(q.numerator * d, q.denominator * n)
                            for e, q in p._terms.items()})


# ---------------------------------------------------------------------------
# gcd machinery (primitive PRS)


def divexact(a: Polynomial, b: Polynomial) -> Polynomial:
    """Exact multivariate division; raises ExactError if b does not divide a."""
    if b.is_zero():
        raise DivisionByZero("exact division by zero polynomial")
    if a.is_zero():
        return a
    eb = max(b._terms)
    cb = b._terms[eb]
    inv = _ratio(cb.denominator, cb.numerator)        # 1 / cb, as stored
    rest = [(e, c) for e, c in b._terms.items() if e != eb]
    quotient: dict = {}
    rem = dict(a._terms)
    while rem:
        er = max(rem)
        # a field of er below eb's borrows from its own guard bit only
        d = (er | _GUARDS) - eb
        if d & _GUARDS != _GUARDS:
            raise ExactError("inexact polynomial division")
        d ^= _GUARDS
        q = quotient[d] = rem.pop(er) * inv
        for e, c in rest:
            e += d
            if e in rem:
                s = rem[e] - q * c
                if s:
                    rem[e] = s
                else:
                    del rem[e]
            else:
                rem[e] = -(q * c)
    return Polynomial._new(quotient)


def _present(p: Polynomial) -> int:
    """The OR of p's packed keys: x_i's field is nonzero exactly when x_i
    occurs in p."""
    present = 0
    for e in p._terms:
        present |= e
    return present


def _top_var(p: Polynomial) -> int | None:
    """Highest alphabet index present, or None for constants."""
    present = _present(p) & ((1 << _DEG_SHIFT) - 1)
    if not present:
        return None
    low = (present & -present).bit_length() - 1
    return NVARS - 1 - low // 8


def _deg_idx(p: Polynomial, i: int) -> int:
    s = _SHIFT[i]
    return max(((e >> s) & 0xFF for e in p._terms), default=-1)


def _coeffs_idx(p: Polynomial, i: int) -> dict[int, Polynomial]:
    s, one = _SHIFT[i], _ONE[i]
    out: dict[int, dict] = {}
    for e, q in p._terms.items():
        d = (e >> s) & 0xFF
        out.setdefault(d, {})[e - d * one] = q
    return {d: Polynomial._new(t) for d, t in out.items()}


def _mul_power(p: Polynomial, i: int, k: int) -> Polynomial:
    if k == 0 or not p._terms:
        return p
    _check_degree(_degree(max(p._terms)) + k)
    shift = k * _ONE[i]
    return Polynomial._new({e + shift: q for e, q in p._terms.items()})


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
    if len(a._terms) == 1:
        return _monomial_gcd(a, b)
    if len(b._terms) == 1:
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
    (low,) = m._terms
    if not low or 0 in b._terms:
        return Polynomial._new({0: 1})     # a constant term on either side
    fields = [(_SHIFT[i], k) for i, k in enumerate(_unpack(low)) if k]
    for e in b._terms:
        if not fields:
            break
        fields = [(s, min(k, (e >> s) & 0xFF)) for s, k in fields]
        fields = [(s, k) for s, k in fields if k]
    key = sum(k << s for s, k in fields) + (sum(k for _, k in fields) << _DEG_SHIFT)
    return Polynomial._new({key: 1})


def _is_one(p: Polynomial) -> bool:
    return len(p._terms) == 1 and p._terms.get(0) == 1


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
        r = _content(den._terms)
        if r != 1:
            den = _scaled(den, r)
            num = _scaled(num, r)
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

    def __eq__(self, other) -> bool:
        try:
            o = RationalFunction.coerce(other)
        except ExactError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # a canonical quotient with a constant denominator has den 1 and
        # equals its numerator, so it hashes as that
        if self.den.is_constant():
            return hash(self.num)
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

    def substitute(self, bindings: "Mapping[str, RationalFunction | Polynomial | Scalar] | Substitution") -> "RationalFunction":
        """Simultaneously replace variables by rational functions.

        Raises IdenticallyZeroDenominator if the substituted denominator
        collapses to the zero polynomial.
        """
        return Quotient.of(self).substitute(bindings).canonical()

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
        # a canonical constant denominator is 1
        if not self.den.is_constant():
            raise NotPolynomial(self.den)
        return self.num

    def eval_fractions(self, bindings: Mapping[str, Scalar]) -> Fraction:
        den = self.den.eval_fractions(bindings)
        if den == 0:
            raise DivisionByZero("denominator vanishes at the evaluation point")
        return self.num.eval_fractions(bindings) / den

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        num = str(self.num)
        den = str(self.den)
        if len(self.num._terms) > 1:
            num = f"({num})"
        if len(self.den._terms) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    __repr__ = __str__


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
# unreduced quotients, for zero tests


_POLY_ONE = Polynomial.const(1)


class Quotient:
    """A quotient ``num/den`` kept as it is built: sums, products,
    substitution and ``partial`` take no gcd, so numerator and denominator
    may share factors.  ``is_zero`` and ``==`` are exact all the same,
    since a quotient vanishes exactly when its numerator does, and n1/d1
    equals n2/d2 exactly when n1*d2 equals n2*d1.  Rendering goes through
    the public constructor, so a nonzero value prints in canonical form
    and a zero prints ``0`` with no gcd taken."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if not den._terms:
            raise DivisionByZero("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def of(x) -> "Quotient":
        if isinstance(x, Quotient):
            return x
        if isinstance(x, RationalFunction):
            return Quotient(x.num, x.den)
        if isinstance(x, Polynomial):
            return Quotient(x, _POLY_ONE)
        if isinstance(x, (int, Fraction)):
            return Quotient(Polynomial.const(x), _POLY_ONE)
        raise ExactError(f"cannot interpret {x!r} as a quotient")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        try:
            o = Quotient.of(other)
        except ExactError:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    # equal values may be stored as different pairs, and only a gcd would
    # bring them to one
    __hash__ = None

    def canonical(self) -> RationalFunction:
        return RationalFunction(self.num, self.den)

    def __str__(self) -> str:
        return str(self.canonical())

    def __repr__(self) -> str:
        # no gcd: RationalFunction.coerce formats this into the error it
        # raises whenever a quotient is the right operand of its operators
        return (f"<unreduced quotient: {len(self.num._terms)} terms over "
                f"{len(self.den._terms)}>")

    # -- ring operations ----------------------------------------------

    def __neg__(self):
        return Quotient(-self.num, self.den)

    def __add__(self, other):
        try:
            o = Quotient.of(other)
        except ExactError:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if not n1:
            return o
        if not n2:
            return self
        if d1 == d2:
            return Quotient(n1 + n2, d1)
        return Quotient(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = Quotient.of(other)
        except ExactError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        try:
            o = Quotient.of(other)
        except ExactError:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        try:
            o = Quotient.of(other)
        except ExactError:
            return NotImplemented
        if not self.num or not o.num:
            return Quotient(Polynomial.zero(), _POLY_ONE)
        return Quotient(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Quotient":
        if n < 0:
            raise ExactError("negative power of an unreduced quotient")
        return Quotient(self.num ** n, self.den ** n)

    # -- substitution and calculus ------------------------------------

    def partial(self, name: str) -> "Quotient":
        """Quotient rule, D(n/d) = (Dn*d - n*Dd)/d^2, or Dn/d when d is
        free of the variable."""
        n, d = self.num, self.den
        dn, dd = n.diff(name), d.diff(name)
        if not dd:
            return Quotient(dn, d)
        return Quotient(dn * d - n * dd, d * d)

    def substitute(self, bindings: "Mapping[str, object] | Substitution") -> "Quotient":
        """Simultaneously replace variables by quotients.  Numerator and
        denominator are both multiplied through by den_v ** k_v for each
        bound v, with k_v the larger of their degrees in v, which clears
        every inner denominator and leaves the quotient unchanged.  One
        OR over the packed keys of both parts shows which variables occur;
        a binding of any other changes no term, so it is dropped, and with
        none left the quotient itself is returned."""
        s = Substitution.of(bindings)
        num, den = self.num, self.den
        present = _present(num) | _present(den)
        subs, top = {}, {}
        for i, v in s._subs.items():
            if (present >> _SHIFT[i]) & 0xFF:
                subs[i] = v
                top[i] = max(_deg_idx(num, i), _deg_idx(den, i))
        if not subs:
            return self
        maps = _clearing_maps(s._maps, top)
        den = _subs_cleared(den, subs, top, maps)
        if den.is_zero():
            raise IdenticallyZeroDenominator(
                "substitution sends the denominator to zero identically")
        return Quotient(_subs_cleared(num, subs, top, maps), den)


class Substitution:
    """Bindings of variables to quotients, checked and prepared once for
    any number of substitutions.  ``Polynomial.subs_poly``,
    ``Quotient.substitute`` and ``RationalFunction.substitute`` each take
    one wherever they take a mapping, and prepare a mapping on every call.
    A name outside the alphabet or a value that is not a quotient raises
    ``ExactError`` here.  The variable indices, each binding's monomial
    map and ``subs_poly``'s zero clearing degrees are built here too, in
    the bindings' order, which fixes the order of every product and so
    the term order of the result.  The clearing degrees are None unless
    every denominator is 1, as ``subs_poly`` needs."""

    __slots__ = ("_subs", "_maps", "_top0", "_maps0")

    def __init__(self, bindings: Mapping[str, object]):
        self._subs = {var_index(n): Quotient.of(v) for n, v in bindings.items()}
        self._maps = {i: _monomial_map(i, v) for i, v in self._subs.items()}
        if all(_is_one(v.den) for v in self._subs.values()):
            self._top0 = dict.fromkeys(self._subs, 0)
            self._maps0 = _clearing_maps(self._maps, self._top0)
        else:
            self._top0 = self._maps0 = None

    @staticmethod
    def of(bindings: "Mapping[str, object] | Substitution") -> "Substitution":
        if isinstance(bindings, Substitution):
            return bindings
        return Substitution(bindings)

    def items(self):
        """(name, Quotient) pairs, in the bindings' order."""
        return [(ALPHABET[i], v) for i, v in self._subs.items()]


def _monomial_map(i: int, v: Quotient) -> tuple | None:
    """What ``_subs_monomial`` needs of x_i = v, when v is a monomial or
    zero over a monomial: x_i's field, the key step from x_i to the
    numerator's monomial, and the numerator's coefficient, the
    denominator's key and its coefficient.  None for any other v."""
    if len(v.num._terms) > 1 or len(v.den._terms) != 1:
        return None
    ((dk, dc),) = v.den._terms.items()
    ((nk, nc),) = v.num._terms.items() or ((0, 0),)
    return _SHIFT[i], nk - _ONE[i], nc, dk, dc


def _clearing_maps(maps: Mapping[int, tuple | None],
                   top: Mapping[int, int]) -> list | None:
    """The monomial maps of the variables in top, each with its clearing
    degree top[i] last, as ``_subs_monomial`` reads them; None when one
    of those bindings is no monomial."""
    out = []
    for i, k in top.items():
        m = maps[i]
        if m is None:
            return None
        out.append(m + (k,))
    return out


def _subs_cleared(p: Polynomial, subs: Mapping[int, Quotient],
                  top: Mapping[int, int], maps: list | None) -> Polynomial:
    """p with each x_i replaced by subs[i] = n_i/d_i, multiplied by the
    product of d_i ** top[i]; top[i] is at least p's degree in x_i, so
    the result is a polynomial.  ``maps`` is ``_clearing_maps`` of the
    bindings, None when one is no monomial."""
    if maps is not None:
        out = _subs_monomial(p, maps)
        if out is not None:
            return out
    out: dict = {}
    pow_cache: dict[tuple[int, int], Polynomial] = {}   # (id(base), k)

    def power(base: Polynomial, k: int) -> Polynomial:
        key = (id(base), k)
        if key not in pow_cache:
            pow_cache[key] = base ** k
        return pow_cache[key]

    # each binding's denominator, None where it is 1
    dens = [(i, v.num, None if _is_one(v.den) else v.den, top[i])
            for i, v in subs.items()]
    for e, q in p._terms.items():
        # the product starts at its first factor, which the constant 1
        # times it would hand back (no power is a unit Fraction)
        term = None
        rest = e
        for i, num, den, m in dens:
            k = (rest >> _SHIFT[i]) & 0xFF
            if k:
                rest -= k * _ONE[i]
                f = power(num, k)
                term = f if term is None else term * f
            if m > k and den is not None:
                f = power(den, m - k)
                term = f if term is None else term * f
        # times the unbound monomial rest * q, as Polynomial.__mul__ takes it
        t = _POLY_ONE._terms if term is None else term._terms
        if not rest and q == 1:
            _add_into(out, t.items())
        elif len(t) == 1 and t.get(0) == 1:
            _add_into(out, ((rest, q),))
        elif t:
            _check_degree(_degree(max(t)) + _degree(rest))
            _add_into(out, [(e1 + rest, q1 * q) for e1, q1 in t.items()])
    return Polynomial._new(out)


def _subs_monomial(p: Polynomial, maps: list) -> Polynomial | None:
    """``_subs_cleared`` when every binding is a monomial or zero over a
    monomial: each term of p goes to one term, whose key is the sum of the
    keys and whose coefficient is the product of the coefficients' powers,
    so no product of polynomials is taken.  Terms come out in p's order
    and are summed as the general loop sums them.  None when a term's
    degree, counting every power the general loop takes, passes
    MAX_DEGREE; that loop then decides whether the substitution raises."""
    terms = []
    for e, q in p._terms.items():
        key = e
        for s, step, nc, dk, dc, m in maps:
            k = (e >> s) & 0xFF
            if k:
                key += k * step
                if nc != 1:
                    q = q * nc ** k
            if m > k:
                key += (m - k) * dk
                if dc != 1:
                    q = q * dc ** (m - k)
        # every field is at most the total degree, so no field has carried
        if key >> _DEG_SHIFT > MAX_DEGREE:
            return None
        if q:               # else the term met a variable bound to zero
            terms.append((key, q))
    out: dict = {}
    _add_into(out, terms)
    return Polynomial._new(out)


# ---------------------------------------------------------------------------
# small convenience layer used throughout the package


def rf(x) -> RationalFunction:
    return RationalFunction.coerce(x)


def rfvar(name: str) -> RationalFunction:
    return RationalFunction.variable(name)


def rfvars(*names: str) -> tuple[RationalFunction, ...]:
    return tuple(RationalFunction.variable(n) for n in names)
