"""Extended affine Weyl symmetries: parameter maps, lattice isometries,
and the infinite orbit of numerical -1-classes.

The two generators act on the parameter line as c -> -c and c -> -1-c:
these are the c-images of ``backlund``'s phase negation and phase
reflection, which ``param_word`` composes by substitution.  Their
induced actions on the rank-10 class lattice are integer matrices over
the standard basis (S, f, E1..E8), where the intersection form certifies
each as an isometry.  The D-fixing one is the reflection in the
(-2)-curve of the c = 0 regime; the D-reversing one is declared on the
basis (C1, C3, D0..D7) and conjugated.  The composite (first the
D-reversing map, then the D-fixing one) is the translation; iterating it
on C3 sweeps out the orbit whose members all square to -1 and meet the
anticanonical class once.

The orbit is walked once per process: ``orbit(n_max)`` extends a single
walk from C3 only past the longest prefix asked for so far, and
``gamma_full``, ``distinctness`` and ``orbit_report`` all read it.
Only the ``orbit`` command and ``scripts/orbit_growth.py`` read
``orbit_report``, whose mod-boundary pairs take a Smith-form solve each
(``reduce_mod_boundary``); verify's orbit check reads them as pairings
with the vanishing cycles C2 - C1 and C4 - C3, against which C1 and C3
pair as the unit matrix.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import backlund, intlinalg, lattice
from .exact import RationalFunction, rfvar
from .lattice import DivisorClass


class WeylError(Exception):
    pass


class NotIsometry(WeylError):
    """Induced matrix fails to preserve the intersection form."""


# ---------------------------------------------------------------------------
# action on the parameter line


_LETTERS = {"i": backlund.phase_negation, "j": backlund.phase_reflection}


def param_word(word) -> RationalFunction:
    """The parameter map of a word over {i, j} as a function of c: the
    c-images of the phase maps (``i`` the negation, ``j`` the reflection)
    composed by substitution, rightmost letter acting first."""
    out = rfvar("c")
    for letter in word:
        try:
            phase_map = _LETTERS[letter]
        except KeyError:
            raise WeylError(f"unknown generator {letter!r}") from None
        out = out.substitute({"c": phase_map().c_img})
    return out


def param_apply(word, c) -> Fraction:
    return param_word(word).eval_fractions({"c": Fraction(c)})


# ---------------------------------------------------------------------------
# induced isometries of the class lattice


class LatticeIsometry(namedtuple("LatticeIsometry", "matrix")):
    """Integer matrix over (S, f, E1..E8) preserving the pairing."""

    __slots__ = ()

    def __new__(cls, matrix):
        m = tuple(tuple(row) for row in matrix)
        g = lattice.GRAM
        if intlinalg.matmul(intlinalg.matmul(intlinalg.transpose(m), g), m) != g:
            raise NotIsometry("matrix does not preserve the intersection form")
        return super().__new__(cls, m)

    def apply(self, cls: DivisorClass) -> DivisorClass:
        return DivisorClass(tuple(intlinalg.matvec(self.matrix, cls.coeffs)))

    def compose(self, other: "LatticeIsometry") -> "LatticeIsometry":
        """self after other."""
        return LatticeIsometry(intlinalg.matmul(self.matrix, other.matrix))

    def is_involution(self) -> bool:
        # M*M is an isometry already, so no new LatticeIsometry is checked
        return intlinalg.matmul(self.matrix, self.matrix) == \
            intlinalg.identity(lattice.RANK)


_ACTION_BASIS = ("C1", "C3", "D0", "D1", "D2", "D3", "D4", "D5", "D6", "D7")


def action_basis_classes() -> list[DivisorClass]:
    reg = lattice.named_classes("generic")
    return [reg[n] for n in _ACTION_BASIS]


@lru_cache(maxsize=None)
def _basis_change():
    """Columns are the action-basis vectors; unimodular by construction."""
    cols = action_basis_classes()
    b = [[cols[j].coeffs[i] for j in range(10)] for i in range(10)]
    if abs(intlinalg.det(b)) != 1:
        raise WeylError("action basis is not a lattice basis")
    return b, intlinalg.invert_unimodular(b)


def action_coordinates(cls: DivisorClass) -> list[int]:
    """Integer coordinates of cls in the action basis (C1, C3, D0..D7),
    read through the basis change's cached inverse."""
    return intlinalg.matvec(_basis_change()[1], cls.coeffs)


def _conjugate(action_cols: list[list[int]]) -> LatticeIsometry:
    """Action given by columns in the (C1, C3, D0..D7) basis, conjugated
    to the standard basis."""
    b, binv = _basis_change()
    a = [[action_cols[j][i] for j in range(10)] for i in range(10)]
    m = intlinalg.matmul(intlinalg.matmul(b, a), binv)
    return LatticeIsometry(tuple(tuple(r) for r in m))


def _unit(k: int) -> list[int]:
    v = [0] * 10
    v[k] = 1
    return v


@lru_cache(maxsize=None)
def jstar() -> LatticeIsometry:
    """Class action of c -> -1-c: swaps C1 and C3, reverses the D-chain."""
    cols = [
        _unit(1),                      # C1 -> C3
        _unit(0),                      # C3 -> C1
        _unit(2),                      # D0 -> D0
    ]
    for i in range(1, 8):
        cols.append(_unit(2 + (8 - i)))  # Di -> D(8-i)
    return _conjugate(cols)


@lru_cache(maxsize=None)
def istar() -> LatticeIsometry:
    """Class action of c -> -c: the reflection x -> x + (x.a) a in the
    (-2)-curve a = C2prime that splits off C2 at c = 0, the fixed point of
    c -> -c.  It fixes C3 and every D and swaps C1 and C2 (so the map is
    total even though the point map is only birational)."""
    a = lattice.named_classes("c=0")["C2prime"].coeffs
    ga = intlinalg.matvec(lattice.GRAM, a)        # x.a = (G a) . x
    return LatticeIsometry(tuple(
        tuple(int(i == j) + a_i * ga_j for j, ga_j in enumerate(ga))
        for i, a_i in enumerate(a)))


@lru_cache(maxsize=None)
def tplus_star() -> LatticeIsometry:
    """Translation part: D-fixing map after D-reversing map."""
    return istar().compose(jstar())


# ---------------------------------------------------------------------------
# the -1-class orbit


_WALK: list[DivisorClass] = []     # translates of C3 so far: n = 1, 2, ...


def orbit(n_max: int) -> tuple[DivisorClass, ...]:
    """The first n_max translates of C3, numerical -1-classes all."""
    if n_max < 0:
        raise WeylError("n_max must be >= 0")
    if len(_WALK) < n_max:
        step = tplus_star()
        cls = _WALK[-1] if _WALK else lattice.named_classes("generic")["C3"]
        for _ in range(n_max - len(_WALK)):
            cls = step.apply(cls)
            _WALK.append(cls)
    return tuple(_WALK[:n_max])


def gamma_full(n: int) -> DivisorClass:
    """n-th translate of C3: a numerical -1-class for every n >= 1."""
    if n < 1:
        raise WeylError("n must be >= 1")
    return orbit(n)[-1]


_MOD_STEP = ((0, -1), (1, 2))


def gamma_mod(n: int) -> tuple[int, int]:
    """Coefficients of the n-th translate modulo the boundary span,
    written over (C1, C3).  Iterates the reduced 2x2 translation matrix
    from the seed (-1, 2)."""
    if n < 1:
        raise WeylError("n must be >= 1")
    a, b = -1, 2
    for _ in range(n - 1):
        a, b = _MOD_STEP[0][0] * a + _MOD_STEP[0][1] * b, \
               _MOD_STEP[1][0] * a + _MOD_STEP[1][1] * b
    return a, b


def gamma_mod_closed_form(n: int) -> tuple[int, int]:
    """Solved recurrence; independent route for cross-checking."""
    return (-n, n + 1)


def reduce_mod_boundary(cls: DivisorClass) -> tuple[int, int]:
    """(C1, C3)-coefficients of a class modulo span(D0..D7)."""
    coords = lattice.express_in_basis(cls, action_basis_classes())
    return coords[0], coords[1]


def distinctness(n_max: int) -> bool:
    """Pairwise distinctness of the first n_max orbit classes."""
    if n_max < 2:
        raise WeylError("n_max must be >= 2")
    return len({cls.coeffs for cls in orbit(n_max)}) == n_max


def orbit_report(n_max: int):
    """(n, class, square, anticanonical pairing, mod-boundary pair) rows."""
    f_cls = lattice.anticanonical_class()
    return [(n, cls, lattice.pair(cls, cls), lattice.pair(cls, f_cls),
             reduce_mod_boundary(cls))
            for n, cls in enumerate(orbit(n_max), 1)]


# Published coefficient list for n = 3..5 that conflicts with the
# recurrence those same sources establish; kept for the discrepancy
# report, never asserted.
STATED_GAMMA_MOD = {1: (-1, 2), 2: (-2, 3), 3: (-6, 10), 4: (-20, 34),
                    5: (-34, 116)}
GAMMA_ALLOWLIST = frozenset({3, 4, 5})
