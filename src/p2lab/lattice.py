"""Rank-10 intersection lattice of the blown-up rational ruled surface.

Basis order is fixed as (S, f, E1, ..., E8): S the chosen section with
S.S = 2, f the fiber class, E1..E8 the exceptional classes of the eight
point blow-ups.  The pairing is diag-block [[2,1],[1,0]] on (S, f) and
-identity on the E's; it is unimodular of signature (1, 9).  ``GRAM`` is
the one place the form is written; its 11 nonzero entries are read off it
once, at import, and ``pair`` and ``ortho_complement`` loop over those.

The named curve classes live here as a registry keyed by parameter regime
("generic", "c=0", "c=-1"), built once per regime as a read-only mapping;
the blow-up engine in ``blowup`` recomputes the same classes from defining
equations, and tests compare the two routes.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from . import intlinalg

BASIS = ("S", "f", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")
RANK = 10

GRAM = [
    [2, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
]
# (i, j, GRAM[i][j]) for the nonzero entries
_FORM = tuple((i, j, g) for i, row in enumerate(GRAM) for j, g in enumerate(row) if g)

REGIMES = ("generic", "c=0", "c=-1")


class LatticeError(Exception):
    pass


class NotInLattice(LatticeError):
    """Target is not an integer combination of the proposed basis."""


class Degenerate(LatticeError):
    """The Gram matrix of the proposed basis is singular."""


class DivisorClass(namedtuple("DivisorClass", "coeffs")):
    """Integer vector in the (S, f, E1..E8) basis."""

    __slots__ = ()

    def __new__(cls, coeffs):
        if len(coeffs) != RANK or not all(isinstance(x, int) for x in coeffs):
            raise LatticeError("a divisor class needs 10 integer coefficients")
        return super().__new__(cls, coeffs)

    @classmethod
    def of(cls, **components) -> "DivisorClass":
        v = [0] * RANK
        for name, value in components.items():
            try:
                i = BASIS.index(name)
            except ValueError:
                raise LatticeError(f"unknown basis element {name!r}") from None
            v[i] = value
        return cls(tuple(v))

    @classmethod
    def zero(cls) -> "DivisorClass":
        return cls((0,) * RANK)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(k * a for a in self.coeffs))

    def __str__(self) -> str:
        parts = []
        for name, a in zip(BASIS, self.coeffs):
            if a == 0:
                continue
            body = name if abs(a) == 1 else f"{abs(a)}*{name}"
            parts.append(("-" if a < 0 else "+", body))
        if not parts:
            return "0"
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def pair(a: DivisorClass, b: DivisorClass) -> int:
    x, y = a.coeffs, b.coeffs
    total = 0
    for i, j, g in _FORM:
        total += g * x[i] * y[j]
    return total


def gram(classes: list[DivisorClass]) -> list[list[int]]:
    """Pairwise intersection matrix; the form is symmetric, so each pair
    is taken once."""
    n = len(classes)
    g = [[0] * n for _ in range(n)]
    for i, a in enumerate(classes):
        for j in range(i, n):
            g[i][j] = g[j][i] = pair(a, classes[j])
    return g


def ortho_complement(generators: list[DivisorClass]) -> list[DivisorClass]:
    """Saturated basis of everything orthogonal to the given classes."""
    a = []
    for gen in generators:
        row = [0] * RANK                # G·gen, read off the nonzero entries
        for i, j, g in _FORM:
            row[j] += g * gen.coeffs[i]
        a.append(row)
    return [DivisorClass(tuple(v)) for v in intlinalg.kernel_basis(a)]


def sublattice_equal(gens_a: list[DivisorClass], gens_b: list[DivisorClass]) -> bool:
    """Do the two generating sets span the same sublattice over Z?  Two
    lists of the same classes do, with no Smith form taken."""
    if set(gens_a) == set(gens_b):
        return True

    def contained(gens, in_gens):
        if not in_gens:
            return all(all(x == 0 for x in g.coeffs) for g in gens)
        # one Smith form per containment test, not one per vector
        solve = intlinalg.integer_solver(
            [[g.coeffs[i] for g in in_gens] for i in range(RANK)])
        return all(solve(list(g.coeffs)) is not None for g in gens)

    return contained(gens_a, gens_b) and contained(gens_b, gens_a)


def express_in_basis(target: DivisorClass, basis: list[DivisorClass]) -> list[int]:
    """Integer coordinates of target in the proposed basis.

    Raises Degenerate if the basis Gram matrix is singular, NotInLattice if
    the target is not an integer combination.
    """
    g = gram(basis)
    if intlinalg.det(g) == 0:
        raise Degenerate("proposed basis has singular Gram matrix")
    cols = [[b.coeffs[i] for b in basis] for i in range(RANK)]
    x = intlinalg.solve_integer(cols, list(target.coeffs))
    if x is None:
        raise NotInLattice(f"{target} is not in the integer span")
    return x


EulerInvariants = namedtuple(
    "EulerInvariants", "K2 c2 chi_theta h1_theta h1_log h1_log_plus")


def euler_invariants() -> EulerInvariants:
    """Numerical invariants of the open surface, derived from the lattice.

    c2 comes from Noether's formula with chi(O) = 1; the Euler
    characteristic of the tangent sheaf is K^2 - c2 + 2; h1 of the tangent
    sheaf equals minus that (h0 and h2 both vanish); removing the eight
    (-2)-components of the boundary kills an 8-dimensional piece, and
    adding the extra (-2)-curve of the c=0 regime one more.
    """
    k = canonical_class()
    k2 = pair(k, k)
    c2 = 12 * 1 - k2
    chi_theta = k2 - c2 + 2
    h1_theta = -chi_theta
    h1_log = h1_theta - 8
    h1_log_plus = h1_log - 1
    return EulerInvariants(k2, c2, chi_theta, h1_theta, h1_log, h1_log_plus)


def diagonalize_unimodular() -> list[list[int]]:
    """Unimodular U with U^T G U = diag(1, -1, ..., -1).

    The columns are the basis (S - E1, f - E1, S - f - E1, E2, ..., E8):
    contracting E1 and the two rulings through the first center exhibits the
    surface as a 9-point blow-up of the projective plane, whose hyperplane
    class is the first column.
    """
    h = DivisorClass.of(S=1, E1=-1)
    e1 = DivisorClass.of(f=1, E1=-1)
    e2 = DivisorClass.of(S=1, f=-1, E1=-1)
    rest = [DivisorClass.of(**{f"E{i}": 1}) for i in range(2, 9)]
    cols = [h, e1, e2] + rest
    u = [[col.coeffs[i] for col in cols] for i in range(RANK)]
    target = [[0] * RANK for _ in range(RANK)]
    target[0][0] = 1
    for i in range(1, RANK):
        target[i][i] = -1
    # U and G are integral, so U^T G U = target gives det(U)^2 det(G) = -1
    # in the integers: det(U) = +-1 and U is unimodular
    ut = intlinalg.transpose(u)
    if intlinalg.matmul(intlinalg.matmul(ut, GRAM), u) != target:
        raise LatticeError("basis change does not diagonalize the form")
    return u


# ---------------------------------------------------------------------------
# named classes


def _e_range(lo: int, hi: int) -> dict:
    return {f"E{i}": -1 for i in range(lo, hi + 1)}


@lru_cache(maxsize=None)
def named_classes(regime: str = "generic") -> MappingProxyType:
    """Classes of the boundary components and the named affine curves, as
    a read-only name -> DivisorClass mapping built once per regime, in the
    order of the curves table.

    The same vectors are valid in every regime; the regimes differ only in
    which primed (split-off) components exist as curves.
    """
    if regime not in REGIMES:
        raise LatticeError(f"unknown regime {regime!r}; choose from {REGIMES}")
    reg = {
        "S": DivisorClass.of(S=1),
        "f": DivisorClass.of(f=1),
        "D0": DivisorClass.of(S=1, E1=-1, E2=-1, E3=-1, E4=-1),
    }
    for i in range(1, 8):
        reg[f"D{i}"] = DivisorClass.of(**{f"E{i}": 1, f"E{i+1}": -1})
    reg["C1"] = DivisorClass.of(f=1, E1=-1)
    reg["C2"] = DivisorClass.of(S=1, f=-1, E1=-1)
    if regime == "c=0":
        reg["C2prime"] = DivisorClass.of(S=1, f=-2)
    reg["C3"] = DivisorClass.of(E8=1)
    reg["C4"] = DivisorClass.of(S=1, f=2, **_e_range(1, 7))
    if regime == "c=-1":
        reg["C4prime"] = DivisorClass.of(S=1, f=2, **_e_range(1, 8))
    reg["C5"] = DivisorClass.of(S=1, f=-1)
    reg["C6"] = DivisorClass.of(S=1, f=3, **_e_range(1, 8))
    reg["F"] = DivisorClass.of(S=2, **_e_range(1, 8))
    reg["K"] = DivisorClass.of(S=-2, **{f"E{i}": 1 for i in range(1, 9)})
    return MappingProxyType(reg)


def registry_order(regime: str = "generic") -> tuple[str, ...]:
    """``named_classes(regime)``'s names, in the order of the table."""
    return tuple(named_classes(regime))


def canonical_class() -> DivisorClass:
    return named_classes("generic")["K"]


def anticanonical_class() -> DivisorClass:
    return named_classes("generic")["F"]


def d_chain() -> list[DivisorClass]:
    reg = named_classes("generic")
    return [reg[f"D{i}"] for i in range(8)]


def intersection_table_csv(regime: str = "generic") -> str:
    """Full pairwise intersection table of the named classes, as CSV."""
    reg = named_classes(regime)
    order = registry_order(regime)
    lines = ["class," + ",".join(order)]
    for a in order:
        row = [str(pair(reg[a], reg[b])) for b in order]
        lines.append(a + "," + ",".join(row))
    return "\n".join(lines) + "\n"
