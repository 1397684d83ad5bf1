"""Checks of the rank-10 class lattice: pairing, named classes,
complements, and the numeric invariants derived from them.  Verdicts the
`verify` registry states are asserted once, by
`test_acceptance.test_check`."""
from dataclasses import make_dataclass

from hypothesis import given
from hypothesis import strategies as st

import pytest

from p2lab import intlinalg, lattice
from p2lab.lattice import DivisorClass, GRAM, RANK


vectors = st.lists(st.integers(-8, 8), min_size=RANK, max_size=RANK)
# orbit classes grow like n^2, so the pairing meets large coefficients
big_vectors = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=RANK,
                       max_size=RANK)


def cls(v):
    return DivisorClass(tuple(v))


def row_walk_pair(a, b):
    """The pairing as it ran before it read the form's nonzero entries:
    every Gram row of a nonzero coefficient of a, walked in full."""
    total = 0
    for i, ai in enumerate(a.coeffs):
        if ai:
            row = GRAM[i]
            total += ai * sum(row[j] * bj for j, bj in enumerate(b.coeffs) if bj)
    return total


# DivisorClass as it was declared before it became a namedtuple
RefDivisorClass = make_dataclass("DivisorClass", [("coeffs", tuple)],
                                 frozen=True)


@given(big_vectors, big_vectors)
def test_divisor_class_compares_hashes_and_prints_like_the_dataclass(u, v):
    a, b = cls(u), cls(v)
    ref_a, ref_b = RefDivisorClass(tuple(u)), RefDivisorClass(tuple(v))
    for x, ref_x in ((a, ref_a), (b, ref_b)):
        assert hash(x) == hash(ref_x)
        assert repr(x) == repr(ref_x)
        assert x == cls(list(ref_x.coeffs))
    assert (a == b) == (ref_a == ref_b)
    assert (a != b) == (ref_a != ref_b)


@pytest.mark.parametrize("components,message", [
    ({"S": 1.5}, "10 integer coefficients"),
    ({"S": "1"}, "10 integer coefficients"),
    ({"E9": 1}, "unknown basis element 'E9'"),
], ids=["float", "string", "unknown-name"])
def test_of_refuses_non_integers_and_unknown_names(components, message):
    # a float used to be truncated by int(), and a string named the
    # element unknown
    with pytest.raises(lattice.LatticeError, match=message):
        DivisorClass.of(**components)


@given(big_vectors, big_vectors)
def test_pairing_matches_the_row_walk(u, v):
    a, b = cls(u), cls(v)
    assert lattice.pair(a, b) == row_walk_pair(a, b)
    assert lattice.pair(a, a) == row_walk_pair(a, a)


def test_gram_matches_the_row_walk():
    from p2lab import weyl
    for classes in (lattice.d_chain(), weyl.action_basis_classes()):
        assert lattice.gram(classes) == [[row_walk_pair(a, b) for b in classes]
                                         for a in classes]


def full_gram(classes):
    """gram as it was before it took each symmetric pair once."""
    return [[lattice.pair(a, b) for b in classes] for a in classes]


@given(st.lists(big_vectors, max_size=12))
def test_symmetric_gram_matches_the_full_double_loop(vs):
    classes = [cls(v) for v in vs]
    assert lattice.gram(classes) == full_gram(classes)


def containment_sublattice_equal(gens_a, gens_b):
    """sublattice_equal as it was before the same-classes shortcut: two
    containment tests, one Smith form each."""

    def contained(gens, in_gens):
        if not in_gens:
            return all(all(x == 0 for x in g.coeffs) for g in gens)
        solve = intlinalg.integer_solver(
            [[g.coeffs[i] for g in in_gens] for i in range(RANK)])
        return all(solve(list(g.coeffs)) is not None for g in gens)

    return contained(gens_a, gens_b) and contained(gens_b, gens_a)


small_vectors = st.lists(st.integers(-3, 3), min_size=RANK, max_size=RANK)


@given(st.lists(small_vectors, max_size=5), st.randoms(use_true_random=False),
       st.integers(0, 3), st.lists(small_vectors, max_size=2),
       st.integers(0, 5))
def test_same_classes_shortcut_matches_the_containment_tests(
        vs, rnd, dups, extra, drop):
    a = [cls(v) for v in vs]
    # b: a permuted, with duplicates, then maybe with classes added or one
    # dropped, so that the lists hold the same classes or differ
    b = a + [rnd.choice(a) for _ in range(dups if a else 0)]
    rnd.shuffle(b)
    b += [cls(v) for v in extra]
    if drop < len(b) and drop % 2:
        del b[drop]
    for x, y in ((a, b), (b, a)):
        assert lattice.sublattice_equal(x, y) == \
            containment_sublattice_equal(x, y)


def test_same_classes_take_no_smith_form(monkeypatch):
    from p2lab import weyl
    calls = []
    real = intlinalg.integer_solver
    monkeypatch.setattr(intlinalg, "integer_solver",
                        lambda a: calls.append(1) or real(a))
    d = lattice.d_chain()
    for m in (weyl.jstar(), weyl.istar()):
        image = [m.apply(x) for x in d]
        assert set(image) == set(d)
        assert lattice.sublattice_equal(image, d)
    assert lattice.sublattice_equal(d + d[:3], list(reversed(d)))
    assert calls == []
    # a different list of the same span still takes the containment tests
    assert lattice.sublattice_equal(d[1:] + [d[0] + d[1]], d)
    assert calls == [1, 1]


@given(vectors, vectors, vectors, st.integers(-5, 5))
def test_pairing_is_symmetric_bilinear(u, v, w, k):
    a, b, c = cls(u), cls(v), cls(w)
    assert lattice.pair(a, b) == lattice.pair(b, a)
    assert lattice.pair(a + b, c) == lattice.pair(a, c) + lattice.pair(b, c)
    assert lattice.pair(k * a, b) == k * lattice.pair(a, b)


def test_gram_matrix_shape():
    assert len(GRAM) == RANK
    assert GRAM[0][0] == 2 and GRAM[0][1] == 1 and GRAM[1][1] == 0
    for i in range(2, RANK):
        assert GRAM[i][i] == -1
        for j in range(RANK):
            if j != i:
                assert GRAM[i][j] == 0


def test_unimodularity():
    from p2lab.intlinalg import det
    assert det(GRAM) == -1


def test_diagonalization_guard_raises(monkeypatch):
    bent = [row[:] for row in GRAM]
    bent[0][0] += 2
    monkeypatch.setattr(lattice, "GRAM", bent)
    with pytest.raises(lattice.LatticeError):
        lattice.diagonalize_unimodular()


def test_named_class_squares():
    reg = lattice.named_classes()
    for name in ("C1", "C2", "C3", "C4"):
        assert lattice.pair(reg[name], reg[name]) == -1, name
    for name in ("C5", "C6"):        # bisections, not sections
        assert lattice.pair(reg[name], reg[name]) == 0, name
    for i in range(8):
        assert lattice.pair(reg[f"D{i}"], reg[f"D{i}"]) == -2
    f = lattice.anticanonical_class()
    assert lattice.pair(f, f) == 0
    assert reg["F"] == f
    assert reg["K"] == lattice.canonical_class() == -f


def test_fiber_multiplicities():
    reg = lattice.named_classes()
    f = lattice.anticanonical_class()
    for name in ("C1", "C2", "C3", "C4"):
        assert lattice.pair(reg[name], f) == 1, name
    for name in ("C5", "C6"):
        assert lattice.pair(reg[name], f) == 2, name


def test_complement_is_saturated():
    # index-1 embedding: the gcd of all 2x2 minors of the coefficient
    # matrix is 1, so the span is a direct summand, not a finite-index
    # sublattice of one
    from math import gcd
    comp = lattice.ortho_complement(lattice.d_chain())
    a, b = comp
    minors = [a.coeffs[i] * b.coeffs[j] - a.coeffs[j] * b.coeffs[i]
              for i in range(RANK) for j in range(i + 1, RANK)]
    g = 0
    for m in minors:
        g = gcd(g, m)
    assert g == 1


def test_section_expansion():
    # the registry pins the coordinates; they must also rebuild C2
    reg = lattice.named_classes()
    basis = [reg["C1"], reg["C3"]] + lattice.d_chain()
    coords = lattice.express_in_basis(reg["C2"], basis)
    rebuilt = DivisorClass.zero()
    for k, b in zip(coords, basis):
        rebuilt = rebuilt + k * b
    assert rebuilt == reg["C2"]


def test_express_in_basis_rejects_outsiders():
    reg = lattice.named_classes()
    with pytest.raises(lattice.NotInLattice):
        lattice.express_in_basis(reg["C1"], [2 * reg["C1"]])
    with pytest.raises(lattice.Degenerate):
        lattice.express_in_basis(reg["C1"], lattice.d_chain())


def test_express_in_basis_over_the_empty_basis():
    # the empty Gram matrix has determinant 1; only the zero class is in
    # the span of nothing
    assert lattice.express_in_basis(DivisorClass.zero(), []) == []
    with pytest.raises(lattice.NotInLattice):
        lattice.express_in_basis(lattice.named_classes()["C1"], [])


def test_diagonalization_realizes_signature():
    # the registry checks U^T G U = diag(1, -1, ..., -1), which makes the
    # integral U unimodular; the determinant is taken here, not at run time
    from p2lab.intlinalg import det
    assert abs(det(lattice.diagonalize_unimodular())) == 1


def test_regime_registries():
    assert set(lattice.REGIMES) == {"generic", "c=0", "c=-1"}
    assert "C2prime" in lattice.named_classes("c=0")
    assert "C4prime" in lattice.named_classes("c=-1")
    assert "C2prime" not in lattice.named_classes("generic")
    # extra -2-classes orthogonal to the anticanonical class
    f = lattice.anticanonical_class()
    extra0 = lattice.named_classes("c=0")["C2prime"]
    extram = lattice.named_classes("c=-1")["C4prime"]
    assert lattice.pair(extra0, extra0) == -2
    assert lattice.pair(extram, extram) == -2
    assert lattice.pair(extra0, f) == 0
    assert lattice.pair(extram, f) == 0


@pytest.mark.parametrize("regime", lattice.REGIMES)
def test_registry_is_built_once_and_read_only(regime):
    reg = lattice.named_classes(regime)
    assert lattice.named_classes(regime) == reg
    with pytest.raises(TypeError):
        reg["C1"] = reg["C3"]
    with pytest.raises(TypeError):
        del reg["S"]
    assert lattice.named_classes(regime)["C1"] == DivisorClass.of(f=1, E1=-1)


def test_unknown_regime_is_rejected():
    with pytest.raises(lattice.LatticeError):
        lattice.named_classes("x")


def test_table_csv_deterministic_and_symmetric():
    text = lattice.intersection_table_csv("generic")
    assert text == lattice.intersection_table_csv("generic")
    rows = [line.split(",") for line in text.strip().splitlines()]
    header = rows[0][1:]
    body = {r[0]: r[1:] for r in rows[1:]}
    assert list(body) == header
    for i, a in enumerate(header):
        for j, b in enumerate(header):
            assert body[a][j] == body[b][i]
    # spot value quoted everywhere downstream: the two off-fiber sections
    assert body["C2"][header.index("C4")] == "2"
