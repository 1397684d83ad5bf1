"""Random-matrix checks for the integer linear algebra helpers."""
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from p2lab.intlinalg import (
    det,
    identity,
    integer_solver,
    invert_unimodular,
    kernel_basis,
    matmul,
    matvec,
    smith_normal_form,
    solve_integer,
)


def matrices(rows, cols, lo=-6, hi=6):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), matrices(n, 4))))
def test_smith_normal_form(args):
    _, a = args
    u, d, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0


@given(matrices(3, 5))
def test_kernel_basis_annihilates(a):
    for k in kernel_basis(a):
        assert matvec(a, k) == [0, 0, 0]
    # kernel dimension complements the rank over the rationals
    _, d, _ = smith_normal_form(a)
    rank = sum(1 for i in range(3) if d[i][i] != 0)
    assert len(kernel_basis(a)) == 5 - rank


@given(matrices(4, 3), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_solve_integer_round_trip(a, x):
    b = matvec(a, x)
    sol = solve_integer(a, b)
    assert sol is not None
    assert matvec(a, sol) == b


@given(matrices(3, 3))
def test_solve_integer_detects_unsolvable(a):
    # doubling a full-rank odd system forces non-integer solutions
    if det(a) == 0:
        return
    b = matvec(a, [1, 1, 1])
    b2 = [2 * x + 1 for x in b]
    sol = solve_integer(a, b2)
    if sol is not None:
        assert matvec(a, sol) == b2


@given(matrices(3, 3), matrices(3, 3))
def test_det_is_multiplicative(a, b):
    assert det(matmul(a, b)) == det(a) * det(b)


@given(matrices(4, 4))
def test_det_matches_cofactor_expansion(a):
    def minor(m, i, j):
        return [[m[r][c] for c in range(len(m)) if c != j]
                for r in range(len(m)) if r != i]

    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j] * cofactor(minor(m, 0, j))
                   for j in range(len(m)))

    assert det(a) == cofactor(a)


def test_det_of_the_empty_matrix_is_one():
    assert det([]) == 1


def one_shot_solve_integer(a, b):
    """solve_integer as it was before the factoring was shared: a Smith
    form of a for every right-hand side."""
    n = len(a)
    m = len(a[0]) if n else 0
    u, d, v = smith_normal_form(a)
    ub = matvec(u, b)
    y = [0] * m
    for i in range(min(n, m)):
        if d[i][i]:
            if ub[i] % d[i][i]:
                return None
            y[i] = ub[i] // d[i][i]
        elif ub[i]:
            return None
    for i in range(min(n, m), n):
        if ub[i]:
            return None
    return matvec(v, y)


def test_integer_solver_matches_the_one_shot_route():
    # one factoring serves every right-hand side of its matrix
    rng = random.Random(20261019)
    systems = [([], [[]]), ([[]] * 3, [[0, 0, 0], [0, 2, 0]])]
    for _ in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.4:
            # singular: one row a multiple of another
            i, j = rng.sample(range(rows), 2)
            a[i] = [rng.randint(-2, 2) * x for x in a[j]]
        bs = []
        for _ in range(3):
            x = [rng.randint(-5, 5) for _ in range(cols)]
            noise = [rng.choice((0, 0, 1)) for _ in range(rows)]
            bs.append([p + q for p, q in zip(matvec(a, x), noise)])
        systems.append((a, bs))
    outcomes = set()
    for a, bs in systems:
        solve = integer_solver(a)
        for b in bs:
            want = one_shot_solve_integer(a, b)
            assert solve(b) == want == solve_integer(a, b), (a, b)
            outcomes.add(want is None)
    assert outcomes == {True, False}


@st.composite
def unimodular(draw):
    """A product of random elementary integer operations on the identity:
    row swaps, sign flips and adding a multiple of one row to another."""
    n = draw(st.integers(1, 5))
    m = identity(n)
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("swap", "negate", "add")))
        if op == "swap":
            m[i], m[j] = m[j], m[i]
        elif op == "negate":
            m[i] = [-x for x in m[i]]
        elif i != j:
            k = draw(st.integers(-4, 4))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


@given(unimodular())
def test_invert_unimodular_is_an_inverse(m):
    inv = invert_unimodular(m)
    assert matmul(inv, m) == identity(len(m))
    assert matmul(m, inv) == identity(len(m))


def test_invert_unimodular():
    m = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    inv = invert_unimodular(m)
    assert matmul(m, inv) == identity(3)
    assert matmul(inv, m) == identity(3)
    with pytest.raises(Exception):
        invert_unimodular([[2, 0], [0, 1]])


@pytest.mark.parametrize("a", [[[2]], [[2, 0], [0, 1]], [[1, 1], [1, -1]]])
def test_invert_unimodular_rejects_other_determinants(a):
    with pytest.raises(ValueError, match="not unimodular"):
        invert_unimodular(a)


def run_optimized(env, code):
    """Run code in a child ``python -O`` on this checkout."""
    return subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=env)


def test_unimodular_guard_survives_optimized_mode(checkout_env):
    # the guard is a raise, not an assert, so python -O keeps it
    r = run_optimized(checkout_env,
                      "from p2lab.intlinalg import invert_unimodular\n"
                      "invert_unimodular([[2]])\n")
    assert r.returncode == 1
    assert "ValueError: matrix is not unimodular" in r.stderr


def test_matmul_shape_guard_survives_optimized_mode(checkout_env):
    r = run_optimized(checkout_env,
                      "from p2lab.intlinalg import matmul\n"
                      "matmul([[1, 2, 3]], [[1], [1]])\n")
    assert r.returncode == 1
    assert "ValueError: cannot multiply 1x3 by 2x1" in r.stderr


# ---------------------------------------------------------------------------
# smith_normal_form against the earlier form with a separate 2x2 routine
# for the divisibility fix-up, kept verbatim as a reference.


def _reference_snf(a):
    """Return (u, d, v) with u @ a @ v == d, u and v unimodular, d diagonal
    with d[i][i] dividing d[i+1][i+1]."""
    d = [list(row) for row in a]
    n = len(d)
    m = len(d[0]) if n else 0
    u = identity(n)
    v = identity(m)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, k):
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        # find a pivot
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if d[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, n):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    addmul_row(i, t, -q)
                    if d[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, m):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    addmul_col(j, t, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    # enforce the divisibility chain d[i] | d[i+1] (zeros are already last,
    # since the elimination loop always pivots on a nonzero when one exists)
    r = min(n, m)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a_, b_ = d[i][i], d[i + 1][i + 1]
            if a_ and b_ % a_ != 0:
                addmul_row(i, i + 1, 1)
                _rediagonalize_pair(d, u, v, i)
                changed = True
    return u, d, v


def _rediagonalize_pair(d, u, v, t):
    """Re-clear the 2x2 block at (t, t) after mixing rows t and t+1."""
    n, m = len(d), len(d[0])

    def addmul_row(dst, src, k):
        d[dst] = [x + k * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, k):
        for row in d:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    while True:
        done = True
        for i in (t + 1,):
            if i < n and d[i][t]:
                q = d[i][t] // d[t][t]
                addmul_row(i, t, -q)
                if d[i][t]:
                    swap_rows(t, i)
                    done = False
        for j in (t + 1,):
            if j < m and d[t][j]:
                q = d[t][j] // d[t][t]
                addmul_col(j, t, -q)
                if d[t][j]:
                    swap_cols(t, j)
                    done = False
        if done:
            break
    if d[t][t] < 0:
        d[t] = [-x for x in d[t]]
        u[t] = [-x for x in u[t]]
    if t + 1 < min(n, m) and d[t + 1][t + 1] < 0:
        d[t + 1] = [-x for x in d[t + 1]]
        u[t + 1] = [-x for x in u[t + 1]]


@pytest.mark.parametrize("a", [
    [[2, 0], [0, 3]],
    [[4, 0], [0, 6]],
    [[6, 0, 0], [0, 4, 0], [0, 0, 10]],
    [[2, 0, 0], [0, 3, 0]],
    [[0, 0], [0, 0]],
    [[-5]],
])
def test_smith_normal_form_matches_reference_on_fixups(a):
    assert smith_normal_form(a) == _reference_snf(a)


def test_smith_normal_form_matches_reference_on_random(monkeypatch):
    fixups = []
    pair = _rediagonalize_pair

    def counted(d, u, v, t):
        fixups.append(t)
        pair(d, u, v, t)
    monkeypatch.setattr(sys.modules[__name__], "_rediagonalize_pair", counted)
    rng = random.Random(20261018)
    for _ in range(3000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(a) == _reference_snf(a), a
    # the random matrices exercise the divisibility fix-up, not only the
    # elimination loop
    assert len(fixups) > 100


# ---------------------------------------------------------------------------
# matmul and matvec against the indexing generators they replaced, kept as
# references


def indexing_matmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"cannot multiply {n}x{len(a[0])} by {k}x{m}")
    return [[sum(a[i][s] * b[s][j] for s in range(k)) for j in range(m)] for i in range(n)]


def indexing_matvec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


big = st.integers(-10 ** 6, 10 ** 6)


@given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda nkm: st.tuples(matrices(nkm[0], nkm[1], -10 ** 6, 10 ** 6),
                          matrices(nkm[1], nkm[2], -10 ** 6, 10 ** 6))))
def test_matmul_matches_the_indexing_route(ab):
    a, b = ab
    assert matmul(a, b) == indexing_matmul(a, b)
    # rows may be tuples, as LatticeIsometry stores them
    assert matmul(tuple(map(tuple, a)), tuple(map(tuple, b))) == matmul(a, b)


@given(st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda nk: st.tuples(matrices(nk[0], nk[1], -10 ** 6, 10 ** 6),
                         st.lists(big, min_size=nk[1], max_size=nk[1]))))
def test_matvec_matches_the_indexing_route(av):
    a, v = av
    assert matvec(a, v) == indexing_matvec(a, v)


@pytest.mark.parametrize("a,v", [
    ([[1, 2, 3]], [1, 1]),           # the indexing route returned [3]
    ([[1, 2]], [1, 1, 1]),           # ... and raised IndexError here
    ([[1, 2], [1]], [1, 1]),         # ragged
])
def test_matvec_rejects_mismatched_shapes(a, v):
    with pytest.raises(ValueError, match="cannot multiply"):
        matvec(a, v)


@pytest.mark.parametrize("a,b", [
    ([[1, 2, 3]], [[1], [1]]),
    ([[1, 2], [3]], [[1], [1]]),     # ragged left operand
    ([[1, 2]], [[1], [2, 3]]),       # ragged right operand
    ([[1]], []),                     # empty right operand
])
def test_matmul_rejects_mismatched_shapes(a, b):
    with pytest.raises(ValueError, match="cannot multiply"):
        matmul(a, b)


def test_empty_products_keep_their_shape():
    assert matmul([], [[1, 2]]) == []
    assert matmul([[]], []) == [[]]
    assert matvec([], [1, 2]) == []


def test_matvec_shape_guard_survives_optimized_mode(checkout_env):
    r = run_optimized(checkout_env,
                      "from p2lab.intlinalg import matvec\n"
                      "matvec([[1, 2, 3]], [1, 1])\n")
    assert r.returncode == 1
    assert "ValueError: cannot multiply 1x3 by a vector of length 2" in r.stderr
