"""Exact integer matrix utilities: Smith normal form, kernels, solving.

Matrices are lists of lists of Python ints (rows).  Everything is exact,
and dimensions are at most 10, but the lattice suite that calls these is
the largest part of ``verify``: a matrix solved against several
right-hand sides is factored once (``integer_solver``).
"""
from __future__ import annotations

from operator import mul


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _dims(a) -> str:
    """'rows x cols' for an error message; a ragged matrix shows every
    row length it has."""
    widths = sorted({len(row) for row in a}) or [0]
    return f"{len(a)}x{'/'.join(map(str, widths))}"


def matmul(a, b):
    """a @ b, each entry one row of a against one column of b (rows may be
    tuples); ValueError on ragged rows or mismatched shapes."""
    m = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != m for row in b):
        raise ValueError(f"cannot multiply {_dims(a)} by {_dims(b)}")
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def matvec(a, v):
    if any(len(row) != len(v) for row in a):
        raise ValueError(f"cannot multiply {_dims(a)} by a vector of length {len(v)}")
    return [sum(map(mul, row, v)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def smith_normal_form(a):
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

    def clear(t):
        """Clear row t and column t off the diagonal by repeated division
        with remainder, then make d[t][t] nonnegative."""
        while True:
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
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

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
        clear(t)
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
                clear(i)
                clear(i + 1)
                changed = True
    return u, d, v


def kernel_basis(a):
    """Basis of the integer kernel {x : a @ x == 0}; the lattice it spans is
    saturated (a direct summand), as integer kernels always are."""
    n = len(a)
    m = len(a[0]) if n else 0
    if n == 0:
        return [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    u, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(n, m)) if d[i][i] != 0)
    cols = transpose(v)
    return [cols[j] for j in range(rank, m)]


def integer_solver(a):
    """Factor a once (Smith normal form) and return ``solve(b)``: one
    integer solution x of a @ x == b, or None if none exists."""
    n = len(a)
    m = len(a[0]) if n else 0
    u, d, v = smith_normal_form(a)
    r = min(n, m)
    diag = [d[i][i] for i in range(r)]

    def solve(b):
        ub = matvec(u, b)
        y = [0] * m
        for i in range(r):
            if diag[i]:
                if ub[i] % diag[i]:
                    return None
                y[i] = ub[i] // diag[i]
            elif ub[i]:
                return None
        for i in range(r, n):
            if ub[i]:
                return None
        return matvec(v, y)

    return solve


def solve_integer(a, b):
    """One integer solution x of a @ x == b, or None if none exists."""
    return integer_solver(a)(b)


def det(a):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invert_unimodular(a):
    """Exact inverse of an integer matrix with det +-1 (integer output):
    u @ a @ v == I gives a^-1 = v @ u."""
    u, d, v = smith_normal_form(a)
    if d != identity(len(a)):
        raise ValueError("matrix is not unimodular")
    return matmul(v, u)
