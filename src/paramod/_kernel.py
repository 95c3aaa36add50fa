"""Gaussian-rational arithmetic and exact dense elimination.

Scalars are triples ``(a, b, d)`` of ints for ``(a + b*i)/d``, ``d > 0``,
``gcd(a, b, d) == 1``; every operation returns a triple in that normal form,
so equal values are equal tuples.  The matrix routines take lists of lists of
triples.  Determinant and rank use one-step Bareiss elimination (divisions are
exact at every step, keeping intermediate entries small); the reduced row
echelon form behind the nullspace and the affine solver uses plain
Gauss-Jordan, which is exact over a field.
"""

from math import gcd

T_ZERO = (0, 0, 1)
T_ONE = (1, 0, 1)


def t_norm(a, b, d):
    if d == 0:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return (a, b, d)


def t_add(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return t_norm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def t_sub(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return t_norm(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def t_mul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    return t_norm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def t_neg(x):
    a, b, d = x
    return (-a, -b, d)


def t_inv(x):
    a, b, d = x
    n = a * a + b * b
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return t_norm(d * a, -d * b, n)


def t_div(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    n = a2 * a2 + b2 * b2
    if n == 0:
        raise ZeroDivisionError("division by zero")
    # x / y = x * conj(y) * d2 / (d1 * |y|^2)
    return t_norm((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)


def _is_zero(x):
    return x[0] == 0 and x[1] == 0


def mat_det(rows, n):
    """Determinant of an n-by-n matrix of triples, one-step Bareiss."""
    m = [list(r) for r in rows]
    sign = 1
    prev = T_ONE
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return T_ZERO
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = t_sub(t_mul(pivot, row_i[j]), t_mul(lead, row_k[j]))
                row_i[j] = t_div(num, prev)
            row_i[k] = T_ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    if sign < 0:
        det = t_neg(det)
    return det


def mat_rank(rows, nrows, ncols):
    """Rank by fraction-free forward elimination."""
    m = [list(r) for r in rows]
    prev = T_ONE
    rank = 0
    row = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(row, nrows):
            if not _is_zero(m[i][col]):
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, nrows):
            lead = m[i][col]
            for j in range(col + 1, ncols):
                num = t_sub(t_mul(pivot, m[i][j]), t_mul(lead, m[row][j]))
                m[i][j] = t_div(num, prev)
            m[i][col] = T_ZERO
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def mat_rref(rows, nrows, ncols):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(row, nrows):
            if not _is_zero(m[i][col]):
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = t_inv(m[row][col])
        m[row] = [t_mul(inv, v) for v in m[row]]
        for i in range(nrows):
            if i != row and not _is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [t_sub(m[i][j], t_mul(f, m[row][j])) for j in range(ncols)]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def _free_basis(m, pivots, ncols):
    # one kernel vector per free column of the reduced matrix m
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [T_ZERO] * ncols
        vec[free] = T_ONE
        for r, pc in enumerate(pivots):
            vec[pc] = t_neg(m[r][free])
        basis.append(vec)
    return basis


def mat_nullspace(rows, nrows, ncols):
    """Basis of the right kernel, one vector per free column."""
    m, pivots = mat_rref(rows, nrows, ncols)
    return _free_basis(m, pivots, ncols)


def mat_solve_affine(rows, rhs, nrows, ncols):
    """Solve A x = b; returns (particular, nullspace_basis) or None."""
    aug = [list(rows[i]) + [rhs[i]] for i in range(nrows)]
    m, pivots = mat_rref(aug, nrows, ncols + 1)
    if ncols in pivots:
        return None
    particular = [T_ZERO] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = m[r][ncols]
    return particular, _free_basis(m, pivots, ncols)
