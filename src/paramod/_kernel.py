"""Gaussian-rational arithmetic and exact dense elimination.

Scalars are triples ``(a, b, d)`` of ints for ``(a + b*i)/d``, ``d > 0``,
``gcd(a, b, d) == 1``; every operation returns a triple in that normal form,
so equal values are equal tuples.  The matrix routines take lists of lists of
triples.  Determinant and rank are fraction-free: each row is scaled once by
the lcm of its denominators, and one forward elimination, one-step Bareiss
over the Gaussian integers ``(re, im)``, divides exactly by the previous
pivot, so no gcd is taken inside the loop; the determinant is normalised to
one triple at the end.  The reduced row echelon form behind the nullspace and
the affine solver uses plain Gauss-Jordan, which is exact over a field.
"""

from math import gcd, lcm

T_ZERO = (0, 0, 1)
T_ONE = (1, 0, 1)
ZI_ZERO = (0, 0)


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


def t_clear(triples):
    """Scale triples by the lcm ``L`` of their denominators: the Gaussian
    integers ``(a*L/d, b*L/d)`` and ``L``."""
    den = lcm(*(t[2] for t in triples))
    return [(a * (den // d), b * (den // d)) for a, b, d in triples], den


def zi_dot(row, vec):
    """The product ``sum row[k] * vec[k]`` of two Gaussian-integer vectors,
    as ``(re, im)``."""
    re = im = 0
    for (a, b), (x, y) in zip(row, vec):
        re += a * x - b * y
        im += a * y + b * x
    return re, im


def _zi_pivots(m, nrows, ncols):
    """One-step Bareiss forward elimination of the Gaussian-integer rows ``m``
    in place.  Yields ``(col, sign)`` as each pivot lands in the next row, with
    ``sign`` the parity of the row swaps so far, before eliminating below it.
    With ``p`` the previous pivot, each entry below becomes
    ``(pivot*x - lead*y)/p``, an exact division in Z[i]: by Sylvester's
    identity every entry is a minor of ``m``."""
    pr, pi = 1, 0
    sign = 1
    row = 0
    for col in range(ncols):
        for i in range(row, nrows):
            if _is_zero(m[i][col]):
                continue
            if i != row:
                m[row], m[i] = m[i], m[row]
                sign = -sign
            break
        else:
            continue
        yield col, sign
        krow = m[row]
        ar, ai = krow[col]
        norm = pr * pr + pi * pi
        for i in range(row + 1, nrows):
            irow = m[i]
            lr, li = irow[col]
            for j in range(col + 1, ncols):
                xr, xi = irow[j]
                yr, yi = krow[j]
                nr = ar * xr - ai * xi - lr * yr + li * yi
                ni = ar * xi + ai * xr - lr * yi - li * yr
                irow[j] = ((nr * pr + ni * pi) // norm, (ni * pr - nr * pi) // norm)
            irow[col] = ZI_ZERO
        pr, pi = ar, ai
        row += 1
        if row == nrows:
            return


def zi_det(m, n):
    """Determinant ``(re, im)`` of the n-by-n Gaussian-integer rows ``m``,
    which are overwritten."""
    rank = 0
    sign = 1
    for col, sign in _zi_pivots(m, n, n):
        if col != rank:
            return ZI_ZERO
        rank += 1
    if rank < n:
        return ZI_ZERO
    re, im = m[n - 1][n - 1]
    return (sign * re, sign * im)


def mat_det(rows, n):
    """Determinant of an n-by-n matrix of triples: each row is cleared of its
    denominators once, the Gaussian-integer determinant is divided by their
    product."""
    m = []
    den = 1
    for row in rows:
        zrow, scale = t_clear(row)
        m.append(zrow)
        den *= scale
    re, im = zi_det(m, n)
    return t_norm(re, im, den)


def mat_rank(rows, nrows, ncols):
    """Rank: the number of pivots of the Gaussian-integer forward elimination."""
    m = [t_clear(row)[0] for row in rows]
    return sum(1 for _ in _zi_pivots(m, nrows, ncols))


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
