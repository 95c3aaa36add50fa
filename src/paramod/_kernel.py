"""Gaussian-rational arithmetic and exact dense elimination.

Scalars are triples ``(a, b, d)`` of ints for ``(a + b*i)/d``, ``d > 0``,
``gcd(a, b, d) == 1``; every operation returns a triple in that normal form,
so equal values are equal tuples.  The matrix routines take lists of lists of
triples and share one elimination, Gauss-Jordan over the field of Gaussian
rationals (``mat_rref``): the nullspace and the affine solver read its
reduced rows, the rank its pivot count and the determinant the signed
product of its pivots.  ``t_clear`` and ``zi_dot`` carry rows to Gaussian
integers ``(re, im)`` for the contact lattice and the saturation search, and
``t_matvec`` applies a cleared matrix with them.

The stability decision and the connection layer compute on these triples
and integers throughout: the contact rows, margins and witness search of
``stability``, and the solve, the residues, the triple and its validation in
``connection``.  The connection solve reads its pivots and vectors off
closed forms on moment rows and eliminates with ``mat_solve_affine`` only
on the even split; ``t_addmul`` builds a triple's residues with one
normalization per entry.  Some callers compare without normalizing:
``connection.validate_triple`` tests traces and eigenlines as
``t_addmul_raw`` forms against ``t_same``, and it and
``higgslimit.theta_from_connection`` zero-test numerator coefficients
with ``zi_dot`` on cleared residues.  ``t_divide_linear`` divides a
polynomial by ``z - a``: ``connection.elm_triple`` divides the tail, and its
remainder, the value at ``a``, evaluates the shift of a bundle automorphism
at the marked points and the derivative of a Higgs field at its marked
zeros.  ``exactnum.Scalar`` wraps a
triple (``Scalar._t``) and is what the public accessors, the JSON output
and the error messages show.
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


def t_addmul(c, x, y):
    """``c + x*y`` with one normalization; ``c`` itself when ``x`` or ``y``
    is zero."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    if not (a1 or b1) or not (a2 or b2):
        return c
    ca, cb, cd = c
    d = d1 * d2
    return t_norm(ca * d + (a1 * a2 - b1 * b2) * cd, cb * d + (a1 * b2 + b1 * a2) * cd, cd * d)


def t_addmul_raw(c, x, y):
    """``c + x*y`` as ``t_addmul`` forms it, left unnormalized over a
    positive denominator, for ``t_same``; ``c`` itself when ``x`` or ``y``
    is zero."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    if not (a1 or b1) or not (a2 or b2):
        return c
    ca, cb, cd = c
    d = d1 * d2
    return (ca * d + (a1 * a2 - b1 * b2) * cd, cb * d + (a1 * b2 + b1 * a2) * cd, cd * d)


def t_divide_linear(coeffs, a):
    """Synthetic division by ``z - a`` of the polynomial with the triple
    coefficients ``coeffs``, lowest first: the quotient's coefficients and
    the remainder, which is the value at ``a`` by Horner's rule, with one
    normalization per coefficient."""
    quot = [T_ZERO] * max(len(coeffs) - 1, 0)
    carry = T_ZERO
    for k in range(len(coeffs) - 1, -1, -1):
        carry = t_addmul(coeffs[k], carry, a)
        if k:
            quot[k - 1] = carry
    return quot, carry


def t_same(x, y):
    """Whether two triples, normalized or not, are equal: their cross
    products with the other's denominator agree."""
    return x[0] * y[2] == y[0] * x[2] and x[1] * y[2] == y[1] * x[2]


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


def t_matvec(rows, den, vec):
    """The triples ``sum_k rows[i][k] * vec[k] / den`` for Gaussian-integer
    rows over one denominator and a vector of triples (shorter than a row
    means zeros after it): one integer dot product and one normalization per
    row."""
    xs, d = t_clear(vec)
    return [t_norm(*zi_dot(row, xs), den * d) for row in rows]


def mat_rref(rows, nrows, ncols):
    """Reduced row echelon form by Gauss-Jordan elimination; returns
    ``(new_rows, pivot_columns, pivot_product)``.  The product is taken over
    the pivots as they are found, negated once per row swap, so for a square
    matrix with a pivot in every row it is the determinant: scaling a row by
    the inverse of its pivot divides the determinant by that pivot, a swap
    negates it, and clearing a column leaves it unchanged.

    Clearing a column updates ``m[i][j] - f * p[j]`` only where the scaled
    pivot row ``p`` is nonzero, with the product left unreduced and one
    normalization of the difference."""
    m = [list(r) for r in rows]
    pivots = []
    product = T_ONE
    row = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(row, nrows):
            if not _is_zero(m[i][col]):
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        if pivot_row != row:
            m[row], m[pivot_row] = m[pivot_row], m[row]
            product = t_neg(product)
        pivot = m[row][col]
        product = t_mul(product, pivot)
        inv = t_inv(pivot)
        m[row] = [t_mul(inv, v) for v in m[row]]
        support = [(j, pa, pb, pd) for j, (pa, pb, pd) in enumerate(m[row]) if pa or pb]
        for i in range(nrows):
            fa, fb, fd = m[i][col]
            if i == row or not (fa or fb):
                continue
            r = m[i]
            for j, pa, pb, pd in support:
                xa, xb, xd = r[j]
                yd = fd * pd
                r[j] = t_norm(
                    xa * yd - (fa * pa - fb * pb) * xd, xb * yd - (fa * pb + fb * pa) * xd, xd * yd
                )
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots, product


def mat_det(rows, n):
    """Determinant of an n-by-n matrix of triples: the signed product of the
    Gauss-Jordan pivots, zero when fewer than n columns hold one."""
    _, pivots, product = mat_rref(rows, n, n)
    return product if len(pivots) == n else T_ZERO


def mat_rank(rows, nrows, ncols):
    """Rank: the number of Gauss-Jordan pivots."""
    return len(mat_rref(rows, nrows, ncols)[1])


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
    m, pivots, _ = mat_rref(rows, nrows, ncols)
    return _free_basis(m, pivots, ncols)


def mat_solve_affine(rows, rhs, nrows, ncols):
    """Solve A x = b; returns (particular, nullspace_basis) or None."""
    aug = [list(rows[i]) + [rhs[i]] for i in range(nrows)]
    m, pivots, _ = mat_rref(aug, nrows, ncols + 1)
    if ncols in pivots:
        return None
    particular = [T_ZERO] * ncols
    for r, pc in enumerate(pivots):
        particular[pc] = m[r][ncols]
    return particular, _free_basis(m, pivots, ncols)
