"""Exact scalars, projective-line points, polynomials and small dense matrices.

Every quantity in this package is a Gaussian rational, i.e. ``p/q + (r/s)*i``
with arbitrary-precision integer parts.  Equality is exact everywhere; there
is no floating-point mode and no tolerance parameter anywhere downstream.
"""

from __future__ import annotations

import re as _re
from itertools import zip_longest
from math import gcd

from ._kernel import (
    T_ONE,
    mat_det,
    mat_nullspace,
    mat_rank,
    mat_solve_affine,
    t_add,
    t_clear,
    t_div,
    t_inv,
    t_mul,
    t_neg,
    t_norm,
    t_sub,
)


class ExactError(ValueError):
    """Domain error raised by exact-arithmetic operations."""


class PreconditionError(ValueError):
    """Well-formed input that fails a mathematical precondition: a weight on a
    wall, a failed limit precondition, inadmissible spectral data.  The
    command line exits 3 on it and 2 on any other ValueError."""


def json_list(value, what: str) -> list:
    """``value`` when it is a JSON list; a string or any other value is
    malformed input, so a string of the right length is not read character
    by character."""
    if not isinstance(value, list):
        raise ExactError(f"{what} must be a list, not {type(value).__name__}")
    return value


class Scalar:
    """A Gaussian rational ``(a + b*i)/d`` stored in lowest terms, ``d > 0``.

    Instances are immutable and hashable; arithmetic never loses exactness.
    Ordering comparisons are defined only between real scalars (``im == 0``).
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        if type(re) is not int or type(im) is not int:
            raise ExactError(
                f"Scalar parts must be ints, not {type(re).__name__} and {type(im).__name__}"
            )
        self._t = t_norm(re, im, 1)

    @classmethod
    def _wrap(cls, triple):
        s = object.__new__(cls)
        s._t = triple
        return s

    @classmethod
    def rational(cls, num: int, den: int = 1) -> "Scalar":
        if type(num) is not int or type(den) is not int:
            raise ExactError(
                f"rational parts must be ints, not {type(num).__name__} and {type(den).__name__}"
            )
        return cls._wrap(t_norm(num, 0, den))

    @classmethod
    def gaussian(cls, re_num: int, re_den: int, im_num: int, im_den: int) -> "Scalar":
        return cls._wrap(t_norm(re_num * im_den, im_num * re_den, re_den * im_den))

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        """Parse ``"p/q"``, ``"p/q+r/s*i"`` and the obvious degenerate forms."""
        if not isinstance(text, str):
            raise ExactError(f"scalar must be a string, not {type(text).__name__}")
        s = text.strip().replace(" ", "")
        if not s:
            raise ExactError("empty scalar string")
        terms = _re.findall(r"[+-]?[^+-]+", s)
        if not terms or "".join(terms) != s:
            raise ExactError(f"malformed scalar {text!r}")
        rn, rd, inum, iden = 0, 1, 0, 1
        seen_re = seen_im = False
        for term in terms:
            if term.endswith("i"):
                if seen_im:
                    raise ExactError(f"malformed scalar {text!r}")
                seen_im = True
                body = term[:-1].rstrip("*")
                if body in ("", "+"):
                    inum, iden = 1, 1
                elif body == "-":
                    inum, iden = -1, 1
                else:
                    inum, iden = _parse_rat(body)
            else:
                if seen_re:
                    raise ExactError(f"malformed scalar {text!r}")
                seen_re = True
                rn, rd = _parse_rat(term)
        return cls.gaussian(rn, rd, inum, iden)

    def is_zero(self) -> bool:
        return self._t[0] == 0 and self._t[1] == 0

    def is_real(self) -> bool:
        return self._t[1] == 0

    def is_integer(self) -> bool:
        a, b, d = self._t
        return b == 0 and d == 1

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._wrap(t_add(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._wrap(t_sub(self._t, other._t))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._wrap(t_sub(other._t, self._t))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._wrap(t_mul(self._t, other._t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._wrap(t_div(self._t, other._t))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._wrap(t_div(other._t, self._t))

    def __neg__(self):
        return Scalar._wrap(t_neg(self._t))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return Scalar._wrap(t_inv(self._t)) ** (-n)
        out = T_ONE
        base = self._t
        k = n
        while k:
            if k & 1:
                out = t_mul(out, base)
            base = t_mul(base, base)
            k >>= 1
        return Scalar._wrap(out)

    def inverse(self) -> "Scalar":
        return Scalar._wrap(t_inv(self._t))

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def _real_cmp(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            raise ExactError("cannot compare with non-scalar")
        if self._t[1] != 0 or other._t[1] != 0:
            raise ExactError("ordering is defined for real scalars only")
        a1, _, d1 = self._t
        a2, _, d2 = other._t
        return a1 * d2 - a2 * d1

    def __lt__(self, other):
        return self._real_cmp(other) < 0

    def __le__(self, other):
        return self._real_cmp(other) <= 0

    def __gt__(self, other):
        return self._real_cmp(other) > 0

    def __ge__(self, other):
        return self._real_cmp(other) >= 0

    def __str__(self):
        a, b, d = self._t
        if b == 0:
            return _rat_str(a, d)
        im = _rat_str(abs(b), d)
        im = "i" if im == "1" else f"{im}*i"
        if a == 0:
            return im if b > 0 else f"-{im}"
        sign = "+" if b > 0 else "-"
        return f"{_rat_str(a, d)}{sign}{im}"

    def __repr__(self):
        return f"Scalar({self})"


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar._wrap((x, 0, 1))
    return NotImplemented


def _parse_rat(s: str) -> tuple[int, int]:
    if not _RAT_RE.fullmatch(s):
        raise ExactError(f"malformed rational {s!r}")
    if "/" in s:
        num, den = (int(x) for x in s.split("/", 1))
        if den == 0:
            raise ExactError(f"zero denominator in {s!r}")
        return num, den
    return int(s), 1


_RAT_RE = _re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rat_str(a: int, d: int) -> str:
    g = gcd(a, d)
    a, d = a // g, d // g
    return str(a) if d == 1 else f"{a}/{d}"


ZERO = Scalar(0)
ONE = Scalar(1)


def sc(x) -> Scalar:
    """Coerce an int, string or Scalar to a Scalar."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar(x)
    if isinstance(x, str):
        return Scalar.parse(x)
    raise ExactError(f"cannot coerce {type(x).__name__} to Scalar")


class ProjectivePoint:
    """A point ``[kappa : lambda]`` of the projective line over the scalars.

    Canonical form: ``kappa == 1`` for finite points, ``(0, 1)`` for the point
    at infinity.  ``value`` is the affine coordinate ``lambda/kappa`` of a
    finite point.
    """

    __slots__ = ("kappa", "lam")

    def __init__(self, kappa, lam):
        kappa, lam = sc(kappa), sc(lam)
        if kappa.is_zero() and lam.is_zero():
            raise ExactError("(0, 0) is not a projective point")
        if kappa.is_zero():
            self.kappa, self.lam = ZERO, ONE
        else:
            self.kappa, self.lam = ONE, lam / kappa

    @classmethod
    def finite(cls, value) -> "ProjectivePoint":
        """The point ``[1 : value]``, already canonical: no division by
        ``kappa``."""
        p = object.__new__(cls)
        p.kappa, p.lam = ONE, sc(value)
        return p

    @classmethod
    def infinity(cls) -> "ProjectivePoint":
        return cls(ZERO, ONE)

    @classmethod
    def parse(cls, text: str) -> "ProjectivePoint":
        t = text.strip()
        if t == "inf":
            return cls.infinity()
        return cls.finite(Scalar.parse(t))

    def is_infinity(self) -> bool:
        # kappa is 0 or 1
        return self.kappa._t[0] == 0

    @property
    def value(self) -> Scalar:
        if self.is_infinity():
            raise ExactError("infinite point has no affine value")
        return self.lam

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.kappa == other.kappa and self.lam == other.lam

    def __hash__(self):
        return hash((self.kappa, self.lam))

    def __str__(self):
        return "inf" if self.is_infinity() else str(self.lam)

    def __repr__(self):
        return f"ProjectivePoint({self})"


INF = ProjectivePoint.infinity()


class Poly:
    """Dense polynomial with an explicitly recorded degree bound.

    Trailing zero coefficients up to the bound are tolerated; ``degree()``
    reports the actual degree (-1 for the zero polynomial).
    """

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs, bound: int | None = None):
        cs = [sc(c) for c in coeffs]
        if bound is None:
            bound = len(cs) - 1
        if len(cs) > bound + 1:
            for extra in cs[bound + 1 :]:
                if not extra.is_zero():
                    raise ExactError("coefficient beyond the recorded bound")
            cs = cs[: bound + 1]
        cs += [ZERO] * (bound + 1 - len(cs))
        self.coeffs = tuple(cs)
        self.bound = bound

    @classmethod
    def _of(cls, triples) -> "Poly":
        """The polynomial with the ``_kernel`` triples ``triples`` as its
        coefficients, lowest first, bounded by their number less one: no
        coercion."""
        p = object.__new__(cls)
        p.coeffs = tuple(Scalar._wrap(x) for x in triples)
        p.bound = len(p.coeffs) - 1
        return p

    @classmethod
    def zero(cls, bound: int = -1) -> "Poly":
        return cls([], bound=bound)

    def degree(self) -> int:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[k].is_zero():
                return k
        return -1

    def is_zero(self) -> bool:
        return self.degree() < 0

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __call__(self, x) -> Scalar:
        x = sc(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(
            [x + y for x, y in zip_longest(self.coeffs, other.coeffs, fillvalue=ZERO)],
            bound=max(self.bound, other.bound),
        )

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero(max(self.bound + other.bound, -1))
            b = self.bound + other.bound
            out = [ZERO] * (b + 1)
            for i, ci in enumerate(self.coeffs):
                if ci.is_zero():
                    continue
                for j, cj in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ci * cj
            return Poly(out, bound=b)
        s = sc(other)
        return Poly([s * c for c in self.coeffs], bound=self.bound)

    __rmul__ = __mul__

    def derivative(self) -> "Poly":
        return Poly(
            [k * c for k, c in enumerate(self.coeffs) if k], bound=max(self.bound - 1, -1)
        )

    def divide_linear(self, a) -> tuple["Poly", Scalar]:
        """Synthetic division ``p = (z - a) q + rem``: ``(q, rem)``, with ``q``
        bounded by one less than the actual degree of ``p``."""
        d = self.degree()
        if d < 0:
            return Poly.zero(-1), ZERO
        out = [ZERO] * d
        carry = ZERO
        for k in range(d, -1, -1):
            carry = self.coeffs[k] + carry * a
            if k > 0:
                out[k - 1] = carry
        return Poly(out, bound=d - 1), carry

    def shrink(self, bound: int) -> "Poly":
        """Re-record a smaller degree bound, verifying higher terms vanish."""
        if self.degree() > bound:
            raise ExactError(
                f"polynomial has degree {self.degree()}, cannot bound by {bound}"
            )
        return Poly(list(self.coeffs[: bound + 1]), bound=bound)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(k) == other.coeff(k) for k in range(n))

    def __hash__(self):
        d = self.degree()
        return hash(tuple(self.coeffs[: d + 1]))

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly[{self}]"


def monic_from_roots(roots) -> Poly:
    p = Poly([ONE], bound=0)
    for r in roots:
        p = p * Poly([-sc(r), ONE], bound=1)
    return p


class Mat:
    """Small dense matrix of scalars with exact rank/determinant/solve."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = [[sc(x) for x in row] for row in entries]
        if not rows or not rows[0]:
            raise ExactError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ExactError("ragged matrix")
        self.rows = len(rows)
        self.cols = width
        self.entries = tuple(tuple(r) for r in rows)

    def _triples(self):
        return [[x._t for x in row] for row in self.entries]

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ExactError("determinant requires a square matrix")
        return Scalar._wrap(mat_det(self._triples(), self.rows))

    def rank(self) -> int:
        return mat_rank(self._triples(), self.rows, self.cols)

    def nullspace(self) -> list[list[Scalar]]:
        basis = mat_nullspace(self._triples(), self.rows, self.cols)
        return [[Scalar._wrap(t) for t in vec] for vec in basis]

    def solve_affine(self, rhs) -> tuple[list[Scalar], list[list[Scalar]]] | None:
        """All solutions of ``A x = b`` as (particular, nullspace basis)."""
        b = [sc(x)._t for x in rhs]
        if len(b) != self.rows:
            raise ExactError("rhs length mismatch")
        out = mat_solve_affine(self._triples(), b, self.rows, self.cols)
        if out is None:
            return None
        part, basis = out
        return (
            [Scalar._wrap(t) for t in part],
            [[Scalar._wrap(t) for t in vec] for vec in basis],
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{body}]"


def interpolate(points, degree_bound: int):
    """Least-degree polynomial of degree <= bound through the given points.

    ``points`` is a sequence of (abscissa, value) scalar pairs with pairwise
    distinct abscissae.  Returns None when the (overdetermined) system is
    inconsistent.  Free coefficients of an underdetermined system are set to
    zero, so the result is the minimal representative.
    """
    pts = [(sc(x), sc(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len({x for x in xs}) != len(xs):
        raise ExactError("duplicate abscissae")
    if degree_bound < 0:
        if any(not y.is_zero() for _, y in pts):
            return None
        return Poly.zero(-1)
    if not pts:
        return Poly.zero(degree_bound)
    rows = []
    rhs = []
    for x, y in pts:
        rows.append([x**k for k in range(degree_bound + 1)])
        rhs.append(y)
    sol = Mat(rows).solve_affine(rhs)
    if sol is None:
        return None
    particular, _ = sol
    return Poly(particular, bound=degree_bound)


def divided_difference_weights(xs) -> list[Scalar]:
    """Weights ``1 / prod_{j != i} (x_i - x_j)`` of the top divided difference.

    For pairwise distinct nodes ``x_1..x_n``, ``sum_i q(x_i) w_i`` annihilates
    every polynomial ``q`` of degree <= n - 2.
    """
    nodes = [sc(x) for x in xs]
    out = []
    for i, xi in enumerate(nodes):
        w = ONE
        for j, xj in enumerate(nodes):
            if j != i:
                w = w * (xi - xj)
        out.append(w.inverse())
    return out


def clear_denominators(vectors):
    """The scalar vectors times the lcm ``D`` of all their denominators, as
    lists of Gaussian integers ``(re, im)``, and ``D``."""
    flat, den = t_clear([x._t for vec in vectors for x in vec])
    entries = iter(flat)
    return [[next(entries) for _ in vec] for vec in vectors], den
