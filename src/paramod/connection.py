"""Explicit logarithmic connections on split bundles over the affine chart.

A connection is ``d + sum_i A_i/(z - z_i) dz + G(z) dz`` in the split frame.
The residue ``A_i`` has the prescribed eigenvalues ``(nu+, nu-)`` and the flag
as its ``nu+`` eigenline; these conditions leave one unknown ``x_i`` per
point, so ``A_i = C_i + x_i D_i`` with constant 2x2 matrices: for a finite
flag ``t``, ``C = [[nu+, 0], [t(nu+ - nu-), nu-]]`` and
``D = [[-t, 1], [-t^2, t]]``; for the infinite flag, ``C = [[nu-, 0], [0, nu+]]``
and ``D = [[0, 0], [1, 0]]``.  Holomorphy at infinity pins the diagonal
residue sums to minus the summand degrees and bounds the degrees of the
cleared off-diagonal numerators ``N12 = sum A12_i prod_{j != i}(z - z_j)``
(by ``3 + d0 - d1``) and ``N21 + G21 * prod (z - z_j)`` (by ``3 + d1 - d0``),
all linear in the ``x_i``.  Only the (21) entry of ``G`` can be nonzero, a
polynomial tail of degree at most ``d1 - d0 - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import (
    ONE,
    ZERO,
    ExactError,
    Mat,
    Poly,
    ProjectivePoint,
    Scalar,
    sc,
)
from .parastruct import (
    NPOINTS,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    point_index,
    stabilizer_dim,
)
from .spectra import SpectrumRank2, elm_spectrum
from .stability import sign_label, sign_pattern_sums


class ConnectionError(ValueError):
    """Raised on malformed connection data."""


@dataclass(frozen=True)
class DegreeBounds:
    """Subbundle-degree window and admissible splits of an irreducible
    degree-d logarithmic flat bundle: ``lo <= deg F <= hi`` and the splits
    ``(d0, d1)`` with ``d1 - d0 <= 3``."""

    lo: int
    hi: int
    splits: tuple[BundleSplitType, ...]


def degree_bounds(d: int) -> DegreeBounds:
    hi = (d + 3) // 2
    lo = d - hi
    splits = []
    for d0 in range(lo, d // 2 + 1):
        d1 = d - d0
        if d0 <= d1 and d1 - d0 <= 3:
            splits.append(BundleSplitType(d0, d1))
    return DegreeBounds(lo, hi, tuple(splits))


class RationalEntry:
    """One matrix entry of a connection: simple poles at the marked points
    plus a polynomial tail.  Supports the exact frame-change algebra used by
    elementary transformations and gauge conjugation."""

    __slots__ = ("cfg", "residues", "tail")

    def __init__(self, cfg: MarkedConfiguration, residues, tail: Poly | None = None):
        self.cfg = cfg
        self.residues = tuple(sc(r) for r in residues)
        if len(self.residues) != NPOINTS:
            raise ExactError("one residue per marked point")
        self.tail = tail if tail is not None else Poly.zero(-1)

    def __add__(self, other: "RationalEntry") -> "RationalEntry":
        return RationalEntry(
            self.cfg,
            [a + b for a, b in zip(self.residues, other.residues)],
            self.tail + other.tail,
        )

    def __sub__(self, other: "RationalEntry") -> "RationalEntry":
        return RationalEntry(
            self.cfg,
            [a - b for a, b in zip(self.residues, other.residues)],
            self.tail - other.tail,
        )

    def __neg__(self) -> "RationalEntry":
        return RationalEntry(self.cfg, [-a for a in self.residues], -self.tail)

    def scale(self, c) -> "RationalEntry":
        c = sc(c)
        return RationalEntry(self.cfg, [c * a for a in self.residues], c * self.tail)

    def add_pole(self, j: int, amount=1) -> "RationalEntry":
        res = list(self.residues)
        res[j] = res[j] + sc(amount)
        return RationalEntry(self.cfg, res, self.tail)

    def mul_poly(self, p: Poly) -> "RationalEntry":
        """Multiply by a polynomial: residues scale by p(z_i) and the
        regular part of ``r_i (p(z) - p(z_i))/(z - z_i)`` joins the tail."""
        zs = self.cfg.z
        res = [r * p(zi) for r, zi in zip(self.residues, zs)]
        tail = self.tail * p
        for r, zi in zip(self.residues, zs):
            if r.is_zero():
                continue
            quot, rem = p.divide_linear(zi)
            if not rem == p(zi):
                raise ConnectionError("polynomial division inconsistency")
            tail = tail + r * quot
        return RationalEntry(self.cfg, res, tail)

    def div_root(self, j: int) -> "RationalEntry":
        """Divide by ``(z - z_j)``; requires the residue at z_j to vanish
        (otherwise the quotient would carry a double pole)."""
        zs = self.cfg.z
        if not self.residues[j].is_zero():
            raise ConnectionError("division would create a double pole")
        res = [sc(0)] * NPOINTS
        at_j = self.tail(zs[j])
        for i in range(NPOINTS):
            if i == j or self.residues[i].is_zero():
                continue
            res[i] = self.residues[i] / (zs[i] - zs[j])
            at_j = at_j - res[i]
        res[j] = at_j
        quot, _ = self.tail.divide_linear(zs[j])
        return RationalEntry(self.cfg, res, quot)

    def residue_sum(self) -> Scalar:
        return sum(self.residues, sc(0))

    def cleared_numerator(self) -> Poly:
        """``entry * prod (z - z_j)`` as a polynomial, from the configuration's
        pole products."""
        node, partials = self.cfg.pole_products()
        total = self.tail * node
        for r, partial in zip(self.residues, partials):
            if r.is_zero():
                continue
            total = total + r * partial
        return total

    def __eq__(self, other):
        if not isinstance(other, RationalEntry):
            return NotImplemented
        return (
            self.cfg == other.cfg
            and self.residues == other.residues
            and self.tail == other.tail
        )


class LogConnection:
    """Residue matrices at the five marked points plus the (21) tail."""

    __slots__ = ("bundle", "residues", "tail")

    def __init__(self, bundle: BundleSplitType, residues, tail: Poly | None = None):
        self.bundle = bundle
        mats = []
        for m in residues:
            ((a11, a12), (a21, a22)) = m
            mats.append(((sc(a11), sc(a12)), (sc(a21), sc(a22))))
        if len(mats) != NPOINTS:
            raise ExactError("one residue matrix per marked point")
        self.residues = tuple(mats)
        max_tail = bundle.d1 - bundle.d0 - 2
        if tail is None:
            tail = Poly.zero(max(max_tail, -1))
        if tail.degree() > max(max_tail, -1):
            raise ConnectionError(
                f"tail degree {tail.degree()} exceeds bound {max_tail}"
            )
        self.tail = Poly(
            list(tail.coeffs[: max(max_tail + 1, 0)]), bound=max(max_tail, -1)
        )

    def entry(self, r: int, c: int, cfg: MarkedConfiguration) -> RationalEntry:
        res = [self.residues[i][r][c] for i in range(NPOINTS)]
        tail = self.tail if (r, c) == (1, 0) else Poly.zero(-1)
        return RationalEntry(cfg, res, tail)

    def a(self, i: int, r: int, c: int) -> Scalar:
        return self.residues[i][r][c]

    def offdiag_upper(self, cfg) -> Poly:
        """Cleared (12) numerator; degree <= 3 + d0 - d1 for a valid
        connection."""
        return self.entry(0, 1, cfg).cleared_numerator()

    def offdiag_lower(self, cfg) -> Poly:
        return self.entry(1, 0, cfg).cleared_numerator()

    def to_json(self):
        return {
            "A": [
                [[str(m[0][0]), str(m[0][1])], [str(m[1][0]), str(m[1][1])]]
                for m in self.residues
            ],
            "G21": [str(c) for c in self.tail.coeffs],
            "bundle": self.bundle.name,
        }

    @classmethod
    def from_json(cls, data) -> "LogConnection":
        bundle = BundleSplitType.parse(data["bundle"])
        residues = [
            ((Scalar.parse(m[0][0]), Scalar.parse(m[0][1])),
             (Scalar.parse(m[1][0]), Scalar.parse(m[1][1])))
            for m in data["A"]
        ]
        g21 = data.get("G21", [])
        if not isinstance(g21, list):
            raise ExactError("G21 must be a list of coefficients")
        coeffs = [Scalar.parse(s) for s in g21]
        tail = Poly(coeffs, bound=max(bundle.d1 - bundle.d0 - 2, -1)) if coeffs else None
        return cls(bundle, residues, tail)

    def __eq__(self, other):
        if not isinstance(other, LogConnection):
            return NotImplemented
        return (
            self.bundle == other.bundle
            and self.residues == other.residues
            and self.tail == other.tail
        )


@dataclass(frozen=True)
class FlatTriple:
    """A parabolic structure, a residue spectrum and a compatible connection
    over a fixed marked configuration."""

    structure: ParabolicStructure
    spectrum: SpectrumRank2
    connection: LogConnection
    cfg: MarkedConfiguration

    def to_json(self):
        return {
            "structure": self.structure.to_json(),
            "spectrum": self.spectrum.to_json(),
            "connection": self.connection.to_json(),
            "cfg": self.cfg.to_json(),
        }


def _flag_vector(u: ProjectivePoint) -> tuple[Scalar, Scalar]:
    return (u.kappa, u.lam)


def validate_triple(t: FlatTriple) -> tuple[bool, list[str]]:
    """Exact check of every invariant: residue characteristic polynomials,
    flag eigenlines, diagonal sums, off-diagonal numerator degree bounds and
    the tail bound.  Returns (ok, violations)."""
    v: list[str] = []
    bundle = t.connection.bundle
    d0, d1 = bundle.d0, bundle.d1
    if t.structure.bundle != bundle:
        v.append("structure and connection bundles differ")
    if t.spectrum.d != d0 + d1:
        v.append(f"spectrum degree {t.spectrum.d} != bundle degree {d0 + d1}")
    for i in range(NPOINTS):
        ((a11, a12), (a21, a22)) = t.connection.residues[i]
        p, m = t.spectrum.nu[i]
        if a11 + a22 != p + m:
            v.append(f"trace at point {i + 1} is not nu+ + nu-")
        if a11 * a22 - a12 * a21 != p * m:
            v.append(f"determinant at point {i + 1} is not nu+ * nu-")
        k, l = _flag_vector(t.structure.flags[i])
        if (a11 * k + a12 * l != p * k) or (a21 * k + a22 * l != p * l):
            v.append(f"flag at point {i + 1} is not a nu+ eigenline")
    e11 = t.connection.entry(0, 0, t.cfg)
    e22 = t.connection.entry(1, 1, t.cfg)
    if e11.residue_sum() != sc(-d0):
        v.append(f"sum of A11 residues is {e11.residue_sum()}, expected {-d0}")
    if e22.residue_sum() != sc(-d1):
        v.append(f"sum of A22 residues is {e22.residue_sum()}, expected {-d1}")
    n12 = t.connection.offdiag_upper(t.cfg)
    if n12.degree() > 3 + d0 - d1:
        v.append(
            f"(12) numerator degree {n12.degree()} exceeds {3 + d0 - d1}"
        )
    n21 = t.connection.offdiag_lower(t.cfg)
    if n21.degree() > 3 + d1 - d0:
        v.append(
            f"(21) numerator degree {n21.degree()} exceeds {3 + d1 - d0}"
        )
    return (not v, v)


class ConnectionSpace:
    """Affine parameterization of every connection making the inputs a flat
    triple.

    ``dim`` is the honest affine dimension.  ``dim_before_gauge`` counts the
    residue parameters modulo only the diagonal trace-sum constraints (the
    count appearing in the fiber-dimension proof), and ``dim_mod_gauge``
    subtracts the positive-dimensional part of the flag stabilizer from the
    honest dimension; for structures with scalar stabilizer the two gauge
    numbers bracket the same two-dimensional fiber.  Both are computed when
    read.  ``parts`` holds the ``(C_i, D_i)`` of every point; a solution
    vector ``(x_0..x_4, tail)`` becomes the connection with residues
    ``C_i + x_i D_i``.
    """

    def __init__(self, structure, cfg, nu, labels, particular, basis, parts):
        self.structure = structure
        self.cfg = cfg
        self.nu = nu
        self.labels = labels
        self.particular = particular
        self.basis = basis
        self.parts = parts

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def dim_before_gauge(self) -> int:
        # the diagonal sums are rows of the solved system, so they are
        # consistent and leave the unknowns minus their rank
        ntail = len(self.labels) - NPOINTS
        diag = [[D[r][r] for _, D in self.parts] + [ZERO] * ntail for r in (0, 1)]
        return len(self.labels) - Mat(diag).rank()

    @property
    def dim_mod_gauge(self) -> int:
        return self.dim - (stabilizer_dim(self.structure, self.cfg) - 1)

    def free_tail_only(self) -> bool:
        """True when every free direction is supported on tail coordinates."""
        tail_idx = {k for k, lab in enumerate(self.labels) if lab[0] == "g"}
        for vec in self.basis:
            for k, val in enumerate(vec):
                if not val.is_zero() and k not in tail_idx:
                    return False
        return True

    def vector_at(self, params) -> list[Scalar]:
        params = [sc(p) for p in params]
        if len(params) != self.dim:
            raise ExactError(f"expected {self.dim} free parameters")
        vec = list(self.particular)
        for p, bvec in zip(params, self.basis):
            vec = [v + p * b for v, b in zip(vec, bvec)]
        return vec

    def connection_at(self, params) -> LogConnection:
        return self._build(self.vector_at(params))

    def basis_connections(self) -> list[LogConnection]:
        out = [self._build(list(self.particular))]
        for bvec in self.basis:
            out.append(self._build([p + b for p, b in zip(self.particular, bvec)]))
        return out

    def triple_at(self, params) -> FlatTriple:
        return FlatTriple(self.structure, self.nu, self.connection_at(params), self.cfg)

    def _build(self, values) -> LogConnection:
        mats = [
            tuple(tuple(c + x * d for c, d in zip(crow, drow)) for crow, drow in zip(C, D))
            for (C, D), x in zip(self.parts, values)
        ]
        tail = values[NPOINTS:]
        return LogConnection(
            self.structure.bundle, mats, Poly(tail, bound=len(tail) - 1) if tail else None
        )


def _residue_parts(p: Scalar, m: Scalar, u: ProjectivePoint):
    """``(C, D)`` such that the residues with eigenvalues ``(p, m)`` and the
    flag ``u`` as ``p``-eigenline are exactly ``C + x*D``, ``x`` free: the
    (12) entry at a finite flag ``t``, the (21) entry at an infinite one."""
    if u.is_infinity():
        return ((m, ZERO), (ZERO, p)), ((ZERO, ZERO), (ONE, ZERO))
    t = u.value
    return ((p, ZERO), (t * (p - m), m)), ((-t, ONE), (-t * t, t))


def solve_connection_space(
    structure: ParabolicStructure,
    cfg: MarkedConfiguration,
    nu: SpectrumRank2,
) -> ConnectionSpace | None:
    """Solve the full residue-constraint system exactly.

    The unknowns are the ``x_i`` of ``A_i = C_i + x_i D_i`` (see
    ``_residue_parts``) and the tail coefficients.  The constraints, all
    linear, are the two diagonal residue sums and the coefficients of the
    off-diagonal numerators above their degree bounds, highest first; the
    tail term ``G21 * prod (z - z_j)`` has degree at most ``3 + d1 - d0`` and
    so enters none of them.  Returns None when the system is infeasible
    (decomposable structures with Kostov-generic spectra).
    """
    bundle = structure.bundle
    d0, d1 = bundle.d0, bundle.d1
    if nu.d != d0 + d1:
        raise ConnectionError(
            f"spectrum degree {nu.d} does not match bundle degree {d0 + d1}"
        )
    ntail = max(d1 - d0 - 1, 0)
    labels = [("x", i) for i in range(NPOINTS)] + [("g", k) for k in range(ntail)]
    parts = [_residue_parts(*nu.nu[i], structure.flags[i]) for i in range(NPOINTS)]

    def row(r, c, weights, target):
        """``sum_i w_i (A_i)_rc = target`` as (coefficients, right-hand side)."""
        const = sum((w * C[r][c] for w, (C, _) in zip(weights, parts)), ZERO)
        return [w * D[r][c] for w, (_, D) in zip(weights, parts)] + [ZERO] * ntail, target - const

    ones = [ONE] * NPOINTS
    rows = [row(0, 0, ones, sc(-d0)), row(1, 1, ones, sc(-d1))]
    _, poles = cfg.pole_products()
    for (r, c), bound in (((0, 1), 3 + d0 - d1), ((1, 0), 3 + d1 - d0)):
        for k in range(NPOINTS - 1, bound, -1):
            rows.append(row(r, c, [p.coeff(k) for p in poles], ZERO))

    full = Mat([coeffs for coeffs, _ in rows]).solve_affine([rhs for _, rhs in rows])
    if full is None:
        return None
    particular, basis = full
    return ConnectionSpace(structure, cfg, nu, labels, particular, basis, parts)


def irreducibility_screen(t: FlatTriple):
    """Sound screen from residue integrality: an invariant line forces some
    sign-pattern eigenvalue sum to be minus an admissible subbundle degree.

    Returns ("irreducible", []) or ("unknown", patterns) where each pattern is
    (signs, forced degree).
    """
    bounds = degree_bounds(t.spectrum.d)
    patterns = []
    den, sums = sign_pattern_sums(t.spectrum.nu)
    for sigma, (re, im) in sums:
        if im != 0 or re % den != 0:
            continue
        deg = -(re // den)
        if bounds.lo <= deg <= bounds.hi:
            patterns.append((sign_label(sigma), deg))
    if patterns:
        return "unknown", patterns
    return "irreducible", []


def verify_invariant_line(t: FlatTriple, q: Poly | None, r: Poly | None) -> bool:
    """Exact check that the section ``s = (q, r)`` spans a connection-invariant
    line: the cleared ``(nabla s) wedge s`` vanishes identically."""
    if (q is None or q.is_zero()) and (r is None or r.is_zero()):
        raise ConnectionError("zero section is not a line")
    cfg = t.cfg
    qp = q if q is not None else Poly.zero(-1)
    rp = r if r is not None else Poly.zero(-1)
    prod_all, partials = cfg.pole_products()
    w1 = prod_all * qp.derivative()
    w2 = prod_all * rp.derivative()
    for ((a11, a12), (a21, a22)), partial in zip(t.connection.residues, partials):
        w1 = w1 + partial * (a11 * qp + a12 * rp)
        w2 = w2 + partial * (a21 * qp + a22 * rp)
    w2 = w2 + prod_all * (t.connection.tail * qp)
    wedge = w1 * rp - w2 * qp
    return wedge.is_zero()


def _entries(t: FlatTriple) -> dict[tuple[int, int], RationalEntry]:
    return {
        (r, c): t.connection.entry(r, c, t.cfg)
        for r in (0, 1)
        for c in (0, 1)
    }


def _connection_from_entries(bundle, cfg, e) -> LogConnection:
    for key in ((0, 0), (0, 1), (1, 1)):
        if not e[key].tail.is_zero():
            raise ConnectionError(f"entry {key} acquired a polynomial part")
    mats = []
    for i in range(NPOINTS):
        mats.append(
            (
                (e[(0, 0)].residues[i], e[(0, 1)].residues[i]),
                (e[(1, 0)].residues[i], e[(1, 1)].residues[i]),
            )
        )
    return LogConnection(bundle, mats, e[(1, 0)].tail)


def elm_triple(t: FlatTriple, j: int) -> FlatTriple:
    """Elementary transformation at the j-th marked point.

    The new frame is ``(e1, (z - z_j) e2)`` with ``e1`` spanning the flag;
    the degree drops by one, the flag at z_j moves to the complementary
    summand fiber, and the spectrum transforms by ``elm_spectrum``.
    """
    cfg = t.cfg
    bundle = t.connection.bundle
    zj = cfg.z[point_index(j)]
    lin = Poly([-zj, 1])
    e = _entries(t)
    u = t.structure.flags[j]
    if u.is_infinity():
        # frame ((z - z_j) e, f): lower summand degree drops
        new_bundle = BundleSplitType(bundle.d0 - 1, bundle.d1)
        ne = {
            (0, 0): e[(0, 0)].add_pole(j),
            (0, 1): e[(0, 1)].div_root(j),
            (1, 0): e[(1, 0)].mul_poly(lin),
            (1, 1): e[(1, 1)],
        }
        new_flags = []
        for i, ui in enumerate(t.structure.flags):
            if i == j:
                new_flags.append(ProjectivePoint.finite(0))
            elif ui.is_infinity():
                new_flags.append(ProjectivePoint.infinity())
            else:
                new_flags.append(ProjectivePoint.finite(ui.value * (cfg.z[i] - zj)))
        swap = False
    else:
        tval = u.value
        new_bundle_raw = (bundle.d0, bundle.d1 - 1)
        o11, o12, o21, o22 = e[(0, 0)], e[(0, 1)], e[(1, 0)], e[(1, 1)]
        ne = {
            (0, 0): o11 + o12.scale(tval),
            (0, 1): o12.mul_poly(lin),
            (1, 0): (o21 + (o22 - o11).scale(tval) - o12.scale(tval * tval)).div_root(j),
            (1, 1): (o22 - o12.scale(tval)).add_pole(j),
        }
        new_flags = []
        for i, ui in enumerate(t.structure.flags):
            if i == j:
                new_flags.append(ProjectivePoint.infinity())
            elif ui.is_infinity():
                new_flags.append(ProjectivePoint.infinity())
            else:
                new_flags.append(
                    ProjectivePoint.finite((ui.value - tval) / (cfg.z[i] - zj))
                )
        swap = new_bundle_raw[0] > new_bundle_raw[1]
        if swap:
            ne = {
                (0, 0): ne[(1, 1)],
                (0, 1): ne[(1, 0)],
                (1, 0): ne[(0, 1)],
                (1, 1): ne[(0, 0)],
            }
            new_flags = [
                ProjectivePoint(f.lam, f.kappa) for f in new_flags
            ]
            new_bundle = BundleSplitType(new_bundle_raw[1], new_bundle_raw[0])
        else:
            new_bundle = BundleSplitType(*new_bundle_raw)
    conn = _connection_from_entries(new_bundle, cfg, ne)
    structure = ParabolicStructure(new_bundle, new_flags)
    return FlatTriple(structure, elm_spectrum(t.spectrum, j), conn, cfg)


def gauge_transform(t: FlatTriple, params) -> FlatTriple:
    """Push the triple forward along the automorphism with reduced parameters
    ``(a, b, c)`` on B or ``(a, b, c, g, h)`` on B'.

    Flags move by ``u -> (shift(z) + u)/a`` (the parastruct action) and the
    connection by the matching conjugation, so the result is an isomorphic
    flat triple and validates.
    """
    from .parastruct import act, act_params_shift

    bundle = t.connection.bundle
    a, shift = act_params_shift(bundle, params)
    cfg = t.cfg
    e = _entries(t)
    o11, o12, o21, o22 = e[(0, 0)], e[(0, 1)], e[(1, 0)], e[(1, 1)]
    inv_a = a.inverse()
    n11 = o11 - o12.mul_poly(shift)
    n12 = o12.scale(a)
    n21 = (
        o21 + (o11 - o22).mul_poly(shift) - o12.mul_poly(shift * shift)
    ).scale(inv_a)
    # derivative of the shift joins the (21) polynomial part
    n21 = RationalEntry(cfg, n21.residues, n21.tail - inv_a * shift.derivative())
    n22 = o22 + o12.mul_poly(shift)
    conn = _connection_from_entries(
        bundle, cfg, {(0, 0): n11, (0, 1): n12, (1, 0): n21, (1, 1): n22}
    )
    structure = act(bundle, params, t.structure, cfg)
    return FlatTriple(structure, t.spectrum, conn, cfg)
