"""Explicit logarithmic connections on split bundles over the affine chart.

A connection is ``d + sum_i A_i/(z - z_i) dz + G(z) dz`` in the split frame.
The residue ``A_i`` has the prescribed eigenvalues ``(nu+, nu-)`` and the flag
as its ``nu+`` eigenline; these conditions leave one unknown ``x_i`` per
point, so ``A_i = C_i + x_i D_i`` with constant 2x2 matrices: for a finite
flag ``t``, ``C = [[nu+, 0], [t(nu+ - nu-), nu-]]`` and
``D = [[-t, 1], [-t^2, t]]``; for the infinite flag, ``C = [[nu-, 0], [0, nu+]]``
and ``D = [[0, 0], [1, 0]]``.  Only the (21) entry of ``G`` can be nonzero, a
polynomial tail of degree at most ``d1 - d0 - 2``.

An entry is held as its cleared numerator ``N = entry * prod_j (z - z_j)``
(``LogConnection.numerator``), a polynomial that holds the residues and the
tail at once.  One map, ``MarkedConfiguration.numerator_maps``, passes
between the two: its forward half gives the numerator coefficients of the
residues, its inverse (``residues_and_tail``) reads the residues
``N(z_i) / prod_{j != i} (z_i - z_j)`` and the tail ``N div prod (z - z_j)``
back.  Holomorphy at infinity is a set of prescribed numerator
coefficients, all linear in the ``x_i``: the ``z^4`` coefficients of
``N11`` and ``N22`` are minus the summand degrees (each pole product is monic
of degree 4), and the coefficients of ``N12`` and ``N21`` above the bounds of
``offdiag_bounds`` vanish.  A frame change is polynomial arithmetic on the
four numerators.

The residues, the ``(C_i, D_i)`` parts, the constraint rows and the solved
vectors are ``_kernel`` triples from the solve to the validation: the
system goes to ``_kernel.mat_solve_affine`` as it is built, a triple's
residues are ``C_i + x_i D_i`` summed on triples, and ``validate_triple``
checks them on triples.  Scalars begin at the public accessors
(``LogConnection.residues``, the tail and ``numerator`` polynomials), at
``to_json`` and in the violation messages.  The frame changes of
``elm_triple`` and ``gauge_transform`` are Scalar polynomial arithmetic on
the numerators, whose residues ``residues_and_tail`` reads back as triples.
"""

from __future__ import annotations

from typing import NamedTuple

from ._kernel import T_ONE, T_ZERO, mat_rank, mat_solve_affine, t_add, t_matvec, t_mul, t_neg, t_sub
from .exactnum import INF, ExactError, Poly, ProjectivePoint, Scalar, json_list, sc
from .parastruct import (
    NPOINTS,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    act,
    act_params_shift,
    point_index,
    stabilizer_dim,
)
from .spectra import SpectrumRank2, elm_spectrum
from .stability import sign_label, sign_pattern_sums


class ConnectionError(ValueError):
    """Raised on malformed connection data."""


class DegreeBounds(NamedTuple):
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


class LogConnection:
    """Residue matrices at the five marked points plus the (21) tail.

    The residues are kept as ``_kernel`` triples in ``_res``; ``residues``
    gives them as Scalars."""

    __slots__ = ("bundle", "_res", "tail")

    def __init__(self, bundle: BundleSplitType, residues, tail: Poly | None = None):
        mats = [
            ((sc(a11)._t, sc(a12)._t), (sc(a21)._t, sc(a22)._t))
            for ((a11, a12), (a21, a22)) in residues
        ]
        self._set(bundle, mats, tail)

    @classmethod
    def _of(cls, bundle: BundleSplitType, mats, tail: Poly | None = None) -> "LogConnection":
        """The connection with the residue triples ``mats``, taken as they are."""
        conn = object.__new__(cls)
        conn._set(bundle, mats, tail)
        return conn

    def _set(self, bundle, mats, tail):
        self.bundle = bundle
        if len(mats) != NPOINTS:
            raise ExactError("one residue matrix per marked point")
        self._res = tuple(mats)
        max_tail = bundle.d1 - bundle.d0 - 2
        bound = max(max_tail, -1)
        if tail is None:
            tail = Poly.zero(bound)
        if tail.degree() > bound:
            raise ConnectionError(f"tail degree {tail.degree()} exceeds bound {max_tail}")
        self.tail = tail.shrink(bound)

    @property
    def residues(self):
        """The residue matrices as Scalars."""
        return tuple(tuple(tuple(Scalar._wrap(x) for x in row) for row in m) for m in self._res)

    def _residue_numerator(self, r: int, c: int, cfg: MarkedConfiguration):
        # the coefficient triples of the residues summed against the pole
        # products, the cleared entry without its tail
        (rows, den), _ = cfg.numerator_maps()
        return t_matvec(rows, den, [m[r][c] for m in self._res])

    def numerator(self, r: int, c: int, cfg: MarkedConfiguration) -> Poly:
        """The cleared entry ``N_rc = entry_rc * prod_j (z - z_j)``: the
        residues summed against the pole products, plus the tail times the
        node polynomial in the (21) entry."""
        num = Poly([Scalar._wrap(x) for x in self._residue_numerator(r, c, cfg)])
        return num + self.tail * cfg.pole_products()[0] if (r, c) == (1, 0) else num

    def to_json(self):
        return {
            "A": [[[str(Scalar._wrap(x)) for x in row] for row in m] for m in self._res],
            "G21": [str(c) for c in self.tail.coeffs],
            "bundle": self.bundle.name,
        }

    @classmethod
    def from_json(cls, data) -> "LogConnection":
        bundle = BundleSplitType.parse(data["bundle"])
        residues = [
            [[Scalar.parse(x) for x in json_list(row, "a residue row")]
             for row in json_list(m, "a residue matrix")]
            for m in json_list(data["A"], "A")
        ]
        coeffs = [Scalar.parse(s) for s in json_list(data.get("G21", []), "G21")]
        tail = Poly(coeffs, bound=max(bundle.d1 - bundle.d0 - 2, -1)) if coeffs else None
        return cls(bundle, residues, tail)

    def __eq__(self, other):
        if not isinstance(other, LogConnection):
            return NotImplemented
        return (
            self.bundle == other.bundle
            and self._res == other._res
            and self.tail == other.tail
        )


class FlatTriple(NamedTuple):
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


def offdiag_bounds(bundle: BundleSplitType):
    """The degree bounds of the cleared off-diagonal numerators that make a
    connection on ``bundle`` holomorphic at infinity, as ``((r, c), bound)``:
    ``3 + d0 - d1`` for (12) and ``3 + d1 - d0`` for (21), tail included."""
    d0, d1 = bundle.d0, bundle.d1
    return (((0, 1), 3 + d0 - d1), ((1, 0), 3 + d1 - d0))


def validate_triple(t: FlatTriple) -> tuple[bool, list[str]]:
    """Exact check of every invariant: residue characteristic polynomials,
    flag eigenlines, diagonal sums, off-diagonal numerator degree bounds and
    the tail bound.  Returns (ok, violations)."""
    v: list[str] = []
    bundle = t.connection.bundle
    d0, d1 = bundle.d0, bundle.d1
    res = t.connection._res
    if t.structure.bundle != bundle:
        v.append("structure and connection bundles differ")
    if t.spectrum.d != d0 + d1:
        v.append(f"spectrum degree {t.spectrum.d} != bundle degree {d0 + d1}")
    for i, (((a11, a12), (a21, a22)), (p, m), u) in enumerate(
        zip(res, t.spectrum.nu, t.structure.flags)
    ):
        p, m, k, l = p._t, m._t, u.kappa._t, u.lam._t
        if t_add(a11, a22) != t_add(p, m):
            v.append(f"trace at point {i + 1} is not nu+ + nu-")
        if t_sub(t_mul(a11, a22), t_mul(a12, a21)) != t_mul(p, m):
            v.append(f"determinant at point {i + 1} is not nu+ * nu-")
        if t_add(t_mul(a11, k), t_mul(a12, l)) != t_mul(p, k) or (
            t_add(t_mul(a21, k), t_mul(a22, l)) != t_mul(p, l)
        ):
            v.append(f"flag at point {i + 1} is not a nu+ eigenline")
    for r, d in ((0, d0), (1, d1)):
        total = T_ZERO
        for m in res:
            total = t_add(total, m[r][r])
        if total != (-d, 0, 1):
            v.append(f"sum of A{r + 1}{r + 1} residues is {Scalar._wrap(total)}, expected {-d}")
    # the (21) tail adds ``G21 * prod (z - z_j)``, of degree at most the (21)
    # bound, so the residue part alone decides a degree above the bound
    for (r, c), bound in offdiag_bounds(bundle):
        num = t.connection._residue_numerator(r, c, t.cfg)
        deg = max((k for k, (a, b, _) in enumerate(num) if a or b), default=-1)
        if deg > bound:
            v.append(f"({r + 1}{c + 1}) numerator degree {deg} exceeds {bound}")
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
    ``C_i + x_i D_i``.  ``particular``, ``basis`` and ``parts`` are
    ``_kernel`` triples.
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
        diag = [[D[r][r] for _, D in self.parts] + [T_ZERO] * ntail for r in (0, 1)]
        return len(self.labels) - mat_rank(diag, 2, len(self.labels))

    @property
    def dim_mod_gauge(self) -> int:
        return self.dim - (stabilizer_dim(self.structure, self.cfg) - 1)

    def vector_at(self, params) -> list:
        params = [sc(p)._t for p in params]
        if len(params) != self.dim:
            raise ExactError(f"expected {self.dim} free parameters")
        vec = list(self.particular)
        for p, bvec in zip(params, self.basis):
            vec = [t_add(v, t_mul(p, b)) for v, b in zip(vec, bvec)]
        return vec

    def connection_at(self, params) -> LogConnection:
        return self._build(self.vector_at(params))

    def triple_at(self, params) -> FlatTriple:
        return FlatTriple(self.structure, self.nu, self.connection_at(params), self.cfg)

    def _build(self, values) -> LogConnection:
        mats = [
            tuple(
                tuple(t_add(c, t_mul(x, d)) for c, d in zip(crow, drow))
                for crow, drow in zip(C, D)
            )
            for (C, D), x in zip(self.parts, values)
        ]
        tail = [Scalar._wrap(x) for x in values[NPOINTS:]]
        return LogConnection._of(
            self.structure.bundle, mats, Poly(tail, bound=len(tail) - 1) if tail else None
        )


def _residue_parts(p, m, u: ProjectivePoint):
    """``(C, D)`` such that the residues with eigenvalues ``(p, m)`` and the
    flag ``u`` as ``p``-eigenline are exactly ``C + x*D``, ``x`` free: the
    (12) entry at a finite flag ``t``, the (21) entry at an infinite one.
    The eigenvalues and the parts are triples."""
    if u.is_infinity():
        return ((m, T_ZERO), (T_ZERO, p)), ((T_ZERO, T_ZERO), (T_ONE, T_ZERO))
    t = u.value._t
    return ((p, T_ZERO), (t_mul(t, t_sub(p, m)), m)), ((t_neg(t), T_ONE), (t_neg(t_mul(t, t)), t))


def solve_connection_space(
    structure: ParabolicStructure,
    cfg: MarkedConfiguration,
    nu: SpectrumRank2,
) -> ConnectionSpace | None:
    """Solve the full residue-constraint system exactly.

    The unknowns are the ``x_i`` of ``A_i = C_i + x_i D_i`` (see
    ``_residue_parts``) and the tail coefficients.  Every constraint is a
    prescribed coefficient ``[z^k] N_rc`` of a cleared numerator: ``z^4`` of
    ``N11`` and ``N22`` at minus the summand degrees (the diagonal residue
    sums), and zero for ``N12`` and ``N21`` above their ``offdiag_bounds``,
    highest first.  Row ``k`` of the forward map of ``cfg.numerator_maps``,
    cleared to Gaussian integers, gives the constraint scaled by the map's
    denominator: applied entrywise to the ``D_i`` it is the row of the
    system, applied to the ``C_i`` the constant.  The tail term
    ``G21 * prod (z - z_j)`` has degree at most ``3 + d1 - d0`` and so enters
    none of them.  Returns None when the system is infeasible (decomposable
    structures with Kostov-generic spectra).
    """
    bundle = structure.bundle
    d0, d1 = bundle.d0, bundle.d1
    if nu.d != d0 + d1:
        raise ConnectionError(
            f"spectrum degree {nu.d} does not match bundle degree {d0 + d1}"
        )
    ntail = max(d1 - d0 - 1, 0)
    labels = [("x", i) for i in range(NPOINTS)] + [("g", k) for k in range(ntail)]
    parts = [_residue_parts(p._t, m._t, u) for (p, m), u in zip(nu.nu, structure.flags)]
    (fwd, den), _ = cfg.numerator_maps()
    top = NPOINTS - 1
    prescribed = [((0, 0), top, -d0), ((1, 1), top, -d1)] + [
        (rc, k, 0)
        for rc, bound in offdiag_bounds(bundle)
        for k in range(top, max(bound, -1), -1)
    ]
    rows, rhs = [], []
    for (r, c), k, value in prescribed:
        (const,) = t_matvec([fwd[k]], 1, [C[r][c] for C, _ in parts])
        rows.append(
            [t_mul((a, b, 1), D[r][c]) for (a, b), (_, D) in zip(fwd[k], parts)] + [T_ZERO] * ntail
        )
        rhs.append(t_sub((den * value, 0, 1), const))
    full = mat_solve_affine(rows, rhs, len(rows), len(labels))
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


_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def _numerators(t: FlatTriple) -> list[Poly]:
    return [t.connection.numerator(r, c, t.cfg) for r, c in _ENTRIES]


def residues_and_tail(num: Poly, cfg: MarkedConfiguration) -> tuple[list, Poly]:
    """Inverse of ``LogConnection.numerator``: the residues
    ``N(z_i) / prod_{j != i} (z_i - z_j)``, as triples, and the tail
    ``N div prod (z - z_j)`` of the entry with cleared numerator ``N``."""
    node, _ = cfg.pole_products()
    _, (rows, den) = cfg.numerator_maps()
    rem = list(num.coeffs)
    quot = []
    while len(rem) > NPOINTS:
        q = rem.pop()
        quot.append(q)
        if not q.is_zero():
            for k, c in enumerate(node.coeffs[:NPOINTS], len(rem) - NPOINTS):
                rem[k] = rem[k] - q * c
    return t_matvec(rows, den, [c._t for c in rem]), Poly(quot[::-1])


def _divide_exact(num: Poly, zj: Scalar) -> Poly:
    """``num / (z - z_j)``; a nonzero remainder is a double pole at z_j."""
    quot, rem = num.divide_linear(zj)
    if not rem.is_zero():
        raise ConnectionError("division would create a double pole")
    return quot


def _from_numerators(bundle, cfg, nums) -> LogConnection:
    """The connection on ``bundle`` with the cleared entries ``nums``, in the
    order of ``_ENTRIES``; only the (21) entry may keep a polynomial part."""
    cols = {}
    for key, num in zip(_ENTRIES, nums):
        cols[key], tail = residues_and_tail(num, cfg)
        if key == (1, 0):
            g21 = tail
        elif not tail.is_zero():
            raise ConnectionError(f"entry {key} acquired a polynomial part")
    mats = [
        ((cols[0, 0][i], cols[0, 1][i]), (cols[1, 0][i], cols[1, 1][i]))
        for i in range(NPOINTS)
    ]
    return LogConnection._of(bundle, mats, g21)


def elm_triple(t: FlatTriple, j: int) -> FlatTriple:
    """Elementary transformation at the j-th marked point.

    The new frame is ``(e1, (z - z_j) e2)`` with ``e1`` spanning the flag;
    the degree drops by one, the flag at z_j moves to the complementary
    summand fiber, and the spectrum transforms by ``elm_spectrum``.  On the
    cleared numerators a new pole at z_j adds ``prod_{i != j} (z - z_i)``,
    the frame factor multiplies or divides by ``z - z_j``.
    """
    cfg = t.cfg
    bundle = t.connection.bundle
    zj = cfg.z[point_index(j)]
    lin = Poly([-zj, 1])
    pole = cfg.pole_products()[1][j]
    n11, n12, n21, n22 = _numerators(t)
    u = t.structure.flags[j]
    if u.is_infinity():
        # frame ((z - z_j) e, f): lower summand degree drops
        new_d = (bundle.d0 - 1, bundle.d1)
        nums = [n11 + pole, _divide_exact(n12, zj), n21 * lin, n22]
        at_j, move = ProjectivePoint.finite(0), lambda v, zi: v * (zi - zj)
    else:
        tval = u.value
        new_d = (bundle.d0, bundle.d1 - 1)
        t12 = tval * n12
        nums = [
            n11 + t12,
            n12 * lin,
            _divide_exact(n21 + tval * (n22 - n11 - t12), zj),
            n22 - t12 + pole,
        ]
        at_j, move = INF, lambda v, zi: (v - tval) / (zi - zj)
    new_flags = [
        at_j if i == j else ui if ui.is_infinity() else ProjectivePoint.finite(move(ui.value, zi))
        for i, (ui, zi) in enumerate(zip(t.structure.flags, cfg.z))
    ]
    if new_d[0] > new_d[1]:
        # only after a finite flag on an even split: swap the summands
        nums.reverse()
        new_flags = [ProjectivePoint(f.lam, f.kappa) for f in new_flags]
        new_d = new_d[::-1]
    new_bundle = BundleSplitType(*new_d)
    conn = _from_numerators(new_bundle, cfg, nums)
    structure = ParabolicStructure(new_bundle, new_flags)
    return FlatTriple(structure, elm_spectrum(t.spectrum, j), conn, cfg)


def gauge_transform(t: FlatTriple, params) -> FlatTriple:
    """Push the triple forward along the automorphism with reduced parameters
    ``(a, b, c)`` on B or ``(a, b, c, g, h)`` on B'.

    Flags move by ``u -> (shift(z) + u)/a`` (the parastruct action) and the
    connection by the matching conjugation, so the result is an isomorphic
    flat triple and validates.
    """
    bundle = t.connection.bundle
    a, shift = act_params_shift(bundle, params)
    cfg = t.cfg
    n11, n12, n21, n22 = _numerators(t)
    node = cfg.pole_products()[0]
    s12 = shift * n12
    # the derivative of the shift joins the (21) entry as a polynomial part
    n21 = a.inverse() * (n21 + shift * (n11 - n22) - shift * s12 - node * shift.derivative())
    conn = _from_numerators(bundle, cfg, [n11 - s12, a * n12, n21, n22 + s12])
    structure = act(bundle, params, t.structure, cfg)
    return FlatTriple(structure, t.spectrum, conn, cfg)
