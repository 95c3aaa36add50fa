"""Explicit logarithmic connections on split bundles over the affine chart.

A connection is ``d + sum_i A_i/(z - z_i) dz + G(z) dz`` in the split frame.
The residue ``A_i`` has the prescribed eigenvalues ``(nu+, nu-)`` and the flag
as its ``nu+`` eigenline; these conditions leave one unknown ``x_i`` per
point, so ``A_i = C_i + x_i D_i`` with constant 2x2 matrices: for a finite
flag ``t``, ``C = [[nu+, 0], [t(nu+ - nu-), nu-]]`` and
``D = [[-t, 1], [-t^2, t]]``; for the infinite flag, ``C = [[nu-, 0], [0, nu+]]``
and ``D = [[0, 0], [1, 0]]``.  Only the (21) entry of ``G`` can be nonzero, a
polynomial tail of degree at most ``d1 - d0 - 2``.

An entry's cleared numerator ``N = entry * prod_j (z - z_j)``
(``LogConnection.numerator``) is a polynomial that holds the residues and
the tail at once; the forward half of ``MarkedConfiguration.numerator_maps``
gives its coefficients from the residues.  Holomorphy at infinity is a set
of prescribed numerator coefficients, all linear in the ``x_i``: the
``z^4`` coefficients of ``N11`` and ``N22`` are minus the summand degrees
(each pole product is monic of degree 4), and the coefficients of ``N12``
and ``N21`` above the bounds of ``offdiag_bounds`` vanish.  A frame change
moves the residues pointwise; the polynomial parts it creates are
divided-difference sums of the residues (``_polynomial_part``), and only
the (21) entry may keep one, as its tail.

``solve_connection_space`` states these conditions as moments of the
residues, rows with the same row space: the top coefficients of ``N12``
are a unitriangular combination of the moments ``sum_i A12_i z_i^j``, and
the ``N11`` row is the ``N22`` row negated, by the Fuchs relation.  The
reduced echelon form of a system depends only on its row space, so the
pivots, the particular solution and the basis read off Lagrange
interpolation on the finite flags are those an elimination would give;
only the even split, whose (21) row joins the moments, goes to
``_kernel.mat_solve_affine``.  ``validate_triple`` applies only the
forward-map rows above an off-diagonal bound below 4, the degree a
residue numerator cannot exceed, and computes a determinant only where
the trace or the eigenline check fails.

The residues, the ``(C_i, D_i)`` parts and the solved vectors are
``_kernel`` triples from the solve to the validation: a triple's residues
are ``C_i + x_i D_i`` summed on triples.  ``validate_triple`` decides on
cleared integers: traces and eigenlines as cross-multiplied identities of
unnormalized triples, each diagonal sum and each off-diagonal row above
its bound on the residues cleared once, with no gcd taken.  Scalars begin
at the public accessors (``LogConnection.residues``, the tail and
``numerator`` polynomials), at ``to_json`` and in the violation messages.
The frame changes ``elm_triple`` and ``gauge_transform`` act on the
residue and tail triples as well, and move the flags on triples:
``gauge_transform`` moves them by the shift values ``s_i`` its
conjugation already evaluated (``parastruct._moved_flags``, which ``act``
shares), ``elm_triple`` by ``t_mul``/``t_div``, and its spectrum forms
``1 + nu-`` on triples.  The results wrap their triples as Scalars without
re-coercion (``Poly._of``).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import NamedTuple

from ._kernel import (
    T_ONE,
    T_ZERO,
    ZI_ZERO,
    mat_solve_affine,
    t_add,
    t_addmul,
    t_addmul_raw,
    t_clear,
    t_div,
    t_divide_linear,
    t_inv,
    t_matvec,
    t_mul,
    t_neg,
    t_norm,
    t_same,
    t_sub,
    zi_dot,
)
from .exactnum import INF, ExactError, Poly, ProjectivePoint, Scalar, json_list, sc
from .parastruct import (
    NPOINTS,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    StratumError,
    _moved_flags,
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
        self.tail = tail if tail.bound == bound else tail.shrink(bound)

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
    the tail bound.  Returns (ok, violations).

    The determinant is computed only where the trace or the eigenline check
    fails: a flag that is a ``nu+`` eigenvector makes ``nu+`` an eigenvalue,
    a trace of ``nu+ + nu-`` then makes ``nu-`` the other one, and the
    determinant is their product.  A residue numerator has degree at most 4
    (one pole product per point), so a bound of 4 or more, that of (21) on
    B and B', is never violated and is skipped; below it only the rows of
    the forward numerator map above the bound are applied, and the highest
    nonzero one is the degree a violation prints; with none, the numerator
    meets the bound whatever it is.  The (21) tail adds
    ``G21 * prod (z - z_j)``, of degree at most the (21) bound, so the
    residue part alone decides a degree above the bound.  No check
    normalizes: ``x == y`` is ``t_same`` on unnormalized forms, a diagonal
    sum is tested on its cleared residues, and a numerator row is the
    ``zi_dot`` of a forward-map row with them; the determinant and the
    Scalars of a message are formed only on failure."""
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
        p, m, l = p._t, m._t, u.lam._t
        trace = t_same(t_addmul_raw(a11, a22, T_ONE), t_addmul_raw(p, m, T_ONE))
        if u.is_infinity():
            # the flag [0 : 1]
            eigen = a12 == T_ZERO and a22 == p
        else:
            # the flag [1 : l]
            eigen = t_same(t_addmul_raw(a11, a12, l), p) and t_same(
                t_addmul_raw(a21, a22, l), t_addmul_raw(T_ZERO, p, l)
            )
        if not trace:
            v.append(f"trace at point {i + 1} is not nu+ + nu-")
        if not (trace and eigen) and t_sub(t_mul(a11, a22), t_mul(a12, a21)) != t_mul(p, m):
            v.append(f"determinant at point {i + 1} is not nu+ * nu-")
        if not eigen:
            v.append(f"flag at point {i + 1} is not a nu+ eigenline")
    for r, d in ((0, d0), (1, d1)):
        cleared, den = t_clear([m[r][r] for m in res])
        if sum(x for x, _ in cleared) != -d * den or sum(y for _, y in cleared) != 0:
            total = _t_sum([m[r][r] for m in res])
            v.append(f"sum of A{r + 1}{r + 1} residues is {Scalar._wrap(total)}, expected {-d}")
    (fwd, _), _ = t.cfg.numerator_maps()
    for (r, c), bound in offdiag_bounds(bundle):
        if bound >= NPOINTS - 1:
            continue
        xs = t_clear([m[r][c] for m in res])[0]
        # a zero numerator meets every bound, even one below -1
        top = range(max(bound + 1, 0), NPOINTS)
        deg = max((k for k in top if zi_dot(fwd[k], xs) != ZI_ZERO), default=None)
        if deg is not None:
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
        # consistent and leave the unknowns minus their rank; the rows are
        # (-t_F, 0...) and (t_F, 0...), of rank 1 iff some finite flag t != 0
        return len(self.labels) - any(D[1][1] != T_ZERO for _, D in self.parts)

    @property
    def dim_mod_gauge(self) -> int:
        return self.dim - (stabilizer_dim(self.structure, self.cfg) - 1)

    def vector_at(self, params) -> list:
        params = [sc(p)._t for p in params]
        if len(params) != self.dim:
            raise ExactError(f"expected {self.dim} free parameters")
        vec = list(self.particular)
        for p, bvec in zip(params, self.basis):
            vec = [t_addmul(v, p, b) for v, b in zip(vec, bvec)]
        return vec

    def connection_at(self, params) -> LogConnection:
        return self._build(self.vector_at(params))

    def triple_at(self, params) -> FlatTriple:
        return FlatTriple(self.structure, self.nu, self.connection_at(params), self.cfg)

    def _build(self, values) -> LogConnection:
        mats = [
            tuple(
                tuple(t_addmul(c, x, d) for c, d in zip(crow, drow))
                for crow, drow in zip(C, D)
            )
            for (C, D), x in zip(self.parts, values)
        ]
        return LogConnection._of(self.structure.bundle, mats, Poly._of(values[NPOINTS:]))


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
    sums), and zero for ``N12`` and ``N21`` above their ``offdiag_bounds``.
    The tail term ``G21 * prod (z - z_j)`` has degree at most
    ``3 + d1 - d0`` and so enters none of them.  The system is solved on
    moment rows that span the same rows, with ``b = d1 - d0``, ``F`` the
    finite flags and ``t_i`` their values:

    - (12): ``sum_F x_i z_i^j = 0`` for ``j = 0..J``, ``J = min(b, 4)``.  The
      (12) residue is ``x_i`` at a finite flag and 0 at an infinite one, and
      ``[z^(4-j)] prod_{l != i} (z - z_l)`` is monic of degree ``j`` in
      ``z_i``, so the prescribed coefficients are a unitriangular
      combination of these moments.
    - (22): ``sum_F t_i x_i = -d1 - sum_i C22_i``.  The (11) row is its
      negative, by the Fuchs relation that ``SpectrumRank2`` enforces.
    - (21), at ``b = 0`` only: ``sum_i A21_i = 0``.

    ``mat_solve_affine`` would return what the reduced row echelon form of
    ``[A | rhs]`` fixes: the pivot columns, the particular solution with its
    free coordinates zero and one basis vector per free column.  That form
    depends only on the row space, so the closed form below, which reads
    the same three things off the moment rows, gives the same vectors.

    For ``b >= 1`` there is no (21) row, and an infinite flag's ``x_i`` and
    the tail enter no row: they are free columns.  The first ``J + 1``
    finite columns, the base ``P``, are pivots of the Vandermonde rows.
    For each later finite column ``f``, ``v_f = e_f - sum_{i in P}
    l_i(z_f) e_i`` with ``l_i`` the Lagrange basis on ``P`` has vanishing
    moments, because interpolation on ``P`` is exact up to degree ``J``;
    the ``v_f`` span ``ker V = {x_i = W_i q(z_i)}``.  The values
    ``-l_i(z_f)`` depend only on the points, ``P`` and the later columns,
    so they are read from the configuration
    (``MarkedConfiguration.lagrange_rows``), which keeps them per pattern.
    The (22) row reads ``sigma_f = t_f - sum_{i in P} l_i(z_f) t_i`` on
    ``v_f``: the distance of the flag at ``z_f`` from the interpolant of the
    base flags, which is ``prod_{i in P} (z_f - z_i)`` times the divided
    difference ``L(u)`` of the flags on ``P + {f}``.  On the columns up to ``f`` the
    moment rows have the kernel spanned by the ``v_g`` with ``g <= f``, so
    the (22) row adds its pivot ``p`` at the first ``f`` with
    ``sigma_f != 0``.  With it the particular solution is
    ``rhs / sigma_p * v_p`` and the basis vector of a free ``f`` is
    ``v_f - sigma_f / sigma_p * v_p``.  Without it every finite flag lies on
    the interpolant, a section of ``O(b)``, so the structure is
    decomposable: the space is empty unless the right-hand side is zero,
    and then the particular solution is zero and the basis vectors are the
    ``v_f``.  On B' with five finite flags this is ``x_i = s W_i`` with
    ``s = rhs / L(u)``.  At ``b = 0`` the (21) row joins, and the three
    moment rows go to ``mat_solve_affine``.

    Returns None when the system is infeasible (decomposable structures
    with Kostov-generic spectra).
    """
    bundle = structure.bundle
    d0, d1 = bundle.d0, bundle.d1
    if nu.d != d0 + d1:
        raise ConnectionError(
            f"spectrum degree {nu.d} does not match bundle degree {d0 + d1}"
        )
    b = d1 - d0
    ntail = max(b - 1, 0)
    labels = [("x", i) for i in range(NPOINTS)] + [("g", k) for k in range(ntail)]
    parts = [_residue_parts(p._t, m._t, u) for (p, m), u in zip(nu.nu, structure.flags)]
    rhs = t_sub((-d1, 0, 1), _t_sum([C[1][1] for C, _ in parts]))
    if b == 0:
        # the (12), (22) and (21) rows: the D entries are 1, t_i and -t_i^2
        # at a finite flag, 0, 0 and 1 at an infinite one
        rows = [[D[r][c] for _, D in parts] for r, c in ((0, 1), (1, 1), (1, 0))]
        full = mat_solve_affine(
            rows, [T_ZERO, rhs, t_neg(_t_sum([C[1][0] for C, _ in parts]))], 3, NPOINTS
        )
        if full is None:
            return None
        return ConnectionSpace(structure, cfg, nu, labels, *full, parts)
    ts = [D[1][1] for _, D in parts]
    finite = tuple(i for i, u in enumerate(structure.flags) if not u.is_infinity())
    base, later = finite[: min(b, 4) + 1], finite[min(b, 4) + 1 :]
    ncols = len(labels)
    # v_f: 1 at f and -l_i(z_f) at the base nodes i; sigma_f is the (22) row
    # on v_f
    kernel, sigma = {}, {}
    for f, row in zip(later, cfg.lagrange_rows(base, later)):
        vec = [T_ZERO] * ncols
        vec[f], sigma[f] = T_ONE, ts[f]
        for i, x in zip(base, row):
            vec[i] = x
            sigma[f] = t_addmul(sigma[f], x, ts[i])
        kernel[f] = vec
    pivot = next((f for f in later if sigma[f] != T_ZERO), None)
    if pivot is None:
        if rhs != T_ZERO:
            return None
        particular = [T_ZERO] * ncols
    else:
        lead, inv = kernel.pop(pivot), t_inv(sigma[pivot])
        scale = t_mul(rhs, inv)
        particular = [t_mul(scale, x) for x in lead]
        for f, vec in kernel.items():
            scale = t_neg(t_mul(sigma[f], inv))
            kernel[f] = [t_addmul(x, scale, y) for x, y in zip(vec, lead)]
    basis = [
        kernel[col] if col in kernel else [T_ONE if k == col else T_ZERO for k in range(ncols)]
        for col in range(ncols)
        if col not in base and col != pivot
    ]
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


def _t_sum(xs):
    # the sum of the triples xs, with one normalization
    cleared, den = t_clear(xs)
    return t_norm(sum(x for x, _ in cleared), sum(y for _, y in cleared), den)


def _polynomial_part(f, res, zs):
    """The coefficients, lowest first, of the polynomial part of
    ``f(z) * sum_i res_i / (z - z_i)``, which is
    ``sum_i res_i (f(z) - f(z_i)) / (z - z_i)``: its ``z^m`` coefficient is
    the divided-difference sum ``sum_{k > m} f_k p_{k-1-m}`` over the power
    sums ``p_e = sum_i res_i z_i^e``.  Everything is triples."""
    n = len(f) - 1
    sums = [_t_sum(res)]
    while len(sums) < n:
        res = [t_mul(r, z) for r, z in zip(res, zs)]
        sums.append(_t_sum(res))
    return [_t_sum([t_mul(f[k], sums[k - 1 - m]) for k in range(m + 1, n + 1)]) for m in range(n)]


def _divided_residues(vals, zs, j, at_j):
    """The residues of an entry with the residues ``vals``, zero at ``z_j``,
    divided by ``z - z_j``: ``vals_i / (z_i - z_j)`` at ``i != j``, and
    ``sum_{i != j} vals_i / (z_j - z_i)`` plus ``at_j``, the value at ``z_j``
    of its polynomial part, at ``z_j``."""
    zj = zs[j]
    out = [T_ZERO if i == j else t_div(v, t_sub(z, zj)) for i, (v, z) in enumerate(zip(vals, zs))]
    out[j] = t_sub(at_j, _t_sum(out))
    return out


def elm_triple(t: FlatTriple, j: int) -> FlatTriple:
    """Elementary transformation at the j-th marked point.

    The new frame is ``(e1, (z - z_j) e2)`` with ``e1`` spanning the flag;
    the degree drops by one, the flag at z_j moves to the complementary
    summand fiber, and the spectrum transforms by ``elm_spectrum``.

    The residue triples move pointwise.  The frame factor multiplies or
    divides an entry by ``z - z_j``, and so its residue at ``z_i``, ``i != j``,
    by ``z_i - z_j``; the new pole adds 1 to one diagonal residue at ``z_j``.
    Multiplied, an entry gains the sum of its residues as a constant
    polynomial part, and its own polynomial part is multiplied by
    ``z - z_j``.  Divided, it needs a zero residue at ``z_j`` (else a double
    pole), its polynomial part is divided by ``z - z_j`` and leaves the
    remainder in the residue at ``z_j`` (``_divided_residues``).  Only the
    (21) entry may keep a polynomial part, the tail.
    """
    cfg = t.cfg
    bundle = t.connection.bundle
    zs = [z._t for z in cfg.z]
    zj = zs[point_index(j)]
    res = t.connection._res
    tail = [c._t for c in t.connection.tail.coeffs]
    u = t.structure.flags[j]
    if u.is_infinity():
        # frame ((z - z_j) e, f): lower summand degree drops; (12) is
        # divided, (21) multiplied
        if res[j][0][1] != T_ZERO:
            raise ConnectionError("division would create a double pole")
        new_d = (bundle.d0 - 1, bundle.d1)
        c11 = [m[0][0] for m in res]
        c11[j] = t_add(c11[j], T_ONE)
        c12 = _divided_residues([m[0][1] for m in res], zs, j, T_ZERO)
        c21 = [t_mul(m[1][0], t_sub(z, zj)) for m, z in zip(res, zs)]
        c22 = [m[1][1] for m in res]
        part12 = []
        part21 = [_t_sum([m[1][0] for m in res])] + tail
        for k, c in enumerate(tail):
            part21[k] = t_sub(part21[k], t_mul(zj, c))
        at_j, move = ProjectivePoint.finite(0), lambda v, zi: t_mul(v, t_sub(zi, zj))
    else:
        # frame (e + t f, (z - z_j) f): (12) is multiplied, and the (21)
        # entry A21 + t (A22 - A11) - t^2 A12 divided
        tv = u.value._t
        mixed = [
            t_sub(t_add(a21, t_mul(tv, t_sub(a22, a11))), t_mul(t_mul(tv, tv), a12))
            for ((a11, a12), (a21, a22)) in res
        ]
        if mixed[j] != T_ZERO:
            raise ConnectionError("division would create a double pole")
        new_d = (bundle.d0, bundle.d1 - 1)
        part21, tail_at_j = t_divide_linear(tail, zj)
        c11 = [t_add(m[0][0], t_mul(tv, m[0][1])) for m in res]
        c12 = [t_mul(m[0][1], t_sub(z, zj)) for m, z in zip(res, zs)]
        c21 = _divided_residues(mixed, zs, j, tail_at_j)
        c22 = [t_sub(m[1][1], t_mul(tv, m[0][1])) for m in res]
        c22[j] = t_add(c22[j], T_ONE)
        part12 = [_t_sum([m[0][1] for m in res])]
        at_j, move = INF, lambda v, zi: t_div(t_sub(v, tv), t_sub(zi, zj))
    mats = [((a, b), (c, d)) for a, b, c, d in zip(c11, c12, c21, c22)]
    new_flags = [
        at_j if i == j else ui if ui.is_infinity()
        else ProjectivePoint.finite(Scalar._wrap(move(ui.lam._t, zi)))
        for i, (ui, zi) in enumerate(zip(t.structure.flags, zs))
    ]
    if new_d[0] > new_d[1]:
        # only after a finite flag on an even split: swap the summands
        mats = [((d, c), (b, a)) for ((a, b), (c, d)) in mats]
        part12, part21 = part21, part12
        new_flags = [ProjectivePoint(f.lam, f.kappa) for f in new_flags]
        new_d = new_d[::-1]
    new_bundle = BundleSplitType(*new_d)
    if any(c != T_ZERO for c in part12):
        raise ConnectionError("entry (0, 1) acquired a polynomial part")
    conn = LogConnection._of(new_bundle, mats, Poly._of(part21))
    structure = ParabolicStructure(new_bundle, new_flags)
    return FlatTriple(structure, elm_spectrum(t.spectrum, j), conn, cfg)


def gauge_transform(t: FlatTriple, params) -> FlatTriple:
    """Push the triple forward along the automorphism with reduced parameters
    ``(a, b, c)`` on B or ``(a, b, c, g, h)`` on B'.

    Flags move by ``u -> (shift(z) + u)/a`` (the parastruct action) and the
    connection by the matching conjugation, so the result is an isomorphic
    flat triple and validates.

    The residues are conjugated pointwise, with ``s_i = shift(z_i)``:
    ``A11 - s_i A12``, ``a A12``, ``(A21 + s_i (A11 - A22) - s_i^2 A12) / a``
    and ``A22 + s_i A12``.  The shift multiplies the (12) residue terms into
    the diagonal, whose polynomial part ``_polynomial_part`` must then
    vanish.  The (21) entry keeps one, the new tail: the old tail, the
    polynomial part of the shift times the diagonal difference and of its
    square times (12), and minus the derivative of the shift, over ``a``.
    """
    bundle = t.connection.bundle
    a, shift = act_params_shift(bundle, params)
    cfg = t.cfg
    zs = [z._t for z in cfg.z]
    s = [c._t for c in shift.coeffs]
    res = t.connection._res
    # shift * sum_i A12_i / (z - z_i) joins the (11) entry
    if any(c != T_ZERO for c in _polynomial_part(s, [m[0][1] for m in res], zs)):
        raise ConnectionError("entry (0, 0) acquired a polynomial part")
    a, inv = a._t, t_inv(a._t)
    shifts = [t_divide_linear(s, z)[1] for z in zs]
    mats, diff = [], []
    for ((a11, a12), (a21, a22)), si in zip(res, shifts):
        s12 = t_mul(si, a12)
        b22 = t_add(a22, s12)
        b21 = t_mul(inv, t_sub(t_add(a21, t_mul(si, t_sub(a11, a22))), t_mul(si, s12)))
        mats.append(((t_sub(a11, s12), t_mul(a, a12)), (b21, b22)))
        diff.append(t_sub(a11, b22))
    # with the (11) part zero, the part of shift^2 * A12 is that of shift * s_i A12_i
    part = [
        t_sub(c, t_mul((k + 1, 0, 1), s[k + 1]))
        for k, c in enumerate(_polynomial_part(s, diff, zs))
    ]
    tail = [c._t for c in t.connection.tail.coeffs]
    g21 = [t_mul(inv, t_add(x, y)) for x, y in zip_longest(tail, part, fillvalue=T_ZERO)]
    conn = LogConnection._of(bundle, mats, Poly._of(g21))
    if t.structure.bundle != bundle:
        raise StratumError("structure lives on a different bundle")
    return FlatTriple(_moved_flags(t.structure, shifts, a), t.spectrum, conn, cfg)
