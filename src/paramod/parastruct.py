"""Parabolic structures on split rank-2 bundles over the five-punctured line.

A flag at a marked point is a point of the projective line: the finite value
``u`` stands for the line through ``e(z_i) + u*f(z_i)`` (``e`` spanning the
lower-degree summand, ``f`` the higher one), and ``inf`` for the fiber of the
higher-degree summand itself.

The flags enter every decision through one moment functional: the moments
``M_k = sum_F u_i W_i z_i^k``, ``k <= 2``, of the finite flags ``F`` over
the five-point divided-difference weights, summed on Gaussian integers
against the configuration's cached integer nodes (``_moment_sums``).
Decomposability is decided by ``_decomposition_coords``: the top divided
differences ``L(z^k)`` of the finite flags, which all vanish exactly when
the flags lie on a section of ``O(d1 - d0)``, and which are these moments
shifted by the infinite flags.  ``classify``, ``is_decomposable``,
``quotient_coords`` and ``stabilizer_dim`` read them as integers, and none
of them runs a linear solve or builds a Scalar to decide: ``classify``
wraps one Scalar per projective coordinate it returns, ``quotient_coords``
divides by the known scale once, and ``is_decomposable`` interpolates only
to build the witness of a decomposable structure.  ``_flag_moments`` reads
the same moments for ``is_stable``'s degree -1 full contact and for the
C*-limit's degenerations in ``higgslimit``.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations
from math import lcm, prod
from typing import NamedTuple

from ._kernel import t_add, t_clear, t_div, t_divide_linear, t_norm
from .exactnum import (
    INF,
    ExactError,
    Mat,
    Poly,
    ProjectivePoint,
    Scalar,
    clear_denominators,
    divided_difference_weights,
    interpolate,
    json_list,
    monic_from_roots,
    sc,
)

NPOINTS = 5


class StratumError(ValueError):
    """Raised when an operation is applied to the wrong stratum or bundle."""


def point_index(j) -> int:
    """``j`` checked as the 0-based index of a marked point; a negative index
    is rejected, not read from the end."""
    if not isinstance(j, int) or not 0 <= j < NPOINTS:
        raise ExactError(f"marked point index {j!r} outside 0..{NPOINTS - 1}")
    return j


class MarkedConfiguration:
    """Five pairwise distinct finite real marked points on the affine line.

    Instances are immutable, so the pole products of ``pole_products``, the
    maps of ``numerator_maps``, the integer nodes of ``node_weights`` and the
    Lagrange rows of ``lagrange_rows`` are built once, on first use, and kept
    in the ``_poles``, ``_maps``, ``_nodes`` and ``_lagrange`` slots for the
    life of the configuration; ``_lagrange`` is a dict, made by the first
    connection solve, of one tuple of rows per node pattern.
    ``numerator_maps`` is the one passage between the residues of a
    connection entry and its cleared numerator: ``validate_triple`` and
    ``higgslimit.theta_from_connection`` test the top coefficients with
    rows of the forward map, ``LogConnection.numerator`` and theta's lower
    coefficients apply it, and ``higgslimit`` finds the marked zeros of a
    Higgs field given by its theta alone with the inverse one.  The node polynomial of
    ``pole_products`` carries the tail of ``LogConnection.numerator``.
    """

    __slots__ = ("z", "_poles", "_maps", "_nodes", "_lagrange")

    def __init__(self, z):
        zs = tuple(sc(x) for x in z)
        if len(zs) != NPOINTS:
            raise ExactError(f"expected {NPOINTS} marked points, got {len(zs)}")
        if any(not x.is_real() for x in zs):
            raise ExactError("marked points must be real")
        if len(set(zs)) != NPOINTS:
            raise ExactError("marked points must be pairwise distinct")
        self.z = zs
        self._poles = None
        self._maps = None
        self._nodes = None
        self._lagrange = None

    def pole_products(self) -> tuple[Poly, tuple[Poly, ...]]:
        """The node polynomial ``prod_j (z - z_j)`` and the five products
        ``prod_{j != i} (z - z_j)``, each the node polynomial divided by
        ``z - z_i``; the same coefficients and bounds as ``monic_from_roots``
        of the same roots."""
        if self._poles is None:
            node = monic_from_roots(self.z)
            self._poles = (node, tuple(node.divide_linear(zi)[0] for zi in self.z))
        return self._poles

    def numerator_maps(self):
        """The linear maps between the residues ``r_i`` of a connection entry
        without tail and the coefficients ``N_k`` of its cleared numerator
        (degree <= 4): ``N_k = sum_i r_i [z^k] prod_{j != i} (z - z_j)`` and
        its inverse, Lagrange interpolation at the marked points,
        ``r_i = sum_k N_k z_i^k / prod_{j != i} (z_i - z_j)``.  Each is a
        pair (Gaussian-integer rows, denominator) of ``clear_denominators``,
        for ``_kernel.t_matvec``."""
        if self._maps is None:
            _, partials = self.pole_products()
            weights = divided_difference_weights(self.z)
            self._maps = (
                clear_denominators([[p.coeffs[k] for p in partials] for k in range(NPOINTS)]),
                clear_denominators(
                    [[w * zi**k for k in range(NPOINTS)] for zi, w in zip(self.z, weights)]
                ),
            )
        return self._maps

    def node_weights(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The marked points cleared to integers ``Z_i = D z_i`` and the
        integer divided-difference weights ``W_i = L / prod_{j != i}
        (Z_i - Z_j)``, ``L`` the lcm of those products: ``W_i`` is
        ``1 / prod_{j != i} (z_i - z_j)`` times one positive scale for all
        five points, with no Scalar built."""
        if self._nodes is None:
            z = tuple(a for a, _ in t_clear([x._t for x in self.z])[0])
            prods = [prod(zi - zj for zj in z if zj != zi) for zi in z]
            scale = lcm(*prods)
            self._nodes = (z, tuple(scale // p for p in prods))
        return self._nodes

    def lagrange_rows(self, base: tuple[int, ...], later: tuple[int, ...]):
        """For each marked point ``f`` of ``later``, the triples ``-l_i(z_f)``,
        ``i`` in ``base``, of the Lagrange basis ``l_i`` on the points of
        ``base``: ``-prod_{k != i} (Z_f - Z_k) / prod_{k != i} (Z_i - Z_k)`` on
        the cleared points of ``node_weights``, which the common scale
        leaves unchanged.  Kept per ``(base, later)``: a repeat, or a race
        that builds an entry twice, finds the same tuples."""
        if self._lagrange is None:
            self._lagrange = {}
        rows = self._lagrange.get((base, later))
        if rows is None:
            z = self.node_weights()[0]

            def minus_l(i, f):
                zs = [z[k] for k in base if k != i]
                return t_norm(-prod(z[f] - x for x in zs), 0, prod(z[i] - x for x in zs))

            rows = tuple(tuple(minus_l(i, f) for i in base) for f in later)
            self._lagrange[base, later] = rows
        return rows

    def to_json(self):
        return {"z": [str(x) for x in self.z]}

    @classmethod
    def from_json(cls, data) -> "MarkedConfiguration":
        return cls([Scalar.parse(s) for s in json_list(data["z"], "z")])

    def __eq__(self, other):
        if not isinstance(other, MarkedConfiguration):
            return NotImplemented
        return self.z == other.z

    def __hash__(self):
        return hash(self.z)

    def __repr__(self):
        return f"MarkedConfiguration({[str(x) for x in self.z]})"


class _SplitFields(NamedTuple):
    d0: int
    d1: int


class BundleSplitType(_SplitFields):
    """Split type O(d0) + O(d1) with d0 <= d1."""

    __slots__ = ()

    def __new__(cls, d0: int, d1: int):
        if d0 > d1:
            raise ExactError("split type requires d0 <= d1")
        return super().__new__(cls, d0, d1)

    @property
    def degree(self) -> int:
        return self.d0 + self.d1

    @property
    def name(self) -> str:
        if (self.d0, self.d1) == (0, 1):
            return "B"
        if (self.d0, self.d1) == (-1, 2):
            return "Bprime"
        return f"O({self.d0})+O({self.d1})"

    @classmethod
    def parse(cls, text: str) -> "BundleSplitType":
        t = text.strip()
        if t == "B":
            return B
        if t in ("Bprime", "B'"):
            return BPRIME
        raise ExactError(f"unknown bundle {text!r}")


B = BundleSplitType(0, 1)
BPRIME = BundleSplitType(-1, 2)


class ParabolicStructure:
    """A choice of flag at each of the five marked points of a split bundle."""

    __slots__ = ("bundle", "flags")

    def __init__(self, bundle: BundleSplitType, flags):
        fl = []
        for u in flags:
            if isinstance(u, ProjectivePoint):
                fl.append(u)
            elif isinstance(u, str):
                fl.append(ProjectivePoint.parse(u))
            else:
                fl.append(ProjectivePoint.finite(sc(u)))
        if len(fl) != NPOINTS:
            raise ExactError(f"expected {NPOINTS} flags, got {len(fl)}")
        self.bundle = bundle
        self.flags = tuple(fl)

    def infinity_indices(self) -> tuple[int, ...]:
        return tuple(i for i, u in enumerate(self.flags) if u.is_infinity())

    def finite_values(self) -> dict[int, Scalar]:
        return {i: u.value for i, u in enumerate(self.flags) if not u.is_infinity()}

    def to_json(self):
        return {"bundle": self.bundle.name, "u": [str(u) for u in self.flags]}

    @classmethod
    def from_json(cls, data) -> "ParabolicStructure":
        return cls(
            BundleSplitType.parse(data["bundle"]),
            [ProjectivePoint.parse(s) for s in json_list(data["u"], "u")],
        )

    def __eq__(self, other):
        if not isinstance(other, ParabolicStructure):
            return NotImplemented
        return self.bundle == other.bundle and self.flags == other.flags

    def __hash__(self):
        return hash((self.bundle, self.flags))

    def __repr__(self):
        return f"ParabolicStructure({self.bundle.name}, {[str(u) for u in self.flags]})"


class StratumId(NamedTuple):
    """Label of an automorphism-orbit stratum, with quotient coordinates where
    the stratum has moduli.

    Families over B: ``U2`` (all flags finite), ``Ui`` (one infinite flag),
    ``UijPrime``/``UijDoublePrime`` (two infinite flags, degenerate and generic
    halves), ``Uplus`` (three or more).  Over B' the 33 rigid orbit labels.
    """

    family: str
    indices: tuple[int, ...] = ()
    coords: tuple[Scalar, ...] | None = None
    decomposable: bool = False

    def label(self) -> str:
        idx = ",".join(str(i + 1) for i in self.indices)
        if self.family == "U2":
            return "U2" + ("-dec" if self.decomposable else "")
        if self.family == "Ui":
            return f"U({idx})" + ("-dec" if self.decomposable else "")
        if self.family == "UijPrime":
            return f"U'({idx})"
        if self.family == "UijDoublePrime":
            return f"U''({idx})"
        if self.family == "Uplus":
            return f"U+({idx})"
        if self.family == "BprimeGenericIndec":
            return "Bprime-generic-indecomposable"
        if self.family == "BprimeGenericDec":
            return "Bprime-generic-decomposable"
        if self.family == "BprimeInf":
            return f"Bprime-inf({idx})"
        raise StratumError(f"unknown family {self.family}")

    def coords_str(self) -> list[str] | None:
        if self.coords is None:
            return None
        return [str(c) for c in self.coords]


def act(
    bundle: BundleSplitType,
    params,
    structure: ParabolicStructure,
    cfg: MarkedConfiguration,
) -> ParabolicStructure:
    """Apply a bundle automorphism to the flags.

    For B the parameters are ``(a, b, c)`` acting by
    ``u -> (b*z + c + u) / a``; for B' they are ``(a, b, c, g, h)`` acting by
    ``u -> (b*z^3 + c*z^2 + g*z + h + u) / a``.  Infinite flags are fixed.
    The shift is evaluated and the flags moved on ``_kernel`` triples.
    """
    if structure.bundle != bundle:
        raise StratumError("structure lives on a different bundle")
    a, shift = act_params_shift(bundle, params)
    s = [c._t for c in shift.coeffs]
    return _moved_flags(structure, [t_divide_linear(s, z._t)[1] for z in cfg.z], a._t)


def _moved_flags(structure: ParabolicStructure, shifts, a) -> ParabolicStructure:
    # each finite flag u_i moved to (s_i + u_i) / a, for the triples s_i
    # (the shift at z_i) and a; infinite flags are fixed
    return ParabolicStructure(structure.bundle, [
        u if u.is_infinity() else ProjectivePoint.finite(Scalar._wrap(t_div(t_add(si, u.lam._t), a)))
        for u, si in zip(structure.flags, shifts)
    ])


def act_params_shift(bundle: BundleSplitType, params) -> tuple[Scalar, Poly]:
    """Normalize automorphism parameters to ``(a, shift polynomial)``.

    B: params ``(a, b, c)``, shift ``b*z + c``.  B': ``(a, b, c, g, h)``,
    shift ``b*z^3 + c*z^2 + g*z + h``.  A finite flag moves by
    ``u -> (shift(z_i) + u) / a``; infinite flags are fixed.
    """
    ps = [sc(p) for p in params]
    if bundle == B:
        if len(ps) != 3:
            raise ExactError("B automorphism takes (a, b, c)")
        a, b, c = ps
        shift = Poly([c, b])
    elif bundle == BPRIME:
        if len(ps) != 5:
            raise ExactError("B' automorphism takes (a, b, c, g, h)")
        a, b, c, g, h = ps
        shift = Poly([h, g, c, b])
    else:
        raise StratumError("action defined for B and B' only")
    if a.is_zero():
        raise ExactError("automorphism scale a must be nonzero")
    return a, shift


class FlagMoments(NamedTuple):
    """Which forms in the moments ``M_k = sum_F u_i W_i z_i^k``, ``k = 0, 1,
    2``, of the finite flags ``F`` over the five-point divided-difference
    weights ``W_i`` are nonzero (``_flag_moments``): ``M_0``, ``M_0 M_2 -
    M_1^2``, and ``Q(a, b) = sum_F u_i W_i (z_i - z_a)(z_i - z_b) = M_2 -
    (z_a + z_b) M_1 + z_a z_b M_0`` as a function of two marked points."""

    m0_nonzero: bool
    gram_nonzero: bool
    q_nonzero: Callable[[int, int], bool]


def _moment_sums(structure: ParabolicStructure, cfg: MarkedConfiguration):
    """The cleared points ``Z_i = D z_i`` of ``node_weights`` and the moments
    ``M_k = sum_F U_i W_i Z_i^k``, ``k = 0, 1, 2``, of the finite flags
    ``F``, each a Gaussian integer ``(re, im)``: the flags cleared once to
    ``U_i = E u_i`` and summed against the configuration's cached integer
    nodes and weights.  As ``W_i = (L / D^4) w_i`` for the five-point
    weights ``w_i = 1 / prod_{j != i} (z_i - z_j)``, ``M_k`` is the exact
    moment ``m_k = sum_F u_i w_i z_i^k`` times ``c D^k``, ``c = E L / D^4 >
    0``."""
    z, w = cfg.node_weights()
    fin = structure.finite_values()
    m0r = m0i = m1r = m1i = m2r = m2i = 0
    for i, (a, b) in zip(fin, t_clear([u._t for u in fin.values()])[0]):
        c = w[i]
        m0r += a * c
        m0i += b * c
        c *= z[i]
        m1r += a * c
        m1i += b * c
        c *= z[i]
        m2r += a * c
        m2i += b * c
    return z, [(m0r, m0i), (m1r, m1i), (m2r, m2i)]


def _flag_moments(structure: ParabolicStructure, cfg: MarkedConfiguration) -> FlagMoments:
    """The moment forms of ``FlagMoments`` on the integer moments of
    ``_moment_sums``.  Each form is homogeneous in the points, so it is zero
    iff the exact one is.  These moments are the one functional of the flags
    that the package reads: the decomposition coordinates of ``classify``
    and its siblings, ``is_stable``'s degree -1 full contact and the
    C*-limit's degree -1 degenerations."""
    z, ((m0r, m0i), (m1r, m1i), (m2r, m2i)) = _moment_sums(structure, cfg)

    def q_nonzero(a: int, b: int) -> bool:
        s, p = z[a] + z[b], z[a] * z[b]
        return m2r - s * m1r + p * m0r != 0 or m2i - s * m1i + p * m0i != 0

    gram_nonzero = m0r * m2r - m0i * m2i != m1r * m1r - m1i * m1i or (
        m0r * m2i + m0i * m2r != 2 * m1r * m1i
    )
    return FlagMoments(m0r != 0 or m0i != 0, gram_nonzero, q_nonzero)


def _decomposition_coords(
    structure: ParabolicStructure, cfg: MarkedConfiguration
) -> list[tuple[int, int]]:
    """The coordinates ``L_F(z^k)``, ``0 <= k < n - 1 - b``, that vanish
    exactly on decomposable structures, as Gaussian integers: the ``k``-th
    is ``L_F(z^k)`` times ``c D^(k + |I|)`` (``_moment_sums``).

    Here ``F`` is the ``n`` finite flags, ``I`` the infinite ones, ``b = d1
    - d0 >= 1`` and ``L_F(p) = sum_F u_i p(z_i) / prod_{j in F, j != i}(z_i
    - z_j)`` is the top divided difference over the finite nodes.  ``L_F``
    annihilates every polynomial of degree <= n - 2 and sends ``z^(n-1)`` to
    1, so with ``P = sum_m p_m z^m`` the interpolant of the flags (degree <=
    n - 1), ``L_F(z^k) = sum_m p_m L_F(z^(m+k))`` is ``p_(n-1-k)`` plus a
    combination of the ``p_m`` with ``m > n - 1 - k``.  For ``k < n - 1 - b``
    the map from ``(p_(b+1), ..., p_(n-1))`` is therefore unitriangular: the
    coordinates all vanish iff ``deg P <= b``, that is iff the finite flags
    lie on a section of ``O(d1 - d0)``, which is iff the structure is
    decomposable (infinite flags sit on the higher summand).  With ``n <= b
    + 1`` the list is empty and the condition holds vacuously.

    The weights over ``F`` are the five-point ones times ``prod_{j in
    I}(z_i - z_j)``, so ``L_F(z^k)`` is the moment functional at ``z^k
    prod_I (z - z_j)``, of degree ``k + |I| <= 3 - b <= 2``: on B ``(m_0,
    m_1, m_2)``, ``(m_1 - z_i0 m_0, m_2 - z_i0 m_1)`` and ``Q(i0, i1)`` for
    no, one and two infinite flags, on B' ``m_0`` when every flag is
    finite.  Taken on the cleared points, that polynomial is ``D^(k + |I|)``
    times the exact one, whence the scale.
    """
    b = structure.bundle.d1 - structure.bundle.d0
    infinite = structure.infinity_indices()
    ncoords = NPOINTS - len(infinite) - 1 - b
    if ncoords <= 0:
        return []
    z, coords = _moment_sums(structure, cfg)
    # times (z - z_j): the functional at z^k becomes the old one at z^(k+1)
    # minus z_j times the old one at z^k
    for j in infinite:
        zj = z[j]
        coords = [(hr - zj * lr, hi - zj * li) for (lr, li), (hr, hi) in zip(coords, coords[1:])]
    return coords[:ncoords]


def _all_zero(coords) -> bool:
    return all(x == (0, 0) for x in coords)


def is_decomposable(
    structure: ParabolicStructure, cfg: MarkedConfiguration
) -> tuple[bool, Poly | None]:
    """Decide decomposability; the witness is the section of the lower summand
    through all finite flags (infinite flags sit on the higher summand).

    For B the witness is a polynomial of degree <= 1, for B' degree <= 3.
    Returns ``(True, witness)`` or ``(False, None)``.
    """
    bundle = structure.bundle
    if bundle not in (B, BPRIME):
        raise StratumError("decomposability implemented for B and B' only")
    if not _all_zero(_decomposition_coords(structure, cfg)):
        return False, None
    # Hom(O(d0), O(d1)) has sections of degree <= d1 - d0
    pts = [(cfg.z[i], u) for i, u in structure.finite_values().items()]
    return True, interpolate(pts, bundle.d1 - bundle.d0)


def quotient_coords(
    structure: ParabolicStructure, cfg: MarkedConfiguration
) -> tuple[Scalar, ...]:
    """Action-invariant projective coordinates of an all-finite or one-infinity
    B-structure.

    All finite: ``[L(1) : L(z) : L(z^2)]`` with
    ``L(p) = sum_i u_i p(z_i) / prod_{j != i}(z_i - z_j)``; the divided
    difference identity makes the tuple invariant up to the scale ``1/a``.
    One infinite flag: the analogous degree-1 functional over the four finite
    flags.  These are the coordinates of ``_decomposition_coords``, so the
    tuple vanishes identically exactly on decomposable structures, which are
    rejected.  Their exact values are the integer coordinates divided by
    the known scale ``c D^(k + |I|) = E L D^(k + |I| - 4)`` (``_moment_sums``).
    """
    if structure.bundle != B:
        raise StratumError("quotient coordinates live on B strata")
    n_inf = len(structure.infinity_indices())
    if n_inf > 1:
        raise StratumError("quotient coordinates require at most one infinite flag")
    coords = _decomposition_coords(structure, cfg)
    if _all_zero(coords):
        raise StratumError("decomposable structure has no quotient coordinates")
    z, w = cfg.node_weights()
    den = lcm(*(x._t[2] for x in cfg.z))
    # E L: the flags' denominator times W_0 prod_{j != 0} (Z_0 - Z_j)
    scale = lcm(*(u._t[2] for u in structure.finite_values().values()))
    scale *= w[0] * prod(z[0] - zj for zj in z[1:])
    return tuple(
        Scalar._wrap(t_norm(re * den ** (4 - k - n_inf), im * den ** (4 - k - n_inf), scale))
        for k, (re, im) in enumerate(coords)
    )


def _normalize_projective(coords) -> tuple[Scalar, ...]:
    # the Scalars divided by the first nonzero one, on triples
    for c in coords:
        if not c.is_zero():
            return tuple(Scalar._wrap(t_div(x._t, c._t)) for x in coords)
    raise ExactError("zero tuple is not projective")


def classify(structure: ParabolicStructure, cfg: MarkedConfiguration) -> StratumId:
    """Stratum/orbit label of a parabolic structure on B or B'.

    Decomposability is read off ``_decomposition_coords``, which is empty,
    and not computed, on B' with an infinite flag and on B with three or
    more.  The projective coordinates of U2 and Ui are the integer ones,
    the ``k``-th of ``K`` times ``D^(K - 1 - k)`` so that all carry one
    scale, divided by the first nonzero one: one Scalar per coordinate.
    """
    bundle = structure.bundle
    if bundle not in (B, BPRIME):
        raise StratumError("decomposability implemented for B and B' only")
    inf_idx = structure.infinity_indices()
    n_inf = len(inf_idx)
    if bundle == BPRIME:
        if n_inf:
            return StratumId("BprimeInf", inf_idx, None, True)
        if _all_zero(_decomposition_coords(structure, cfg)):
            return StratumId("BprimeGenericDec", (), None, True)
        return StratumId("BprimeGenericIndec", (), None, False)
    if n_inf > 2:
        return StratumId("Uplus", inf_idx, None, True)
    coords = _decomposition_coords(structure, cfg)
    dec = _all_zero(coords)
    if n_inf == 2:
        # U' and U'' split by collinearity of the three finite flags
        family = "UijPrime" if dec else "UijDoublePrime"
        return StratumId(family, inf_idx, None, dec)
    family = "Ui" if n_inf else "U2"
    if dec:
        return StratumId(family, inf_idx, None, True)
    den = lcm(*(x._t[2] for x in cfg.z))
    top = len(coords) - 1
    scaled = [(re * den ** (top - k), im * den ** (top - k), 1) for k, (re, im) in enumerate(coords)]
    first = next(x for x in scaled if x[:2] != (0, 0))
    return StratumId(family, inf_idx, tuple(Scalar._wrap(t_div(x, first)) for x in scaled), False)


# (family, decomposable) of the strata ``classify`` returns, by the number of
# infinite flags; three or more take the last entry
_CLASSIFY_FAMILIES = (
    (("U2", False), ("U2", True), ("BprimeGenericIndec", False), ("BprimeGenericDec", True)),
    (("Ui", False), ("Ui", True), ("BprimeInf", True)),
    (("UijPrime", True), ("UijDoublePrime", False), ("BprimeInf", True)),
    (("Uplus", True), ("BprimeInf", True)),
)


def stratum_from_label(label) -> StratumId:
    """The stratum, without coordinates, that ``classify`` labels ``label``:
    the inverse of ``StratumId.label``.  Any other value is malformed."""
    for n in range(NPOINTS + 1):
        for indices in combinations(range(NPOINTS), n):
            for family, dec in _CLASSIFY_FAMILIES[min(n, 3)]:
                stratum = StratumId(family, indices, None, dec)
                if stratum.label() == label:
                    return stratum
    raise ExactError(f"no stratum is labelled {label!r}")


def find_automorphism(
    s1: ParabolicStructure, s2: ParabolicStructure, cfg: MarkedConfiguration
):
    """Explicit automorphism parameters carrying s1 to s2, or None.

    Solves the linear action equations exactly: ``shift(z_i) - a*u'_i = -u_i``
    at the finite flags, after matching the infinity patterns.  The unknowns
    are the coefficients of the shift, a section of degree at most
    ``d1 - d0``, from low to high, then ``a``; with no finite flag the
    identity is returned.
    """
    if s1.bundle != s2.bundle:
        raise StratumError("structures live on different bundles")
    if s1.bundle not in (B, BPRIME):
        raise StratumError("orbit search defined for B and B' only")
    if s1.infinity_indices() != s2.infinity_indices():
        return None
    a_col = s1.bundle.d1 - s1.bundle.d0 + 1
    rows = [[cfg.z[i] ** k for k in range(a_col)] + [-u] for i, u in s2.finite_values().items()]
    if not rows:
        return (sc(1),) + (sc(0),) * a_col
    sol = Mat(rows).solve_affine([-u for u in s1.finite_values().values()])
    if sol is None:
        return None
    particular, basis = sol
    for vec in ([sc(0)] * len(particular), *basis):
        candidate = [p + v for p, v in zip(particular, vec)]
        if not candidate[a_col].is_zero():
            return (candidate[a_col], *reversed(candidate[:a_col]))
    return None


def orbit_equal(
    s1: ParabolicStructure, s2: ParabolicStructure, cfg: MarkedConfiguration
) -> bool:
    """True when the two structures lie on the same automorphism orbit."""
    if s1.bundle != s2.bundle:
        raise StratumError("structures live on different bundles")
    c1, c2 = classify(s1, cfg), classify(s2, cfg)
    if (c1.family, c1.indices, c1.decomposable) != (c2.family, c2.indices, c2.decomposable):
        return False
    if c1.coords is not None:
        return c1.coords == c2.coords
    # rigid strata: the residual finite cases; decide by solving the action
    # equations explicitly
    return find_automorphism(s1, s2, cfg) is not None


def stabilizer_dim(structure: ParabolicStructure, cfg: MarkedConfiguration) -> int:
    """Dimension of the stabilizer of the flags in the automorphism group,
    scalars included (so the answer is at least 1).

    For a strictly split bundle the automorphisms are triangular with a shift
    of degree ``d1 - d0``; for an even split they are all of GL2, acting on
    the flags by Moebius transformations.
    """
    bundle = structure.bundle
    if bundle.d0 == bundle.d1:
        distinct = len(set(structure.flags))
        return 1 + max(0, 3 - distinct)
    # fixed-flag equations shift(z_i) = (a - 1) u_i: b + 2 unknowns (shift,
    # a - 1), a Vandermonde part of rank min(n, b + 1), and the u column
    # outside its span exactly when the structure is indecomposable
    b = bundle.d1 - bundle.d0
    n = len(structure.finite_values())
    if n <= b:
        return b + 3 - n
    return 1 + _all_zero(_decomposition_coords(structure, cfg))


def is_simple(structure: ParabolicStructure, cfg: MarkedConfiguration) -> bool:
    """True when only scalar automorphisms preserve every flag."""
    return stabilizer_dim(structure, cfg) == 1


def bprime_generic_representative(cfg: MarkedConfiguration) -> ParabolicStructure:
    """The canonical indecomposable B'-structure ``u_i = z_i^4``."""
    return ParabolicStructure(BPRIME, [zi**4 for zi in cfg.z])


def bprime_orbit_representatives(cfg: MarkedConfiguration) -> list[ParabolicStructure]:
    """One structure on each of the 33 B'-orbits: the generic indecomposable
    one, all flags zero, then the flags at infinity over every nonempty index
    subset (by size, then lexicographically) and zero elsewhere."""
    reps = [bprime_generic_representative(cfg), ParabolicStructure(BPRIME, [0] * NPOINTS)]
    for size in range(1, NPOINTS + 1):
        for pattern in combinations(range(NPOINTS), size):
            flags = [INF if i in pattern else 0 for i in range(NPOINTS)]
            reps.append(ParabolicStructure(BPRIME, flags))
    return reps


def all_bprime_orbit_labels(cfg: MarkedConfiguration) -> list[str]:
    """Labels of all 33 B'-orbits via explicit representatives."""
    return [classify(s, cfg).label() for s in bprime_orbit_representatives(cfg)]
