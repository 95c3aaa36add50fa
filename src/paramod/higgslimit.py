"""Strongly parabolic Higgs fixed points and the C*-limit of flat triples.

The limit of ``(E, L, c * nabla)`` as ``c -> 0`` is computed by the
gauge-family construction: finitely many candidate degenerations are built
from the off-diagonal residue data (keep the upper part, keep the lower part,
or degenerate onto a degree -1 inclusion) and the unique Higgs-stable
candidate is returned.  Which degree -1 inclusions exist is read off three
moments of the flags over the configuration's integer divided-difference
weights (``parastruct._flag_moments``, which ``stability`` reads too, for
its degree -1 full contact): no contact row, elimination or kernel is
built.  The fixed locus for ``sum(w) < 1`` has two components: the single
point F0 on the (-1, 2) split and the family F1 of nilpotent Higgs fields on
the (0, 1) split, modeled as two glued blown-up planes.

The marked zeros of a Higgs field's theta are found once and the limit point
is read off them in canonical form.  A limit reads them off the triple's
(12) residues: theta is the whole (12) numerator ``sum_i A12_i prod_{j != i}
(z - z_j)``, one product of the forward numerator map, so ``theta(z_i)`` is
``A12_i prod_{j != i} (z_i - z_j)`` and the marked zeros are the zero
residues, with no evaluation and no inverse product.  A datum given by its
theta alone, and an F1 line point, find them as the zero residues of one
product with the configuration's inverse numerator map.  Strong parabolicity
lets the flag leave the lower summand only at a marked zero of theta, so a
fixed point's flag choices are checked against the marked zeros of its own
theta; with that check the F1 fiber dimension needs no evaluation, and the
F0 fiber dimension is two by a divided-difference identity, with no solve.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from ._kernel import T_ZERO, t_matvec
from .connection import FlatTriple, LogConnection, offdiag_bounds
from .exactnum import (
    INF,
    ExactError,
    Poly,
    PreconditionError,
    ProjectivePoint,
    Scalar,
    json_list,
    monic_from_roots,
    sc,
)
from .parastruct import (
    B,
    BPRIME,
    NPOINTS,
    MarkedConfiguration,
    ParabolicStructure,
    _flag_moments,
    _normalize_projective,
)
from .spectra import SpectrumRank2
from .stability import (
    OnWallError,
    WeightVector,
    _cleared_weights,
    _margin,
    _non_special,
    is_stable,
    s_value,
)


class HiggsError(PreconditionError):
    """Raised on malformed Higgs data or failed limit preconditions."""


def gaussian_sqrt(s: Scalar) -> Scalar | None:
    """The principal square root in the Gaussian rationals (real part
    positive, or zero with a nonnegative imaginary part), or None.

    With ``s = (a + b*i)/d`` in normal form, ``s = (A + B*i)/d^2`` for
    ``A, B = a*d, b*d``.  A Gaussian-rational root of ``s`` is ``(p + q*i)/d``
    with ``(p + q*i)^2 = A + B*i``, so ``p + q*i`` is a Gaussian integer (Z[i]
    is integrally closed), ``p^2 = (m + A)/2`` and ``q^2 = (m - A)/2`` for
    ``m = |A + B*i|``, and ``pq`` has the sign of ``B``.
    """
    a, b, d = s._t
    A, B = a * d, b * d
    m = isqrt(A * A + B * B)
    p = isqrt((m + A) // 2)
    q = isqrt((m - A) // 2) * (-1 if B < 0 else 1)
    if m * m != A * A + B * B or p * p - q * q != A or 2 * p * q != B:
        return None
    return Scalar(p, q) / d


def quadratic_roots(theta: Poly) -> tuple[ProjectivePoint, ProjectivePoint] | None:
    """Zero divisor of a section of O(2) given by a degree <= 2 polynomial:
    two points of the projective line, infinity absorbing the degree drop.
    None when the roots do not lie in the scalar field."""
    deg = theta.degree()
    if deg < 0:
        raise HiggsError("zero section has no zero divisor")
    if deg == 0:
        return (INF, INF)
    if deg == 1:
        return (ProjectivePoint.finite(-theta.coeff(0) / theta.coeff(1)), INF)
    c2, c1, c0 = theta.coeff(2), theta.coeff(1), theta.coeff(0)
    disc = c1 * c1 - 4 * c2 * c0
    root = gaussian_sqrt(disc)
    if root is None:
        return None
    r1 = (-c1 + root) / (2 * c2)
    r2 = (-c1 - root) / (2 * c2)
    return (ProjectivePoint.finite(r1), ProjectivePoint.finite(r2))


class StronglyParabolicHiggs:
    """Nilpotent upper-triangular Higgs datum on B or B'.

    ``theta`` is the cleared (12) numerator, within the (12) bound of
    ``offdiag_bounds``: degree <= 2 on B and constant on B'.  Strong
    parabolicity pins the flag to the lower summand fiber wherever theta does
    not vanish; ``marked_zeros`` are the indices of the marked points where
    it does.  The constructor finds them by one product with the inverse
    numerator map; ``cstar_limit`` builds its datum with ``_of`` from the
    zero (12) residues of its triple, which are the same indices.  Either way
    the flags are checked against them.
    """

    __slots__ = ("bundle", "structure", "theta", "cfg", "marked_zeros")

    def __init__(self, bundle, structure, theta: Poly, cfg: MarkedConfiguration):
        if bundle not in (B, BPRIME):
            raise HiggsError("Higgs data supported on B and B' only")
        if structure.bundle != bundle:
            raise HiggsError("structure lives on a different bundle")
        ((_, bound), _) = offdiag_bounds(bundle)
        theta = theta.shrink(bound)
        self._set(bundle, structure, theta, cfg, _zeros_at_marked_points(theta.coeffs, cfg))

    @classmethod
    def _of(cls, bundle, structure, theta: Poly, cfg, marked_zeros) -> "StronglyParabolicHiggs":
        """The datum with ``theta`` within its bound and the marked zeros
        ``marked_zeros`` of theta, taken as they are; the flags are checked."""
        h = object.__new__(cls)
        h._set(bundle, structure, theta, cfg, marked_zeros)
        return h

    def _set(self, bundle, structure, theta, cfg, marked_zeros):
        self.bundle, self.structure, self.cfg = bundle, structure, cfg
        self.theta, self.marked_zeros = theta, marked_zeros
        for i, u in enumerate(structure.flags):
            if i not in marked_zeros and (u.is_infinity() or not u.value.is_zero()):
                raise HiggsError(
                    f"flag at point {i + 1} must lie on the lower summand "
                    "where theta is nonzero"
                )

    def to_json(self):
        return {
            "bundle": self.bundle.name,
            "structure": self.structure.to_json(),
            "theta": [str(c) for c in self.theta.coeffs],
        }


def _zeros_at_marked_points(coeffs, cfg: MarkedConfiguration) -> tuple[int, ...]:
    """The indices ``i`` with ``theta(z_i) = 0`` for the polynomial theta of
    degree <= 4 with Scalar coefficients ``coeffs``, by one product with the
    inverse numerator map: its ``r_i = theta(z_i) / prod_{j != i} (z_i - z_j)``
    is zero exactly where ``theta(z_i)`` is."""
    _, (rows, den) = cfg.numerator_maps()
    r = t_matvec(rows, den, [c._t for c in coeffs])
    return tuple(i for i, (a, b, _) in enumerate(r) if a == 0 and b == 0)


def higgs_is_stable(
    h: StronglyParabolicHiggs, cfg: MarkedConfiguration, w: WeightVector
) -> bool:
    """Stability over Higgs-invariant line subbundles only.

    A nonzero nilpotent field leaves exactly one line subbundle invariant,
    the lower summand; its margin decides.  A zero field imposes no
    invariance constraint and the decision reduces to parabolic stability.
    """
    if h.theta.is_zero():
        return is_stable(h.structure, cfg, w).stable
    margin = s_value(h.bundle.degree, h.bundle.d0, _lower_contact(h.structure), w)
    if margin.is_zero():
        raise OnWallError("invariant-subbundle margin vanishes")
    return margin > sc(0)


def _lower_contact(structure) -> set[int]:
    # the marked points where the lower summand meets the flag
    return {i for i, u in enumerate(structure.flags) if not u.is_infinity() and u.value.is_zero()}


def theta_from_connection(conn: LogConnection, cfg: MarkedConfiguration) -> Poly:
    """The cleared (12) numerator of a connection, bounded by the Higgs
    degree of its bundle (2 on B, 0 on B'); holomorphy of the input makes the
    higher coefficients vanish.  One product of the forward numerator map
    with the (12) residue triples gives all five coefficients, so theta is
    the whole numerator and ``theta(z_i) = A12_i prod_{j != i} (z_i - z_j)``;
    a nonzero coefficient above the bound raises ``ExactError`` with the text
    of ``Poly.shrink``."""
    bound = max(offdiag_bounds(conn.bundle)[0][1], -1)
    num = conn._residue_numerator(0, 1, cfg)
    deg = max((k for k, (a, b, _) in enumerate(num) if a or b), default=-1)
    if deg > bound:
        raise ExactError(f"polynomial has degree {deg}, cannot bound by {bound}")
    return Poly([Scalar._wrap(x) for x in num[: bound + 1]], bound=bound)


class _FixedPointFields(NamedTuple):
    component: str
    chart: str = "top"
    theta: tuple[Scalar, ...] | None = None
    exceptional_index: int | None = None
    tangent: ProjectivePoint | None = None
    flag_choice: tuple[tuple[int, str], ...] = ()


class FixedLocusPoint(_FixedPointFields):
    """A point of the two-component fixed locus.

    F0 carries no coordinates.  F1 points live on one of two charts (two
    copies of the plane of Higgs zero divisors blown up at the five double
    marked points): either a plain quadratic ``theta`` (projectively
    normalized coefficients) or an exceptional datum at a marked index with a
    tangent coordinate, the virtual second zero.  ``flag_choice`` records the
    lower/upper choice at every marked zero of theta.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.component not in ("F0", "F1"):
            raise ExactError(f"component must be F0 or F1, not {self.component!r}")
        if self.component == "F1":
            if self.chart not in ("top", "bottom"):
                raise ExactError(f"chart must be top or bottom, not {self.chart!r}")
            if (self.exceptional_index is None) == (self.theta is None):
                raise ExactError(
                    "an F1 point carries either a quadratic or an exceptional datum"
                )
            if self.theta is None:
                if self.tangent is None:
                    raise ExactError("exceptional points carry a tangent coordinate")
            elif self.tangent is not None:
                raise ExactError("an F1 line point carries theta, not a tangent")
            elif len(self.theta) != 3:
                raise ExactError("theta takes three coefficients")
            elif all(c.is_zero() for c in self.theta):
                raise ExactError("a line datum needs a nonzero theta")
        return self

    def zeros(self, cfg: MarkedConfiguration):
        """The unordered zero pair, or None when it does not split over the
        scalar field."""
        if self.component != "F1":
            return None
        if self.exceptional_index is not None:
            zi = ProjectivePoint.finite(cfg.z[self.exceptional_index])
            return (zi, self.tangent)
        return quadratic_roots(Poly(list(self.theta), bound=2))

    def to_json(self, cfg: MarkedConfiguration | None = None):
        out = {"component": self.component}
        if self.component == "F1":
            out["chart"] = self.chart
            if self.exceptional_index is not None:
                out["exceptional_at"] = self.exceptional_index + 1
                out["tangent"] = str(self.tangent)
            else:
                out["theta"] = [str(c) for c in self.theta]
            if cfg is not None:
                zs = self.zeros(cfg)
                out["zeros"] = [str(z) for z in zs] if zs else None
            out["flagChoice"] = {
                str(i + 1): choice for i, choice in self.flag_choice
            }
        return out

    @classmethod
    def from_json(cls, data) -> "FixedLocusPoint":
        """The point of a JSON payload; the constructor checks its shape."""
        if data["component"] == "F0":
            return cls("F0")
        choices = []
        for k, v in data.get("flagChoice", {}).items():
            if k not in _POINT_KEYS:
                raise ExactError(f"flag choice key {k!r} is not a marked point 1..{NPOINTS}")
            if v not in ("lower", "upper"):
                raise ExactError(f"flag choice must be lower or upper, not {v!r}")
            choices.append((_POINT_KEYS[k], v))

        def field(key, parse):
            return parse(data[key]) if key in data else None

        return cls(
            data["component"],
            data["chart"],
            field("theta", lambda v: tuple(Scalar.parse(s) for s in json_list(v, "theta"))),
            field("exceptional_at", _json_point_index),
            field("tangent", ProjectivePoint.parse),
            tuple(sorted(choices)),
        )


# the keys of a flag choice: "1".."5", one spelling per marked point
_POINT_KEYS = {str(i + 1): i for i in range(NPOINTS)}


def _json_point_index(k) -> int:
    """The 0-based index of the 1-based marked point index ``k`` of a JSON
    payload."""
    if type(k) is not int or not 1 <= k <= NPOINTS:
        raise ExactError(f"marked point index {k!r} outside 1..{NPOINTS}")
    return k - 1


def fixedpoint_from_higgs(h: StronglyParabolicHiggs) -> FixedLocusPoint:
    """The canonical point of a Higgs fixed point, as
    ``fixedpoint_canonicalize`` gives it, read off the marked zeros that
    ``h`` already holds.

    Convention: the top chart carries the all-lower flag choices; an upper
    choice at a marked zero is recorded through the exceptional datum at that
    index (the bottom chart for a double marked zero).  An all-lower line
    through a marked zero is glued to its bottom-chart exceptional datum.
    """
    if h.bundle == BPRIME:
        return FixedLocusPoint("F0")
    theta = h.theta
    if theta.is_zero():
        raise HiggsError("zero Higgs field is not an F1 datum")
    marked = h.marked_zeros
    choices = tuple(
        (i, "upper" if h.structure.flags[i].is_infinity() else "lower") for i in marked
    )
    uppers = [i for i, choice in choices if choice == "upper"]
    zi_double = _double_marked_zero(theta, h.cfg, marked)
    if zi_double is not None:
        chart = "bottom" if zi_double in uppers else "top"
        return FixedLocusPoint(
            "F1", chart, None, zi_double, ProjectivePoint.finite(h.cfg.z[zi_double]), choices
        )
    if uppers:
        i = uppers[0]
        return FixedLocusPoint("F1", "top", None, i, _other_zero(theta, h.cfg.z[i]), choices)
    return _line_point(theta, "top", marked, choices, h.cfg)


def _double_marked_zero(theta: Poly, cfg, marked) -> int | None:
    # a marked zero z_i is double when the derivative vanishes there too
    d = theta.derivative() if marked else None
    return next((i for i in marked if d(cfg.z[i]).is_zero()), None)


def _other_zero(theta: Poly, zi: Scalar) -> ProjectivePoint:
    """The second zero of a quadratic with a known root at z_i."""
    if theta.degree() == 2:
        # sum of roots = -c1/c2
        return ProjectivePoint.finite(-theta.coeff(1) / theta.coeff(2) - zi)
    return INF


def _line_point(theta: Poly, chart: str, marked, flag_choice, cfg) -> FixedLocusPoint:
    """The canonical point of a line datum on ``chart`` whose marked zeros
    ``marked`` are simple.

    A line without marked zeros lives on the top chart.  A top-chart line
    through a marked zero is glued to the bottom-chart exceptional curve at
    its first marked zero, whatever the second zero is; a bottom-chart line
    is glued to the top-chart exceptional curve only when its second zero is
    unmarked.
    """
    if marked and (chart == "top" or len(marked) == 1):
        i = marked[0]
        glued = "bottom" if chart == "top" else "top"
        return FixedLocusPoint("F1", glued, None, i, _other_zero(theta, cfg.z[i]), flag_choice)
    # no marked zero, or a bottom-chart line whose second zero is marked
    chart = "bottom" if marked else "top"
    return FixedLocusPoint(
        "F1", chart, _normalize_projective(theta.coeffs), None, None, flag_choice
    )


def _marked_zeros(p: FixedLocusPoint, cfg: MarkedConfiguration) -> tuple[int, ...]:
    """The marked zeros of an F1 point's own theta, in increasing order: the
    evaluated zeros of a line datum, and the center with a marked tangent of
    an exceptional datum.

    Strong parabolicity pins the flag to the lower summand wherever theta
    does not vanish, so a flag choice at any other point raises.
    """
    if p.exceptional_index is None:
        marked = _zeros_at_marked_points(p.theta, cfg)
    else:
        marked = tuple(sorted({p.exceptional_index, _marked_index(p.tangent, cfg)} - {None}))
    for i, _ in p.flag_choice:
        if i not in marked:
            raise HiggsError(f"flag choice at point {i + 1}, where theta does not vanish")
    return marked


def fixedpoint_canonicalize(p: FixedLocusPoint, cfg: MarkedConfiguration) -> FixedLocusPoint:
    """Canonical representative under the three gluing identifications.

    The rules are chart-asymmetric; ``_line_point`` states them for line
    data.  Exceptional points whose tangent is the center (the
    strict-transform intersection) or, on the top chart, a marked point,
    match no rule and stay as they are; the bottom-chart exceptional points
    with marked tangents are merged with their smaller-index partner through
    the top-chart line they both glue to.  Raises ``HiggsError`` on a flag
    choice away from the marked zeros of theta.
    """
    if p.component == "F0":
        return p
    marked = _marked_zeros(p, cfg)
    if p.exceptional_index is not None:
        # the smallest marked zero is the center unless a marked tangent
        # precedes it
        i, j = p.exceptional_index, marked[0]
        if p.chart == "bottom" and j < i:
            return FixedLocusPoint(
                "F1", "bottom", None, j, ProjectivePoint.finite(cfg.z[i]), p.flag_choice
            )
        return p
    theta = Poly(list(p.theta), bound=2)
    if _double_marked_zero(theta, cfg, marked) is not None:
        raise HiggsError(
            "a double marked zero must be presented by its exceptional datum"
        )
    return _line_point(theta, p.chart, marked, p.flag_choice, cfg)


def _marked_index(pt: ProjectivePoint, cfg) -> int | None:
    if pt.is_infinity():
        return None
    for i, zi in enumerate(cfg.z):
        if pt.value == zi:
            return i
    return None


def in_removed_locus(q: FixedLocusPoint, cfg: MarkedConfiguration) -> bool:
    """Membership of a canonical point, as ``fixedpoint_canonicalize``
    returns it, in the removed curve classes: the glued images of the strict
    transforms minus their special points, canonically the bottom-chart
    exceptional data with non-marked tangent distinct from the center."""
    if q.component != "F1" or q.exceptional_index is None or q.chart != "bottom":
        return False
    if not q.tangent.is_infinity() and q.tangent.value == cfg.z[q.exceptional_index]:
        return False
    return _marked_index(q.tangent, cfg) is None


class SpecialLoci(NamedTuple):
    points: dict
    lines: dict


def tau_point(p: ProjectivePoint, q: ProjectivePoint) -> tuple[Scalar, ...]:
    """Image of an unordered pair of line points in the plane of zero
    divisors: the projective coefficient triple of the quadratic vanishing on
    the pair."""
    if p.is_infinity() and q.is_infinity():
        theta = Poly([1], bound=2)
    elif p.is_infinity() or q.is_infinity():
        val = q.value if p.is_infinity() else p.value
        theta = Poly([-val, 1], bound=2)
    else:
        theta = monic_from_roots([p.value, q.value]).shrink(2)
    return _normalize_projective(theta.coeffs)


def special_loci(cfg: MarkedConfiguration) -> SpecialLoci:
    """The 10 + 5 special points and the five special lines of the plane of
    zero divisors."""
    points = {}
    for i in range(NPOINTS):
        for j in range(i, NPOINTS):
            points[(i, j)] = tau_point(
                ProjectivePoint.finite(cfg.z[i]), ProjectivePoint.finite(cfg.z[j])
            )
    lines = {}
    for i in range(NPOINTS):
        zi = cfg.z[i]
        lines[i] = {
            "dual": (sc(1), zi, zi * zi),
            "parametrization": lambda z, zi=zi: tau_point(
                ProjectivePoint.finite(zi),
                z if isinstance(z, ProjectivePoint) else ProjectivePoint.finite(z),
            ),
        }
    return SpecialLoci(points, lines)


# the flag on the lower summand, shared by the dropped structures of E0
_ZERO_FLAG = ProjectivePoint.finite(0)


class LimitCandidate(NamedTuple):
    name: str
    margin: Scalar
    stable: bool
    higgs: StronglyParabolicHiggs | None


class LimitResult(NamedTuple):
    point: FixedLocusPoint
    higgs: StronglyParabolicHiggs
    candidates: tuple[LimitCandidate, ...]


def cstar_limit(t: FlatTriple, w: WeightVector) -> LimitResult:
    """The C*-limit of a stable flat triple for a non-special weight with
    ``sum(w) < 1``.

    The gauge-family candidates (keep the upper off-diagonal data, keep the
    lower, or degenerate onto one of the five degree -1 inclusions) are all
    constructed and ranked by Higgs stability; exactly one must survive.
    On B, which degenerations exist is read off divided differences of the
    flags (``_degenerate_candidates``).  The spectrum is checked by the one
    integer test ``SpectrumRank2.genericity``.
    """
    cfg = t.cfg
    bundle = t.connection.bundle
    if bundle not in (B, BPRIME):
        raise HiggsError("limits are taken on B and B' triples")
    weights = _cleared_weights(w)
    nums, den = weights
    if not _non_special(nums, den, bundle.degree):
        raise OnWallError("weight is not non-special")
    if not sum(nums) < den:
        raise HiggsError("the two-component regime requires sum(w) < 1")
    if not all(t.spectrum.genericity()):
        raise HiggsError("limit requires a non-special spectrum")

    theta = theta_from_connection(t.connection, cfg)
    if theta.is_zero():
        raise HiggsError(
            "upper off-diagonal data vanishes: the triple is reducible"
        )
    # theta is the whole (12) numerator, so theta(z_i) is the (12) residue
    # at z_i times prod_{j != i} (z_i - z_j): its marked zeros are the zero
    # residues.  E0 moves the finite flags to the lower summand, which then
    # meets exactly them.
    marked = tuple(i for i, m in enumerate(t.connection._res) if m[0][1] == T_ZERO)
    finite = [i for i, u in enumerate(t.structure.flags) if not u.is_infinity()]
    drop_flags = [_ZERO_FLAG if i in finite else INF for i in range(NPOINTS)]
    e0 = StronglyParabolicHiggs._of(
        bundle, ParabolicStructure(bundle, drop_flags), theta, cfg, marked
    )
    # E1 keeps the lower off-diagonal data; its only invariant subbundle is
    # the higher-degree factor, contacting the flags away from zero
    contact_e1 = set(range(NPOINTS)) - _lower_contact(t.structure)
    candidates = [
        _candidate("E0", bundle.degree, bundle.d0, finite, weights, e0),
        _candidate("E1", bundle.degree, bundle.d1, contact_e1, weights),
    ]

    if bundle == B:
        candidates += _degenerate_candidates(weights, t.structure, cfg)

    # an invariant check: every margin is ``d - 2k + sum eps_i w_i``, so a
    # zero one makes ``(d + sum eps_i w_i) / 2`` an integer, which the
    # Kostov genericity of the non-special weight checked above excludes
    for cand in candidates:
        if cand.margin.is_zero():
            raise OnWallError(f"candidate {cand.name} margin vanishes")
    stable_ones = [c for c in candidates if c.stable]
    if len(stable_ones) != 1:
        raise HiggsError(
            f"expected a unique stable candidate, found {len(stable_ones)}"
        )
    winner = stable_ones[0]
    if winner.higgs is None:
        raise HiggsError(f"candidate {winner.name} has no normal-form datum")
    return LimitResult(fixedpoint_from_higgs(winner.higgs), winner.higgs, tuple(candidates))


def _candidate(name: str, d: int, deg_f: int, contact, weights, higgs=None) -> LimitCandidate:
    # the candidate whose invariant subbundle of degree ``deg_f`` meets the
    # flags ``contact``, its margin summed on the cleared ``weights``
    nums, den = weights
    s = _margin(d, deg_f, contact, nums, den)
    return LimitCandidate(name, Scalar.rational(s, den), s > 0, higgs)


def _degenerate_candidates(weights, structure, cfg) -> list[LimitCandidate]:
    """The degenerations onto the degree -1 inclusions ``(q, r)`` into B,
    ``deg q <= 1`` and ``deg r <= 2``, whose non-contact set is exactly one
    marked point ``j``, in increasing ``j``.  ``weights`` are the weights'
    numerators and common denominator.

    The inclusion for ``j`` exists iff the space ``N`` of sections meeting
    the flags of ``S``, the four points other than ``j``, has a saturated
    member that misses flag ``j``.  The saturated members, when there are
    any, are dense in ``N``, so some member misses ``j`` unless every member
    of ``N`` meets it.  With the five-point divided-difference weights
    ``W_i = 1 / prod_{k != i} (z_i - z_k)`` and, over the finite flags,

        ``Q(a, b) = sum_i u_i W_i (z_i - z_a)(z_i - z_b)``,

    the inclusion exists iff

    - two or more flags of ``S`` are infinite: never;
    - one flag ``i0`` of ``S`` is infinite: ``Q(i0, j) != 0``, and
      ``Q(i0, i0) != 0`` unless ``j`` is infinite;
    - no flag of ``S`` is infinite: ``Q(j, k) != 0`` for every ``k`` in
      ``S``, and ``Q(j, j) != 0`` when ``j`` is infinite, or
      ``M_0 M_2 != M_1^2`` when it is finite, ``M_k = sum_i u_i W_i z_i^k``.

    Proof.  A section is saturated iff ``q`` and ``r`` share no root on the
    projective line, infinity being a root of both when ``q_1 = r_2 = 0``.
    An infinite flag at ``i`` asks ``q(z_i) = 0``.  On ``n`` nodes the top
    divided difference has the weights ``W_i`` times the product of
    ``(z_i - z_k)`` over the points ``k`` left out, and it vanishes on a
    function iff the interpolant has degree ``<= n - 2``.

    Two infinite flags in ``S`` force ``q = 0``, and ``(0, r)`` is never
    saturated.  One, ``i0``, makes ``q`` a multiple of ``z - z_i0``;
    ``q = 0`` would make ``r`` vanish at the three finite points ``F`` of
    ``S``, so ``N`` is spanned by ``q = z - z_i0`` and the interpolant ``r``
    of ``u_i (z_i - z_i0)`` on ``F``.  It is saturated iff ``r(z_i0) != 0``,
    iff the top divided difference on ``F + {i0}`` of these values, with 0
    at ``i0``, is nonzero: that is ``Q(i0, j)``, whose term at a finite
    ``j`` vanishes, and it says the three finite flags are not collinear.  It
    always misses an infinite ``j``; a finite one it meets iff
    ``r(z_j) = u_j (z_j - z_i0)``, iff the top divided difference of
    ``u_i (z_i - z_i0)`` on ``F + {j}``, which is ``Q(i0, i0)``, vanishes.

    With no infinite flag in ``S``, let ``P`` be the cubic interpolant of
    ``u`` on ``S`` and ``D`` the top divided difference on ``S``, with the
    weights ``W_i (z_i - z_j)``.  A ``q`` extends to a member iff ``D(uq) =
    q_0 A + q_1 B = 0``, for ``A = D(u) = P_3`` and ``B = D(uz)``; ``r`` is
    then the interpolant of ``u q`` on ``S``, and ``q = 0`` leaves ``r = 0``.
    If ``A = B = 0`` the flags of ``S`` lie on a line ``l`` and every member
    ``(q, l q)`` shares a root, so none is saturated.  Otherwise ``N`` is
    spanned by ``q = B - A z`` with its ``r``, and ``P q - r``, of degree
    ``<= 4`` and zero on ``S``, is ``-A^2 prod_{k in S} (z - z_k)``.  At the
    root ``a`` of ``q``, when ``A != 0``, ``r(a) = A^2 prod (a - z_k)``
    vanishes iff ``a`` is a point of ``S``; when ``A = 0``, ``r = B P`` has
    ``r_2 = B P_2 = B^2 != 0``.  Either way the member is saturated iff
    ``q(z_k) != 0`` on ``S``, and ``q(z_k) = Q(j, k)``, which also covers
    ``A = B = 0``.  It misses an infinite ``j`` iff ``q(z_j) = Q(j, j) !=
    0``; a finite ``j`` iff ``u_j q(z_j) != r(z_j)``, iff the five-point
    divided difference of ``u q - r``, that is ``sum_i u_i W_i q(z_i) =
    B M_0 - A M_1 = M_0 M_2 - M_1^2``, is nonzero.  The last equality is
    ``A = M_1 - z_j M_0`` and ``B = M_2 - z_j M_1``.

    The moments are the shared ones of ``parastruct._flag_moments``, on
    Gaussian integers: the finite flags and the marked points cleared of
    their denominators, and ``W_i`` the configuration's cached integer node
    weights.  Each test asks only whether an expression homogeneous in the
    points is nonzero, so the positive scales drop out.  No contact row,
    elimination or kernel is built.
    """
    # gram: M_0 M_2 != M_1^2, which decides a finite j when every flag is finite
    _, gram, q_nonzero = _flag_moments(structure, cfg)
    infinite = structure.infinity_indices()
    found = []
    for j in range(NPOINTS):
        others = [i for i in infinite if i != j]
        if len(others) > 1:
            continue
        if others:
            i0 = others[0]
            exists = q_nonzero(i0, j) and (j in infinite or q_nonzero(i0, i0))
        else:
            exists = all(q_nonzero(j, k) for k in range(NPOINTS) if k != j) and (
                q_nonzero(j, j) if j in infinite else gram
            )
        if exists:
            found.append(j)
    return [_candidate(f"E-1({j + 1})", 1, 2, {j}, weights) for j in found]


def fixed_component(h: StronglyParabolicHiggs) -> str:
    """Component classification in the ``sum(w) < 1`` regime: F0 for the
    B' datum, F1 for a B datum with nonzero field and summand flags,
    NotFixed otherwise."""
    flags_split = all(
        u.is_infinity() or u.value.is_zero() for u in h.structure.flags
    )
    if h.theta.is_zero():
        return "NotFixed"
    if not flags_split:
        return "NotFixed"
    if h.bundle == BPRIME:
        return "F0"
    return "F1"


def fiber_dimension(
    p: FixedLocusPoint, cfg: MarkedConfiguration, nu: SpectrumRank2
) -> int:
    """Dimension of the fiber of the limit map over a fixed point.

    For F0 this is the dimension of the connection space on the unique
    indecomposable structure ``u_i = z_i^4`` of the (-1, 2) split, which is
    two, the two tail coefficients, with no solve.  ``N12`` has degree
    <= 0, a constant ``c``, so the (12) residues are
    ``x_i = c / prod_{j != i} (z_i - z_j)``.  The (11) diagonal row then reads
    ``sum nu+_i - c * sum z_i^4 / prod_{j != i} (z_i - z_j) = 1``, and that
    sum is the top divided difference of ``z^4``, which is 1, so ``c`` is
    fixed; the (22) row agrees with it by the Fuchs relation
    ``sum (nu+_i + nu-_i) = -1``, and ``N21``, bounded by 6, gives no row.
    The five unknowns are pinned and the tail is free.

    For F1 the flags vary with the upper residue data pinned by the Higgs
    field: per marked point one parameter survives, the diagonal trace-sum
    cuts one dimension and the effective gauge group two more.

    The trace-sum constraint always has rank one.  At a point with a lower
    flag the surviving unknown enters it with minus the (12) residue
    ``theta(z_i) / prod_{k != i}(z_i - z_k)``, nonzero exactly where theta
    is.  Theta is nonzero of degree <= 2, so it misses at least three of the
    five distinct marked points, and the flag choices, checked to lie at its
    marked zeros, leave the flag lower there.
    """
    if nu.d != 1:
        raise HiggsError("fiber dimensions are computed at degree 1")
    if p.component == "F0":
        return 2
    if p.flag_choice:
        _marked_zeros(p, cfg)
    gauge = 2  # automorphism directions acting effectively on the fiber
    return NPOINTS - 1 - gauge
