"""Residue-eigenvalue calculus: Fuchs relation, genericity predicates,
elementary transformation on weights and spectra, the middle-convolution
spectrum map, and the trace-coordinate hypersurface polynomial."""

from __future__ import annotations

from typing import NamedTuple

from ._kernel import T_ONE, t_add, t_clear
from .exactnum import ExactError, PreconditionError, Scalar, clear_denominators, json_list, sc
from .parastruct import NPOINTS, point_index
from .stability import WeightVector, _sign_sums


class SpectrumError(PreconditionError):
    """Raised on Fuchs violations and inadmissible transformation data."""


class SpectrumRank2:
    """Residue eigenvalue pairs ``(nu_i^+, nu_i^-)`` at the five poles of a
    rank-2 logarithmic connection of degree d; the Fuchs relation
    ``d + sum(nu^+ + nu^-) = 0`` is validated exactly on construction, as
    one test on the ten eigenvalues cleared to Gaussian integers over one
    denominator ``D``: the real parts sum to ``-d*D`` and the imaginary
    parts to 0.  The Scalar sum is formed only for the error message.

    A spectrum does not change after construction, so ``genericity`` keeps
    its answer in the ``_generic`` slot on its first call; equality and
    the hash read only ``nu`` and ``d``."""

    __slots__ = ("nu", "d", "_generic")

    def __init__(self, nu, d: int):
        pairs = tuple((sc(p), sc(m)) for p, m in nu)
        if len(pairs) != NPOINTS:
            raise ExactError(f"expected {NPOINTS} eigenvalue pairs")
        cleared, den = t_clear([x._t for pair in pairs for x in pair])
        if sum(re for re, _ in cleared) != -d * den or sum(im for _, im in cleared) != 0:
            total = sum((p + m for p, m in pairs), sc(d))
            raise SpectrumError(f"Fuchs relation fails: d + sum = {total}")
        self.nu = pairs
        self.d = d
        self._generic = None

    def plus(self, i: int) -> Scalar:
        return self.nu[i][0]

    def minus(self, i: int) -> Scalar:
        return self.nu[i][1]

    def genericity(self) -> tuple[bool, bool]:
        """``(kostov_generic, non_resonant)``, on the ten eigenvalues cleared
        once to Gaussian integers ``P_i``, ``M_i`` over one denominator ``D``.

        A gap ``nu+_i - nu-_i`` is an integer iff ``P_i - M_i`` is real and
        divisible by ``D``.  Kostov genericity asks that no sign-pattern sum
        ``s`` be an integer; only the 16 patterns taking ``nu+_1`` are
        summed, because by the Fuchs relation the complementary pattern sums
        to ``-d - s``, an integer exactly when ``s`` is.  Computed once per
        spectrum.
        """
        if self._generic is None:
            ipairs, den = clear_denominators(self.nu)
            non_res = not any(pb == mb and (pa - ma) % den == 0 for (pa, pb), (ma, mb) in ipairs)
            sums = _sign_sums([ipairs[0][:1], *ipairs[1:]])
            self._generic = (not any(im == 0 and re % den == 0 for re, im in sums), non_res)
        return self._generic

    def predicates(self) -> dict[str, bool]:
        """Kostov-genericity (no sign-pattern sum is an integer),
        non-resonance (no eigenvalue gap is an integer), and their
        conjunction, as ``genericity`` decides them."""
        kostov, non_res = self.genericity()
        return {
            "kostov_generic": kostov,
            "non_resonant": non_res,
            "non_special": kostov and non_res,
        }

    def to_json(self):
        return {"d": self.d, "nu": [[str(p), str(m)] for p, m in self.nu]}

    @classmethod
    def from_json(cls, data) -> "SpectrumRank2":
        d = data["d"]
        if type(d) is not int:
            raise ExactError(f"spectrum degree must be an integer, not {d!r}")
        pairs = [json_list(pair, "an eigenvalue pair") for pair in json_list(data["nu"], "nu")]
        return cls([(Scalar.parse(p), Scalar.parse(m)) for p, m in pairs], d)

    def __eq__(self, other):
        if not isinstance(other, SpectrumRank2):
            return NotImplemented
        return self.d == other.d and self.nu == other.nu

    def __hash__(self):
        return hash((self.d, self.nu))

    def __repr__(self):
        body = ", ".join(f"({p},{m})" for p, m in self.nu)
        return f"SpectrumRank2(d={self.d}, {body})"


def elm_weight(w: WeightVector, j: int) -> WeightVector:
    """Weight transform of the elementary transformation: ``w_j -> 1 - w_j``.

    ``w_j == 0`` is rejected: the transform would leave the [0, 1) range.
    """
    if w.w[point_index(j)].is_zero():
        raise SpectrumError("elementary transformation of weight 0 leaves [0, 1)")
    new = list(w.w)
    new[j] = sc(1) - new[j]
    return WeightVector(new)


def elm_spectrum(nu: SpectrumRank2, j: int) -> SpectrumRank2:
    """Spectrum transform at z_j: ``(nu^+, nu^-) -> (1 + nu^-, nu^+)`` there,
    degree drops by one.  Kostov-genericity and non-resonance are preserved.
    ``1 + nu^-`` is formed on triples."""
    pairs = list(nu.nu)
    p, m = pairs[point_index(j)]
    pairs[j] = (Scalar._wrap(t_add(T_ONE, m._t)), p)
    return SpectrumRank2(pairs, nu.d - 1)


class MCBranch:
    """The free choices of a middle convolution on residue data.

    ``sigma[i]`` picks which eigenvalue ``beta^{H_i}`` negates ('+' or '-');
    ``beta_v`` are the five twist residues along the vertical divisors.  The
    remaining residues are derived from the defining constraints
    ``beta^K + sum beta^{H_i} = 0``, ``beta^K + sum beta^{V_i} = 0`` and
    ``beta^{U_i} = beta^K - beta^{H_i} - beta^{V_i}``; the second constraint
    couples ``beta_v`` to the spectrum and is validated here.
    """

    __slots__ = ("sigma", "beta_v", "beta_h", "beta_k", "beta_u")

    def __init__(self, sigma, beta_v, nu: SpectrumRank2):
        if isinstance(sigma, str):
            sigma = tuple(sigma)
        sigma = tuple(sigma)
        if len(sigma) != NPOINTS or any(s not in "+-" for s in sigma):
            raise ExactError("sigma must be five characters from '+-'")
        bv = tuple(sc(x) for x in beta_v)
        if len(bv) != NPOINTS:
            raise ExactError(f"expected {NPOINTS} beta_v values")
        bh = tuple(
            -(nu.plus(i) if s == "+" else nu.minus(i)) for i, s in enumerate(sigma)
        )
        bk = -sum(bh, sc(0))
        if not (bk + sum(bv, sc(0))).is_zero():
            raise SpectrumError("beta_v must satisfy beta_k + sum(beta_v) = 0")
        self.sigma = sigma
        self.beta_v = bv
        self.beta_h = bh
        self.beta_k = bk
        self.beta_u = tuple(bk - bh[i] - bv[i] for i in range(NPOINTS))


class MCSpectrumRank3(NamedTuple):
    """Spectrum of the rank-3 middle convolution: per pole a repeated
    eigenvalue plus a simple one; degree is preserved."""

    triples: tuple[tuple[Scalar, Scalar, Scalar], ...]
    d: int

    def fuchs_sum(self) -> Scalar:
        return sum((a + b + c for a, b, c in self.triples), sc(0))

    def to_json(self):
        return {
            "d": self.d,
            "rank": 3,
            "triples": [[str(a), str(b), str(c)] for a, b, c in self.triples],
        }


def mc_applicability_failures(nu: SpectrumRank2, branch: MCBranch) -> list[str]:
    """The integrality conditions under which the convolution functor is
    exact on residue data; empty list means applicable."""
    failures = []
    if branch.beta_k.is_integer():
        failures.append("beta_k is an integer")
    for i in range(NPOINTS):
        for label, value in (("+", nu.plus(i)), ("-", nu.minus(i))):
            t = value + branch.beta_h[i]
            if (t + branch.beta_k).is_integer():
                failures.append(f"nu_{i + 1}^{label} + beta_h + beta_k is an integer")
            if t.is_integer() and not t.is_zero():
                failures.append(f"nu_{i + 1}^{label} + beta_h is a nonzero integer")
    return failures


def mc_spectrum(nu: SpectrumRank2, branch: MCBranch) -> MCSpectrumRank3:
    """Middle-convolution spectrum map on residue data.

    Each pole contributes ``(beta_v, beta_v, beta_v + beta_k + beta_h +
    nu^{other})`` where ``nu^{other}`` is the eigenvalue not negated by
    ``beta_h``; the rank is 2(6-2)-5 = 3 and the degree is preserved, which is
    re-checked through the rank-3 Fuchs relation.
    """
    if not all(nu.genericity()):
        raise SpectrumError("middle convolution requires a non-special spectrum")
    failures = mc_applicability_failures(nu, branch)
    if failures:
        raise SpectrumError("; ".join(failures))
    triples = []
    for i in range(NPOINTS):
        other = nu.minus(i) if branch.sigma[i] == "+" else nu.plus(i)
        third = branch.beta_v[i] + branch.beta_k + branch.beta_h[i] + other
        if third == branch.beta_v[i]:
            raise SpectrumError("repeated and simple eigenvalues coincide")
        triples.append((branch.beta_v[i], branch.beta_v[i], third))
    out = MCSpectrumRank3(tuple(triples), nu.d)
    if not (out.fuchs_sum() + sc(nu.d)).is_zero():
        raise SpectrumError("rank-3 Fuchs relation fails")
    return out


def character_poly(x, y, z, u, v) -> Scalar:
    """The pentagon-symmetric trace hypersurface polynomial
    ``xyzuv + (x^2y^2 + y^2z^2 + z^2u^2 + u^2v^2 + v^2x^2)
    - 4(x^2 + y^2 + z^2 + u^2 + v^2) + 16``."""
    x, y, z, u, v = sc(x), sc(y), sc(z), sc(u), sc(v)
    sq = (
        x * x * y * y
        + y * y * z * z
        + z * z * u * u
        + u * u * v * v
        + v * v * x * x
    )
    return (
        x * y * z * u * v
        + sq
        - 4 * (x * x + y * y + z * z + u * u + v * v)
        + sc(16)
    )
