"""Independent checks of paramod outputs, written on ``fractions.Fraction``.

Nothing here imports paramod: every input is plain rational data (a flag is a
``Fraction`` or ``None`` for the higher summand fiber), so a defect in the
package's exact kernel cannot also hide in its own check.  The stability
verdict follows the closed-form case analysis of line subbundles of
``B = O + O(1)`` and ``B' = O(-1) + O(2)``; the other helpers restate the
genericity predicates the generators must satisfy.

The verdict is decided from line subbundles whose existence is certain (see
``candidate_margins``); on B with ``sum(w) > 3`` a degree -1 subbundle may
decide it, and the check then only bounds the reported margin.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm

NPOINTS = 5
DEGREE = 1  # both B and B' have degree 1


def rank(rows) -> int:
    """Rank of a small rational matrix: each row is cleared of denominators,
    then fraction-free (Bareiss) elimination runs on integers."""
    m = []
    for row in rows:
        den, ints = _over_common_denominator([Fraction(x) for x in row])
        m.append(ints)
    rk, prev = 0, 1
    for c in range(len(m[0])):
        piv = next((r for r in range(rk, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        p = m[rk][c]
        for r in range(rk + 1, len(m)):
            m[r] = [(p * a - m[r][c] * b) // prev for a, b in zip(m[r], m[rk])]
        prev = p
        rk += 1
        if rk == len(m):
            break
    return rk


def _over_common_denominator(values):
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def weight_non_special(w, d=DEGREE) -> bool:
    """Every weight positive and no ``d + sum eps_i w_i`` an even integer."""
    if any(x <= 0 for x in w):
        return False
    den, n = _over_common_denominator(w)
    return all(
        (d * den + sum(e * x for e, x in zip(eps, n))) % (2 * den)
        for eps in product((1, -1), repeat=NPOINTS)
    )


def spectrum_non_special(nu, d) -> bool:
    """Fuchs relation, Kostov-genericity and non-resonance of a rank-2
    spectrum given as five ``(nu_plus, nu_minus)`` pairs."""
    if d + sum(p + m for p, m in nu) != 0:
        return False
    if any((p - m).denominator == 1 for p, m in nu):
        return False
    den, n = _over_common_denominator([x for pair in nu for x in pair])
    return all(
        sum(n[2 * i + s] for i, s in enumerate(sigma)) % den
        for sigma in product((0, 1), repeat=NPOINTS)
    )


def collinear(z, u, idx) -> bool:
    """The flags at ``idx`` lie on one section ``a + b*z`` of O(1)."""
    if len(idx) <= 2:
        return True
    return rank([[1, z[i], u[i]] for i in idx]) == 2


def margin(deg, contact, w, d=DEGREE) -> Fraction:
    """Stability margin ``d - 2 deg F + sum_off w - sum_on w``."""
    on = sum(w[i] for i in contact)
    return d - 2 * deg + (sum(w) - on) - on


def candidate_margins(bundle, z, u, w):
    """Margins of line subbundles whose existence is certain.

    On B = O + O(1): the O(1) summand (degree 1, touching the infinite
    flags) and, in degree 0, the sections ``(1, a + b z)`` through any
    collinear set of finite flags.  Degree -1 is left out: whether a
    saturated section through given flags exists is not closed-form, but its
    margin ``3 + sum_off - sum_on`` is at least ``3 - sum(w)``.

    On B' = O(-1) + O(2) the list is complete: the O(2) summand (degree 2)
    and, in degree -1, the sections ``(1, cubic)``, which are always
    saturated and touch the finite flags the cubic interpolates (all five
    when they lie on a cubic, otherwise any four).  Degrees 0 and 1 have no
    saturated sections and degree <= -2 has margin > 0.
    """
    inf = [i for i in range(NPOINTS) if u[i] is None]
    fin = [i for i in range(NPOINTS) if u[i] is not None]
    if bundle == "B":
        out = [(1, inf)]
        subsets = [s for k in range(2, len(fin) + 1) for s in combinations(fin, k) if collinear(z, u, s)]
        out += [(0, list(s)) for s in subsets or [fin]]
    else:
        out = [(2, inf)]
        on_cubic = len(fin) < 5 or rank([[1, zi, zi**2, zi**3, ui] for zi, ui in zip(z, u)]) == 4
        out += [(-1, fin)] if on_cubic else [(-1, list(s)) for s in combinations(fin, 4)]
    return [margin(k, t, w) for k, t in out]


def stable(bundle, z, u, w):
    """The closed-form verdict, or None where it is not decided (B with
    ``sum(w) > 3`` and no certain destabilizing subbundle)."""
    worst = min(candidate_margins(bundle, z, u, w))
    if worst < 0 or bundle == "Bprime" or sum(w) < 3:
        return worst > 0
    return None


def check_report(report, bundle, z, u, w):
    """Problems with a stability report (``StabilityReport.to_json()``).

    The margin must be the one of the reported witness, the verdict its sign
    and the closed-form verdict where that is decided.  The reported worst
    margin can be no larger than any certain candidate's, and on B', where the
    candidates are complete, it must equal their minimum.
    """
    worst = report["worst"]
    got = Fraction(worst["margin"])
    problems = []
    if got != margin(worst["deg"], [i - 1 for i in worst["contact"]], w):
        problems.append(f"margin {got} is not that of deg {worst['deg']} contact {worst['contact']}")
    if report["stable"] != (got > 0):
        problems.append("verdict disagrees with the sign of the margin")
    known = min(candidate_margins(bundle, z, u, w))
    if got > known or (bundle == "Bprime" and got != known):
        problems.append(f"worst margin {got} but a candidate has {known}")
    expect = stable(bundle, z, u, w)
    if expect is not None and report["stable"] != expect:
        problems.append(f"verdict {report['stable']} but the case analysis gives {expect}")
    return problems
