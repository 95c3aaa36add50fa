"""Shared samplers and the test oracles.

The closed-form stability oracle transcribes the case analysis for line
subbundles of B and B' (full-contact determinant test at degree -1, the
unique higher-degree factor, maximal collinear subsets at degree 0) and is
kept independent of the enumeration-based decision path in paramod.stability.
The rational Bareiss determinant and rank are the references for the ones
read off the Gauss-Jordan pivots, and the saturation grid search on Scalars
for the Gaussian-integer grid search in paramod.  The 2^5 sign-pattern loop on Scalars, with the four
decisions built on it, is the reference for the integer sign-pattern sums,
the per-call rebuild of the pole products the reference for the
products a configuration keeps.  The enumeration of contact sets by rational
nullspaces of the contact rows on Scalars, with each witness's contact
evaluated back on the marked points, is the reference for the
Gaussian-integer contact kernels; the C*-limit's degenerations by a rational
nullspace and q, r evaluated at the marked point are the reference for the
ones on the contact lattice.  The line through each pair of finite flags
evaluated at every flag, with a maximality filter, is the reference for B's
degree-0 lines grouped by pair.  The stability margin summed on Scalars is
the reference for the one on the cleared weights, and the decision on
Scalars, with every candidate's witness built, the margins compared as
Scalars and every degree visited, the reference for the decision on
integers that builds the reported witness alone and stops at the first
degree a margin bound rules out.  The least-margin search that folds and
walks the kernel of every contact set it ranks is the reference for the one
that decides the full contact set by moments of the flags and folds the
winner's kernel alone, and the walk over every contact set on Gaussian
integers (``destabilizing_candidates``: each kernel restricted from its
longest prefix in a memo, each span's saturation grid walked after an exact
barren-span test) the reference for the decision's search, which visits
only the sets that could replace the least margin so far.  A
second solve of the two diagonal residue sums and the rank of the fixed-flag
equations are the references for the gauge counts of a connection space
and for the flag stabilizer, the classification on an interpolating solve,
with the quotient coordinates summed per stratum, the reference for the one
read off the divided-difference coordinates of the finite flags, and those
coordinates summed on Scalars the reference for the ones read off the
integer moments of the flags, and the constraint rows built entry by entry against the pole products the
reference for the ones read off the forward numerator map.  The F1 fiber
dimension from the rank of the trace-sum constraint, with theta evaluated at
every marked point, is the reference for the one read off the checked flag
choices; the chart datum of a Higgs fixed point with its marked zeros
evaluated afresh, then canonicalized, is the reference for the canonical
limit point read off the zeros the Higgs datum holds.  The cleared
``(nabla s) wedge s`` of a section is the check that a line is
connection-invariant, against which the irreducibility screen is tested.
Gauss-Jordan elimination with a normalized product and a normalized
difference in every column is the reference for the kernel's one
normalization per update over the pivot row's nonzero columns; the
connection solve through ``Mat.solve_affine`` with every row entry a Scalar,
the triple summed on Scalars and the validation on Scalars are the
references for the connection pipeline on triples, and the solved connection
space on the generic B' structure the reference for the F0 fiber dimension
read off without a solve.  One inverse of the contact rows, with the
contact-kernel walk when they are singular, and the walk alone for each of
the five degenerations of a C*-limit are the references for the ones read
off divided differences of the flags, and Scalar polynomial arithmetic on the four
cleared numerators, read back by division by the node polynomial and
Lagrange interpolation, the reference for the elementary and gauge
transformations on residue triples.
The last helpers build test inputs the package itself does not need: the
identity rows, a matrix product, the connections at a space's basis points,
the balanced middle-convolution branch and the difference of two
polynomials.
"""

from itertools import combinations, islice, product

from paramod._kernel import (
    T_ONE,
    T_ZERO,
    ZI_ZERO,
    mat_rref,
    t_clear,
    t_div,
    t_inv,
    t_matvec,
    t_mul,
    t_neg,
    t_sub,
    zi_dot,
)
from paramod.connection import (
    ConnectionError,
    FlatTriple,
    LogConnection,
    degree_bounds,
    offdiag_bounds,
    solve_connection_space,
)
from paramod.exactnum import (
    INF,
    ONE,
    ZERO,
    Mat,
    Poly,
    ProjectivePoint,
    Scalar,
    divided_difference_weights,
    interpolate,
    monic_from_roots,
    sc,
)
from paramod.higgslimit import (
    FixedLocusPoint,
    HiggsError,
    LimitCandidate,
    StronglyParabolicHiggs,
    _candidate,
    _double_marked_zero,
    _other_zero,
    fixedpoint_canonicalize,
)
from paramod.parastruct import (
    B,
    BPRIME,
    BundleSplitType,
    MarkedConfiguration,
    NPOINTS,
    ParabolicStructure,
    StratumError,
    StratumId,
    _normalize_projective,
    act,
    act_params_shift,
    bprime_generic_representative,
    point_index,
)
from paramod.spectra import MCBranch, SpectrumRank2, elm_spectrum
from paramod.stability import (
    LineSubbundleWitness,
    OnWallError,
    StabilityReport,
    WeightVector,
    _candidate_degrees,
    _contactable,
    _hom_degrees,
    _candidates_at_degree,
    _is_saturated,
    _margin,
    _witness,
    _zi_restrict,
    contact_rows,
    formal_resultant,
    sign_label,
    weight_is_kostov_generic,
    weight_is_non_special,
)


def rand_rational(rng, lo=-40, hi=40, max_den=8):
    return Scalar.rational(rng.randrange(lo, hi + 1), rng.randrange(1, max_den + 1))


def rand_config(rng) -> MarkedConfiguration:
    while True:
        zs = [rand_rational(rng, -12, 12, 4) for _ in range(NPOINTS)]
        if len(set(zs)) == NPOINTS:
            return MarkedConfiguration(zs)


def rand_gaussian(rng) -> Scalar:
    """A Gaussian rational, real two times in three."""
    return Scalar.gaussian(
        rng.randrange(-30, 31), rng.randrange(1, 6), rng.choice([0, 0, rng.randrange(-9, 10)]), rng.randrange(1, 4)
    )


def rand_mixed_config(rng) -> MarkedConfiguration:
    """Five distinct points with pairwise different denominators, at least
    two of them negative."""
    while True:
        dens = rng.sample(range(1, 10), NPOINTS)
        zs = [Scalar.rational(rng.randrange(-40, 41), d) for d in dens]
        if len({z._t[2] for z in zs}) == NPOINTS and sum(z < sc(0) for z in zs) >= 2:
            return MarkedConfiguration(zs)


def rand_structure(rng, bundle=B, n_inf=None) -> ParabolicStructure:
    if n_inf is None:
        n_inf = rng.choice([0, 0, 0, 1, 1, 2, 3])
    pattern = set(rng.sample(range(NPOINTS), n_inf))
    flags = [
        INF if i in pattern else ProjectivePoint.finite(rand_rational(rng))
        for i in range(NPOINTS)
    ]
    return ParabolicStructure(bundle, flags)


def rand_weight(rng, max_den=16) -> WeightVector:
    return WeightVector(
        [Scalar.rational(rng.randrange(0, d), d) for d in [rng.randrange(2, max_den + 1) for _ in range(NPOINTS)]]
    )


def rand_nonspecial_weight(rng, d=1, max_den=16, total_below=None) -> WeightVector:
    while True:
        if total_below is not None:
            # numerators capped so the total stays below the bound
            dens = [rng.randrange(7, max(8, max_den) + 1) for _ in range(NPOINTS)]
            w = WeightVector(
                [Scalar.rational(rng.randrange(1, max(2, den // 6)), den) for den in dens]
            )
            if not (w.total() < sc(total_below)):
                continue
        else:
            w = WeightVector(
                [
                    Scalar.rational(rng.randrange(1, den), den)
                    for den in [rng.randrange(3, max_den + 1) for _ in range(NPOINTS)]
                ]
            )
        if not weight_is_non_special(w, d):
            continue
        return w


def rand_nonspecial_spectrum(rng, d=0, max_den=9) -> SpectrumRank2:
    while True:
        nu = []
        for _ in range(NPOINTS):
            nu.append((rand_rational(rng, -6, 6, max_den), rand_rational(rng, -6, 6, max_den)))
        # repair the Fuchs relation on the last slot
        total = sum((a + b for a, b in nu[:4]), nu[4][0])
        nu[4] = (nu[4][0], -sc(d) - total)
        try:
            spec = SpectrumRank2(nu, d)
        except Exception:
            continue
        preds = spec.predicates()
        if preds["non_special"]:
            return spec


def rand_u2_indecomposable(rng, cfg) -> ParabolicStructure:
    from paramod.parastruct import is_decomposable

    while True:
        s = rand_structure(rng, B, n_inf=0)
        if not is_decomposable(s, cfg)[0]:
            return s


def rand_ui_indecomposable(rng, cfg, i: int) -> ParabolicStructure:
    from paramod.parastruct import is_decomposable

    while True:
        flags = [
            INF if k == i else ProjectivePoint.finite(rand_rational(rng))
            for k in range(NPOINTS)
        ]
        s = ParabolicStructure(B, flags)
        if not is_decomposable(s, cfg)[0]:
            return s


def rand_uij_indecomposable(rng, cfg, i: int, j: int) -> ParabolicStructure:
    from paramod.parastruct import is_decomposable

    while True:
        flags = [
            INF if k in (i, j) else ProjectivePoint.finite(rand_rational(rng))
            for k in range(NPOINTS)
        ]
        s = ParabolicStructure(B, flags)
        if not is_decomposable(s, cfg)[0]:
            return s


def oracle_is_stable(structure, cfg, w) -> bool:
    """Closed-form case analysis for B and B'; returns the stability verdict."""
    if structure.bundle == B:
        return _oracle_b(structure, cfg, w)
    if structure.bundle == BPRIME:
        return _oracle_bprime(structure, cfg, w)
    raise ValueError("oracle defined for B and B' only")


def _delta_matrix(structure, cfg) -> Mat:
    rows = []
    for zi, u in zip(cfg.z, structure.flags):
        if u.is_infinity():
            rows.append([sc(0), sc(0), sc(0), sc(1), zi])
        else:
            rows.append([sc(1), zi, zi**2, u.value, u.value * zi])
    return Mat(rows)


def _oracle_b(structure, cfg, w) -> bool:
    inf_idx = set(structure.infinity_indices())
    fin_idx = [i for i in range(NPOINTS) if i not in inf_idx]
    total = w.total()
    # Case I: degree -1
    if _delta_matrix(structure, cfg).det().is_zero():
        if not (total < sc(3)):
            return False
    else:
        for j in range(NPOINTS):
            # a contact at two infinite flags makes q (degree <= 1) vanish
            # twice, so no saturated section attains it
            if len(inf_idx - {j}) >= 2:
                continue
            if not (total - 2 * w.w[j] < sc(3)):
                return False
    # Case II: degree 1, the unique higher-degree factor
    s = sum((w.w[i] for i in inf_idx), sc(1)) - sum((w.w[i] for i in fin_idx), sc(0))
    if not (s < sc(0)):
        return False
    # Case III: degree 0, every inclusion-maximal collinear subset of the
    # finite flags (at most two points are always collinear)
    collinear = [
        set(sub)
        for size in range(len(fin_idx) + 1)
        for sub in combinations(fin_idx, size)
        if size <= 2
        or Mat([[sc(1), cfg.z[i], structure.flags[i].value] for i in sub]).rank() == 2
    ]
    for sub in collinear:
        if any(sub < other for other in collinear):
            continue
        inside = sum((w.w[i] for i in sub), sc(0))
        if not (inside - (total - inside) < sc(1)):
            return False
    return True


def _oracle_bprime(structure, cfg, w) -> bool:
    inf_idx = set(structure.infinity_indices())
    fin_idx = [i for i in range(NPOINTS) if i not in inf_idx]
    total = w.total()
    n_inf = len(inf_idx)
    # Case I: degree -1
    if n_inf == 1:
        (j,) = inf_idx
        if not (total - 2 * w.w[j] < sc(3)):
            return False
    elif n_inf == 0:
        rows = [
            [sc(1), zi, zi**2, zi**3, u.value]
            for zi, u in zip(cfg.z, structure.flags)
        ]
        rk = Mat(rows).rank()
        if rk == 4:
            if not (total < sc(3)):
                return False
        else:
            for j in range(NPOINTS):
                if not (total - 2 * w.w[j] < sc(3)):
                    return False
    # n_inf >= 2: degree -1 subbundles never destabilize
    # Case II: degree 2, the O(2) factor
    s = sum((w.w[i] for i in inf_idx), sc(3)) - sum((w.w[i] for i in fin_idx), sc(0))
    if not (s < sc(0)):
        return False
    return True


def _t_is_zero(x):
    return x[0] == 0 and x[1] == 0


def oracle_det(rows, n):
    """Determinant of an n-by-n matrix of triples by Bareiss elimination over
    normalised Gaussian rationals."""
    m = [list(r) for r in rows]
    sign = 1
    prev = T_ONE
    for k in range(n - 1):
        if _t_is_zero(m[k][k]):
            for i in range(k + 1, n):
                if not _t_is_zero(m[i][k]):
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return T_ZERO
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = t_sub(t_mul(pivot, row_i[j]), t_mul(lead, row_k[j]))
                row_i[j] = t_div(num, prev)
            row_i[k] = T_ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    if sign < 0:
        det = t_neg(det)
    return det


def oracle_rank(rows, nrows, ncols):
    """Rank by Bareiss forward elimination over normalised Gaussian rationals."""
    m = [list(r) for r in rows]
    prev = T_ONE
    rank = 0
    row = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(row, nrows):
            if not _t_is_zero(m[i][col]):
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        pivot = m[row][col]
        for i in range(row + 1, nrows):
            lead = m[i][col]
            for j in range(col + 1, ncols):
                num = t_sub(t_mul(pivot, m[i][j]), t_mul(lead, m[row][j]))
                m[i][j] = t_div(num, prev)
            m[i][col] = T_ZERO
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def oracle_rref(rows, nrows, ncols):
    """Gauss-Jordan elimination as ``_kernel.mat_rref`` returns it,
    ``(rows, pivots, product)``, with every update ``m[i][j] - f * p[j]``
    taken as a normalized product and a normalized difference over every
    column."""
    m = [list(r) for r in rows]
    pivots = []
    product = T_ONE
    row = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(row, nrows):
            if not _t_is_zero(m[i][col]):
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
        for i in range(nrows):
            if i != row and not _t_is_zero(m[i][col]):
                f = m[i][col]
                m[i] = [t_sub(m[i][j], t_mul(f, m[row][j])) for j in range(ncols)]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots, product


def rand_triple_matrix(rng, nrows, ncols):
    """Random matrix of triples: real or Gaussian entries, many zeros, with
    zero leading pivots and dependent rows mixed in."""
    gaussian = rng.random() < 0.5

    def entry():
        if rng.random() < 0.3:
            return T_ZERO
        im = rng.randint(-9, 9) if gaussian else 0
        return Scalar.gaussian(rng.randint(-12, 12), rng.randint(1, 9), im, rng.randint(1, 9))._t

    m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    shape = rng.random()
    if shape < 0.25:
        # zero leading entries force row swaps
        for row in m[: rng.randint(1, nrows)]:
            row[0] = T_ZERO
    elif shape < 0.5 and nrows > 1:
        # a row that is a combination of two others makes the matrix singular
        k = rng.randrange(nrows)
        others = [x for x in range(nrows) if x != k]
        i, j = rng.choice(others), rng.choice(others)
        c = entry()
        m[k] = [t_sub(x, t_mul(c, y)) for x, y in zip(m[i], m[j])]
    return m


def _oracle_resultant(qs, dq, rs, dr) -> Scalar:
    n = dq + dr
    if n == 0:
        return sc(1)
    rows = []
    for shift in range(dr):
        row = [sc(0)] * n
        for k in range(dq + 1):
            row[shift + k] = qs[dq - k]
        rows.append(row)
    for shift in range(dq):
        row = [sc(0)] * n
        for k in range(dr + 1):
            row[shift + k] = rs[dr - k]
        rows.append(row)
    return Scalar._wrap(oracle_det([[x._t for x in row] for row in rows], n))


def _oracle_is_saturated(q, r, dq, dr) -> bool:
    if dq < 0:
        return r is not None and dr == 0 and not r.is_zero()
    if dr < 0:
        return q is not None and dq == 0 and not q.is_zero()
    if q.is_zero() and r.is_zero():
        return False
    return not _oracle_resultant(list(q.coeffs), dq, list(r.coeffs), dr).is_zero()


def oracle_saturated_members(basis, dq, dr):
    """The saturation grid search on Scalars: every grid vector is built by
    Scalar arithmetic and tested with the rational Bareiss resultant."""
    if not basis:
        return
    ncols = len(basis[0])
    width = max(max(dq, 0) + max(dr, 0), 1) + 1
    nq = dq + 1 if dq >= 0 else 0
    for coeffs in product(range(width), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = [sc(0)] * ncols
        for c, bvec in zip(coeffs, basis):
            if c:
                vec = [v + sc(c) * b for v, b in zip(vec, bvec)]
        q = Poly(vec[:nq], bound=dq) if dq >= 0 else None
        r = Poly(vec[nq:], bound=dr) if dr >= 0 else None
        if _oracle_is_saturated(q, r, dq, dr):
            yield q, r


def oracle_sign_pattern_sums(pairs):
    """Yield ``(sigma, sum_i pairs[i][sigma[i]])`` as a Scalar for the 2^5
    patterns ``sigma`` in ``product`` order."""
    for sigma in product((0, 1), repeat=NPOINTS):
        yield sigma, sum((p[s] for p, s in zip(pairs, sigma)), sc(0))


def oracle_kostov_generic(w, d) -> bool:
    sums = oracle_sign_pattern_sums([(x, -x) for x in w.w])
    return not any(((total + d) / 2).is_integer() for _, total in sums)


def oracle_chamber_inequalities(w, d) -> tuple[str, ...]:
    """The inequalities of ``chamber_classify``; OnWallError with the same
    message on a wall."""
    ineqs = []
    for sigma, total in oracle_sign_pattern_sums([(x, -x) for x in w.w]):
        label = sign_label(sigma)
        for m2 in range(-5, 6):
            if (m2 - d) % 2 != 0:
                continue
            diff = total - sc(m2)
            if diff.is_zero():
                raise OnWallError(f"wall {label} = {m2}")
            ineqs.append(f"{label} {'<' if diff < sc(0) else '>'} {m2}")
    return tuple(ineqs)


def oracle_predicates(nu) -> dict[str, bool]:
    kostov = not any(t.is_integer() for _, t in oracle_sign_pattern_sums(nu.nu))
    non_res = all(not (p - m).is_integer() for p, m in nu.nu)
    return {"kostov_generic": kostov, "non_resonant": non_res, "non_special": kostov and non_res}


def oracle_irreducibility_screen(nu):
    bounds = degree_bounds(nu.d)
    patterns = []
    for sigma, total in oracle_sign_pattern_sums(nu.nu):
        if not total.is_integer():
            continue
        deg = -total._t[0]  # an integer Scalar is the triple (n, 0, 1)
        if bounds.lo <= deg <= bounds.hi:
            patterns.append((sign_label(sigma), deg))
    return ("unknown", patterns) if patterns else ("irreducible", [])


def oracle_cleared_numerator(conn, r, c, cfg) -> Poly:
    """``entry_rc * prod (z - z_j)`` of the connection, with every pole
    product rebuilt from the roots by ``monic_from_roots``."""
    zs = cfg.z
    tail = conn.tail if (r, c) == (1, 0) else Poly.zero(-1)
    total = tail * monic_from_roots(zs)
    for i, m in enumerate(conn.residues):
        if m[r][c].is_zero():
            continue
        total = total + m[r][c] * monic_from_roots([zs[k] for k in range(NPOINTS) if k != i])
    return total


def oracle_contact_of(q, r, structure, cfg) -> frozenset[int]:
    """The marked points where the fiber of ``(q, r)`` equals the flag,
    evaluated on Scalars."""
    out = set()
    for i, u in enumerate(structure.flags):
        qv = q(cfg.z[i]) if q is not None else sc(0)
        rv = r(cfg.z[i]) if r is not None else sc(0)
        if u.is_infinity():
            if qv.is_zero():
                out.add(i)
        else:
            if rv == u.value * qv and not (qv.is_zero() and rv.is_zero()):
                out.add(i)
    return frozenset(out)


def oracle_contact_rows(structure, cfg, dq, dr) -> dict[int, list[Scalar]]:
    """``contact_rows`` on Scalars, before clearing the denominators."""
    out = {}
    for i, (zi, u) in enumerate(zip(cfg.z, structure.flags)):
        powers = [ONE]
        for _ in range(max(dq, dr)):
            powers.append(powers[-1] * zi)
        if u.is_infinity():
            if dq >= 1:
                out[i] = powers[: dq + 1] + [ZERO] * (dr + 1)
        else:
            out[i] = [-u.value * x for x in powers[: dq + 1]] + powers[: dr + 1]
    return out


def oracle_b_degree_zero_candidates(structure, cfg) -> list[LineSubbundleWitness]:
    """B's degree-0 candidates by evaluation: the line through each pair of
    finite flags evaluated at every finite flag, the hit sets kept in pair
    order with the first pair's line, then filtered to the inclusion-maximal
    ones."""
    vals = structure.finite_values()
    fin = tuple(vals)
    if len(fin) <= 1:
        r = Poly([vals[fin[0]]], bound=1) if fin else Poly.zero(1)
        return [LineSubbundleWitness(0, Poly([1], bound=0), r, frozenset(fin))]
    contacts: dict[frozenset, Poly] = {}
    for i, j in combinations(fin, 2):
        zi, zj = cfg.z[i], cfg.z[j]
        slope = (vals[j] - vals[i]) / (zj - zi)
        r = Poly([vals[i] - slope * zi, slope], bound=1)
        hit = frozenset(k for k in fin if r(cfg.z[k]) == vals[k])
        contacts.setdefault(hit, r)
    return [
        LineSubbundleWitness(0, Poly([1], bound=0), r, hit)
        for hit, r in contacts.items()
        if not any(hit < other for other in contacts)
    ]


def oracle_candidates_at_degree(structure, cfg, k) -> list[LineSubbundleWitness]:
    """The degree-``k`` candidates by the rational enumeration: each contact
    set's kernel from ``Mat.nullspace``, the Scalar grid search, and the
    contact of the found witness evaluated by ``oracle_contact_of``; B's
    degree 0 by ``oracle_b_degree_zero_candidates``."""
    if structure.bundle == B and k == 0:
        return oracle_b_degree_zero_candidates(structure, cfg)
    dq, dr = _hom_degrees(structure.bundle, k)
    if dq < 0:
        if dr != 0:
            return []
        r = Poly([1], bound=0)
        contact = frozenset(structure.infinity_indices())
        return [LineSubbundleWitness(k, None, r, contact)]
    rows = oracle_contact_rows(structure, cfg, dq, dr)
    contactable = list(rows)
    maximal: list[tuple[frozenset, LineSubbundleWitness]] = []
    for size in range(len(contactable), -1, -1):
        for T in combinations(contactable, size):
            tset = frozenset(T)
            if any(tset <= m for m, _ in maximal):
                continue
            basis = (
                Mat([rows[i] for i in T]).nullspace()
                if T
                else unit_vectors(dq + dr + 2)
            )
            found = next(oracle_saturated_members(basis, dq, dr), None)
            if found is None:
                continue
            q, r = found
            contact = oracle_contact_of(q, r, structure, cfg)
            if not any(contact <= m for m, _ in maximal):
                maximal.append((contact, LineSubbundleWitness(k, q, r, contact)))
    return [w for _, w in maximal]


def _span_member(basis, coeffs):
    # the Gaussian-integer combination sum_j coeffs[j] * basis[j]
    vec = [ZI_ZERO] * len(basis[0])
    for c, bvec in zip(coeffs, basis):
        if c:
            vec = [(x + c * a, y + c * b) for (x, y), (a, b) in zip(vec, bvec)]
    return vec


def _barren(basis, dq: int, dr: int) -> bool:
    """Whether the formal resultant vanishes on the whole span of the ``m``
    Gaussian-integer vectors ``basis`` at ``n = dq + dr >= 1``: whether no
    member is saturated.

    The resultant of the member with span coordinates ``c`` is a form of
    degree ``n`` in ``c``.  On the hyperplane ``sum(c) = n`` it is a
    polynomial of degree at most ``n`` in ``m - 1`` affine coordinates, which
    the principal lattice of the simplex, the points ``c >= 0`` with
    ``sum(c) = n``, fixes; and a form that vanishes on that hyperplane
    vanishes on its multiples, a dense set, so everywhere.  So the span is
    barren iff the resultant vanishes at those ``C(n + m - 1, m - 1)``
    points: 35 at ``m = 5`` and ``(1, 2)``, where the grid of
    ``saturated_members`` has 1,023."""
    n, m = dq + dr, len(basis)
    for bars in combinations(range(n + m - 1), m - 1):
        # stars and bars: the gaps between the m - 1 bars are the coordinates
        edges = (-1, *bars, n + m - 1)
        vec = _span_member(basis, [b - a - 1 for a, b in zip(edges, edges[1:])])
        if formal_resultant(vec[: dq + 1], dq, vec[dq + 1 :], dr) != ZI_ZERO:
            return False
    return True


def saturated_members(basis, dq: int, dr: int):
    """Yield the saturated members of the span of the Gaussian-integer
    ``basis`` at formal degrees ``(dq, dr)``, both nonnegative, found on the
    grid of span coefficients {0..max(dq+dr, 1)}^m, in ``product`` order:
    the Gaussian-integer coefficients of q, then of r, at that grid point.

    The saturation locus of the nonzero members is cut out by the formal
    resultant, a homogeneous polynomial of degree dq + dr in the span
    coordinates.  When ``dq + dr >= 1`` the finite-grid Schwartz-Zippel
    lemma says the span has a saturated member iff the grid
    {0..dq+dr}^m holds one; when ``dq + dr = 0`` the resultant is a
    nonzero constant, every nonzero member is saturated, and {0, 1}^m
    holds one.  Which basis spans the space changes which members are
    found, never whether one is.

    A span with no saturated member would cost the whole grid, one
    saturation test per nonzero grid point.  So a span of dimension 2 or
    more at ``dq + dr >= 1`` is first asked ``_barren``, the exact test on
    the simplex lattice, and a barren span yields nothing with no grid
    point built; any other span yields the same members as the walk alone.
    """
    if not basis:
        return
    if len(basis) >= 2 and dq + dr >= 1 and _barren(basis, dq, dr):
        return
    width = max(dq + dr, 1) + 1
    for coeffs in product(range(width), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = _span_member(basis, coeffs)
        if _is_saturated(vec, dq, dr):
            yield vec


def unit_kernels(n: int) -> dict:
    """A kernel memo for ``memo_contact_kernel`` on ``n`` coefficients: the
    empty contact set, whose kernel has the unit basis."""
    return {(): [[(1, 0) if c == e else ZI_ZERO for c in range(n)] for e in range(n)]}


def memo_contact_kernel(T, zrows, kernels):
    """``stability.contact_kernel`` with a memo: the Gaussian-integer kernel
    basis of the contact rows ``T``, restricted from the kernel of its
    longest prefix in ``kernels`` (seeded by ``unit_kernels``) one row at a
    time; every prefix on the way is stored in ``kernels``.  The fold from
    the unit basis is the same whatever prefixes the memo holds."""
    basis = kernels.get(T)
    if basis is not None:
        return basis
    j = len(T) - 1
    while T[:j] not in kernels:
        j -= 1
    basis = kernels[T[:j]]
    for m in range(j, len(T)):
        basis = _zi_restrict(basis, zrows[T[m]])
        kernels[T[: m + 1]] = basis
    return basis


def _saturated_sets(structure, cfg, dq: int, dr: int, sets):
    """Yield ``(frozenset(T), vec)`` for the contact sets ``T`` of ``sets``,
    in their order, whose kernel ``N(T)`` holds a saturated member, ``vec``
    the first that ``saturated_members`` finds; a set inside one yielded
    before is skipped.  The contact rows and the kernel memo are built at
    the first step, and not at all when ``sets`` is empty."""
    if not sets:
        return
    rows = contact_rows(structure, cfg, dq, dr)
    kernels = unit_kernels(dq + dr + 2)
    found = []
    for T in sets:
        tset = frozenset(T)
        if any(tset <= m for m in found):
            continue
        vec = next(saturated_members(memo_contact_kernel(T, rows, kernels), dq, dr), None)
        if vec is not None:
            found.append(tset)
            yield tset, vec


def walk_candidates_at_degree(structure, cfg, k) -> list[tuple[frozenset[int], object]]:
    """The inclusion-maximal contact sets at degree ``k``, each as
    ``(contact, payload)`` with the payload ``stability._witness`` turns
    into its witness: ``stability._candidates_at_degree`` with no margin
    bound.  The canonical factor and B's degree-0 lines are that function's
    own.

    At a degree that needs kernels, contact sets ``T`` of the contactable
    points are visited by descending size, then in ``combinations`` order,
    skipping those inside a set already found, and ``T`` is recorded when
    the kernel ``N(T)`` of its contact rows holds a saturated member
    (``_saturated_sets``).  Its contact is exactly ``T``: a member of
    ``N(T)`` with a contact ``C`` larger than ``T`` is a saturated member of
    ``N(C)`` (a saturated section meets no flag outside the contactable
    points), and ``C`` was visited earlier, so ``C``, or a found set
    containing it, is recorded and ``T`` would have been skipped.  Whether
    ``N(T)`` holds a saturated member depends only on the span, so the
    recorded sets do not depend on the basis.

    A ``T`` with a row outside it in the span of its rows has the kernel of
    a larger set, visited earlier, so it is never recorded: the walk pays a
    kernel and a span search for it, a barren one when the larger set's
    kernel holds no saturated member (``_barren`` decides those), and
    ``is_stable``, which folds the kernel of the set it reports alone, never
    builds it.

    ``N(T)`` is restricted from ``N(T[:-1])`` by the fraction-free kernel of
    one Gaussian-integer contact row (``stability._zi_restrict``), the
    kernels memoised per call by prefix (``memo_contact_kernel``); the
    payload is the Gaussian-integer grid vector found in ``N(T)``.
    """
    dq, dr = _hom_degrees(structure.bundle, k)
    if dq < 0 or (structure.bundle == B and k == 0):
        return _candidates_at_degree(structure, cfg, k, None)
    points = _contactable(structure, dq)
    sets = [T for size in range(len(points), -1, -1) for T in combinations(points, size)]
    return list(_saturated_sets(structure, cfg, dq, dr, sets))


def destabilizing_candidates(
    structure: ParabolicStructure, cfg: MarkedConfiguration
) -> list[LineSubbundleWitness]:
    """Every inclusion-maximal contact set of a saturated line subbundle, per
    relevant degree, with explicit witnesses.

    Lower degrees than the returned ones are omitted: a degree-``k`` margin
    is at least ``b_k = d - 2k - sum(w)``, the bound ``is_stable`` stops on,
    and ``b_{-2} = 5 - sum(w) > 0`` for every admissible weight.
    Witnesses found by the kernel enumeration have Gaussian-integer
    coefficients: any nonzero multiple of ``(q, r)`` is the same subbundle.
    """
    bundle = structure.bundle
    return [
        _witness(bundle, k, contact, payload)
        for k in _candidate_degrees(bundle)
        for contact, payload in walk_candidates_at_degree(structure, cfg, k)
    ]


def oracle_least_margin_candidates(structure, cfg, k, below):
    """``stability._candidates_at_degree(structure, cfg, k, below)`` at a
    degree that needs kernels, by the search over every contact set: the sets of margin
    below the bound, least margin first, each kernel folded and its grid
    walked until the first set whose kernel holds a saturated member."""
    dq, dr = _hom_degrees(structure.bundle, k)
    points = _contactable(structure, dq)
    sets = [T for size in range(len(points), -1, -1) for T in combinations(points, size)]
    nums, den, bound = below
    margins = {T: _margin(structure.bundle.degree, k, T, nums, den) for T in sets}
    # a stable sort: sets of equal margin stay in visit order
    sets = sorted((T for T in sets if margins[T] < bound), key=margins.__getitem__)
    return list(islice(_saturated_sets(structure, cfg, dq, dr, sets), 1))


def oracle_degenerate_candidate(structure, cfg, w, j):
    """``higgslimit._degenerate_candidate`` by the rational path: the
    nullspace of the other four (1, 2) contact rows from ``Mat.nullspace``,
    its saturated members from the Scalar grid search, and the contact at
    ``z_j`` evaluated on q and r."""
    rows = oracle_contact_rows(structure, cfg, 1, 2)
    uj = structure.flags[j]

    def hits_j(q, r):
        qv, rv = q(cfg.z[j]), r(cfg.z[j])
        return qv.is_zero() if uj.is_infinity() else rv == uj.value * qv

    kernel = Mat([row for i, row in rows.items() if i != j]).nullspace()
    if all(hits_j(q, r) for q, r in oracle_saturated_members(kernel, 1, 2)):
        return None
    margin = oracle_s_value(1, 2, {j}, w)
    return LimitCandidate(f"E-1({j + 1})", margin, margin > sc(0), None)


def oracle_walk_degenerate_candidate(weights, j: int, rows: dict, kernels: dict):
    """The degeneration onto a degree -1 inclusion whose non-contact set is
    exactly the j-th marked point; None when no such inclusion exists.
    ``weights`` are the weights' numerators and common denominator.

    ``rows`` are the structure's Gaussian-integer ``contact_rows`` at the
    formal degrees (1, 2) of a degree -1 inclusion ``(q, r)`` into B, and
    ``kernels`` the ``memo_contact_kernel`` memo shared by the five ``j``.  A
    saturated member of the kernel ``N`` of the other four rows misses
    ``z_j`` iff its product ``l_j`` with row ``j`` is nonzero.

    So the result is None iff ``N`` has no saturated member (the grid walk
    of ``saturated_members`` finds none) or ``l_j`` vanishes on every basis
    vector of ``N``.  The saturated members are the complement in ``N`` of the zero
    set of the formal resultant; when they exist they form a nonempty
    Zariski-open subset of the irreducible space ``N``, which is dense and
    so lies in no proper hyperplane: some saturated member has ``l_j != 0``
    unless ``l_j`` vanishes on all of ``N``.  Neither test depends on the
    basis of ``N``, and no member is built.
    """
    others = tuple(i for i in rows if i != j)
    basis = memo_contact_kernel(others, rows, kernels)
    if all(zi_dot(rows[j], vec) == ZI_ZERO for vec in basis) or (
        next(saturated_members(basis, 1, 2), None) is None
    ):
        return None
    return _candidate(f"E-1({j + 1})", 1, 2, {j}, weights)


def oracle_inverse_degenerate_candidates(weights, rows: dict) -> list[LimitCandidate]:
    """The degenerations onto the degree -1 inclusions whose non-contact set
    is exactly one marked point ``j``, in increasing ``j``.  ``weights`` are
    the weights' numerators and common denominator, ``rows`` the structure's
    Gaussian-integer ``contact_rows`` at the formal degrees (1, 2) of a
    degree -1 inclusion ``(q, r)`` into B: five rows ``R`` on five
    coefficients.

    The inclusion for ``j`` exists iff the kernel ``N`` of the four rows
    other than ``j`` has a saturated member with a nonzero product ``l_j``
    with row ``j``.  The saturated members are the complement in ``N`` of the
    zero set of the formal resultant; when they exist they form a nonempty
    Zariski-open subset of the irreducible space ``N``, which is dense and
    so lies in no proper hyperplane: some saturated member has ``l_j != 0``
    unless ``l_j`` vanishes on all of ``N``.  Neither test depends on the
    basis of ``N``, and no member is built.

    One Gauss-Jordan elimination of ``[R | I]`` decides whether ``R`` is
    invertible.  If it is, column ``j`` of ``R^-1`` spans ``N`` and has
    ``l_j = 1``, so the inclusion exists iff that column, cleared to
    Gaussian integers, is saturated.  If not, each ``N`` is restricted from
    the kernels of the prefixes of the other four rows (``memo_contact_kernel``),
    then tested by the grid walk of ``saturated_members`` and the products
    with row ``j``.
    """
    aug = [
        [(a, b, 1) for a, b in rows[i]] + [T_ONE if c == i else T_ZERO for c in range(NPOINTS)]
        for i in range(NPOINTS)
    ]
    m, pivots, _ = mat_rref(aug, NPOINTS, 2 * NPOINTS)
    # every row has a pivot, and R is invertible iff they all lie in R
    if pivots[-1] < NPOINTS:
        found = [
            j for j in range(NPOINTS)
            if _is_saturated(t_clear([r[NPOINTS + j] for r in m])[0], 1, 2)
        ]
    else:
        kernels = unit_kernels(NPOINTS)
        found = []
        for j in range(NPOINTS):
            basis = memo_contact_kernel(tuple(i for i in rows if i != j), rows, kernels)
            if any(zi_dot(rows[j], vec) != ZI_ZERO for vec in basis) and (
                next(saturated_members(basis, 1, 2), None) is not None
            ):
                found.append(j)
    return [_candidate(f"E-1({j + 1})", 1, 2, {j}, weights) for j in found]


def is_non_resonant(w) -> bool:
    """Every weight positive, asked of the Scalars."""
    return all(x > sc(0) for x in w.w)


def fiber_at(witness, z) -> tuple[Scalar, Scalar]:
    """The values of a witness's ``q`` and ``r`` at ``z``, zero for a
    missing polynomial."""
    qv = witness.q(z) if witness.q is not None else sc(0)
    rv = witness.r(z) if witness.r is not None else sc(0)
    return qv, rv


def oracle_s_value(d, deg_f, contact, w) -> Scalar:
    """The stability margin ``d - 2 deg F + sum_{off} w_i - sum_{on} w_i``
    summed on Scalars."""
    contact = set(contact)
    total = sc(d - 2 * deg_f)
    for i, wi in enumerate(w.w):
        total = total - wi if i in contact else total + wi
    return total


def oracle_is_stable_report(structure, cfg, w, quick=False) -> StabilityReport:
    """``is_stable`` on Scalars: the weight checked by ``is_non_resonant`` and
    ``weight_is_kostov_generic``, every candidate's witness built, and the
    margins summed (``oracle_s_value``) and compared as Scalars, degree by
    degree.  Without ``quick`` every degree is visited, with no margin bound;
    with ``quick`` the first degree that leaves a negative least margin ends
    the decision."""
    d = structure.bundle.degree
    if not (is_non_resonant(w) and weight_is_kostov_generic(w, d)):
        raise OnWallError("weight is not non-special")
    cands = destabilizing_candidates(structure, cfg)
    worst = worst_s = None
    for k in _candidate_degrees(structure.bundle):
        for cand in (c for c in cands if c.degree == k):
            s = oracle_s_value(d, cand.degree, cand.contact, w)
            if s.is_zero():
                raise OnWallError(
                    f"margin vanishes on degree {cand.degree} contact {sorted(cand.contact)}"
                )
            if worst_s is None or s < worst_s:
                worst, worst_s = cand, s
        if quick and worst_s is not None and worst_s < sc(0):
            return StabilityReport(False, worst, worst_s)
    return StabilityReport(worst_s > sc(0), worst, worst_s)


def oracle_is_decomposable(
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
    # Hom(O(d0), O(d1)) has sections of degree <= d1 - d0
    pts = [(cfg.z[i], u) for i, u in structure.finite_values().items()]
    witness = interpolate(pts, bundle.d1 - bundle.d0)
    if witness is None:
        return False, None
    return True, witness


def oracle_quotient_coords(
    structure: ParabolicStructure, cfg: MarkedConfiguration
) -> tuple[Scalar, ...]:
    """Action-invariant projective coordinates of an all-finite or one-infinity
    B-structure.

    All finite: ``[L(1) : L(z) : L(z^2)]`` with
    ``L(p) = sum_i u_i p(z_i) / prod_{j != i}(z_i - z_j)``; the divided
    difference identity makes the tuple invariant up to the scale ``1/a``.
    One infinite flag: the analogous degree-1 functional over the four finite
    flags.  The tuple vanishes identically exactly on decomposable structures,
    which are rejected.
    """
    if structure.bundle != B:
        raise StratumError("quotient coordinates live on B strata")
    inf_idx = structure.infinity_indices()
    vals = structure.finite_values()
    if len(inf_idx) == 0:
        nodes = list(cfg.z)
        us = [vals[i] for i in range(NPOINTS)]
        npow = 3
    elif len(inf_idx) == 1:
        keep = [i for i in range(NPOINTS) if i != inf_idx[0]]
        nodes = [cfg.z[i] for i in keep]
        us = [vals[i] for i in keep]
        npow = 2
    else:
        raise StratumError("quotient coordinates require at most one infinite flag")
    w = divided_difference_weights(nodes)
    coords = tuple(
        sum((u * (z**k) * wi for u, z, wi in zip(us, nodes, w)), sc(0))
        for k in range(npow)
    )
    if all(c.is_zero() for c in coords):
        raise StratumError("decomposable structure has no quotient coordinates")
    return coords


def oracle_decomposition_coords(
    structure: ParabolicStructure, cfg: MarkedConfiguration
) -> tuple[Scalar, ...]:
    """The coordinates ``L(z^k)``, ``0 <= k < n - 1 - b``, that vanish exactly
    on decomposable structures.

    Here ``n`` is the number of finite flags, ``b = d1 - d0`` and
    ``L(p) = sum_i u_i p(z_i) / prod_{j != i}(z_i - z_j)`` is the top divided
    difference over the finite nodes.  ``L`` annihilates every polynomial of
    degree <= n - 2 and sends ``z^(n-1)`` to 1, so with ``P = sum_m p_m z^m``
    the interpolant of the flags (degree <= n - 1),
    ``L(z^k) = sum_m p_m L(z^(m+k))`` is ``p_(n-1-k)`` plus a combination of
    the ``p_m`` with ``m > n - 1 - k``.  For ``k < n - 1 - b`` the map from
    ``(p_(b+1), ..., p_(n-1))`` is therefore unitriangular: the coordinates
    all vanish iff ``deg P <= b``, that is iff the finite flags lie on a
    section of ``O(d1 - d0)``, which is iff the structure is decomposable
    (infinite flags sit on the higher summand).  With ``n <= b + 1`` the
    tuple is empty and the condition holds vacuously.
    """
    vals = structure.finite_values()
    nodes = [cfg.z[i] for i in vals]
    w = divided_difference_weights(nodes)
    ncoords = len(nodes) - 1 - (structure.bundle.d1 - structure.bundle.d0)
    return tuple(
        sum((u * (z**k) * wi for u, z, wi in zip(vals.values(), nodes, w)), sc(0))
        for k in range(ncoords)
    )


def oracle_classify(structure: ParabolicStructure, cfg: MarkedConfiguration) -> StratumId:
    """Stratum/orbit label of a parabolic structure on B or B'."""
    dec, _ = oracle_is_decomposable(structure, cfg)
    inf_idx = structure.infinity_indices()
    n_inf = len(inf_idx)
    if structure.bundle == B:
        if n_inf == 0:
            coords = None if dec else _normalize_projective(oracle_quotient_coords(structure, cfg))
            return StratumId("U2", (), coords, dec)
        if n_inf == 1:
            coords = None if dec else _normalize_projective(oracle_quotient_coords(structure, cfg))
            return StratumId("Ui", inf_idx, coords, dec)
        if n_inf == 2:
            # U' and U'' split by collinearity of the three finite flags
            family = "UijPrime" if dec else "UijDoublePrime"
            return StratumId(family, inf_idx, None, dec)
        return StratumId("Uplus", inf_idx, None, True)
    if structure.bundle == BPRIME:
        if n_inf == 0:
            if dec:
                return StratumId("BprimeGenericDec", (), None, True)
            return StratumId("BprimeGenericIndec", (), None, False)
        return StratumId("BprimeInf", inf_idx, None, True)
    raise StratumError("classification defined for B and B' only")


def oracle_stabilizer_dim(structure, cfg) -> int:
    """The dimension of the flag stabilizer, scalars included, from the rank
    of the fixed-flag equations ``shift(z_i) = (a - 1) u_i``."""
    bundle = structure.bundle
    if bundle.d0 == bundle.d1:
        return 1 + max(0, 3 - len(set(structure.flags)))
    ncols = bundle.d1 - bundle.d0 + 2
    vals = structure.finite_values()
    rows = [[cfg.z[i] ** k for k in range(ncols - 1)] + [-u] for i, u in vals.items()]
    return 1 + ncols - (Mat(rows).rank() if rows else 0)


def oracle_gauge_dims(space):
    """``(dim_before_gauge, dim_mod_gauge)`` of a connection space by a second
    solve of the two diagonal residue sums alone, -1 when they are
    inconsistent, and the rank of the fixed-flag equations."""
    bundle = space.structure.bundle
    ntail = len(space.labels) - NPOINTS
    rows, rhs = [], []
    for r, target in ((0, -bundle.d0), (1, -bundle.d1)):
        rows.append([Scalar._wrap(D[r][r]) for _, D in space.parts] + [ZERO] * ntail)
        rhs.append(sc(target) - sum((Scalar._wrap(C[r][r]) for C, _ in space.parts), ZERO))
    before = Mat(rows).solve_affine(rhs)
    dim_before = len(before[1]) if before is not None else -1
    return dim_before, space.dim - (oracle_stabilizer_dim(space.structure, space.cfg) - 1)


def oracle_solve_connection_space(structure, cfg, nu):
    """``(particular, basis, dim_before_gauge)`` of the connection space, the
    vectors as triples, or None when it is empty, from constraint rows built
    one entry at a time:
    ``sum_i w_i (A_i)_rc = target`` with unit weights for the diagonal sums
    and the weights ``[z^k] prod_{j != i} (z - z_j)`` of the pole products,
    rebuilt from the roots, for the off-diagonal coefficients from ``k = 4``
    down to one above the bound, below zero too, where every weight is zero."""
    bundle = structure.bundle
    d0, d1 = bundle.d0, bundle.d1
    ntail = max(d1 - d0 - 1, 0)
    parts = [oracle_residue_parts(*nu.nu[i], structure.flags[i]) for i in range(NPOINTS)]

    def row(r, c, weights, target):
        const = sum((w * C[r][c] for w, (C, _) in zip(weights, parts)), ZERO)
        return [w * D[r][c] for w, (_, D) in zip(weights, parts)] + [ZERO] * ntail, target - const

    ones = [ONE] * NPOINTS
    rows = [row(0, 0, ones, sc(-d0)), row(1, 1, ones, sc(-d1))]
    poles = [monic_from_roots([z for k, z in enumerate(cfg.z) if k != i]) for i in range(NPOINTS)]
    for (r, c), bound in (((0, 1), 3 + d0 - d1), ((1, 0), 3 + d1 - d0)):
        for k in range(NPOINTS - 1, bound, -1):
            rows.append(row(r, c, [p.coeff(k) for p in poles], ZERO))
    full = Mat([coeffs for coeffs, _ in rows]).solve_affine([rhs for _, rhs in rows])
    if full is None:
        return None
    diag = [[x._t for x in coeffs] for coeffs, _ in rows[:2]]
    particular = [x._t for x in full[0]]
    basis = [[x._t for x in vec] for vec in full[1]]
    return particular, basis, NPOINTS + ntail - oracle_rank(diag, 2, NPOINTS + ntail)


def oracle_residue_parts(p, m, u):
    """``(C, D)`` on Scalars: the residues with eigenvalues ``(p, m)`` and
    the flag ``u`` as ``p``-eigenline are ``C + x*D``."""
    if u.is_infinity():
        return ((m, ZERO), (ZERO, p)), ((ZERO, ZERO), (ONE, ZERO))
    t = u.value
    return ((p, ZERO), (t * (p - m), m)), ((-t, ONE), (-t * t, t))


def oracle_connection_solve(structure, cfg, nu):
    """``(particular, basis, parts)`` of the connection space on Scalars, or
    None when it is empty: the rows read off the forward numerator map, every
    entry a Scalar, solved by ``Mat.solve_affine``."""
    bundle = structure.bundle
    ntail = max(bundle.d1 - bundle.d0 - 1, 0)
    parts = [oracle_residue_parts(*nu.nu[i], structure.flags[i]) for i in range(NPOINTS)]
    (fwd, den), _ = cfg.numerator_maps()
    top = NPOINTS - 1
    prescribed = [((0, 0), top, -bundle.d0), ((1, 1), top, -bundle.d1)] + [
        (rc, k, 0) for rc, bound in offdiag_bounds(bundle) for k in range(top, max(bound, -1), -1)
    ]
    rows, rhs = [], []
    for (r, c), k, value in prescribed:
        weights = [Scalar(a, b) for a, b in fwd[k]]
        const = sum((w * C[r][c] for w, (C, _) in zip(weights, parts)), ZERO)
        rows.append([w * D[r][c] for w, (_, D) in zip(weights, parts)] + [ZERO] * ntail)
        rhs.append(sc(den * value) - const)
    full = Mat(rows).solve_affine(rhs)
    return None if full is None else (*full, parts)


def oracle_triple_at(structure, cfg, nu, solved, params) -> FlatTriple:
    """The flat triple at ``params`` of an ``oracle_connection_solve``
    result, the solution vector and every residue ``C_i + x_i D_i`` summed on
    Scalars and the connection built by the public constructor."""
    particular, basis, parts = solved
    vec = list(particular)
    for p, bvec in zip(params, basis):
        vec = [v + sc(p) * b for v, b in zip(vec, bvec)]
    mats = [
        [[c + x * d for c, d in zip(crow, drow)] for crow, drow in zip(C, D)]
        for (C, D), x in zip(parts, vec)
    ]
    tail = vec[NPOINTS:]
    conn = LogConnection(structure.bundle, mats, Poly(tail, bound=len(tail) - 1) if tail else None)
    return FlatTriple(structure, nu, conn, cfg)


def oracle_validate_triple(t) -> tuple[bool, list[str]]:
    """``validate_triple`` on Scalars: the residues as the public accessor
    gives them and the degrees of the cleared numerator polynomials."""
    v = []
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
        k, l = t.structure.flags[i].kappa, t.structure.flags[i].lam
        if (a11 * k + a12 * l != p * k) or (a21 * k + a22 * l != p * l):
            v.append(f"flag at point {i + 1} is not a nu+ eigenline")
    for r, d in ((0, d0), (1, d1)):
        total = sum((m[r][r] for m in t.connection.residues), ZERO)
        if total != sc(-d):
            v.append(f"sum of A{r + 1}{r + 1} residues is {total}, expected {-d}")
    for (r, c), bound in offdiag_bounds(bundle):
        num = t.connection.numerator(r, c, t.cfg)
        if not num.is_zero() and num.degree() > bound:
            v.append(f"({r + 1}{c + 1}) numerator degree {num.degree()} exceeds {bound}")
    return (not v, v)


def sample_universe(cfg, generic):
    """All line and exceptional chart data with zeros drawn from the marked
    points and three generic ones: ``("line", chart, theta, a, b, marked)``
    and ``("exc", chart, i, tangent)``."""
    marked_pts = [ProjectivePoint.finite(z) for z in cfg.z]
    pool = marked_pts + [ProjectivePoint.finite(g) for g in generic]
    universe = []
    for a, b in combinations(pool, 2):
        theta = _theta_of_pair(a, b)
        marked = [i for i, zp in enumerate(marked_pts) if zp in (a, b)]
        for chart in ("top", "bottom"):
            universe.append(("line", chart, theta, a, b, tuple(marked)))
    for g in generic:
        theta = _theta_of_pair(ProjectivePoint.finite(g), ProjectivePoint.finite(g))
        for chart in ("top", "bottom"):
            universe.append(
                ("line", chart, theta, ProjectivePoint.finite(g), ProjectivePoint.finite(g), ())
            )
    tangents = pool + [INF]
    for i in range(5):
        for tg in tangents:
            for chart in ("top", "bottom"):
                universe.append(("exc", chart, i, tg))
    return universe


def _theta_of_pair(a, b):
    if a.is_infinity() and b.is_infinity():
        return Poly([1], bound=2)
    if a.is_infinity() or b.is_infinity():
        v = b.value if a.is_infinity() else a.value
        return Poly([-v, 1], bound=2)
    return monic_from_roots([a.value, b.value]).shrink(2)


def universe_point(item, flag_choice=()):
    """The fixed point of a ``sample_universe`` item."""
    if item[0] == "line":
        _, chart, theta, _, _, _ = item
        return FixedLocusPoint(
            "F1", chart, _normalize_projective(theta.coeffs), None, None, flag_choice
        )
    _, chart, i, tg = item
    return FixedLocusPoint("F1", chart, None, i, tg, flag_choice)


def oracle_theta_poly(p, cfg) -> Poly:
    """The Higgs field of an F1 point: its line datum, or the quadratic
    vanishing at the center and the tangent of its exceptional datum."""
    if p.exceptional_index is None:
        return Poly(list(p.theta), bound=2)
    zi = cfg.z[p.exceptional_index]
    if p.tangent.is_infinity():
        return Poly([-zi, 1], bound=2)
    return monic_from_roots([zi, p.tangent.value]).shrink(2)


def oracle_fiber_dimension(p, cfg, nu) -> int:
    """The fiber dimension at degree 1: over F0 the dimension of the solved
    connection space on the generic B' structure, over F1 the rank of the
    trace-sum constraint, found point by point from theta evaluated at every
    marked point; an empty space or an inconsistent constraint raises."""
    if nu.d != 1:
        raise HiggsError("the oracle covers degree 1")
    if p.component == "F0":
        space = solve_connection_space(bprime_generic_representative(cfg), cfg, nu)
        if space is None:
            raise HiggsError("empty connection space over the F0 structure")
        return space.dim
    theta = oracle_theta_poly(p, cfg)
    choice = dict(p.flag_choice)
    rank = 0  # of the trace-sum constraint on the surviving unknowns
    const = sc(0)
    for i, zi in enumerate(cfg.z):
        if choice.get(i) == "upper":
            # infinite flag: the surviving unknown is the (21) residue,
            # absent from the trace sum
            const = const + nu.minus(i)
        else:
            const = const + nu.plus(i)
            # the unknown enters with minus the (12) residue pinned by theta,
            # which vanishes exactly when theta(z_i) does
            if not theta(zi).is_zero():
                rank = 1
    if rank == 0 and not const.is_zero():
        raise HiggsError("empty fiber: trace constraint is inconsistent")
    return NPOINTS - rank - 2


def oracle_limit_point(h: StronglyParabolicHiggs) -> FixedLocusPoint:
    """The canonical form of the chart datum of a Higgs fixed point, with its
    marked zeros evaluated afresh."""
    if h.bundle == BPRIME:
        return FixedLocusPoint("F0")
    theta, cfg = h.theta, h.cfg
    marked = [i for i in range(NPOINTS) if theta(cfg.z[i]).is_zero()]
    choices = tuple((i, "upper" if h.structure.flags[i].is_infinity() else "lower") for i in marked)
    uppers = [i for i, choice in choices if choice == "upper"]
    zi_double = _double_marked_zero(theta, cfg, marked)
    if zi_double is not None:
        chart = "bottom" if zi_double in uppers else "top"
        p = FixedLocusPoint(
            "F1", chart, None, zi_double, ProjectivePoint.finite(cfg.z[zi_double]), choices
        )
    elif uppers:
        i = min(uppers)
        p = FixedLocusPoint("F1", "top", None, i, _other_zero(theta, cfg.z[i]), choices)
    else:
        p = FixedLocusPoint("F1", "top", _normalize_projective(theta.coeffs), None, None, choices)
    return fixedpoint_canonicalize(p, cfg)


def unit_vectors(n) -> list[list[Scalar]]:
    """The rows of the n x n identity matrix."""
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_product(a: Mat, b: Mat) -> Mat:
    """The matrix product ``a b``, entry by entry on Scalars."""
    return Mat([[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b.entries)]
                for row in a.entries])


def basis_connections(space) -> list:
    """The connection at the particular solution of a connection space, then
    the one at the particular solution plus each basis vector."""
    units = unit_vectors(space.dim)
    return [space.connection_at([ZERO] * space.dim)] + [space.connection_at(e) for e in units]


def free_tail_only(space) -> bool:
    """Whether every free direction of a connection space is supported on
    its tail coordinates."""
    return all(
        _t_is_zero(val) or label[0] == "g"
        for vec in space.basis
        for val, label in zip(vec, space.labels)
    )


def balanced_branch(sigma, nu) -> MCBranch:
    """The middle-convolution branch with all five vertical residues equal:
    each is ``-beta_k / 5``, with ``beta_k`` the sum of the eigenvalues that
    ``sigma`` picks."""
    bk = sum((nu.plus(i) if s == "+" else nu.minus(i) for i, s in enumerate(sigma)), ZERO)
    return MCBranch(sigma, [-bk / 5] * NPOINTS, nu)


def verify_invariant_line(t, q, r) -> bool:
    """Exact check that the section ``s = (q, r)`` spans a connection-invariant
    line: the cleared ``(nabla s) wedge s`` vanishes identically."""
    if (q is None or q.is_zero()) and (r is None or r.is_zero()):
        raise ConnectionError("zero section is not a line")
    qp = q if q is not None else Poly.zero(-1)
    rp = r if r is not None else Poly.zero(-1)
    node = t.cfg.pole_products()[0]
    n11, n12, n21, n22 = oracle_numerators(t)
    w1 = node * qp.derivative() + n11 * qp + n12 * rp
    w2 = node * rp.derivative() + n21 * qp + n22 * rp
    return poly_sub(w1 * rp, w2 * qp).is_zero()


def poly_sub(p: Poly, q: Poly) -> Poly:
    """``p - q``, with the bound of the larger."""
    return p + q * -1


_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


def oracle_numerators(t: FlatTriple) -> list[Poly]:
    """The four cleared numerators of a triple's connection, in the order of
    ``_ENTRIES``."""
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


def divide_exact(num: Poly, zj: Scalar) -> Poly:
    """``num / (z - z_j)``; a nonzero remainder is a double pole at z_j."""
    quot, rem = num.divide_linear(zj)
    if not rem.is_zero():
        raise ConnectionError("division would create a double pole")
    return quot


def from_numerators(bundle, cfg, nums) -> LogConnection:
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


def oracle_elm_triple(t: FlatTriple, j: int) -> FlatTriple:
    """``elm_triple`` by Scalar polynomial arithmetic on the numerators: on
    the cleared numerators a new pole at z_j adds ``prod_{i != j} (z - z_i)``,
    the frame factor multiplies or divides by ``z - z_j``, and
    ``from_numerators`` reads the residues and the tail back."""
    cfg = t.cfg
    bundle = t.connection.bundle
    zj = cfg.z[point_index(j)]
    lin = Poly([-zj, 1])
    pole = cfg.pole_products()[1][j]
    n11, n12, n21, n22 = oracle_numerators(t)
    u = t.structure.flags[j]
    if u.is_infinity():
        # frame ((z - z_j) e, f): lower summand degree drops
        new_d = (bundle.d0 - 1, bundle.d1)
        nums = [n11 + pole, divide_exact(n12, zj), n21 * lin, n22]
        at_j, move = ProjectivePoint.finite(0), lambda v, zi: v * (zi - zj)
    else:
        tval = u.value
        new_d = (bundle.d0, bundle.d1 - 1)
        t12 = tval * n12
        nums = [
            n11 + t12,
            n12 * lin,
            divide_exact(n21 + tval * poly_sub(poly_sub(n22, n11), t12), zj),
            poly_sub(n22, t12) + pole,
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
    conn = from_numerators(new_bundle, cfg, nums)
    structure = ParabolicStructure(new_bundle, new_flags)
    return FlatTriple(structure, elm_spectrum(t.spectrum, j), conn, cfg)


def oracle_gauge_transform(t: FlatTriple, params) -> FlatTriple:
    """``gauge_transform`` by Scalar polynomial arithmetic on the
    numerators: the conjugation by the automorphism, with the derivative of
    the shift joining the (21) entry, read back by ``from_numerators``."""
    bundle = t.connection.bundle
    a, shift = act_params_shift(bundle, params)
    cfg = t.cfg
    n11, n12, n21, n22 = oracle_numerators(t)
    node = cfg.pole_products()[0]
    s12 = shift * n12
    # the derivative of the shift joins the (21) entry as a polynomial part
    n21 = a.inverse() * poly_sub(
        poly_sub(n21 + shift * poly_sub(n11, n22), shift * s12), node * shift.derivative()
    )
    conn = from_numerators(bundle, cfg, [poly_sub(n11, s12), a * n12, n21, n22 + s12])
    structure = act(bundle, params, t.structure, cfg)
    return FlatTriple(structure, t.spectrum, conn, cfg)
