"""Acceptance suite.

One test per criterion, every check exact (tolerance zero throughout), each
printing a pass line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from itertools import combinations

import pytest

from helpers import (
    balanced_branch,
    basis_connections,
    destabilizing_candidates,
    free_tail_only,
    oracle_is_stable,
    rand_config,
    rand_nonspecial_spectrum,
    rand_nonspecial_weight,
    rand_rational,
    rand_structure,
    rand_u2_indecomposable,
    rand_ui_indecomposable,
    rand_uij_indecomposable,
    sample_universe,
    universe_point,
)
from paramod.connection import (
    degree_bounds,
    gauge_transform,
    solve_connection_space,
    validate_triple,
)
from paramod.exactnum import INF, Mat, Poly, ProjectivePoint, sc
from paramod.higgslimit import (
    cstar_limit,
    fiber_dimension,
    fixed_component,
    fixedpoint_canonicalize,
    higgs_is_stable,
    special_loci,
)
from paramod.parastruct import (
    B,
    BPRIME,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    act,
    all_bprime_orbit_labels,
    bprime_generic_representative,
    classify,
    is_decomposable,
    quotient_coords,
)
from paramod.spectra import MCBranch, elm_spectrum, elm_weight, mc_applicability_failures, mc_spectrum
from paramod.stability import (
    OnWallError,
    StratumError,
    WeightVector,
    is_stable,
    no_stable_structure,
    s_value,
    stabilizing_weight,
    weight_is_non_special,
)

CFG = MarkedConfiguration([0, 1, 2, 3, 4])


def _report(n, message):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


def test_criterion_01_orbit_count():
    """B' orbit classification yields exactly 33 labels on random marked
    configurations, and random sampling never produces a 34th."""
    rng = random.Random(1001)
    for trial in range(20):
        cfg = rand_config(rng)
        labels = all_bprime_orbit_labels(cfg)
        assert len(labels) == 33
        assert len(set(labels)) == 33
        label_set = set(labels)
        for _ in range(25):
            s = rand_structure(rng, BPRIME)
            assert classify(s, cfg).label() in label_set
    _report(1, "33 B' orbits on 20 random configurations, no 34th in sampling")


def test_criterion_02_strata_moduli():
    """Quotient coordinates vanish exactly on decomposables and are invariant
    under 10^4 random automorphisms via the divided-difference identity."""
    rng = random.Random(2002)
    # vanishing locus: decomposable <=> all-zero coordinate functional
    for _ in range(200):
        cfg = rand_config(rng)
        n_inf = rng.choice([0, 1])
        s = rand_structure(rng, B, n_inf=n_inf)
        dec, _ = is_decomposable(s, cfg)
        try:
            coords = quotient_coords(s, cfg)
            vanished = False
        except StratumError:
            vanished = True
        assert vanished == dec
        if not vanished:
            assert any(not c.is_zero() for c in coords)
    # constructed decomposables vanish
    for _ in range(50):
        cfg = rand_config(rng)
        r0, r1 = rand_rational(rng), rand_rational(rng)
        s = ParabolicStructure(B, [r0 + r1 * z for z in cfg.z])
        with pytest.raises(StratumError):
            quotient_coords(s, cfg)
    # invariance on 10^4 pairs
    checked = 0
    while checked < 10_000:
        cfg = rand_config(rng)
        n_inf = rng.choice([0, 0, 1])
        s = rand_structure(rng, B, n_inf=n_inf)
        if is_decomposable(s, cfg)[0]:
            continue
        a = rand_rational(rng, -9, 9, 4)
        if a.is_zero():
            continue
        g = [a, rand_rational(rng, -9, 9, 4), rand_rational(rng, -9, 9, 4)]
        c1 = quotient_coords(s, cfg)
        c2 = quotient_coords(act(B, g, s, cfg), cfg)
        assert all(x / a == y for x, y in zip(c1, c2))
        checked += 1
    _report(2, "coordinates vanish exactly on decomposables; invariance on 10^4 pairs")


def _conic_through_images(cfg):
    rows = []
    for zi in cfg.z:
        a, b, c = sc(1), zi, zi * zi
        rows.append([a * a, a * b, a * c, b * b, b * c, c * c])
    basis = Mat(rows).nullspace()
    assert len(basis) == 1
    return basis[0]


def _on_conic(conic, coords):
    a, b, c = coords
    mono = [a * a, a * b, a * c, b * b, b * c, c * c]
    return sum((q * m for q, m in zip(conic, mono)), sc(0)).is_zero()


def test_criterion_03_five_point_geometry():
    """The coordinate structures map to [1 : z_i : z_i^2]; the vanishing
    determinant locus maps onto the unique conic through those five images,
    which are in general position."""
    rng = random.Random(3003)
    z = CFG.z
    # the verified instance: reduced conic at u = (-3, -2, -1)
    c_a = (z[1] - z[3]) * (z[1] - z[4]) / ((z[1] - z[0]) * (z[1] - z[2]))
    c_b = (z[0] - z[3]) * (z[0] - z[4]) / ((z[0] - z[1]) * (z[0] - z[2]))
    c_c = (z[2] - z[3]) * (z[2] - z[4]) / ((z[2] - z[0]) * (z[2] - z[1]))
    u1, u2, u3 = sc(-3), sc(-2), sc(-1)
    terms = (c_a * u1 * u3, c_b * u2 * u3, c_c * u1 * u2)
    assert terms == (sc(-18), sc(12), sc(6))
    assert sum(terms, sc(0)).is_zero()

    def delta(s, cfg):
        rows = []
        for zi, u in zip(cfg.z, s.flags):
            if u.is_infinity():
                rows.append([sc(0), sc(0), sc(0), sc(1), zi])
            else:
                rows.append([sc(1), zi, zi**2, u.value, u.value * zi])
        return Mat(rows)

    s_inst = ParabolicStructure(B, [-3, -2, -1, 0, 0])
    assert delta(s_inst, CFG).det().is_zero()

    for trial in range(12):
        cfg = CFG if trial == 0 else rand_config(rng)
        conic = _conic_through_images(cfg)
        images = []
        for i in range(5):
            flags = [1 if k == i else 0 for k in range(5)]
            coords = quotient_coords(ParabolicStructure(B, flags), cfg)
            scale = coords[0].inverse()
            coords = tuple(x * scale for x in coords)
            assert coords == (sc(1), cfg.z[i], cfg.z[i] ** 2)
            assert _on_conic(conic, coords)
            images.append(coords)
        # general position: no three images collinear
        for tri in combinations(images, 3):
            assert not Mat(list(tri)).det().is_zero()
        # the vanishing-determinant locus lands on the conic
        found = 0
        while found < 12:
            qpoly = Poly([rand_rational(rng, -6, 6, 3) for _ in range(2)], bound=1)
            rpoly = Poly([rand_rational(rng, -6, 6, 3) for _ in range(3)], bound=2)
            if any(qpoly(zi).is_zero() for zi in cfg.z):
                continue
            s = ParabolicStructure(
                B, [rpoly(zi) / qpoly(zi) for zi in cfg.z]
            )
            assert delta(s, cfg).det().is_zero()
            if is_decomposable(s, cfg)[0]:
                continue
            found += 1
            assert _on_conic(conic, quotient_coords(s, cfg))
    assert _on_conic(_conic_through_images(CFG), quotient_coords(s_inst, CFG))
    _report(3, "images [1:z:z^2] in general position; det locus on the conic")


def test_criterion_04_chamber_propositions():
    """The witness chambers stabilize every sampled indecomposable structure
    of their stratum; weights violating each emptiness condition admit no
    stable structure among 10^4 samples."""
    rng = random.Random(4004)
    w_u2 = WeightVector.uniform(sc("4/15"))
    for _ in range(1000):
        s = rand_u2_indecomposable(rng, CFG)
        assert is_stable(s, CFG, w_u2).stable
    w_ui = WeightVector.uniform(sc("7/15"))
    for k in range(1000):
        s = rand_ui_indecomposable(rng, CFG, k % 5)
        assert is_stable(s, CFG, w_ui).stable
    pairs = list(combinations(range(5), 2))
    for k in range(1000):
        i, j = pairs[k % 10]
        stratum = classify(rand_uij_indecomposable(rng, CFG, i, j), CFG)
        w = stabilizing_weight(stratum)
        s = rand_uij_indecomposable(rng, CFG, i, j)
        assert is_stable(s, CFG, w).stable

    empties = [
        (B, WeightVector.uniform(sc("1/10")), "sum < 1"),
        (B, WeightVector(["1/2", "9/10", "9/10", "9/10", "9/10"]), "one point dominated"),
        (B, WeightVector(["9/10", "9/10", "1/10", "1/10", "1/10"]), "pair dominates"),
        (BPRIME, WeightVector.uniform(sc("1/4")), "sum < 3"),
        (BPRIME, WeightVector(["1/2", "9/10", "9/10", "9/10", "9/10"]), "one point dominated"),
    ]
    for bundle, w, name in empties:
        assert weight_is_non_special(w, 1), name
        assert no_stable_structure(w, bundle), name
        for _ in range(10_000):
            s = rand_structure(rng, bundle)
            report = is_stable(s, CFG, w)
            assert not report.stable, (name, s)
    _report(4, "witness chambers stabilize strata; emptiness conditions hold on 5x10^4 samples")


def test_criterion_05_stability_oracle_equivalence():
    """The enumeration-based decision agrees with the closed-form case
    analysis on 10^3 random structure/weight pairs over both bundles."""
    rng = random.Random(5005)
    done = 0
    while done < 1000:
        cfg = rand_config(rng)
        bundle = BPRIME if done % 3 == 2 else B
        s = rand_structure(rng, bundle)
        w = rand_nonspecial_weight(rng)
        try:
            verdict = is_stable(s, cfg, w).stable
        except OnWallError:
            continue
        assert verdict == oracle_is_stable(s, cfg, w), (s, [str(x) for x in w.w])
        done += 1
    _report(5, "enumeration equals the case-analysis oracle on 10^3 pairs")


def test_criterion_06_elementary_transformation_conservation():
    """s-values are conserved under the witness transform, spectra keep the
    Fuchs relation at degree d-1 with genericity preserved, and transformed
    triples validate."""
    rng = random.Random(6006)
    checked = 0
    while checked < 1000:
        cfg = rand_config(rng)
        s = rand_structure(rng, B)
        w = rand_nonspecial_weight(rng)
        j = rng.randrange(5)
        wn = elm_weight(w, j)
        for cand in destabilizing_candidates(s, cfg):
            if j in cand.contact:
                deg2, contact2 = cand.degree, cand.contact - {j}
            else:
                deg2, contact2 = cand.degree - 1, cand.contact | {j}
            lhs = s_value(1, cand.degree, cand.contact, w)
            rhs = s_value(0, deg2, contact2, wn)
            assert lhs == rhs
            checked += 1
    for _ in range(300):
        nu = rand_nonspecial_spectrum(rng, d=rng.choice([-1, 0, 1, 2]))
        j = rng.randrange(5)
        out = elm_spectrum(nu, j)
        assert out.d == nu.d - 1  # Fuchs is enforced by the constructor
        preds = out.predicates()
        assert preds["kostov_generic"] and preds["non_resonant"]
    for k in range(25):
        s = rand_u2_indecomposable(rng, CFG)
        nu = rand_nonspecial_spectrum(rng, d=1)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([rand_rational(rng, -3, 3, 2) for _ in range(space.dim)])
        out = elm_triple_checked(t, k % 5)
        assert out.spectrum == elm_spectrum(nu, k % 5)
    _report(6, "s-value identity on 10^3 witnesses; spectra and triples transform exactly")


def elm_triple_checked(t, j):
    from paramod.connection import elm_triple

    out = elm_triple(t, j)
    ok, violations = validate_triple(out)
    assert ok, violations
    return out


def test_criterion_07_middle_convolution():
    """Rank 3, preserved degree, exact rank-3 Fuchs sum and separated
    eigenvalues on 10^3 admissible random branches."""
    rng = random.Random(7007)
    done = 0
    while done < 1000:
        d = rng.choice([-1, 0, 1, 2])
        nu = rand_nonspecial_spectrum(rng, d=d)
        sigma = "".join(rng.choice("+-") for _ in range(5))
        if rng.randrange(2):
            branch = balanced_branch(sigma, nu)
        else:
            vals = [rand_rational(rng, -4, 4, 3) for _ in range(4)]
            bh = [
                -(nu.plus(i) if s == "+" else nu.minus(i))
                for i, s in enumerate(sigma)
            ]
            bk = -sum(bh, sc(0))
            vals.append(-bk - sum(vals, sc(0)))
            branch = MCBranch(sigma, vals, nu)
        if mc_applicability_failures(nu, branch):
            continue
        out = mc_spectrum(nu, branch)
        assert out.d == d
        assert (out.fuchs_sum() + sc(d)).is_zero()
        for a, b, c in out.triples:
            assert a == b and c != a
        done += 1
    _report(7, "middle convolution: rank 3, degree preserved, Fuchs exact on 10^3 branches")


def test_criterion_08_connection_spaces():
    """Solution dimensions: 4 before gauge and 2 modulo gauge for generic B
    structures, exactly the two tail coefficients for the generic B'
    structure, and emptiness for decomposables with Kostov-generic spectra."""
    rng = random.Random(8008)
    for _ in range(30):
        cfg = rand_config(rng)
        while True:
            s = rand_structure(rng, B, n_inf=0)
            if not is_decomposable(s, cfg)[0] and all(
                not u.value.is_zero() for u in s.flags
            ):
                break
        nu = rand_nonspecial_spectrum(rng, d=1)
        space = solve_connection_space(s, cfg, nu)
        assert space is not None
        assert space.dim_before_gauge == 4
        assert space.dim == 2
        assert space.dim_mod_gauge == 2
        for conn in basis_connections(space):
            from paramod.connection import FlatTriple

            ok, violations = validate_triple(FlatTriple(s, nu, conn, cfg))
            assert ok, violations
    for _ in range(20):
        cfg = rand_config(rng)
        s = bprime_generic_representative(cfg)
        nu = rand_nonspecial_spectrum(rng, d=1)
        space = solve_connection_space(s, cfg, nu)
        assert space is not None
        assert space.dim == 2
        assert free_tail_only(space)
    decomposables = []
    r0, r1 = sc(2), sc("1/3")
    decomposables.append(ParabolicStructure(B, [r0 + r1 * z for z in CFG.z]))
    decomposables.append(ParabolicStructure(B, [0, 0, 0, 0, 0]))
    decomposables.append(ParabolicStructure(B, [INF, INF, INF, 1, 2]))
    decomposables.append(
        ParabolicStructure(B, [INF, 0, sc(1), sc(2), sc(3)])
    )  # collinear finite part
    decomposables.append(ParabolicStructure(BPRIME, [z**3 for z in CFG.z]))
    decomposables.append(ParabolicStructure(BPRIME, [INF, 0, 1, 2, 3]))
    for s in decomposables:
        assert is_decomposable(s, CFG)[0]
        for _ in range(8):
            nu = rand_nonspecial_spectrum(rng, d=1)
            assert solve_connection_space(s, CFG, nu) is None
    _report(8, "dimensions 4/2 on B, two tail parameters on B', decomposables empty")


def test_criterion_09_cstar_limit_dichotomy():
    """Computed limits are strongly parabolic, nilpotent, Higgs-stable,
    unique among candidates, gauge-orbit constant, satisfy the zero-field
    dichotomy, and sit over two-dimensional fibers."""
    rng = random.Random(9009)
    done = 0
    while done < 100:
        bprime = done % 4 == 3
        if bprime:
            s = bprime_generic_representative(CFG)
        elif done % 5 == 1:
            s = rand_ui_indecomposable(rng, CFG, done % 5)
        else:
            s = rand_u2_indecomposable(rng, CFG)
        nu = rand_nonspecial_spectrum(rng, d=1)
        space = solve_connection_space(s, CFG, nu)
        assert space is not None
        t = space.triple_at(
            [rand_rational(rng, -4, 4, 2) for _ in range(space.dim)]
        )
        w = rand_nonspecial_weight(rng, total_below=1)
        res = cstar_limit(t, w)
        # construction of StronglyParabolicHiggs enforces strong parabolicity
        assert not res.higgs.theta.is_zero()
        assert higgs_is_stable(res.higgs, CFG, w)
        assert sum(1 for c in res.candidates if c.stable) == 1
        assert fixed_component(res.higgs) != "NotFixed"
        assert res.point.component == ("F0" if bprime else "F1")
        # dichotomy: nonzero field <-> underlying bundle unstable
        try:
            underlying = is_stable(res.higgs.structure, CFG, w).stable
            assert (not res.higgs.theta.is_zero()) == (not underlying)
        except OnWallError:
            pass
        assert fiber_dimension(res.point, CFG, nu) == 2
        if done % 10 == 0:
            params = [sc(2), rand_rational(rng, -3, 3, 2), rand_rational(rng, -3, 3, 2)]
            if bprime:
                params += [rand_rational(rng, -3, 3, 2), rand_rational(rng, -3, 3, 2)]
            t2 = gauge_transform(t, params)
            assert cstar_limit(t2, w).point == res.point
        done += 1
    _report(9, "10^2 limits: stable, unique, gauge-constant, dichotomy, fibers of dim 2")


def _directly_related(x, y, cfg):
    """Literal transcription of the three gluing rules."""
    if x[0] == y[0] == "line":
        _, cx, tx, _, _, mx = x
        _, cy, ty, _, _, my = y
        return cx != cy and not mx and not my and _proportional(tx, ty)
    if x[0] == y[0] == "exc":
        return False
    line, exc = (x, y) if x[0] == "line" else (y, x)
    _, lchart, theta, a, b, marked = line
    _, echart, i, tg = exc
    if lchart == echart or not marked:
        return False
    zi = ProjectivePoint.finite(cfg.z[i])
    if zi not in (a, b):
        return False
    other = b if a == zi else a
    if other == zi:
        return False
    if tg != other:
        return False
    if lchart == "top":
        return True  # top line to bottom exceptional, any second zero
    # bottom line to top exceptional: second zero must avoid the marked set
    return all(other.is_infinity() or other.value != z for z in cfg.z)


def _proportional(p, q):
    for k in range(3):
        if not p.coeff(k).is_zero():
            scale = q.coeff(k) / p.coeff(k)
            return all(q.coeff(m) == scale * p.coeff(m) for m in range(3))
    return False


def test_criterion_10_fixed_locus_combinatorics():
    """Special loci counts; canonicalization is idempotent and separates
    exactly the pairs not related by the gluing rules on an exhaustive
    sample."""
    for trial, cfg in [(0, CFG), (1, MarkedConfiguration([-2, -1, 0, 1, 3]))]:
        loci = special_loci(cfg)
        assert len(loci.points) == 15
        assert sum(1 for (i, j) in loci.points if i < j) == 10
        assert sum(1 for (i, j) in loci.points if i == j) == 5
        assert len(loci.lines) == 5
        for (i, j), pt in loci.points.items():
            for k in (i, j):
                dual = loci.lines[k]["dual"]
                assert sum((a * b for a, b in zip(pt, dual)), sc(0)).is_zero()

        generic = [sc("11/2"), sc("-13/3"), sc(7)]
        universe = sample_universe(cfg, generic)
        points = [universe_point(item) for item in universe]
        canon = [fixedpoint_canonicalize(p, cfg) for p in points]
        for c in canon:
            assert fixedpoint_canonicalize(c, cfg) == c
        # transitive closure of the literal rules
        n = len(universe)
        parent = list(range(n))

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        for a in range(n):
            for b in range(a + 1, n):
                if _directly_related(universe[a], universe[b], cfg):
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb
        for a in range(n):
            for b in range(a + 1, n):
                same_class = find(a) == find(b)
                assert same_class == (canon[a] == canon[b]), (universe[a], universe[b])
    _report(10, "15 + 5 special loci; canonical forms separate exactly the unglued pairs")


def test_criterion_11_degree_bounds():
    """The irreducible-split enumeration matches the parity branch table for
    degrees -2..3."""
    for d in range(-2, 4):
        r = d // 2
        if d % 2 == 0:
            expected = {BundleSplitType(r - 1, r + 1), BundleSplitType(r, r)}
        else:
            expected = {BundleSplitType(r - 1, r + 2), BundleSplitType(r, r + 1)}
        got = set(degree_bounds(d).splits)
        assert got == expected, (d, got)
        brute = {
            BundleSplitType(d0, d - d0)
            for d0 in range(d - 5, d + 5)
            if d0 <= d - d0 and (d - d0) - d0 <= 3
        }
        assert got == brute
    _report(11, "split branch table matches for d in -2..3")
