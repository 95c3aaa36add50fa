import json
import random
from itertools import combinations, islice, product

import pytest

from helpers import (
    basis_connections,
    free_tail_only,
    oracle_cleared_numerator,
    oracle_connection_solve,
    oracle_act,
    oracle_elm_spectrum,
    oracle_elm_triple,
    oracle_gauge_dims,
    oracle_gauge_transform,
    oracle_lagrange_rows,
    oracle_limit_point,
    oracle_normalize_projective,
    oracle_other_zero,
    oracle_point_json,
    oracle_quadratic_roots,
    oracle_solve_connection_space,
    oracle_triple_at,
    oracle_validate_on_triples,
    oracle_spectrum,
    oracle_validate_triple,
    rand_config,
    rand_gaussian,
    rand_mixed_config,
    rand_nonspecial_spectrum,
    rand_nonspecial_weight,
    rand_rational,
    rand_u2_indecomposable,
    rand_ui_indecomposable,
    residues_and_tail,
    verify_invariant_line,
)
from paramod import _kernel, connection, exactnum, higgslimit
from paramod.higgslimit import _other_zero, quadratic_roots
from paramod.connection import (
    ConnectionError,
    FlatTriple,
    LogConnection,
    degree_bounds,
    elm_triple,
    gauge_transform,
    irreducibility_screen,
    solve_connection_space,
    validate_triple,
)
from paramod.exactnum import INF, ExactError, Poly, Scalar, sc
from paramod.parastruct import (
    B,
    BPRIME,
    BundleSplitType,
    MarkedConfiguration,
    ParabolicStructure,
    _normalize_projective,
    act,
    bprime_generic_representative,
    classify,
)
from paramod.spectra import SpectrumRank2, elm_spectrum
from paramod.stability import WeightVector, is_stable

CFG = MarkedConfiguration([0, 1, 2, 3, 4])


def spectrum_deg1(rng):
    return rand_nonspecial_spectrum(rng, d=1)


def finite_nonzero_structure(rng, bundle=B):
    while True:
        s = ParabolicStructure(
            bundle,
            [rand_rational(rng, -30, 30, 6) for _ in range(5)],
        )
        if all(not u.value.is_zero() for u in s.flags):
            from paramod.parastruct import is_decomposable

            if not is_decomposable(s, CFG)[0]:
                return s


class TestDegreeBounds:
    def test_degree_one(self):
        b = degree_bounds(1)
        assert set(b.splits) == {BundleSplitType(0, 1), BundleSplitType(-1, 2)}
        assert (b.lo, b.hi) == (-1, 2)

    def test_degree_zero(self):
        b = degree_bounds(0)
        assert set(b.splits) == {BundleSplitType(0, 0), BundleSplitType(-1, 1)}

    def test_degree_two(self):
        b = degree_bounds(2)
        assert set(b.splits) == {BundleSplitType(1, 1), BundleSplitType(0, 2)}

    def test_branch_table(self):
        # oracle: brute enumeration of splits with d1 - d0 <= 3
        for d in range(-2, 4):
            expected = {
                BundleSplitType(d0, d - d0)
                for d0 in range(d - 5, d + 5)
                if d0 <= d - d0 and (d - d0) - d0 <= 3
            }
            assert set(degree_bounds(d).splits) == expected
            r = d // 2
            if d % 2 == 0:
                assert expected == {
                    BundleSplitType(r - 1, r + 1),
                    BundleSplitType(r, r),
                }
            else:
                assert expected == {
                    BundleSplitType(r - 1, r + 2),
                    BundleSplitType(r, r + 1),
                }


class TestSolveConnectionSpace:
    def test_b_generic_dimensions(self):
        rng = random.Random(3)
        for _ in range(4):
            s = finite_nonzero_structure(rng)
            nu = spectrum_deg1(rng)
            space = solve_connection_space(s, CFG, nu)
            assert space is not None
            assert space.dim_before_gauge == 4
            assert space.dim == 2
            assert space.dim_mod_gauge == 2

    def test_b_basis_points_validate(self):
        rng = random.Random(5)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        for conn in basis_connections(space):
            ok, violations = validate_triple(FlatTriple(s, nu, conn, CFG))
            assert ok, violations

    def test_bprime_generic_tail_freedom(self):
        rng = random.Random(7)
        s = bprime_generic_representative(CFG)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        assert space is not None
        assert space.dim == 2
        assert free_tail_only(space)
        for conn in basis_connections(space):
            ok, violations = validate_triple(FlatTriple(s, nu, conn, CFG))
            assert ok, violations

    def test_decomposable_kostov_generic_empty(self):
        rng = random.Random(11)
        s = ParabolicStructure(B, [0, 0, 0, 0, 0])
        nu = spectrum_deg1(rng)
        assert nu.predicates()["kostov_generic"]
        assert solve_connection_space(s, CFG, nu) is None

    def test_degree_mismatch_rejected(self):
        rng = random.Random(13)
        s = finite_nonzero_structure(rng)
        nu0 = rand_nonspecial_spectrum(rng, d=0)
        with pytest.raises(ConnectionError):
            solve_connection_space(s, CFG, nu0)

    def test_every_split_validates(self):
        # splits beyond B and B' exercise the (21) rows and longer tails
        rng = random.Random(19)
        solved = set()
        for d in (-1, 0, 1, 2):
            for bundle in degree_bounds(d).splits:
                flags = [INF] + [rand_rational(rng, -30, 30, 6) for _ in range(4)]
                s = ParabolicStructure(bundle, flags)
                nu = rand_nonspecial_spectrum(rng, d=d)
                space = solve_connection_space(s, CFG, nu)
                if space is None:
                    continue
                solved.add(bundle.d1 - bundle.d0)
                assert len(space.labels) == 5 + max(bundle.d1 - bundle.d0 - 1, 0)
                for conn in basis_connections(space):
                    ok, violations = validate_triple(FlatTriple(s, nu, conn, CFG))
                    assert ok, (bundle, violations)
        assert solved == {0, 1, 2}

    def test_cleared_numerator_matches_rebuild(self):
        # the splits of test_every_split_validates, on two configurations
        rng = random.Random(23)
        checked = 0
        for cfg in (CFG, rand_config(rng)):
            for d in (-1, 0, 1, 2):
                for bundle in degree_bounds(d).splits:
                    flags = [INF] + [rand_rational(rng, -30, 30, 6) for _ in range(4)]
                    s = ParabolicStructure(bundle, flags)
                    space = solve_connection_space(s, cfg, rand_nonspecial_spectrum(rng, d=d))
                    if space is None:
                        continue
                    for conn in basis_connections(space):
                        for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                            got = conn.numerator(r, c, cfg)
                            expected = oracle_cleared_numerator(conn, r, c, cfg)
                            assert (got.coeffs, got.bound) == (expected.coeffs, expected.bound)
                            checked += 1
        assert checked > 100

    def test_numerator_round_trip(self):
        # residues and tail -> cleared numerator -> residues and tail on the
        # splits of test_every_split_validates (the B' basis carries tails),
        # and numerator -> residues and tail -> numerator for polynomials of
        # every degree up to 7, on two configurations
        rng = random.Random(29)
        tails = 0
        for cfg in (CFG, rand_config(rng)):
            node, partials = cfg.pole_products()
            for d in (-1, 0, 1, 2):
                for bundle in degree_bounds(d).splits:
                    flags = [INF] + [rand_rational(rng, -30, 30, 6) for _ in range(4)]
                    s = ParabolicStructure(bundle, flags)
                    space = solve_connection_space(s, cfg, rand_nonspecial_spectrum(rng, d=d))
                    if space is None:
                        continue
                    for conn in basis_connections(space):
                        for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                            residues, tail = residues_and_tail(conn.numerator(r, c, cfg), cfg)
                            assert residues == [m[r][c]._t for m in conn.residues]
                            assert tail == (conn.tail if (r, c) == (1, 0) else Poly.zero(-1))
                            tails += not tail.is_zero()
            for deg in range(-1, 8):
                coeffs = [
                    rand_rational(rng) + rand_rational(rng) * Scalar(0, 1)
                    for _ in range(deg + 1)
                ]
                num = Poly(coeffs, bound=max(deg, -1))
                residues, tail = residues_and_tail(num, cfg)
                assert tail.degree() == max(deg - 5, -1)
                rebuilt = tail * node
                for res, partial in zip(residues, partials):
                    rebuilt = rebuilt + Scalar._wrap(res) * partial
                assert rebuilt == num
        assert tails > 0

    def test_infinity_flags_forced_a12_zero(self):
        rng = random.Random(17)
        s = ParabolicStructure(B, [INF, 3, 5, 7, 11])
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        assert space is not None
        for conn in basis_connections(space):
            assert conn.residues[0][0][1].is_zero()
            ok, violations = validate_triple(FlatTriple(s, nu, conn, CFG))
            assert ok, violations

    def test_finite_flags_admit_nonzero_a12(self):
        rng = random.Random(19)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        conns = basis_connections(space)
        for i in range(5):
            assert any(not c.residues[i][0][1].is_zero() for c in conns)


def _raw_connection_system_dim(s, cfg, nu):
    """Independent oracle: assemble every linear constraint over all twenty
    residue entries (plus tail coefficients) and row-reduce."""
    from paramod.exactnum import Mat, monic_from_roots

    d0, d1 = s.bundle.d0, s.bundle.d1
    ntail = max(d1 - d0 - 1, 0)
    n = 20 + ntail

    def unit(k):
        row = [sc(0)] * n
        row[k] = sc(1)
        return row

    def at(i, entry):  # entry index: a11, a12, a21, a22
        return 4 * i + entry

    rows, rhs = [], []
    for i in range(5):
        p, m = nu.nu[i]
        u = s.flags[i]
        kappa, lam = u.kappa, u.lam
        r1 = [sc(0)] * n
        r1[at(i, 0)] = kappa
        r1[at(i, 1)] = lam
        rows.append(r1)
        rhs.append(p * kappa)
        r2 = [sc(0)] * n
        r2[at(i, 2)] = kappa
        r2[at(i, 3)] = lam
        rows.append(r2)
        rhs.append(p * lam)
        tr = [sc(0)] * n
        tr[at(i, 0)] = sc(1)
        tr[at(i, 3)] = sc(1)
        rows.append(tr)
        rhs.append(p + m)
    sum11 = [sc(0)] * n
    sum22 = [sc(0)] * n
    for i in range(5):
        sum11[at(i, 0)] = sc(1)
        sum22[at(i, 3)] = sc(1)
    rows.append(sum11)
    rhs.append(sc(-d0))
    rows.append(sum22)
    rhs.append(sc(-d1))
    partials = [
        monic_from_roots([cfg.z[k] for k in range(5) if k != i]) for i in range(5)
    ]
    full = monic_from_roots(cfg.z)
    for entry, bound in ((1, 3 + d0 - d1), (2, 3 + d1 - d0)):
        deg = 4 + (ntail if entry == 2 else 0)
        for c in range(bound + 1, deg + 1):
            row = [sc(0)] * n
            for i in range(5):
                row[at(i, entry)] = partials[i].coeff(c)
            if entry == 2:
                for tk in range(ntail):
                    if 0 <= c - tk <= 5:
                        row[20 + tk] = full.coeff(c - tk)
            rows.append(row)
            rhs.append(sc(0))
    sol = Mat(rows).solve_affine(rhs)
    return None if sol is None else len(sol[1])


class TestGaugeCounts:
    """``dim_before_gauge`` and ``dim_mod_gauge``, computed when read from the
    one solved space, against the second solve of the diagonal sums and the
    stabilizer rank that were computed with every space."""

    def test_every_split_matches_two_solve_oracle(self):
        rng = random.Random(29)
        solved = set()
        for d in (-1, 0, 1, 2):
            for bundle in degree_bounds(d).splits:
                for n_inf in (0, 1, 2):
                    flags = [INF] * n_inf + [rand_rational(rng, -30, 30, 6) for _ in range(5 - n_inf)]
                    s = ParabolicStructure(bundle, flags)
                    space = solve_connection_space(s, CFG, rand_nonspecial_spectrum(rng, d=d))
                    if space is None:
                        continue
                    solved.add(bundle)
                    assert (space.dim_before_gauge, space.dim_mod_gauge) == oracle_gauge_dims(space)
        assert solved == {b for d in (-1, 0, 1, 2) for b in degree_bounds(d).splits}

    def test_zero_diagonal_rows(self):
        # every flag 0 leaves both diagonal-sum rows zero; this spectrum meets
        # the sums, so the space exists and the diagonal rows have rank 0
        third, fifth = Scalar.rational(1, 3), Scalar.rational(1, 5)
        nu = SpectrumRank2([(p, -fifth) for p in (third, -third, fifth, -fifth, sc(0))], 1)
        space = solve_connection_space(ParabolicStructure(B, [0] * 5), CFG, nu)
        assert (space.dim, space.dim_before_gauge, space.dim_mod_gauge) == (3, 5, 2)
        assert oracle_gauge_dims(space) == (5, 2)

    def test_pipeline_solves_once_and_reads_no_rank(self, monkeypatch):
        # solve -> triple -> validate -> limit -> fiber on one B and one B'
        # input: one solved space each, read off its closed form with no
        # elimination, whose gauge counts are not read, no rank, and no
        # second solve for the F0 fiber
        rng = random.Random(31)
        inputs = [
            (s, spectrum_deg1(rng), rand_nonspecial_weight(rng, total_below=1))
            for s in (finite_nonzero_structure(rng), bprime_generic_representative(CFG))
        ]
        calls = {"solve_affine": 0, "rank": 0, "space": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # every module that binds the kernel's solver or rank by name
        solve_affine = counted("solve_affine", _kernel.mat_solve_affine)
        rank = counted("rank", _kernel.mat_rank)
        for mod in (_kernel, connection, exactnum):
            monkeypatch.setattr(mod, "mat_solve_affine", solve_affine)
            if hasattr(mod, "mat_rank"):
                monkeypatch.setattr(mod, "mat_rank", rank)
        monkeypatch.setattr(
            connection, "solve_connection_space", counted("space", connection.solve_connection_space)
        )
        for s, nu, w in inputs:
            space = connection.solve_connection_space(s, CFG, nu)
            t = space.triple_at([1, 2])
            assert validate_triple(t)[0]
            res = higgslimit.cstar_limit(t, w)
            assert higgslimit.fiber_dimension(res.point, CFG, nu) == 2
        assert calls["rank"] == 0
        assert calls["space"] == 2
        assert calls["solve_affine"] == 0


class TestSolverAgainstRawSystem:
    def test_dimensions_agree(self):
        rng = random.Random(89)
        for trial in range(12):
            cfg = rand_config(rng)
            if trial % 3 == 2:
                s = bprime_generic_representative(cfg)
            else:
                n_inf = rng.choice([0, 0, 1, 2])
                from helpers import rand_structure

                s = rand_structure(rng, B, n_inf=n_inf)
            nu = rand_nonspecial_spectrum(rng, d=1)
            space = solve_connection_space(s, cfg, nu)
            raw = _raw_connection_system_dim(s, cfg, nu)
            if space is None:
                assert raw is None
            else:
                assert raw == space.dim


    def test_rows_match_pole_product_oracle(self):
        # every split of degrees -1..2 and the splits with d1 - d0 = 5, 6,
        # whose (12) loop in the oracle reaches below z^0; 0-3 infinite flags
        # and all flags at 0, where the diagonal rows vanish and no other row
        # stands in for the z^0 row of N12, on two configurations; then the
        # pivot patterns of _pivot_patterns on every split of degrees -1..2
        rng = random.Random(97)
        splits = [b for d in (-1, 0, 1, 2) for b in degree_bounds(d).splits]
        wide = [BundleSplitType(-2, 3), BundleSplitType(-3, 3)]
        solved = set()

        def check(s, cfg, nu):
            space = solve_connection_space(s, cfg, nu)
            got = None if space is None else (space.particular, space.basis, space.dim_before_gauge)
            assert got == oracle_solve_connection_space(s, cfg, nu), (s.bundle, s.flags)
            return space

        cfgs = (CFG, rand_config(rng))
        for cfg in cfgs:
            for bundle in splits + wide:
                flag_sets = [
                    [INF] * n_inf + [rand_rational(rng, -30, 30, 6) for _ in range(5 - n_inf)]
                    for n_inf in (0, 1, 2, 3)
                ]
                for flags in flag_sets + [[0] * 5]:
                    s = ParabolicStructure(bundle, flags)
                    if bundle in wide:
                        nu = _spectrum_without_n12(rng, s)
                    else:
                        nu = rand_nonspecial_spectrum(rng, d=bundle.degree)
                    if check(s, cfg, nu) is not None:
                        solved.add(bundle)
        assert solved == set(splits + wide)
        extra = random.Random(101)
        for cfg in cfgs:
            for bundle in splits:
                for flags in _pivot_patterns(extra, cfg).values():
                    check(ParabolicStructure(bundle, flags), cfg, rand_nonspecial_spectrum(extra, d=bundle.degree))


def _pivot_patterns(rng, cfg):
    """Flags for the pivot patterns of the closed-form solve, by name: the
    first three, or four, values on a line through the points and the rest
    off it, an indecomposable B structure whose (22) pivot moves past the
    third column; all five on that line, decomposable on B; one infinite
    flag at each position; one Gaussian flag value."""
    a, slope = rand_rational(rng, -5, 5, 3), rand_rational(rng, 1, 5, 3)
    line = [a + slope * z for z in cfg.z]
    off = [u + rand_rational(rng, 1, 9, 4) for u in line]
    gaussian = [rand_rational(rng, -30, 30, 6) for _ in range(5)]
    gaussian[rng.randrange(5)] += rand_rational(rng, 1, 9, 4) * Scalar(0, 1)
    patterns = {
        "first three on a line": line[:3] + off[3:],
        "first four on a line": line[:4] + off[4:],
        "on a line": line,
        "one Gaussian value": gaussian,
    }
    for j in range(5):
        patterns[f"infinite at {j}"] = [
            INF if i == j else rand_rational(rng, -30, 30, 6) for i in range(5)
        ]
    return patterns


def _spectrum_without_n12(rng, s):
    """A spectrum of degree ``d0 + d1`` whose residues with vanishing (12)
    entries meet the diagonal sums: the only solutions on a split with
    ``d1 - d0 >= 5``, where every coefficient of ``N12`` must vanish."""
    d0, d = s.bundle.d0, s.bundle.degree
    nu = [(rand_rational(rng, -6, 6, 9), rand_rational(rng, -6, 6, 9)) for _ in range(4)]
    # A11 is nu+ at a finite flag and nu- at the infinite one
    a11 = sum((m if u.is_infinity() else p for (p, m), u in zip(nu, s.flags)), sc(0))
    first = -sc(d0) - a11
    second = -sc(d) - sum((p + m for p, m in nu), first)
    nu.append((second, first) if s.flags[4].is_infinity() else (first, second))
    return SpectrumRank2(nu, d)


class TestValidateTriple:
    def _solved(self, rng):
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        return s, nu, space.connection_at([1, 2])

    def test_solved_point_valid(self):
        rng = random.Random(23)
        s, nu, conn = self._solved(rng)
        ok, violations = validate_triple(FlatTriple(s, nu, conn, CFG))
        assert ok, violations

    def test_perturbation_detected(self):
        rng = random.Random(29)
        s, nu, conn = self._solved(rng)
        mats = [list(map(list, m)) for m in conn.residues]
        mats[0][0][0] = mats[0][0][0] + sc(1)
        bad = LogConnection(conn.bundle, mats, conn.tail)
        ok, violations = validate_triple(FlatTriple(s, nu, bad, CFG))
        assert not ok
        assert any("trace" in msg for msg in violations)
        assert any("A11" in msg for msg in violations)

    def test_zero_numerator_meets_bounds_below_minus_one(self):
        # on the splits with d1 - d0 >= 5 the (12) bound is -2 or -3, and a
        # solved triple's (12) numerator is zero: it meets the bound, in the
        # validation on triples and in the one on Scalars
        rng = random.Random(37)
        checked = 0
        for bundle in (BundleSplitType(-2, 3), BundleSplitType(-3, 3)):
            for n_inf in (0, 1, 2, 3):
                s = ParabolicStructure(bundle, [INF] * n_inf + [rand_rational(rng, -30, 30, 6) for _ in range(5 - n_inf)])
                space = solve_connection_space(s, CFG, _spectrum_without_n12(rng, s))
                for params in ([0] * space.dim, [rand_rational(rng) for _ in range(space.dim)]):
                    t = space.triple_at(params)
                    assert t.connection.numerator(0, 1, CFG).is_zero()
                    assert validate_triple(t) == oracle_validate_triple(t) == (True, []), (s, params)
                    checked += 1
        assert checked == 16

    def test_swapped_eigenvalues_detected(self):
        rng = random.Random(31)
        s, nu, conn = self._solved(rng)
        swapped = SpectrumRank2([(m, p) for p, m in nu.nu], nu.d)
        ok, violations = validate_triple(FlatTriple(s, swapped, conn, CFG))
        assert not ok
        assert any("eigenline" in msg for msg in violations)


def _config_at_height(rng, h):
    # five distinct real points, numerators and denominators up to h
    while True:
        zs = [Scalar.rational(rng.randrange(-h, h + 1), rng.randrange(1, h + 1)) for _ in range(5)]
        if len(set(zs)) == 5:
            return MarkedConfiguration(zs)


class TestLagrangeRows:
    """The values ``-l_i(z_f)`` that a configuration keeps for the solve,
    against their rebuild on triples at every call."""

    def test_every_pattern_matches_the_rebuild(self):
        # every finite-flag pattern with at least J + 2 finite flags, J = b,
        # at heights 10, 10^6 and 10^30; the second call finds the same rows
        rng = random.Random(41)
        checked = 0
        for h in (10, 10**6, 10**30):
            cfg = _config_at_height(rng, h)
            assert cfg._lagrange is None
            for b in (1, 2, 3):
                for n in range(b + 2, 6):
                    for finite in combinations(range(5), n):
                        base, later = finite[: b + 1], finite[b + 1 :]
                        rows = cfg.lagrange_rows(base, later)
                        assert rows == oracle_lagrange_rows(cfg, base, later), (h, finite)
                        assert cfg.lagrange_rows(base, later) is rows
                        checked += 1
            assert len(cfg._lagrange) == 23
        assert checked == 3 * 23

    def test_first_solve_makes_the_slot_and_a_repeat_hits_it(self):
        # classify and is_stable leave the slot empty; the solve fills one
        # entry, and a repeated solve reads it and returns the same space
        cfg = MarkedConfiguration([0, 1, 2, 3, 4])
        s = ParabolicStructure(B, [INF, 1, 2, 3, 7])
        classify(s, cfg)
        is_stable(s, cfg, WeightVector([sc(1) / 10] * 4 + [sc(1) / 3]))
        assert cfg._lagrange is None
        nu = SpectrumRank2([(sc(1) / 4, -sc(1) / 4)] * 4 + [(sc(1) / 4, -sc(5) / 4)], 1)
        first = solve_connection_space(s, cfg, nu)
        key = ((1, 2), (3, 4))
        assert list(cfg._lagrange) == [key]
        rows = cfg._lagrange[key]
        second = solve_connection_space(s, cfg, nu)
        assert cfg._lagrange == {key: rows} and cfg._lagrange[key] is rows
        fresh = solve_connection_space(s, MarkedConfiguration([0, 1, 2, 3, 4]), nu)
        for space in (second, fresh):
            assert (space.particular, space.basis) == (first.particular, first.basis)

    def test_configurations_keep_their_own_rows(self):
        # two configurations at height 10^30 solved in turn, each solve
        # against the Scalar oracle: neither reads the other's rows, and an
        # equal configuration starts empty
        rng = random.Random(43)
        cfgs = [_config_at_height(rng, 10**30) for _ in range(2)]
        s = ParabolicStructure(B, [rand_rational(rng, -30, 30, 6) for _ in range(5)])
        nu = spectrum_deg1(rng)
        for cfg in (*cfgs, *cfgs):
            _check_against_scalar_oracles(s, cfg, nu, [1, 2])
        key = ((0, 1), (2, 3, 4))
        assert cfgs[0]._lagrange is not cfgs[1]._lagrange
        assert cfgs[0]._lagrange[key] != cfgs[1]._lagrange[key]
        for cfg in cfgs:
            assert cfg._lagrange == {key: oracle_lagrange_rows(cfg, *key)}
        twin = MarkedConfiguration(cfgs[0].z)
        assert twin == cfgs[0] and twin._lagrange is None


def _gaussian(rng):
    # a Gaussian rational with a nonzero imaginary part
    a, b = rng.randrange(-30, 31), rng.choice([-3, -1, 2, 5])
    return Scalar.gaussian(a, rng.randrange(1, 6), b, rng.randrange(1, 4))


class TestValidationOnIntegers:
    """``validate_triple`` on cleared integers against the validation on
    normalized triples and on Scalars: the same violations in the same
    order."""

    def test_perturbed_triples(self):
        # solved triples on B, B', (0, 0) and (-1, 1) with real and Gaussian
        # flags and spectra (a zero flag at point 2, an infinite one at
        # point 5 off B'); each of the 20 residue entries moved by 1, i and
        # 10^-30, and each point moved along its free direction D_i, which
        # shifts the diagonal sums or, at the zero flag and the infinite
        # one, the (12) or (21) entry alone; the Gaussian base triples'
        # imaginary diagonal parts cancel only in their sums
        rng = random.Random(47)
        deltas = (sc(1), Scalar.gaussian(0, 1, 1, 1), Scalar.rational(1, 10**30))
        fired, checked, invalid, imaginary = set(), 0, 0, 0
        for bundle in (B, BPRIME, BundleSplitType(0, 0), BundleSplitType(-1, 1)):
            for draw in (rand_rational, _gaussian):
                cfg = rand_mixed_config(rng)
                while True:
                    flags = [draw(rng), 0] + [draw(rng) for _ in range(3)]
                    if bundle != BPRIME:
                        flags[4] = INF
                    nu = [(draw(rng), draw(rng)) for _ in range(5)]
                    rest = sum((p + m for p, m in nu[:4]), nu[4][0])
                    nu[4] = (nu[4][0], -sc(bundle.degree) - rest)
                    s, nu = ParabolicStructure(bundle, flags), SpectrumRank2(nu, bundle.degree)
                    space = solve_connection_space(s, cfg, nu)
                    if space is not None:
                        break
                t = space.triple_at([draw(rng) for _ in range(space.dim)])
                assert validate_triple(t) == (True, [])
                conn = t.connection
                imaginary += any(m[r][r][1] for m in conn._res for r in (0, 1))
                moved = []
                entries = ((0, 0), (0, 1), (1, 0), (1, 1))
                for i, (r, c), delta in product(range(5), entries, deltas):
                    mats = [list(map(list, m)) for m in conn.residues]
                    mats[i][r][c] = mats[i][r][c] + delta
                    moved.append(mats)
                for i, (_, D) in enumerate(space.parts):
                    mats = [list(map(list, m)) for m in conn.residues]
                    mats[i] = [
                        [a + Scalar._wrap(d) for a, d in zip(row, drow)]
                        for row, drow in zip(mats[i], D)
                    ]
                    moved.append(mats)
                for mats in moved:
                    bad = FlatTriple(s, nu, LogConnection(bundle, mats, conn.tail), cfg)
                    got = validate_triple(bad)
                    assert got == oracle_validate_on_triples(bad) == oracle_validate_triple(bad)
                    invalid += not got[0]
                    for msg in got[1]:
                        head = msg.split(" at point")[0].split(" residues")[0]
                        fired.add(head.split(" degree")[0])
                    checked += 1
        # the moves that leave a triple valid: the (21) entry at the
        # infinite flag on B and on (-1, 1), whose (21) bound is 4 or more
        assert (checked, invalid) == (8 * 65, 8 * 65 - 2 * 2 * 4)
        assert imaginary >= 4
        assert fired == {
            "trace",
            "determinant",
            "flag",
            "sum of A11",
            "sum of A22",
            "(12) numerator",
            "(21) numerator",
        }, fired


def _triples(vec):
    return [x._t for x in vec]


def _check_against_scalar_oracles(s, cfg, nu, params):
    """The solved space, the triple at ``params`` and its validation against
    the Scalar solve, triple and validation; the triple, or None when the
    space is empty."""
    space = solve_connection_space(s, cfg, nu)
    solved = oracle_connection_solve(s, cfg, nu)
    if space is None:
        assert solved is None
        return None
    particular, basis, parts = solved
    assert space.particular == _triples(particular)
    assert space.basis == [_triples(vec) for vec in basis]
    assert space.parts == [
        tuple(tuple(tuple(x._t for x in row) for row in mat) for mat in part) for part in parts
    ]
    t = space.triple_at(params)
    expected = oracle_triple_at(s, cfg, nu, solved, params)
    assert t.connection == expected.connection
    assert t.to_json() == expected.to_json()
    assert validate_triple(t) == oracle_validate_triple(t) == oracle_validate_triple(expected)
    return t


class TestScalarOracles:
    """The connection pipeline on triples against the Scalar solve through
    ``Mat.solve_affine``, the Scalar triple and the Scalar validation."""

    def test_every_split(self):
        # the splits and flags of TestGaugeCounts, at the particular solution,
        # each unit vector and a random point
        rng = random.Random(29)
        solved = set()
        for d in (-1, 0, 1, 2):
            for bundle in degree_bounds(d).splits:
                for n_inf in (0, 1, 2):
                    flags = [INF] * n_inf + [rand_rational(rng, -30, 30, 6) for _ in range(5 - n_inf)]
                    s = ParabolicStructure(bundle, flags)
                    nu = rand_nonspecial_spectrum(rng, d=d)
                    space = solve_connection_space(s, CFG, nu)
                    if space is None:
                        assert _check_against_scalar_oracles(s, CFG, nu, []) is None
                        continue
                    solved.add(bundle)
                    points = [[0] * space.dim] + [
                        [int(i == k) for i in range(space.dim)] for k in range(space.dim)
                    ]
                    points.append([rand_rational(rng, -4, 4, 3) for _ in range(space.dim)])
                    for params in points:
                        assert validate_triple(_check_against_scalar_oracles(s, CFG, nu, params))[0]
        assert solved == {b for d in (-1, 0, 1, 2) for b in degree_bounds(d).splits}
        # the pivot patterns on every split, on CFG and a random configuration,
        # at the particular solution and a random point; on B the flags on a
        # line have no connection, and the first three (four) on a line leave
        # the third (and fourth) column free, so the particular solution
        # vanishes there and not at the (22) pivot after it
        extra = random.Random(103)
        for cfg in (CFG, rand_config(extra)):
            for d in (-1, 0, 1, 2):
                for bundle in degree_bounds(d).splits:
                    for name, flags in _pivot_patterns(extra, cfg).items():
                        s = ParabolicStructure(bundle, flags)
                        nu = rand_nonspecial_spectrum(extra, d=d)
                        space = solve_connection_space(s, cfg, nu)
                        if space is None:
                            assert _check_against_scalar_oracles(s, cfg, nu, []) is None
                            continue
                        assert bundle != B or name != "on a line"
                        if bundle == B and name.startswith("first"):
                            pivot = 3 if name == "first three on a line" else 4
                            assert all(x == (0, 0, 1) for x in space.particular[2:pivot])
                            assert space.particular[pivot] != (0, 0, 1), name
                        params = [rand_rational(extra, -4, 4, 3) for _ in range(space.dim)]
                        for point in ([0] * space.dim, params):
                            assert validate_triple(_check_against_scalar_oracles(s, cfg, nu, point))[0]

    def test_criterion_09_sample(self):
        # the inputs of acceptance criterion 09, drawn in its order
        rng = random.Random(9009)
        for done in range(100):
            if done % 4 == 3:
                s = bprime_generic_representative(CFG)
            elif done % 5 == 1:
                s = rand_ui_indecomposable(rng, CFG, done % 5)
            else:
                s = rand_u2_indecomposable(rng, CFG)
            nu = rand_nonspecial_spectrum(rng, d=1)
            params = [rand_rational(rng, -4, 4, 2) for _ in range(2)]
            assert validate_triple(_check_against_scalar_oracles(s, CFG, nu, params))[0]
            # the weight and gauge parameters the criterion draws next
            rand_nonspecial_weight(rng, total_below=1)
            if done % 10 == 0:
                for _ in range(2 if done % 4 != 3 else 4):
                    rand_rational(rng, -3, 3, 2)

    def test_residue_numerator_degree_at_most_four(self):
        # a residue numerator sums one pole product of degree 4 per point, so
        # validate_triple skips every bound of 4 or more: random Gaussian
        # residues on two configurations, against the Scalar rebuild
        rng = random.Random(41)
        for cfg in (CFG, rand_config(rng)):
            for _ in range(10):
                residues = [
                    [[rand_rational(rng) + rand_rational(rng) * Scalar(0, 1) for _ in range(2)] for _ in range(2)]
                    for _ in range(5)
                ]
                conn = LogConnection(B, residues)
                for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    num = conn._residue_numerator(r, c, cfg)
                    assert len(num) == 5
                    rebuilt = oracle_cleared_numerator(conn, r, c, cfg)
                    assert tuple(Scalar._wrap(x) for x in num) == rebuilt.coeffs
                    assert rebuilt.degree() <= 4

    def test_trace_and_eigenline_imply_determinant(self):
        # a nu+ eigenline makes nu+ an eigenvalue and the trace nu+ + nu- then
        # makes nu- the other, so validate_triple computes the determinant
        # only where one of the two checks fails: every residue with entries
        # in {-1, 0, 1} at the first point, every flag in {0, 1, i, inf} and
        # every eigenvalue pair in {-1, 0, 1}^2 there; where the Scalar
        # validation finds no trace and no flag violation at the point it
        # finds no determinant violation, and validate_triple agrees with it
        units = (sc(-1), sc(0), sc(1))
        rest = [((sc(0), sc(0)),) * 2] * 4
        holds = fails = 0
        for flag in (0, 1, Scalar(0, 1), INF):
            s = ParabolicStructure(B, [flag, 1, 2, 3, 5])
            for p, m in product(units, repeat=2):
                nu = SpectrumRank2([(p, m), (sc(0), sc(0)), (sc(0), sc(0)), (sc(0), sc(0)), (-1 - p - m, sc(0))], 1)
                for a11, a12, a21, a22 in product(units, repeat=4):
                    conn = LogConnection(B, [((a11, a12), (a21, a22))] + rest)
                    t = FlatTriple(s, nu, conn, CFG)
                    ok, violations = oracle_validate_triple(t)
                    assert validate_triple(t) == (ok, violations)
                    at_point = {msg.split(" at point 1")[0] for msg in violations if " at point 1 " in msg}
                    if not at_point & {"trace", "flag"}:
                        assert "determinant" not in at_point
                        holds += 1
                    fails += "determinant" in at_point
        assert holds > 50 and fails > 500, (holds, fails)

    def test_every_violation_message(self):
        # solved triples on every split of degrees -1..2, each residue entry
        # moved at each point (moving the free entry at the infinite flag
        # can leave the triple valid), the eigenvalues swapped, the bundle of the
        # structure changed and the spectrum degree shifted: the violations
        # and their order equal the Scalar validation's, and every message
        # fires
        rng = random.Random(37)
        fired = set()
        for d in (-1, 0, 1, 2):
            for bundle in degree_bounds(d).splits:
                s = ParabolicStructure(bundle, [INF] + [rand_rational(rng, -30, 30, 6) for _ in range(4)])
                nu = rand_nonspecial_spectrum(rng, d=d)
                space = solve_connection_space(s, CFG, nu)
                if space is None:
                    continue
                t = space.triple_at([rand_rational(rng, -4, 4, 3) for _ in range(space.dim)])
                conn = t.connection
                bad = []
                for i in range(5):
                    for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                        mats = [list(map(list, m)) for m in conn.residues]
                        mats[i][r][c] = mats[i][r][c] + rand_rational(rng, 1, 9, 4)
                        moved = LogConnection(conn.bundle, mats, conn.tail)
                        bad.append(FlatTriple(s, nu, moved, CFG))
                bad.append(FlatTriple(s, SpectrumRank2([(m, p) for p, m in nu.nu], d), conn, CFG))
                other = BundleSplitType(bundle.d0 - 1, bundle.d1 + 1)
                bad.append(FlatTriple(ParabolicStructure(other, s.flags), nu, conn, CFG))
                shifted = [*nu.nu[:4], (nu.nu[4][0], nu.nu[4][1] - 1)]
                bad.append(FlatTriple(s, SpectrumRank2(shifted, d + 1), conn, CFG))
                for b in bad:
                    ok, violations = validate_triple(b)
                    assert (ok, violations) == oracle_validate_triple(b)
                    fired.update(msg.split(" at point")[0].split(" residues")[0] for msg in violations)
        assert {
            "structure and connection bundles differ",
            "trace",
            "determinant",
            "flag",
            "sum of A11",
            "sum of A22",
        } <= fired, fired
        assert any(m.startswith("spectrum degree") for m in fired), fired
        assert any(m.startswith("(12) numerator degree") for m in fired), fired
        assert any(m.startswith("(21) numerator degree") for m in fired), fired


class TestIrreducibilityScreen:
    def test_quarter_spectrum_irreducible(self):
        nu = SpectrumRank2([(sc("1/4"), sc("-1/4"))] * 5, 0)
        s = ParabolicStructure(BundleSplitType(0, 0), [1, 2, 3, 5, 7])
        conn_space = solve_connection_space(s, CFG, nu)
        t = conn_space.triple_at([0] * conn_space.dim)
        verdict, patterns = irreducibility_screen(t)
        assert verdict == "irreducible" and not patterns

    def test_integer_spectrum_unknown(self):
        nu = SpectrumRank2([(sc(0), sc(0))] * 5, 0)
        conn = LogConnection(
            BundleSplitType(0, 0),
            [((0, 0), (0, 0))] * 5,
        )
        s = ParabolicStructure(BundleSplitType(0, 0), [0, 0, 0, 0, 0])
        t = FlatTriple(s, nu, conn, CFG)
        verdict, patterns = irreducibility_screen(t)
        assert verdict == "unknown"
        assert ("+++++", 0) in patterns

    def test_screen_backed_by_exhaustive_line_search(self):
        # desk-scale oracle: an invariant line restricts to a residue
        # eigenline at every pole, so candidates per sign pattern and degree
        # come from a linear system; the screen's "irreducible" verdict must
        # leave every candidate non-invariant
        rng = random.Random(97)
        from itertools import product as iproduct

        from paramod.exactnum import Mat, sc

        for _ in range(10):
            s = finite_nonzero_structure(rng)
            nu = spectrum_deg1(rng)
            space = solve_connection_space(s, CFG, nu)
            t = space.triple_at([rand_rational(rng, -3, 3, 2) for _ in range(2)])
            assert irreducibility_screen(t)[0] == "irreducible"
            bounds = degree_bounds(t.spectrum.d)
            for k in range(bounds.lo, bounds.hi + 1):
                dq = t.connection.bundle.d0 - k
                dr = t.connection.bundle.d1 - k
                nq, nr = max(dq + 1, 0), max(dr + 1, 0)
                if nq + nr == 0:
                    continue
                for sigma in iproduct((0, 1), repeat=5):
                    rows = []
                    for i in range(5):
                        zi = CFG.z[i]
                        ((a11, a12), (a21, a22)) = t.connection.residues[i]
                        ev = t.spectrum.nu[i][sigma[i]]
                        # eigenline of the residue: (a12, ev - a11) direction
                        kappa, lam = a12, ev - a11
                        if kappa.is_zero() and lam.is_zero():
                            kappa, lam = ev - a22, a21
                        # [q(z_i) : r(z_i)] proportional to [kappa : lam]
                        row = [lam * zi**p for p in range(nq)] + [
                            -kappa * zi**p for p in range(nr)
                        ]
                        rows.append(row)
                    basis = Mat(rows).nullspace()
                    assert len(basis) <= 1
                    for vec in basis:
                        q = Poly(vec[:nq], bound=dq) if nq else None
                        r = Poly(vec[nq:], bound=dr) if nr else None
                        if (q is None or q.is_zero()) and (r is None or r.is_zero()):
                            continue
                        assert not verify_invariant_line(t, q, r)

    def test_elm_preserves_screen(self):
        rng = random.Random(37)
        for _ in range(10):
            nu = rand_nonspecial_spectrum(rng, d=1)
            out = elm_spectrum(nu, rng.randrange(5))
            s = ParabolicStructure(BundleSplitType(0, 0), [1, 2, 3, 5, 7])
            space = solve_connection_space(s, CFG, out)
            if space is None:
                continue
            t = space.triple_at([0] * space.dim)
            assert irreducibility_screen(t)[0] == "irreducible"


def diagonal_triple():
    """Flags on the lower summand, diagonal residues: both factors are
    connection-invariant."""
    plus = [sc("1/3"), sc("-1/3"), sc("1/2"), sc("-1/2"), sc(0)]
    minus = [sc("-1/5")] * 5
    nu = SpectrumRank2(list(zip(plus, minus)), 1)
    mats = [((p, 0), (0, m)) for p, m in zip(plus, minus)]
    conn = LogConnection(B, mats)
    s = ParabolicStructure(B, [0, 0, 0, 0, 0])
    return FlatTriple(s, nu, conn, CFG)


class TestInvariantLine:
    def test_diagonal_factors_invariant(self):
        t = diagonal_triple()
        ok, violations = validate_triple(t)
        assert ok, violations
        assert verify_invariant_line(t, Poly([1], bound=1), Poly.zero(2))
        assert verify_invariant_line(t, Poly.zero(1), Poly([1], bound=2))

    def test_generic_solved_triple_has_no_invariant_line(self):
        rng = random.Random(41)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, 3])
        for _ in range(10):
            q = Poly([rand_rational(rng, -5, 5, 3) for _ in range(2)], bound=1)
            r = Poly([rand_rational(rng, -5, 5, 3) for _ in range(3)], bound=2)
            if q.is_zero() and r.is_zero():
                continue
            assert not verify_invariant_line(t, q, r)

    def test_constructed_invariant_section(self):
        t = gauge_transform(diagonal_triple(), [1, 0, sc("2/3")])
        ok, violations = validate_triple(t)
        assert ok, violations
        assert verify_invariant_line(t, Poly([1], bound=1), Poly([sc("2/3")], bound=2))


class TestElmTriple:
    def test_validates_and_degree_drops(self):
        rng = random.Random(43)
        for j in range(5):
            s = finite_nonzero_structure(rng)
            nu = spectrum_deg1(rng)
            space = solve_connection_space(s, CFG, nu)
            t = space.triple_at([1, 2])
            out = elm_triple(t, j)
            ok, violations = validate_triple(out)
            assert ok, violations
            assert out.connection.bundle.degree == 0
            assert out.spectrum == elm_spectrum(nu, j)
            assert out.structure.flags[j].is_infinity()

    def test_infinity_flag_case(self):
        rng = random.Random(47)
        s = ParabolicStructure(B, [INF, 3, 5, 7, 11])
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([2] * space.dim)
        out = elm_triple(t, 0)
        ok, violations = validate_triple(out)
        assert ok, violations
        assert out.connection.bundle == BundleSplitType(-1, 1)
        assert out.structure.flags[0].value.is_zero()

    def test_double_elm_is_twist(self):
        rng = random.Random(53)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, 1])
        j = 2
        out = elm_triple(elm_triple(t, j), j)
        ok, violations = validate_triple(out)
        assert ok, violations
        assert out.spectrum.d == nu.d - 2
        p, m = nu.nu[j]
        assert out.spectrum.nu[j] == (p + sc(1), m + sc(1))
        for i in range(5):
            if i != j:
                assert out.spectrum.nu[i] == nu.nu[i]

    def test_double_pole_rejected(self):
        # a nonzero (12) residue at the infinite flag z_0: the frame
        # ((z - z_0) e, f) divides the (12) entry by z - z_0
        rng = random.Random(57)
        s = ParabolicStructure(B, [INF, 3, 5, 7, 11])
        conn = LogConnection(B, [((0, 1 if i == 0 else 0), (0, 0)) for i in range(5)])
        t = FlatTriple(s, spectrum_deg1(rng), conn, CFG)
        with pytest.raises(ConnectionError, match="double pole"):
            elm_triple(t, 0)

    def test_point_index_outside_range_rejected(self):
        rng = random.Random(59)
        space = solve_connection_space(finite_nonzero_structure(rng), CFG, spectrum_deg1(rng))
        t = space.triple_at([1, 2])
        for j in (-1, -5, 5):
            with pytest.raises(ExactError):
                elm_triple(t, j)


class TestElmTripleBprime:
    def test_finite_flag_on_bprime(self):
        rng = random.Random(67)
        s = bprime_generic_representative(CFG)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, sc("1/2")])
        for j in (0, 3):
            out = elm_triple(t, j)
            ok, violations = validate_triple(out)
            assert ok, violations
            assert out.connection.bundle == BundleSplitType(-1, 1)
            assert out.spectrum == elm_spectrum(nu, j)
            # the new tail bound shrinks with the split gap
            b = out.connection.bundle
            assert out.connection.tail.degree() <= b.d1 - b.d0 - 2

    def test_zero_value_flag(self):
        rng = random.Random(71)
        s = ParabolicStructure(B, [0, 3, 5, 7, 11])
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([2] * space.dim)
        out = elm_triple(t, 0)
        ok, violations = validate_triple(out)
        assert ok, violations
        assert out.structure.flags[0].is_infinity()

    def test_chain_through_all_points(self):
        rng = random.Random(73)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, 1])
        for j in range(4):
            t = elm_triple(t, j)
            ok, violations = validate_triple(t)
            assert ok, violations
        assert t.spectrum.d == 1 - 4


class TestTraceIdentity:
    def test_residue_trace_sum(self):
        rng = random.Random(79)
        for bundle_pick in (0, 1):
            s = (
                finite_nonzero_structure(rng)
                if bundle_pick == 0
                else bprime_generic_representative(CFG)
            )
            nu = spectrum_deg1(rng)
            space = solve_connection_space(s, CFG, nu)
            for conn in basis_connections(space):
                total = sc(0)
                for i in range(5):
                    ((a11, _), (_, a22)) = conn.residues[i]
                    total = total + a11 + a22
                assert total == sc(-(conn.bundle.d0 + conn.bundle.d1))


class TestJsonRoundTrips:
    def test_triple_roundtrip(self):
        rng = random.Random(83)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, sc("2/3")])
        data = t.to_json()
        back = FlatTriple(
            ParabolicStructure.from_json(data["structure"]),
            SpectrumRank2.from_json(data["spectrum"]),
            LogConnection.from_json(data["connection"]),
            MarkedConfiguration.from_json(data["cfg"]),
        )
        assert back.structure == t.structure
        assert back.spectrum == t.spectrum
        assert back.connection == t.connection
        ok, violations = validate_triple(back)
        assert ok, violations


class TestGaugeTransform:
    def test_validates(self):
        rng = random.Random(59)
        s = finite_nonzero_structure(rng)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, 5])
        out = gauge_transform(t, [sc("2/3"), 1, sc("-1/2")])
        ok, violations = validate_triple(out)
        assert ok, violations
        assert out.spectrum == t.spectrum

    def test_polynomial_part_rejected(self):
        # the (12) residue 1 at z_1 alone gives N12 = prod_{j != 1} (z - z_j)
        # of degree 4, above the bound 2 on B: the shift b*z + c with b != 0
        # lifts N11 - shift * N12 to degree 5, a polynomial part in (11)
        rng = random.Random(63)
        conn = LogConnection(B, [((0, 1 if i == 1 else 0), (0, 0)) for i in range(5)])
        t = FlatTriple(finite_nonzero_structure(rng), spectrum_deg1(rng), conn, CFG)
        with pytest.raises(ConnectionError, match=r"entry \(0, 0\) acquired a polynomial part"):
            gauge_transform(t, [1, 1, 0])
        # a constant shift keeps every numerator below degree 5
        gauge_transform(t, [1, 0, 2])

    def test_bprime_gauge(self):
        rng = random.Random(61)
        s = bprime_generic_representative(CFG)
        nu = spectrum_deg1(rng)
        space = solve_connection_space(s, CFG, nu)
        t = space.triple_at([1, 2])
        out = gauge_transform(t, [2, 1, 0, sc("1/3"), 5])
        ok, violations = validate_triple(out)
        assert ok, violations


def _outcome(fn, *args):
    # the JSON of the result, or the type and message of the error raised
    try:
        return fn(*args).to_json()
    except ValueError as e:
        return (type(e).__name__, str(e))


def _bprime_triple_infinite_at(rng, cfg, j):
    """A valid B' triple with the infinite flag at z_j alone.  Such a
    structure is decomposable, and the (12) numerator, a constant with a
    zero residue at z_j, vanishes; so the residues are the lower-triangular
    ``C_i``, valid when the upper diagonal sum ``sum_{i != j} nu+_i + nu-_j``
    is 1, and the tail is free."""
    flags = [INF if i == j else rand_rational(rng, -30, 30, 6) for i in range(5)]
    nu = [(rand_rational(rng, -6, 6, 9), rand_rational(rng, -6, 6, 9)) for _ in range(5)]
    k = (j + 1) % 5
    upper = sum((p for i, (p, _) in enumerate(nu) if i not in (j, k)), nu[j][1])
    nu[k] = (1 - upper, nu[k][1])
    total = sum((p + m for p, m in nu), sc(0))
    nu[k] = (nu[k][0], nu[k][1] - total - 1)
    space = solve_connection_space(ParabolicStructure(BPRIME, flags), cfg, SpectrumRank2(nu, 1))
    return space.triple_at([rand_rational(rng, -5, 5, 3) for _ in range(space.dim)])


class TestFrameChangesMatchOracles:
    """``elm_triple`` and ``gauge_transform`` on residue triples give the
    JSON of the Scalar numerator oracles, and raise the same errors."""

    def _valid_triples(self, rng, cfg):
        # B with a finite and with an infinite flag at every j, and B' with
        # every flag finite and with the infinite flag at every j
        for j in range(5):
            for bundle in (B, BPRIME):
                s = finite_nonzero_structure(rng, bundle)
                space = solve_connection_space(s, cfg, spectrum_deg1(rng))
                yield space.triple_at([rand_rational(rng, -5, 5, 3) for _ in range(space.dim)])
            flags = [INF if i == j else rand_rational(rng, -30, 30, 6) for i in range(5)]
            space = solve_connection_space(ParabolicStructure(B, flags), cfg, spectrum_deg1(rng))
            yield space.triple_at([rand_rational(rng, -5, 5, 3) for _ in range(space.dim)])
            yield _bprime_triple_infinite_at(rng, cfg, j)

    def test_valid_b_and_bprime_triples(self):
        rng = random.Random(89)
        swaps = tails = infinite = 0
        for cfg in (CFG, rand_config(rng)):
            for t in self._valid_triples(rng, cfg):
                assert validate_triple(t)[0]
                tails += not t.connection.tail.is_zero()
                for j in range(5):
                    infinite += t.structure.flags[j].is_infinity()
                    out = elm_triple(t, j)
                    assert out.to_json() == oracle_elm_triple(t, j).to_json()
                    # a second transformation at every point: after a finite
                    # flag on B the split is even, and a finite flag there
                    # swaps the summands
                    for k in range(5):
                        even = out.connection.bundle.d0 == out.connection.bundle.d1
                        swaps += even and not out.structure.flags[k].is_infinity()
                        assert elm_triple(out, k).to_json() == oracle_elm_triple(out, k).to_json()
                for _ in range(3):
                    n = 3 if t.connection.bundle == B else 5
                    params = [Scalar.rational(rng.choice([1, 2, -3]), rng.choice([1, 2]))]
                    params += [rand_rational(rng, -3, 3, 2) for _ in range(n - 1)]
                    out = gauge_transform(t, params)
                    assert out.to_json() == oracle_gauge_transform(t, params).to_json()
        assert swaps > 100 and tails > 10 and infinite > 10, (swaps, tails, infinite)

    def test_invalid_triples_raise_the_same_errors(self):
        # arbitrary residues and tails on B, B' and the even split: the
        # double pole, a polynomial part outside (21) and a tail above its
        # bound all raise, each with the oracle's error
        rng = random.Random(97)
        errors = set()
        for _ in range(60):
            bundle = rng.choice([B, BPRIME, BundleSplitType(0, 0)])
            flags = [INF if rng.random() < 0.3 else rand_rational(rng, -9, 9, 3) for _ in range(5)]
            residues = [
                ((rand_rational(rng, -9, 9, 4), rand_rational(rng, -9, 9, 4) * rng.randrange(2)),
                 (rand_rational(rng, -9, 9, 4), rand_rational(rng, -9, 9, 4)))
                for _ in range(5)
            ]
            bound = bundle.d1 - bundle.d0 - 2
            tail = Poly([rand_rational(rng) for _ in range(bound + 1)]) if bound >= 0 else None
            conn = LogConnection(bundle, residues, tail)
            nu = rand_nonspecial_spectrum(rng, d=bundle.degree)
            t = FlatTriple(ParabolicStructure(bundle, flags), nu, conn, CFG)
            for j in range(5):
                got = _outcome(elm_triple, t, j)
                assert got == _outcome(oracle_elm_triple, t, j)
                errors.add(got if isinstance(got, tuple) else None)
            params = [rng.choice([0, 1, 2])]
            params += [rand_rational(rng, -3, 3, 2) for _ in range(4 if bundle == BPRIME else 2)]
            got = _outcome(gauge_transform, t, params)
            assert got == _outcome(oracle_gauge_transform, t, params)
            errors.add(got if isinstance(got, tuple) else None)
        assert {
            ("ConnectionError", "division would create a double pole"),
            ("ConnectionError", "entry (0, 0) acquired a polynomial part"),
            ("ConnectionError", "entry (0, 1) acquired a polynomial part"),
            ("ConnectionError", "tail degree 0 exceeds bound -1"),
        } <= errors, errors


def _text(fn, *args):
    # the JSON text of the result, or the type and message of the error raised
    try:
        return json.dumps(fn(*args).to_json())
    except ValueError as e:
        return (type(e).__name__, str(e))


def _at_height(rng, height):
    # a rational whose numerator and denominator reach ``height``
    return Scalar.rational(rng.randrange(-height, height + 1), rng.randrange(1, height + 1))


class TestFrameChangesOnTriples:
    """``act``, ``gauge_transform``, ``elm_triple``, ``elm_spectrum`` and the
    C*-limit's point move flags and form spectra on ``_kernel`` triples; the
    Scalar paths of ``tests/helpers.py`` are their oracles, compared byte for
    byte on ``to_json()``, and the errors keep their type and text."""

    HEIGHTS = (None, 10**6, 10**30)
    PATTERNS = [()] + [(i,) for i in range(5)] + list(combinations(range(5), 2))

    @staticmethod
    def _config(rng, height):
        while height is not None:
            zs = [_at_height(rng, height) for _ in range(5)]
            if len(set(zs)) == 5:
                return MarkedConfiguration(zs)
        return CFG

    @staticmethod
    def _value(rng, height, gaussian):
        if height is None:
            return rand_gaussian(rng) if gaussian else rand_rational(rng, -9, 9, 4)
        im = _at_height(rng, height) if gaussian else sc(0)
        return _at_height(rng, height) + im * Scalar(0, 1)

    def _spectrum(self, rng, height, gaussian, inf=None):
        """A degree-1 spectrum with the Fuchs relation repaired at the last
        slot; with ``inf``, one whose B' structure with the infinite flags
        ``inf`` is solvable: the (11) diagonal sum of the lower-triangular
        parts, ``nu+`` at a finite flag and ``nu-`` at an infinite one, is 1."""
        while True:
            nu = [(self._value(rng, height, gaussian), self._value(rng, height, gaussian)) for _ in range(5)]
            k = next(i for i in range(5) if inf is None or i not in inf)
            if inf is not None:
                upper = sum((m if i in inf else p for i, (p, m) in enumerate(nu) if i != k), sc(0))
                nu[k] = (1 - upper, nu[k][1])
            total = sum((p + m for p, m in nu), sc(0))
            nu[k] = (nu[k][0], nu[k][1] - total - 1)
            spec = SpectrumRank2(nu, 1)
            if inf is not None or all(spec.genericity()):
                return spec

    def _triples(self, rng):
        """Solved B and B' triples with 0-2 infinite flags at every position,
        real or Gaussian flags and spectra, on configurations at heights
        ~10, 10^6 and 10^30."""
        for height in self.HEIGHTS:
            cfg = self._config(rng, height)
            for inf in self.PATTERNS:
                gaussian = rng.random() < 0.4
                flags = [INF if i in inf else self._value(rng, height, gaussian) for i in range(5)]
                for bundle in (B, BPRIME):
                    nu = self._spectrum(rng, height, gaussian, inf if bundle == BPRIME and inf else None)
                    space = solve_connection_space(ParabolicStructure(bundle, flags), cfg, nu)
                    if space is not None:
                        params = [self._value(rng, height, False) for _ in range(space.dim)]
                        yield height, space.triple_at(params)

    def test_match_scalar_oracles(self):
        rng = random.Random(101)
        seen, limits = set(), 0
        for height, t in self._triples(rng):
            bundle, cfg = t.connection.bundle, t.cfg
            n_inf = len(t.structure.infinity_indices())
            seen.add((bundle, n_inf, height))
            for j in range(5):
                assert _text(elm_triple, t, j) == _text(oracle_elm_triple, t, j)
                assert _text(elm_spectrum, t.spectrum, j) == _text(oracle_elm_spectrum, t.spectrum, j)
            n = 3 if bundle == B else 5
            params = [Scalar.rational(rng.choice([1, 2, -3]), rng.choice([1, 2]))]
            params += [self._value(rng, height, rng.random() < 0.3) for _ in range(n - 1)]
            assert _text(act, bundle, params, t.structure, cfg) == _text(
                oracle_act, bundle, params, t.structure, cfg
            )
            moved = gauge_transform(t, params)
            assert json.dumps(moved.to_json()) == _text(oracle_gauge_transform, t, params)
            w = rand_nonspecial_weight(rng, total_below=1)
            for triple in (t, moved):
                try:
                    res = higgslimit.cstar_limit(triple, w)
                except ValueError:
                    continue
                limits += 1
                oracle = oracle_point_json(oracle_limit_point(res.higgs), cfg)
                assert json.dumps(res.point.to_json(cfg)) == json.dumps(oracle)
                if res.point.theta is not None:
                    # a line datum is theta normalized, with no marked zero
                    assert res.point.theta == oracle_normalize_projective(res.higgs.theta.coeffs)
        assert {(B, k, h) for k in range(3) for h in self.HEIGHTS} <= seen, seen
        assert {(BPRIME, k, h) for k in range(3) for h in self.HEIGHTS} <= seen, seen
        assert limits > 60, limits

    def test_point_coordinates_match_scalar_oracles(self):
        # the zero pairs, second zeros and projective normalizations of the
        # limit points, on quadratics with split, double, dropped and
        # irrational zeros at every height
        rng = random.Random(109)
        split = 0
        for height in self.HEIGHTS:
            for _ in range(40):
                r, s = (self._value(rng, height, rng.random() < 0.4) for _ in range(2))
                lead = self._value(rng, height, False)
                shape = rng.choice(["split", "double", "linear", "constant", "any"])
                if shape == "any":
                    theta = Poly([self._value(rng, height, rng.random() < 0.4) for _ in range(3)])
                elif shape == "constant":
                    theta = Poly([lead, 0, 0])
                elif shape == "linear":
                    theta = Poly([-lead * r, lead, 0])
                else:
                    s = r if shape == "double" else s
                    theta = Poly([lead * r * s, -lead * (r + s), lead])
                if theta.is_zero():
                    continue
                roots = quadratic_roots(theta)
                assert roots == oracle_quadratic_roots(theta)
                split += roots is not None and roots[0] != roots[1]
                coords = [sc(0)] * rng.randrange(3) + list(theta.coeffs)
                assert _normalize_projective(coords) == oracle_normalize_projective(coords)
                if theta.degree() == 2:
                    assert _other_zero(theta, r) == oracle_other_zero(theta, r)
        assert split > 40, split

    def test_errors_keep_type_and_text(self):
        rng = random.Random(103)
        errors = set()
        for height, t in islice(self._triples(rng), 0, None, 4):
            bundle, cfg, flags = t.connection.bundle, t.cfg, list(t.structure.flags)
            n = 3 if bundle == B else 5
            params = [sc(1)] + [self._value(rng, height, False) for _ in range(n - 1)]
            other = BPRIME if bundle == B else B
            cases = [
                # the structure on the other bundle
                (act, other, params[:3] if other == B else params + [sc(0)] * 2, t.structure, cfg),
                (gauge_transform, t._replace(structure=ParabolicStructure(other, flags)), params),
                # a = 0
                (act, bundle, [sc(0)] + params[1:], t.structure, cfg),
                (gauge_transform, t, [sc(0)] + params[1:]),
                # a marked point outside 0..4
                (elm_spectrum, t.spectrum, 5),
            ]
            for j in range(5):
                # a flag moved off its residue's eigenline: a double pole
                # once the frame factor divides
                moved = flags[:j] + [INF if not flags[j].is_infinity() else sc(1)] + flags[j + 1:]
                cases.append((elm_triple, t._replace(structure=ParabolicStructure(bundle, moved)), j))
            # a spectrum off the Fuchs relation
            nu = list(t.spectrum.nu)
            nu[0] = (nu[0][0] + self._value(rng, height, rng.random() < 0.5), nu[0][1])
            cases.append((SpectrumRank2, nu, t.spectrum.d))
            for fn, *args in cases:
                oracle = {
                    act: oracle_act, gauge_transform: oracle_gauge_transform,
                    elm_triple: oracle_elm_triple, elm_spectrum: oracle_elm_spectrum,
                    SpectrumRank2: oracle_spectrum,
                }[fn]
                got = _text(fn, *args)
                assert got == _text(oracle, *args), (fn.__name__, args)
                if isinstance(got, tuple):
                    errors.add((got[0], got[1].split(":")[0]))
        assert {
            ("StratumError", "structure lives on a different bundle"),
            ("ExactError", "automorphism scale a must be nonzero"),
            ("ConnectionError", "division would create a double pole"),
            ("SpectrumError", "Fuchs relation fails"),
            ("ExactError", "marked point index 5 outside 0..4"),
        } <= errors, errors
