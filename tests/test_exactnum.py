import random

import pytest
from helpers import mat_product, oracle_det, oracle_rank, oracle_rref, rand_triple_matrix, unit_vectors
from hypothesis import given, settings
from hypothesis import strategies as st

from paramod._kernel import T_ZERO, mat_rref
from paramod.exactnum import (
    INF,
    ExactError,
    Mat,
    Poly,
    ProjectivePoint,
    Scalar,
    divided_difference_weights,
    interpolate,
    monic_from_roots,
    sc,
)

rationals = st.builds(
    Scalar.rational,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)
gaussians = st.builds(
    lambda a, b, d: Scalar.rational(a, d) + Scalar.rational(b, d) * Scalar(0, 1),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=9),
)


class TestScalar:
    def test_lowest_terms(self):
        s = Scalar.rational(6, 4)
        assert str(s) == "3/2"
        assert Scalar.gaussian(2, 4, 6, 8) == Scalar.gaussian(1, 2, 3, 4)

    def test_is_integer(self):
        assert Scalar(7).is_integer()
        assert not Scalar.rational(7, 2).is_integer()
        assert not Scalar(1, 1).is_integer()
        assert (Scalar.rational(1, 3) * 3).is_integer()

    @given(gaussians, gaussians)
    @settings(max_examples=60)
    def test_field_ops(self, x, y):
        assert x + y - y == x
        if not y.is_zero():
            assert (x * y) / y == x
            assert y * y.inverse() == Scalar(1)

    @given(gaussians)
    @settings(max_examples=40)
    def test_serialization_roundtrip(self, x):
        assert Scalar.parse(str(x)) == x

    def test_real_ordering_only(self):
        assert Scalar.rational(1, 3) < Scalar.rational(1, 2)
        with pytest.raises(ExactError):
            _ = Scalar(0, 1) < Scalar(1)

    def test_constructor_takes_ints_only(self):
        assert Scalar(2, -3) == Scalar.gaussian(2, 1, -3, 1)
        for parts in ((1.5,), (2.9, 0.7), ("3",), (1, "0"), (True,), (Scalar(1),), (0, Scalar(1))):
            with pytest.raises(ExactError):
                Scalar(*parts)

    def test_rational_takes_ints_only(self):
        assert Scalar.rational(-6, 4) == Scalar.gaussian(-3, 2, 0, 1)
        assert Scalar.rational(7) == Scalar(7)
        for parts in ((1.5, 2), ("3", 2.9), (True,), (1, True), (3, 2.0), (Scalar(1),), (1, Scalar(2))):
            with pytest.raises(ExactError):
                Scalar.rational(*parts)
        with pytest.raises(ZeroDivisionError):
            Scalar.rational(1, 0)

    def test_parse_rejects_non_string(self):
        for value in (5, None, ["1"]):
            with pytest.raises(ExactError):
                Scalar.parse(value)

    def test_pow(self):
        s = Scalar.rational(-2, 3)
        assert s**3 == Scalar.rational(-8, 27)
        assert s**0 == Scalar(1)
        assert s**-2 == Scalar.rational(9, 4)


class TestProjectivePoint:
    def test_canonical_form(self):
        assert ProjectivePoint(2, 3) == ProjectivePoint(4, 6)
        assert ProjectivePoint(0, 5) == INF
        with pytest.raises(ExactError):
            ProjectivePoint(0, 0)

    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=40)
    def test_scale_invariance(self, k, l, c):
        if (k.is_zero() and l.is_zero()) or c.is_zero():
            return
        assert ProjectivePoint(k * c, l * c) == ProjectivePoint(k, l)

    def test_parse(self):
        assert ProjectivePoint.parse("inf").is_infinity()
        assert ProjectivePoint.parse("3/4").value == Scalar.rational(3, 4)


class TestDet:
    def test_vandermonde_012(self):
        # prod_{i<j} (z_j - z_i) = 1*2*1 = 2
        m = Mat([[1, z, z * z] for z in map(sc, [0, 1, 2])])
        assert m.det() == Scalar(2)

    def test_identity(self):
        assert Mat(unit_vectors(5)).det() == Scalar(1)

    def test_repeated_row(self):
        m = Mat([[1, 2, 3], [4, 5, 6], [1, 2, 3]])
        assert m.det() == Scalar(0)

    def test_rejects_non_square(self):
        with pytest.raises(ExactError):
            Mat([[1, 2, 3], [4, 5, 6]]).det()

    @given(st.lists(gaussians, min_size=9, max_size=9), st.lists(gaussians, min_size=9, max_size=9))
    @settings(max_examples=25)
    def test_det_multiplicative(self, xs, ys):
        a = Mat([xs[0:3], xs[3:6], xs[6:9]])
        b = Mat([ys[0:3], ys[3:6], ys[6:9]])
        assert mat_product(a, b).det() == a.det() * b.det()

    @given(st.lists(gaussians, min_size=9, max_size=9), gaussians)
    @settings(max_examples=25)
    def test_det_row_scaling(self, xs, c):
        rows = [xs[0:3], xs[3:6], xs[6:9]]
        scaled = [list(rows[0]), [c * v for v in rows[1]], list(rows[2])]
        assert Mat(scaled).det() == c * Mat(rows).det()

    def test_det_alternating(self):
        rows = [[sc(1), sc(2), sc(3)], [sc(4), sc(5), sc(7)], [sc(0), sc(1), sc(1)]]
        swapped = [rows[1], rows[0], rows[2]]
        assert Mat(swapped).det() == -Mat(rows).det()

    def test_matches_rational_bareiss(self):
        # the Gaussian-integer determinant against the rational one, triple
        # for triple: real and Gaussian entries, forced swaps, singular rows
        rng = random.Random(2024)
        zeros = 0
        for _ in range(2000):
            n = rng.randint(1, 5)
            rows = rand_triple_matrix(rng, n, n)
            det = Mat([[Scalar._wrap(t) for t in row] for row in rows]).det()
            assert det._t == oracle_det(rows, n), rows
            zeros += det.is_zero()
        assert zeros > 200


class TestRank:
    def test_zero_matrix(self):
        assert Mat([[0, 0, 0]] * 3).rank() == 0

    def test_collinear_rows(self):
        # second and third rows are collinear after subtracting the first
        assert Mat([[1, 0, 0], [1, 1, 1], [1, 2, 2]]).rank() == 2

    def test_generic_delta_matrix(self):
        rng = random.Random(7)
        for _ in range(5):
            z = random.Random(rng.random()).sample(range(-10, 10), 5)
            u = [Scalar.rational(rng.randrange(-40, 40), rng.randrange(1, 7)) for _ in range(5)]
            rows = [[sc(1), sc(zi), sc(zi) ** 2, ui, ui * zi] for zi, ui in zip(z, u)]
            m = Mat(rows)
            if not m.det().is_zero():
                assert m.rank() == 5

    @given(st.lists(gaussians, min_size=12, max_size=12))
    @settings(max_examples=25)
    def test_rank_transpose(self, xs):
        m = Mat([xs[0:4], xs[4:8], xs[8:12]])
        assert m.rank() == Mat(list(zip(*m.entries))).rank()

    def test_matches_rational_bareiss(self):
        rng = random.Random(2025)
        for _ in range(2000):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            rows = rand_triple_matrix(rng, nrows, ncols)
            m = Mat([[Scalar._wrap(t) for t in row] for row in rows])
            assert m.rank() == oracle_rank(rows, nrows, ncols), rows


class TestRref:
    def test_matches_two_normalization_oracle(self):
        # the reduced rows, pivots and signed pivot product of the kernel's
        # elimination, one normalization per update over the pivot row's
        # nonzero columns, against the elimination that normalizes the
        # product and the difference over every column: real and Gaussian,
        # sparse, with zero rows and forced swaps
        rng = random.Random(2026)
        zero_rows = swaps = 0
        for _ in range(2000):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            rows = rand_triple_matrix(rng, nrows, ncols)
            if rng.random() < 0.2:
                rows[rng.randrange(nrows)] = [T_ZERO] * ncols
                zero_rows += 1
            swaps += nrows > 1 and rows[0][0] == T_ZERO and any(r[0] != T_ZERO for r in rows)
            assert mat_rref(rows, nrows, ncols) == oracle_rref(rows, nrows, ncols), rows
        assert zero_rows > 300 and swaps > 300, (zero_rows, swaps)


class TestInterpolate:
    def test_two_points(self):
        p = interpolate([(0, 0), (1, 1)], 1)
        assert p == Poly([0, 1])

    def test_three_points_infeasible(self):
        assert interpolate([(0, 0), (1, 1), (2, 3)], 1) is None

    def test_collinear_minimal_representative(self):
        p = interpolate([(0, 0), (1, 1), (2, 2), (3, 3)], 3)
        assert p == Poly([0, 1])
        assert p.degree() == 1

    def test_duplicate_abscissae(self):
        with pytest.raises(ExactError):
            interpolate([(1, 0), (1, 1)], 2)

    @given(st.lists(rationals, min_size=4, max_size=4))
    @settings(max_examples=30)
    def test_reproduces_polynomial(self, cs):
        q = Poly(cs)
        pts = [(sc(x), q(x)) for x in range(5)]
        p = interpolate(pts, 3)
        assert p is not None
        assert all(p(x) == y for x, y in pts)


class TestDividedDifference:
    @given(
        st.lists(st.integers(min_value=-25, max_value=25), min_size=5, max_size=5, unique=True),
        st.lists(rationals, min_size=4, max_size=4),
    )
    @settings(max_examples=50)
    def test_annihilates_low_degree(self, zs, cs):
        # the top divided difference over 5 nodes kills every cubic
        q = Poly(cs)
        w = divided_difference_weights(zs)
        total = sum((q(z) * wi for z, wi in zip(zs, w)), sc(0))
        assert total.is_zero()

    def test_detects_quartic(self):
        zs = [0, 1, 2, 3, 4]
        w = divided_difference_weights(zs)
        q = monic_from_roots([0, 1, 2, 3])  # degree 4 leading coefficient 1
        total = sum((q(z) * wi for z, wi in zip(zs, w)), sc(0))
        assert total == Scalar(1)


class TestPoly:
    def test_bound_respected(self):
        p = Poly([1, 0, 0], bound=2)
        assert p.degree() == 0
        with pytest.raises(ExactError):
            Poly([1, 2, 3]).shrink(1)

    def test_mul_eval(self):
        p = Poly([1, 1]) * Poly([-1, 1])
        assert p == Poly([-1, 0, 1])
        assert p(sc(3)) == Scalar(8)

    def test_derivative(self):
        d = Poly([5, 1, -2, 3]).derivative()
        assert d == Poly([1, -4, 9]) and d.bound == 2
        assert Poly([0, 1, 0], bound=2).derivative().coeffs == (sc(1), sc(0))
        for p in (Poly([7], bound=0), Poly.zero(-1)):
            assert p.derivative().is_zero() and p.derivative().bound == -1

    def test_monic_from_roots(self):
        p = monic_from_roots([1, 2])
        assert p == Poly([2, -3, 1])
