from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedflow import Poly, interpolate

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=6)


class TestArithmetic:
    def test_square_of_n_minus_one(self):
        p = Poly((-1, 1))
        assert (p * p).coeff_list() == [1, -2, 1]

    def test_eval_by_horner(self):
        assert Poly((1, -2, 1))(3) == 4
        assert Poly(())(17) == 0

    def test_float_argument_is_refused_like_a_float_coefficient(self):
        with pytest.raises(TypeError, match="not an exact integer"):
            Poly((1.5,))
        with pytest.raises(TypeError, match="not an exact integer"):
            Poly((1, 2))(1.5)

    def test_additive_identity(self):
        p = Poly((2, 0, 5))
        assert p + Poly() == p
        assert p - p == Poly()

    def test_normalization_strips_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)).coeff_list() == [1, 2]
        assert Poly((0,)).is_zero()

    def test_scalar_multiplication(self):
        assert (3 * Poly((1, 1))).coeff_list() == [3, 3]
        assert (Poly((1, 1)) * 0).is_zero()

    def test_power(self):
        assert (Poly((0, 1)) ** 3).coeff_list() == [0, 0, 0, 1]
        assert (Poly((2,)) ** 0) == Poly((1,))

    def test_degree(self):
        assert Poly(()).degree == -1
        assert Poly((7,)).degree == 0
        assert Poly((0, 0, 3)).degree == 2

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            Poly((1.5,))
        with pytest.raises(TypeError):
            Poly((1,)) * 0.5

    def test_fraction_coefficients_normalize_to_int(self):
        p = Poly((Fraction(4, 2), Fraction(1, 3)))
        assert p.coeff_list() == [2, Fraction(1, 3)]
        assert not p.is_integral()
        assert Poly((2, 1)).is_integral()

    def test_immutability(self):
        p = Poly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    @given(coeff_lists, coeff_lists, st.integers(min_value=-20, max_value=20))
    @settings(max_examples=60)
    def test_ring_operations_agree_with_evaluation(self, a, b, n):
        p, q = Poly(a), Poly(b)
        assert (p + q)(n) == p(n) + q(n)
        assert (p - q)(n) == p(n) - q(n)
        assert (p * q)(n) == p(n) * q(n)

    def test_scale_argument(self):
        p = Poly((1, 2, 3))
        assert p.scale_argument(2).coeff_list() == [1, 4, 12]
        for n in range(-3, 4):
            assert p.scale_argument(2)(n) == p(2 * n)


class TestRendering:
    @pytest.mark.parametrize(
        "coeffs,text",
        [
            ((), "0"),
            ((7,), "7"),
            ((-3, 4), "4*n - 3"),
            ((0, 1), "n"),
            ((1, 0, -1), "-n^2 + 1"),
            ((0, -1, 2), "2*n^2 - n"),
        ],
    )
    def test_human_form(self, coeffs, text):
        assert str(Poly(coeffs)) == text


class TestInterpolation:
    def test_reproduces_integer_polynomial(self):
        p = Poly((3, -2, 0, 1))
        pts = [(n, p(n)) for n in range(1, 6)]
        assert interpolate(pts) == p

    def test_least_degree_on_oversampled_data(self):
        p = Poly((1, 1))
        pts = [(n, p(n)) for n in range(10)]
        assert interpolate(pts) == p

    def test_rational_coefficients(self):
        # triangular numbers need halves
        pts = [(n, n * (n + 1) // 2) for n in range(4)]
        assert interpolate(pts) == Poly((0, Fraction(1, 2), Fraction(1, 2)))

    def test_duplicate_points_raise(self):
        with pytest.raises(ValueError):
            interpolate([(1, 1), (1, 2)])

    def test_empty_input_is_zero(self):
        assert interpolate([]).is_zero()

    @pytest.mark.parametrize("points", [[(1, 1.5), (2, 2)], [(1.0, 1), (2, 2)]])
    def test_float_points_are_refused(self, points):
        with pytest.raises(TypeError):
            interpolate(points)

    @given(coeff_lists)
    @settings(max_examples=40)
    def test_round_trip(self, coeffs):
        p = Poly(coeffs)
        pts = [(n, p(n)) for n in range(len(coeffs) + 1)]
        assert interpolate(pts) == p
