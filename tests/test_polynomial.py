import numpy as np
import pytest
from numpy.polynomial.chebyshev import cheb2poly
from numpy.polynomial.polynomial import polyfromroots

from markovdesign.polynomial import (
    ComplexPolynomial,
    DegreeLimitError,
    cheb_eval,
    cheb_eval_deriv,
    monic_cheb,
    monic_from_roots,
    poly_divmod,
    poly_eval,
)


class TestChebEval:
    def test_degree_one_is_identity(self):
        assert cheb_eval(1, 2.0) == 2.0

    def test_value_one_at_one(self):
        assert cheb_eval(2, 1.0) == pytest.approx(1.0)

    def test_cubic_against_direct_evaluation(self):
        # T_3(x) = 4x^3 - 3x
        x = 0.5
        assert cheb_eval(3, x) == pytest.approx(4 * x**3 - 3 * x)
        assert cheb_eval(3, x) == pytest.approx(-1.0)

    def test_degree_cap(self):
        with pytest.raises(DegreeLimitError):
            cheb_eval(65, 0.3)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cheb_eval(-1, 0.3)

    def test_matches_expanded_coefficients_in_disk(self):
        rng = np.random.default_rng(7)
        for m in range(21):
            p = ComplexPolynomial(tuple(cheb2poly(np.eye(m + 1)[m])))
            z = 3.0 * rng.uniform(0, 1, 100) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
            got = cheb_eval(m, z)
            want = poly_eval(p, z)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


class TestChebDeriv:
    def test_degree_one(self):
        assert cheb_eval_deriv(1, 5.0) == pytest.approx(1.0)

    def test_degree_two(self):
        assert cheb_eval_deriv(2, 0.3) == pytest.approx(1.2)

    def test_degree_three_at_one(self):
        # T_3'(x) = 12x^2 - 3
        assert cheb_eval_deriv(3, 1.0) == pytest.approx(9.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        pts = 2.0 * rng.uniform(0, 1, 50) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
        h = 1e-6
        for m in (1, 2, 3, 5, 8, 13):
            for z in pts:
                fd = (cheb_eval(m, z + h) - cheb_eval(m, z - h)) / (2 * h)
                exact = cheb_eval_deriv(m, z)
                assert abs(exact - fd) < 1e-4 * (1.0 + abs(exact))


class TestMonicFromRoots:
    def test_single_root(self):
        p = monic_from_roots([2.0])
        assert np.allclose(p.array, [-2.0, 1.0])

    def test_plus_minus_one(self):
        p = monic_from_roots([1.0, -1.0])
        assert np.allclose(p.array, [-1.0, 0.0, 1.0])

    def test_conjugate_pair(self):
        z = 2.5 + 0.5j
        p = monic_from_roots([z, z.conjugate()])
        assert np.allclose(p.array, [6.5, -5.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            monic_from_roots([])

    def test_degree_cap(self):
        with pytest.raises(DegreeLimitError):
            monic_from_roots([0.5] * 65)

    def test_matches_polyfromroots_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for m in range(1, 65):
            roots = rng.uniform(-3.0, 3.0, m) + 1j * rng.uniform(-2.0, 2.0, m)
            want = polyfromroots(roots)
            assert monic_from_roots(roots).array.tobytes() == want.tobytes()


class TestPolyEval:
    def test_root(self):
        assert poly_eval(ComplexPolynomial((-2.0, 1.0)), 2.0) == 0.0

    def test_constant(self):
        assert poly_eval(ComplexPolynomial((1.0,)), 17.0 - 3j) == 1.0

    def test_constant_term(self):
        assert poly_eval(ComplexPolynomial((6.5, -5.0, 1.0)), 0.0) == 6.5


class TestPolyDivmod:
    def test_synthetic_division(self):
        a = ComplexPolynomial((-0.5, 0.0, 1.0))  # lambda^2 - 1/2
        b = ComplexPolynomial((-2.0, 1.0))
        quo, rem = poly_divmod(a, b)
        assert np.allclose(quo.array, [2.0, 1.0])
        assert np.allclose(rem.array, [3.5])

    def test_self_division(self):
        b = ComplexPolynomial((-2.0, 1.0))
        quo, rem = poly_divmod(b, b)
        assert np.allclose(quo.array, [1.0])
        assert np.allclose(rem.array, [0.0])

    def test_lower_degree_numerator(self):
        quo, rem = poly_divmod(ComplexPolynomial((1.0,)), ComplexPolynomial((-2.0, 1.0)))
        assert quo.degree == 0 and quo.coeffs[0] == 0
        assert np.allclose(rem.array, [1.0])

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            poly_divmod(ComplexPolynomial((1.0, 1.0)), ComplexPolynomial((1.0,)))

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            da, db = rng.integers(1, 11), rng.integers(1, 11)
            a = ComplexPolynomial(tuple(rng.standard_normal(da + 1)
                                        + 1j * rng.standard_normal(da + 1)))
            bc = rng.standard_normal(db + 1) + 1j * rng.standard_normal(db + 1)
            bc[-1] += 3.0  # keep the leading coefficient away from zero
            b = ComplexPolynomial(tuple(bc))
            quo, rem = poly_divmod(a, b)
            zs = rng.uniform(-1, 1, 20)
            lhs = poly_eval(b, zs) * poly_eval(quo, zs) + poly_eval(rem, zs)
            rhs = poly_eval(a, zs)
            assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestMonicCheb:
    def test_degree_one(self):
        assert np.allclose(monic_cheb(1).array, [0.0, 1.0])

    def test_degree_two(self):
        assert np.allclose(monic_cheb(2).array, [-0.5, 0.0, 1.0])

    def test_degree_three(self):
        assert np.allclose(monic_cheb(3).array, [0.0, -0.75, 0.0, 1.0])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            monic_cheb(0)

    def test_closed_form_matches_cheb2poly_bit_for_bit(self):
        for m in range(1, 65):
            basis = np.zeros(m + 1)
            basis[m] = 1.0
            want = (cheb2poly(basis) / 2.0 ** (m - 1)).astype(complex)
            assert np.array_equal(monic_cheb(m).array.view(np.int64), want.view(np.int64)), m

    def test_degree_cap(self):
        with pytest.raises(DegreeLimitError):
            monic_cheb(65)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 16])
    def test_sup_norm_on_interval(self, m):
        nodes = np.cos(np.pi * np.arange(4096) / 4095)
        sup = np.max(np.abs(poly_eval(monic_cheb(m), nodes)))
        bound = 1.0 / 2.0 ** (m - 1)
        assert bound * (1 - 1e-9) <= sup <= bound * (1 + 1e-9)
