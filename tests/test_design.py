import tracemalloc

import numpy as np
import pytest

from markovdesign import design as design_module
from markovdesign.design import (
    DesignError,
    PoleSet,
    SignalDesign,
    design_derivative_target,
    design_frequency_target,
    design_moments,
    design_unit,
    design_with_zero_factor,
    _lobatto_grid,
    _min_abs_q,
    stieltjes_coefficients,
    sup_deviation,
    verify_sup,
)
from markovdesign.polynomial import ComplexPolynomial, monic_from_roots, poly_eval

# derived pole set used across the suite: z = 2 + i/omega for
# omega in {1+1i, 0.5+0.3i, 2+0.5i}
DIELECTRIC_POLES = (
    2.5 + 0.5j,
    2.0 + 0.3 / 0.34 + (0.5 / 0.34) * 1j,
    2.0 + 0.5 / 4.25 + (2.0 / 4.25) * 1j,
)
DIELECTRIC_D_MIN = 1.2126781251816647  # distance from the third pole to 1


def ellipse_poles(m):
    """The ellipse family 1.9 cos(theta) + 0.9i sin(theta), theta_k = 2 pi k/m + 0.1."""
    theta = 2.0 * np.pi * np.arange(m) / m + 0.1
    return PoleSet(points=tuple(1.9 * np.cos(theta) + 0.9j * np.sin(theta)))


def random_poles(rng, m, d_min_floor=0.6):
    while True:
        pts = rng.uniform(-2, 4, m) + 1j * rng.uniform(-2, 2, m)
        try:
            poles = PoleSet(points=tuple(pts))
        except DesignError:
            continue
        if poles.d_min >= d_min_floor:
            return poles


class TestPoleSet:
    def test_dielectric_d_min(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        assert poles.d_min == pytest.approx(DIELECTRIC_D_MIN, abs=1e-9)

    def test_distances_order(self):
        poles = PoleSet(points=(2.0 + 1j, 0.0 + 0.25j))
        assert poles.distances == pytest.approx((np.sqrt(2.0), 0.25))
        assert poles.d_min == pytest.approx(0.25)

    def test_pole_on_segment_rejected(self):
        with pytest.raises(DesignError):
            PoleSet(points=(0.5,))

    def test_duplicate_poles_rejected(self):
        with pytest.raises(DesignError):
            PoleSet(points=(2.0 + 1j, 2.0 + 1j))

    def test_nearly_duplicate_poles_rejected(self):
        z = 2.0 + 1j
        with pytest.raises(DesignError):
            PoleSet(points=(z, z + 1e-12))

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(2.0, float("inf")),
                                     complex(float("nan"), 1.0)])
    def test_non_finite_pole_rejected(self, bad):
        # at the parent NaN gave d_min NaN and an infinite pole read as a duplicate
        with pytest.raises(DesignError, match="finite"):
            PoleSet(points=(bad,))
        with pytest.raises(DesignError, match="finite"):
            PoleSet(points=(2.0 + 1j, bad))

    def test_too_many_poles_rejected(self):
        pts = 2.0 + 0.6 * np.exp(2j * np.pi * np.arange(49) / 49)
        with pytest.raises(DesignError):
            PoleSet(points=tuple(pts))

    def test_off_diagonal_products(self):
        poles = PoleSet(points=(2.0, 3.0, 2.0 + 1j))
        want = np.array([
            (2.0 - 3.0) * (2.0 - (2 + 1j)),
            (3.0 - 2.0) * (3.0 - (2 + 1j)),
            ((2 + 1j) - 2.0) * ((2 + 1j) - 3.0),
        ])
        assert np.allclose(poles.off_diagonal_products(), want)

    def test_node_polynomial_roots(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        q = poles.q()
        assert q.is_monic
        assert np.allclose(q(poles.array), 0.0, atol=1e-10)


class TestDesignUnit:
    def test_single_pole_at_two(self):
        design = design_unit(PoleSet(points=(2.0,)))
        assert design.alphas[0] == pytest.approx(-2.0, abs=1e-10)
        lam_star, value = sup_deviation(design)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert lam_star == pytest.approx(1.0, abs=1e-8)

    def test_dielectric_certificate(self):
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        assert design.epsilon == pytest.approx(2.0 / (2.0 * DIELECTRIC_D_MIN) ** 3, rel=1e-9)
        assert design.epsilon_observed <= design.epsilon + 1e-9
        assert design.convergent

    def test_partial_fractions_reproduce_interpolant(self):
        # sum alpha_k/(lam - z_k) equals (q - monic T_m)/q pointwise
        rng = np.random.default_rng(0)
        poles = random_poles(rng, 4)
        design = design_unit(poles)
        q = poles.q()
        m = poles.m
        from markovdesign.polynomial import monic_cheb
        lam = np.linspace(-1, 1, 101)
        q_lam = poly_eval(q, lam)
        assert np.allclose(design.rational_eval(lam),
                           (q_lam - poly_eval(monic_cheb(m), lam)) / q_lam,
                           rtol=1e-9, atol=1e-12)

    def test_close_poles_warn_not_error(self):
        with pytest.warns(UserWarning):
            design = design_unit(PoleSet(points=(0.0 + 0.3j,)))
        assert not design.convergent
        assert np.isfinite(design.epsilon)

    def test_observed_below_certificate_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            design = design_unit(random_poles(rng, m))
            assert design.epsilon_observed <= design.epsilon + 1e-9


class TestDesignMoments:
    def test_single_pole_one_moment(self):
        design = design_moments(PoleSet(points=(2.0,)), 1)
        assert design.alphas[0] == pytest.approx(-3.5, abs=1e-10)
        assert np.allclose(design.gammas, [2.0, 1.0], atol=1e-10)
        lam_star, value = sup_deviation(design)
        assert value == pytest.approx(0.5, abs=1e-10)
        assert lam_star == pytest.approx(1.0, abs=1e-8)

    def test_zero_moments_reduces_to_unit(self):
        rng = np.random.default_rng(1)
        poles = random_poles(rng, 5)
        unit = design_unit(poles)
        red = design_moments(poles, 0)
        assert np.allclose(red.alphas, unit.alphas, rtol=1e-9)
        assert red.epsilon == pytest.approx(unit.epsilon, rel=1e-12)
        assert np.allclose(red.gammas, [1.0])

    def test_moment_polynomial_is_monic(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3):
            design = design_moments(random_poles(rng, 4), n)
            assert design.gammas.size == n + 1
            assert design.gammas[-1] == 1.0

    def test_certificate_tightens_with_moments(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        eps = [design_moments(poles, n).epsilon for n in range(4)]
        for a, b in zip(eps, eps[1:]):
            assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_degree_cap(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        with pytest.raises(DesignError):
            design_moments(poles, 62)

    def test_observed_below_certificate(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            design = design_moments(random_poles(rng, int(rng.integers(1, 6))),
                                    int(rng.integers(0, 4)))
            assert design.epsilon_observed <= design.epsilon + 1e-9

    @pytest.mark.parametrize("m,n", [(40, 8), (48, 2), (48, 8)])
    def test_large_m_certificate_holds(self, m, n):
        # ellipse family 1.9 cos(theta) + 0.9i sin(theta); epsilon is about
        # 1.7e-10 at (48, 8), so the check takes no absolute slack
        design = design_moments(ellipse_poles(m), n)
        assert design.epsilon_observed <= design.epsilon


class TestFrequencyTarget:
    Z0 = 0.308824 - 0.764706j
    POLES = (Z0 - 0.25j, Z0 - 0.45j, Z0 + 0.2 - 0.35j)

    def test_certificate_holds(self):
        design = design_frequency_target(PoleSet(points=self.POLES), self.Z0)
        assert design.epsilon_observed <= design.epsilon + 1e-9
        assert design.z0 == self.Z0

    def test_interpolation_identity(self):
        # q(lam) - b_m T_{m-1}(lam) must vanish at z0
        design = design_frequency_target(PoleSet(points=self.POLES), self.Z0)
        poles = design.poles
        q = poles.q()
        from markovdesign.polynomial import cheb_eval
        residual = q(self.Z0) - design.b_m * cheb_eval(poles.m - 1, self.Z0)
        assert abs(residual) < 1e-10 * max(1.0, abs(q(self.Z0)))

    def test_z0_on_pole_rejected(self):
        with pytest.raises(DesignError):
            design_frequency_target(PoleSet(points=self.POLES), self.POLES[0])

    def test_z0_on_segment_rejected(self):
        with pytest.raises(DesignError):
            design_frequency_target(PoleSet(points=self.POLES), 0.5)

    @pytest.mark.parametrize("z0", [complex("nan"), complex("inf"), complex(0.3, float("-inf"))])
    def test_non_finite_z0_rejected(self, z0):
        with pytest.raises(DesignError, match="finite"):
            design_frequency_target(PoleSet(points=self.POLES), z0)
        with pytest.raises(DesignError, match="finite"):
            design_derivative_target(PoleSet(points=self.POLES), z0)

    def test_region_diagnostics_all_inside(self):
        design = design_frequency_target(PoleSet(points=self.POLES), self.Z0)
        assert design.region_diagnostics is not None
        assert all(design.region_diagnostics.values())


class TestDerivativeTarget:
    Z0 = 2.5 + 0.5j
    POLES = (2.3 + 0.4j, 2.7 + 0.6j, 2.5 + 0.9j)

    def test_certificate_holds(self):
        design = design_derivative_target(PoleSet(points=self.POLES), self.Z0)
        assert design.epsilon_observed <= design.epsilon + 1e-9

    def test_double_root_identity(self):
        # q(lam)[1 - alpha0(lam - z0)] - b_m T_{m-1}(lam) has a double root
        # at z0: both value and first derivative vanish
        design = design_derivative_target(PoleSet(points=self.POLES), self.Z0)
        q = design.poles.q()
        from markovdesign.polynomial import cheb_eval, cheb_eval_deriv
        m = design.poles.m
        z0 = self.Z0

        def f(z):
            return q(z) * (1.0 - design.alpha0 * (z - z0)) - design.b_m * cheb_eval(m - 1, z)

        assert abs(f(z0)) < 1e-9
        h = 1e-6
        deriv = (f(z0 + h) - f(z0 - h)) / (2 * h)
        assert abs(deriv) < 1e-4

    def test_deviation_definition(self):
        design = design_derivative_target(PoleSet(points=self.POLES), self.Z0)
        lam = np.linspace(-1, 1, 11)
        want = 1.0 / (lam - self.Z0) ** 2 - design.alpha0 / (lam - self.Z0)
        assert np.allclose(design.target_eval(lam.astype(complex)), want)


class TestZeroFactor:
    def test_zero_at_pole_removes_frequency(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        s = monic_from_roots([DIELECTRIC_POLES[0]])
        design = design_with_zero_factor(poles, s)
        assert abs(design.alphas[0]) < 1e-12
        assert np.all(np.abs(design.alphas[1:]) > 1e-12)

    def test_trivial_factor_matches_unit(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        s = ComplexPolynomial((1.0,))
        if s.degree == 0:
            design = design_with_zero_factor(poles, s)
        unit = design_unit(poles)
        assert np.allclose(design.alphas, unit.alphas, rtol=1e-12)

    def test_certificate_dominates_observation(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            poles = random_poles(rng, int(rng.integers(2, 6)))
            s = monic_from_roots([poles.points[0]])
            design = design_with_zero_factor(poles, s)
            assert design.epsilon_observed <= design.epsilon + 1e-9

    def test_non_monic_rejected(self):
        poles = PoleSet(points=DIELECTRIC_POLES)
        with pytest.raises(DesignError):
            design_with_zero_factor(poles, ComplexPolynomial((0.0, 2.0)))

    def test_degree_must_be_below_m(self):
        poles = PoleSet(points=(2.0 + 1j,))
        with pytest.raises(DesignError):
            design_with_zero_factor(poles, monic_from_roots([2.0 + 1j]))


class TestGridCertificates:
    """The target and zero-factor certificates, padded from Lobatto grid
    values, hold between the grid points."""

    @pytest.mark.parametrize("poles", [PoleSet(points=DIELECTRIC_POLES),
                                       PoleSet(points=TestFrequencyTarget.POLES),
                                       ellipse_poles(3), ellipse_poles(24)])
    def test_min_abs_q_below_fine_grid_minimum(self, poles):
        fine = np.linspace(-1.0, 1.0, 2 ** 20)
        fine_min = min(np.abs(poles.node(chunk)).min() for chunk in np.split(fine, 64))
        assert 0.0 < _min_abs_q(poles) <= fine_min

    @pytest.mark.parametrize("poles", [PoleSet(points=DIELECTRIC_POLES),
                                       PoleSet(points=TestFrequencyTarget.POLES),
                                       ellipse_poles(3), ellipse_poles(24), ellipse_poles(48)])
    def test_min_abs_q_matches_complex_node_product(self, poles):
        # the same padding applied to |q| from the complex product over the poles
        grid = _lobatto_grid(4096)
        vals = np.abs(poles.node(grid))
        pad = np.exp(-0.5 * np.diff(grid) * np.sum(1.0 / np.array(poles.distances)))
        want = np.min(np.minimum(vals[:-1], vals[1:]) * pad)
        assert _min_abs_q(poles) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("build", [
        lambda poles: design_frequency_target(poles, 2.0 + 1.0 / 0.7),
        lambda poles: design_derivative_target(poles, 2.0 + 1.0 / 0.7),
        lambda poles: design_with_zero_factor(poles, monic_from_roots([poles.points[0]])),
    ], ids=["frequency_target", "derivative_target", "zero_factor"])
    def test_ellipse_m24_holds_without_slack(self, build):
        # at m = 24 a certificate read from a searched min |q| (which is at or
        # above the true minimum) falls below the observed deviation
        design = build(ellipse_poles(24))
        assert design.epsilon_observed <= design.epsilon


class TestStieltjesCoefficients:
    def test_frequency_target_transform(self):
        design = design_frequency_target(
            PoleSet(points=TestFrequencyTarget.POLES), TestFrequencyTarget.Z0)
        xi = stieltjes_coefficients(design)
        want = design.alphas * (1.0 - design.z0) / (1.0 - design.poles.array)
        assert np.allclose(xi, want)

    def test_derivative_target_prepends_offset(self):
        design = design_derivative_target(
            PoleSet(points=TestDerivativeTarget.POLES), TestDerivativeTarget.Z0)
        xi = stieltjes_coefficients(design)
        assert xi.size == design.poles.m + 1
        assert xi[0] == pytest.approx(design.alpha0 - 1.0 / (1.0 - design.z0))

    def test_unit_mode_rejected(self):
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        with pytest.raises(DesignError):
            stieltjes_coefficients(design)


# the five modes on a pole set: moments with n = 2, targets at z0 = 2 + 1.4i
# and the zero factor s = lambda - z_1
ALL_MODES = {
    "unit": design_unit,
    "moments": lambda poles: design_moments(poles, 2),
    "frequency_target": lambda poles: design_frequency_target(poles, 2.0 + 1.4j),
    "derivative_target": lambda poles: design_derivative_target(poles, 2.0 + 1.4j),
    "zero_factor": lambda poles: design_with_zero_factor(
        poles, monic_from_roots([poles.points[0]])),
}


class TestVerifySup:
    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_grid_size_refinement_consistency(self, mode):
        design = ALL_MODES[mode](PoleSet(points=DIELECTRIC_POLES))
        coarse = verify_sup(design, grid_size=256)
        fine = verify_sup(design, grid_size=8192)
        assert coarse == pytest.approx(fine, rel=1e-6)

    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    @pytest.mark.parametrize("poles", [PoleSet(points=DIELECTRIC_POLES), ellipse_poles(12)],
                             ids=["dielectric", "ellipse12"])
    def test_observation_matches_fine_grid(self, mode, poles):
        design = ALL_MODES[mode](poles)
        fine = max(design.deviation(chunk).max()
                   for chunk in np.array_split(_lobatto_grid(2 ** 20 + 1), 64))
        assert design.epsilon_observed == pytest.approx(fine, rel=1e-9)
        assert design.epsilon_observed >= design.deviation(_lobatto_grid(4096)).max()
        # lambda_star is where the value was found (a one-point evaluation
        # sums the m terms in another order)
        assert design.deviation(design.lambda_star) == pytest.approx(
            design.epsilon_observed, rel=1e-9)

    @pytest.mark.parametrize("size", [0, 1])
    def test_grid_below_two_rejected(self, size):
        # one Lobatto node is NaN, and the zoom would never narrow
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        with pytest.raises(ValueError, match="grid_size"):
            verify_sup(design, size)

    def test_stores_observation(self):
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        design.epsilon_observed = float("nan")
        value = verify_sup(design)
        assert design.epsilon_observed == value

    def test_default_grid_is_not_rebuilt(self, monkeypatch):
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        want = sup_deviation(design)
        monkeypatch.setattr(design_module, "_lobatto_grid", None)
        assert sup_deviation(design) == want

    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_chunked_scan_matches_one_scan(self, mode, monkeypatch):
        # BLAS may sum a column in another order when the width of the
        # product changes; widths that are multiples of 1,024 keep one order,
        # so the two scans agree bit for bit
        design = ALL_MODES[mode](PoleSet(points=DIELECTRIC_POLES))
        monkeypatch.setattr(design_module, "_SCAN_CHUNK", 1024)
        chunked = sup_deviation(design, 5 * 1024)
        monkeypatch.setattr(design_module, "_SCAN_CHUNK", 5 * 1024)
        assert sup_deviation(design, 5 * 1024) == chunked

    def test_large_grid_scan_in_bounded_memory(self, monkeypatch):
        design = design_unit(ellipse_poles(48))
        tracemalloc.start()
        try:
            verify_sup(design, 2 ** 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an unchunked scan holds a (2, 48, 2**18) table: 201 MB
        assert peak < 8 * 2 ** 20
        chunked = (design.lambda_star, design.epsilon_observed)
        monkeypatch.setattr(design_module, "_SCAN_CHUNK", 2 ** 18)
        verify_sup(design, 2 ** 18)
        assert (design.lambda_star, design.epsilon_observed) == chunked


class TestRealKernel:
    """deviation sums alpha_k/(lambda - z_k) in real arithmetic; it agrees
    with the complex rational_eval up to float64 rounding."""

    @staticmethod
    def rounding(design, lam):
        # 2(m + 4) u sum_k |alpha_k|/|lambda - z_k|, u = 2**-53
        dist = np.abs(np.asarray(lam, dtype=float)[..., None] - design.poles.array)
        return (2 * (design.poles.m + 4) * 2.0 ** -53
                * np.sum(np.abs(design.alphas) / dist, axis=-1))

    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    @pytest.mark.parametrize("m", [3, 12, 48])
    def test_matches_complex_evaluation(self, mode, m):
        design = ALL_MODES[mode](ellipse_poles(m))
        lam = np.concatenate([_lobatto_grid(4096),
                              np.random.default_rng(m).uniform(-1.0, 1.0, 256)])
        want = np.abs(design.rational_eval(lam) - design.target_eval(lam))
        got = design.deviation(lam)
        assert np.all(np.abs(got - want) <= self.rounding(design, lam))
        assert np.array_equal(design.deviation(lam.reshape(16, -1)), got.reshape(16, -1))
        for point in (0.3, -1.0, np.float64(-0.7), np.array(0.3), np.array(1.0)):
            value = design.deviation(point)
            assert isinstance(value, float)
            want = abs(design.rational_eval(point) - design.target_eval(point))
            assert abs(value - want) <= self.rounding(design, point)
