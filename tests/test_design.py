import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from markovdesign import cli
from markovdesign import design as design_module
from markovdesign.design import (
    CERT_RTOL,
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

    def test_negative_moment_count_rejected(self):
        with pytest.raises(DesignError, match="nonnegative"):
            design_moments(PoleSet(points=DIELECTRIC_POLES), -1)

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


def _bundled_poles():
    """The pole sets of the bundled scenarios that list frequencies."""
    sets = {}
    for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")):
        scenario = cli.load_scenario(str(path))
        if "frequencies" in scenario:
            model, omegas = cli.build_model(scenario), cli.parse_frequencies(scenario)
            sets[path.stem] = cli.build_poles(model, omegas)
    return sets


MOMENT_POLE_SETS = dict(_bundled_poles(), **{f"ellipse_m{m}": ellipse_poles(m)
                                             for m in (3, 12, 24, 48)})


def _bits(value):
    """A design field as bytes where it is a float or an array, so that == compares bit for bit."""
    if isinstance(value, (float, np.ndarray)):
        value = np.asarray(value)
        return value.dtype.str, value.tobytes()
    return value


class TestOneMomentConstruction:
    """design_unit is design_moments at n = 0."""

    @pytest.mark.filterwarnings("ignore:d_min")
    @pytest.mark.parametrize("name", sorted(MOMENT_POLE_SETS))
    def test_unit_is_moments_at_zero_bit_for_bit(self, name):
        poles = MOMENT_POLE_SETS[name]
        unit, moments0 = design_unit(poles), design_moments(poles, 0)
        assert (unit.mode, moments0.mode) == ("unit", "moments")
        for f in dataclasses.fields(SignalDesign):
            if f.name != "mode":
                assert _bits(getattr(unit, f.name)) == _bits(getattr(moments0, f.name)), f.name

    def test_no_division_without_moments(self, monkeypatch):
        def no_node_polynomial(self):
            raise AssertionError("the n = 0 design expanded the node polynomial")

        monkeypatch.setattr(PoleSet, "q", no_node_polynomial)
        poles = PoleSet(points=DIELECTRIC_POLES)
        design_unit(poles)
        design_moments(poles, 0)
        with pytest.raises(AssertionError):
            design_moments(poles, 1)

    @pytest.mark.parametrize("build", [design_unit, lambda poles: design_moments(poles, 0)],
                             ids=["unit", "moments"])
    def test_d_min_warning_names_the_caller(self, build):
        with pytest.warns(UserWarning, match="d_min") as record:
            build(PoleSet(points=(0.3j,)))
        assert [w.filename for w in record] == [__file__]


class TestCertifies:
    """One verdict: a deviation holds when it is at most epsilon (1 + CERT_RTOL)."""

    DESIGN = design_moments(PoleSet(points=DIELECTRIC_POLES), 1)
    TIE = DESIGN.epsilon * (1.0 + CERT_RTOL)

    def test_holds_at_the_tie_and_fails_above(self):
        assert self.DESIGN.certifies(self.TIE)
        assert not self.DESIGN.certifies(np.nextafter(self.TIE, np.inf))
        assert self.DESIGN.certifies(0.0)

    def test_nan_fails(self):
        assert not self.DESIGN.certifies(float("nan"))

    def test_elementwise_over_arrays(self):
        values = np.array([[0.0, self.TIE], [np.nextafter(self.TIE, np.inf), np.nan]])
        verdict = self.DESIGN.certifies(values)
        assert verdict.shape == values.shape
        assert verdict.tolist() == [[True, True], [False, False]]


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

    @pytest.mark.parametrize("z0", [0.5 + 1.1e-12j, 1.0 + 1.1e-12, -1.0 - 1.1e-12j,
                                    -1.0 - 1e-12 - 1e-12j])
    def test_region_diagnostics_next_to_the_segment(self, z0):
        # every admitted z0 has Joukowski radius R > 1, so the r = 1 region exists
        design = design_frequency_target(PoleSet(points=(2.0 + 1.0j,)), z0)
        assert list(design.region_diagnostics) == [0]


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

    @pytest.mark.parametrize("poles", [PoleSet(points=DIELECTRIC_POLES), ellipse_poles(48)])
    def test_half_cells_are_hoisted_bit_for_bit(self, poles):
        assert not design_module._HALF_CELLS.flags.writeable
        # the padding as it read with the cell widths taken on every call
        z = poles.array
        sq = design_module._squared_distances(z.real, z.imag ** 2, _lobatto_grid(4096))[1]
        vals = np.prod(np.sqrt(sq), axis=0)
        pad = np.exp(-0.5 * np.diff(_lobatto_grid(4096)) * np.sum(1.0 / np.array(poles.distances)))
        want = float(np.min(np.minimum(vals[:-1], vals[1:]) * pad))
        assert _bits(_min_abs_q(poles)) == _bits(want)

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
    "moments": lambda poles, **kw: design_moments(poles, 2, **kw),
    "frequency_target": lambda poles, **kw: design_frequency_target(poles, 2.0 + 1.4j, **kw),
    "derivative_target": lambda poles, **kw: design_derivative_target(poles, 2.0 + 1.4j, **kw),
    "zero_factor": lambda poles, **kw: design_with_zero_factor(
        poles, monic_from_roots([poles.points[0]]), **kw),
}


class TestTargetEval:
    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    @pytest.mark.parametrize("m", [3, 48])
    def test_real_lambda_matches_complex_evaluation_bit_for_bit(self, mode, m):
        # every target casts lambda to complex and gives the bits, type and
        # shape of polyval on that cast (the real kernel subtracts a
        # one-term target as a scalar and never calls target_eval for it)
        design = ALL_MODES[mode](ellipse_poles(m))
        grid = np.random.default_rng(m).uniform(-1.0, 1.0, 24)
        for lam in (0.3, -1.0, np.array(0.3), grid, grid.reshape(4, 6)):
            cast = np.asarray(lam, dtype=complex)
            got = design.target_eval(lam)
            if design.gammas is None:
                want = design.target_eval(cast)
            else:
                want = np.polynomial.polynomial.polyval(cast, design.gammas)
            assert type(got) is type(want) and got.dtype == want.dtype
            assert np.shape(got) == np.shape(want) and got.tobytes() == want.tobytes()


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

    @pytest.mark.filterwarnings("ignore:d_min")
    @pytest.mark.filterwarnings("ignore:divide by zero")
    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    @pytest.mark.parametrize("d_min", [1e-1, 1e-3, 1e-5, 1e-7])
    def test_zoom_stop_keeps_the_local_maximum(self, mode, d_min):
        # the zoom stops once its bracket spans less than 2**-26 min(1, d);
        # a pole at distance d_min above 0.3 makes the deviation peak there
        # on that length scale (the zero factor drops the first pole only).
        # At 1e-7 the padded min |q| underflows to 0, and the target and
        # zero-factor certificates are inf
        poles = PoleSet(points=(-0.6 - 0.5j, 0.3 + 1j * d_min, 2.2 + 0.4j, -1.8 - 0.2j))
        assert poles.d_min == pytest.approx(d_min)
        design = ALL_MODES[mode](poles)
        lam, top = design.lambda_star, design.epsilon_observed * (1.0 + 1e-9)
        grid = design_module._CERTIFICATE_GRID
        j = int(np.argmin(np.abs(grid - lam)))
        cells = np.linspace(grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)], 2 ** 16 + 1)
        assert design.deviation(cells).max() <= top
        # finer than the zoom's last level: a stop at 2**-26 without the
        # factor min(1, d) falls 2e-7 below this maximum at d = 1e-7
        peak = np.linspace(max(lam - d_min / 4, -1.0), min(lam + d_min / 4, 1.0), 2 ** 16 + 1)
        assert design.deviation(peak).max() <= top

    def test_zoom_levels_on_the_fig4_unit_design(self, monkeypatch):
        # one scan of the 4,096-node grid, then at most three 65-point levels
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        sizes = []
        kernel = design_module._error_kernel

        def counting(design):
            inner = kernel(design)

            def error(lam):
                sizes.append(lam.size)
                return inner(lam)
            return error

        monkeypatch.setattr(design_module, "_error_kernel", counting)
        assert sup_deviation(design) == (design.lambda_star, design.epsilon_observed)
        assert sizes[0] == 4096 and set(sizes[1:]) == {65}
        assert len(sizes) <= 1 + 3

    @pytest.mark.parametrize("mode", ["unit", "zero_factor"])
    def test_constant_target_needs_no_target_array(self, mode, monkeypatch):
        design = ALL_MODES[mode](PoleSet(points=DIELECTRIC_POLES))
        lam = np.linspace(-1.0, 1.0, 101)
        want = design.deviation(lam)
        monkeypatch.setattr(SignalDesign, "target_eval", None)
        assert design.deviation(lam).tobytes() == want.tobytes()
        assert sup_deviation(design) == (design.lambda_star, design.epsilon_observed)

    @pytest.mark.parametrize("size", [0, 1])
    def test_grid_below_two_rejected(self, size):
        # one Lobatto node is NaN, and the zoom would never narrow
        design = design_unit(PoleSet(points=DIELECTRIC_POLES))
        with pytest.raises(ValueError, match="grid_size"):
            verify_sup(design, size)

    @pytest.mark.parametrize("mode", sorted(ALL_MODES))
    def test_constructor_grid_size_moves_only_the_observation(self, mode):
        poles = PoleSet(points=DIELECTRIC_POLES)
        default = ALL_MODES[mode](poles)
        coarse = ALL_MODES[mode](poles, grid_size=64)
        unmeasured = ALL_MODES[mode](poles, grid_size=None)
        assert (coarse.lambda_star, coarse.epsilon_observed) == sup_deviation(default, 64)
        # an unmeasured design can never pass as certified
        assert np.isnan(unmeasured.epsilon_observed) and np.isnan(unmeasured.lambda_star)
        assert not unmeasured.certifies(unmeasured.epsilon_observed)
        for design in (coarse, unmeasured):
            assert design.epsilon == default.epsilon
            assert design.alphas.tobytes() == default.alphas.tobytes()

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
