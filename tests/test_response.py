from pathlib import Path

import numpy as np
import pytest

from markovdesign import cli
from markovdesign.design import PoleSet, design_moments, design_unit
from markovdesign.geometry import segment_distance
from markovdesign.measure import DiscreteMeasure, markov_eval, random_measure_with_moments
from markovdesign.response import (
    InfeasibleMomentsError,
    MaxwellPhase,
    SingularFrequencyError,
    SystemModel,
    TimeGrid,
    crest_ratio,
    model_c,
    model_z,
    response_bounds,
    simulate_response,
    single_frequency_response,
    synthesize_input,
)

OMEGAS = np.array([1.0 + 1.0j, 0.5 + 0.3j, 2.0 + 0.5j])
MU = DiscreteMeasure(atoms=(-0.5, 0.5), weights=(0.1, 0.9))
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ATOMS = np.linspace(-1.0, 1.0, 2049)  # the default atom grid of response_bounds


def dielectric_setup(a0=0.6):
    model = SystemModel.lossy_dielectric(a0)
    poles = PoleSet(points=tuple(model_z(model, w) for w in OMEGAS))
    return model, design_unit(poles)


def scenario_setup(name):
    scenario = cli.load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    model = cli.build_model(scenario)
    omegas = cli.parse_frequencies(scenario)
    design = cli.build_design(scenario, model, omegas)
    return model, omegas, design, cli.build_grid(scenario)


def integrand(design, omegas, theta, times, t0):
    """g_t(lambda) = Re sum_k c_k(t) / (lambda - z_k) on ATOMS, one row per
    time, with the scales a0 multiplies: sum_k |c_k(t)| / d_k (magnitude) and
    sum_k |c_k(t)| / d_k**3 (curvature)."""
    z = design.poles.array
    coeffs = design.alphas * np.exp(1j * theta) * np.exp(-1j * np.outer(times - t0, omegas))
    g = (coeffs[:, :, None] / (ATOMS[None, None, :] - z[None, :, None])).real.sum(axis=1)
    d = np.array([segment_distance(zk) for zk in z])
    return g, np.abs(coeffs) @ (1.0 / d), np.abs(coeffs) @ (1.0 / d ** 3)


class TestMaxwellPhase:
    def test_elastic_modulus_is_real(self):
        assert MaxwellPhase(G=12000).modulus(0.7) == 12000

    def test_viscoelastic_modulus(self):
        ph = MaxwellPhase(G=6000, eta=20000)
        w = 0.5
        want = 1j * w * 20000 * 6000 / (6000 + 1j * w * 20000)
        assert ph.modulus(w) == pytest.approx(want)

    def test_low_frequency_limit_is_viscous(self):
        ph = MaxwellPhase(G=6000, eta=20000)
        w = 1e-8
        assert ph.modulus(w) == pytest.approx(1j * w * 20000, rel=1e-3)

    def test_high_frequency_limit_is_elastic(self):
        ph = MaxwellPhase(G=6000, eta=20000)
        assert ph.modulus(1e8) == pytest.approx(6000, rel=1e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MaxwellPhase(G=-1.0)
        with pytest.raises(ValueError):
            MaxwellPhase(G=1.0, eta=0.0)


class TestSystemModels:
    def test_lossy_dielectric_map(self):
        model = SystemModel.lossy_dielectric()
        assert model_z(model, 1.0 + 1.0j) == pytest.approx(2.5 + 0.5j)
        assert model_c(model, 1.0 + 1.0j) == 1.0

    def test_plasma_map(self):
        model = SystemModel.plasma()
        assert model_z(model, 2.0) == pytest.approx(1.5)
        assert model_z(model, 1.0) == pytest.approx(0.0)

    def test_two_phase_map(self):
        p1 = MaxwellPhase(G=12000)
        p2 = MaxwellPhase(G=6000, eta=20000)
        model = SystemModel.two_phase(p1, p2)
        w = 0.5
        c1, c2 = p1.modulus(w), p2.modulus(w)
        assert model_z(model, w) == pytest.approx((c1 + c2) / (c1 - c2))
        assert model_c(model, w) == pytest.approx(c2)

    def test_zero_frequency_rejected(self):
        for model in (SystemModel.lossy_dielectric(), SystemModel.plasma()):
            with pytest.raises(SingularFrequencyError):
                model_z(model, 0.0)

    def test_custom_map_allows_zero(self):
        model = SystemModel.custom(lambda w: 2.0 + w)
        assert model_z(model, 0.0) == 2.0

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            SystemModel.lossy_dielectric(0.0)


class TestTimeGrid:
    def test_times_linspace(self):
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=5)
        assert np.allclose(grid.times, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_t0_outside_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(t_start=0.0, t_end=1.0, steps=3, t0=2.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(t_start=1.0, t_end=0.0, steps=3)


class TestSynthesisAndSimulation:
    def test_response_at_t0_is_measure_independent(self):
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-5.0, t_end=1.0, steps=61, t0=0.0)
        i0 = int(np.argmin(np.abs(grid.times - grid.t0)))
        rng = np.random.default_rng(4)
        for _ in range(50):
            atoms = rng.uniform(-1, 1, 3)
            w = rng.uniform(0.05, 1, 3)
            mu = DiscreteMeasure(atoms=tuple(atoms), weights=tuple(w / w.sum()))
            v = simulate_response(design, model, OMEGAS, mu, grid)
            assert abs(v[i0] - model.a0) <= model.a0 * design.epsilon + 1e-9

    def test_input_and_response_are_consistent(self):
        # v(t) equals the per-frequency filter a0 c(w) F(z(w)) applied to
        # each input component
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-2.0, t_end=1.0, steps=31, t0=0.0)
        u = synthesize_input(design, model, OMEGAS, grid)
        v = simulate_response(design, model, OMEGAS, MU, grid)
        parts = np.zeros_like(u)
        for w in OMEGAS:
            c = model_c(model, w)
            f = markov_eval(MU, model_z(model, w))
            k = np.where(OMEGAS == w)[0][0]
            beta = design.alphas[k] / c
            parts += model.a0 * c * f * beta * np.exp(-1j * w * (grid.times - grid.t0))
        assert np.allclose(v, parts, rtol=1e-10, atol=1e-12)

    def test_frequency_count_mismatch_rejected(self):
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=11)
        with pytest.raises(ValueError):
            synthesize_input(design, model, OMEGAS[:2], grid)

    def test_single_frequency_response_shape(self):
        model = SystemModel.lossy_dielectric()
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=11)
        v0 = single_frequency_response(model, 0.7j, MU, grid)
        assert v0.shape == grid.times.shape
        f0 = markov_eval(MU, model_z(model, 0.7j))
        assert v0[5] == pytest.approx(model.a0 * f0)  # t = t0 = 0


class TestCrestRatio:
    def test_at_least_one(self):
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-5.0, t_end=0.0, steps=101, t0=0.0)
        ratio = crest_ratio(design.alphas, model, OMEGAS, grid, MU)
        assert ratio >= 1.0 - 1e-12

    def test_ratio_is_one_when_only_t0_sampled(self):
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=1.0, t_end=2.0, steps=11, t0=1.0)
        ratio = crest_ratio(design.alphas, model, OMEGAS, grid, MU)
        assert ratio == pytest.approx(1.0)


class TestResponseBounds:
    GRID = TimeGrid(t_start=-3.0, t_end=1.0, steps=21, t0=0.0)

    def test_infeasible_moments_rejected(self):
        model, design = dielectric_setup()
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [1.5], 0.0, self.GRID)
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [0.5, 0.1], 0.0, self.GRID)
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [0.1, 0.2, 0.3], 0.0, self.GRID)

    def test_bounds_are_ordered(self):
        model, design = dielectric_setup()
        lower, upper = response_bounds(design, model, OMEGAS, [], 0.0, self.GRID)
        assert np.all(lower <= upper)

    def test_moment_information_tightens(self):
        model, design = dielectric_setup()
        l0, u0 = response_bounds(design, model, OMEGAS, [], 0.0, self.GRID)
        l1, u1 = response_bounds(design, model, OMEGAS, [0.4], 0.0, self.GRID)
        l2, u2 = response_bounds(design, model, OMEGAS, [0.4, 0.4 ** 2], 0.0, self.GRID)
        pad = 1e-6
        assert np.all(l0 <= l1 + pad) and np.all(u1 <= u0 + pad)
        assert np.all(l1 <= l2 + pad) and np.all(u2 <= u1 + pad)

    def test_sandwich_against_matched_measures(self):
        model, design = dielectric_setup()
        lower, upper = response_bounds(design, model, OMEGAS, [0.4], 0.0, self.GRID)
        for seed in range(30):
            mu = random_measure_with_moments(0.4, 4, seed)
            v = simulate_response(design, model, OMEGAS, mu, self.GRID)
            assert np.all(lower - 1e-9 <= v.real)
            assert np.all(v.real <= upper + 1e-9)

    def test_theta_rotates_the_functional(self):
        model, design = dielectric_setup()
        lower, upper = response_bounds(design, model, OMEGAS, [0.4],
                                       np.pi / 2, self.GRID)
        for seed in range(10):
            mu = random_measure_with_moments(0.4, 4, seed)
            v = simulate_response(design, model, OMEGAS, mu, self.GRID)
            rotated = (np.exp(1j * np.pi / 2) * v).real
            assert np.all(lower - 1e-9 <= rotated)
            assert np.all(rotated <= upper + 1e-9)

    def test_moments_design_pinch_uses_known_moments(self):
        # a moments(1) design pinches v(t0)/a0 to gamma_0 + gamma_1 M1
        model = SystemModel.lossy_dielectric(0.6)
        poles = PoleSet(points=tuple(model_z(model, w) for w in OMEGAS))
        design = design_moments(poles, 1)
        lower, upper = response_bounds(design, model, OMEGAS, [0.4], 0.0, self.GRID)
        i0 = int(np.argmin(np.abs(self.GRID.times - self.GRID.t0)))
        target = model.a0 * (design.gammas[0].real + design.gammas[1].real * 0.4)
        assert lower[i0] <= target <= upper[i0]
        assert upper[i0] - lower[i0] <= 2 * model.a0 * design.epsilon + 1e-6

    @pytest.mark.parametrize("known, atoms, weights", [
        ([1.0], (1.0,), (1.0,)),
        ([-1.0], (-1.0,), (1.0,)),
        ([0.4, 0.16], (0.4,), (1.0,)),
        ([0.0, 1.0], (-1.0, 1.0), (0.5, 0.5)),
    ])
    def test_degenerate_moments_enclose_the_only_measure(self, known, atoms, weights):
        model, design = dielectric_setup()
        lower, upper = response_bounds(design, model, OMEGAS, known, 0.0, self.GRID)
        mu = DiscreteMeasure(atoms=atoms, weights=weights)
        v = simulate_response(design, model, OMEGAS, mu, self.GRID).real
        _, _, curvature = integrand(design, OMEGAS, 0.0, self.GRID.times, self.GRID.t0)
        assert np.all(lower <= v) and np.all(v <= upper)
        assert np.all(upper - lower <= 2e-6 * model.a0 * curvature)

    @pytest.mark.parametrize("name, t", [("fig6_freq_target", -3.5), ("fig5_plasma", -5.2)])
    def test_envelope_encloses_grid_extremum(self, name, t):
        # the exact extremum over the atom grid with first moment M1 is a
        # two-atom measure lam_i < M1 < lam_j: a chord of g between them
        model, omegas, design, grid = scenario_setup(name)
        m1 = 0.4
        lower, upper = response_bounds(design, model, omegas, [m1], 0.0, grid)
        i = int(np.argmin(np.abs(grid.times - t)))
        g, magnitude, _ = integrand(design, omegas, 0.0, grid.times[i:i + 1], grid.t0)
        left, right = ATOMS < m1, ATOMS > m1
        la, lb = ATOMS[left][:, None], ATOMS[right][None, :]
        chord = (g[0, left][:, None] * (lb - m1) + g[0, right][None, :] * (m1 - la)) / (lb - la)
        tol = 1e-12 * model.a0 * magnitude[0]
        assert lower[i] <= model.a0 * chord.min() + tol
        assert upper[i] >= model.a0 * chord.max() - tol

    @pytest.mark.parametrize("known", [[0.4], [0.4, 0.3]])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_bounds_match_grid_linear_program(self, known, theta):
        # weak duality makes the bounds valid; the primal LP over the same
        # atom grid pins how tight they are
        from scipy.optimize import linprog

        model, omegas, design, _ = scenario_setup("fig4_dielectric")
        grid = TimeGrid(t_start=-8.0, t_end=2.0, steps=11, t0=0.0)
        lower, upper = response_bounds(design, model, omegas, known, theta, grid)
        g, _, curvature = integrand(design, omegas, theta, grid.times, grid.t0)
        a_eq = np.vstack([ATOMS ** p for p in range(len(known) + 1)])
        b_eq = [1.0, *known]
        for i in range(grid.steps):
            lo = linprog(g[i], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            hi = linprog(-g[i], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            assert lo.success and hi.success
            tol = 1e-6 * model.a0 * curvature[i]
            assert abs(lower[i] - model.a0 * lo.fun) <= tol
            assert abs(upper[i] + model.a0 * hi.fun) <= tol
