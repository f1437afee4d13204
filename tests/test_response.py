import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovdesign import cli, response
from markovdesign.design import DesignError, PoleSet, design_moments, design_unit
from markovdesign.geometry import segment_distance
from markovdesign.measure import DiscreteMeasure, markov_eval, random_measure_with_moments
from markovdesign.response import (
    InfeasibleMomentsError,
    MaxwellPhase,
    SingularFrequencyError,
    SystemModel,
    TimeGrid,
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
    return scenario_parts(cli.load_scenario(str(SCENARIO_DIR / f"{name}.json")))


def scenario_parts(scenario):
    model = cli.build_model(scenario)
    omegas = cli.parse_frequencies(scenario)
    design = cli.build_design(scenario, model, omegas)
    return model, omegas, design, cli.build_grid(scenario)


def ellipse_omegas(m):
    """Frequencies that the lossy-dielectric map z = 2 + i/omega sends to m
    points of the ellipse 1.9 cos + 0.9i sin."""
    phi = 2.0 * np.pi * np.arange(m) / m + 0.1
    return 1j / (1.9 * np.cos(phi) + 0.9j * np.sin(phi) - 2.0)


def integrand(design, omegas, theta, times, t0, atoms=ATOMS):
    """g_t(lambda) = Re sum_k c_k(t) / (lambda - z_k) on the atoms, one row per
    time, with the scales a0 multiplies: sum_k |c_k(t)| / d_k (magnitude) and
    sum_k |c_k(t)| / d_k**3 (curvature)."""
    z = design.poles.array
    coeffs = design.alphas * np.exp(1j * theta) * np.exp(-1j * np.outer(times - t0, omegas))
    g = (coeffs[:, :, None] / (atoms[None, None, :] - z[None, :, None])).real.sum(axis=1)
    d = np.array([segment_distance(zk) for zk in z])
    return g, np.abs(coeffs) @ (1.0 / d), np.abs(coeffs) @ (1.0 / d ** 3)


def chord_extremes(g, atoms, m1):
    """Min and max, for each row of g, of the chord at m1 over atom pairs
    lam_i <= m1 <= lam_j: the exact extremes of the integral of g over the
    measures on the atoms with first moment m1 (an atom at m1 is its own
    chord)."""
    left, right = atoms <= m1, atoms >= m1
    la, lb = atoms[left][:, None], atoms[right][None, :]
    span = np.where(lb > la, lb - la, 1.0)
    lo, hi = [], []
    for row in g:
        ga, gb = row[left][:, None], row[right][None, :]
        chord = np.where(lb > la, (ga * (lb - m1) + gb * (m1 - la)) / span, ga)
        lo.append(chord.min())
        hi.append(chord.max())
    return np.array(lo), np.array(hi)


def assert_one_moment_bounds_exact(model, design, omegas, m1, theta, grid, atoms=ATOMS):
    # the bounds are a0 times the exact grid extremes shifted outward by the
    # pad a0 (2 sum_k |c_k|/d_k**3) h^2 / 8, to rounding
    lower, upper = response_bounds(design, model, omegas, [m1], theta, grid,
                                   atom_grid_size=atoms.size)
    g, magnitude, curvature = integrand(design, omegas, theta, grid.times, grid.t0, atoms)
    lo, hi = chord_extremes(g, atoms, m1)
    pad = 2.0 * curvature * (atoms[1] - atoms[0]) ** 2 / 8.0
    tol = 1e-12 * model.a0 * magnitude
    assert np.all(np.abs(lower - model.a0 * (lo - pad)) <= tol)
    assert np.all(np.abs(upper - model.a0 * (hi + pad)) <= tol)


def band_extremes(g, atoms, m1, m2, band):
    """Min and max, for each row of g, of the integral of g over the measures
    on the atoms with mass 1, first moment m1 and second moment within band of
    m2, by brute force over their vertices: three atoms with the second moment
    at an end of the band, or two atoms (one, at m1) inside it."""
    lo, hi = np.full(g.shape[0], np.inf), np.full(g.shape[0], -np.inf)
    for size in (1, 2, 3):
        support = np.array(list(itertools.combinations(range(atoms.size), size)),
                           dtype=int).reshape(-1, size)
        powers = atoms[support][:, None, :] ** np.arange(3)[None, :, None]
        for target in ((m2 - band, m2 + band) if size == 3 else (m2,)):
            rhs = np.tile([1.0, m1, target][:size], (len(support), 1))
            weights = np.linalg.solve(powers[:, :size], rhs[..., None])[..., 0]
            got = np.einsum("pks,ps->pk", powers, weights)
            ok = ((weights.min(axis=1) >= -1e-12) & (np.abs(got[:, 1] - m1) <= 1e-12)
                  & (np.abs(got[:, 2] - m2) <= band + 1e-12))
            values = np.einsum("tps,ps->tp", g[:, support[ok]], weights[ok])
            if values.size:
                lo, hi = np.minimum(lo, values.min(axis=1)), np.maximum(hi, values.max(axis=1))
    return lo, hi


def assert_two_moment_bounds_exact(model, design, omegas, known, theta, grid, atoms):
    # the best certificate has multipliers that solve the grid linear program
    # whose second moment may miss M2 by h^2 / 4, the dual of the pad's
    # 2|c| h^2 / 8: the bounds are a0 times its extremes shifted outward by
    # the rest of the pad, a0 (2 sum_k |c_k|/d_k**3) h^2 / 8, to rounding
    lower, upper = response_bounds(design, model, omegas, known, theta, grid,
                                   atom_grid_size=atoms.size)
    g, magnitude, curvature = integrand(design, omegas, theta, grid.times, grid.t0, atoms)
    h = atoms[1] - atoms[0]
    lo, hi = band_extremes(g, atoms, *known, h * h / 4.0)
    pad = 2.0 * curvature * h * h / 8.0
    tol = 1e-12 * model.a0 * magnitude
    assert np.all(np.abs(lower - model.a0 * (lo - pad)) <= tol)
    assert np.all(np.abs(upper - model.a0 * (hi + pad)) <= tol)


def assert_warm_start_matches_cold(model, design, omegas, known, theta, grid):
    # the coarse phase only chooses where the full-grid simplex starts: warm
    # and cold starts both end on the grid optimum, to rounding
    warm = response_bounds(design, model, omegas, known, theta, grid)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(response, "_COARSE_STEP", 1)  # the coarse phase is the whole grid
        cold = response_bounds(design, model, omegas, known, theta, grid)
    _, magnitude, _ = integrand(design, omegas, theta, grid.times, grid.t0)
    tol = 1e-12 * model.a0 * magnitude
    assert np.all(np.abs(warm[0] - cold[0]) <= tol)
    assert np.all(np.abs(warm[1] - cold[1]) <= tol)


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
        for G, eta in [(-1.0, None), (1.0, 0.0), (float("nan"), None),
                       (float("inf"), None), (1.0, float("nan"))]:
            with pytest.raises(ValueError):
                MaxwellPhase(G=G, eta=eta)


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
        for a0 in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SystemModel.lossy_dielectric(a0)


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

    def test_single_step_rejected(self):
        with pytest.raises(ValueError, match="2 time steps"):
            TimeGrid(t_start=0.0, t_end=1.0, steps=1)

    @pytest.mark.parametrize("t_start, t_end", [
        (-1.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (-1.0, np.nan)])
    def test_non_finite_interval_rejected(self, t_start, t_end):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_start=t_start, t_end=t_end, steps=3)

    def test_overflowing_span_rejected(self):
        # both ends are finite but t_end - t_start is not: linspace gave NaN times
        with pytest.raises(ValueError, match="finite span"):
            TimeGrid(t_start=-1e308, t_end=1e308, steps=3)
        assert np.isfinite(TimeGrid(t_start=-8e307, t_end=8e307, steps=3).times).all()


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

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("function, args", [
        (synthesize_input, ()),
        (simulate_response, (MU,)),
        (response_bounds, ([0.4], 0.0)),
    ], ids=["synthesize_input", "simulate_response", "response_bounds"])
    def test_frequency_count_mismatch_rejected(self, function, args, size):
        # three poles: one frequency would broadcast against them unchecked
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=11)
        with pytest.raises(ValueError, match="one frequency per design pole"):
            function(design, model, OMEGAS[:size], *args, grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    @pytest.mark.parametrize("call", [
        lambda design, model, omegas, grid: synthesize_input(design, model, omegas, grid),
        lambda design, model, omegas, grid: simulate_response(design, model, omegas, MU, grid),
        lambda design, model, omegas, grid: response_bounds(design, model, omegas, [0.4], 0.0,
                                                            grid),
    ], ids=["synthesize_input", "simulate_response", "response_bounds"])
    def test_non_finite_frequency_rejected(self, call, bad):
        # a NaN frequency gave a NaN response
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=11)
        with pytest.raises(ValueError, match="frequencies must be finite"):
            call(design, model, np.r_[OMEGAS[:2], bad], grid)

    def test_vanishing_input_scale_rejected(self):
        # c(omega) = 0 leaves the input amplitude alpha_k / c(omega_k) undefined
        _, design = dielectric_setup()
        model = SystemModel.custom(lambda w: 2.0 + 1j / w, lambda w: 0j)
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=11)
        with pytest.raises(ValueError, match=r"c\(omega_k\) = 0"):
            synthesize_input(design, model, OMEGAS, grid)

    def test_phase_overflow_raises(self):
        # exp(Im omega (t - t0)) is finite up to log(DBL_MAX) = 709.78... and
        # inf one float past it; omega = i makes Im omega (t - t0) = t exactly
        omegas, t0 = np.array([0.5, 1j]), 0.0
        top = np.log(np.finfo(float).max)
        assert np.isfinite(response._phases(omegas, np.array([-1e4, 0.0, top]), t0)).all()
        for late in (710.0, np.nextafter(top, np.inf)):
            with pytest.raises(OverflowError, match="above about 709"):
                response._phases(omegas, np.array([0.0, late]), t0)

    def test_infinite_phase_angle_raises(self):
        # omega (t - t0) = 1e400: the phase has modulus 1, but its angle is
        # infinite and exp would return NaN; refused before the product
        # overflows, so numpy warns of nothing (pytest turns a warning into
        # an error)
        with pytest.raises(OverflowError, match="past the float range"):
            response._phases(np.array([1e200]), np.array([-1e200, 0.0]), 0.0)

    def test_phase_product_bound_is_exact(self):
        # the largest |Re or Im omega| times the largest |t - t0| may reach
        # DBL_MAX; the next float up overflows.  Accepted inputs give the
        # phases of the unguarded formula, bit for bit
        top = np.finfo(float).max
        for omegas in (np.array([top / 2.0, -1.0]), np.array([-1.0, 1j * top / 2.0])):
            times = np.array([-2.0, 0.0])
            assert np.array_equal(response._phases(omegas, times, 0.0),
                                  np.exp(-1j * omegas[:, None] * times[None, :]))
            with pytest.raises(OverflowError, match="past the float range"):
                response._phases(omegas, np.array([np.nextafter(-2.0, -np.inf), 0.0]), 0.0)

    @pytest.mark.parametrize("call", [
        lambda design, model, grid: synthesize_input(design, model, OMEGAS, grid),
        lambda design, model, grid: simulate_response(design, model, OMEGAS, MU, grid),
        lambda design, model, grid: single_frequency_response(model, OMEGAS[0], MU, grid),
        lambda design, model, grid: response_bounds(design, model, OMEGAS, [0.4], 0.0, grid),
    ], ids=["synthesize_input", "simulate_response", "single_frequency_response",
            "response_bounds"])
    def test_overflowing_grid_raises(self, call):
        # Im omega_1 = 1 and t - t0 up to 1500: these returned NaN and inf
        model, design = dielectric_setup()
        grid = TimeGrid(t_start=-8.0, t_end=1500.0, steps=101)
        with pytest.raises(OverflowError, match="exp"):
            call(design, model, grid)

    def test_single_frequency_response_shape(self):
        model = SystemModel.lossy_dielectric()
        grid = TimeGrid(t_start=-1.0, t_end=1.0, steps=11)
        v0 = single_frequency_response(model, 0.7j, MU, grid)
        assert v0.shape == grid.times.shape
        f0 = markov_eval(MU, model_z(model, 0.7j))
        assert v0[5] == pytest.approx(model.a0 * f0)  # t = t0 = 0


class TestPricingProducts:
    """_products prices rows against a padded atom block, a few rows at a
    time, for the simplex and for the envelopes with no known moment."""

    @pytest.mark.parametrize("count", [1, 2, 7])
    @pytest.mark.parametrize("size", [1, 1 << 20, 1 << 40], ids=["two_rows", "default", "one"])
    def test_blocks_cover_every_row_in_order(self, monkeypatch, size, count):
        rng = np.random.default_rng(count)
        atoms = rng.standard_normal((6, 37))
        rows = rng.standard_normal((count, 6))
        monkeypatch.setattr(response, "_PRICE_BYTES", size)
        blocks = response._products(atoms, count)
        # columns past the last atom repeat it, up to a multiple of 16
        wide = np.hstack([atoms, np.repeat(atoms[:, -1:], 11, axis=1)])
        for live in range(1, count + 1):  # the simplex prices ever fewer rows
            step = 2 if size == 1 else live  # an even row count, or all rows at once
            seen = 0
            for lo, part in blocks(rows[:live]):
                assert lo == seen and part.shape == (min(step, live - lo), 48)
                assert np.allclose(part, rows[lo:lo + len(part)] @ wide, rtol=1e-13, atol=1e-13)
                seen += len(part)
            assert seen == live

    def test_buffer_is_sized_by_the_rows_it_prices(self, monkeypatch):
        # 2**40 bytes is one block of every row: the buffer holds two rows
        # of 2,064 columns, not 2**40 bytes
        monkeypatch.setattr(response, "_PRICE_BYTES", 1 << 40)
        atoms = np.ones((4, 2049))
        tracemalloc.start()
        try:
            blocks = response._products(atoms, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        [(lo, part)] = list(blocks(np.ones((2, 4))))
        assert lo == 0 and part.shape == (2, 2064) and np.all(part == 4.0)


class TestResponseBounds:
    GRID = TimeGrid(t_start=-3.0, t_end=1.0, steps=21, t0=0.0)

    def test_infeasible_moments_rejected(self):
        model, design = dielectric_setup()
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [1.5], 0.0, self.GRID)
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [float("nan")], 0.0, self.GRID)
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [0.5, 0.1], 0.0, self.GRID)
        with pytest.raises(InfeasibleMomentsError):
            response_bounds(design, model, OMEGAS, [0.1, 0.2, 0.3], 0.0, self.GRID)

    @pytest.mark.parametrize("size", [0, 1])
    def test_atom_grid_below_two_rejected(self, size):
        model, design = dielectric_setup()
        with pytest.raises(ValueError, match="atom_grid_size"):
            response_bounds(design, model, OMEGAS, [], 0.0, self.GRID, atom_grid_size=size)

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("known", [[], [0.4], [0.4, 0.3]])
    def test_non_finite_theta_rejected(self, known, theta):
        # it gave all-NaN envelopes
        model, design = dielectric_setup()
        with pytest.raises(ValueError, match="theta must be finite"):
            response_bounds(design, model, OMEGAS, known, theta, self.GRID)

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

    @pytest.mark.parametrize("known", [[], [0.4], [0.4, 0.3]])
    def test_half_turn_swaps_and_negates_the_envelope(self, known):
        # Re[e^{i(theta + pi)} v] = -Re[e^{i theta} v]: its lower bound is
        # minus the upper one at theta and vice versa, so the rows of -g_t
        # map back to the upper envelope with the right sign
        model, omegas, design, grid = scenario_setup("fig4_dielectric")
        lower, upper = response_bounds(design, model, omegas, known, 1.0, grid)
        flip_lower, flip_upper = response_bounds(design, model, omegas, known, 1.0 + np.pi, grid)
        _, magnitude, _ = integrand(design, omegas, 1.0, grid.times, grid.t0)
        tol = 1e-12 * model.a0 * magnitude
        assert np.all(np.abs(flip_lower + upper) <= tol)
        assert np.all(np.abs(flip_upper + lower) <= tol)

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
        lo, hi = chord_extremes(g, ATOMS, m1)
        tol = 1e-12 * model.a0 * magnitude[0]
        assert lower[i] <= model.a0 * lo[0] + tol
        assert upper[i] >= model.a0 * hi[0] - tol

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

    @pytest.mark.parametrize("m1", [0.4, 0.5, 0.0, -0.999])  # 0.5 and 0.0 are atoms
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["fig3_visco", "fig4_dielectric", "fig5_plasma",
                                      "fig6_freq_target"])
    def test_one_moment_bounds_are_the_exact_grid_extremes(self, name, theta, m1):
        # the exchange over s ends on the optimal chord, not near it.  On
        # these 7 times, fig3 with theta = 1 and M1 = 0.5 starts from chords
        # past the optimum: a stop rule that held the second pass to the
        # first would end it early
        model, omegas, design, grid = scenario_setup(name)
        coarse = TimeGrid(t_start=grid.t_start, t_end=grid.t_end, steps=7, t0=grid.t0)
        assert_one_moment_bounds_exact(model, design, omegas, m1, theta, coarse)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["fig3_visco", "fig4_dielectric", "fig5_plasma",
                                      "fig6_freq_target"])
    def test_no_moment_bounds_are_the_grid_extremes(self, name, theta):
        # with no known moment the best measure is a point mass on the grid
        model, omegas, design, grid = scenario_setup(name)
        lower, upper = response_bounds(design, model, omegas, [], theta, grid)
        g, magnitude, curvature = integrand(design, omegas, theta, grid.times, grid.t0)
        pad = 2.0 * curvature * (ATOMS[1] - ATOMS[0]) ** 2 / 8.0
        tol = 1e-12 * model.a0 * magnitude
        assert np.all(np.abs(lower - model.a0 * (g.min(axis=1) - pad)) <= tol)
        assert np.all(np.abs(upper - model.a0 * (g.max(axis=1) + pad)) <= tol)

    @pytest.mark.parametrize("m1", [-0.9, 0.0, 0.4, 0.97])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.5])
    def test_one_pass_is_exact_on_convex_and_concave_rows(self, monkeypatch, theta, m1):
        # one real pole z = -1.125 (the plasma map at omega = 0.8): each g_t is
        # Re c(t) / (lambda + 1.125), convex or concave, so Jensen's pair or
        # the two ends is its optimum and the starting basis needs no pivot
        model = SystemModel.plasma(0.6)
        omegas = [0.8]
        design = design_unit(PoleSet(points=(model_z(model, omegas[0]),)))
        monkeypatch.setattr(response, "_EXCHANGE_PASSES", 1)
        assert_one_moment_bounds_exact(model, design, omegas, m1, theta, self.GRID)

    @pytest.mark.filterwarnings("ignore:d_min")  # the certificate, not the bounds
    @settings(max_examples=40, deadline=None)
    @given(poles=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
                                     st.floats(0.1, 3.0)), min_size=1, max_size=6),
           theta=st.floats(0.0, 2.0 * np.pi),
           m1=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def test_one_moment_bounds_are_exact_for_random_poles(self, poles, theta, m1):
        # any start and any pivots: the bounds end on the optimal chord
        points = [complex(x, y) for x, y, _ in poles]
        assume(all(segment_distance(z) >= 0.1 for z in points))
        try:
            design = design_unit(PoleSet(points=tuple(points)))
        except DesignError:  # coincident poles
            assume(False)
        model = SystemModel.lossy_dielectric(0.6)
        assert_one_moment_bounds_exact(model, design, [w for _, _, w in poles], m1, theta,
                                       self.GRID, np.linspace(-1.0, 1.0, 65))

    @pytest.mark.parametrize("known", [[0.4, 0.3], [0.0, 0.5], [-0.6, 0.5]])
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["fig3_visco", "fig4_dielectric", "fig5_plasma",
                                      "fig6_freq_target"])
    def test_two_moment_bounds_are_the_exact_grid_extremes(self, name, theta, known):
        # the simplex ends on the optimal basis: on 65 atoms the bounds match
        # a brute force over all 4.4e4 atom triples
        model, omegas, design, grid = scenario_setup(name)
        coarse = TimeGrid(t_start=grid.t_start, t_end=grid.t_end, steps=7, t0=grid.t0)
        assert_two_moment_bounds_exact(model, design, omegas, known, theta, coarse,
                                       np.linspace(-1.0, 1.0, 65))

    @pytest.mark.parametrize("known", [[0.4, 0.3], [0.0, 0.5], [-0.6, 0.5], [0.4, 0.16],
                                       [0.4, 0.16 + 1e-6], [0.3, 0.09 + 2e-6]])
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["fig3_visco", "fig4_dielectric", "fig5_plasma",
                                      "fig6_freq_target"])
    def test_two_moment_warm_start_matches_cold_start(self, monkeypatch, name, theta, known):
        # on the default 2,049 atoms the simplex first runs on every 8th atom
        # (257) and Jensen's pair, then on the full grid from the bases it
        # ended on; the cold reference runs on the full grid twice.  Variances
        # under (4h)^2, down to none, run the coarse phase too
        model, omegas, design, grid = scenario_setup(name)
        sizes, solve = [], response._best_certificate
        monkeypatch.setattr(response, "_best_certificate",
                            lambda atoms, *rest: sizes.append(atoms.shape[1])
                            or solve(atoms, *rest))
        assert_warm_start_matches_cold(model, design, omegas, known, theta, grid)
        assert 257 <= sizes[0] <= 259 and sizes[1:] == [ATOMS.size] * 3

    @settings(max_examples=300, deadline=None)
    @given(size=st.sampled_from([2, 3, 5, 65, 2049]),
           m1=st.floats(-1.0, 1.0),
           scale=st.sampled_from(["zero", "tiny", "below_coarse", "any"]),
           share=st.floats(0.0, 1.0))
    def test_starting_basis_is_a_measure_on_the_coarse_atoms(self, size, m1, scale, share):
        # every 8th atom, Jensen's pair p <= M1 < q and the two ends: the
        # pair's variance is at most the band h^2 / 4, so the sigma-rounded
        # triple is a measure at every variance, with no guard
        lam = np.linspace(-1.0, 1.0, size)
        h, top = lam[1] - lam[0], 1.0 - m1 * m1
        var = min(share * {"zero": 0.0, "tiny": 1e-9 * h * h, "below_coarse": (4.0 * h) ** 2,
                           "any": top}[scale], top)
        p = min(int(np.flatnonzero(lam <= m1)[-1]), size - 2)
        coarse = np.union1d(np.r_[0:size:8], [p, p + 1, 0, size - 1])
        band = h * h / 4.0
        atoms, signs = response._starting_basis(lam[coarse], int(np.searchsorted(coarse, p)),
                                                m1, var, band)
        assert len(atoms) == len(signs) == 3
        assert all(0 <= a < coarse.size for a in atoms) and set(signs) <= {-1.0, 1.0}
        u = lam[coarse][atoms] - m1
        matrix = np.vstack([np.ones(3), u, u * u - var + band * np.array(signs)])
        weights = np.linalg.solve(matrix, [1.0, 0.0, 0.0])
        assert weights.min() >= -1e-12
        assert abs(weights.sum() - 1.0) <= 1e-12 and abs(weights @ u) <= 1e-12
        assert abs(weights @ (u * u) - var) <= band + 1e-12

    @pytest.mark.filterwarnings("ignore:d_min")  # the certificate, not the bounds
    @settings(max_examples=30, deadline=None)
    @given(poles=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0),
                                     st.floats(0.1, 3.0)), min_size=1, max_size=6),
           theta=st.floats(0.0, 2.0 * np.pi),
           m1=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           spread=st.floats(0.0, 1.0))
    def test_two_moment_warm_start_matches_cold_start_for_random_poles(self, poles, theta,
                                                                        m1, spread):
        points = [complex(x, y) for x, y, _ in poles]
        assume(all(segment_distance(z) >= 0.1 for z in points))
        try:
            design = design_unit(PoleSet(points=tuple(points)))
        except DesignError:  # coincident poles
            assume(False)
        model = SystemModel.lossy_dielectric(0.6)
        known = [m1, m1 * m1 + spread * (1.0 - m1 * m1)]
        assert_warm_start_matches_cold(model, design, [w for _, _, w in poles], known, theta,
                                       self.GRID)

    @pytest.mark.parametrize("known", [[0.4, 0.16], [0.4, 0.17], [0.3, 0.09]])
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_two_moment_bounds_are_exact_below_the_coarse_variance(self, theta, known):
        # on 65 atoms a measure on every 8th atom (0.25 apart) alone has
        # variance at least 0.15 * 0.1 about the mean 0.4 and 0.05 * 0.2
        # about 0.3, so none has these moments; the coarse phase runs on
        # Jensen's pair too, whose measures do, and hands the full grid a
        # feasible basis that ends on the optimum even at M2 = M1^2
        model, omegas, design, grid = scenario_setup("fig4_dielectric")
        coarse = TimeGrid(t_start=grid.t_start, t_end=grid.t_end, steps=7, t0=grid.t0)
        assert_two_moment_bounds_exact(model, design, omegas, known, theta, coarse,
                                       np.linspace(-1.0, 1.0, 65))

    @pytest.mark.parametrize("m1", [-1.0, 0.4, 1.0])
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_tiny_atom_grids(self, size, m1):
        # the pair around M1 may be the grid's ends, or hold M1 itself
        model, design = dielectric_setup()
        atoms = np.linspace(-1.0, 1.0, size)
        assert_one_moment_bounds_exact(model, design, OMEGAS, m1, 0.0, self.GRID, atoms)
        assert_two_moment_bounds_exact(model, design, OMEGAS, [m1, max(m1 * m1, 0.3)], 0.0,
                                       self.GRID, atoms)
        lower, upper = response_bounds(design, model, OMEGAS, [], 0.0, self.GRID,
                                       atom_grid_size=size)
        assert np.all(lower <= upper)

    @pytest.mark.parametrize("known, atoms, weights", [
        ([0.4, 0.16], (0.4,), (1.0,)),
        ([0.4, 0.16 - 1e-13], (0.4,), (1.0,)),  # M2 < M1^2 within the accepted 1e-12
        ([0.0, 1.0], (-1.0, 1.0), (0.5, 0.5)),
        ([1.0, 1.0], (1.0,), (1.0,)),
        ([-1.0, 1.0], (-1.0,), (1.0,)),
    ])
    def test_degenerate_second_moments_enclose_the_only_measure(self, known, atoms, weights):
        # each admits one measure, so the width is about the two pads,
        # 1.29e-5 here
        model, design = dielectric_setup()
        lower, upper = response_bounds(design, model, OMEGAS, known, 0.0, self.GRID)
        mu = DiscreteMeasure(atoms=atoms, weights=weights)
        v = simulate_response(design, model, OMEGAS, mu, self.GRID).real
        assert np.all(lower <= v) and np.all(v <= upper)
        assert np.max(upper - lower) <= 1.29e-5

    @pytest.mark.parametrize("known", [[0.4], [0.4, 0.3]])
    def test_capped_exchange_stays_valid(self, monkeypatch, known):
        # one pass: the starting basis's certificate, looser but still valid.
        # On 7 times every one-moment row of fig4 at M1 = 0.4 starts optimal
        # from Jensen's pair or the two ends; on 11 some row does not.  The
        # cap holds each phase of the two-moment simplex: on these 65 atoms
        # its coarse phase on every 8th atom pivots once too, so the full
        # grid starts one pivot from the sigma-rounded triple
        model, omegas, design, grid = scenario_setup("fig4_dielectric")
        steps = 11 if len(known) == 1 else 7
        coarse = TimeGrid(t_start=grid.t_start, t_end=grid.t_end, steps=steps, t0=grid.t0)
        atoms = np.linspace(-1.0, 1.0, 65)
        full = response_bounds(design, model, omegas, known, 0.0, coarse, atom_grid_size=65)
        monkeypatch.setattr(response, "_EXCHANGE_PASSES", 1)
        lower, upper = response_bounds(design, model, omegas, known, 0.0, coarse,
                                       atom_grid_size=65)
        g, magnitude, _ = integrand(design, omegas, 0.0, coarse.times, coarse.t0, atoms)
        if len(known) == 1:
            lo, hi = chord_extremes(g, atoms, known[0])
        else:  # the extremes over the grid measures with exactly these moments
            lo, hi = band_extremes(g, atoms, *known, 0.0)
        tol = 1e-12 * model.a0 * magnitude
        assert np.all(lower <= model.a0 * lo + tol) and np.all(upper >= model.a0 * hi - tol)
        assert np.any(lower < full[0] - tol) or np.any(upper > full[1] + tol)

    @pytest.mark.parametrize("known", [[0.4], [0.4, 0.3]])
    @pytest.mark.parametrize("m", [12, 24, 48])
    def test_bounds_are_exact_for_many_ellipse_poles(self, m, known):
        # unit designs on m poles of the ellipse: each pass prices the
        # 2m + n rows of the kernel block, up to 98 at m = 48
        omegas = ellipse_omegas(m)
        model = SystemModel.lossy_dielectric(0.6)
        design = design_unit(PoleSet(points=tuple(model_z(model, w) for w in omegas)))
        grid = TimeGrid(t_start=-2.0, t_end=1.0, steps=7, t0=0.0)
        atoms = np.linspace(-1.0, 1.0, 65)
        if len(known) == 1:
            assert_one_moment_bounds_exact(model, design, omegas, known[0], 0.0, grid, atoms)
        else:
            assert_two_moment_bounds_exact(model, design, omegas, known, 0.0, grid, atoms)

    def test_pricing_blocks_leave_the_bounds_unchanged(self):
        # rows are priced _PRICE_BYTES of products at a time, the grid values
        # of g_t with no known moment as the simplex's reduced costs; one byte
        # gives two-row blocks (the fewest) and 2**40 one block of every row.
        # Padded to whole kernel tiles, with an even row count, each product
        # rounds the same in any block on one BLAS thread, so the envelopes
        # agree bit for bit.  A threaded product is split where a
        # block's size says, and OpenBLAS's Haswell kernels then round some
        # rows otherwise, so the check runs in a one-thread interpreter
        script = textwrap.dedent(f"""
            import numpy as np
            from markovdesign import cli, response
            bad = []
            for name in ["fig3_visco", "fig4_dielectric", "fig5_plasma", "fig6_freq_target"]:
                scenario = cli.load_scenario({str(SCENARIO_DIR)!r} + f"/{{name}}.json")
                model, omegas = cli.build_model(scenario), cli.parse_frequencies(scenario)
                design = cli.build_design(scenario, model, omegas)
                grid = cli.build_grid(scenario)
                for known in ([], [0.4], [0.4, 0.3]):
                    envelopes = []
                    for size in (1 << 20, 1, 1 << 40):
                        response._PRICE_BYTES = size
                        envelopes.append(np.stack(response.response_bounds(
                            design, model, omegas, known, 0.0, grid)))
                    if not all(np.array_equal(e, envelopes[0]) for e in envelopes[1:]):
                        bad.append((name, known))
            assert not bad, bad
        """)
        src = str(Path(response.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONWARNINGS="ignore::UserWarning",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("known", [[0.4], [0.4, 0.3]])
    def test_bounds_enclose_measures_for_48_ellipse_poles(self, known):
        # 48 poles on the ellipse 1.9 cos + 0.9i sin through the
        # lossy-dielectric map, with a moments(8) design: sum_k |c_k|/d_k
        # reaches 1e13, so float64 sums carry errors of about 1e-15 of it
        omegas = ellipse_omegas(48)
        model, omegas, design, grid = scenario_parts({
            "model": {"kind": "lossy_dielectric", "a0": 0.6},
            "frequencies": [[w.real, w.imag] for w in omegas],
            "design": {"mode": "moments", "n": 8},
            "grid": {"t_start": -2.0, "t_end": 1.0, "steps": 13, "t0": 0.0},
        })
        lower, upper = response_bounds(design, model, omegas, known, 0.0, grid)
        _, magnitude, _ = integrand(design, omegas, 0.0, grid.times, grid.t0)
        tol = 1e-13 * model.a0 * magnitude
        assert np.all(lower <= upper)
        if len(known) == 1:
            measures = [random_measure_with_moments(0.4, 4, seed) for seed in range(20)]
        else:  # weights solve the three moment equations M0 = 1, M1, M2
            measures = [DiscreteMeasure(atoms=(-0.5, 0.5, 1.0),
                                        weights=(2.0 / 15.0, 0.8, 1.0 / 15.0))]
        for mu in measures:
            v = simulate_response(design, model, omegas, mu, grid).real
            assert np.all(lower - tol <= v) and np.all(v <= upper + tol)
