"""Time-domain layer: system models, signal synthesis, response simulation,
and rigorous moment-constrained bounds on Re[e^{i theta} v(t)].

A system maps each drive frequency omega to a point z(omega) off [-1,1] and
an amplitude factor c(omega); the response to the multi-frequency input
u(t) = sum beta_k exp(-i omega_k (t - t0)) is
v(t) = a0 sum alpha_k F_mu(z(omega_k)) exp(-i omega_k (t - t0)) with
alpha_k = beta_k c(omega_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .design import SignalDesign
from .geometry import segment_distance
from .measure import DiscreteMeasure, markov_eval


# Batched golden-section search over c, the M2 multiplier; an exchange picks
# the M1 multiplier s for each trial c.  The step count only sets how tight the
# bounds are, never whether they hold.
_GOLDEN_STEPS = 45
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0
# The exchange reaches the grid optimum in about six passes; the cap only ends
# a support that keeps changing on ties.
_EXCHANGE_PASSES = 64
# No bound solves a linear program; the name stays, always None, because the
# perfbench tracer counts calls to ``response.linprog``.
linprog = None


class SingularFrequencyError(ValueError):
    """Built-in model evaluated at a singular frequency (omega = 0)."""


class InfeasibleMomentsError(ValueError):
    """Prescribed moments admit no probability measure on [-1,1]."""


@dataclass(frozen=True)
class MaxwellPhase:
    """Spring G and dashpot eta in series; eta = None means purely elastic."""

    G: float
    eta: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.G < np.inf:
            raise ValueError("shear modulus G must be positive and finite")
        if self.eta is not None and not 0 < self.eta < np.inf:
            raise ValueError("viscosity eta must be positive and finite (or None for elastic)")

    @property
    def elastic(self) -> bool:
        return self.eta is None

    def modulus(self, omega) -> complex:
        """Complex shear modulus under the exp(-i omega t) convention."""
        if self.elastic:
            return complex(self.G)
        omega = complex(omega)
        return 1j * omega * self.eta * self.G / (self.G + 1j * omega * self.eta)


@dataclass(frozen=True)
class SystemModel:
    """Frequency maps omega -> z(omega), omega -> c(omega) and the scale a0."""

    kind: str
    z_fn: Callable[[complex], complex]
    c_fn: Callable[[complex], complex]
    a0: float = 1.0

    def __post_init__(self):
        if not 0 < self.a0 < np.inf:
            raise ValueError("a0 must be positive and finite")

    @classmethod
    def lossy_dielectric(cls, a0: float = 1.0) -> "SystemModel":
        return cls("lossy_dielectric", lambda w: 2.0 + 1j / w, lambda w: 1.0 + 0j, a0)

    @classmethod
    def plasma(cls, a0: float = 1.0) -> "SystemModel":
        return cls("plasma", lambda w: 2.0 - 2.0 / w ** 2, lambda w: 1.0 + 0j, a0)

    @classmethod
    def two_phase(cls, phase1: MaxwellPhase, phase2: MaxwellPhase,
                  a0: float = 1.0) -> "SystemModel":
        def z_fn(w):
            c1, c2 = phase1.modulus(w), phase2.modulus(w)
            return (c1 + c2) / (c1 - c2)

        return cls("two_phase", z_fn, phase2.modulus, a0)

    @classmethod
    def custom(cls, z_fn, c_fn=None, a0: float = 1.0) -> "SystemModel":
        return cls("custom", z_fn, c_fn or (lambda w: 1.0 + 0j), a0)


def model_z(model: SystemModel, omega) -> complex:
    """z(omega), guarding the built-in maps against omega = 0."""
    omega = complex(omega)
    if model.kind != "custom" and omega == 0:
        raise SingularFrequencyError("built-in maps are singular at omega = 0")
    return complex(model.z_fn(omega))


def model_c(model: SystemModel, omega) -> complex:
    omega = complex(omega)
    if model.kind != "custom" and omega == 0:
        raise SingularFrequencyError("built-in maps are singular at omega = 0")
    return complex(model.c_fn(omega))


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    steps: int
    t0: float = 0.0

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise ValueError("t_start must be < t_end")
        if self.steps < 2:
            raise ValueError("need at least 2 time steps")
        if not self.t_start <= self.t0 <= self.t_end:
            raise ValueError("t0 must lie inside the grid")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


def _phases(omegas: np.ndarray, times: np.ndarray, t0: float) -> np.ndarray:
    """exp(-i omega_k (t - t0)) as a (len(omegas), len(times)) array."""
    return np.exp(-1j * omegas[:, None] * (times[None, :] - t0))


def synthesize_input(design: SignalDesign, model: SystemModel,
                     omegas: Sequence[complex], grid: TimeGrid) -> np.ndarray:
    """u(t) = sum_k (alpha_k / c(omega_k)) exp(-i omega_k (t - t0))."""
    omegas = np.asarray(omegas, dtype=complex)
    if omegas.size != design.poles.m:
        raise ValueError("need one frequency per design pole")
    cvals = np.array([model_c(model, w) for w in omegas])
    if np.any(np.abs(cvals) == 0):
        raise ValueError("c(omega_k) = 0: the input amplitude is undefined")
    betas = design.alphas / cvals
    return betas @ _phases(omegas, grid.times, grid.t0)


def simulate_response(design: SignalDesign, model: SystemModel,
                      omegas: Sequence[complex], mu: DiscreteMeasure,
                      grid: TimeGrid) -> np.ndarray:
    """v(t) = a0 sum_k alpha_k F_mu(z(omega_k)) exp(-i omega_k (t - t0))."""
    omegas = np.asarray(omegas, dtype=complex)
    if omegas.size != design.poles.m:
        raise ValueError("need one frequency per design pole")
    fvals = np.array([markov_eval(mu, model_z(model, w)) for w in omegas])
    return model.a0 * (design.alphas * fvals) @ _phases(omegas, grid.times, grid.t0)


def single_frequency_response(model: SystemModel, omega0: complex,
                              mu: DiscreteMeasure, grid: TimeGrid) -> np.ndarray:
    """Response a0 F_mu(z(omega0)) exp(-i omega0 (t - t0)) to the unit-amplitude
    single-frequency input u0(t) = exp(-i omega0 (t - t0))/c(omega0)."""
    f0 = markov_eval(mu, model_z(model, omega0))
    return model.a0 * f0 * np.exp(-1j * complex(omega0) * (grid.times - grid.t0))


def crest_ratio(alphas: Sequence[complex], model: SystemModel,
                omegas: Sequence[complex], grid: TimeGrid,
                reference_mu: DiscreteMeasure,
                real_part_only: bool = False) -> float:
    """max over grid times t <= t0 of |v(t)| / |v(t0)| for a reference measure.

    With real_part_only the ratio is taken on Re[v] instead (conjugate-paired
    designs).
    """
    alphas = np.asarray(alphas, dtype=complex)
    omegas = np.asarray(omegas, dtype=complex)
    fvals = np.array([markov_eval(reference_mu, model_z(model, w)) for w in omegas])
    times = grid.times
    mask = times <= grid.t0
    if not np.any(mask):
        raise ValueError("grid must cover t <= t0")
    series = (alphas * fvals) @ _phases(omegas, times[mask], grid.t0)
    at_t0 = complex((alphas * fvals) @ np.ones(omegas.size))
    if real_part_only:
        denom = abs(at_t0.real)
        values = np.abs(series.real)
    else:
        denom = abs(at_t0)
        values = np.abs(series)
    if denom == 0:
        raise ZeroDivisionError("response vanishes at t0")
    return float(values.max() / denom)


def _check_moment_feasibility(known_moments: Sequence[float]):
    n = len(known_moments)
    if n > 2:
        raise InfeasibleMomentsError("at most two moments (M1, M2) are supported")
    if n >= 1 and not abs(known_moments[0]) <= 1.0:  # NaN too
        raise InfeasibleMomentsError(f"|M1| = {abs(known_moments[0])} exceeds 1")
    if n == 2:
        m1, m2 = known_moments
        if not m1 ** 2 - 1e-12 <= m2 <= 1.0 + 1e-12:
            raise InfeasibleMomentsError(f"M2 = {m2} violates M1^2 <= M2 <= 1")


def _golden_max(f, half_width):
    """Maximizes a concave f over [-half_width, half_width], one row per time,
    by a batched golden-section search with one evaluation of f per step;
    returns the best value evaluated.  A zero range has nothing to search."""
    if not np.any(half_width):
        return f(half_width)
    lo, hi = -half_width, half_width
    a, b = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(_GOLDEN_STEPS):
        left = fa >= fb
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        x = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        fx = f(x)
        a, b = np.where(left, x, b), np.where(left, a, x)
        fa, fb = np.where(left, fx, fb), np.where(left, fa, fx)
    return np.maximum(fa, fb)


def response_bounds(design: SignalDesign, model: SystemModel,
                    omegas: Sequence[complex], known_moments: Sequence[float],
                    theta: float, grid: TimeGrid,
                    atom_grid_size: int = 2049):
    """Pointwise-in-time bounds on Re[e^{i theta} v(t)] over all probability
    measures with the prescribed moments.

    Re[e^{i theta} v(t)] / a0 is the integral of
    g_t(lambda) = Re sum_k c_k(t) / (lambda - z_k) against the measure.  With
    u = lambda - M1 and w = u^2 - (M2 - M1^2), whose integrals vanish for every
    admissible measure, weak duality gives for any multipliers s and c

        int g_t dmu >= min over [-1,1] of (g_t - s u - c w),

    and that minimum is at least the minimum over the atom grid less the
    interpolation error (max|g_t''| + 2|c|) h^2 / 8 of one cell.  Each bound
    is thus valid for any multipliers, on or off the grid; how they are
    picked affects only how tight the bounds are.  A batched golden-section
    search picks c.  For each c an exchange picks s: with one moment the
    extremal measure has one atom a with u <= 0 and one atom b with u > 0, so
    s is the chord slope of g_t - c w through them.  Starting from the atoms
    next to M1, each pass sets s to that slope and moves a and b to the
    minima of the residual on their sides.  The first chord may lie past the
    optimum, so the second pass can fall; from then on the value rises until
    the support settles, and the exchange stops once no time step's value
    rises with a changed support.  Unknown moments zero their rows of
    u and w, so with no moments the lower bound is the grid minimum of g_t
    less the interpolation error.  The upper bound is minus the lower bound
    of -g_t.

    Returns (lower, upper) arrays aligned with grid.times, including the a0
    scale.
    """
    _check_moment_feasibility(known_moments)
    n = len(known_moments)
    omegas = np.asarray(omegas, dtype=complex)
    zvals = np.array([model_z(model, w) for w in omegas])
    lam = np.linspace(-1.0, 1.0, atom_grid_size)
    h = lam[1] - lam[0]
    dists = np.array([segment_distance(z) for z in zvals])

    # c_k(t) as a (T, m) array
    coeffs = ((design.alphas * np.exp(1j * theta))[:, None]
              * _phases(omegas, grid.times, grid.t0)).T
    curvature = 2.0 * np.abs(coeffs) @ dists ** -3.0  # bounds |g_t''|
    m1, m2 = (*known_moments, 0.0, 0.0)[:2]
    # The atoms at or left of M1 and those right of it as two contiguous
    # blocks, neither empty (at M1 = 1 the right one is the atom at 1): atoms,
    # [u; w], g_t as (T, N_block) and a residual buffer.  A pass reuses the
    # buffers, and argmin over a column slice would copy it.
    split = min(max(int(np.searchsorted(lam, m1, side="right")), 1), lam.size - 1)
    blocks = []
    for atoms in (lam[:split], lam[split:]):
        u = (atoms - m1) * (n >= 1)
        inv = 1.0 / (atoms[None, :] - zvals[:, None])
        g = coeffs.real @ inv.real - coeffs.imag @ inv.imag
        blocks.append((atoms, np.stack([u, (u * u - (m2 - m1 * m1)) * (n == 2)]),
                       g, np.empty_like(g)))
    rows = np.arange(grid.times.size)

    def best_over_s(c):
        (xa, basis_a, ga, ra), (xb, basis_b, gb, rb) = blocks
        ia, ib = np.full(rows.size, xa.size - 1), np.zeros(rows.size, dtype=int)
        best = last = np.full(rows.size, -np.inf)
        pad = (curvature + 2.0 * np.abs(c)) * h * h / 8.0
        for k in range(_EXCHANGE_PASSES):
            fa = ga[rows, ia] - c * basis_a[1, ia]
            fb = gb[rows, ib] - c * basis_b[1, ib]
            sc = np.column_stack(((fb - fa) / (xb[ib] - xa[ia]), c))
            for _, basis, g, residual in blocks:
                np.matmul(sc, basis, out=residual)
                np.subtract(g, residual, out=residual)
            ja, jb = ra.argmin(axis=1), rb.argmin(axis=1)
            value = np.minimum(ra[rows, ja], rb[rows, jb]) - pad
            moved = (value > last) & ((ja != ia) | (jb != ib))
            best, last = np.maximum(best, value), (value if k else last)  # see above
            ia, ib = ja, jb
            if not moved.any():
                break
        return best

    lower = _golden_max(best_over_s, (n == 2) * curvature)
    for _, _, g, _ in blocks:
        np.negative(g, out=g)
    upper = -_golden_max(best_over_s, (n == 2) * curvature)
    return model.a0 * lower, model.a0 * upper
