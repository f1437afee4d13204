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
from .measure import DiscreteMeasure, markov_eval


# Caps the passes of each simplex run in response_bounds.  Every pass gives a
# valid bound, so the cap costs tightness only.  On the bundled envelopes a
# one-moment row reaches the optimum in 1.3-1.9 passes on average, a two-moment
# row in 8.2 coarse ones and then 4.1 on the full grid.
_EXCHANGE_PASSES = 64
# The spacing, in atoms, of the grid a two-moment simplex solves first
_COARSE_STEP = 8
# The bytes of reduced costs priced per matrix product: about 1 MiB (62 rows
# of 2,049 atoms) stays in L2 while each row's minimum is taken
_PRICE_BYTES = 1 << 20
# No bound solves a linear program; the name stays, always None, because the
# perfbench tracer counts calls to ``response.linprog``.
linprog = None
_LOG_MAX = np.log(np.finfo(float).max)  # exp(x) overflows where Re x > _LOG_MAX


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


def _checked_omega(model: SystemModel, omega) -> complex:
    omega = complex(omega)
    if model.kind != "custom" and omega == 0:
        raise SingularFrequencyError("built-in maps are singular at omega = 0")
    return omega


def model_z(model: SystemModel, omega) -> complex:
    """z(omega), guarding the built-in maps against omega = 0."""
    return complex(model.z_fn(_checked_omega(model, omega)))


def model_c(model: SystemModel, omega) -> complex:
    return complex(model.c_fn(_checked_omega(model, omega)))


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    steps: int
    t0: float = 0.0

    def __post_init__(self):
        if not 0 < self.t_end - self.t_start < np.inf:  # NaN and infinite ends fail too
            raise ValueError("need finite t_start < t_end with a finite span t_end - t_start")
        if self.steps < 2:
            raise ValueError("need at least 2 time steps")
        if not self.t_start <= self.t0 <= self.t_end:
            raise ValueError("t0 must lie inside the grid")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps)


def _phases(omegas: np.ndarray, times: np.ndarray, t0: float) -> np.ndarray:
    """exp(-i omega_k (t - t0)) as a (len(omegas), len(times)) array."""
    offsets = times - t0
    # the largest |Re or Im omega_k| times the largest |t - t0|, in Python
    # floats, which overflow to inf with no warning: it is finite exactly
    # when every product in the exponent is (a NaN fails too)
    largest = float(np.abs([omegas.real, omegas.imag]).max()) * float(np.abs(offsets).max())
    if not np.isfinite(largest):
        raise OverflowError("exp(-i omega_k (t - t0)) overflows on this grid "
                            "(omega_k (t - t0) past the float range)")
    exponent = -1j * omegas[:, None] * offsets[None, :]
    if not exponent.real.max() <= _LOG_MAX:  # exp(_LOG_MAX) is finite
        raise OverflowError("exp(-i omega_k (t - t0)) overflows on this grid "
                            "(Im omega_k (t - t0) above about 709)")
    return np.exp(exponent)


def _design_omegas(design: SignalDesign, omegas: Sequence[complex]) -> np.ndarray:
    omegas = np.asarray(omegas, dtype=complex)
    if omegas.size != design.poles.m:
        raise ValueError("need one frequency per design pole")
    if not np.isfinite(omegas).all():
        raise ValueError("frequencies must be finite")
    return omegas


def synthesize_input(design: SignalDesign, model: SystemModel,
                     omegas: Sequence[complex], grid: TimeGrid) -> np.ndarray:
    """u(t) = sum_k (alpha_k / c(omega_k)) exp(-i omega_k (t - t0))."""
    omegas = _design_omegas(design, omegas)
    cvals = np.array([model_c(model, w) for w in omegas])
    if np.any(np.abs(cvals) == 0):
        raise ValueError("c(omega_k) = 0: the input amplitude is undefined")
    betas = design.alphas / cvals
    return betas @ _phases(omegas, grid.times, grid.t0)


def simulate_response(design: SignalDesign, model: SystemModel,
                      omegas: Sequence[complex], mu: DiscreteMeasure,
                      grid: TimeGrid) -> np.ndarray:
    """v(t) = a0 sum_k alpha_k F_mu(z_k) exp(-i omega_k (t - t0)), z_k the design's poles."""
    omegas = _design_omegas(design, omegas)
    fvals = markov_eval(mu, design.poles.array)
    return model.a0 * (design.alphas * fvals) @ _phases(omegas, grid.times, grid.t0)


def single_frequency_response(model: SystemModel, omega0: complex,
                              mu: DiscreteMeasure, grid: TimeGrid) -> np.ndarray:
    """Response a0 F_mu(z(omega0)) exp(-i omega0 (t - t0)) to the unit-amplitude
    single-frequency input u0(t) = exp(-i omega0 (t - t0))/c(omega0)."""
    f0 = markov_eval(mu, model_z(model, omega0))
    return model.a0 * f0 * _phases(np.array([complex(omega0)]), grid.times, grid.t0)[0]


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


def _starting_basis(lam, p, m1, var, band):
    """Three atoms, and the signs of their band shifts, whose weights are a
    measure: about M1 - sigma, M1 and M1 + sigma, the outer two rounded
    outward.  lam[p] <= M1 < lam[p + 1] (or lam[p + 1] = M1 = 1) is Jensen's
    pair, whose variance is at most band = h^2 / 4, so such atoms exist at
    every var = sigma^2, which is clamped to [0, 1 - M1^2] here only."""
    q = p + 1
    up, uq = lam[p] - m1, lam[q] - m1
    v0 = -up * uq  # the variance of the measure on p and q
    var = min(max(var, 0.0), 1.0 - m1 * m1)
    if var <= v0 + band:  # that measure, its heavier atom with both signs
        heavy, light = (p, q) if uq >= -up else (q, p)
        return [heavy, heavy, light], [1.0, -1.0, 1.0 if var >= v0 else -1.0]
    v = var - band  # the variance when every sign is +1; v > v0
    a = max(int(np.searchsorted(lam, m1 - min(max(np.sqrt(var), v / (1.0 - m1)), 1.0 + m1),
                                side="right")) - 1, 0)
    c = min(int(np.searchsorted(lam, m1 + v / (m1 - lam[a]))), lam.size - 1)
    return ([a, p, q] if v <= uq * (m1 - lam[a]) else [a, q, c]), [1.0] * 3


def _products(atoms, count):
    """rows -> (lo, rows[lo:lo + b] @ atoms) for consecutive blocks of about
    _PRICE_BYTES of products, for a (K, N) atom block and at most count rows:
    the caller reduces each block in cache, before the next overwrites it.
    Columns past N repeat the last atom."""
    size = atoms.shape[1]
    # in C order, with copies of the last atom up to a multiple of 16 columns:
    # a ragged edge or a transposed operand take other OpenBLAS kernels, which
    # round a row's products otherwise in some blocks (and on more threads);
    # a reduction then reads whole rows
    wide = np.empty((atoms.shape[0], size - size % -16))
    wide[:, :size], wide[:, size:] = atoms, atoms[:, -1:]
    # an even number of rows per product: numpy hands one row to gemv, and
    # OpenBLAS's Haswell kernels round a block's odd last row otherwise
    step = max(_PRICE_BYTES // wide[0].nbytes // 2, 1) * 2
    buffer = np.empty((min(step, count + count % 2), wide.shape[1]))

    def blocks(rows):
        even = np.zeros((len(rows) + len(rows) % 2, rows.shape[1]))  # a zero row evens the end
        even[:len(rows)] = rows
        for lo in range(0, len(rows), step):
            block = even[lo:lo + step]
            yield lo, np.matmul(block, wide, out=buffer[:len(block)])[:len(rows) - lo]

    return blocks


def _best_certificate(atoms, coef, basis, signs, band, tol):
    """Simplex on every row of coef at once (see response_bounds), from the
    (rows, k) arrays of basis atoms and their band signs, which it pivots in
    place; returns, per row, the best over the pivots of
    min(g - s u - c w) - |c| band.  atoms is the (2m + k - 1, N) block
    [Re 1/(lambda - z_k); Im 1/(lambda - z_k); u; w] (no w row for k = 2),
    and a row's last k - 1 columns of coef are free: with -s and -c written
    there, coef @ atoms is the reduced cost g - s u - c w."""
    k, size, blocks = basis.shape[1], atoms.shape[1], _products(atoms, coef.shape[0])
    best = np.full(coef.shape[0], -np.inf)
    live = np.arange(coef.shape[0])  # the rows still pivoting
    for _ in range(_EXCHANGE_PASSES):
        b = basis[live]
        matrix = np.ones((live.size, k, k))  # a column per basis atom
        matrix[:, 1:] = atoms[1 - k:, b].transpose(1, 0, 2)
        matrix[:, -1] += band * signs[live]
        c = coef[live]
        g = np.einsum("ri,irj->rj", c[:, :1 - k], atoms[:1 - k, b])  # g at the basis
        y = np.linalg.solve(matrix.transpose(0, 2, 1), g[..., None])[..., 0]
        c[:, 1 - k:] = -y[:, 1:]
        enter, low = np.empty(live.size, dtype=int), np.empty(live.size)
        for lo, part in blocks(c):  # priced by blocks, each block's minima taken in cache
            j = part.argmin(axis=1)
            low[lo:lo + len(j)] = part[np.arange(len(j)), j]
            enter[lo:lo + len(j)] = np.minimum(j, size - 1)  # a padding column is the last atom
        value = low - np.abs(y[:, -1]) * band  # y[:, -1] is c, or s where band = 0
        best[live] = np.maximum(best[live], value)
        pivot = value - y[:, 0] < -tol[live]  # no negative reduced cost: optimal
        if not pivot.any():
            break
        sign = np.where(y[:, -1] < 0.0, -1.0, 1.0)  # the band side that lowers the cost
        column = np.ones((live.size, k))
        column[:, 1:] = atoms[1 - k:, enter].T
        column[:, -1] += band * sign
        unit = np.broadcast_to(np.eye(k)[0], column.shape)
        x, d = np.linalg.solve(matrix, np.stack([unit, column], axis=2)).transpose(2, 0, 1)
        pos = d > 1e-12 * np.abs(d).max(axis=1, keepdims=True)
        leave = np.where(pos, np.maximum(x, 0.0) / np.where(pos, d, 1.0), np.inf).argmin(axis=1)
        live, at = live[pivot], (live[pivot], leave[pivot])
        basis[at], signs[at] = enter[pivot], sign[pivot]
    return best


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

    at least the grid minimum less the pad (max|g_t''| + 2|c|) h^2 / 8, the
    interpolation error of one cell.  So a bound holds for any multipliers;
    their choice sets only how tight it is.  The best are the dual of the
    linear program over measures on the grid whose second moment may miss M2
    by h^2 / 4, the pad's 2|c| term: an atom enters with w shifted by either
    sign of that band.  With no known moment there is no multiplier, and the
    bounds are the grid extremes of g_t.  Otherwise a simplex solves it for
    all times at once, over a basis of n + 1 atoms (the most an extremal
    measure needs; Karlin & Studden, 1966) with the (b, s, c) that make
    g_t - b - s u - c w vanish on it.  A pass prices a row on the whole grid
    as one product: its coefficients (Re c_k(t), -Im c_k(t), -s, -c) times
    the atom block [Re 1/(lambda - z_k); Im 1/(lambda - z_k); u; w], so g_t
    itself is never stored.  With M1 known each row starts from the cheaper
    of Jensen's pair about M1, optimal where the row is convex, and the two
    ends, optimal where it is concave (Edmundson-Madansky).  With
    M2 too, the simplex first runs on every _COARSE_STEP-th atom, Jensen's
    pair and the two ends alone (coarse to fine; Hettich & Kortanek, 1993),
    from the sigma-rounded triple of _starting_basis, a measure on them at
    any variance.  Its values are dropped, but its optimal bases are
    feasible on the full grid and start the simplex there.
    Each pivot enters the atom of least reduced cost, Dantzig's ratio test
    picks the one that leaves, and the best certificate is kept.  An unknown
    M2 leaves out the row of w.  The upper bound is minus the lower bound of
    -g_t, whose rows, the negated coefficients, run through the same simplex
    below those of g_t.  The
    poles z_k and their distances d_k come from the design.

    Returns (lower, upper) arrays aligned with grid.times, including the a0
    scale.
    """
    omegas = _design_omegas(design, omegas)
    _check_moment_feasibility(known_moments)
    if atom_grid_size < 2:
        raise ValueError("atom_grid_size must be at least 2")
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    n = len(known_moments)
    lam = np.linspace(-1.0, 1.0, atom_grid_size)
    h = lam[1] - lam[0]
    dists = np.array(design.poles.distances)

    # c_k(t) as a (T, m) array
    coeffs = ((design.alphas * np.exp(1j * theta))[:, None]
              * _phases(omegas, grid.times, grid.t0)).T
    pad = 2.0 * np.abs(coeffs) @ dists ** -3.0 * h * h / 8.0  # 2 sum |c_k|/d_k^3 >= |g_t''|
    tol = np.tile(1e-15 * np.abs(coeffs) @ (1.0 / dists), 2)  # reduced costs above -tol are 0
    inv = 1.0 / (lam[None, :] - design.poles.array[:, None])
    kernel = np.hstack([coeffs.real, -coeffs.imag])  # g_t = kernel @ [Re inv; Im inv]
    if n == 0:  # no multiplier: the bounds are the grid extremes, priced as below
        low, high = np.empty(len(kernel)), np.empty(len(kernel))
        for lo, g in _products(np.vstack([inv.real, inv.imag]), len(kernel))(kernel):
            low[lo:lo + len(g)], high[lo:lo + len(g)] = g.min(axis=1), g.max(axis=1)
        return model.a0 * (low - pad), model.a0 * (high + pad)
    m1, m2 = (*known_moments, 0.0)[:2]
    var, u = m2 - m1 * m1, lam - m1
    atoms = np.vstack([inv.real, inv.imag, u, u * u - var][:2 + n])
    # a row per time for g_t, then one for -g_t, with a free column per multiplier
    steps = grid.times.size
    coef = np.hstack([np.vstack([kernel, -kernel]), np.zeros((2 * steps, n))])
    band = h * h / 4.0 * (n == 2)
    q = min(max(int(np.searchsorted(lam, m1, side="right")), 1), lam.size - 1)
    pair, ends = [q - 1, q], [0, lam.size - 1]  # Jensen's pair p <= M1 < q, or q = M1 = 1
    if n == 1:  # each row starts from the cheaper of Jensen's pair and the two ends
        cost = [coef[:, :-1] @ atoms[:-1, b] @ np.linalg.solve([[1.0, 1.0], u[b]], [1.0, 0.0])
                for b in (pair, ends)]
        basis, signs = np.where((cost[1] < cost[0])[:, None], ends, pair), np.ones((2 * steps, 2))
    else:  # the coarse bounds are discarded: only the full grid's hold
        coarse = np.union1d(np.r_[0:lam.size:_COARSE_STEP], pair + ends)
        start, signs = _starting_basis(lam[coarse], np.searchsorted(coarse, q - 1), m1, var, band)
        basis, signs = np.tile(start, (2 * steps, 1)), np.tile(signs, (2 * steps, 1))
        _best_certificate(atoms[:, coarse], coef, basis, signs, band, tol)
        basis = coarse[basis]
    best = _best_certificate(atoms, coef, basis, signs, band, tol)
    return model.a0 * (best[:steps] - pad), model.a0 * (pad - best[steps:])
