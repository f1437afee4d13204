"""Independent reference computations for the correctness checks.

Nothing here calls the library's numerics: frequency maps, closed-form
residues, Markov sums, moment-constrained extrema and the H(r) inequalities
are written out again from their definitions, with extended precision
(numpy longdouble, mpmath) where cancellation matters.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------- frequency maps

def maxwell_modulus(phase: dict, omega: complex) -> complex:
    if phase.get("eta") is None:
        return complex(phase["G"])
    g, eta = phase["G"], phase["eta"]
    return 1j * omega * eta * g / (g + 1j * omega * eta)


def z_of(model: dict, omega: complex) -> complex:
    """z(omega) for the three built-in models, from their definitions."""
    if model["kind"] == "lossy_dielectric":
        return 2.0 + 1j / omega
    if model["kind"] == "plasma":
        return 2.0 - 2.0 / omega ** 2
    c1, c2 = (maxwell_modulus(p, omega) for p in model["phases"])
    return (c1 + c2) / (c1 - c2)


# ------------------------------------------------------------- closed-form residues

def _cheb_mp(m: int, z):
    t_prev, t_cur = mp.mpc(1), z
    if m == 0:
        return t_prev
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2 * z * t_cur - t_prev
    return t_cur


def _node_products(zs):
    return [mp.fprod(zk - zj for j, zj in enumerate(zs) if j != k)
            for k, zk in enumerate(zs)]


def unit_residues(points) -> np.ndarray:
    """alpha_k = -T_m(z_k) / (2**(m-1) prod_{j != k}(z_k - z_j)), in 40 digits."""
    with mp.workdps(40):
        zs = [mp.mpc(z) for z in points]
        m = len(zs)
        prods = _node_products(zs)
        return np.array([complex(-_cheb_mp(m, zk) / (mp.mpf(2) ** (m - 1) * pk))
                         for zk, pk in zip(zs, prods)])


def frequency_target_residues(points, z0: complex) -> np.ndarray:
    """alpha_k = -b T_{m-1}(z_k) / ((z_k - z0) prod_{j != k}(z_k - z_j)) with
    b = q(z0) / T_{m-1}(z0) and q evaluated as a product, in 40 digits."""
    with mp.workdps(40):
        zs = [mp.mpc(z) for z in points]
        w = mp.mpc(z0)
        m = len(zs)
        b = mp.fprod(w - zj for zj in zs) / _cheb_mp(m - 1, w)
        prods = _node_products(zs)
        return np.array([complex(-b * _cheb_mp(m - 1, zk) / ((zk - w) * pk))
                         for zk, pk in zip(zs, prods)])


# ------------------------------------------------------------ design deviation

def _target_mp(design, lam):
    mode = design.mode
    if mode in ("unit", "zero_factor"):
        return mp.mpf(1)
    if mode == "moments":
        return mp.fsum(mp.mpc(g) * lam ** k for k, g in enumerate(design.gammas))
    z0 = mp.mpc(design.z0)
    if mode == "frequency_target":
        return 1 / (lam - z0)
    return 1 / (lam - z0) ** 2 - mp.mpc(design.alpha0) / (lam - z0)


def _target_ld(design, lam: np.ndarray) -> np.ndarray:
    lam = lam.astype(np.clongdouble)
    mode = design.mode
    if mode in ("unit", "zero_factor"):
        return np.ones_like(lam)
    if mode == "moments":
        out = np.zeros_like(lam)
        for g in design.gammas[::-1]:
            out = out * lam + np.clongdouble(g)
        return out
    z0 = np.clongdouble(design.z0)
    if mode == "frequency_target":
        return 1 / (lam - z0)
    return 1 / (lam - z0) ** 2 - np.clongdouble(design.alpha0) / (lam - z0)


def design_deviation(design, dense: int = 4097, candidates: int = 2):
    """Sup over [-1,1] of |sum alpha_k/(lam - z_k) - target(lam)| for the
    design's own (float) residues, evaluated exactly enough to be a reference.

    A uniform grid (not the library's Chebyshev-Lobatto scan) is evaluated in
    extended precision, the best local maxima are refined by golden-section
    search, and the value at each refined point is taken in 40-digit mpmath.
    Returns (deviation, rounding): ``rounding`` bounds the error a float64
    evaluation of the same sum can make, so two evaluations "agree" when they
    differ by less than it.
    """
    z = np.asarray(design.poles.points, dtype=np.clongdouble)
    a = np.asarray(design.alphas, dtype=np.clongdouble)

    def terms(lam):
        lam = np.atleast_1d(lam).astype(np.longdouble)
        return a[:, None] / (lam[None, :] - z[:, None])

    def dev_ld(lam):
        return np.abs(terms(lam).sum(axis=0) - _target_ld(design, np.atleast_1d(lam)))

    lam = np.linspace(-1.0, 1.0, dense)
    t = terms(lam)
    dev = np.abs(t.sum(axis=0) - _target_ld(design, lam)).astype(float)
    rounding = 2.0 * (design.poles.m + 4) * UNIT_ROUNDOFF * float(np.abs(t).sum(axis=0).max())

    padded = np.concatenate([[-np.inf], dev, [-np.inf]])
    peaks = np.flatnonzero((dev >= padded[:-2]) & (dev >= padded[2:]))
    peaks = peaks[np.argsort(-dev[peaks])][:candidates]
    points = []
    for i in peaks:
        lo, hi = lam[max(i - 1, 0)], lam[min(i + 1, dense - 1)]
        c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
        fc, fd = dev_ld(c)[0], dev_ld(d)[0]
        for _ in range(30):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - GOLDEN * (hi - lo)
                fc = dev_ld(c)[0]
            else:
                lo, c, fc = c, d, fd
                d = lo + GOLDEN * (hi - lo)
                fd = dev_ld(d)[0]
        points += [lam[i], c if fc > fd else d]
    with mp.workdps(40):
        zs = [mp.mpc(v) for v in design.poles.points]
        al = [mp.mpc(v) for v in design.alphas]
        best = max(float(abs(mp.fsum(ak / (mp.mpf(x) - zk) for ak, zk in zip(al, zs))
                             - _target_mp(design, mp.mpf(x))))
                   for x in points)
    return best, rounding


# ------------------------------------------------------------- response bounds

def response_kernel(alphas, zvals, omegas, times, t0, theta):
    """c_k(t) = e^{i theta} alpha_k e^{-i omega_k (t - t0)}, shape (T, m)."""
    phase = np.exp(-1j * np.outer(times - t0, omegas))
    return np.exp(1j * theta) * alphas[None, :] * phase


def dense_g(kernel, zvals, lam):
    """g_t(lam) = Re sum_k c_k(t) / (lam - z_k), shape (T, N)."""
    inv = 1.0 / (lam[None, :] - zvals[:, None])
    return (kernel @ inv).real


def measure_values(kernel, zvals, atoms, weights):
    """Re[e^{i theta} v(t)] / a0 for each measure: sum_k c_k(t) F_mu(z_k),
    with F_mu(z) = sum_j w_j / (lam_j - z).  Shape (measures, T)."""
    f = np.einsum("mj,mjk->mk", weights, 1.0 / (atoms[:, :, None] - zvals[None, None, :]))
    return (f @ kernel.T).real


def moment_extremum(g, lam, m1, iters: int = 80):
    """min over probability measures on the grid with first moment m1 of
    sum_j w_j g(lam_j), per row of g: the lower convex envelope of g at m1.

    Computed as the concave dual max_s min_lam [g(lam) - s (lam - m1)] by a
    batched golden-section search.  Any s gives a valid lower bound (weak
    duality), so the result never exceeds the exact grid value.
    """
    d = lam - m1
    slope = (np.abs(np.diff(g, axis=1)) / np.diff(lam)).max(axis=1) * 1.01 + 1e-300

    def phi(s):
        return (g - s[:, None] * d[None, :]).min(axis=1)

    lo, hi = -slope, slope.copy()
    c, e = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    fc, fe = phi(c), phi(e)
    for _ in range(iters):
        left = fc > fe
        hi = np.where(left, e, hi)
        lo = np.where(left, lo, c)
        c_new = np.where(left, hi - GOLDEN * (hi - lo), e)
        e_new = np.where(left, c, lo + GOLDEN * (hi - lo))
        fc_new = np.where(left, phi(c_new), fe)
        fe_new = np.where(left, fc, phi(e_new))
        c, e, fc, fe = c_new, e_new, fc_new, fe_new
    return np.maximum(fc, fe)


def admissible_measures(rng, known, count: int):
    """Seeded probability measures on [-1,1] with the prescribed moments.

    Moments are linear in the measure, so mixtures of two-atom measures that
    hit the moments hit them too.  Returns (atoms, weights), both
    (count, atoms_per_measure).
    """
    def two_atom():
        if not known:
            x = rng.uniform(-1.0, 1.0, 2)
            p = rng.uniform()
            return x, np.array([p, 1.0 - p])
        m1 = known[0]
        if len(known) == 1:
            a, b = rng.uniform(-1.0, m1), rng.uniform(m1, 1.0)
            return np.array([a, b]), np.array([(b - m1) / (b - a), (m1 - a) / (b - a)])
        sigma = np.sqrt(known[1] - m1 ** 2)
        while True:
            p = rng.uniform(0.02, 0.98)
            a = m1 - sigma * np.sqrt((1.0 - p) / p)
            b = m1 + sigma * np.sqrt(p / (1.0 - p))
            if a >= -1.0 and b <= 1.0:
                return np.array([a, b]), np.array([p, 1.0 - p])

    atoms, weights = [], []
    for i in range(count):
        parts = 1 + i % 3
        mix = rng.dirichlet(np.ones(parts))
        pieces = [two_atom() for _ in range(parts)]
        atoms.append(np.concatenate([x for x, _ in pieces] + [np.zeros(2 * (3 - parts))]))
        weights.append(np.concatenate([w * c for (_, w), c in zip(pieces, mix)]
                                      + [np.zeros(2 * (3 - parts))]))
    return np.array(atoms), np.array(weights)


# ---------------------------------------------------------------------- regions

def region_boundary(z0: complex, r: float, xs: np.ndarray, ys: np.ndarray):
    """Grid points of H(r) with at least one of their four neighbours outside.

    H(r) is the union of {Re z <= -1, |z - z0| <= r|z + 1|},
    {-1 <= Re z <= 1, |z - z0| <= r|Im z|} and {Re z >= 1, |z - z0| <= r|z - 1|}.
    Returns the boolean membership grid and the boundary mask, indexed [x, y].
    """
    z = xs[:, None] + 1j * ys[None, :]
    d = np.abs(z - z0)
    x = z.real
    inside = (((x <= -1.0) & (d <= r * np.abs(z + 1.0)))
              | ((x >= -1.0) & (x <= 1.0) & (d <= r * np.abs(z.imag)))
              | ((x >= 1.0) & (d <= r * np.abs(z - 1.0))))
    padded = np.pad(inside, 1, constant_values=True)
    all_in = (padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:])
    return inside, inside & ~all_in
