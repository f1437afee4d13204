"""Coefficient constructions for measure-independent signal design.

Given m points z_1..z_m off [-1,1], every design here produces residues
alpha_k such that the rational function sum alpha_k/(lambda - z_k) tracks a
target on [-1,1] -- the constant 1, a low-degree polynomial (when moments of
the measure are known), the resolvent kernel 1/(lambda - z0), or its
derivative -- with a certified sup-norm error.

Every design is one formula: alpha_k = N(z_k)/q'(z_k), where
q(lambda) = prod_j (lambda - z_j) is the node polynomial, so that
q'(z_k) = prod_{j != k}(z_k - z_j), and N is the design's numerator.  Only N,
the target and the certificate differ between designs.  q is always evaluated
as a product of node differences, never from expanded coefficients
(Berrut & Trefethen, "Barycentric Lagrange interpolation", SIAM Rev. 46,
2004).

The certified bound ``epsilon`` is computed without any search: the unit and
moments designs have closed forms (2/(2 d_min)**m and relatives), and the
target and zero-factor designs pad values on the Chebyshev-Lobatto grid in
closed form, so that min |q| is bounded from below and sup |N| from above on
all of [-1,1].  The measured bound ``epsilon_observed`` comes from the same
grid, zoomed in around its argmax by repeated finer scans until the
bracket spans less than 2**-26 min(1, d), d the least distance of the poles
(and z0) to [-1,1]: sqrt(u) of the length on which the deviation varies, past
which a smooth maximum moves only in its rounding.

Certificates and the sup scan read one fixed 4,096-node grid
(``SUP_GRID_SIZE``).  Constructors measure ``epsilon_observed`` (never
``epsilon``) on it; ``scan=False`` leaves it NaN, which ``certifies`` never
accepts.  One real kernel evaluates the error on a table of squared distances
|lambda - z_k|**2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import ON_SEGMENT_TOL, RegionSpec, in_region_H, segment_distance
from .polynomial import (
    DEGREE_CAP,
    ComplexPolynomial,
    cheb_eval,
    cheb_eval_deriv,
    monic_cheb,
    monic_from_roots,
    poly_divmod,
)

MAX_POLES = 48
SUP_GRID_SIZE = 4096
# a zoom level rescans its bracket at these 65 fractions (i/64, exact)
_ZOOM = np.linspace(0.0, 1.0, 65)
_ZOOM.flags.writeable = False
_ZOOM_RTOL = 2.0 ** -26  # sqrt(u), u = 2**-52 the float64 machine epsilon
_ZOOM_FLOOR = 2.0 ** -46  # 64 ulps of 1: below it the 65 points would repeat
# a relative tie, epsilon * (1 + CERT_RTOL): an absolute one hides violations of a tiny epsilon
CERT_RTOL = 1e-12

MODE_UNIT = "unit"
MODE_MOMENTS = "moments"
MODE_FREQUENCY_TARGET = "frequency_target"
MODE_DERIVATIVE_TARGET = "derivative_target"
MODE_ZERO_FACTOR = "zero_factor"


class DesignError(ValueError):
    """Invalid pole configuration or degenerate design request."""


@dataclass(frozen=True)
class PoleSet:
    """The m design points z_1..z_m with cached segment distances."""

    points: tuple
    distances: tuple = field(init=False)
    d_min: float = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        m = pts.size
        if not 1 <= m <= MAX_POLES:
            raise DesignError(f"need between 1 and {MAX_POLES} poles, got {m}")
        if not np.all(np.isfinite(pts)):
            raise DesignError(f"poles must be finite, got {pts[~np.isfinite(pts)][0]}")
        dists = segment_distance(pts)
        if np.any(dists <= ON_SEGMENT_TOL):
            bad = int(np.argmin(dists))
            raise DesignError(f"pole {pts[bad]} lies on [-1,1]")
        if m > 1:
            diff = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(diff, np.inf)
            if diff.min() <= 1e-10 * max(np.abs(pts).max(), 1.0):
                raise DesignError("poles must be pairwise distinct")
        object.__setattr__(self, "points", tuple(pts.tolist()))
        object.__setattr__(self, "distances", tuple(dists.tolist()))
        object.__setattr__(self, "d_min", float(dists.min()))

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)

    def q(self) -> ComplexPolynomial:
        """The monic node polynomial prod (lambda - z_j)."""
        return monic_from_roots(self.points)

    def node(self, lam):
        """q(lambda) = prod (lambda - z_j) as a product, vectorized over lam."""
        lam = np.asarray(lam, dtype=complex)
        return np.prod(lam[..., None] - self.array, axis=-1)

    def off_diagonal_products(self) -> np.ndarray:
        """prod_{j != k} (z_k - z_j) for each k."""
        pts = self.array
        diff = pts[:, None] - pts[None, :]
        np.fill_diagonal(diff, 1.0)
        return np.prod(diff, axis=1)


def _squared_distances(x: np.ndarray, y2: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """For poles z_k = x_k + i y_k, given as x and y2 = y**2, and real lam of
    shape (N,), one (2, m, N) block holding the tables dx = x_k - lam and
    |lam - z_k|**2 = dx**2 + y_k**2 (one block, so that one matrix product
    reads both)."""
    table = np.empty((2, x.size, lam.size))
    np.subtract(x[:, None], lam, out=table[0])
    np.multiply(table[0], table[0], out=table[1])
    table[1] += y2[:, None]
    return table


@dataclass
class SignalDesign:
    """Residues, optional auxiliary coefficients, and error certificates."""

    mode: str
    poles: PoleSet
    alphas: np.ndarray
    epsilon: float
    gammas: Optional[np.ndarray] = None
    alpha0: Optional[complex] = None
    b_m: Optional[complex] = None
    z0: Optional[complex] = None
    convergent: bool = True
    epsilon_observed: float = float("nan")
    lambda_star: float = float("nan")
    region_diagnostics: Optional[dict] = None

    def rational_eval(self, lam):
        """sum_k alpha_k / (lam - z_k), vectorized over lam."""
        lam = np.asarray(lam, dtype=complex)
        z = self.poles.array
        out = (self.alphas[:, None] / (lam.reshape(-1)[None, :] - z[:, None])).sum(axis=0)
        return out.reshape(lam.shape) if lam.ndim else out[0]

    def target_eval(self, lam):
        """The function the rational combination approximates on [-1,1]:
        the polynomial sum gamma_l lambda**l when gammas are set, otherwise
        k = 1/(lambda - z0), times (k - alpha0) when alpha0 is set.  With
        rational_eval, the complex reference for ``_error_kernel``."""
        lam = np.asarray(lam, dtype=complex)
        if self.gammas is not None:
            return np.polynomial.polynomial.polyval(lam, self.gammas)
        k = 1.0 / (lam - self.z0)
        return k if self.alpha0 is None else k * (k - self.alpha0)

    def certifies(self, value):
        """value <= epsilon (1 + CERT_RTOL), elementwise over arrays; NaN fails."""
        return value <= self.epsilon * (1.0 + CERT_RTOL)

    def deviation(self, lam):
        """|rational - target| evaluated pointwise on real lam."""
        lam = np.asarray(lam, dtype=float)
        return np.hypot(*_error_kernel(self)(lam.reshape(-1))).reshape(lam.shape)[()]


def _error_kernel(design: SignalDesign):
    """lam -> (Re E, Im E) for real lam of shape (N,): the one evaluator of the
    design error E = R - target, R = sum alpha_k/(lam - z_k).  As
    alpha_k/(lam - z_k) = alpha_k (-dx + i y_k)/|lam - z_k|**2, Re R and Im R are
    one real matrix product; a constant target (unit, zero factor) is a scalar."""
    z = design.poles.array
    x, y = np.ascontiguousarray(z.real), z.imag
    y2 = y ** 2
    a, b = design.alphas.real, design.alphas.imag
    coef = np.array([[-a, -b * y], [-b, a * y]]).reshape(2, -1)
    target = None
    if design.gammas is not None and design.gammas.size == 1:
        target = complex(design.gammas[0])

    def kernel(lam):
        table = _squared_distances(x, y2, lam)
        np.reciprocal(table[1], out=table[1])
        table[0] *= table[1]
        re, im = coef @ table.reshape(coef.shape[1], -1)
        t = design.target_eval(lam) if target is None else target
        return re - t.real, im - t.imag

    return kernel


def _lobatto_grid(n: int) -> np.ndarray:
    """The n Chebyshev-Lobatto nodes on [-1,1], ascending."""
    k = np.arange(n)
    return np.cos(np.pi * (n - 1 - k) / (n - 1))


def sup_deviation(design: SignalDesign):
    """Worst deviation |R(lambda) - target(lambda)| on [-1,1].

    Scans the 4,096-node certificate grid once, then zooms: the two cells
    around the argmax are rescanned at 65 points until they span less than
    2**-26 min(1, d), d the least distance to [-1,1] of the poles and of z0
    (but not below 2**-46, where the 65 points would repeat).  The deviation
    varies on a length of order min(1, d), and near a smooth maximum
    f(x* + h) - f(x*) is of order f''(x*) h**2, so once h is sqrt(u) of
    that length a finer zoom moves the value by about u, below the rounding
    of the evaluation itself (Brent, "Algorithms for Minimization without
    Derivatives", 1973, ch. 5).
    Returns (lambda_star, value) for the best point evaluated, so the value
    is never below the grid maximum.
    """
    error = _error_kernel(design)
    vals = np.hypot(*error(_CERTIFICATE_GRID))
    i = int(np.argmax(vals))
    best_x, best_v = float(_CERTIFICATE_GRID[i]), float(vals[i])
    lo, hi = _CERTIFICATE_GRID[[max(i - 1, 0), min(i + 1, SUP_GRID_SIZE - 1)]]
    d = design.poles.d_min
    if design.z0 is not None:
        d = min(d, segment_distance(design.z0))
    width = max(_ZOOM_RTOL * min(1.0, d), _ZOOM_FLOOR)
    while hi - lo >= width:
        grid = lo + (hi - lo) * _ZOOM
        vals = np.hypot(*error(grid))
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_x, best_v = float(grid[i]), float(vals[i])
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    return best_x, best_v


def verify_sup(design: SignalDesign) -> float:
    """Measured sup-norm deviation (``sup_deviation``); stores it in
    design.epsilon_observed and its argmax in design.lambda_star."""
    design.lambda_star, design.epsilon_observed = sup_deviation(design)
    return design.epsilon_observed


# The Lobatto grid certificates are read from.  With at least 4m + 1 nodes
# the Ehlich-Zeller factor is at most 1/cos(pi/8) for every m <= MAX_POLES.
if SUP_GRID_SIZE < 4 * MAX_POLES + 1:
    raise RuntimeError(f"SUP_GRID_SIZE must be at least {4 * MAX_POLES + 1}")
_CERTIFICATE_GRID = _lobatto_grid(SUP_GRID_SIZE)
_CERTIFICATE_GRID.flags.writeable = False
_HALF_CELLS = 0.5 * np.diff(_CERTIFICATE_GRID)
_HALF_CELLS.flags.writeable = False


def _min_abs_q(poles: PoleSet) -> float:
    """A lower bound on min |q(lambda)| over [-1,1].

    log|q| is sum_j 1/d_j-Lipschitz on [-1,1], so in a grid cell of width h,
    |q| stays above the smaller endpoint value times exp(-(h/2) sum_j 1/d_j).
    """
    # the square root before the product keeps the exponent range of |q|
    z = poles.array
    sq = _squared_distances(z.real, z.imag ** 2, _CERTIFICATE_GRID)[1]
    vals = np.prod(np.sqrt(sq, out=sq), axis=0)
    pad = np.exp(-_HALF_CELLS * np.sum(1.0 / np.array(poles.distances)))
    return float(np.min(np.minimum(vals[:-1], vals[1:]) * pad))


def _check_convergent(poles: PoleSet) -> bool:
    if poles.d_min <= 0.5:
        warnings.warn(
            f"d_min = {poles.d_min:.4g} <= 1/2: the closed-form certificate "
            "does not decay with m (design still produced)",
            stacklevel=3,
        )
        return False
    return True


def _design(mode: str, poles: PoleSet, numerator_at_poles: np.ndarray, scan,
            **fields) -> SignalDesign:
    """The one residue formula alpha_k = N(z_k)/q'(z_k), then verify_sup if scan."""
    design = SignalDesign(mode=mode, poles=poles,
                          alphas=numerator_at_poles / poles.off_diagonal_products(),
                          **fields)
    if scan:
        verify_sup(design)
    return design


def _moment_design(mode: str, poles: PoleSet, n: int, convergent: bool, scan) -> SignalDesign:
    """N = -T_{m+n}/2**(m+n-1): since q(z_k) = 0, the remainder of monic
    T_{m+n} modulo q takes the same values at the nodes, and the quotient
    term drops out.  The quotient of that Euclidean division is the (monic,
    degree-n) moment polynomial, the constant 1 at n = 0.
    Certificate: 2/(2**n (2 d_min)**m).
    """
    m = poles.m
    try:
        epsilon = 2.0 / (2.0 ** n * (2.0 * poles.d_min) ** m)
    except OverflowError:
        raise DesignError(f"(2 d_min)**m overflows at d_min = {poles.d_min:.6g}, m = {m}: "
                          "the poles lie too far from [-1,1]") from None
    if n == 0:
        gammas = np.array([1.0 + 0.0j])
    else:
        gammas = poly_divmod(monic_cheb(m + n), poles.q())[0].array
    return _design(
        mode, poles, -cheb_eval(m + n, poles.array) / 2.0 ** (m + n - 1), scan,
        epsilon=epsilon,
        gammas=gammas,
        convergent=convergent,
    )


def design_unit(poles: PoleSet, scan: bool = True) -> SignalDesign:
    """Residues making sum alpha_k/(lambda - z_k) approximate 1 on [-1,1]: the
    moments design at n = 0, N = -T_m/2**(m-1) and epsilon = 2/(2 d_min)**m."""
    return _moment_design(MODE_UNIT, poles, 0, _check_convergent(poles), scan)


def design_moments(poles: PoleSet, n: int, scan: bool = True) -> SignalDesign:
    """Design approximating the degree-n moment polynomial sum gamma_l lambda**l."""
    if n < 0:
        raise DesignError("moment count n must be nonnegative")
    if poles.m + n > DEGREE_CAP:
        raise DesignError(f"m + n = {poles.m + n} exceeds the degree cap {DEGREE_CAP}")
    return _moment_design(MODE_MOMENTS, poles, n, _check_convergent(poles), scan)


def _validate_target_point(poles: PoleSet, z0: complex) -> complex:
    z0 = complex(z0)
    if not np.isfinite(z0):
        raise DesignError(f"target point z0 = {z0} must be finite")
    if segment_distance(z0) <= ON_SEGMENT_TOL:
        raise DesignError("target point z0 must lie off [-1,1]")
    if np.min(np.abs(poles.array - z0)) <= 1e-10 * max(1.0, abs(z0)):
        raise DesignError("target point z0 coincides with a pole")
    return z0


def _region_diagnostics(poles: PoleSet, z0: complex) -> dict:
    # conservative r = 1 membership check; diagnostic only.  Every z0 off
    # [-1,1] has Joukowski radius R > 1, so RegionSpec(z0, 1) does not raise
    return dict(enumerate(in_region_H(poles.array, RegionSpec(z0=z0, r=1.0)).tolist()))


def _target_design(mode: str, poles: PoleSet, z0: complex, power: int, scan) -> SignalDesign:
    """Target designs: b_m = q(z0)/T_{m-1}(z0) makes q - b_m T_{m-1} vanish
    at z0, N = -b_m T_{m-1}/(lambda - z0)**power, and the certificate is
    |b_m| / (d0**power * min |q|), with min |q| bounded from grid values."""
    z0 = _validate_target_point(poles, z0)
    m = poles.m
    z = poles.array
    t_at_z0 = cheb_eval(m - 1, z0)
    if abs(t_at_z0) <= 1e-12:
        raise DesignError(f"T_{m - 1}(z0) vanishes at z0 = {z0}: degenerate target")
    b_m = poles.node(z0) / t_at_z0
    # q'(z0)/q(z0) = sum_j 1/(z0 - z_j)
    alpha0 = (np.sum(1.0 / (z0 - z)) - cheb_eval_deriv(m - 1, z0) / t_at_z0
              if power == 2 else None)
    return _design(
        mode, poles, -b_m * cheb_eval(m - 1, z) / (z - z0) ** power, scan,
        epsilon=abs(b_m) / (segment_distance(z0) ** power * _min_abs_q(poles)),
        alpha0=alpha0,
        b_m=b_m,
        z0=z0,
        region_diagnostics=_region_diagnostics(poles, z0),
    )


def design_frequency_target(poles: PoleSet, z0: complex, scan: bool = True) -> SignalDesign:
    """Design approximating the resolvent kernel 1/(lambda - z0).

    N = -b_m T_{m-1}/(lambda - z0) with b_m = q(z0)/T_{m-1}(z0); the
    certificate is |b_m| / (d0 * min |q| on [-1,1]), with min |q| bounded
    from below by Lipschitz padding of its values on the Lobatto grid.
    """
    return _target_design(MODE_FREQUENCY_TARGET, poles, z0, 1, scan)


def design_derivative_target(poles: PoleSet, z0: complex, scan: bool = True) -> SignalDesign:
    """Design approximating d/dz of the resolvent kernel at z0.

    The double-root construction forces both the value and the derivative of
    q(lambda)[1 - alpha0(lambda - z0)] - b_m T_{m-1}(lambda) to vanish at z0,
    so alpha0 = q'(z0)/q(z0) - T'_{m-1}(z0)/T_{m-1}(z0).
    N = -b_m T_{m-1}/(lambda - z0)**2, the verification target is
    1/(lambda - z0)**2 - alpha0/(lambda - z0) and the certificate is
    |b_m| / (d0**2 * min |q|), with min |q| padded as for the frequency target.
    """
    return _target_design(MODE_DERIVATIVE_TARGET, poles, z0, 2, scan)


def design_with_zero_factor(poles: PoleSet, s: ComplexPolynomial,
                            scan: bool = True) -> SignalDesign:
    """Unit design with T_m replaced by s(lambda) T_{m-M}(lambda).

    N = -s T_{m-M}/2**(m-M-1).  The prescribed monic factor s (degree M < m)
    shapes the signal; choosing s with a root at a pole drops that frequency
    entirely.  The certificate is sup |N| / min |q|: sup |N| is bounded by
    its largest value on the n Lobatto nodes over cos(m pi/(2(n-1))) (Ehlich &
    Zeller, Math. Z. 86, 1964; deg N = m < n - 1), and min |q| by
    Lipschitz padding.
    """
    m = poles.m
    M = s.degree
    if M >= m:
        raise DesignError(f"deg(s) = {M} must be < m = {m}")
    if not s.is_monic:
        raise DesignError("zero-factor polynomial s must be monic")
    scale = 2.0 ** (m - M - 1)

    def numerator(lam):
        return s(lam) * cheb_eval(m - M, lam) / scale

    # Ehlich-Zeller holds for real polynomials; it bounds complex N through
    # Re(exp(i theta) N) for every theta
    grid = _CERTIFICATE_GRID
    sup_numerator = np.max(np.abs(numerator(grid))) / np.cos(m * np.pi / (2 * (grid.size - 1)))
    return _design(
        MODE_ZERO_FACTOR, poles, -numerator(poles.array), scan,
        epsilon=float(sup_numerator / _min_abs_q(poles)),
        gammas=np.array([1.0 + 0.0j]),
        convergent=_check_convergent(poles),
    )

