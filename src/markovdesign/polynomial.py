"""Complex polynomial algebra and Chebyshev evaluation.

Coefficients live in the monomial basis, ascending order (index j is the
coefficient of lambda**j). Degrees are capped at 64: expansion from roots and
Euclidean division in the monomial basis degrade beyond that, and every
construction in this package uses small degrees anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.polynomial import polynomial as nppoly

DEGREE_CAP = 64


class DegreeLimitError(ValueError):
    """Requested degree exceeds the conditioning cap of 64."""


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing zeros, keeping at least the constant term."""
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return coeffs[:1]
    return coeffs[: nz[-1] + 1]


@dataclass(frozen=True)
class ComplexPolynomial:
    """Polynomial with complex coefficients in the monomial basis."""

    coeffs: tuple

    def __post_init__(self):
        arr = _trim(np.asarray(self.coeffs, dtype=complex))
        if arr.size - 1 > DEGREE_CAP:
            raise DegreeLimitError(f"degree {arr.size - 1} exceeds cap {DEGREE_CAP}")
        object.__setattr__(self, "coeffs", tuple(arr.tolist()))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)

    @property
    def is_monic(self) -> bool:
        lead = self.coeffs[-1]
        return abs(lead - 1.0) <= 1e-12 * max(1.0, abs(lead))

    def __call__(self, z):
        return poly_eval(self, z)


def _check_degree(m: int):
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m > DEGREE_CAP:
        raise DegreeLimitError(f"degree {m} exceeds cap {DEGREE_CAP}")


def cheb_eval(m: int, z) -> complex:
    """T_m(z) by the three-term recurrence T_{k+1} = 2 z T_k - T_{k-1}.

    Works uniformly for real and complex arguments; stable for m <= 64
    and moderate |z|.
    """
    _check_degree(m)
    z = np.asarray(z, dtype=complex)
    t_prev = np.ones_like(z)
    if m == 0:
        return t_prev[()] if z.ndim == 0 else t_prev
    t_cur = z.copy()
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * z * t_cur - t_prev
    return t_cur[()] if z.ndim == 0 else t_cur


def cheb_eval_deriv(m: int, z) -> complex:
    """dT_m/dz, computed as m * U_{m-1}(z) with the Chebyshev-U recurrence."""
    _check_degree(m)
    z = np.asarray(z, dtype=complex)
    # U_{-1} = 0, U_0 = 1, U_{k+1} = 2 z U_k - U_{k-1}
    u_prev, u_cur = np.zeros_like(z), np.ones_like(z)
    for _ in range(m - 1):
        u_prev, u_cur = u_cur, 2.0 * z * u_cur - u_prev
    out = m * u_cur
    return out[()] if z.ndim == 0 else out


def monic_from_roots(roots) -> ComplexPolynomial:
    """Monic polynomial prod (lambda - z_j) expanded to monomial coefficients
    by numpy's polyfromroots product tree, without its series checks."""
    roots = np.sort(np.asarray(list(roots), dtype=complex))
    if not roots.size:
        raise ValueError("roots list must be nonempty")
    factors = [np.array([-z, 1.0 + 0j]) for z in roots]
    while len(factors) > 1:
        half, odd = divmod(len(factors), 2)
        paired = [np.convolve(factors[i], factors[i + half]) for i in range(half)]
        if odd:
            paired[0] = np.convolve(paired[0], factors[-1])
        factors = paired
    return ComplexPolynomial(tuple(factors[0]))


def poly_eval(p: ComplexPolynomial, z):
    """Horner evaluation of p at z (scalar or array)."""
    z = np.asarray(z, dtype=complex)
    out = nppoly.polyval(z, p.array)
    return out[()] if z.ndim == 0 else out


def poly_divmod(a: ComplexPolynomial, b: ComplexPolynomial):
    """Euclidean division a = b*quotient + remainder, deg(remainder) < deg(b)."""
    if b.degree < 1:
        raise ValueError("divisor must have degree >= 1")
    quo, rem = nppoly.polydiv(a.array, b.array)
    return ComplexPolynomial(tuple(quo)), ComplexPolynomial(tuple(rem))


def monic_cheb(m: int) -> ComplexPolynomial:
    """T_m(lambda)/2**(m-1): the monic degree-m polynomial of minimal sup-norm
    on [-1,1] (norm 1/2**(m-1))."""
    if m < 1:
        raise ValueError("monic normalization by 2**(m-1) requires m >= 1")
    # the coefficient of lambda**(m - 2j) in closed form, in exact integer
    # arithmetic up to one final rounding
    coeffs = [0.0] * (m + 1)
    for j in range(m // 2 + 1):
        coeffs[m - 2 * j] = (-1) ** j * m * comb(m - j, j) / ((m - j) * 4 ** j)
    return ComplexPolynomial(tuple(coeffs))
