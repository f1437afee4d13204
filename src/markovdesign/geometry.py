"""Segment geometry, the inverse Joukowski map, and the admissible pole
regions H(r) that govern convergence of frequency-target designs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# points closer to [-1,1] than this are treated as lying on the segment
ON_SEGMENT_TOL = 1e-12


class DegeneratePointError(ValueError):
    """Point lies on (or numerically on) the segment [-1,1]."""


def segment_distance(z):
    """|z - clip(Re z, -1, 1)|, the distance from z to [-1,1]; elementwise over
    arrays, a float for a scalar (hypot rounds as Python's complex abs does)."""
    z = np.asarray(z, dtype=complex)
    d = np.hypot(z.real - np.clip(z.real, -1.0, 1.0), z.imag)
    return float(d) if d.ndim == 0 else d


def joukowski_radius(z0) -> float:
    """Radius R = |zeta0| > 1 with z0 = (zeta0 + 1/zeta0)/2."""
    return abs(joukowski_preimage(z0))


def joukowski_preimage(z0) -> complex:
    """The preimage zeta0 with |zeta0| > 1.

    The two candidates z0 +/- sqrt(z0**2 - 1) are reciprocal; the one with
    larger modulus is the exterior preimage, so no branch-cut bookkeeping is
    needed.
    """
    z0 = complex(z0)
    if segment_distance(z0) <= ON_SEGMENT_TOL:
        raise DegeneratePointError(f"{z0} lies on [-1,1]")
    w = complex(np.sqrt(complex(z0 * z0 - 1.0)))
    plus, minus = z0 + w, z0 - w
    return plus if abs(plus) >= abs(minus) else minus


@dataclass(frozen=True)
class RegionSpec:
    """Target point z0 and region parameter r for H(r) membership tests."""

    z0: complex
    r: float
    R: float = field(init=False)

    def __post_init__(self):
        z0 = complex(self.z0)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "R", joukowski_radius(z0))  # z0 on [-1,1] raises
        if not self.r > 0:  # NaN fails too
            raise ValueError("r must be positive")
        if self.r >= self.R:
            raise ValueError(f"r={self.r} must be < R={self.R}")


def in_region_H(z, spec: RegionSpec):
    """Membership in H(r) around spec.z0: |z - z0| <= r dist(z, [-1,1]).

    That is H1 u H2 u H3: |z - z0| <= r |z + 1| for Re z <= -1, r |Im z| for
    |Re z| <= 1 and r |z - 1| for Re z >= 1, since z - clip(Re z, -1, 1) is
    z + 1, i Im z or z - 1 there, to the bit.  Elementwise over arrays; a bool
    for a scalar.  Boundary points (equality) count as inside.
    """
    z = np.asarray(z, dtype=complex)
    inside = np.abs(z - spec.z0) <= spec.r * np.abs(z - np.clip(z.real, -1.0, 1.0))
    return bool(inside) if inside.ndim == 0 else inside
