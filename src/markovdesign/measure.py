"""Discrete probability measures on [-1,1].

Every measure-independence claim in this package is tested against finitely
atomic measures: the worst case over all probability measures is attained by
point masses (and, under n moment constraints, by measures with at most n+1
atoms), so finite atoms suffice and quadrature error never enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import sup_deviation
from .geometry import ON_SEGMENT_TOL, segment_distance

MASS_TOL = 1e-12


class MeasureError(ValueError):
    """Invalid atoms/weights or evaluation at a point of [-1,1]."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms in [-1,1] with nonnegative weights summing to 1."""

    atoms: tuple
    weights: tuple

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.size != weights.size or atoms.size == 0:
            raise MeasureError("atoms and weights must be nonempty and matched")
        # written so that NaN fails each check
        if not np.all(weights >= 0):
            raise MeasureError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > MASS_TOL:
            raise MeasureError(f"weights sum to {weights.sum()}, not 1")
        if not np.all(np.abs(atoms) <= 1.0):
            raise MeasureError("atoms must lie in [-1,1]")
        # canonical form: strictly increasing atoms (np.unique sorts), duplicates merged
        uniq, inverse = np.unique(atoms, return_inverse=True)
        object.__setattr__(self, "atoms", tuple(uniq.tolist()))
        object.__setattr__(self, "weights", tuple(np.bincount(inverse, weights).tolist()))

    @property
    def atom_array(self) -> np.ndarray:
        return np.asarray(self.atoms, dtype=float)

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def to_json(self) -> dict:
        return {"atoms": list(self.atoms), "weights": list(self.weights)}

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteMeasure":
        return cls(atoms=tuple(obj["atoms"]), weights=tuple(obj["weights"]))

    @classmethod
    def point_mass(cls, lam: float) -> "DiscreteMeasure":
        return cls(atoms=(lam,), weights=(1.0,))


def markov_eval(mu: DiscreteMeasure, z):
    """F_mu(z) = sum_j w_j/(lambda_j - z) for z off [-1,1], elementwise; a complex for a scalar."""
    z = np.asarray(z, dtype=complex)
    if np.any(segment_distance(z) <= ON_SEGMENT_TOL):
        raise MeasureError(f"z = {z} lies on the support interval")
    f = (mu.weight_array / (mu.atom_array - z[..., None])).sum(axis=-1)
    return complex(f) if f.ndim == 0 else f


def moments(mu: DiscreteMeasure, n: int) -> np.ndarray:
    """Moments M_0..M_n; M_0 = 1 always."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    powers = mu.atom_array[None, :] ** np.arange(n + 1)[:, None]
    return powers @ mu.weight_array


# The point mass at the argmax of the sup deviation is the worst measure:
# worst_case_point_mass(design) returns (lambda_star, deviation).
worst_case_point_mass = sup_deviation


def random_measure_with_moments(m1: float, atom_count: int, seed: int,
                                atoms=None) -> DiscreteMeasure:
    """Deterministic pseudo-random measure with first moment m1.

    Positive weights w0 with mean mu0 on the atoms (unless given: one below m1,
    one above, the rest uniform on [-1,1]) are mixed with the point mass at the
    outermost atom lambda_far beyond m1 in the share t = (mu0 - m1)/(mu0 - lambda_far) < 1.
    """
    if not -1.0 < m1 < 1.0:
        raise MeasureError(f"first moment {m1} must lie strictly inside (-1,1)")
    if atom_count < 2:
        raise MeasureError("need at least 2 atoms")
    rng = np.random.default_rng(seed)
    if atoms is None:
        lam = np.concatenate([rng.uniform(-1.0, m1, 1), rng.uniform(m1, 1.0, 1),
                              rng.uniform(-1.0, 1.0, atom_count - 2)])
    else:
        lam = np.asarray(atoms, dtype=float)
        if not lam.min() < m1 < lam.max():
            raise MeasureError("prescribed atoms cannot reach the moment")
    w0 = rng.dirichlet(np.ones(lam.size))
    mu0 = w0 @ lam
    far = np.argmin(lam) if mu0 > m1 else np.argmax(lam)
    t = (mu0 - m1) / (mu0 - lam[far])
    w = (1.0 - t) * w0
    w[far] += t
    return DiscreteMeasure(atoms=tuple(lam), weights=tuple(w))
