"""Finite Hermitian surrogate for the operator-valued bound.

For a self-adjoint A with spectrum in [-1,1], the combination
sum alpha_k (A - z_k I)^{-1} - sum gamma_l A^l is a normal function of A, so
its spectral norm equals the worst scalar deviation over the eigenvalues and
is bounded by the same certificate as the scalar problem.  Matrices up to
dim 64 suffice: the bound is dimension-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import CERT_RTOL, SignalDesign

DIM_CAP = 64
HERMITIAN_TOL = 1e-12
SPECTRUM_TOL = 1e-10


class OperatorError(ValueError):
    """Matrix fails the Hermitian/spectrum invariants or mode unsupported."""


@dataclass(frozen=True)
class HermitianOperator:
    entries: tuple

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise OperatorError("entries must form a square matrix")
        if a.shape[0] > DIM_CAP:
            raise OperatorError(f"dim {a.shape[0]} exceeds cap {DIM_CAP}")
        scale = max(1.0, np.abs(a).max())
        if np.abs(a - a.conj().T).max() > HERMITIAN_TOL * scale:
            raise OperatorError("matrix is not Hermitian to tolerance")
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() < -1.0 - SPECTRUM_TOL or eigs.max() > 1.0 + SPECTRUM_TOL:
            raise OperatorError("spectrum must lie in [-1,1]")
        object.__setattr__(self, "entries", tuple(map(tuple, a.tolist())))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=complex)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def random_hermitian_in_spectrum(dim: int, seed: int) -> HermitianOperator:
    """Seeded random Hermitian matrix with eigenvalues uniform in [-1,1]."""
    if not 1 <= dim <= DIM_CAP:
        raise OperatorError(f"dim must be in [1, {DIM_CAP}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    d = rng.uniform(-1.0, 1.0, size=dim)
    a = q @ np.diag(d) @ q.conj().T
    a = (a + a.conj().T) / 2.0
    return HermitianOperator(entries=tuple(map(tuple, a.tolist())))


def resolvent_combination(A: HermitianOperator, design: SignalDesign) -> np.ndarray:
    """sum_k alpha_k (A - z_k I)^{-1} - sum_l gamma_l A^l via dense solves."""
    if design.gammas is None:
        raise OperatorError(f"mode {design.mode!r} has no polynomial operator target")
    a = A.matrix
    eye = np.eye(A.dim, dtype=complex)
    out = np.zeros_like(a)
    for alpha, z in zip(design.alphas, design.poles.points):
        out += alpha * np.linalg.solve(a - z * eye, eye)
    power = eye.copy()
    for gamma in design.gammas:
        out -= gamma * power
        power = power @ a
    return out


def verify_operator_bound(A: HermitianOperator, design: SignalDesign):
    """Spectral norm of the combination and whether the certificate holds."""
    comb = resolvent_combination(A, design)
    norm = float(np.linalg.svd(comb, compute_uv=False)[0])
    return norm, norm <= design.epsilon * (1.0 + CERT_RTOL)
