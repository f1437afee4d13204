"""Finite Hermitian surrogate for the operator-valued bound.

For a self-adjoint A with spectrum in [-1,1], the combination
sum alpha_k (A - z_k I)^{-1} - sum gamma_l A^l is a normal function of A, so
its spectral norm equals the worst scalar deviation over the eigenvalues and
is bounded by the same certificate as the scalar problem.  Matrices up to
dim 64 suffice: the bound is dimension-independent.

All work runs on (n, dim, dim) stacks, one operator being a stack of one:
`operator_sweep` checks the matrices of `random_hermitian_in_spectrum(dim,
seed + i)` as one stacked computation, in chunks of at most 64 operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import CERT_RTOL, SignalDesign

DIM_CAP = 64
HERMITIAN_TOL = 1e-12
SPECTRUM_TOL = 1e-10
SWEEP_CHUNK = 64  # operators per stack, so sweep memory does not grow with the count


class OperatorError(ValueError):
    """Matrix fails the Hermitian/spectrum invariants or mode unsupported."""


def _checked(a: np.ndarray) -> np.ndarray:
    """a if it is a stack of finite Hermitian matrices with spectra in [-1,1]."""
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] > DIM_CAP:
        raise OperatorError(f"entries must form a square matrix of dim at most {DIM_CAP}")
    if not np.isfinite(a).all():
        raise OperatorError("entries must be finite")
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    if np.any(np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2)) > HERMITIAN_TOL * scale):
        raise OperatorError("matrix is not Hermitian to tolerance")
    eigs = np.linalg.eigvalsh(a)
    if eigs.min() < -1.0 - SPECTRUM_TOL or eigs.max() > 1.0 + SPECTRUM_TOL:
        raise OperatorError("spectrum must lie in [-1,1]")
    return a


@dataclass(frozen=True)
class HermitianOperator:
    entries: tuple

    def __post_init__(self):
        a = _checked(np.asarray(self.entries, dtype=complex)[None])[0]
        object.__setattr__(self, "entries", tuple(map(tuple, a.tolist())))

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.entries, dtype=complex)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _random_stack(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """Q diag(d) Q^H per seed, each from its own default_rng(seed)."""
    if not 1 <= dim <= DIM_CAP:
        raise OperatorError(f"dim must be in [1, {DIM_CAP}]")
    g = np.empty((len(seeds), dim, dim), dtype=complex)
    diag = np.zeros((len(seeds), dim, dim))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        g[i] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        np.fill_diagonal(diag[i], rng.uniform(-1.0, 1.0, size=dim))
    q, _ = np.linalg.qr(g)
    a = q @ diag @ q.conj().swapaxes(1, 2)
    return (a + a.conj().swapaxes(1, 2)) / 2.0


def random_hermitian_in_spectrum(dim: int, seed: int) -> HermitianOperator:
    """Seeded random Hermitian matrix with eigenvalues uniform in [-1,1]."""
    return HermitianOperator(entries=tuple(map(tuple, _random_stack(dim, [seed])[0].tolist())))


def _combination(a: np.ndarray, design: SignalDesign) -> np.ndarray:
    if design.gammas is None:
        raise OperatorError(f"mode {design.mode!r} has no polynomial operator target")
    # a full-stack right-hand side: numpy < 2 reads a (dim, dim) one as a stack of vectors
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    out = np.zeros_like(a)
    for alpha, z in zip(design.alphas, design.poles.points):
        out += alpha * np.linalg.solve(a - z * eye, eye)
    power = eye.copy()
    for gamma in design.gammas:
        out -= gamma * power
        power = power @ a
    return out


def _bound(a: np.ndarray, design: SignalDesign):
    norms = np.linalg.svd(_combination(a, design), compute_uv=False)[:, 0]
    return norms, norms <= design.epsilon * (1.0 + CERT_RTOL)


def resolvent_combination(A: HermitianOperator, design: SignalDesign) -> np.ndarray:
    """sum_k alpha_k (A - z_k I)^{-1} - sum_l gamma_l A^l via dense solves."""
    return _combination(A.matrix[None], design)[0]


def verify_operator_bound(A: HermitianOperator, design: SignalDesign):
    """Spectral norm of the combination and whether the certificate holds."""
    norms, certified = _bound(A.matrix[None], design)
    return float(norms[0]), bool(certified[0])


def operator_sweep(design: SignalDesign, dim: int, seeds: Sequence[int]):
    """Norms and certified flags of verify_operator_bound over the matrices
    random_hermitian_in_spectrum(dim, seed), one per seed."""
    if not len(seeds):
        raise OperatorError("the sweep needs at least one seed")
    chunks = [_bound(_checked(_random_stack(dim, seeds[i:i + SWEEP_CHUNK])), design)
              for i in range(0, len(seeds), SWEEP_CHUNK)]
    return tuple(np.concatenate(part) for part in zip(*chunks))
