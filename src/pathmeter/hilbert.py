"""Dense complex linear algebra for small Hilbert spaces.

States are plain complex 1-d numpy arrays (sub-normalised vectors are
legal: substates of a decomposed evolution generally have norm < 1).
Operators are dense complex square arrays. Everything here is a pure
function of its inputs; returned arrays are fresh and safe to share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumWarning,
    DimensionMismatch,
    NotHermitian,
)

# |M - M^dag|_max <= HERMITICITY_RTOL * |M|_max
HERMITICITY_RTOL = 1e-12
# eigenvalue gaps below DEGENERACY_TOL * spectral_radius flag the spectrum
DEGENERACY_TOL = 1e-9


def as_state(psi, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite complex state vector, optionally checking `dim`."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size == 0:
        raise DimensionMismatch(f"state must be a 1-d vector, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state vector has non-finite amplitudes")
    if dim is not None and psi.size != dim:
        raise DimensionMismatch(f"state has dim {psi.size}, expected {dim}")
    return psi


def require_hermitian(M, name: str = "operator") -> np.ndarray:
    """Coerce to a dense complex square matrix and verify hermiticity."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise NotHermitian(f"{name} has non-finite entries")
    scale = np.abs(M).max()
    dev = np.abs(M - M.conj().T).max()
    if dev > HERMITICITY_RTOL * max(scale, 1e-300):
        raise NotHermitian(
            f"{name} deviates from hermiticity by {dev:.3e} (scale {scale:.3e})"
        )
    return M


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigen-system of a Hermitian operator.

    eigenvalues are ascending; eigenvectors are column-orthonormal with the
    phase fixed so each column's largest-magnitude component is real
    positive (makes decomposition-derived amplitudes reproducible).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate: bool = False

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def projector(self, k: int) -> np.ndarray:
        v = self.eigenvectors[:, k]
        return np.outer(v, v.conj())

    def to_eigenbasis(self, psi) -> np.ndarray:
        return self.eigenvectors.conj().T @ as_state(psi, self.dim)

    def from_eigenbasis(self, psi) -> np.ndarray:
        return self.eigenvectors @ as_state(psi, self.dim)

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    # rotate each column so its largest-|.| component is real positive;
    # argmax takes the lowest index on ties, so the choice is deterministic
    out = vectors.copy()
    for k in range(out.shape[1]):
        v = out[:, k]
        i = int(np.argmax(np.abs(v)))
        a = v[i]
        if a != 0:
            out[:, k] = v * (a.conj() / abs(a))
    return out


def spectral_decompose(A) -> SpectralDecomposition:
    """Eigen-decompose a Hermitian operator with a fixed phase convention.

    Issues a DegenerateSpectrumWarning (and sets the `degenerate` flag)
    when an eigenvalue gap falls below DEGENERACY_TOL scaled by the
    spectral radius. Degenerate operators cannot label eigenpaths but may
    still be exponentiated.
    """
    A = require_hermitian(A, "observable")
    vals, vecs = np.linalg.eigh(A)
    vecs = _fix_phases(vecs)
    radius = float(np.abs(vals).max())
    degenerate = False
    if vals.size > 1:
        gap = float(np.diff(vals).min())
        if gap <= DEGENERACY_TOL * max(radius, 1e-300):
            degenerate = True
            warnings.warn(
                f"eigenvalue gap {gap:.3e} below tolerance; spectrum treated as degenerate",
                DegenerateSpectrumWarning,
                stacklevel=2,
            )
    return SpectralDecomposition(vals, vecs, degenerate)


def exact_propagator(H, T: float) -> np.ndarray:
    """exp(-iHT) for Hermitian H, via spectral decomposition."""
    if T < 0:
        raise ValueError(f"propagation time must be >= 0, got {T}")
    H = require_hermitian(H, "Hamiltonian")
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * vals * T)) @ vecs.conj().T


def trotter_propagator(H1, H2, T: float, N: int, symmetric: bool = False) -> np.ndarray:
    """First-order split product (exp(-i H1 eps) exp(-i H2 eps))^N, eps = T/N.

    The H1 factor sits to the left of the H2 factor in every slice, i.e.
    the H2 half acts first within a slice. `symmetric=True` selects the
    second-order splitting exp(-i H1 eps/2) exp(-i H2 eps) exp(-i H1 eps/2).
    """
    H1 = require_hermitian(H1, "H1")
    H2 = require_hermitian(H2, "H2")
    if H1.shape != H2.shape:
        raise DimensionMismatch(f"H1 {H1.shape} vs H2 {H2.shape}")
    if N < 1:
        raise ValueError(f"slice count must be >= 1, got {N}")
    if T < 0:
        raise ValueError(f"propagation time must be >= 0, got {T}")
    eps = T / N
    if symmetric:
        half = exact_propagator(H1, eps / 2)
        step = half @ exact_propagator(H2, eps) @ half
    else:
        step = exact_propagator(H1, eps) @ exact_propagator(H2, eps)
    return np.linalg.matrix_power(step, N)
