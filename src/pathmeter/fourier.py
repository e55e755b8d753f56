"""Centered discrete Fourier transforms on symmetric grids.

Conjugate grids are indexed m, n = 0..L-1 with coordinates
lam_m = (m - L/2) dlam and f_n = (n - L/2) df, df = 2 pi / (L dlam).
The kernels below carry the (m - L/2)(n - L/2) phase so callers never
juggle fftshift bookkeeping:

  centered_idft:  X_n = sum_m x_m exp(+2i pi (m - L/2)(n - L/2) / L)
  centered_dft:   Y_m = sum_n y_n exp(-2i pi (m - L/2)(n - L/2) / L)

Both reduce to one FFT plus sign twiddles; centered_dft(centered_idft(x))
equals L * x.
"""

from __future__ import annotations

import numpy as np


def _alternating(L: int, arr_ndim: int, axis: int) -> np.ndarray:
    s = np.ones(L)
    s[1::2] = -1.0
    shape = [1] * arr_ndim
    shape[axis] = L
    return s.reshape(shape)


def centered_idft(x: np.ndarray, axis: int = 0) -> np.ndarray:
    """Unnormalised inverse transform with centered index convention."""
    x = np.asarray(x)
    L = x.shape[axis]
    sign = _alternating(L, x.ndim, axis)
    # e^{2i pi (m-L/2)(n-L/2)/L} = (-1)^m (-1)^n i^L e^{2i pi m n / L}
    # one buffer, transformed and scaled in place: a temporary per step
    # would raise peak memory on (L, n) stacks
    y = (x * sign).astype(complex, copy=False)
    np.fft.ifft(y, axis=axis, out=y)
    y *= L
    y *= sign
    y *= 1j ** (L % 4)
    return y


def centered_dft(y: np.ndarray, axis: int = 0) -> np.ndarray:
    """Unnormalised forward transform, adjoint of centered_idft."""
    return np.conj(centered_idft(np.conj(y), axis=axis))
