"""ESPRIT baseline: subspace frequency estimation from a noisy signal with
least-squares amplitude fitting."""

import warnings
from dataclasses import dataclass

import numpy as np

from .subspace import HankelSubspace

#: singular values below this fraction of the largest count as noise-only
#: when detecting how many modes the shift system can resolve
_MODE_DETECT_RTOL = 1e-10


class RankDeficiencyWarning(UserWarning):
    """The signal supports fewer resolvable modes than requested."""


@dataclass
class EspritEstimate:
    """Estimated exponents, amplitudes and the model resampled on the
    input grid; ``rank_deficient`` flags a partial estimate."""

    zetas: np.ndarray
    coeffs: np.ndarray
    reconstruction: np.ndarray
    rank_deficient: bool = False


def esprit_estimate(f, P: int, rows: int, cols: int, delta: float = 1.0,
                    indices=None) -> EspritEstimate:
    """Estimate P complex exponentials from a length rows+cols-1 signal.

    The signal subspace is spanned by the P leading left singular vectors
    of the Hankel matrix of ``f``; the shift-invariance least-squares
    system yields the pole matrix whose eigenvalues are exp(zeta * delta).
    Exponents take the principal logarithm (aliases of zeta by multiples of
    2 pi i / delta are indistinguishable), and amplitudes come from a
    Vandermonde least-squares fit on the grid.

    When the signal resolves fewer than P modes the estimate is truncated
    to the resolvable ones, flagged, and a warning is issued.
    """
    f = np.asarray(f)
    if P < 1:
        raise ValueError("P must be positive")
    if P > min(rows, cols):
        raise ValueError("P cannot exceed min(rows, cols)")
    if f.ndim != 1 or f.size != rows + cols - 1:
        raise ValueError(f"signal length {f.size} != rows + cols - 1 = {rows + cols - 1}")
    if indices is None:
        indices = np.arange(f.size)
    indices = np.asarray(indices, dtype=float)

    H = HankelSubspace(rows, cols).from_vector(f)
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    n_modes = int(np.count_nonzero(s > _MODE_DETECT_RTOL * s[0])) if s[0] > 0 else 0
    n_modes = min(n_modes, P)
    deficient = n_modes < P
    if deficient:
        warnings.warn(
            f"signal resolves {n_modes} of {P} requested modes",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    if n_modes == 0:
        return EspritEstimate(
            zetas=np.zeros(0, dtype=complex),
            coeffs=np.zeros(0, dtype=complex),
            reconstruction=np.zeros_like(f, dtype=complex),
            rank_deficient=True,
        )

    Us = U[:, :n_modes]
    psi, *_ = np.linalg.lstsq(Us[:-1], Us[1:], rcond=None)
    poles = np.linalg.eigvals(psi)
    zetas = np.log(poles.astype(complex)) / delta

    vand = np.exp(np.multiply.outer(indices * delta, zetas))
    coeffs, *_ = np.linalg.lstsq(vand, f.astype(complex), rcond=None)
    return EspritEstimate(
        zetas=zetas,
        coeffs=coeffs,
        reconstruction=vand @ coeffs,
        rank_deficient=deficient,
    )


def esprit_hankel_error(f, P: int, rows: int, cols: int, delta: float, indices) -> tuple:
    """Frobenius and l2 residuals of the ESPRIT reconstruction against the
    signal it was fitted to.

    Fits on ``f``, builds the Hankel matrix of the reconstruction a and
    returns (||A - H(f)||_F, ||a - f||_2).
    """
    est = esprit_estimate(f, P, rows, cols, delta, indices)
    sub = HankelSubspace(rows, cols)
    f = np.asarray(f)
    frob = float(np.linalg.norm(sub.from_vector(est.reconstruction) - sub.from_vector(f)))
    l2 = float(np.linalg.norm(est.reconstruction - f))
    return frob, l2
