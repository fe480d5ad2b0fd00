"""ESPRIT baseline: subspace frequency estimation from a noisy signal with
least-squares amplitude fitting."""

import warnings
from dataclasses import dataclass

import numpy as np

from .matops import numerical_rank
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
    rank_deficient: bool


def esprit_estimate(f, P: int, sub: HankelSubspace, delta: float,
                    indices) -> EspritEstimate:
    """Estimate P complex exponentials from a signal of length ``sub.length``.

    The signal subspace is spanned by the P leading left singular vectors
    of the Hankel matrix of ``f`` on ``sub``, which checks the length.  It
    needs the Hankel instance, whose rows are shifts of each other: their
    shift-invariance least-squares system yields the pole matrix whose
    eigenvalues are exp(zeta * delta).  Exponents take the principal
    logarithm (aliases of zeta by multiples of 2 pi i / delta are
    indistinguishable), and amplitudes come from a Vandermonde
    least-squares fit on the grid.

    When the signal resolves fewer than P modes the estimate is truncated
    to the resolvable ones, flagged, and a warning is issued.
    """
    f = np.asarray(f)
    if P < 1:
        raise ValueError("P must be positive")
    if P > min(sub.shape):
        raise ValueError("P cannot exceed min(rows, cols)")
    indices = np.asarray(indices, dtype=float)

    H = sub.from_vector(f)
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    n_modes = min(numerical_rank(s, _MODE_DETECT_RTOL), P)
    deficient = n_modes < P
    if deficient:
        warnings.warn(
            f"signal resolves {n_modes} of {P} requested modes",
            RankDeficiencyWarning,
            stacklevel=2,
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


def esprit_hankel_error(f, P: int, sub: HankelSubspace, delta: float, indices) -> tuple:
    """Frobenius and l2 residuals of the ESPRIT reconstruction against the
    signal it was fitted to.

    Fits on ``f`` and returns (||H(a - f)||_F, ||a - f||_2) for the
    reconstruction a, H(a - f) = A - H(f) being the Hankel matrix of the
    residual on ``sub``.
    """
    est = esprit_estimate(f, P, sub, delta, indices)
    r = est.reconstruction - np.asarray(f)
    frob = float(np.linalg.norm(sub.from_vector(r)))
    l2 = float(np.linalg.norm(r))
    return frob, l2
