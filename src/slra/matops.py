"""Dense complex matrix primitives: singular values, Frobenius geometry,
numerical rank, and the scalar threshold maps of the singular value
functional calculus."""

import math

import numpy as np


def _as_matrix(a):
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _check_same_shape(a, b):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def frobenius_inner(a, b) -> float:
    """Real Frobenius inner product Re(sum(conj(a_ij) * b_ij)).

    Symmetric on complex matrices and reduces to the usual trace inner
    product for real ones; ``frobenius_inner(a, a)`` is the squared
    Frobenius norm of ``a``.
    """
    a, b = _as_matrix(a), _as_matrix(b)
    _check_same_shape(a, b)
    return float(np.real(np.vdot(a, b)))


def frobenius_norm(a) -> float:
    """Frobenius norm of an array of any shape, sqrt(Re(sum(conj(a_ij) * a_ij))).

    No validation: the inner loop of the solvers calls it a few times per
    row, where ``np.linalg.norm`` costs about twice as much on complex
    input (it sums the real and imaginary parts separately)."""
    return math.sqrt(np.vdot(a, a).real)


def singular_values(a) -> np.ndarray:
    """Singular values only (non-increasing), skipping the vector computation."""
    a = _as_matrix(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return np.linalg.svd(a, compute_uv=False)


def f_hard(x, sigma0: float):
    """Hard threshold: 0 below sigma0, identity from sigma0 on.

    The tie at ``x == sigma0`` resolves to ``sigma0`` (the value is kept).
    Accepts scalars or arrays of non-negative values.
    """
    x = np.asarray(x, dtype=float)
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if (x < 0).any():
        raise ValueError("threshold input must be non-negative")
    out = np.where(x >= sigma0, x, 0.0)
    return float(out) if out.ndim == 0 else out


def f_alpha(x, sigma0: float, alpha: float):
    """Three-branch shrinkage map of the augmented primal update.

    Returns 0 for ``x < sigma0``, the ramp ``(2/alpha) * (x - sigma0)`` on
    ``[sigma0, (1 + alpha/2) * sigma0)`` and ``x / (1 + alpha/2)`` above.
    Continuous and monotone for ``alpha > 0``; ``alpha == 0`` delegates to
    the hard threshold ``f_hard``. Satisfies ``0 <= f_alpha(x) <= x``.

    Each branch is evaluated on its own entries only: over all of them
    the ramp overflows for a tiny ``alpha``.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha == 0:
        return f_hard(x, sigma0)
    x = np.asarray(x, dtype=float)
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if (x < 0).any():
        raise ValueError("threshold input must be non-negative")
    divisor = 1.0 + alpha / 2.0
    top = x >= divisor * sigma0
    out = np.where(top, x / divisor, 0.0)
    np.multiply(2.0 / alpha, x - sigma0, out=out, where=(x >= sigma0) & ~top)
    return float(out) if out.ndim == 0 else out


def numerical_rank(a, rel_tol: float = 1e-9) -> int:
    """Number of singular values above ``rel_tol * sigma_1`` (0 for the
    zero matrix).  ``rel_tol`` must lie in (0, 1)."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    s = singular_values(a)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))
