"""Dense complex matrix primitives: the shape check, the Frobenius norm,
numerical rank, an orthonormal basis by QR, and the scalar threshold maps
of the singular value functional calculus."""

import math

import numpy as np
from numpy.linalg import _umath_linalg

_EPS = float(np.finfo(float).eps)


def check_shape(x, shape) -> np.ndarray:
    """``x`` as an array, once its shape is checked to be ``shape``."""
    x = np.asarray(x)
    if x.shape != shape:
        raise ValueError(f"expected shape {shape}, got {x.shape}")
    return x


def frobenius_norm(a) -> float:
    """Frobenius norm of an array of any shape, sqrt(Re(sum(conj(a_ij) * a_ij))).

    No validation: the inner loop of the solvers calls it a few times per
    row, where ``np.linalg.norm`` costs about twice as much on complex
    input (it sums the real and imaginary parts separately)."""
    return math.sqrt(np.vdot(a, a).real)


def qr_q(y) -> np.ndarray:
    """Q of the reduced QR factorization of a tall float64 or complex128
    matrix, bit-identical to ``np.linalg.qr(y)[0]``: it calls the two
    gufuncs that numpy's own ``qr`` calls (LAPACK's geqrf, then ungqr),
    without the wrapper that copies y, forms R with ``triu``, casts both
    factors and turns the gufuncs' error flag (a failed allocation, or an
    illegal LAPACK argument, which a 2-d array cannot cause) into
    LinAlgError; here a flag warns, and its NaN Q makes the attempt fall
    back.

    Consumes ``y``: geqrf overwrites it with its Householder reflectors.
    Only float64 and complex128 reach it, from the passes of
    :func:`slra.envelope._truncated_svd`: g = F - Lambda/2 with a float64
    Lambda, and a g that linalg cannot factor fails row 0, always a full
    ``np.linalg.svd`` of g, first.  Another dtype finds no loop and raises
    TypeError."""
    c = y.dtype.char
    tau = _umath_linalg.qr_r_raw(y, signature=f"{c}->{c}")
    return _umath_linalg.qr_reduced(y, tau, signature=f"{c}{c}->{c}")


def _threshold_input(x, sigma0: float):
    """``x`` as a float array, once sigma0 > 0 and x >= 0 are checked."""
    x = np.asarray(x, dtype=float)
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if (x < 0).any():
        raise ValueError("threshold input must be non-negative")
    return x


def f_hard(x, sigma0: float):
    """Hard threshold: 0 below sigma0, identity from sigma0 on.

    The tie at ``x == sigma0`` resolves to ``sigma0`` (the value is kept).
    Accepts scalars or arrays of non-negative values.
    """
    x = _threshold_input(x, sigma0)
    out = np.where(x >= sigma0, x, 0.0)
    return float(out) if out.ndim == 0 else out


def f_alpha(x, sigma0: float, alpha: float):
    """Three-branch shrinkage map of the augmented primal update.

    Returns 0 for ``x < sigma0``, the ramp ``(2/alpha) * (x - sigma0)`` on
    ``[sigma0, (1 + alpha/2) * sigma0)`` and ``x / (1 + alpha/2)`` above.
    Continuous and monotone; ``alpha`` must be positive. Satisfies
    ``0 <= f_alpha(x) <= x``.

    Each branch is evaluated on its own entries only: over all of them
    the ramp overflows for a tiny ``alpha``.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = _threshold_input(x, sigma0)
    divisor = 1.0 + alpha / 2.0
    top = x >= divisor * sigma0
    out = np.where(top, x / divisor, 0.0)
    np.multiply(2.0 / alpha, x - sigma0, out=out, where=(x >= sigma0) & ~top)
    return float(out) if out.ndim == 0 else out


def numerical_rank(s, rel_tol: float) -> int:
    """Number of the non-increasing singular values ``s`` above
    ``rel_tol * s[0]`` (0 for the zero matrix).  ``rel_tol`` must lie in (0, 1)."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    return int(np.count_nonzero(s > rel_tol * s[0]))
