"""Linear matrix subspaces exposed through their orthogonal projectors.

Solvers only consume the projector P onto the subspace (the one onto its
orthogonal complement is X - P(X)), so another structure (Toeplitz, block
Hankel, ...) plugs in as any object with a ``shape`` (rows, cols) and a
``project`` that is linear, idempotent and self-adjoint for the real
Frobenius inner product.  The Hankel subspace is the principal instance;
its projector is antidiagonal averaging.
"""

import numpy as np

from .matops import check_shape


class HankelSubspace:
    """Matrices constant along antidiagonals, generated by a vector of
    length L = rows + cols - 1 via H[i, j] = v[i + j].

    The antidiagonal sums behind the projection are taken by one gather of
    the entries into antidiagonal order and one ``np.add.reduceat`` over
    the antidiagonals, which numpy sums pairwise, for real and complex
    input alike."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        self.shape = (rows, cols)
        self.length = rows + cols - 1
        # Antidiagonal index map, the flat positions in antidiagonal order,
        # where each antidiagonal starts in that order, and the antidiagonal
        # sizes, precomputed because projection is the inner-loop cost
        # after the SVD.
        self._idx = np.add.outer(np.arange(rows), np.arange(cols))
        self._order = np.argsort(self._idx.ravel(), kind="stable")
        self._counts = np.bincount(self._idx.ravel(), minlength=self.length)
        self._starts = np.concatenate(([0], np.cumsum(self._counts[:-1])))

    def project(self, x):
        """Frobenius-nearest Hankel matrix: antidiagonal arithmetic means."""
        return self.to_vector(x)[self._idx]

    def to_vector(self, x):
        """Generating vector of the nearest Hankel matrix (exact inverse of
        :meth:`from_vector` on Hankel input)."""
        x = check_shape(x, self.shape)
        return np.add.reduceat(x.take(self._order), self._starts) / self._counts

    def from_vector(self, v):
        """Hankel matrix generated by ``v``: H[i, j] = v[i + j]."""
        return check_shape(v, (self.length,))[self._idx]

