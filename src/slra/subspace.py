"""Linear matrix subspaces exposed through their orthogonal projectors.

Solvers only consume the projector P onto the subspace (the one onto its
orthogonal complement is X - P(X)), so new structures (Toeplitz, block
Hankel, ...) plug in by subclassing :class:`SubspaceOp`.  The Hankel
subspace is the principal instance; its projector is antidiagonal
averaging.
"""

import numpy as np


class SubspaceOp:
    """A linear subspace of (rows, cols) matrix space.

    Subclasses implement :meth:`project`, which must be linear, idempotent
    and self-adjoint for the real Frobenius inner product.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        self.shape = (rows, cols)

    def _check_shape(self, x):
        x = np.asarray(x)
        if x.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {x.shape}")
        return x

    def project(self, x):
        raise NotImplementedError


class HankelSubspace(SubspaceOp):
    """Matrices constant along antidiagonals, generated by a vector of
    length L = rows + cols - 1 via H[i, j] = v[i + j].

    The antidiagonal sums behind the projection are taken by one gather of
    the entries into antidiagonal order and one ``np.add.reduceat`` over
    the antidiagonals, which numpy sums pairwise, for real and complex
    input alike."""

    def __init__(self, rows: int, cols: int):
        super().__init__(rows, cols)
        self.length = rows + cols - 1
        # Antidiagonal index map, the flat positions in antidiagonal order,
        # where each antidiagonal starts in that order, and the antidiagonal
        # sizes, precomputed because projection is the inner-loop cost
        # after the SVD.
        self._idx = np.add.outer(np.arange(rows), np.arange(cols))
        self._order = np.argsort(self._idx.ravel(), kind="stable")
        self._counts = np.bincount(self._idx.ravel(), minlength=self.length)
        self._starts = np.concatenate(([0], np.cumsum(self._counts[:-1])))

    def _antidiag_means(self, x):
        return np.add.reduceat(x.take(self._order), self._starts) / self._counts

    def project(self, x):
        """Frobenius-nearest Hankel matrix: antidiagonal arithmetic means."""
        x = self._check_shape(x)
        return self._antidiag_means(x)[self._idx]

    def to_vector(self, x):
        """Generating vector of the nearest Hankel matrix (exact inverse of
        :meth:`from_vector` on Hankel input)."""
        x = self._check_shape(x)
        return self._antidiag_means(x)

    def from_vector(self, v):
        """Hankel matrix generated by ``v``: H[i, j] = v[i + j]."""
        v = np.asarray(v)
        if v.ndim != 1 or v.size != self.length:
            raise ValueError(f"expected a vector of length {self.length}, got {v.shape}")
        return v[self._idx]

