"""Linear matrix subspaces exposed through their orthogonal projectors.

Solvers only consume the projector pair (onto the subspace and onto its
orthogonal complement), so new structures (Toeplitz, block Hankel, ...)
plug in by subclassing :class:`SubspaceOp`.  The Hankel subspace is the
principal instance; its projector is antidiagonal averaging.
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

    def complement(self, x):
        """Projection onto the orthogonal complement, X - P(X)."""
        x = self._check_shape(x)
        return x - self.project(x)


class ZeroSubspace(SubspaceOp):
    """The trivial subspace {0}; its complement is the whole space."""

    def project(self, x):
        x = self._check_shape(x)
        return np.zeros_like(x)


class HankelSubspace(SubspaceOp):
    """Matrices constant along antidiagonals, generated by a vector of
    length L = rows + cols - 1 via H[i, j] = v[i + j]."""

    def __init__(self, rows: int, cols: int):
        super().__init__(rows, cols)
        self.length = rows + cols - 1
        # Antidiagonal index map and the antidiagonal sizes, precomputed
        # because projection is the inner-loop cost after the SVD.
        self._idx = np.add.outer(np.arange(rows), np.arange(cols))
        self._flat_idx = self._idx.ravel()
        self._counts = np.bincount(self._flat_idx, minlength=self.length)

    def _antidiag_means(self, x):
        xr = x.ravel()
        sums = np.bincount(self._flat_idx, weights=xr.real, minlength=self.length)
        if np.iscomplexobj(x):
            sums = sums + 1j * np.bincount(
                self._flat_idx, weights=xr.imag, minlength=self.length
            )
        return sums / self._counts

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

