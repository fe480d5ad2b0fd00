"""Linear matrix subspaces exposed through their orthogonal projectors.

Solvers only consume the projector P onto the subspace (the one onto its
orthogonal complement is X - P(X)), so a structure plugs in as any object
with a ``shape`` (rows, cols) and a ``project`` that is linear, idempotent
and self-adjoint for the real Frobenius inner product.  A structure whose
entries share values is its label map, the index of the value each entry
holds: Hankel is i + j, Toeplitz i - j + cols - 1, and block Hankel
[H_1 ... H_C] c (rows + cols - 1) + i + j on column block c.  The
program builds the Hankel instance.
"""

import numpy as np

from .matops import check_shape


class LabelSubspace:
    """Matrices whose entries of equal label are equal, generated by a
    vector v of length L via X[i, j] = v[labels[i, j]], for an integer
    matrix ``labels`` that takes every value 0 ... L-1.

    The label sums behind the projection are taken by one gather of the
    entries into label order and one ``np.add.reduceat`` over the labels,
    which numpy sums pairwise, for real and complex input alike."""

    def __init__(self, labels):
        self.shape = labels.shape
        # The label map, the flat positions in label order, where each label
        # starts in that order, and the label sizes, precomputed because
        # projection is the inner-loop cost after the SVD.
        self._idx = labels
        self._order = np.argsort(labels.ravel(), kind="stable")
        self._counts = np.bincount(labels.ravel())
        self.length = self._counts.size
        self._starts = np.concatenate(([0], np.cumsum(self._counts[:-1])))

    def project(self, x):
        """Frobenius-nearest member: the arithmetic mean of each label."""
        return self.to_vector(x)[self._idx]

    def to_vector(self, x):
        """Generating vector of the nearest member (exact inverse of
        :meth:`from_vector` on members)."""
        x = check_shape(x, self.shape)
        return np.add.reduceat(x.take(self._order), self._starts) / self._counts

    def from_vector(self, v):
        """Member generated by ``v``: X[i, j] = v[labels[i, j]]."""
        return check_shape(v, (self.length,))[self._idx]


class HankelSubspace(LabelSubspace):
    """Matrices constant along antidiagonals, H[i, j] = v[i + j] for a
    vector v of length L = rows + cols - 1: the label map i + j."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        super().__init__(np.add.outer(np.arange(rows), np.arange(cols)))
