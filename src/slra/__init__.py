"""Structured low-rank approximation via dual ascent on matrix subspaces.

Rank-penalized least-squares objectives are minimized over linear matrix
subspaces (chiefly Hankel) by plain, augmented and variable-step dual
ascent, with closed-form primal updates through the singular value
functional calculus.
"""

__version__ = "0.1.0"
