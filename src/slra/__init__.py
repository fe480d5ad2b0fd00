"""Structured low-rank approximation via dual ascent on matrix subspaces.

Rank-penalized least-squares objectives are minimized over linear matrix
subspaces (chiefly Hankel) by plain, augmented and variable-step dual
ascent, with closed-form primal updates through the singular value
functional calculus.
"""

from .envelope import RankObjective, toy_tilted_minimizers
from .esprit import esprit_estimate, esprit_hankel_error
from .matops import (
    f_alpha,
    f_hard,
    numerical_rank,
)
from .signals import (
    SignalModel,
    add_noise,
    four_tone_model,
    gen_cos_sum,
    sample_signal,
    sigma0_heuristic,
    signal_to_hankel,
    snr_to_sigma,
)
from .solvers import (
    ADA,
    DA,
    MOD_ADA,
    SolverConfig,
    SolverResult,
    SolverTrace,
    run,
)
from .subspace import HankelSubspace, SubspaceOp

__version__ = "0.1.0"
