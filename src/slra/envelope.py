"""Rank-penalized least-squares objective, its Fenchel conjugate and convex
envelope in closed form, and the closed-form tilted/augmented minimizers.

The objective on (M, N) matrices is

    sigma0^2 * rank(X) + ||X - F||^2          (Frobenius norm)

whose conjugate and envelope are spectral functions of ``Lambda/2 + F`` and
``X`` respectively.  The quadratic penalty keeps the envelope tight near F,
so no shrinkage applies to singular values above sigma0.  The argmin set
of the tilted scalar toy |x^2 - 1| + lam * x steps the toy table of
:func:`slra.harness.toy_table`.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .matops import (
    f_alpha,
    f_hard,
    frobenius_inner,
    frobenius_norm,
    numerical_rank,
    singular_values,
)

#: relative half-width around sigma0 inside which a hard-threshold input is
#: flagged as degenerate (the minimizer stops being unique there)
DEGENERATE_RTOL = 1e-8

#: truncated SVD in :meth:`RankObjective.update`: block columns beyond the
#: previous row's captured count, and the residual ||G V_k - U_k S_k||_F the
#: captured triplets may leave, as a share of the leading Ritz value.  A
#: row's passes of subspace iteration on a block of p columns are budgeted
#: at B = min(M, N) / p, about the cost of one full SVD of G.  On one
#: OpenBLAS thread a full SVD took 4.1-5.1 passes at 48x47 complex and
#: p = 10 (B = 4.7), 5.4-7.2 at 64x63 (6.3), 20-26 at 129x129 (12.9) and
#: 7.0-7.9 at 101x100 real with p = 20 (5), but only 1.3-1.8 at 30x29
#: complex, where B = 2.9 overprices the full SVD
_EXTRA_COLUMNS = 6
_RESIDUAL_RTOL = 1e-12

_EPS = float(np.finfo(float).eps)


class WarmStart(NamedTuple):
    """What one :meth:`RankObjective.update` hands to the next row of the
    same solver run."""

    vh: np.ndarray     # leading right singular vectors of g, as rows
    prev_vh: Optional[np.ndarray]  # the previous row's block, when both rows were truncated
    dg: float          # bound on ||G - G_prev||_F of the row's G = F - Lambda/2, 0 at a cold row
    captured: int      # singular values of g at or above the cutoff tau
    beta: float        # certified bound beta >= sigma_{captured+1}(g)
    truncated: bool    # the row was priced by the truncated SVD
    fallbacks: int     # truncated attempts of the run that fell back
    wait: int          # rows still to price by the full SVD before trying again
    passes: int        # subspace iteration passes of the row's truncated attempt


@dataclass(frozen=True)
class PrimalUpdate:
    """One closed-form primal minimization, plus the by-products that a
    solver iteration needs, all derived from a single SVD.  The envelope
    value at x is priced on its first read, since ``da`` never reads it."""

    x: np.ndarray          # argmin of the (augmented) tilted objective
    dual_da: float         # -conjugate(-Lambda) at the input Lambda
    envelope: Callable[[], float]  # prices the envelope value at x
    x_norm_sq: float       # ||x||^2
    degenerate: bool       # threshold tie detected (alpha == 0 only)
    warm: Optional[WarmStart] = None  # start of the next row's truncated SVD

    @cached_property
    def envelope_at_x(self) -> float:
        return self.envelope()


def _env_terms(svals, sigma0):
    # sum_j sigma0^2 - max(sigma0 - sigma_j, 0)^2; vanishes at sigma_j = 0
    return float((sigma0**2 - np.maximum(sigma0 - svals, 0.0) ** 2).sum())


def _certify(g, vk, sk, below, tau):
    """A bound c > sigma_{k+1}(g), for k = len(sk), or None.

    Positive definiteness of c^2 I - (g^H g - V_k S_k^2 V_k^H) puts g^H g
    below c^2 I plus a rank-k term, so at most k singular values of g reach
    c, whatever the accuracy of V_k and S_k (up to the rounding of g^H g).
    Tried at one level, c halfway from the first excluded Ritz value
    ``below`` to ``tau``; raises np.linalg.LinAlgError when the matrix is
    not positive definite there."""
    gram = g.conj().T @ g - (vk * sk**2) @ vk.conj().T
    c = 0.5 * (below + tau)
    factor = np.linalg.cholesky(c * c * np.eye(gram.shape[0]) - gram)
    return c if np.all(np.isfinite(factor)) else None


def _start(warm, p, dg):
    """Start block of the truncated attempt at a row.

    The previous row's block V, or, when the row before it was truncated
    too with a block W of the same width, the secant prediction
    V + gamma (V - W W^H V), which extrapolates the move of the subspace
    along the dual-ascent path, with gamma = min(1, dg / dg_prev), the
    bounds on ||dG|| of the row and of the previous row."""
    v = warm.vh[:p].conj().T
    w = warm.prev_vh
    if w is None or w.shape != warm.vh.shape or len(w) != p or not warm.dg > 0:
        return v
    gamma = min(1.0, dg / warm.dg)
    return v + gamma * (v - w.conj().T @ (w @ v))


def _truncated_svd(g, v, warm, dg, tau, budget):
    """Singular triplets of g at or above ``tau`` from a block subspace
    iteration started at the block ``v``, in at most ``budget`` (>= 1)
    passes.

    The first pass always runs, and each later one only when the residual
    cut of the pass before, repeated, brings the residual to the accepted
    level within the budget.  Returns the passes taken and, when the
    truncation is certified, (u, s, vh, block, beta) -- the captured
    triplets, the block's right Ritz vectors as rows and a certified
    beta >= sigma_{k+1}(g) below tau -- or else None.  ``dg`` bounds
    ||g - g_prev||_F from above, g_prev being the G of the row that left
    ``warm``."""
    p = v.shape[1]
    passes, last = 0, np.inf
    try:
        while True:
            passes += 1
            q, _ = np.linalg.qr(g @ v)
            # Ritz triplets of Q^H G from its conjugate transpose
            # G^H Q = V S U_b^H, which is cheaper to factor; formed as
            # conj(G^T conj(Q)), so G itself is never conjugated
            v, s, ubh = np.linalg.svd((g.T @ q.conj()).conj(), full_matrices=False)
            k = int(np.count_nonzero(s >= tau))
            if k == p:  # the block cannot show where the values above tau end
                return passes, None
            u = q @ ubh[:k].conj().T
            resid = frobenius_norm(g @ v[:, :k] - u * s[:k])
            if not np.isfinite(s[0]):
                return passes, None
            if resid <= _RESIDUAL_RTOL * s[0]:
                break
            cut = last / resid
            if not cut > 1.0:  # stalled, or a NaN residual
                return passes, None
            # passes still needed, one when no cut is measured yet
            need = max(1, math.ceil(math.log(resid / (_RESIDUAL_RTOL * s[0])) / math.log(cut)))
            if passes + need > budget:
                return passes, None
            last = resid
        vh = v.conj().T
        # Weyl: sigma_{k+1} moves by at most ||g - g_prev|| <= dg
        beta = warm.beta + dg
        if k != warm.captured or not beta < tau:
            beta = _certify(g, v[:, :k], s[:k], s[k], tau)
            if beta is None:
                return passes, None
    except np.linalg.LinAlgError:
        return passes, None
    return passes, (u, s[:k], vh[:k], vh, beta)


@dataclass(frozen=True)
class RankObjective:
    """Data matrix F and penalty level sigma0 (> 0, same units as the
    singular values)."""

    F: np.ndarray
    sigma0: float

    def __post_init__(self):
        f = np.asarray(self.F)
        if f.ndim != 2:
            raise ValueError("F must be a matrix")
        if not np.all(np.isfinite(f)):
            raise ValueError("F has non-finite entries")
        if not 0 < self.sigma0 < math.inf:
            raise ValueError(f"sigma0 must be finite and positive, got {self.sigma0}")
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "_norm_sq", float(np.real(np.vdot(f, f))))

    @property
    def shape(self):
        return self.F.shape

    def _check(self, x):
        x = np.asarray(x)
        if x.shape != self.F.shape:
            raise ValueError(f"expected shape {self.F.shape}, got {x.shape}")
        return x

    def primal_value(self, x, rel_tol: float = 1e-9) -> float:
        """sigma0^2 * rank(X) + ||X - F||^2 at numerical-rank tolerance
        ``rel_tol``."""
        x = self._check(x)
        return self.sigma0**2 * numerical_rank(x, rel_tol) + frobenius_norm(x - self.F) ** 2

    def dual_value_da(self, lam) -> float:
        """Dual function of the plain scheme, -conjugate(-Lambda) =
        ||F||^2 - sum_j max(sigma_j^2(F - Lambda/2) - sigma0^2, 0), from
        its own values-only SVD."""
        lam = self._check(lam)
        s = singular_values(self.F - lam * 0.5)
        return self._norm_sq - float(np.sum(np.maximum(s**2 - self.sigma0**2, 0.0)))

    def update(self, lam, alpha: float = 0.0, warm: Optional[WarmStart] = None,
               dlam: Optional[float] = None) -> PrimalUpdate:
        """Minimize envelope(X) + <X, Lambda> + (alpha/2)||X||^2 in closed
        form via one SVD of G = F - Lambda/2, returning the minimizer
        together with the quantities solvers track each iteration.

        For ``alpha == 0`` the same matrix also minimizes the non-convex
        tilted objective (hard-threshold rule, ties kept at sigma0).

        ``warm``, the previous row's ``PrimalUpdate.warm``, lets the SVD
        be truncated; it needs ``dlam``, an upper bound on
        ||Lambda - Lambda_prev||_F, Lambda_prev being the multiplier of
        that row.  Forming G = F - Lambda/2 rounds each entry by at most
        eps/2 of its modulus, so dg = dlam / 2 + 2 eps ||F|| bounds
        ||G - G_prev||_F of the computed matrices when ``dlam`` covers
        eps (||Lambda|| + ||Lambda_prev||) / 2 beyond the exact distance,
        as the margin of :func:`slra.solvers.run` does.

        Every quantity here vanishes on singular values below sigma0, so
        only the k values at or above the cutoff
        tau = sigma0 (1 - DEGENERATE_RTOL) are needed, k being the
        previous row's count.  Passes of block subspace iteration on
        p = k + 6 columns compute Q = orth(G V) and the Ritz triplets of
        Q^H G (from the SVD of the tall G^H Q).  A row may spend
        B = min(M, N) / p passes, about the cost of one full SVD, and is
        tried only when B >= 2.  When the previous row's block is narrower
        than k + 6 columns, as after a truncated row that captured more
        values than the row before it, the row runs on that block, which
        holds at least k + 1 columns.  The row's one attempt starts from the
        previous row's block of right singular vectors V, or, when the
        row before it was truncated too with a block W of the same width,
        from the secant prediction V + gamma (V - W W^H V),
        gamma = min(1, dg / dg_prev), which the dual-ascent steps make
        accurate enough to certify most rows after one pass.
        The attempt stops once the passes spent plus
        ceil(log(resid / (1e-12 s_1)) / log(cut)), cut being the ratio of
        its last two residuals, would exceed B.
        The triplets are accepted only when fewer Ritz values than columns
        reach tau, the captured triplets leave
        ||G V_k - U_k S_k||_F <= 1e-12 s_1, and a certified bound
        beta >= sigma_{k+1}(G) lies below tau.  Then,
        by interlacing, exactly k singular values reach tau.  beta is
        exact after a full SVD and grows by dg from row to row (Weyl);
        when k changes or beta reaches tau it is re-established by one
        Cholesky factorization (see ``_certify``).
        Otherwise the row falls back to the full SVD, and after the f-th
        fallback of a run the next attempt comes 2^f rows after the failed
        one.  A threshold tie can only sit among the captured values, so
        ``degenerate`` keeps its meaning; a tie below the cutoff fails the
        certificate and falls back."""
        lam = self._check(lam)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        g = self.F - lam * 0.5
        tau = self.sigma0 * (1.0 - DEGENERATE_RTOL)
        fallbacks, wait, part, dg, passes = 0, 0, None, 0.0, 0
        if warm is not None:
            if dlam is None:
                raise ValueError("a warm start needs dlam")
            dg = 0.5 * dlam + 2.0 * _EPS * math.sqrt(self._norm_sq)
            fallbacks, wait = warm.fallbacks, max(warm.wait - 1, 0)
            columns = min(warm.captured + _EXTRA_COLUMNS, len(warm.vh))
            budget = min(g.shape) / columns  # passes worth one full SVD
            if not warm.wait and budget >= 2:
                v = _start(warm, columns, dg)
                passes, part = _truncated_svd(g, v, warm, dg, tau, budget)
                if part is None:
                    fallbacks += 1
                    wait = 2**fallbacks - 1
        if part is None:
            u, s, vh = np.linalg.svd(g, full_matrices=False)
            k = int(np.count_nonzero(s >= tau))
            block = vh[:k + _EXTRA_COLUMNS]
            beta = float(s[k]) if k < s.size else 0.0
        else:
            u, s, vh, block, beta = part
            k = s.size
        fs = f_alpha(s, self.sigma0, alpha) if alpha > 0 else f_hard(s, self.sigma0)
        # fs is non-increasing, so the thresholded-away components, which
        # contribute exact zeros, are a suffix
        m = int(np.count_nonzero(fs > 0))
        x = (u[:, :m] * fs[:m]) @ vh[:m]
        dual_da = self._norm_sq - float(np.maximum(s**2 - self.sigma0**2, 0.0).sum())
        env = lambda: _env_terms(fs, self.sigma0) + frobenius_norm(x - self.F) ** 2
        degenerate = alpha == 0 and bool(
            (np.abs(s - self.sigma0) <= DEGENERATE_RTOL * self.sigma0).any()
        )
        truncated = part is not None
        prev_vh = warm.vh if truncated and warm.truncated else None
        warm = WarmStart(block, prev_vh, dg, k, beta, truncated, fallbacks, wait, passes)
        return PrimalUpdate(x, dual_da, env, float((fs**2).sum()), degenerate, warm)

    def dual_value_ada(self, lam, alpha: float) -> float:
        """Dual value of the fully augmented problem at Lambda: the
        augmented tilted objective evaluated at its closed-form minimizer.
        """
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        lam = self._check(lam)
        upd = self.update(lam, alpha)
        return upd.envelope_at_x + frobenius_inner(upd.x, lam) + 0.5 * alpha * upd.x_norm_sq

    def feasible_value(self, x, alpha: float = 0.0) -> float:
        """Primal objective reported for a feasible point: the envelope
        sum_j (sigma0^2 - max(sigma0 - sigma_j(X), 0)^2) + ||X - F||^2,
        plus (alpha/2)||X||^2 for the augmented variants."""
        x = self._check(x)
        if not np.isfinite(x).all():
            raise ValueError("matrix has non-finite entries")
        val = _env_terms(np.linalg.svd(x, compute_uv=False), self.sigma0)
        val += frobenius_norm(x - self.F) ** 2
        if alpha > 0:
            val += 0.5 * alpha * float(np.vdot(x, x).real)
        return val


def toy_tilted_minimizers(lam: float) -> tuple:
    """Argmin set of x -> |x^2 - 1| + lam * x.

    {+1, -1} at lam = 0, {-sign(lam)} for 0 < |lam| <= 2, {-lam/2} beyond.
    """
    lam = float(lam)
    if lam == 0.0:
        return (1.0, -1.0)
    if abs(lam) <= 2.0:
        return (-np.sign(lam),)
    return (-lam / 2.0,)
