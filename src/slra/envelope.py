"""Rank-penalized least-squares objective, its Fenchel conjugate and convex
envelope in closed form, and the closed-form tilted/augmented minimizers.

The objective on (M, N) matrices is

    sigma0^2 * rank(X) + ||X - F||^2          (Frobenius norm)

whose conjugate and envelope are spectral functions of ``Lambda/2 + F`` and
``X`` respectively.  The quadratic penalty keeps the envelope tight near F,
so no shrinkage applies to singular values above sigma0.  A 1-D toy
objective |x^2 - 1| with the trivial constraint x = 0 is included; it is
the standard example of dual ascent oscillating between primal minimizers.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .matops import f_alpha, f_hard, frobenius_inner, numerical_rank, singular_values

#: relative half-width around sigma0 inside which a hard-threshold input is
#: flagged as degenerate (the minimizer stops being unique there)
DEGENERATE_RTOL = 1e-8

#: truncated SVD in :meth:`RankObjective.update`: block columns beyond the
#: previous row's captured count, the size gate (block * _SIZE_GATE must
#: not exceed min(M, N)), subspace iteration passes per attempt that are
#: always allowed, the most passes an attempt may take while each pass from
#: the _PASSES-th on cuts the residual at least _PASS_CUT-fold, and the residual
#: ||G V_k - U_k S_k||_F the captured triplets may leave, as a share of the
#: leading Ritz value
_EXTRA_COLUMNS = 6
_SIZE_GATE = 8
_PASSES = 3
_MAX_PASSES = 8
_PASS_CUT = 100.0
_RESIDUAL_RTOL = 1e-12


class DegenerateSingularValueWarning(UserWarning):
    """A singular value of F - Lambda/2 sits at the threshold sigma0, so
    the unaugmented primal update is not unique."""


class WarmStart(NamedTuple):
    """What one :meth:`RankObjective.update` hands to the next row of the
    same solver run."""

    g: np.ndarray      # F - Lambda/2 of the row
    vh: np.ndarray     # leading right singular vectors of g, as rows
    prev_vh: Optional[np.ndarray]  # the previous row's block, when both rows were truncated
    dg: float          # ||g - g_prev||_F when the row tried the truncated SVD, else 0
    captured: int      # singular values of g at or above the cutoff tau
    beta: float        # certified bound beta >= sigma_{captured+1}(g)
    truncated: bool    # the row was priced by the truncated SVD
    fallbacks: int     # truncated attempts of the run that fell back
    wait: int          # rows still to price by the full SVD before trying again
    passes: int        # subspace iteration passes the row took, over all its attempts


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
    return float(np.sum(sigma0**2 - np.maximum(sigma0 - svals, 0.0) ** 2))


def _certify(g, vk, sk, below, tau):
    """A bound c > sigma_{k+1}(g), for k = len(sk), or None.

    Positive definiteness of c^2 I - (g^H g - V_k S_k^2 V_k^H) puts g^H g
    below c^2 I plus a rank-k term, so at most k singular values of g reach
    c, whatever the accuracy of V_k and S_k (up to the rounding of g^H g).
    Tried at c halfway from the first excluded Ritz value ``below`` to
    ``tau``, then at ``tau``."""
    gram = g.conj().T @ g - (vk * sk**2) @ vk.conj().T
    eye = np.eye(gram.shape[0])
    for c in (0.5 * (below + tau), tau):
        try:
            factor = np.linalg.cholesky(c * c * eye - gram)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(factor)):
            return c
    return None


def _starts(warm, p, dg):
    """Start blocks of the truncated attempts at a row, in the order they
    are tried.

    The plain start is the previous row's block V (padded when more values
    were captured than it held).  When the row before it was truncated
    too, with a block W of the same width, a secant start comes first:
    V + gamma (V - W W^H V) extrapolates the move of the subspace along
    the dual-ascent path, with gamma = min(1, ||dG|| / ||dG_prev||)."""
    v = warm.vh[:p].conj().T
    if v.shape[1] < p:  # more values were captured than the block held
        pad = np.random.default_rng(0).standard_normal((v.shape[0], p - v.shape[1]))
        return [np.hstack([v, pad])]
    w = warm.prev_vh
    if w is None or w.shape != warm.vh.shape or len(w) != p or not warm.dg > 0:
        return [v]
    gamma = min(1.0, dg / warm.dg)
    return [v + gamma * (v - w.conj().T @ (w @ v)), v]


def _truncated_svd(g, v, warm, dg, tau):
    """Singular triplets of g at or above ``tau`` from a block subspace
    iteration started at the block ``v``.

    Returns the passes taken and, when the truncation is certified,
    (u, s, vh, block, beta) -- the captured triplets, the block's right
    Ritz vectors as rows and a certified beta >= sigma_{k+1}(g) below
    tau -- or else None.  ``dg`` is ||g - warm.g||_F."""
    p = v.shape[1]
    last = np.inf
    try:
        for passes in range(1, _MAX_PASSES + 1):
            q, _ = np.linalg.qr(g @ v)
            # Ritz triplets of Q^H G from its conjugate transpose
            # G^H Q = V S U_b^H, which is cheaper to factor; formed as
            # conj(G^T conj(Q)), so G itself is never conjugated
            v, s, ubh = np.linalg.svd((g.T @ q.conj()).conj(), full_matrices=False)
            k = int(np.count_nonzero(s >= tau))
            if k == p:  # the block cannot show where the values above tau end
                return passes, None
            u = q @ ubh[:k].conj().T
            resid = float(np.linalg.norm(g @ v[:, :k] - u * s[:k]))
            if np.isfinite(s[0]) and resid <= _RESIDUAL_RTOL * s[0]:
                break
            if passes >= _PASSES and not resid * _PASS_CUT <= last:
                return passes, None  # converging too slowly to be worth more passes
            last = resid
        else:
            return passes, None
        vh = v.conj().T
        # Weyl: sigma_{k+1} moves by at most ||g - g_prev|| = ||dLambda|| / 2
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
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
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

    def data_norm_sq(self) -> float:
        return self._norm_sq

    def primal_value(self, x, rel_tol: float = 1e-9) -> float:
        """sigma0^2 * rank(X) + ||X - F||^2 at numerical-rank tolerance
        ``rel_tol``."""
        x = self._check(x)
        return self.sigma0**2 * numerical_rank(x, rel_tol) + float(
            np.linalg.norm(x - self.F) ** 2
        )

    def envelope_value(self, x) -> float:
        """Convex envelope: sum_j (sigma0^2 - max(sigma0 - sigma_j(X), 0)^2)
        + ||X - F||^2."""
        x = self._check(x)
        return _env_terms(singular_values(x), self.sigma0) + float(
            np.linalg.norm(x - self.F) ** 2
        )

    def conjugate_value(self, lam) -> float:
        """Fenchel conjugate: sum_j max(sigma_j^2(Lambda/2 + F) - sigma0^2, 0)
        - ||F||^2."""
        lam = self._check(lam)
        s = singular_values(lam * 0.5 + self.F)
        return float(np.sum(np.maximum(s**2 - self.sigma0**2, 0.0))) - self.data_norm_sq()

    def dual_value_da(self, lam) -> float:
        """Dual function of the plain scheme, -conjugate(-Lambda)."""
        return -self.conjugate_value(-np.asarray(lam))

    def update(self, lam, alpha: float = 0.0, warm: Optional[WarmStart] = None
               ) -> PrimalUpdate:
        """Minimize envelope(X) + <X, Lambda> + (alpha/2)||X||^2 in closed
        form via one SVD of G = F - Lambda/2, returning the minimizer
        together with the quantities solvers track each iteration.

        For ``alpha == 0`` the same matrix also minimizes the non-convex
        tilted objective (hard-threshold rule, ties kept at sigma0).

        ``warm``, the previous row's ``PrimalUpdate.warm``, lets the SVD
        be truncated.  Every quantity here vanishes on singular values
        below sigma0, so only the k values at or above the cutoff
        tau = sigma0 (1 - DEGENERATE_RTOL) are needed, k being the
        previous row's count.  When 8 (k + 6) <= min(M, N), passes of
        block subspace iteration on k + 6 columns compute Q = orth(G V)
        and the Ritz triplets of Q^H G (from the SVD of the tall G^H Q).
        The first attempt starts from the previous row's block of right
        singular vectors V, or, when the row before it was truncated too
        with a block W of the same width, from the secant prediction
        V + gamma (V - W W^H V), gamma = min(1, ||dG|| / ||dG_prev||),
        which the dual-ascent steps make accurate enough to certify most
        rows after one pass; a failed predicted attempt is retried once
        from V.  Each attempt may take three passes, and a fourth and
        later pass, up to 8, only while the previous pass cut the
        residual at least 100-fold.
        The triplets are accepted only when fewer Ritz values than columns
        reach tau, the captured triplets leave
        ||G V_k - U_k S_k||_F <= 1e-12 s_1, and a certified bound
        beta >= sigma_{k+1}(G) lies below tau.  Then,
        by interlacing, exactly k singular values reach tau.  beta is
        exact after a full SVD and grows by ||Lambda - Lambda_prev|| / 2
        from row to row (Weyl); when k changes or beta reaches tau it is
        re-established by a Cholesky factorization (see ``_certify``).
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
            fallbacks, wait = warm.fallbacks, max(warm.wait - 1, 0)
            columns = warm.captured + _EXTRA_COLUMNS
            if not warm.wait and _SIZE_GATE * columns <= min(g.shape):
                dg = float(np.linalg.norm(g - warm.g))
                for v in _starts(warm, columns, dg):
                    n, part = _truncated_svd(g, v, warm, dg, tau)
                    passes += n
                    if part is not None:
                        break
                else:
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
        nz = fs > 0  # thresholded-away components contribute exact zeros
        x = (u[:, nz] * fs[nz]) @ vh[nz]
        dual_da = self.data_norm_sq() - float(
            np.sum(np.maximum(s**2 - self.sigma0**2, 0.0))
        )
        env = lambda: _env_terms(fs, self.sigma0) + float(np.linalg.norm(x - self.F) ** 2)
        degenerate = bool(
            alpha == 0 and np.any(np.abs(s - self.sigma0) <= DEGENERATE_RTOL * self.sigma0)
        )
        truncated = part is not None
        prev_vh = warm.vh if truncated and warm.truncated else None
        warm = WarmStart(g, block, prev_vh, dg, k, beta, truncated, fallbacks, wait, passes)
        return PrimalUpdate(x, dual_da, env, float(np.sum(fs**2)), degenerate, warm)

    def tilted_minimizer(self, lam, alpha: float = 0.0):
        """Closed-form minimizer S_{f_alpha}(F - Lambda/2).

        Unique for ``alpha > 0``; for ``alpha == 0`` a minimizer of both the
        rank objective and its envelope (warns when a singular value ties
        with sigma0 and uniqueness is lost)."""
        upd = self.update(lam, alpha)
        if upd.degenerate:
            warnings.warn(
                "singular value within %.0e of sigma0: minimizer not unique"
                % (DEGENERATE_RTOL * self.sigma0),
                DegenerateSingularValueWarning,
                stacklevel=2,
            )
        return upd.x

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
        """Primal objective reported for a feasible point: the envelope,
        plus (alpha/2)||X||^2 for the augmented variants."""
        x = self._check(x)
        val = self.envelope_value(x)
        if alpha > 0:
            val += 0.5 * alpha * float(np.real(np.vdot(x, x)))
        return val


def toy_conjugate(lam: float) -> float:
    """Conjugate of |x^2 - 1| on the reals: |lam| for |lam| <= 2,
    1 + lam^2 / 4 beyond."""
    a = abs(float(lam))
    return a if a <= 2.0 else 1.0 + a * a / 4.0


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


class ToyObjective:
    """|x^2 - 1| on the reals, modeled as 1x1 matrices so solvers treat it
    like any other objective; the constraint subspace is {0}."""

    shape = (1, 1)
    sigma0 = None  # no threshold parameter

    @staticmethod
    def _scalar(lam):
        lam = np.asarray(lam)
        if lam.shape != (1, 1):
            raise ValueError("toy objective works on 1x1 matrices")
        return float(np.real(lam[0, 0]))

    def envelope_value(self, x) -> float:
        v = self._scalar(x)
        return max(0.0, v * v - 1.0)

    def dual_value_da(self, lam) -> float:
        return -toy_conjugate(-self._scalar(lam))

    def dual_value_ada(self, lam, alpha: float) -> float:
        upd = self.update(lam, alpha)
        return upd.envelope_at_x + self._scalar(lam) * float(upd.x[0, 0]) + \
            0.5 * alpha * upd.x_norm_sq

    def feasible_value(self, x, alpha: float = 0.0) -> float:
        v = self._scalar(x)
        return max(0.0, v * v - 1.0) + 0.5 * alpha * v * v

    def tilted_minimizer(self, lam, alpha: float = 0.0):
        return self.update(lam, alpha).x

    def update(self, lam, alpha: float = 0.0, warm=None) -> PrimalUpdate:
        lam_v = self._scalar(lam)
        if alpha == 0:
            # non-convex argmin; ties broken towards +1 for determinism
            x = max(toy_tilted_minimizers(lam_v))
        else:
            # envelope max(0, x^2-1) + lam*x + (alpha/2) x^2: compare the
            # stationary points of both branches and the kinks at +-1
            cands = [-1.0, 1.0]
            if abs(lam_v / alpha) <= 1.0:
                cands.append(-lam_v / alpha)
            flat = -lam_v / (2.0 + alpha)
            if abs(flat) >= 1.0:
                cands.append(flat)
            val = lambda t: max(0.0, t * t - 1.0) + lam_v * t + 0.5 * alpha * t * t
            x = min(sorted(cands, reverse=True), key=val)
        xm = np.array([[x]], dtype=float)
        return PrimalUpdate(
            x=xm,
            dual_da=-toy_conjugate(-lam_v),
            envelope=lambda: max(0.0, x * x - 1.0),
            x_norm_sq=x * x,
            degenerate=False,
        )
