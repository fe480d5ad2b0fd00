"""Rank-penalized least-squares objective, its Fenchel conjugate and convex
envelope in closed form, and the closed-form tilted/augmented minimizers.

The objective on (M, N) matrices is

    sigma0^2 * rank(X) + ||X - F||^2          (Frobenius norm)

whose conjugate and envelope are spectral functions of ``Lambda/2 + F`` and
``X`` respectively.  The quadratic penalty keeps the envelope tight near F,
so no shrinkage applies to singular values above sigma0.  The argmin set
of the tilted scalar toy |x^2 - 1| + lam * x steps the toy table of
:func:`slra.harness.cmd_toy`.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matops import (
    _EPS,
    check_shape,
    f_alpha,
    f_hard,
    frobenius_norm,
    qr_q,
)

#: relative half-width around sigma0 inside which a hard-threshold input is
#: flagged as degenerate (the minimizer stops being unique there)
DEGENERATE_RTOL = 1e-8

#: truncated SVD of :meth:`RankObjective.update`, whose docstring gives the
#: policy: block columns beyond the previous row's captured count, and the
#: residual the captured triplets may leave, as a share of the leading Ritz
#: value.  Two extra columns, because the values just past the k-th form a
#: flat noise bulk, so the residual cut of a pass hardly depends on p,
#: while six cost 17-46% more per pass.  A power pass costs a quarter to a
#: half of a Rayleigh-Ritz pass, which adds the Ritz SVD, the U product
#: and the residual product.  On one OpenBLAS 0.3.31 thread of a 2-core
#: x86-64 machine (best of 7, three runs, p = 6, complex) power and Ritz
#: passes cost 16 and 51-54 us at 30x29 (a full SVD: 174-180 us, budget
#: B = 4.8), 22 and 60-64 us at 48x47 (490-581 us, B = 7.8), 28 and
#: 70-74 us at 64x63 (0.95-0.97 ms, B = 10.5) and 72-74 and 138-139 us at
#: 129x129 (5.1-5.4 ms, B = 21.5); at 101x100 real with p = 16, 34-36 and
#: 144-147 us (1.6-1.7 ms, B = 6.2).  The budget counts both kinds as one
#: pass each
_EXTRA_COLUMNS = 2
_RESIDUAL_RTOL = 1e-12


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
    need: int          # passes the next truncated row is predicted to need
    cut: float         # residual cut per pass behind ``need``, inf while unmeasured


class PrimalUpdate(NamedTuple):
    """One closed-form primal minimization, plus the by-products that a
    solver iteration needs, all derived from a single SVD.  The envelope at x
    is priced on demand by :meth:`RankObjective.envelope_value`, since ``da`` never reads it."""

    x: np.ndarray          # argmin of the (augmented) tilted objective
    fs: np.ndarray         # singular values of x, non-increasing; those left out are 0
    x_norm_sq: float       # ||x||^2
    dual_da: float         # -conjugate(-Lambda) at the input Lambda
    degenerate: bool       # threshold tie detected (alpha == 0 only)
    warm: Optional[WarmStart] = None  # start of the next row's truncated SVD


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


def _passes_left(resid, tol, cut):
    """The forecast of :meth:`RankObjective.update`: passes that take the
    residual ``resid`` to ``tol`` at ``cut`` per pass."""
    if not resid > 0:
        return -math.inf
    return math.ceil(math.log(resid / tol) / math.log(cut))


def _truncated_svd(g, warm, p, dg, tau, budget):
    """One truncated attempt at g = F - Lambda/2, as
    :meth:`RankObjective.update` states, on ``p`` (<= len(warm.vh))
    columns in at most ``budget`` (>= 2) passes; ``warm`` is the previous
    row's state, and ``dg`` bounds ||g - g_prev||_F, g_prev being that
    row's G.

    Returns the passes taken and, when the truncation is certified,
    (u, s, vh, block, beta, need, cut) -- the captured triplets, the
    block's right Ritz vectors as rows, a certified beta >=
    sigma_{k+1}(g) below tau, and the next row's need with the cut per
    pass it was forecast at -- or else None, in the order checked: on a
    Ritz block whose p values all reach tau or whose first is not finite,
    a stalled or over-budget residual, an uncertified beta, or LinAlgError."""
    v = warm.vh[:p].conj().T
    prev = warm.prev_vh
    if prev is not None and prev.shape == warm.vh.shape and len(prev) == p and warm.dg > 0:
        v = v + min(1.0, dg / warm.dg) * (v - prev.conj().T @ (prev @ v))
    passes, last = 0, np.inf
    try:
        while True:
            passes += 1
            q = qr_q(g @ v)
            w = (g.T @ q.conj()).conj()  # G^H Q; G itself is never conjugated
            if passes < warm.need and passes + 1 <= budget:
                # a power pass spans what a Ritz pass spans, so only the
                # checks are skipped
                v = w
                continue
            # Ritz triplets of Q^H G from the cheaper SVD of G^H Q = V S U_b^H
            v, s, ubh = np.linalg.svd(w, full_matrices=False)
            k = int(np.count_nonzero(s >= tau))
            if k == p or not np.isfinite(s[0]):
                return passes, None
            u = q @ ubh[:k].conj().T
            resid = frobenius_norm(g @ v[:, :k] - u * s[:k])
            tol = _RESIDUAL_RTOL * float(s[0])
            if resid <= tol:
                break
            cut = last / resid
            # stalled (or NaN, which is never forecast), or over budget
            if not cut > 1.0 or passes + max(1, _passes_left(resid, tol, cut)) > budget:
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
    cut = last / resid if last < np.inf and resid > 0 else warm.cut
    need = max(1, passes + _passes_left(resid, tol, cut))
    return passes, (u, s[:k], vh[:k], vh, beta, need, cut)


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

    def dual_value_da(self, lam) -> float:
        """Dual function of the plain scheme, -conjugate(-Lambda) (see
        ``_plain_dual``), from its own values-only SVD."""
        lam = check_shape(lam, self.shape)
        return self._plain_dual(np.linalg.svd(self.F - lam * 0.5, compute_uv=False))

    def _plain_dual(self, s) -> float:
        """||F||^2 - sum_j max(s_j^2 - sigma0^2, 0) over the singular values
        s of F - Lambda/2, of which those below sigma0 may be left out."""
        return self._norm_sq - float(np.maximum(s**2 - self.sigma0**2, 0.0).sum())

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
        previous row's count.  A row makes one attempt of block subspace
        iteration on p = k + 2 columns: one column beyond the k shows
        where the values above tau end, and one more absorbs a value that
        crosses tau between rows.  It may spend B = min(M, N) / p passes,
        about the cost of one full SVD, and is tried only when B >= 2.
        When the previous row's block is narrower than k + 2 columns, as
        after a truncated row that captured more values than the row
        before it, the row runs on that block, which holds at least k + 1
        columns.  The attempt starts from the previous row's block of
        right singular vectors V, or, when the row before it was
        truncated too with a block W of the same width, from the secant
        prediction V + gamma (V - W W^H V), gamma = min(1, dg / dg_prev),
        which the dual-ascent steps make accurate enough to certify most
        rows after one pass.
        Each pass computes Q = orth(G V).  Only the last pass of a row can
        be accepted, so the first need - 1 passes, as many as leave room
        for one more within B, are power passes, V = G^H Q; the others are
        Rayleigh-Ritz passes, which take the Ritz triplets of Q^H G (from
        the SVD of the tall G^H Q) and the residual
        resid = ||G V_k - U_k S_k||_F of the captured ones.  One forecast,
        left = ceil(log(resid / tol) / log(cut)), tol = 1e-12 s_1, counts
        the passes that take resid to tol at the residual cut per pass
        measured by the last two Ritz passes; an unmeasured cut gives
        left = 0, and a zero residual left = -inf.  After a Ritz pass
        whose resid exceeds tol, the attempt stops once the passes spent
        plus max(1, left) would exceed B.  An accepted row predicts
        need = max(1, passes + left) for the next, left <= 0 counting the
        passes that the margin of its final residual below tol shows were
        spare, at its own cut or else the one carried from the row before.
        The triplets are accepted only when fewer Ritz values than columns
        reach tau, resid <= tol, and a certified bound
        beta >= sigma_{k+1}(G) lies below tau.  Then,
        by interlacing, exactly k singular values reach tau.  beta is
        exact after a full SVD and grows by dg from row to row (Weyl);
        when k changes or beta reaches tau it is re-established by one
        Cholesky factorization (see ``_certify``).
        Otherwise the row falls back to the full SVD, and after the f-th
        fallback of a run the next attempt comes 2^f rows after the failed
        one, with the need of the last accepted row.  A threshold tie can
        only sit among the captured values, so
        ``degenerate`` keeps its meaning; a tie below the cutoff fails the
        certificate and falls back."""
        lam = check_shape(lam, self.shape)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        g = self.F - lam * 0.5
        tau = self.sigma0 * (1.0 - DEGENERATE_RTOL)
        fallbacks, wait, part, dg, passes, need, cut = 0, 0, None, 0.0, 0, 1, math.inf
        if warm is not None:
            if dlam is None:
                raise ValueError("a warm start needs dlam")
            dg = 0.5 * dlam + 2.0 * _EPS * math.sqrt(self._norm_sq)
            fallbacks, wait = warm.fallbacks, max(warm.wait - 1, 0)
            need, cut = warm.need, warm.cut
            columns = min(warm.captured + _EXTRA_COLUMNS, len(warm.vh))
            budget = min(g.shape) / columns  # passes worth one full SVD
            if not warm.wait and budget >= 2:
                passes, part = _truncated_svd(g, warm, columns, dg, tau, budget)
                if part is None:
                    fallbacks += 1
                    wait = 2**fallbacks - 1
        if part is None:
            u, s, vh = np.linalg.svd(g, full_matrices=False)
            k = int(np.count_nonzero(s >= tau))
            block = vh[:k + _EXTRA_COLUMNS]
            beta = float(s[k]) if k < s.size else 0.0
        else:
            u, s, vh, block, beta, need, cut = part
            k = s.size
        fs = f_alpha(s, self.sigma0, alpha) if alpha > 0 else f_hard(s, self.sigma0)
        # fs is non-increasing, so the thresholded-away components, which
        # contribute exact zeros, are a suffix
        m = int(np.count_nonzero(fs > 0))
        x = (u[:, :m] * fs[:m]) @ vh[:m]
        dual_da = self._plain_dual(s)
        degenerate = alpha == 0 and bool(
            (np.abs(s - self.sigma0) <= DEGENERATE_RTOL * self.sigma0).any()
        )
        truncated = part is not None
        prev_vh = warm.vh if truncated and warm.truncated else None
        warm = WarmStart(block, prev_vh, dg, k, beta, truncated, fallbacks, wait, passes,
                         need, cut)
        return PrimalUpdate(x, fs, float((fs**2).sum()), dual_da, degenerate, warm)

    def dual_value_ada(self, lam, alpha: float) -> float:
        """Dual value of the fully augmented problem at Lambda: the
        augmented tilted objective evaluated at its closed-form minimizer.
        """
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return self.augmented_dual(self.update(lam, alpha), lam, alpha)

    def _envelope(self, x, svals) -> float:
        return _env_terms(svals, self.sigma0) + frobenius_norm(x - self.F) ** 2

    def envelope_value(self, upd: PrimalUpdate) -> float:
        """The envelope at ``upd.x`` from ``upd.fs``, at no SVD."""
        return self._envelope(upd.x, upd.fs)

    def augmented_dual(self, upd: PrimalUpdate, lam, alpha: float) -> float:
        """envelope(x) + <x, lam> + (alpha/2)||x||^2 at x = ``upd.x``, the dual
        value of the fully augmented problem when ``upd`` was computed at lam."""
        return (self.envelope_value(upd) + float(np.vdot(upd.x, lam).real)
                + 0.5 * alpha * upd.x_norm_sq)

    def feasible_value(self, x, alpha: float = 0.0) -> float:
        """Primal objective reported for a feasible point: the envelope
        sum_j (sigma0^2 - max(sigma0 - sigma_j(X), 0)^2) + ||X - F||^2,
        plus (alpha/2)||X||^2 for the augmented variants."""
        x = check_shape(x, self.shape)
        val = self._envelope(x, np.linalg.svd(x, compute_uv=False))
        if alpha > 0:
            val += 0.5 * alpha * float(np.vdot(x, x).real)
        return val

    def primal_bound(self, upd: PrimalUpdate, px, resid: float, alpha: float = 0.0) -> float:
        """Upper bound on ``feasible_value(px, alpha)`` at px = P(upd.x),
        given resid = ||upd.x - px||_F, from no SVD:

            sum_j phi(f_j) + 2 sigma0 sqrt(min(M, N)) resid + ||px - F||^2,

        plus (alpha/2)||px||^2, where phi(s) = sigma0^2 - max(sigma0 - s, 0)^2
        and f_j = ``upd.fs`` are the singular values of upd.x.  phi is
        2 sigma0-Lipschitz, and by Mirsky's inequality
        sum_j |sigma_j(A) - sigma_j(B)| <= ||A - B||_*, which is at most
        sqrt(min(M, N)) ||A - B||_F."""
        val = _env_terms(upd.fs, self.sigma0)
        val += 2.0 * self.sigma0 * math.sqrt(min(self.shape)) * resid
        val += frobenius_norm(px - self.F) ** 2
        if alpha > 0:
            val += 0.5 * alpha * float(np.vdot(px, px).real)
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
