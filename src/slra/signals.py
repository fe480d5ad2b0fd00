"""Exponential-sum signals, the random cosine-sum generator, Gaussian noise,
and conversions to and from Hankel data matrices.

A P-term exponential sum sampled on an integer grid generates (outside
degenerate configurations) a Hankel matrix of rank exactly P, which is what
makes these signals the natural test bed for rank-penalized Hankel
approximation and frequency estimation.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .subspace import HankelSubspace


@dataclass(frozen=True)
class SignalModel:
    """Exponential sum f(j) = sum_p c_p * exp(zeta_p * j * delta) on an
    index grid.

    ``terms`` is a sequence of (amplitude, exponent) pairs; ``delta`` is the
    sampling scale multiplying the exponent.
    """

    terms: tuple
    indices: np.ndarray
    delta: float = 1.0

    def __post_init__(self):
        terms = tuple((complex(c), complex(z)) for c, z in self.terms)
        if not terms:
            raise ValueError("model needs at least one term")
        if not all(np.isfinite([z for _, z in terms])):
            raise ValueError("exponents must be finite")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=float))


# exponents and amplitudes of the four-tone benchmark signal
TAB4_ZETAS = (5924.0j, 804.24j, 695.88j, 7937.6j)
TAB4_COEFFS = (
    1.0 + 0.0j,
    0.62348 + 0.78183j,
    -0.22252 + 0.97493j,
    -0.90097 + 0.43388j,
)


def four_tone_model() -> SignalModel:
    """The four-tone benchmark: 257 samples on the symmetric grid
    j = -128 .. 128 with spacing delta = 2/256.

    The sample spacing is not pinned down by the frequencies themselves;
    delta spreads the grid over a length-2 interval, and all downstream
    comparisons are between methods on identical data, so the choice only
    fixes the aliasing branch.
    """
    return SignalModel(tuple(zip(TAB4_COEFFS, TAB4_ZETAS)), np.arange(-128, 129), 2.0 / 256.0)


def sample_signal(model: SignalModel) -> np.ndarray:
    """Evaluate f(j) = sum_p c_p exp(zeta_p * j * delta) over the grid."""
    args = np.multiply.outer(
        np.array([z for _, z in model.terms]), model.indices * model.delta
    )
    if np.max(args.real, initial=0.0) > 700.0:  # exp overflow guard
        raise OverflowError("exponent real part too large for the sample grid")
    coeffs = np.array([c for c, _ in model.terms])
    return coeffs @ np.exp(args)


def gen_cos_sum(rng: np.random.Generator, n_samples: int = 200) -> np.ndarray:
    """Random sum of four damped cosines a * exp(b t) * cos(10 c t + d pi),
    drawn from ``rng``, at ``n_samples`` equally spaced points in [-1, 1].

    Per term, a and d are uniform on [0, 1] while b and c are standard
    normal.  Each term contributes two complex exponentials, so the
    generated Hankel matrix has rank at most 8.
    """
    t = np.linspace(-1.0, 1.0, n_samples)
    f = np.zeros(n_samples)
    for _ in range(4):
        a = rng.uniform(0.0, 1.0)
        b = rng.standard_normal()
        c = rng.standard_normal()
        d = rng.uniform(0.0, 1.0)
        f += a * np.exp(b * t) * np.cos(10.0 * c * t + d * np.pi)
    return f


def snr_to_sigma(f, snr_dbw: float) -> float:
    """Noise standard deviation that puts ``f`` at ``snr_dbw`` dBW:
    RMS(f) * 10^(-snr_dbw/20)."""
    f = np.asarray(f)
    return float(np.linalg.norm(f)) / np.sqrt(f.size) * 10.0 ** (-snr_dbw / 20.0)


def add_noise(f, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise of standard deviation ``sigma`` (>= 0),
    drawn from the caller's generator ``rng``, to an array (vector or
    matrix).

    Complex input gets independent real/imaginary components with half the
    variance each, so the per-entry variance is sigma^2 in both cases.
    """
    if not sigma >= 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    f = np.asarray(f)
    if np.iscomplexobj(f):
        noise = (rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)) * (
            sigma / np.sqrt(2.0)
        )
    else:
        noise = rng.standard_normal(f.shape) * sigma
    return f + noise


def sigma0_heuristic(F, P: int) -> float:
    """Penalty level from the spectral gap: (sigma_P + sigma_{P+1}) / 2,
    singular values 1-indexed."""
    F = np.asarray(F)
    if not 1 <= P < min(F.shape[-2], F.shape[-1]):
        raise ValueError(f"P must satisfy 1 <= P <= min(shape) - 1, got {P}")
    s = np.linalg.svd(F, compute_uv=False)
    return float(0.5 * (s[P - 1] + s[P]))


def signal_to_hankel(f) -> tuple:
    """(F, sub): the near-square Hankel matrix F generated by a signal vector,
    rows >= cols, using all rows + cols - 1 = f.size values, on its subspace."""
    f = np.asarray(f)
    sub = HankelSubspace(f.size // 2 + 1, (f.size + 1) // 2)
    return sub.from_vector(f), sub


def save_signal_csv(path, f):
    """Write a signal as CSV rows (index, re, im), indexed from 0."""
    f = np.asarray(f)
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        fh.writelines(f"{j:.17g},{re:.17g},{im:.17g}\n" for j, re, im in
                      zip(range(f.size), f.real.tolist(), f.imag.tolist()))


def load_signal_csv(path) -> tuple:
    """Read (indices, values) from a 3-column signal CSV after its header
    line; ValueError without a sample row, or when an index is not the one before plus 1."""
    with warnings.catch_warnings():
        # said by the ValueError below, not by numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.size == 0:
        raise ValueError(f"signal CSV {path} holds no samples")
    if rows.shape[1] != 3:
        raise ValueError("signal CSV must have columns (index, re, im)")
    bad = np.flatnonzero(np.diff(rows[:, 0]) != 1)
    if bad.size:
        raise ValueError(f"signal CSV {path}: sample row {bad[0] + 2} breaks the index step of 1")
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def _json_number(doc, key):
    """``doc[key]`` of a model JSON object; ValueError when it is missing
    or no number."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"model JSON needs a number under {key!r}, got {value!r}")
    return value


def load_model_json(path) -> SignalModel:
    """Read a model JSON: a list of terms {c_re, c_im, zeta_re, zeta_im},
    the scale ``delta`` and a grid {start, step, count}, all numbers and
    ``count`` a positive whole one."""
    with open(path) as fh:
        doc = json.load(fh)
    terms, g = (doc.get("terms"), doc.get("grid")) if isinstance(doc, dict) else (None, None)
    if not isinstance(terms, list) or not isinstance(g, dict):
        raise ValueError("model JSON needs a list under 'terms' and an object under 'grid'")
    terms = tuple(
        (complex(_json_number(t, "c_re"), _json_number(t, "c_im")),
         complex(_json_number(t, "zeta_re"), _json_number(t, "zeta_im")))
        for t in terms
    )
    count = _json_number(g, "count")
    if not (count >= 1 and float(count).is_integer()):
        raise ValueError(f"model JSON needs a positive whole number under 'count', got {count!r}")
    indices = _json_number(g, "start") + _json_number(g, "step") * np.arange(count)
    return SignalModel(terms, indices, float(_json_number(doc, "delta")))
