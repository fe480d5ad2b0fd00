"""Exponential-sum signals, the random cosine-sum generator, Gaussian noise,
and conversions to and from Hankel data matrices.

A P-term exponential sum sampled on an integer grid generates (outside
degenerate configurations) a Hankel matrix of rank exactly P, which is what
makes these signals the natural test bed for rank-penalized Hankel
approximation and frequency estimation.
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matops import singular_values
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

    @classmethod
    def symmetric(cls, terms, n_half: int, delta: float = 1.0):
        """Grid j = -n_half .. n_half (2 * n_half + 1 points)."""
        return cls(terms, np.arange(-n_half, n_half + 1), delta)


# exponents and amplitudes of the four-tone benchmark signal
TAB4_ZETAS = (5924.0j, 804.24j, 695.88j, 7937.6j)
TAB4_COEFFS = (
    1.0 + 0.0j,
    0.62348 + 0.78183j,
    -0.22252 + 0.97493j,
    -0.90097 + 0.43388j,
)


def four_tone_model(delta: float = 2.0 / 256.0, n_points: int = 257) -> SignalModel:
    """The four-tone benchmark: 257 samples on a symmetric grid.

    The sample spacing is not pinned down by the frequencies themselves;
    ``delta`` defaults to a length-2 interval over 257 points and all
    downstream comparisons are between methods on identical data, so the
    choice only fixes the aliasing branch.
    """
    if n_points % 2 == 0:
        raise ValueError("symmetric grid needs an odd number of points")
    return SignalModel.symmetric(
        tuple(zip(TAB4_COEFFS, TAB4_ZETAS)), n_points // 2, delta
    )


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


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level: either a fixed per-entry standard deviation ``sigma``
    or a target signal-to-noise ratio ``snr_dbw`` (noise std =
    RMS(signal) * 10^(-snr/20)).  Exactly one of the two must be set."""

    sigma: Optional[float] = None
    snr_dbw: Optional[float] = None

    def __post_init__(self):
        if (self.sigma is None) == (self.snr_dbw is None):
            raise ValueError("set exactly one of sigma, snr_dbw")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def add_noise(f, spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian noise, drawn from the caller's generator
    ``rng``, to an array (vector or matrix).

    Complex input gets independent real/imaginary components with half the
    variance each, so the per-entry variance is sigma^2 in both cases.
    """
    f = np.asarray(f)
    if spec.sigma is not None:
        sigma = spec.sigma
    else:
        rms = float(np.linalg.norm(f)) / np.sqrt(f.size)
        sigma = rms * 10.0 ** (-spec.snr_dbw / 20.0)
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
    s = singular_values(F)
    return float(0.5 * (s[P - 1] + s[P]))


def hankel_shape(n_samples: int) -> tuple:
    """Near-square Hankel shape (rows, cols), rows >= cols, using all
    rows + cols - 1 = n_samples values."""
    rows = n_samples // 2 + 1
    return rows, n_samples + 1 - rows


def signal_to_hankel(f) -> np.ndarray:
    """Near-square Hankel matrix generated by a signal vector."""
    f = np.asarray(f)
    rows, cols = hankel_shape(f.size)
    return HankelSubspace(rows, cols).from_vector(f)


def save_signal_csv(path, f, indices=None):
    """Write a signal as CSV rows (index, re, im)."""
    f = np.asarray(f)
    if indices is None:
        indices = np.arange(f.size)
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        fh.writelines(f"{j:.17g},{re:.17g},{im:.17g}\n" for j, re, im in
                      zip(np.asarray(indices).tolist(), f.real.tolist(), f.imag.tolist()))


def load_signal_csv(path) -> tuple:
    """Read (indices, values) from a 3-column signal CSV."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != 3:
        raise ValueError("signal CSV must have columns (index, re, im)")
    return rows[:, 0], rows[:, 1] + 1j * rows[:, 2]


def save_model_json(path, model: SignalModel):
    """Serialize a model; the grid must be uniform to fit the file schema."""
    idx = model.indices
    if idx.size > 1:
        steps = np.diff(idx)
        if not np.allclose(steps, steps[0]):
            raise ValueError("model grid is not uniform")
        step = float(steps[0])
    else:
        step = 1.0
    doc = {
        "terms": [
            {"c_re": z.real, "c_im": z.imag, "zeta_re": w.real, "zeta_im": w.imag}
            for z, w in model.terms
        ],
        "delta": model.delta,
        "grid": {"start": float(idx[0]), "count": int(idx.size), "step": step},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def load_model_json(path) -> SignalModel:
    with open(path) as fh:
        doc = json.load(fh)
    terms = tuple(
        (complex(t["c_re"], t["c_im"]), complex(t["zeta_re"], t["zeta_im"]))
        for t in doc["terms"]
    )
    g = doc["grid"]
    indices = g["start"] + g["step"] * np.arange(g["count"])
    return SignalModel(terms, indices, float(doc["delta"]))
