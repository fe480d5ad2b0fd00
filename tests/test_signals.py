import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from slra.matops import numerical_rank
from slra.signals import (
    NoiseSpec,
    SignalModel,
    add_noise,
    four_tone_model,
    gen_cos_sum,
    hankel_shape,
    load_model_json,
    load_signal_csv,
    sample_signal,
    save_signal_csv,
    sigma0_heuristic,
    signal_to_hankel,
)
from slra.subspace import HankelSubspace


def save_model_json(path, model: SignalModel):
    """Write a model in the model-JSON input format of ``slra solve``; the
    grid must be uniform to fit the file schema."""
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


def random_exponential_model(rng, P, n_half=25, min_sep=0.1):
    """Distinct unit-circle exponents with enforced angular separation."""
    while True:
        angles = np.sort(rng.uniform(-np.pi * 0.95, np.pi * 0.95, size=P))
        if P == 1 or np.min(np.diff(angles)) > min_sep:
            break
    coeffs = rng.uniform(0.5, 2.0, size=P) * np.exp(2j * np.pi * rng.uniform(size=P))
    terms = tuple((c, 1j * a) for c, a in zip(coeffs, angles))
    return SignalModel(terms, np.arange(-n_half, n_half + 1))


def test_sample_constant_term():
    m = SignalModel(((1.0, 0.0),), np.arange(-3, 4))
    assert_allclose(sample_signal(m), np.ones(7))


def test_sample_alternating():
    m = SignalModel(((1.0, 1j * np.pi),), np.array([0, 1, 2]))
    assert_allclose(sample_signal(m), [1.0, -1.0, 1.0], atol=1e-12)


def test_sample_overflow_guard():
    m = SignalModel(((1.0, 1000.0),), np.arange(10))
    with pytest.raises(OverflowError):
        sample_signal(m)


def test_four_tone_model_rank_four():
    f = sample_signal(four_tone_model())
    assert f.size == 257
    h = signal_to_hankel(f)
    assert h.shape == (129, 129)
    assert numerical_rank(h, 1e-8) == 4


def test_model_needs_terms():
    with pytest.raises(ValueError):
        SignalModel((), np.arange(3))


def test_kronecker_rank_matches_term_count():
    rng = np.random.default_rng(0)
    for P in range(1, 9):
        for _ in range(3):
            m = random_exponential_model(rng, P)
            h = signal_to_hankel(sample_signal(m))
            assert numerical_rank(h, 1e-8) == P


def test_gen_cos_sum_deterministic():
    draw = lambda seed: gen_cos_sum(np.random.default_rng(seed))
    assert_allclose(draw(42), draw(42))
    assert not np.allclose(draw(42), draw(43))


def test_gen_cos_sum_properties():
    f = gen_cos_sum(np.random.default_rng(7))
    assert f.shape == (200,)
    assert np.isrealobj(f)
    h = HankelSubspace(101, 100).from_vector(f)
    assert numerical_rank(h, 1e-8) <= 8


def test_gen_cos_sum_rank_eight_typically():
    hits = sum(
        numerical_rank(HankelSubspace(101, 100).from_vector(
            gen_cos_sum(np.random.default_rng(s))), 1e-8) == 8
        for s in range(20)
    )
    assert hits >= 15  # degenerate draws allowed, but rare


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec()
    with pytest.raises(ValueError):
        NoiseSpec(sigma=0.1, snr_dbw=10.0)
    with pytest.raises(ValueError):
        NoiseSpec(sigma=-1.0)


def test_add_noise_zero_sigma():
    f = np.arange(5.0)
    assert_allclose(add_noise(f, NoiseSpec(sigma=0.0), rng=np.random.default_rng(1)), f)


def test_add_noise_seeded_determinism():
    f = np.ones(100)
    a = add_noise(f, NoiseSpec(sigma=0.5), rng=np.random.default_rng(9))
    b = add_noise(f, NoiseSpec(sigma=0.5), rng=np.random.default_rng(9))
    assert_allclose(a, b)


def test_add_noise_complex_variance_split():
    f = np.zeros(200_000, dtype=complex)
    noisy = add_noise(f, NoiseSpec(sigma=2.0), rng=np.random.default_rng(3))
    # per-entry variance sigma^2 split evenly between components
    assert np.var(noisy.real) == pytest.approx(2.0, rel=0.05)
    assert np.var(noisy.imag) == pytest.approx(2.0, rel=0.05)


def test_add_noise_real_variance():
    noisy = add_noise(np.zeros(200_000), NoiseSpec(sigma=0.3), rng=np.random.default_rng(4))
    assert np.var(noisy) == pytest.approx(0.09, rel=0.05)


def test_add_noise_zero_mean_rate():
    noisy = add_noise(np.zeros(10_000), NoiseSpec(sigma=1.0), rng=np.random.default_rng(5))
    assert abs(np.mean(noisy)) <= 4.0 / np.sqrt(10_000)


def test_snr_mode_hits_target():
    rng = np.random.default_rng(6)
    f = rng.standard_normal(10_000) * 3.0
    for snr in (0.0, 10.0, 25.0):
        noisy = add_noise(f, NoiseSpec(snr_dbw=snr), rng=np.random.default_rng(7))
        noise = noisy - f
        measured = 20 * np.log10(np.linalg.norm(f) / np.linalg.norm(noise))
        assert measured == pytest.approx(snr, abs=0.5)


def test_snr_mode_complex():
    f = sample_signal(four_tone_model())
    noisy = add_noise(f, NoiseSpec(snr_dbw=10.0), rng=np.random.default_rng(8))
    measured = 20 * np.log10(np.linalg.norm(f) / np.linalg.norm(noisy - f))
    assert measured == pytest.approx(10.0, abs=0.7)


def test_add_noise_matrix_input():
    h = np.ones((30, 20))
    noisy = add_noise(h, NoiseSpec(sigma=0.1), rng=np.random.default_rng(9))
    assert noisy.shape == h.shape
    assert np.std(noisy - h) == pytest.approx(0.1, rel=0.2)


def test_sigma0_heuristic_hand_value():
    F = np.diag([4.0, 2.0, 0.0, 0.0])
    assert sigma0_heuristic(F, 1) == pytest.approx(3.0)


def test_sigma0_heuristic_exact_rank():
    F = np.diag([5.0, 3.0, 0.0, 0.0])
    assert sigma0_heuristic(F, 2) == pytest.approx(1.5)


def test_sigma0_heuristic_ordering():
    f = sample_signal(four_tone_model())
    noisy = add_noise(f, NoiseSpec(snr_dbw=10.0), rng=np.random.default_rng(10))
    F = signal_to_hankel(noisy)
    s = np.linalg.svd(F, compute_uv=False)
    s0 = sigma0_heuristic(F, 4)
    assert s[4] <= s0 <= s[3]


def test_sigma0_heuristic_range_check():
    with pytest.raises(ValueError):
        sigma0_heuristic(np.eye(3), 3)


def test_hankel_shape():
    assert hankel_shape(200) == (101, 100)
    assert hankel_shape(257) == (129, 129)
    assert hankel_shape(5) == (3, 3)


def test_signal_csv_round_trip(tmp_path):
    f = np.array([1 + 2j, -0.5, 3.25 - 1j])
    path = tmp_path / "sig.csv"
    save_signal_csv(path, f, indices=np.array([-1, 0, 1]))
    idx, back = load_signal_csv(path)
    assert_allclose(idx, [-1, 0, 1])
    assert_allclose(back, f)


def test_signal_csv_bytes_match_the_entrywise_writer(tmp_path):
    # the writer formats whole columns; the reference formats each numpy
    # entry, as signal CSVs have always been written
    rng = np.random.default_rng(8)
    cases = [
        (rng.standard_normal(94) + 1j * rng.standard_normal(94), None),
        (rng.standard_normal(7), None),
        (np.array([np.nan, -0.0, 5e-324, 1e300j]), np.array([-1.5, 0.0, 2.0, 1e20])),
        (np.arange(3), np.array([4, 5, 6])),
    ]
    for f, indices in cases:
        idx = np.arange(f.size) if indices is None else indices
        ref = "index,re,im\n" + "".join(
            f"{j:.17g},{np.real(v):.17g},{np.imag(v):.17g}\n" for j, v in zip(idx, f))
        save_signal_csv(tmp_path / "sig.csv", f, indices)
        assert (tmp_path / "sig.csv").read_text() == ref


def test_model_json_round_trip(tmp_path):
    m = four_tone_model()
    path = tmp_path / "model.json"
    save_model_json(path, m)
    back = load_model_json(path)
    assert back.delta == m.delta
    assert_allclose(back.indices, m.indices)
    assert_allclose(sample_signal(back), sample_signal(m))
    doc = json.loads(path.read_text())
    assert set(doc) == {"terms", "delta", "grid"}
    assert set(doc["terms"][0]) == {"c_re", "c_im", "zeta_re", "zeta_im"}


finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


@given(st.lists(st.tuples(finite, complexes), min_size=1, max_size=20))
@settings(deadline=None)
def test_signal_csv_round_trip_is_exact(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("sig") / "sig.csv"
    idx = np.array([j for j, _ in rows])
    f = np.array([v for _, v in rows])
    save_signal_csv(path, f, indices=idx)
    idx_back, f_back = load_signal_csv(path)
    assert_array_equal(idx_back, idx)
    assert_array_equal(f_back, f)


@given(
    terms=st.lists(st.tuples(complexes, complexes), min_size=1, max_size=6),
    delta=finite,
    start=st.floats(-1e4, 1e4),
    step=st.floats(1e-3, 1e2) | st.floats(-1e2, -1e-3),
    count=st.integers(1, 64),
)
@settings(deadline=None)
def test_model_json_round_trip_is_exact(tmp_path_factory, terms, delta, start, step, count):
    m = SignalModel(terms, start + step * np.arange(count), delta)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model_json(path, m)
    back = load_model_json(path)
    assert back.terms == m.terms
    assert back.delta == m.delta
    # the file keeps the grid as start and step, so later indices carry
    # the rounding of the step
    scale = max(1.0, float(np.max(np.abs(m.indices))))
    assert np.max(np.abs(back.indices - m.indices)) <= 1e-12 * scale
