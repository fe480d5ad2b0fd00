import numpy as np
import pytest
from numpy.testing import assert_allclose

from slra.esprit import RankDeficiencyWarning, esprit_estimate, esprit_hankel_error
from slra.signals import (
    NoiseSpec,
    add_noise,
    four_tone_model,
    sample_signal,
    signal_to_hankel,
)
from slra.subspace import HankelSubspace


def sorted_zetas(est):
    return est.zetas[np.argsort(est.zetas.imag)]


def test_single_exponential_exact_recovery():
    j = np.arange(63)
    f = np.exp(0.1j * j)
    est = esprit_estimate(f, 1, 32, 32)
    assert est.zetas[0] == pytest.approx(0.1j, abs=1e-8)
    assert est.coeffs[0] == pytest.approx(1.0, abs=1e-8)
    assert not est.rank_deficient


def test_damped_exponential_recovery():
    j = np.arange(63)
    f = 2.0 * np.exp((-0.02 + 0.4j) * j)
    est = esprit_estimate(f, 1, 32, 32)
    assert est.zetas[0] == pytest.approx(-0.02 + 0.4j, abs=1e-8)
    assert est.coeffs[0] == pytest.approx(2.0, abs=1e-7)


def test_two_modes_sorted_recovery():
    j = np.arange(41)
    f = np.exp(0.3j * j) + 0.5 * np.exp(-0.7j * j)
    est = esprit_estimate(f, 2, 21, 21)
    assert_allclose(sorted_zetas(est), [-0.7j, 0.3j], atol=1e-8)


def test_zero_signal_rank_deficiency():
    with pytest.warns(RankDeficiencyWarning):
        est = esprit_estimate(np.zeros(15), 1, 8, 8)
    assert est.rank_deficient
    assert est.zetas.size == 0
    assert_allclose(est.reconstruction, 0.0)


def test_partial_estimate_when_fewer_modes():
    j = np.arange(31)
    f = np.exp(0.5j * j)  # one mode, ask for three
    with pytest.warns(RankDeficiencyWarning):
        est = esprit_estimate(f, 3, 16, 16)
    assert est.rank_deficient
    assert est.zetas.size == 1
    assert est.zetas[0] == pytest.approx(0.5j, abs=1e-7)


def test_reconstruction_consistency_invariant():
    m = four_tone_model()
    f = sample_signal(m)
    est = esprit_estimate(f, 4, 129, 129, m.delta, m.indices)
    vand = np.exp(np.multiply.outer(m.indices * m.delta, est.zetas))
    assert_allclose(est.reconstruction, vand @ est.coeffs, rtol=1e-12)


def test_four_tone_noiseless_recovery():
    m = four_tone_model()
    f = sample_signal(m)
    est = esprit_estimate(f, 4, 129, 129, m.delta, m.indices)
    assert np.linalg.norm(est.reconstruction - f) <= 1e-6 * np.linalg.norm(f)


def test_alias_branch_of_exponents():
    # recovered exponents live on the principal branch modulo 2*pi/delta
    delta = 0.5
    j = np.arange(-15, 16)
    true_zeta = 1j * (2 * np.pi / delta + 0.3)  # aliases to 0.3j
    f = np.exp(true_zeta * j * delta)
    est = esprit_estimate(f, 1, 16, 16, delta, j)
    assert est.zetas[0] == pytest.approx(0.3j, abs=1e-8)
    assert np.linalg.norm(est.reconstruction - f) <= 1e-8 * np.linalg.norm(f)


def test_validation_errors():
    with pytest.raises(ValueError):
        esprit_estimate(np.ones(10), 0, 5, 6)
    with pytest.raises(ValueError):
        esprit_estimate(np.ones(10), 6, 5, 6)
    with pytest.raises(ValueError):
        esprit_estimate(np.ones(9), 2, 5, 6)


def test_hankel_error_noiseless_is_tiny():
    m = four_tone_model()
    f = sample_signal(m)
    frob, l2 = esprit_hankel_error(f, 4, 129, 129, m.delta, m.indices)
    scale = np.linalg.norm(f)
    assert l2 <= 1e-6 * scale
    assert frob <= 1e-6 * np.linalg.norm(signal_to_hankel(f))


def test_hankel_error_grows_with_noise():
    m = four_tone_model()
    f = sample_signal(m)
    errs = []
    for snr in (30.0, 15.0, 0.0):
        noisy = add_noise(f, NoiseSpec(snr_dbw=snr), rng=np.random.default_rng(1))
        frob, _ = esprit_hankel_error(noisy, 4, 129, 129, m.delta, m.indices)
        errs.append(frob)
    assert errs[0] < errs[1] < errs[2]


def test_hankel_error_reference_semantics():
    # both errors measure the reconstruction against the signal it was fitted to
    m = four_tone_model()
    f = sample_signal(m)
    noisy = add_noise(f, NoiseSpec(snr_dbw=10.0), rng=np.random.default_rng(2))
    frob, l2 = esprit_hankel_error(noisy, 4, 129, 129, m.delta, m.indices)
    est = esprit_estimate(noisy, 4, 129, 129, m.delta, m.indices)
    sub = HankelSubspace(129, 129)
    assert frob == pytest.approx(
        np.linalg.norm(sub.from_vector(est.reconstruction) - sub.from_vector(noisy))
    )
    assert l2 == pytest.approx(np.linalg.norm(est.reconstruction - noisy))
    # the residual holds the noise outside the four-tone fit, about 0.98
    # of it here, where the error against the clean signal is about 0.19
    assert l2 > 0.5 * np.linalg.norm(noisy - f)
