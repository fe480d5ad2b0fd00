import numpy as np
import pytest
from numpy.testing import assert_allclose

from slra.esprit import RankDeficiencyWarning, esprit_estimate, esprit_hankel_error
from slra.signals import (
    add_noise,
    four_tone_model,
    sample_signal,
    signal_to_hankel,
    snr_to_sigma,
)
from slra.subspace import HankelSubspace


def sorted_zetas(est):
    return est.zetas[np.argsort(est.zetas.imag)]


def test_single_exponential_exact_recovery():
    j = np.arange(63)
    f = np.exp(0.1j * j)
    est = esprit_estimate(f, 1, HankelSubspace(32, 32), 1.0, np.arange(63))
    assert est.zetas[0] == pytest.approx(0.1j, abs=1e-8)
    assert est.coeffs[0] == pytest.approx(1.0, abs=1e-8)
    assert not est.rank_deficient


def test_damped_exponential_recovery():
    j = np.arange(63)
    f = 2.0 * np.exp((-0.02 + 0.4j) * j)
    est = esprit_estimate(f, 1, HankelSubspace(32, 32), 1.0, np.arange(63))
    assert est.zetas[0] == pytest.approx(-0.02 + 0.4j, abs=1e-8)
    assert est.coeffs[0] == pytest.approx(2.0, abs=1e-7)


def test_two_modes_sorted_recovery():
    j = np.arange(41)
    f = np.exp(0.3j * j) + 0.5 * np.exp(-0.7j * j)
    est = esprit_estimate(f, 2, HankelSubspace(21, 21), 1.0, np.arange(41))
    assert_allclose(sorted_zetas(est), [-0.7j, 0.3j], atol=1e-8)


def test_zero_signal_rank_deficiency():
    with pytest.warns(RankDeficiencyWarning):
        est = esprit_estimate(np.zeros(15), 1, HankelSubspace(8, 8), 1.0, np.arange(15))
    assert est.rank_deficient
    assert est.zetas.size == 0
    assert_allclose(est.reconstruction, 0.0)


def test_partial_estimate_when_fewer_modes():
    j = np.arange(31)
    f = np.exp(0.5j * j)  # one mode, ask for three
    with pytest.warns(RankDeficiencyWarning):
        est = esprit_estimate(f, 3, HankelSubspace(16, 16), 1.0, np.arange(31))
    assert est.rank_deficient
    assert est.zetas.size == 1
    assert est.zetas[0] == pytest.approx(0.5j, abs=1e-7)


def test_reconstruction_consistency_invariant():
    m = four_tone_model()
    f = sample_signal(m)
    est = esprit_estimate(f, 4, HankelSubspace(129, 129), m.delta, m.indices)
    vand = np.exp(np.multiply.outer(m.indices * m.delta, est.zetas))
    assert_allclose(est.reconstruction, vand @ est.coeffs, rtol=1e-12)


def test_four_tone_noiseless_recovery():
    m = four_tone_model()
    f = sample_signal(m)
    est = esprit_estimate(f, 4, HankelSubspace(129, 129), m.delta, m.indices)
    assert np.linalg.norm(est.reconstruction - f) <= 1e-6 * np.linalg.norm(f)


def test_alias_branch_of_exponents():
    # recovered exponents live on the principal branch modulo 2*pi/delta
    delta = 0.5
    j = np.arange(-15, 16)
    true_zeta = 1j * (2 * np.pi / delta + 0.3)  # aliases to 0.3j
    f = np.exp(true_zeta * j * delta)
    est = esprit_estimate(f, 1, HankelSubspace(16, 16), delta, j)
    assert est.zetas[0] == pytest.approx(0.3j, abs=1e-8)
    assert np.linalg.norm(est.reconstruction - f) <= 1e-8 * np.linalg.norm(f)


def test_validation_errors():
    with pytest.raises(ValueError):
        esprit_estimate(np.ones(10), 0, HankelSubspace(5, 6), 1.0, np.arange(10))
    with pytest.raises(ValueError):
        esprit_estimate(np.ones(10), 6, HankelSubspace(5, 6), 1.0, np.arange(10))
    with pytest.raises(ValueError):
        esprit_estimate(np.ones(9), 2, HankelSubspace(5, 6), 1.0, np.arange(10))


def test_hankel_error_noiseless_is_tiny():
    m = four_tone_model()
    f = sample_signal(m)
    F, sub = signal_to_hankel(f)
    frob, l2 = esprit_hankel_error(f, 4, sub, m.delta, m.indices)
    scale = np.linalg.norm(f)
    assert l2 <= 1e-6 * scale
    assert frob <= 1e-6 * np.linalg.norm(F)


def test_hankel_error_grows_with_noise():
    m = four_tone_model()
    f = sample_signal(m)
    errs = []
    for snr in (30.0, 15.0, 0.0):
        noisy = add_noise(f, snr_to_sigma(f, snr), rng=np.random.default_rng(1))
        frob, _ = esprit_hankel_error(noisy, 4, HankelSubspace(129, 129), m.delta, m.indices)
        errs.append(frob)
    assert errs[0] < errs[1] < errs[2]


def test_hankel_error_reference_semantics():
    # both errors measure the reconstruction against the signal it was fitted to
    m = four_tone_model()
    f = sample_signal(m)
    noisy = add_noise(f, snr_to_sigma(f, 10.0), rng=np.random.default_rng(2))
    sub = HankelSubspace(129, 129)
    frob, l2 = esprit_hankel_error(noisy, 4, sub, m.delta, m.indices)
    est = esprit_estimate(noisy, 4, sub, m.delta, m.indices)
    assert frob == pytest.approx(
        np.linalg.norm(sub.from_vector(est.reconstruction) - sub.from_vector(noisy))
    )
    assert l2 == pytest.approx(np.linalg.norm(est.reconstruction - noisy))
    # the residual holds the noise outside the four-tone fit, about 0.98
    # of it here, where the error against the clean signal is about 0.19
    assert l2 > 0.5 * np.linalg.norm(noisy - f)
