import dataclasses
import math

import numpy as np
import pytest

from rfident.constellation import ConfigError, make_constellation
from rfident.features import (
    DegenerateInputError,
    FEATURE_NAMES,
    PipelineConfig,
    amp_var_crb_transfer,
    extract_features,
    noise_free_amp_var,
    normalize_amplitude,
    pa_input_power_variance,
    remove_cfo,
)
from rfident.signal_model import (
    Burst,
    ChannelConfig,
    HwiParams,
    iridium_known_symbols,
    random_known_symbols,
    synthesize_burst,
)

QPSK = make_constellation("qpsk")

# features that must be invariant to a global phase rotation of the burst;
# evm and dc keep the residual carrier phase by design (no phase reference
# exists in the pipeline), so they are excluded here
PHASE_INVARIANT = tuple(k for k in FEATURE_NAMES if k not in ("evm", "dc_i", "dc_q"))


def _burst(p=HwiParams(), snr_db=None, cfo=0.0, mode="iridium", seed=0, h=1.0 + 0j):
    if mode == "iridium":
        x = iridium_known_symbols()
    else:
        x = random_known_symbols(QPSK, 76, np.random.default_rng(seed + 1000))
    ch = ChannelConfig(h=h, snr_db=snr_db, cfo_rad_per_symbol=cfo)
    return synthesize_burst(x, p, ch, seed=seed, modulation=mode if mode == "iridium" else "qpsk")


def test_remove_cfo_pure_ramp():
    z = np.exp(1j * 0.01 * np.arange(76))
    derot, cfo_hat = remove_cfo(z, strip_power=2)
    assert cfo_hat == pytest.approx(0.01, abs=1e-6)
    residual = np.unwrap(np.angle(derot))
    slope = np.polyfit(np.arange(76), residual, 1)[0]
    assert abs(slope) < 1e-9


def test_remove_cfo_zero_is_identity():
    rng = np.random.default_rng(0)
    z = random_known_symbols(QPSK, 76, rng)
    derot, cfo_hat = remove_cfo(z, strip_power=4)
    assert abs(cfo_hat) < 1e-9
    assert np.max(np.abs(derot - z)) < 1e-9


def test_remove_cfo_noisy_regression_oracle():
    # slope-estimator variance for a line fit in white phase noise:
    # var(slope) = sigma_phi^2 * 12 / (n (n^2 - 1))
    n, snr_db, cfo = 76, 20.0, 0.005
    gamma = 10 ** (snr_db / 10)
    sigma_phi2 = 1.0 / (2 * gamma)
    slope_se = math.sqrt(sigma_phi2 * 12.0 / (n * (n**2 - 1)))
    rng = np.random.default_rng(11)
    errors = []
    for seed in range(200):
        x = np.ones(n, dtype=complex)
        ch = ChannelConfig(h=1.0, snr_db=snr_db, cfo_rad_per_symbol=cfo)
        b = synthesize_burst(x, HwiParams(), ch, seed=seed)
        _, cfo_hat = remove_cfo(b.samples, strip_power=2)
        errors.append(cfo_hat - cfo)
    mean_err = np.mean(errors)
    assert abs(mean_err) < 3 * slope_se / math.sqrt(len(errors))
    assert np.std(errors) < 1.5 * slope_se


def test_remove_cfo_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        remove_cfo(np.zeros(8, dtype=complex))
    with pytest.raises(DegenerateInputError):
        remove_cfo(np.ones(3, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_remove_cfo_rejects_non_finite_sample(bad):
    z = np.ones(8, dtype=complex)
    z[5] = bad
    with pytest.raises(DegenerateInputError, match="non-finite"):
        remove_cfo(z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
def test_extract_features_rejects_non_finite_known_symbol(bad):
    b = _burst(snr_db=20.0, mode="qpsk", seed=3)
    x = np.array(b.known_symbols)
    x[10] = bad
    with pytest.raises(DegenerateInputError, match="non-finite"):
        extract_features(Burst(samples=b.samples, known_symbols=x, meta=b.meta))


def test_extract_features_rejects_all_zero_known_symbols():
    b = _burst(snr_db=20.0, mode="qpsk", seed=3)
    with pytest.raises(DegenerateInputError, match="all zero"):
        extract_features(Burst(samples=b.samples, known_symbols=np.zeros(b.n), meta=b.meta))


def test_normalize_amplitude():
    rng = np.random.default_rng(3)
    z = rng.normal(size=20) + 1j * rng.normal(size=20)
    out = normalize_amplitude(z)
    assert np.mean(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)
    # scale invariance
    assert np.allclose(normalize_amplitude(5.0 * z), out, atol=1e-12)
    unit = out.copy()
    assert np.allclose(normalize_amplitude(unit), unit, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        normalize_amplitude(np.zeros(4, dtype=complex))


def test_ideal_noise_free_features():
    fv = extract_features(_burst())
    assert fv.amp_var == pytest.approx(0.0, abs=1e-12)
    assert fv.evm == pytest.approx(0.0, abs=1e-9)
    assert fv.amp_range == pytest.approx(0.0, abs=1e-9)
    # dc equals the mean known symbol up to the unresolved carrier phase
    known = iridium_known_symbols()
    assert math.hypot(fv.dc_i, fv.dc_q) == pytest.approx(abs(np.mean(known)), abs=1e-9)
    assert "amp_acf1" in fv.degenerate  # constant amplitude


def test_feature_extraction_is_pure():
    b = _burst(HwiParams(eps=0.02, phi=0.01, alpha3=0.02 + 0.01j), snr_db=15.0, seed=5)
    f1 = extract_features(b).as_array()
    f2 = extract_features(b).as_array()
    assert np.array_equal(f1, f2)


def test_scale_invariance_all_features():
    # positive real scaling changes nothing anywhere
    p = HwiParams(eps=0.02, phi=0.015, alpha3=0.03 + 0.01j)
    b = _burst(p, snr_db=18.0, cfo=0.004, mode="qpsk", seed=7)
    scaled = Burst(samples=3.7 * b.samples, known_symbols=b.known_symbols, meta=b.meta)
    f_ref = extract_features(b).as_array()
    f_scaled = extract_features(scaled).as_array()
    assert np.max(np.abs(f_ref - f_scaled)) < 1e-9


def test_phase_rotation_invariance_of_invariant_features():
    p = HwiParams(eps=0.02, phi=0.015, alpha3=0.03 + 0.01j)
    b = _burst(p, snr_db=18.0, cfo=0.004, mode="qpsk", seed=7)
    rotated = Burst(samples=np.exp(1j * 1.234) * b.samples, known_symbols=b.known_symbols,
                    meta=b.meta)
    f_ref = extract_features(b)
    f_rot = extract_features(rotated)
    for name in PHASE_INVARIANT:
        assert abs(getattr(f_ref, name) - getattr(f_rot, name)) < 1e-9, name


def test_iq_estimator_recovers_truth_on_qpsk_pilots():
    p = HwiParams(eps=0.03, phi=math.radians(2.0))
    b = _burst(p, snr_db=None, mode="qpsk", seed=2, h=0.8 * np.exp(1j * 0.9))
    fv = extract_features(b)
    assert fv.iq_eps_hat == pytest.approx(0.03, abs=2e-3)
    assert fv.iq_phi_hat == pytest.approx(math.radians(2.0), abs=2e-3)
    assert "iq" not in fv.degenerate


def test_iq_estimator_degenerate_on_real_pilots():
    p = HwiParams(eps=0.03, phi=math.radians(2.0), alpha3=0.02 + 0.01j)
    fv = extract_features(_burst(p, snr_db=None, mode="iridium", seed=2))
    assert "iq" in fv.degenerate
    # the fallback reports the collapse constant, not the true parameters
    assert fv.iq_eps_hat == pytest.approx(-1.0, abs=1e-6)


def test_amp_var_identity_at_zero_phase_imbalance():
    # with no phase imbalance the PA input power is constant on QPSK, so
    # both sides of the amplitude-variance proxy identity vanish
    for eps in (0.0, 0.005, 0.01):
        for a3 in (0.01, 0.03, 0.05):
            p = HwiParams(eps=eps, phi=0.0, alpha3=a3)
            lhs = noise_free_amp_var(QPSK, p)
            rhs = 4 * abs(p.alpha3) ** 2 * pa_input_power_variance(QPSK, p)
            assert abs(lhs - rhs) <= 0.05 * max(lhs, rhs) + 1e-15


def test_amp_var_strictly_increases_with_pa_magnitude():
    p0 = HwiParams(eps=0.0, phi=math.radians(2.0))
    vals = [noise_free_amp_var(QPSK, HwiParams(eps=0.0, phi=p0.phi, alpha3=a))
            for a in (0.01, 0.02, 0.03, 0.04, 0.05)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_amp_var_slope_matches_derived_law():
    # noise-free amplitude variance follows Var(u) (1/2 + a3/(1+a3))^2 to
    # first order in the input-power fluctuation u - 1: the sqrt(u) factor
    # contributes the 1/2 and the compression gain the a3/(1+a3)
    phi = math.radians(2.0)
    var_u = pa_input_power_variance(QPSK, HwiParams(eps=0.0, phi=phi))
    for a3 in (0.0, 0.02, 0.05):
        p = HwiParams(eps=0.0, phi=phi, alpha3=a3)
        predicted = var_u * (0.5 + a3 / (1 + a3)) ** 2
        assert noise_free_amp_var(QPSK, p) == pytest.approx(predicted, rel=0.02)


def test_amp_var_crb_transfer_positive_and_scales():
    p = HwiParams(eps=0.0, phi=math.radians(2.0), alpha3=0.03)
    v1 = amp_var_crb_transfer(QPSK, p, 76, 100.0)
    v2 = amp_var_crb_transfer(QPSK, p, 76, 1000.0)
    assert v1 > 0
    # bound transfers the 1/gamma scaling of the parameter bound
    assert v1 / v2 == pytest.approx(10.0, rel=1e-6)


def test_degenerate_acf_flagged():
    fv = extract_features(_burst())
    assert fv.amp_acf1 == 0.0
    assert "amp_acf1" in fv.degenerate


def test_burst_too_short():
    b = _burst()
    short = Burst(samples=b.samples[:40], known_symbols=b.known_symbols[:40], meta=b.meta)
    with pytest.raises(DegenerateInputError):
        extract_features(short, PipelineConfig(n_known=76))


def test_pipeline_config_validation():
    assert PipelineConfig(n_known=4).n_known == 4
    with pytest.raises(ConfigError):
        PipelineConfig(n_known=3)


def test_strip_power_follows_the_known_symbols_not_the_label():
    # real pilots are stripped by squaring whatever the burst is labelled; at
    # 5 dB the squared and fourth-power CFO fits differ (at high SNR they can
    # agree bit for bit, since the powers differ by a factor of two)
    b = _burst(HwiParams(eps=0.02, phi=0.03, alpha3=0.03 + 0.01j), snr_db=5.0, cfo=0.004)
    relabelled = Burst(samples=b.samples, known_symbols=b.known_symbols,
                       meta=dataclasses.replace(b.meta, modulation="custom"))
    want, got = extract_features(b), extract_features(relabelled)
    assert np.array_equal(got.as_array(), want.as_array())
    assert got.degenerate == want.degenerate
