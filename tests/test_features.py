import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfident.auth import feature_table_from_bursts
from rfident.constellation import ConfigError, make_constellation
from rfident.fim_crb import RankDeficientError, crb_report, fim_numerical
from rfident.features import (
    _FLAGS,
    _cfo_block,
    _extract_bursts,
    _extract_stack,
    _row_percentiles,
    _unwrap_rows,
    DegenerateInputError,
    FEATURE_NAMES,
    PipelineConfig,
    amp_var_crb_transfer,
    extract_features,
    noise_free_amp_var,
    normalize_amplitude,
    pa_input_power_variance,
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


def _cfo_row(z, strip_power):
    """``_cfo_block`` of one row: (derotated row, slope)."""
    z = np.asarray(z, dtype=complex)[None]
    derot, slope = _cfo_block(z, np.abs(z), strip_power)
    return derot[0], float(slope[0])


def test_cfo_block_pure_ramp():
    z = np.exp(1j * 0.01 * np.arange(76))
    derot, cfo_hat = _cfo_row(z, strip_power=2)
    assert cfo_hat == pytest.approx(0.01, abs=1e-6)
    residual = np.unwrap(np.angle(derot))
    slope = np.polyfit(np.arange(76), residual, 1)[0]
    assert abs(slope) < 1e-9


def test_cfo_block_zero_is_identity():
    rng = np.random.default_rng(0)
    z = random_known_symbols(QPSK, 76, rng)
    derot, cfo_hat = _cfo_row(z, strip_power=4)
    assert abs(cfo_hat) < 1e-9
    assert np.max(np.abs(derot - z)) < 1e-9


def test_cfo_block_noisy_regression_oracle():
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
        _, cfo_hat = _cfo_row(b.samples, strip_power=2)
        errors.append(cfo_hat - cfo)
    mean_err = np.mean(errors)
    assert abs(mean_err) < 3 * slope_se / math.sqrt(len(errors))
    assert np.std(errors) < 1.5 * slope_se


@pytest.mark.parametrize("strip_power", [1, 2, 3, 4])
def test_cfo_block_any_positive_int_strip_power(strip_power):
    z = np.exp(1j * 0.01 * np.arange(76))
    _, cfo_hat = _cfo_row(z, strip_power=strip_power)
    assert cfo_hat == pytest.approx(0.01, abs=1e-9)


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
    # mean powers that are not finite and normal cannot be scaled exactly:
    # one that overflows (without a RuntimeWarning), NaN, and subnormal
    b = _burst(snr_db=20.0, mode="iridium", seed=3)
    nan_sample = b.samples.copy()
    nan_sample[5] = math.nan
    for bad in (b.samples * 1e160, nan_sample, b.samples * 1e-160):
        with pytest.raises(DegenerateInputError, match="zero, subnormal or not finite"):
            normalize_amplitude(np.stack([b.samples, bad]))


def _feature(values, name):
    return values[FEATURE_NAMES.index(name)]


def test_ideal_noise_free_features():
    values, degenerate = extract_features(_burst())
    assert _feature(values, "amp_var") == pytest.approx(0.0, abs=1e-12)
    assert _feature(values, "evm") == pytest.approx(0.0, abs=1e-9)
    assert _feature(values, "amp_range") == pytest.approx(0.0, abs=1e-9)
    # dc equals the mean known symbol up to the unresolved carrier phase
    known = iridium_known_symbols()
    assert math.hypot(_feature(values, "dc_i"), _feature(values, "dc_q")) == \
        pytest.approx(abs(np.mean(known)), abs=1e-9)
    assert "amp_acf1" in degenerate  # constant amplitude


def test_feature_extraction_is_pure():
    b = _burst(HwiParams(eps=0.02, phi=0.01, alpha3=0.02 + 0.01j), snr_db=15.0, seed=5)
    f1 = extract_features(b).values
    f2 = extract_features(b).values
    assert np.array_equal(f1, f2)


def test_scale_invariance_all_features():
    # positive real scaling changes nothing anywhere
    p = HwiParams(eps=0.02, phi=0.015, alpha3=0.03 + 0.01j)
    b = _burst(p, snr_db=18.0, cfo=0.004, mode="qpsk", seed=7)
    scaled = Burst(samples=3.7 * b.samples, known_symbols=b.known_symbols, meta=b.meta)
    f_ref = extract_features(b).values
    f_scaled = extract_features(scaled).values
    assert np.max(np.abs(f_ref - f_scaled)) < 1e-9


def test_phase_rotation_invariance_of_invariant_features():
    p = HwiParams(eps=0.02, phi=0.015, alpha3=0.03 + 0.01j)
    b = _burst(p, snr_db=18.0, cfo=0.004, mode="qpsk", seed=7)
    rotated = Burst(samples=np.exp(1j * 1.234) * b.samples, known_symbols=b.known_symbols,
                    meta=b.meta)
    f_ref = extract_features(b).values
    f_rot = extract_features(rotated).values
    for name in PHASE_INVARIANT:
        assert abs(_feature(f_ref, name) - _feature(f_rot, name)) < 1e-9, name


def test_iq_estimator_recovers_truth_on_qpsk_pilots():
    p = HwiParams(eps=0.03, phi=math.radians(2.0))
    b = _burst(p, snr_db=None, mode="qpsk", seed=2, h=0.8 * np.exp(1j * 0.9))
    values, degenerate = extract_features(b)
    assert _feature(values, "iq_eps_hat") == pytest.approx(0.03, abs=2e-3)
    assert _feature(values, "iq_phi_hat") == pytest.approx(math.radians(2.0), abs=2e-3)
    assert "iq" not in degenerate


def test_iq_estimator_degenerate_on_real_pilots():
    p = HwiParams(eps=0.03, phi=math.radians(2.0), alpha3=0.02 + 0.01j)
    values, degenerate = extract_features(_burst(p, snr_db=None, mode="iridium", seed=2))
    assert "iq" in degenerate
    # the fallback reports the collapse constant, not the true parameters
    assert _feature(values, "iq_eps_hat") == pytest.approx(-1.0, abs=1e-6)


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


def test_amp_var_crb_transfer_on_rank_deficient_alphabets():
    p = HwiParams(eps=0.03, phi=math.radians(2.0), alpha3=0.02 + 0.01j)
    # 4-PAM is rank 3 with both alpha3 bounds finite: the |alpha3| bound is
    # d^T J^+ d, a variance, so positive
    pam4 = make_constellation("custom", points=[-3, -1, 1, 3])
    f = fim_numerical(pam4, p, 76, 100.0)
    rep = crb_report(f)
    assert rep.rank == 3 and np.all(np.isfinite(rep.crb[2:]))
    phase = p.alpha3 / abs(p.alpha3)
    d = np.array([0.0, 0.0, phase.real, phase.imag])

    def at(m):
        return noise_free_amp_var(pam4, dataclasses.replace(p, alpha3=m * phase))

    slope = (at(abs(p.alpha3) + 1e-4) - at(abs(p.alpha3) - 1e-4)) / 2e-4
    oracle = slope**2 * d @ np.linalg.pinv(f.matrix, rcond=1e-9, hermitian=True) @ d
    v = amp_var_crb_transfer(pam4, p, 76, 100.0)
    assert v > 0 and v == pytest.approx(oracle, rel=1e-9)
    # BPSK's amplitude is flat whatever alpha3, so the slope and the bound are 0
    assert amp_var_crb_transfer(make_constellation("bpsk"), p, 76, 100.0) == 0.0
    # a line through the origin whose modulus varies: nonzero slope, but
    # |alpha3| has a null-space component
    line = make_constellation("custom", points=[1, -1, 1e-5j])
    with pytest.raises(RankDeficientError):
        amp_var_crb_transfer(line, p, 76, 100.0)


def test_degenerate_acf_flagged():
    values, degenerate = extract_features(_burst())
    assert _feature(values, "amp_acf1") == 0.0
    assert "amp_acf1" in degenerate


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
    assert np.array_equal(got.values, want.values)
    assert got.degenerate == want.degenerate


def _mixed_bursts(count=300):
    """Iridium pilots, QPSK and 4-PAM bursts at several SNRs, every tenth one
    noise-free with constant modulus, every seventh longer than n_known. Of
    these 300, a few have an amp_var whose mean squared by numpy rounds
    differently from the float square, so that shortcut shows too."""
    rng = np.random.default_rng(42)
    pam4 = make_constellation("custom", points=[-3.0, -1.0, 1.0, 3.0])
    out = []
    for i in range(count):
        n = 76 + (int(rng.integers(1, 40)) if i % 7 == 0 else 0)
        kind = i % 3
        if i % 10 == 0:
            x, p, snr = np.ones(n, dtype=complex), HwiParams(), None
        else:
            if kind == 0:
                x = np.resize(iridium_known_symbols(), n)
            else:
                x = random_known_symbols(QPSK if kind == 1 else pam4, n, rng)
            p = HwiParams(eps=rng.uniform(-0.04, 0.04), phi=rng.uniform(-0.05, 0.05),
                          alpha3=complex(rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04)))
            snr = (3.0, 12.0, 25.0)[i % 3]
        ch = ChannelConfig(snr_db=snr, cfo_rad_per_symbol=float(rng.uniform(-0.01, 0.01)),
                           random_phase=i % 10 != 0)
        out.append(synthesize_burst(x, p, ch, seed=rng, satellite_id=f"S{i % 5}"))
    return out


def _assert_feature_ranges(matrix):
    """Every row holds a nonnegative amplitude variance, amplitude range and
    EVM, and autocorrelations in [-1, 1]."""
    for name in ("amp_var", "amp_range", "evm"):
        assert np.all(matrix[:, FEATURE_NAMES.index(name)] >= 0.0), name
    for name in ("amp_acf1", "phase_acf1"):
        assert np.all(np.abs(matrix[:, FEATURE_NAMES.index(name)]) <= 1.0), name


def _strip_power(x):
    """The strip power the known symbols x call for: 2 when they lie on one
    line through the origin, else 4."""
    collinear = abs(np.sum(x * x)) ** 2 > (1.0 - 1e-9) * np.sum(np.abs(x) ** 2) ** 2
    return 2 if collinear else 4


def _turn_unwrap(phase):
    """np.unwrap's rule for one row of phases in [-pi, pi], in Python
    scalars: a step strictly beyond pi takes a whole turn off the rest of
    the row."""
    out, turns = [float(phase[0])], 0
    for prev, cur in zip(phase[:-1].tolist(), phase[1:].tolist()):
        step = cur - prev
        turns += (step < -math.pi) - (step > math.pi)
        out.append(cur + 2.0 * math.pi * turns)
    return np.array(out)


def _stripped_phase(z, sp):
    """The unwrapped phase of the samples z stripped of their modulation by
    repeated squaring to the strip power sp, 2 or 4."""
    u = z / np.abs(z)
    u2 = u * u
    return _turn_unwrap(np.angle(u2 if sp == 2 else u2 * u2))


def _flat_phase_floor(n):
    """The largest sum of squared phase deviations that is rounding noise:
    n deviations of n pi eps each, for n unwrapped angles."""
    return n * (n * math.pi * np.finfo(float).eps) ** 2


def _reference_features(b, n_known=76):
    """The per-burst formulas, one numpy call at a time on 1-D rows (the
    complex sums as one-element rows) and Python scalars: the oracle the
    block extractor must match bit for bit."""
    z, x = b.samples[:n_known], b.known_symbols[:n_known]
    sp = _strip_power(x)
    phase = _stripped_phase(z, sp)
    n = np.arange(z.size)
    c = n - (z.size - 1) / 2.0
    slope = np.sum(phase * c) / np.sum(c * c) / sp
    z = z * np.exp(-1j * slope * n)
    z = z / math.sqrt(float(np.mean(np.abs(z) ** 2)))
    flags = set()

    def ratio(num, den, flag, floor=1e-30):
        if den <= floor:
            flags.add(flag)
            return 0.0
        return max(-1.0, min(1.0, num / den))

    a = np.abs(z)
    a_mean, a_var = float(np.mean(a)), float(np.var(a))
    hi, lo = np.percentile(a, [95.0, 5.0])
    da = a - a_mean
    d2 = da * da
    a_dd = float(np.sum(d2))
    if a_var <= 1e-30:
        kurtosis = 0.0
        flags.add("amp_kurtosis")
    else:
        kurtosis = float(np.mean(d2 * d2)) / (a_var * a_var) - 3.0
    u = z / a
    u2 = u * u
    psi = _turn_unwrap(np.angle(u2 * u2))
    dp = psi - np.mean(psi)
    p_dd = float(np.sum(dp * dp))

    def row_sum(v):
        return np.sum(v, keepdims=True)

    s_xx = row_sum(np.abs(x) ** 2)
    rhs1 = row_sum(z * np.conj(x))
    rho = 0j
    if sp == 2:
        flags.add("iq")
        h = rhs1 / s_xx
        if abs(h[0]) >= 1e-12:
            z_eq = z / h
            rho = complex(np.mean(z_eq * z_eq)) / 2.0
    else:
        s_x2, rhs2 = row_sum(x * x), row_sum(z * x)
        det = s_xx * s_xx - (s_x2.real * s_x2.real + s_x2.imag * s_x2.imag)
        k1 = (s_xx * rhs1 - np.conj(s_x2) * rhs2) / det
        k2 = (s_xx * rhs2 - s_x2 * rhs1) / det
        if abs(k1[0]) < 1e-12:
            flags.add("iq")
        else:
            rho = complex((k2 / k1)[0])
    if a_dd <= 1e-30 or p_dd <= _flat_phase_floor(z.size):
        flags.add("pa_cross")
        pa_cross = 0.0
    else:
        pa_cross = float(np.sum(da * dp)) / math.sqrt(a_dd * p_dd)
    dc = complex(np.mean(z))
    row = [a_var / (a_mean * a_mean), float(hi - lo), kurtosis,
           ratio(float(np.sum(da[:-1] * da[1:])), a_dd, "amp_acf1"),
           ratio(float(np.sum(dp[:-1] * dp[1:])), p_dd, "phase_acf1", _flat_phase_floor(z.size)),
           float(np.var(psi)),
           float(slope), float(np.sqrt(np.mean(np.abs(z - x) ** 2) / np.mean(np.abs(x) ** 2))),
           -2.0 * rho.real, 2.0 * rho.imag, dc.real, dc.imag, pa_cross]
    return np.array(row), flags


def _seed_reference_features(b, n_known=76):
    """The per-burst formulas as first written: numpy's complex power and
    ``np.unwrap``, ``** 2`` and ``** 4`` on Python and numpy scalars, with
    the flat-phase test at the angles' rounding scale (it was 1e-30). The
    block extractor rounds differently, so it matches these to a
    tolerance, not bit for bit."""
    z, x = b.samples[:n_known], b.known_symbols[:n_known]
    sp = _strip_power(x)
    phase = np.unwrap(np.angle((z / np.abs(z)) ** sp))
    collinear = sp == 2
    n = np.arange(z.size)
    c = n - (z.size - 1) / 2.0
    slope = np.sum(phase * c) / np.sum(c * c) / sp
    z = z * np.exp(-1j * slope * n)
    z = z / math.sqrt(float(np.mean(np.abs(z) ** 2)))
    flags = set()

    def acf1(v, name, floor=1e-30):
        d = v - np.mean(v)
        denom = float(np.sum(d * d))
        if denom <= floor:
            flags.add(name)
            return 0.0
        return max(-1.0, min(1.0, float(np.sum(d[:-1] * d[1:]) / denom)))

    a = np.abs(z)
    a_mean, a_var = float(np.mean(a)), float(np.var(a))
    if a_var <= 1e-30:
        kurtosis = 0.0
        flags.add("amp_kurtosis")
    else:
        kurtosis = float(np.mean((a - a_mean) ** 4) / a_var**2 - 3.0)
    psi = np.unwrap(np.angle((z / a) ** 4))
    s_xx = complex(np.sum(np.abs(x) ** 2))
    rho = 0j
    if collinear:
        flags.add("iq")
        h = complex(np.sum(z * np.conj(x)) / s_xx)
        if abs(h) >= 1e-12:
            rho = complex(np.mean((z / h) ** 2)) / 2.0
    else:
        s_x2, rhs1, rhs2 = (complex(np.sum(v)) for v in (x * x, z * np.conj(x), z * x))
        det = abs(s_xx) ** 2 - abs(s_x2) ** 2
        k1 = (s_xx * rhs1 - np.conj(s_x2) * rhs2) / det
        k2 = (s_xx * rhs2 - s_x2 * rhs1) / det
        if abs(k1) < 1e-12:
            flags.add("iq")
        else:
            rho = k2 / k1
    dx, dy = a - np.mean(a), psi - np.mean(psi)
    sx, sy = float(np.sum(dx * dx)), float(np.sum(dy * dy))
    if sx <= 1e-30 or sy <= _flat_phase_floor(z.size):
        flags.add("pa_cross")
        pa_cross = 0.0
    else:
        pa_cross = float(np.sum(dx * dy) / math.sqrt(sx * sy))
    dc = complex(np.mean(z))
    row = [a_var / a_mean**2, float(np.percentile(a, 95.0) - np.percentile(a, 5.0)), kurtosis,
           acf1(a, "amp_acf1"), acf1(psi, "phase_acf1", _flat_phase_floor(z.size)),
           float(np.var(psi)), float(slope),
           float(np.sqrt(np.mean(np.abs(z - x) ** 2) / np.mean(np.abs(x) ** 2))),
           -2.0 * rho.real, 2.0 * rho.imag, dc.real, dc.imag, pa_cross]
    return np.array(row), flags


def test_block_extraction_is_bit_identical_to_per_burst():
    # the table reads blocks of 256 bursts, so 300 cross a block boundary;
    # blocks this large also make numpy reuse temporaries as outputs, which
    # must not change a bit of any feature
    bursts = _mixed_bursts()
    per_burst = [extract_features(b) for b in bursts]
    want = np.array([fv.values for fv in per_burst])
    reference = [_reference_features(b) for b in bursts]
    assert np.array_equal(want, np.array([row for row, _ in reference]))
    assert [set(fv.degenerate) for fv in per_burst] == [flags for _, flags in reference]
    table = feature_table_from_bursts(bursts).matrix
    assert np.array_equal(table, want)
    matrix, mask = _extract_bursts(bursts, 76)
    assert np.array_equal(matrix, want)
    assert [{f for f, m in zip(_FLAGS, row) if m} for row in mask] == \
        [set(fv.degenerate) for fv in per_burst]
    # the degenerate branches are exercised: noise-free constant modulus and
    # the beta = 0 pilots both set flags, the QPSK bursts leave "iq" clear
    assert {"amp_kurtosis", "amp_acf1", "iq", "pa_cross"} <= set(per_burst[0].degenerate)
    assert "iq" not in per_burst[1].degenerate
    _assert_feature_ranges(table)


def test_block_extraction_agrees_with_the_seed_formulas():
    # squares for powers, the turn rule for np.unwrap and array divisions
    # move features in their last bits only, and no flag
    bursts = _mixed_bursts()
    matrix, mask = _extract_bursts(bursts, 76)
    seed = [_seed_reference_features(b) for b in bursts]
    assert np.allclose(matrix, np.array([row for row, _ in seed]), rtol=1e-10, atol=1e-13)
    assert [{f for f, m in zip(_FLAGS, row) if m} for row in mask] == [f for _, f in seed]


def _polyfit_slope(phase, strip_power):
    return np.polyfit(np.arange(phase.size), phase, 1)[0] / strip_power


# the closed-form slope and np.polyfit's scaled least-squares solve round
# differently; they must agree to this tolerance
POLYFIT_TOL = dict(rel=1e-10, abs=1e-15)


def test_cfo_slope_agrees_with_polyfit():
    bursts = _mixed_bursts()
    cfo_hat = feature_table_from_bursts(bursts).matrix[:, FEATURE_NAMES.index("cfo_hat")]
    for b, got in zip(bursts, cfo_hat):
        sp = _strip_power(b.known_symbols[:76])
        want = _polyfit_slope(_stripped_phase(b.samples[:76], sp), sp)
        assert got == pytest.approx(want, **POLYFIT_TOL)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 120), strip_power=st.sampled_from([2, 4]),
       rows=st.lists(st.tuples(st.floats(-0.5, 0.5), st.sampled_from([0.0, 0.1, 1.0])),
                     min_size=1, max_size=40))
def test_cfo_block_rows_are_independent_property(seed, n, strip_power, rows):
    # finite nonzero samples, each row a phase ramp of its own slope under
    # uniform phase noise of its own spread (1.0: any phase), the stack
    # stripped by one power: a row gives the same bits alone as in the
    # stack, and a slope within POLYFIT_TOL of polyfit's
    ramp, spread = (np.array(v) for v in zip(*rows))
    rng = np.random.default_rng(seed)
    angle = ramp[:, None] * np.arange(n) + spread[:, None] * rng.uniform(-np.pi, np.pi,
                                                                        (len(rows), n))
    z = 10.0 ** rng.uniform(-3.0, 3.0, (len(rows), n)) * np.exp(1j * angle)
    derot, slope = _cfo_block(z, np.abs(z), strip_power)
    for i in range(len(rows)):
        alone_derot, alone_slope = _cfo_block(z[i:i + 1], np.abs(z[i:i + 1]), strip_power)
        assert np.array_equal(derot[i:i + 1], alone_derot)
        assert np.array_equal(slope[i:i + 1], alone_slope)
        phase = _stripped_phase(z[i], strip_power)
        assert slope[i] == pytest.approx(_polyfit_slope(phase, strip_power), **POLYFIT_TOL)


# phases whose differences are exact multiples of pi/2, so that rows of them
# step by exactly +-pi and +-2 pi
_EXACT_PHASES = (-np.pi, -np.pi / 2, 0.0, np.pi / 2, np.pi)


def _phase_row(kind, n, rng):
    if kind == "uniform":
        return rng.uniform(-np.pi, np.pi, n)
    if kind == "exact":
        return rng.choice(_EXACT_PHASES, n)
    if kind == "constant":
        return np.full(n, rng.choice(_EXACT_PHASES) if rng.random() < 0.5
                       else rng.uniform(-np.pi, np.pi))
    # one step, between exact or uniform phases, at a random sample
    row = np.full(n, rng.choice(_EXACT_PHASES))
    row[int(rng.integers(0, n)):] = rng.choice(_EXACT_PHASES) if rng.random() < 0.5 \
        else rng.uniform(-np.pi, np.pi)
    return row


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
       kinds=st.lists(st.sampled_from(["uniform", "exact", "constant", "one_step"]),
                      min_size=1, max_size=20))
def test_unwrap_rows_counts_turns_as_numpy_property(seed, n, kinds):
    # rows of phases in [-pi, pi], some stepping by exactly +-pi (no turn,
    # as in numpy), constant or with a single step: every sample takes the
    # turns np.unwrap gives it, and a row gives the same bits alone as in
    # the block
    rng = np.random.default_rng(seed)
    phase = np.array([_phase_row(kind, n, rng) for kind in kinds])
    got = _unwrap_rows(phase)
    turns = np.round((got - np.unwrap(phase, axis=1)) / (2.0 * np.pi))
    assert np.all(turns == 0)
    for i in range(len(kinds)):
        assert np.array_equal(_unwrap_rows(phase[i:i + 1]), got[i:i + 1])
        assert np.array_equal(got[i], _turn_unwrap(phase[i]))


def _bad(b, samples=None, known=None, n=None):
    s = np.array(b.samples if samples is None else samples)
    x = np.array(b.known_symbols if known is None else known)
    return Burst(samples=s[:n], known_symbols=x[:n], meta=b.meta)


def _with(values, index, value):
    out = np.array(values)
    out[index] = value
    return out


@pytest.mark.parametrize("make_bad, message", [
    (lambda b: _bad(b, samples=_with(b.samples, 7, np.nan)), "non-finite sample"),
    (lambda b: _bad(b, samples=_with(b.samples, 0, 0.0)), "zero-amplitude sample"),
    (lambda b: _bad(b, n=40), "has 40 samples, needs 76"),
    (lambda b: _bad(b, known=_with(b.known_symbols, 3, np.inf)), "non-finite known symbol"),
    (lambda b: _bad(b, known=np.zeros(b.n)), "known symbols are all zero"),
    # cases added later go last, so that the ids of the cases above stay as they are
    (lambda b: _bad(b, samples=b.samples * 1e160), "sample power overflows"),
    (lambda b: _bad(b, samples=b.samples * 1e-160), "sample power underflows"),
])
def test_table_error_names_the_first_bad_burst(make_bad, message):
    # two bad bursts, both past the first block: the error names the first
    bursts = _mixed_bursts(280)
    for i in (270, 275):
        bursts[i] = make_bad(bursts[i])
    with pytest.raises(DegenerateInputError, match=f"^burst 270: {message}$"):
        feature_table_from_bursts(bursts)
    with pytest.raises(DegenerateInputError, match=message):
        extract_features(bursts[275])


def test_overflowing_sample_power_is_degenerate():
    # finite samples whose mean power overflows: normalizing would zero them
    ch = ChannelConfig(snr_db=20.0, cfo_rad_per_symbol=0.003, random_phase=True)
    b = synthesize_burst(iridium_known_symbols(), HwiParams(eps=0.02), ch, seed=1)
    huge = _bad(b, samples=b.samples * 1e160)
    assert np.all(np.isfinite(huge.samples))
    with pytest.raises(DegenerateInputError, match="^burst 0: sample power overflows$"):
        extract_features(huge)
    # large samples whose power stays finite still give finite features
    assert np.all(np.isfinite(extract_features(_bad(b, samples=b.samples * 1e150)).values))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200), rows=st.integers(1, 8),
       scale=st.floats(-5.0, 5.0), kind=st.sampled_from(["spread", "ties", "constant"]))
def test_row_percentiles_are_bit_identical_to_numpy_percentile_property(seed, n, rows, scale,
                                                                        kind):
    # rows of positive values at scales 1e-5 to 1e5, with many ties (four
    # distinct values) or constant: the order statistics read off one row
    # sort are np.percentile's, bit for bit, at every length
    rng = np.random.default_rng(seed)
    a = 10.0 ** scale * (rng.random((rows, n)) if kind == "spread"
                         else rng.integers(1, 5, (rows, n)).astype(float))
    if kind == "constant":
        a[:] = a[:, :1]
    want = np.percentile(a, [95.0, 5.0], axis=1)
    assert np.array(_row_percentiles(a, (95.0, 5.0))).tobytes() == want.tobytes()


def _shared_row_samples(x, rows, seed):
    """(rows, len(x)) samples of bursts that all carry the known symbols x,
    with random fingerprints, CFOs and channel phases at 3-25 dB; every
    fifth is noise-free with no impairment, so that flags get set."""
    rng = np.random.default_rng(seed)
    out = np.empty((rows, x.size), dtype=complex)
    for i in range(rows):
        p, snr = HwiParams(), None
        if i % 5:
            p = HwiParams(eps=rng.uniform(-0.04, 0.04), phi=rng.uniform(-0.05, 0.05),
                          alpha3=complex(rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04)))
            snr = (3.0, 12.0, 25.0)[i % 3]
        ch = ChannelConfig(snr_db=snr, cfo_rad_per_symbol=float(rng.uniform(-0.01, 0.01)),
                           random_phase=True)
        out[i] = synthesize_burst(x, p, ch, seed=rng).samples
    return out


@pytest.mark.parametrize("pilots", ["iridium", "qpsk"])
@pytest.mark.parametrize("rows", [1, 120, 256, 300])
def test_shared_row_extraction_equals_the_materialized_stack(pilots, rows):
    # one (1, n) row of known symbols, taken once for the whole block, gives
    # every burst the bits of the stack that repeats it, in both branches of
    # the image ratio (collinear Iridium pilots, full-rank QPSK)
    if pilots == "iridium":
        x = iridium_known_symbols()
    else:
        x = random_known_symbols(QPSK, 76, np.random.default_rng(7))
    samples = _shared_row_samples(x, rows, seed=rows)
    got = _extract_stack(samples, x[None])
    want = _extract_stack(samples, np.repeat(x[None], rows, axis=0))
    assert all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert np.any(got[1][:, _FLAGS.index("iq")]) == (pilots == "iridium")


def _spoil(samples, known, lengths, bad, i):
    """Make burst i of a stack bad in the way ``bad`` names."""
    if bad == "overflow":
        samples[i] *= 1e160
    elif bad == "underflow":
        samples[i] *= 1e-160
    elif bad in ("nan", "inf", "zero"):
        samples[i, 17] = {"nan": np.nan, "inf": complex(np.inf, 0.0), "zero": 0.0}[bad]
    elif bad == "short":
        lengths[i] = 40
    else:
        known[min(i, known.shape[0] - 1)] = (np.nan if bad == "known_nan" else 0.0)


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("bad, message", [
    ("nan", "non-finite sample"), ("inf", "non-finite sample"), ("zero", "zero-amplitude sample"),
    ("overflow", "sample power overflows"), ("short", "has 40 samples, needs 76"),
    ("known_nan", "non-finite known symbol"), ("known_zero", "known symbols are all zero"),
    # cases added later go last, so that the ids of the cases above stay as they are
    ("underflow", "sample power underflows")])
def test_shared_row_checks_name_the_first_bad_burst(shared, bad, message):
    # a block that fails the one-pass summary raises what the per-check
    # masks raise: the first bad burst, counted from ``first``, and its first
    # failing check; a bad shared row is every burst's, so burst ``first``
    x = iridium_known_symbols()
    samples = _shared_row_samples(x, 256, seed=3)
    known = x[None].copy() if shared else np.repeat(x[None], 256, axis=0)
    lengths = np.full(256, 76)
    for i in (201, 230):
        _spoil(samples, known, lengths, bad, i)
    where = 1000 if shared and bad.startswith("known") else 1201
    with pytest.raises(DegenerateInputError, match=f"^burst {where}: {message}$"):
        _extract_stack(samples, known, first=1000, lengths=lengths)

