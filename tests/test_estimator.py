import math
from dataclasses import replace

import numpy as np
import pytest

from rfident import estimator
from rfident.constellation import ConfigError, make_constellation
from rfident.estimator import (
    fit_batch,
    mc_crb_validation,
    nls_estimate,
)
from rfident.signal_model import (
    Burst,
    ChannelConfig,
    HwiParams,
    bpsk_collapse,
    iridium_known_symbols,
    random_known_symbols,
    read_burst_binary,
    synthesize_burst,
    write_burst_binary,
)

TRUTH = HwiParams(eps=0.03, phi=math.radians(2.0), alpha3=0.02 + 0.01j)


def _noise_free_burst(seed=0):
    rng = np.random.default_rng(seed)
    x = random_known_symbols(make_constellation("qpsk"), 76, rng)
    ch = ChannelConfig(h=0.7 - 0.4j, snr_db=None)
    return synthesize_burst(x, TRUTH, ch, seed=seed)


def test_noise_free_recovery_from_truth_init():
    b = _noise_free_burst()
    est, status = nls_estimate(b, b.meta.channel.h, init=TRUTH)
    assert np.max(np.abs(est.as_vector() - TRUTH.as_vector())) < 1e-7
    assert status.converged
    assert status.residual < 1e-12


def test_noise_free_recovery_from_perturbed_init():
    b = _noise_free_burst(3)
    init = HwiParams.from_vector(TRUTH.as_vector() + [0.004, -0.003, 0.002, 0.003])
    est, _ = nls_estimate(b, b.meta.channel.h, init=init)
    assert np.max(np.abs(est.as_vector() - TRUTH.as_vector())) < 1e-6


def test_cfo_deramped_before_fit():
    rng = np.random.default_rng(9)
    x = random_known_symbols(make_constellation("qpsk"), 76, rng)
    ch = ChannelConfig(h=1.0, snr_db=None, cfo_rad_per_symbol=0.01)
    b = synthesize_burst(x, TRUTH, ch, seed=9)
    est, _ = nls_estimate(b, 1.0, init=TRUTH)
    assert np.max(np.abs(est.as_vector() - TRUTH.as_vector())) < 1e-7


def test_real_symbols_fit_only_alpha3():
    # beta = 0: the IQ pair stays at its initial value and alpha3 absorbs the
    # collapsed coefficient c exactly (the PA sub-block fit)
    ch = ChannelConfig(h=0.7 - 0.4j, snr_db=None)
    b = synthesize_burst(iridium_known_symbols(), TRUTH, ch, seed=0, modulation="bpsk")
    init = HwiParams.from_vector(TRUTH.as_vector() + [0.004, -0.003, 0.002, 0.003])
    est, status = nls_estimate(b, b.meta.channel.h, init=init)
    assert est.eps == init.eps and est.phi == init.phi
    assert status.converged
    assert status.residual < 1e-12
    assert abs(bpsk_collapse(est).c - bpsk_collapse(TRUTH).c) < 1e-9


def test_default_start_is_the_truth_or_the_zero_fingerprint(tmp_path):
    # without init the fit starts at meta.truth; a burst read from a file
    # that records no truth starts at HwiParams()
    b = _noise_free_burst()
    path = tmp_path / "burst.bin"
    write_burst_binary(Burst(samples=b.samples, known_symbols=b.known_symbols,
                             meta=replace(b.meta, truth=None)), path)
    recorded = read_burst_binary(path)
    assert recorded.meta.truth is None
    for burst, start in ((b, TRUTH), (recorded, HwiParams())):
        est, status = nls_estimate(burst, b.meta.channel.h)
        assert (est, status) == nls_estimate(burst, b.meta.channel.h, init=start)
        assert np.max(np.abs(est.as_vector() - TRUTH.as_vector())) < 1e-12
        assert status.converged
    assert status.n_evaluations > nls_estimate(b, b.meta.channel.h)[1].n_evaluations


def test_invalid_options():
    b = _noise_free_burst()
    with pytest.raises(ValueError):
        nls_estimate(b, 0.0)
    silent = Burst(samples=b.samples, known_symbols=np.zeros(b.n, dtype=complex), meta=b.meta)
    with pytest.raises(ValueError, match="zero"):
        nls_estimate(silent, 1.0)


@pytest.mark.parametrize("field", ["samples", "known_symbols"])
def test_non_finite_burst_rejected(field):
    b = _noise_free_burst()
    parts = {"samples": b.samples.copy(), "known_symbols": b.known_symbols.copy()}
    parts[field][10] = complex(np.nan, 0.0)
    bad = Burst(meta=b.meta, **parts)
    with pytest.raises(ValueError, match="finite"):
        nls_estimate(bad, b.meta.channel.h, init=TRUTH)


def test_budget_warning(monkeypatch):
    monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    b = _noise_free_burst(5)
    init = HwiParams.from_vector(TRUTH.as_vector() + 0.01)
    with pytest.warns(UserWarning):
        _, status = nls_estimate(b, b.meta.channel.h, init=init)
    assert status.converged is False


def test_batched_fit_matches_per_burst_estimates():
    qpsk = make_constellation("qpsk")
    bursts, inits = [], []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = random_known_symbols(qpsk, 76, rng)
        bursts.append(synthesize_burst(x, TRUTH, ChannelConfig(snr_db=15.0), seed=rng))
        inits.append(TRUTH.as_vector() * (1.0 + 0.1 * rng.standard_normal(4)))
    bursts.append(synthesize_burst(iridium_known_symbols(), TRUTH, ChannelConfig(snr_db=15.0),
                                   seed=8, modulation="bpsk"))
    inits.append(TRUTH.as_vector() + 0.002)
    fit = fit_batch(np.array([b.samples for b in bursts]), np.ones(len(bursts)),
                    np.array([b.known_symbols for b in bursts]), np.array(inits))
    assert fit.converged.all()
    assert fit.iterations[-1] == 0 and fit.iterations[:-1].min() > 0
    for t, b in enumerate(bursts):
        est, status = nls_estimate(b, 1.0, init=HwiParams.from_vector(inits[t]))
        assert np.max(np.abs(est.as_vector() - fit.theta[t])) < 1e-12
        assert status.residual == pytest.approx(fit.residual[t], rel=1e-9)


def test_mc_validation_low_snr_damped_fit_reaches_reference_minima():
    # Undamped Gauss-Newton steps leave some of these 0 dB trials in other
    # minima (MSE 10-23% higher per component). The reference is the MSE
    # that a Nelder-Mead search reached on the same trials and initial points.
    rep = mc_crb_validation("qpsk", TRUTH, [0.0], n=76, n_trials=100, seed=2)
    row = rep.rows[0]
    assert np.all(np.isfinite(row.mse))
    assert row.status == "ok"
    assert row.n_unconverged == 0
    nelder_mead_mse = [0.05877287, 0.02504087, 0.0113845, 0.00825791]
    assert np.allclose(row.mse, nelder_mead_mse, rtol=1e-3, atol=0.0)


def test_mc_validation_counts_unconverged_trials(monkeypatch):
    monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    rep = mc_crb_validation("qpsk", TRUTH, [20.0], n=76, n_trials=50, seed=4)
    row = rep.rows[0]
    assert row.n_unconverged == 50
    assert row.status == "ok+budget"


def test_mc_validation_small_run_qpsk():
    rep = mc_crb_validation("qpsk", TRUTH, [30.0], n=76, n_trials=60, seed=2)
    row = rep.rows[0]
    assert row.status.startswith("ok")
    assert row.n_trials == 60
    # attainment against the exact bound with a loose 60-trial band
    assert np.all(row.ratio_exact > 0.6) and np.all(row.ratio_exact < 1.6)


def test_mc_validation_deterministic():
    a = mc_crb_validation("qpsk", TRUTH, [20.0], n=76, n_trials=50, seed=4)
    b = mc_crb_validation("qpsk", TRUTH, [20.0], n=76, n_trials=50, seed=4)
    assert np.array_equal(a.rows[0].mse, b.rows[0].mse)


@pytest.mark.parametrize("modulation, pilot_mode, status", [
    ("qpsk", "random", "ok"),
    ("bpsk", "iridium", "rank_deficient_pa_subblock"),
])
def test_mc_validation_equals_per_trial_synthesis(monkeypatch, modulation, pilot_mode, status):
    # 70 trials cross the 64-trial synthesis block; the reference draws each
    # trial's pilots (random mode), channel, noise and initial-point normals,
    # in that order, from its own stream and synthesizes it as one burst:
    # the fit gets the reference's samples, symbols and initial points bit
    # for bit
    fits = []

    def spy(r, h, x, theta0):
        fits.append((r.copy(), x.copy(), theta0.copy()))
        return fit_batch(r, h, x, theta0)

    monkeypatch.setattr(estimator, "fit_batch", spy)
    grid, seed, n_trials = (0.0, 25.0), 3, 70
    rep = mc_crb_validation(modulation, TRUTH, grid, n=76, n_trials=n_trials, seed=seed,
                            pilot_mode=pilot_mode)
    assert len(fits) == len(grid)
    c = make_constellation(modulation)
    for k, (snr_db, row) in enumerate(zip(grid, rep.rows)):
        ch = ChannelConfig(h=1.0 + 0.0j, snr_db=snr_db)
        r, x, theta0 = [], [], []
        for t in range(n_trials):
            rng = np.random.default_rng((seed, k, t))
            symbols = (np.resize(iridium_known_symbols(), 76) if pilot_mode == "iridium"
                       else random_known_symbols(c, 76, rng))
            r.append(synthesize_burst(symbols, TRUTH, ch, seed=rng).samples)
            x.append(symbols)
            # the oracle initial point as it was drawn per trial
            v = TRUTH.as_vector()
            theta0.append(v + rng.normal(0.0, np.maximum(0.1 * np.abs(v), 1e-3)))
        r, x, theta0 = np.array(r), np.array(x), np.array(theta0)
        assert fits[k][0].tobytes() == r.tobytes()
        assert fits[k][1].tobytes() == x.tobytes()
        assert fits[k][2].tobytes() == theta0.tobytes()
        fit = fit_batch(r, np.ones(n_trials), x, theta0)
        mse = np.mean((fit.theta - TRUTH.as_vector()) ** 2, axis=0)
        n_unconverged = int(np.count_nonzero(~fit.converged))
        with np.errstate(invalid="ignore"):
            ratio_exact = np.where(np.isfinite(row.crb_exact), mse / row.crb_exact, np.nan)
        assert np.array_equal(row.mse, mse)
        assert np.array_equal(row.ratio_exact, ratio_exact, equal_nan=True)
        assert row.status == status + ("+budget" if n_unconverged else "")
        assert row.n_unconverged == n_unconverged


def test_mc_validation_iridium_pilots_need_bpsk_moments():
    for modulation in ("qpsk", "16qam", "8psk"):
        with pytest.raises(ConfigError, match="needs an alphabet with BPSK moments"):
            mc_crb_validation(modulation, TRUTH, [20.0], n=76, n_trials=50, pilot_mode="iridium")
    # an alphabet with the pilots' own moments keeps its bound
    for same in ("sdpsk", make_constellation("custom", points=[2, -2])):
        rep = mc_crb_validation(same, TRUTH, [20.0], n=76, n_trials=50, pilot_mode="iridium")
        assert rep.rows[0].status.startswith("rank_deficient")


def test_mc_validation_bpsk_rank_deficient_pairing():
    rep = mc_crb_validation("bpsk", TRUTH, [20.0], n=76, n_trials=50, seed=6,
                            pilot_mode="iridium")
    row = rep.rows[0]
    assert row.status.startswith("rank_deficient")
    assert math.isinf(row.crb[0]) and math.isinf(row.crb[1])
    assert np.isfinite(row.crb[2]) and np.isfinite(row.crb[3])
    assert np.isnan(row.ratio[0])


def test_mse_not_below_exact_bound():
    # unbiased estimation cannot beat the bound by more than sampling error
    rep = mc_crb_validation("qpsk", TRUTH, [20.0, 30.0], n=76, n_trials=150, seed=8)
    se = math.sqrt(2.0 / 150)
    for row in rep.rows:
        assert np.all(row.ratio_exact > 1.0 - 3 * se)


def test_consistency_doubling_n_halves_mse():
    r1 = mc_crb_validation("qpsk", TRUTH, [25.0], n=76, n_trials=150, seed=10)
    r2 = mc_crb_validation("qpsk", TRUTH, [25.0], n=152, n_trials=150, seed=11)
    ratio = r1.rows[0].mse / r2.rows[0].mse
    assert np.all(ratio > 2.0 * 0.7) and np.all(ratio < 2.0 * 1.3)


def test_mc_report_csv(tmp_path):
    rep = mc_crb_validation("qpsk", TRUTH, [20.0], n=76, n_trials=50, seed=4)
    path = tmp_path / "mc.csv"
    rep.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,param,mse,crb,ratio,n_trials,status"
    assert len(lines) == 1 + 4
