import cmath
import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rfident.constellation import ConfigError, make_constellation
from rfident.signal_model import (
    _KEY_CHUNK,
    _burst_header,
    _keyed_generators,
    _synthesize_rows,
    _uniform,
    Burst,
    BurstError,
    BurstMeta,
    ChannelConfig,
    FleetSpread,
    HwiParams,
    apply_hwi,
    bpsk_collapse,
    generate_fleet,
    hwi_model_and_jacobian,
    iridium_known_symbols,
    random_known_symbols,
    read_burst_binary,
    synthesize_burst,
    uw_symbols,
    write_burst_binary,
    write_text_atomic,
)


def _mixer_coefficients(eps, phi):
    """(K1, K2) read off ``apply_hwi`` at alpha3 = 0, where the map is the
    mixer x_iq = K1 x + K2 x*: x = 1 gives K1 + K2 and x = j gives j (K1 - K2)."""
    p = HwiParams(eps=eps, phi=phi)
    total, diff = apply_hwi(1.0, p), apply_hwi(1j, p) / 1j
    return (total + diff) / 2, (total - diff) / 2


def test_iq_coefficients_ideal():
    k1, k2 = _mixer_coefficients(0.0, 0.0)
    assert k1 == pytest.approx(1.0)
    assert k2 == pytest.approx(0.0)


def test_iq_coefficients_gain_only():
    k1, k2 = _mixer_coefficients(0.1, 0.0)
    assert k1 == pytest.approx(1.05)
    assert k2 == pytest.approx(-0.05)


def test_iq_coefficients_oracle():
    # independent complex arithmetic at eps=0.05, phi=3 degrees
    eps, phi = 0.05, math.radians(3.0)
    g = (1 + eps) * cmath.exp(1j * phi)
    k1, k2 = _mixer_coefficients(eps, phi)
    assert k1 == pytest.approx((1 + g) / 2, abs=1e-15)
    assert k2 == pytest.approx((1 - g.conjugate()) / 2, abs=1e-15)


def test_iq_identity_k1_plus_conj_k2():
    rng = np.random.default_rng(1)
    for _ in range(50):
        eps, phi = rng.normal(0, 0.1, 2)
        k1, k2 = _mixer_coefficients(eps, phi)
        assert abs(k1 + np.conj(k2) - 1.0) < 1e-12


def test_apply_hwi_identity():
    x = np.array([1 + 1j, -0.5 + 0.2j]) / math.sqrt(1.65)
    assert np.allclose(apply_hwi(x, HwiParams()), x, atol=1e-15)


def test_apply_hwi_scalar_oracle():
    # independent scalar evaluation
    eps, phi, a3 = 0.03, math.radians(2.0), 0.02 + 0.01j
    x = (1 + 1j) / math.sqrt(2)
    g = (1 + eps) * cmath.exp(1j * phi)
    k1, k2 = (1 + g) / 2, (1 - g.conjugate()) / 2
    x_iq = k1 * x + k2 * x.conjugate()
    expected = x_iq + a3 * abs(x_iq) ** 2 * x_iq
    got = apply_hwi(x, HwiParams(eps=eps, phi=phi, alpha3=a3))
    assert got == pytest.approx(expected, abs=1e-15)


def test_apply_hwi_real_symbols_collapse():
    # for real symbols the map is multiplication by the collapse scalar
    p = HwiParams(eps=0.04, phi=math.radians(3.0), alpha3=0.03 - 0.02j)
    col = bpsk_collapse(p)
    for x in (1.0, -1.0):
        assert apply_hwi(x, p) == pytest.approx(col.c * x, abs=1e-14)


def test_hwi_jacobian_matches_finite_differences():
    p = HwiParams(eps=0.03, phi=0.02, alpha3=0.02 + 0.01j)
    x = make_constellation("qpsk").points
    jac = hwi_model_and_jacobian(x, p)[1]
    step = 1e-6
    v0 = p.as_vector()
    for i in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += step
        vm[i] -= step
        fd = (apply_hwi(x, HwiParams.from_vector(vp)) - apply_hwi(x, HwiParams.from_vector(vm))) / (2 * step)
        assert np.max(np.abs(jac[i] - fd)) < 1e-8


def test_hwi_jacobian_broadcasts_over_parameter_vectors():
    rng = np.random.default_rng(7)
    thetas = rng.normal(0.0, 0.05, (5, 4))
    x = make_constellation("16qam").points[rng.integers(0, 16, (5, 30))]
    jac = hwi_model_and_jacobian(x, thetas)[1]
    assert jac.shape == (5, 4, 30)
    for t in range(5):
        p = HwiParams.from_vector(thetas[t])
        assert np.array_equal(jac[t], hwi_model_and_jacobian(x[t], p)[1])
        assert np.array_equal(hwi_model_and_jacobian(x, thetas)[0][t], apply_hwi(x[t], p))


def test_synthesize_noise_free_identity():
    x = make_constellation("qpsk").points
    ch = ChannelConfig(h=1.0, snr_db=None, cfo_rad_per_symbol=0.0)
    b = synthesize_burst(x, HwiParams(), ch, seed=0)
    assert np.allclose(b.samples, x, atol=1e-15)


def test_noise_variance_definition():
    # gamma = |h|^2 / sigma^2: h=2 at 20 dB gives sigma^2 = 0.04
    ch = ChannelConfig(h=2.0, snr_db=20.0)
    assert ch.noise_variance == pytest.approx(0.04)


def test_noise_law_of_large_numbers():
    n = 100_000
    p = HwiParams(eps=0.02, phi=0.01, alpha3=0.01 + 0.005j)
    ch = ChannelConfig(h=1.5, snr_db=10.0)
    rng = np.random.default_rng(5)
    x = random_known_symbols(make_constellation("qpsk"), n, rng)
    b = synthesize_burst(x, p, ch, seed=42)
    clean = ch.h * apply_hwi(x, p)
    noise_power = np.mean(np.abs(b.samples - clean) ** 2)
    assert abs(noise_power - ch.noise_variance) / ch.noise_variance < 0.02


def test_synthesis_deterministic_per_seed():
    x = iridium_known_symbols()
    ch = ChannelConfig(h=1.0, snr_db=10.0, rician_k_db=15.0, random_phase=True)
    p = HwiParams(eps=0.03)
    a = synthesize_burst(x, p, ch, seed=123)
    b = synthesize_burst(x, p, ch, seed=123)
    c = synthesize_burst(x, p, ch, seed=124)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesize_empty_errors():
    with pytest.raises(BurstError):
        synthesize_burst([], HwiParams(), ChannelConfig(), seed=0)


def test_cfo_ramp_applied():
    x = np.ones(16, dtype=complex)
    ch = ChannelConfig(h=1.0, snr_db=None, cfo_rad_per_symbol=0.02)
    b = synthesize_burst(x, HwiParams(), ch, seed=0)
    assert np.allclose(b.samples, np.exp(1j * 0.02 * np.arange(16)), atol=1e-14)


def _scalar_channel(ch, rng):
    """The per-burst channel draw in Python complex arithmetic: Rician
    normals, then the phase uniform, from one generator."""
    h = complex(ch.h)
    if ch.rician_k_db is not None:
        k = 10.0 ** (ch.rician_k_db / 10.0)
        scatter = math.sqrt(1.0 / (k + 1.0)) * (
            rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
        h = h * (math.sqrt(k / (k + 1.0)) + scatter)
    if ch.random_phase:
        h = h * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return h


def _reference_burst(x, p, ch, rng):
    """The per-burst synthesis formula, one numpy call at a time on one
    burst: the oracle the block synthesizer must match bit for bit. Returns
    the drawn channel coefficient and the samples."""
    h = _scalar_channel(ch, rng)
    g = (1.0 + p.eps) * np.exp(1j * p.phi)
    k1, k2 = (1.0 + g) / 2.0, (1.0 - np.conj(g)) / 2.0
    x_iq = k1 * x + k2 * np.conj(x)
    u = np.abs(x_iq) ** 2
    y = x_iq * (1.0 + p.alpha3 * u)
    clean = h * y * np.exp(1j * ch.cfo_rad_per_symbol * np.arange(x.size))
    if ch.noise_free:
        return h, clean
    sigma = math.sqrt(ch.noise_variance / 2.0)
    return h, clean + sigma * (rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size))


_P = HwiParams(eps=0.03, phi=-0.02, alpha3=0.04 - 0.03j)


@pytest.mark.parametrize("ch", [
    ChannelConfig(snr_db=None, cfo_rad_per_symbol=0.004),
    ChannelConfig(snr_db=math.inf, rician_k_db=3.0, random_phase=True),
    ChannelConfig(snr_db=8.0, rician_k_db=6.0, random_phase=True, cfo_rad_per_symbol=0.01),
    ChannelConfig(h=0.6 - 0.9j, snr_db=15.0, cfo_rad_per_symbol=0.002),
    ChannelConfig(h=1.3j, snr_db=25.0, random_phase=True, cfo_rad_per_symbol=-0.0093),
])
def test_synthesize_burst_is_bit_identical_to_the_reference(ch):
    x = random_known_symbols(make_constellation("16qam"), 76, np.random.default_rng(3))
    for seed in range(4):
        b = synthesize_burst(x, _P, ch, seed=seed)
        h, want = _reference_burst(x, _P, ch, np.random.default_rng(seed))
        assert np.array_equal(b.samples, want)
        assert b.meta.h_realized == h


def test_block_synthesis_is_bit_identical_row_by_row():
    # 300 x 76 complex samples are 365 KB: above the 256 KiB from which
    # numpy reuses temporaries as outputs, which must not change a bit
    rows, n = 300, 76
    # Gaussian symbols: on a small alphabet the swapped products can agree
    sym_rng = np.random.default_rng(11)
    x = (sym_rng.standard_normal((rows, n)) + 1j * sym_rng.standard_normal((rows, n))) / 2.0
    for rician_k_db in (4.0, None):
        ch = ChannelConfig(snr_db=12.0, rician_k_db=rician_k_db, random_phase=True)
        block_rngs = [np.random.default_rng(i) for i in range(rows)]
        block, h = _synthesize_rows(block_rngs, rows, x, _P, ch, cfo_jitter=0.02)
        assert block.nbytes > 256 * 1024
        for i in range(rows):
            # the CFO is the row's first draw, as rng.uniform makes it
            rng = np.random.default_rng(i)
            row_ch = ChannelConfig(snr_db=12.0, rician_k_db=rician_k_db, random_phase=True,
                                   cfo_rad_per_symbol=rng.uniform(-0.02, 0.02))
            h_row, want = _reference_burst(x[i], _P, row_ch, rng)
            assert h[i] == h_row
            assert np.array_equal(block[i], want)
            assert block_rngs[i].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("ch", [
    ChannelConfig(h=0.8 - 0.3j, snr_db=None),
    ChannelConfig(h=0.8 - 0.3j, snr_db=10.0, random_phase=True),
    ChannelConfig(h=1.0, snr_db=10.0, rician_k_db=-3.0),
    ChannelConfig(h=-2.5j, snr_db=None, rician_k_db=7.0, random_phase=True),
])
def test_block_channel_draws_are_bit_identical_to_the_scalar_channel(ch):
    # the block map of h after the row loop equals, byte for byte, the
    # Python complex arithmetic of one draw; a row's generator then stands
    # where one channel draw and the noise leave it
    rows = 200
    x = np.ones((rows, 8), dtype=complex)
    block = [np.random.default_rng((9, i)) for i in range(rows)]
    _, h = _synthesize_rows(block, rows, x, _P, ch)
    for i in range(rows):
        one = np.random.default_rng((9, i))
        want = _scalar_channel(ch, one)
        assert struct.pack("<dd", h[i].real, h[i].imag) == struct.pack("<dd", want.real,
                                                                       want.imag)
        if not ch.noise_free:
            one.standard_normal((2, 8))
        assert block[i].bit_generator.state == one.bit_generator.state


# the CFO draw of a campaign burst for jitters 0, 0.01 and 3.0 (the low end
# of a zero jitter is -0.0), and the channel phase
@pytest.mark.parametrize("low, high", [(-0.0, 0.0), (-0.01, 0.01), (-3.0, 3.0),
                                       (0.0, 2.0 * np.pi)])
def test_uniform_map_is_bit_identical_to_rng_uniform(low, high):
    mapped, ref = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(500):
        got, want = _uniform(low, high, mapped.random()), ref.uniform(low, high)
        assert struct.pack("<d", got) == struct.pack("<d", want)
    # and over a block of standard uniforms, as a campaign maps them
    got, want = _uniform(low, high, mapped.random(300)), ref.uniform(low, high, 300)
    assert got.tobytes() == want.tobytes()


def _assert_keyed_like_default_rng(prefix, shape):
    # listed first: a yielded generator stays valid after the next is drawn
    keyed = list(_keyed_generators(prefix, shape))
    assert len(keyed) == math.prod(shape)
    for idx, rng in zip(np.ndindex(*shape), keyed):
        ref = np.random.default_rng((*prefix, *idx))
        assert rng.bit_generator.state == ref.bit_generator.state, (prefix, idx)
        assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8)), (prefix, idx)


# 2**70 splits into 3 words, so (2**70, 2**70) with its key holds 7 words
# and mixes the entropy beyond the 4-word pool
@pytest.mark.parametrize("n", [0, 1, 65])
@pytest.mark.parametrize("prefix", [(), (0,), (2**32 - 1,), (2**32,), (2**70,),
                                    (2, 0, 2**32 - 1), (2**70, 2**70)])
def test_keyed_generators_match_default_rng(prefix, n):
    _assert_keyed_like_default_rng(prefix, (n,))


# a campaign keys (seed, satellite, burst) and a Monte Carlo grid (seed,
# SNR point, trial): two index entries per key, over the whole shape at once
@pytest.mark.parametrize("shape", [(3, 65), (0, 5), (2, 0)])
@pytest.mark.parametrize("prefix", [(), (2**70,), (2**32,)])
def test_keyed_generators_match_default_rng_over_a_shape(prefix, shape):
    _assert_keyed_like_default_rng(prefix, shape)


@settings(max_examples=60, deadline=None)
@given(prefix=st.lists(st.integers(0, 2**80 - 1), max_size=3), n=st.sampled_from([0, 1, 65]))
def test_keyed_generators_match_default_rng_property(prefix, n):
    _assert_keyed_like_default_rng(tuple(prefix), (n,))


def test_keyed_generators_cross_the_hashing_chunk():
    _assert_keyed_like_default_rng((5, 1), (_KEY_CHUNK + 2,))
    # a chunk that ends inside a row of the shape
    _assert_keyed_like_default_rng((5,), (3, _KEY_CHUNK // 2 + 1))


def test_keyed_generators_reject_negative_seeds():
    with pytest.raises(ConfigError, match="non-negative"):
        next(_keyed_generators((3, -1), (2,)))


def test_keyed_generators_reject_an_axis_beyond_one_word():
    # an index entry of 2**32 would take two words
    with pytest.raises(ConfigError, match="2\\*\\*32"):
        next(_keyed_generators((3,), (2, 2**32 + 1)))
    assert sum(1 for _ in zip(range(2), _keyed_generators((3,), (2**32, 2)))) == 2


def test_rician_mean_power():
    # 40,000 channel draws in a row from one generator: noise-free, so
    # each row draws only its two Rician normals
    ch = ChannelConfig(h=2.0, snr_db=None, rician_k_db=12.0)
    rows = 40_000
    _, draws = _synthesize_rows([np.random.default_rng(7)] * rows, rows,
                                np.ones((1, 1), dtype=complex), HwiParams(), ch)
    assert abs(np.mean(np.abs(draws) ** 2) - 4.0) / 4.0 < 0.03


def test_bpsk_collapse_values():
    p = HwiParams(eps=0.03, phi=math.radians(2.0), alpha3=0.02 + 0.01j)
    col = bpsk_collapse(p)
    kappa = 1 + 1j * 1.03 * math.sin(math.radians(2.0))
    assert col.kappa == pytest.approx(kappa, abs=1e-15)
    assert col.c == pytest.approx(kappa * (1 + p.alpha3 * abs(kappa) ** 2), abs=1e-15)
    assert col.xi1 == pytest.approx(0.02)
    assert col.xi2 == pytest.approx(1.03 * math.sin(math.radians(2.0)) + 0.01, abs=1e-15)
    assert np.allclose(col.null_basis[1], [0.0, 1.0, 0.0, -1.03])


def test_bpsk_collapse_trivial():
    col = bpsk_collapse(HwiParams())
    assert col.c == pytest.approx(1.0)
    assert col.xi1 == 0.0 and col.xi2 == 0.0


def test_collapse_first_order_summaries():
    # at |theta| <= 1e-3 the xi summaries match c to 1e-5
    p = HwiParams(eps=1e-3, phi=1e-3, alpha3=1e-3 + 1e-3j)
    col = bpsk_collapse(p)
    assert abs((col.c.real - 1.0) - col.xi1) < 1e-5
    assert abs(col.c.imag - col.xi2) < 1e-5


def test_null_direction_second_order():
    # perturbing along either null vector changes c only at second order;
    # the first-order residual scales with the operating point, so this
    # holds in the small-impairment regime the directions are derived in
    p = HwiParams(eps=0.002, phi=math.radians(0.1), alpha3=0.001 + 0.0005j)
    col = bpsk_collapse(p)
    for v in col.null_basis:
        for delta in (1e-3, 5e-4):
            q = HwiParams.from_vector(p.as_vector() + delta * v)
            assert abs(bpsk_collapse(q).c - col.c) <= 10 * delta**2


def test_uw_pattern():
    # 0x789 = 0b011110001001, bit 0 -> +1, bit 1 -> -1
    expected = [1, -1, -1, -1, -1, 1, 1, 1, -1, 1, 1, -1]
    assert list(uw_symbols().real.astype(int)) == expected
    known = iridium_known_symbols()
    assert known.size == 76
    assert np.all(known[:64] == 1.0)


def test_iridium_pilots_are_a_prefix_of_the_76():
    known = iridium_known_symbols()
    for n in (0, 1, 64, 70, 76):
        assert np.array_equal(iridium_known_symbols(n), known[:n])
    # no repeated preamble and unique word past the burst's 76 known symbols
    for n in (77, 100, -1):
        with pytest.raises(ConfigError, match="76 known symbols"):
            iridium_known_symbols(n)


@pytest.mark.parametrize("kw", [
    {"snr_db": 4000.0}, {"snr_db": -4000.0}, {"snr_db": -math.inf}, {"snr_db": math.nan},
    {"rician_k_db": 4000.0}, {"rician_k_db": math.inf}, {"rician_k_db": math.nan},
])
def test_channel_db_values_need_a_finite_positive_linear_value(kw):
    with pytest.raises(ConfigError, match=f"{next(iter(kw))} = "):
        ChannelConfig(**kw)
    # None and +inf stay noise-free
    assert ChannelConfig(snr_db=None).noise_free and ChannelConfig(snr_db=math.inf).noise_free


def test_channel_refuses_a_nan_cfo():
    with pytest.raises(ConfigError, match="cfo_rad_per_symbol is NaN"):
        ChannelConfig(cfo_rad_per_symbol=math.nan)


def test_atomic_write_that_fails_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def replace_fails(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", replace_fails)
    with pytest.raises(OSError, match="No space left"):
        write_text_atomic(path, "new")
    # the temporary file is removed and the old file is untouched
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert path.read_text() == "old"


def test_generate_fleet_defaults():
    fleet = generate_fleet(24, seed=3)
    assert len(fleet) == 24
    assert len({s for s, _ in fleet}) == 24
    thetas = np.array([p.as_vector() for _, p in fleet])
    assert len({tuple(t) for t in thetas}) == 24
    assert np.all((thetas[:, 0] >= 0.01) & (thetas[:, 0] <= 0.05))
    assert np.all((thetas[:, 1] >= math.radians(0.5)) & (thetas[:, 1] <= math.radians(5.0)))
    mags = np.hypot(thetas[:, 2], thetas[:, 3])
    assert np.all((mags >= 0.02 - 1e-12) & (mags <= 0.05 + 1e-12))
    # deterministic per seed
    fleet2 = generate_fleet(24, seed=3)
    assert all(p1.as_vector().tolist() == p2.as_vector().tolist()
               for (_, p1), (_, p2) in zip(fleet, fleet2))


def test_generate_fleet_zero_width():
    spread = FleetSpread(eps_range=(0.03, 0.03), phi_range_deg=(2.0, 2.0),
                         alpha3_mag_range=(0.0, 0.0))
    fleet = generate_fleet(2, spread, seed=0)
    v0, v1 = fleet[0][1].as_vector(), fleet[1][1].as_vector()
    assert np.allclose(v0, v1)


def test_generate_fleet_errors():
    with pytest.raises(ValueError):
        generate_fleet(1, seed=0)
    with pytest.raises(ValueError):
        FleetSpread(eps_range=(0.05, 0.01))
    with pytest.raises(ConfigError, match="non-negative"):
        generate_fleet(3, seed=-1)


def test_burst_file_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(2)
    x = random_known_symbols(make_constellation("qpsk"), 76, rng)
    b = synthesize_burst(x, HwiParams(phi=0.01), ChannelConfig(snr_db=20.0), seed=4,
                         satellite_id="SAT11", modulation="qpsk")
    path = tmp_path / "burst.bin"
    write_burst_binary(b, path)
    back = read_burst_binary(path)
    assert np.array_equal(back.samples, b.samples)
    assert np.array_equal(back.known_symbols, b.known_symbols)
    assert back.meta.modulation == "qpsk"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 200),
       sat=st.text(alphabet=st.sampled_from('"\'\\ aZ0éß中\n'), max_size=8),
       # a finite SNR must have a finite linear value > 0 (ChannelConfig)
       snr_db=st.none() | st.just(math.inf) | st.floats(-3000.0, 3000.0),
       truth=st.none() | st.builds(HwiParams, eps=_FINITE, phi=_FINITE,
                                   alpha3=st.complex_numbers(allow_nan=False,
                                                             allow_infinity=False)),
       modulation=st.sampled_from(["qpsk", "iridium", "custom"]))
def test_burst_files_roundtrip_property(tmp_path, data, n, sat, snr_db, truth, modulation):
    # (re, im) pairs with signed zeros mixed in; the files must keep every bit
    pairs = arrays(np.float64, (2, n, 2), elements=st.sampled_from([0.0, -0.0]) | _FINITE)
    samples, known = data.draw(pairs).view(complex)[..., 0]
    b = Burst(samples=samples, known_symbols=known,
              meta=BurstMeta(satellite_id=sat, truth=truth, modulation=modulation,
                             channel=ChannelConfig(snr_db=snr_db)))
    write_burst_binary(b, tmp_path / "b.bin")
    back = read_burst_binary(tmp_path / "b.bin")
    for got, want in ((back.samples, b.samples), (back.known_symbols, b.known_symbols)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
    assert back.meta == b.meta


@pytest.mark.parametrize("meta, message", [
    (BurstMeta(truth=HwiParams(eps=math.nan)), "must be finite"),
    (BurstMeta(truth=HwiParams(alpha3=complex(0.0, math.inf))), "must be finite"),
    (BurstMeta(satellite_id=5), "must be strings"),
    (BurstMeta(modulation=None), "must be strings"),
    (BurstMeta(satellite_id=np.int64(5)), "not JSON serializable"),
])
def test_burst_writer_refuses_a_header_its_reader_refuses(tmp_path, meta, message):
    b = Burst(samples=np.ones(3, dtype=complex), known_symbols=np.ones(3, dtype=complex),
              meta=meta)
    with pytest.raises(BurstError, match=message):
        write_burst_binary(b, tmp_path / "b.bin")
    assert not (tmp_path / "b.bin").exists()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 5),
       sat=st.text(max_size=4) | st.integers() | st.none(),
       snr_db=st.none() | st.floats(-3000.0, 3000.0) | st.just(math.inf),
       truth=st.none() | st.builds(HwiParams, eps=st.floats() | st.integers(),
                                   phi=st.floats(), alpha3=st.complex_numbers()),
       modulation=st.sampled_from(["qpsk", "iridium"]) | st.text(max_size=3) | st.booleans())
def test_any_burst_the_writer_accepts_reads_back_equal(tmp_path, n, sat, snr_db, truth,
                                                       modulation):
    b = Burst(samples=np.arange(n) - 1.5j, known_symbols=np.full(n, -0.0 + 1j),
              meta=BurstMeta(satellite_id=sat, truth=truth, modulation=modulation,
                             channel=ChannelConfig(snr_db=snr_db)))
    path = tmp_path / "b.bin"
    if path.exists():
        path.unlink()
    try:
        write_burst_binary(b, path)
    except BurstError:
        assert not path.exists()
        return
    back = read_burst_binary(path)
    for got, want in ((back.samples, b.samples), (back.known_symbols, b.known_symbols)):
        assert got.tobytes() == want.tobytes()
    assert back.meta == b.meta


# the bytes the format has always given this burst: the header length (161),
# the JSON header, then float64 (re, im) pairs of the samples and of the
# known symbols; the first sample's real part is -0.0
_GOLDEN_BURST = (
    b'\xa1\x00\x00\x00{"satellite_id": "SAT07", "n": 2, "snr_db": 20.0, "modulation": '
    b'"qpsk", "truth": {"eps": 0.02, "phi": -0.01, "alpha3": [-0.05, 0.01]}, '
    b'"has_known_symbols": true}'
    + bytes.fromhex("0000000000000080 000000000000f83f 000000000000d03f 0000000000000080"
                    "000000000000f03f 0000000000000000 000000000000f0bf 0000000000000000")
)


def test_binary_burst_bytes_are_pinned(tmp_path):
    b = Burst(samples=np.array([complex(-0.0, 1.5), complex(0.25, -0.0)]),
              known_symbols=np.array([1.0, -1.0], dtype=complex),
              meta=BurstMeta(satellite_id="SAT07", modulation="qpsk",
                             truth=HwiParams(eps=0.02, phi=-0.01, alpha3=-0.05 + 0.01j),
                             channel=ChannelConfig(snr_db=20.0)))
    path = tmp_path / "burst.bin"
    write_burst_binary(b, path)
    assert path.read_bytes() == _GOLDEN_BURST
    back = read_burst_binary(path)
    for got, want in ((back.samples, b.samples), (back.known_symbols, b.known_symbols)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert back.meta == b.meta


@pytest.mark.parametrize("cut", [1, 16, 16 * 76, 16 * 76 + 8])
def test_truncated_binary_burst_names_both_counts(tmp_path, cut):
    rng = np.random.default_rng(2)
    x = random_known_symbols(make_constellation("qpsk"), 76, rng)
    b = synthesize_burst(x, HwiParams(), ChannelConfig(snr_db=20.0), seed=4)
    path = tmp_path / "burst.bin"
    write_burst_binary(b, path)
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    held = (16 * 76 - cut) // 16 if cut <= 16 * 76 else (2 * 16 * 76 - cut) // 16
    with pytest.raises(BurstError, match=f"n = 76 but the file holds {held} "):
        read_burst_binary(path)


def _with_header(header: bytes) -> bytes:
    return struct.pack("<I", len(header)) + header


@pytest.mark.parametrize("data, message", [
    (b"", "0 bytes, too short"),
    (b"\x05\x00", "2 bytes, too short"),
    (struct.pack("<I", 40) + b'{"n": 1}', "says 40 bytes but the file holds 8"),
    (_with_header(b'{"n": '), "malformed header"),
    (_with_header(b"\xff\xfe"), "malformed header"),
    (_with_header(b'{"satellite_id": "S"}'), "got None"),
    (_with_header(b'{"n": -2}'), "got -2"),
    (_with_header(b'{"n": 2.5}'), "got 2.5"),
    (_with_header(b'{"n": "76"}'), "got '76'"),
    (_with_header(b"[76]"), "got None"),
    (_with_header(b'{"n": 0, "truth": {}}'), "truth must be null or hold"),
    (_with_header(b'{"n": 0, "snr_db": "abc"}'), "snr_db must be null or a number"),
    # cases added later go last, so that the ids of the cases above stay as they are
    (_with_header(b'{"n": 0, "snr_db": NaN}'), "snr_db must be null or a number .* got nan"),
    (_with_header(b'{"n": 0, "snr_db": -Infinity}'), "snr_db must be null .* got -inf"),
    (_with_header(b'{"n": 1}') + bytes(16), "lacks known symbols"),
    pytest.param(_with_header(b'{"n": 0, "snr_db": 1' + b"0" * 400 + b"}"),
                 "snr_db is an integer too large for a float", id="snr_db-int-overflow"),
    pytest.param(_with_header(b'{"n": 0, "truth": {"eps": 1' + b"0" * 400
                              + b', "phi": 0, "alpha3": [0, 0]}}'),
                 "truth.eps is an integer too large for a float", id="eps-int-overflow"),
    (_with_header(b'{"n": 100, "modulation": "iridium"}') + bytes(1600),
     "'iridium' implies 76 known symbols, but the file holds 100 samples"),
    (_with_header(b'{"n": 0, "has_known_symbols": true}'), "equal length >= 1"),
    (_with_header(b'{"n": 0, "truth": {"eps": 1e400, "phi": 0, "alpha3": [0, 0]}}'),
     "truth eps, phi and alpha3 must be finite"),
    (_with_header(b'{"n": 0, "truth": {"eps": 0, "phi": NaN, "alpha3": [0, 0]}}'),
     "truth eps, phi and alpha3 must be finite"),
    (_with_header(b'{"n": 0, "truth": {"eps": 0, "phi": 0, "alpha3": [0, -Infinity]}}'),
     "truth eps, phi and alpha3 must be finite"),
    (_with_header(b'{"n": 0, "truth": [0, 0, [0, 0]]}'), "truth must be null or hold"),
    (_with_header(b'{"n": 0, "truth": {"eps": 0, "phi": 0, "alpha3": [1]}}'),
     "truth must be null or hold"),
    (_with_header(b'{"n": 0, "truth": {"eps": "0", "phi": 0, "alpha3": [1, 0]}}'),
     "truth must be null or hold"),
    (_with_header(b'{"n": 0, "truth": {"eps": 0, "phi": false, "alpha3": [1, 0]}}'),
     "truth must be null or hold"),
    (_with_header(b'{"n": 1, "snr_db": 4000, "has_known_symbols": true}') + bytes(32),
     "snr_db = 4000.0 dB has no finite linear value > 0"),
    # counts far beyond the file fail on the file's size, before any
    # allocation of that size
    (_with_header(b'{"n": 1099511627776}') + bytes(32),
     "n = 1099511627776 but the file holds 2 samples"),
    (struct.pack("<I", 2**32 - 1), "says 4294967295 bytes but the file holds 0"),
    # a file must be exactly the size its header declares: bytes beyond the
    # declared runs would be data a too-small n drops
    (_with_header(b'{"n": 1, "has_known_symbols": true}') + bytes(16 * 5),
     r"declares 71 bytes \(n = 1, 2 run\(s\) of pairs\) but the file holds 119; trailing"),
    (_with_header(b'{"n": 1, "modulation": "iridium"}') + bytes(17),
     r"declares 53 bytes \(n = 1, 1 run\(s\) of pairs\) but the file holds 54"),
    # the size checks come before the semantic ones
    (_with_header(b'{"n": 0}') + b"\x00", "declares 12 bytes .* holds 13; trailing"),
    (_with_header(b'{"n": 1, "satellite_id": ["S"], "has_known_symbols": true}') + bytes(32),
     r"satellite_id and modulation must be strings, got \['S'\] and 'qpsk'"),
    (_with_header(b'{"n": 1, "modulation": 4, "has_known_symbols": true}') + bytes(32),
     "satellite_id and modulation must be strings, got '' and 4"),
    pytest.param(_with_header(b"[" * 100_000), "malformed header: maximum recursion depth",
                 id="deeply-nested-header"),
    # has_known_symbols sets the body size: only true, false or null
    pytest.param(_with_header(b'{"n": 1, "has_known_symbols": "false"}') + bytes(32),
                 "has_known_symbols must be true, false or null, got 'false'",
                 id="has_known_symbols-string"),
    pytest.param(_with_header(b'{"n": 1, "has_known_symbols": 1}') + bytes(32),
                 "has_known_symbols must be true, false or null, got 1",
                 id="has_known_symbols-int"),
])
def test_malformed_binary_burst_header(tmp_path, data, message):
    path = tmp_path / "burst.bin"
    path.write_bytes(data)
    with pytest.raises(BurstError, match=message) as info:
        read_burst_binary(path)
    assert str(info.value).startswith(f"{path}: ")


def test_burst_length_mismatch():
    with pytest.raises(BurstError):
        Burst(samples=np.ones(3, dtype=complex), known_symbols=np.ones(4, dtype=complex),
              meta=synthesize_burst([1.0], HwiParams(), ChannelConfig(snr_db=None), seed=0).meta)


def test_burst_rejects_arrays_that_are_not_1d():
    x = np.ones(76, dtype=complex)
    meta = BurstMeta()
    for samples, known in ((x.reshape(2, 38), x), (x.reshape(2, 38), x.reshape(2, 38)),
                           (x, x.reshape(76, 1)), (np.array(1 + 0j), np.array(1 + 0j))):
        with pytest.raises(BurstError, match="must be 1-D, got shapes"):
            Burst(samples=samples, known_symbols=known, meta=meta)


def _burst_file(path, samples):
    b = Burst(samples=samples, known_symbols=np.ones(samples.size, dtype=complex),
              meta=BurstMeta(satellite_id="SAT03", channel=ChannelConfig(snr_db=20.0)))
    write_burst_binary(b, path)
    return b


def test_equal_burst_headers_read_back_their_own_samples(tmp_path):
    rng = np.random.default_rng(5)
    a = _burst_file(tmp_path / "a.bin", rng.standard_normal(76) + 0j)
    b = _burst_file(tmp_path / "b.bin", rng.standard_normal(76) + 0j)
    hdr = 4 + struct.unpack_from("<I", (tmp_path / "a.bin").read_bytes())[0]
    assert (tmp_path / "a.bin").read_bytes()[:hdr] == (tmp_path / "b.bin").read_bytes()[:hdr]
    back_a = read_burst_binary(tmp_path / "a.bin")
    hits = _burst_header.cache_info().hits
    back_b = read_burst_binary(tmp_path / "b.bin")
    # the second file's header is a memo hit, its body its own
    assert _burst_header.cache_info().hits == hits + 1
    assert back_a.meta is back_b.meta
    assert np.array_equal(back_a.samples, a.samples)
    assert np.array_equal(back_b.samples, b.samples)
    assert not np.array_equal(back_a.samples, back_b.samples)


@pytest.mark.parametrize("header, message", [
    (b'{"n": ', "malformed header"),
    (b'{"n": 2.5}', "got 2.5"),
])
def test_malformed_burst_header_raises_on_every_read_with_its_path(tmp_path, header, message):
    paths = [tmp_path / "one.bin", tmp_path / "two.bin"]
    for path in paths:
        path.write_bytes(_with_header(header) + bytes(32))
    for path in paths * 2:
        with pytest.raises(BurstError, match=message) as info:
            read_burst_binary(path)
        assert str(info.value).startswith(f"{path}: ")


def test_burst_header_failing_its_semantic_checks_never_reads_as_valid(tmp_path):
    # parses, has a valid n and a full body, but its SNR has no linear value
    bad = _with_header(b'{"n": 1, "snr_db": 4000, "has_known_symbols": true}') + bytes(32)
    paths = [tmp_path / "one.bin", tmp_path / "two.bin"]
    for path in paths:
        path.write_bytes(bad)
    for path in paths * 2:
        with pytest.raises(BurstError, match="snr_db = 4000.0 dB") as info:
            read_burst_binary(path)
        assert str(info.value).startswith(f"{path}: ")
    # the same header over a short body still fails on its size first
    paths[0].write_bytes(bad[:-16])
    with pytest.raises(BurstError, match="holds 0 known symbols"):
        read_burst_binary(paths[0])


def test_read_bursts_are_read_only(tmp_path):
    _burst_file(tmp_path / "known.bin", np.arange(1.0, 5.0) + 0j)
    hdr = b'{"n": 3, "modulation": "iridium"}'
    (tmp_path / "pilots.bin").write_bytes(_with_header(hdr) + np.ones(3, "<c16").tobytes())
    for name in ("known.bin", "pilots.bin", "known.bin", "pilots.bin"):
        b = read_burst_binary(tmp_path / name)
        for a in (b.samples, b.known_symbols):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0
    assert np.array_equal(read_burst_binary(tmp_path / "pilots.bin").known_symbols,
                          iridium_known_symbols(3))


def _valid_burst_bytes(data) -> bytes:
    """A well-formed burst file: with known symbols, or an Iridium file
    whose pilots are implied."""
    n = data.draw(st.integers(1, 6))
    samples = data.draw(arrays(np.complex128, n, elements=st.complex_numbers(
        allow_nan=False, allow_infinity=False, max_magnitude=1e3)))
    snr_db = data.draw(st.none() | st.floats(-30.0, 60.0))
    if data.draw(st.booleans()):
        hdr = {"satellite_id": "S1", "n": n, "snr_db": snr_db, "modulation": "qpsk",
               "truth": None, "has_known_symbols": True}
        body = np.concatenate([samples, np.ones(n, dtype=complex)])
    else:
        hdr = {"n": n, "snr_db": snr_db, "modulation": "iridium"}
        body = samples
    return _with_header(json.dumps(hdr).encode("utf-8")) + body.astype("<c16").tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), damage=st.sampled_from(["truncate", "flip", "append"]))
def test_damaged_burst_file_reads_or_raises_burst_error(tmp_path, data, damage):
    blob = bytearray(_valid_burst_bytes(data))
    if damage == "truncate":
        blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
    elif damage == "flip":
        for i in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=4)):
            blob[i] ^= data.draw(st.integers(1, 255))
    else:
        blob += data.draw(st.binary(min_size=1, max_size=40))
    path = tmp_path / "damaged.bin"
    path.write_bytes(bytes(blob))
    try:
        b = read_burst_binary(path)
    except BurstError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(b, Burst)
