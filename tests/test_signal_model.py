import cmath
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rfident.constellation import make_constellation
from rfident.signal_model import (
    _draw_channel_noise,
    _synthesize_rows,
    Burst,
    BurstError,
    BurstMeta,
    ChannelConfig,
    FleetSpread,
    HwiParams,
    apply_hwi,
    bpsk_collapse,
    draw_channel,
    generate_fleet,
    hwi_jacobian,
    hwi_model_and_jacobian,
    iq_coefficients,
    iridium_known_symbols,
    random_known_symbols,
    read_burst_binary,
    read_burst_json,
    synthesize_burst,
    uw_symbols,
    write_burst_binary,
    write_burst_json,
)


def test_iq_coefficients_ideal():
    k = iq_coefficients(HwiParams())
    assert k.k1 == pytest.approx(1.0)
    assert k.k2 == pytest.approx(0.0)


def test_iq_coefficients_gain_only():
    k = iq_coefficients(HwiParams(eps=0.1))
    assert k.k1 == pytest.approx(1.05)
    assert k.k2 == pytest.approx(-0.05)


def test_iq_coefficients_oracle():
    # independent complex arithmetic at eps=0.05, phi=3 degrees
    eps, phi = 0.05, math.radians(3.0)
    g = (1 + eps) * cmath.exp(1j * phi)
    k = iq_coefficients(HwiParams(eps=eps, phi=phi))
    assert k.k1 == pytest.approx((1 + g) / 2, abs=1e-15)
    assert k.k2 == pytest.approx((1 - g.conjugate()) / 2, abs=1e-15)


def test_iq_identity_k1_plus_conj_k2():
    rng = np.random.default_rng(1)
    for _ in range(50):
        eps, phi = rng.normal(0, 0.1, 2)
        k = iq_coefficients(HwiParams(eps=eps, phi=phi))
        assert abs(k.k1 + np.conj(k.k2) - 1.0) < 1e-12


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
    jac = hwi_jacobian(x, p)
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
    jac = hwi_jacobian(x, thetas)
    assert jac.shape == (5, 4, 30)
    for t in range(5):
        p = HwiParams.from_vector(thetas[t])
        assert np.array_equal(jac[t], hwi_jacobian(x[t], p))
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


def _reference_burst(x, p, ch, rng):
    """The per-burst synthesis formula, one numpy call at a time on one
    burst: the oracle the block synthesizer must match bit for bit. Returns
    the drawn channel coefficient and the samples."""
    h = draw_channel(ch, rng)
    k = iq_coefficients(p)
    x_iq = k.k1 * x + k.k2 * np.conj(x)
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
    ch = ChannelConfig(snr_db=12.0, rician_k_db=4.0, random_phase=True)
    # Gaussian symbols: on a small alphabet the swapped products can agree
    sym_rng = np.random.default_rng(11)
    x = (sym_rng.standard_normal((rows, n)) + 1j * sym_rng.standard_normal((rows, n))) / 2.0
    cfo = sym_rng.uniform(-0.02, 0.02, rows).tolist()
    draws = [_draw_channel_noise(ch, np.random.default_rng(i), n) for i in range(rows)]
    block = _synthesize_rows(x, _P, ch, cfo, draws)
    assert block.nbytes > 256 * 1024
    for i in range(rows):
        row_ch = ChannelConfig(snr_db=12.0, rician_k_db=4.0, random_phase=True,
                               cfo_rad_per_symbol=cfo[i])
        h, want = _reference_burst(x[i], _P, row_ch, np.random.default_rng(i))
        assert draws[i][0] == h
        assert np.array_equal(block[i], want)


def test_rician_mean_power():
    ch = ChannelConfig(h=2.0, snr_db=20.0, rician_k_db=12.0)
    rng = np.random.default_rng(7)
    from rfident.signal_model import draw_channel

    draws = np.array([draw_channel(ch, rng) for _ in range(40_000)])
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


def test_burst_file_roundtrip_json(tmp_path):
    x = iridium_known_symbols()
    ch = ChannelConfig(h=1.0, snr_db=15.0)
    b = synthesize_burst(x, HwiParams(eps=0.02), ch, seed=9, satellite_id="SAT03",
                         modulation="iridium")
    path = tmp_path / "burst.json"
    write_burst_json(b, path)
    back = read_burst_json(path)
    assert np.allclose(back.samples, b.samples, atol=0)
    assert np.allclose(back.known_symbols, b.known_symbols, atol=0)
    assert back.meta.satellite_id == "SAT03"
    assert back.meta.truth.eps == pytest.approx(0.02)


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
       snr_db=st.none() | _FINITE,
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
    for write, read, name in ((write_burst_json, read_burst_json, "b.json"),
                              (write_burst_binary, read_burst_binary, "b.bin")):
        write(b, tmp_path / name)
        back = read(tmp_path / name)
        for got, want in ((back.samples, b.samples), (back.known_symbols, b.known_symbols)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))
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
])
def test_malformed_binary_burst_header(tmp_path, data, message):
    path = tmp_path / "burst.bin"
    path.write_bytes(data)
    with pytest.raises(BurstError, match=message):
        read_burst_binary(path)


_ONE = {"samples": [[1, 0]], "known_symbols": [[1, 0]]}


@pytest.mark.parametrize("payload, message", [
    ({"samples": [1, 2]}, "samples must be a JSON array"),
    ({"known_symbols": [[1, 0]]}, "samples must be a JSON array"),
    ({"samples": [[1, 0]], "known_symbols": [[1, True]]}, "known_symbols must be a JSON array"),
    ({"samples": [[1e308, 10**400]]}, "samples must be a JSON array"),
    ([[1, 0]], "need a JSON object"),
    ({**_ONE, "truth": {}}, "truth must be null or hold"),
    ({**_ONE, "truth": [0, 0, [0, 0]]}, "truth must be null or hold"),
    ({**_ONE, "truth": {"eps": 0, "phi": 0, "alpha3": [1]}}, "truth must be null or hold"),
    ({**_ONE, "truth": {"eps": "0", "phi": 0, "alpha3": [1, 0]}}, "truth must be null or hold"),
    ({**_ONE, "truth": {"eps": 0, "phi": False, "alpha3": [1, 0]}}, "truth must be null or hold"),
    ({**_ONE, "snr_db": "abc"}, "snr_db must be null or a number"),
])
def test_malformed_json_burst(tmp_path, payload, message):
    path = tmp_path / "burst.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BurstError, match=message):
        read_burst_json(path)


def test_burst_length_mismatch():
    with pytest.raises(BurstError):
        Burst(samples=np.ones(3, dtype=complex), known_symbols=np.ones(4, dtype=complex),
              meta=synthesize_burst([1.0], HwiParams(), ChannelConfig(snr_db=None), seed=0).meta)


def test_small_regime_flag():
    assert HwiParams(eps=0.1, phi=0.1, alpha3=0.1).in_small_regime
    assert not HwiParams(eps=0.5).in_small_regime
