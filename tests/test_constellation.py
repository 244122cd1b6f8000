import math

import numpy as np
import pytest

from rfident.constellation import (
    InvalidConstellationError,
    load_constellation_json,
    make_constellation,
    moments,
    predicted_fim_rank,
)

ALL_KINDS = ["bpsk", "sdpsk", "qpsk", "dqpsk", "8psk", "16qam", "64qam"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unit_power(kind):
    c = make_constellation(kind)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12
    assert c.size == {"bpsk": 2, "sdpsk": 2, "qpsk": 4, "dqpsk": 4,
                      "8psk": 8, "16qam": 16, "64qam": 64}[kind]


def test_bpsk_points():
    c = make_constellation("bpsk")
    assert set(np.round(c.points, 12)) == {1.0 + 0j, -1.0 + 0j}


def test_qpsk_points():
    c = make_constellation("qpsk")
    s = 1 / math.sqrt(2)
    expected = {complex(a * s, b * s) for a in (1, -1) for b in (1, -1)}
    assert set(np.round(c.points, 12)) == {complex(round(z.real, 12), round(z.imag, 12))
                                           for z in expected}


def test_qam16_grid_normalization():
    # brute-force power normalization of the {+-1,+-3}^2 grid
    raw = np.array([complex(a, b) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)])
    scale = 1 / math.sqrt(np.mean(np.abs(raw) ** 2))
    c = make_constellation("16qam")
    assert abs(scale - 1 / math.sqrt(10)) < 1e-15
    assert sorted(np.round(c.points, 12), key=lambda z: (z.real, z.imag)) == sorted(
        np.round(raw * scale, 12), key=lambda z: (z.real, z.imag)
    )


def test_moments_table_values():
    # (mu20, beta, mu4, mu6) for the standard alphabets
    expect = {
        "bpsk": (1.0, 0.0, 1.0, 1.0),
        "sdpsk": (1.0, 0.0, 1.0, 1.0),
        "qpsk": (0.0, 1.0, 1.0, 1.0),
        "dqpsk": (0.0, 1.0, 1.0, 1.0),
        "8psk": (0.0, 1.0, 1.0, 1.0),
        "16qam": (0.0, 1.0, 1.32, 1.96),
        "64qam": (0.0, 1.0, 2436.0 / 1764.0, 164904.0 / 74088.0),
    }
    for kind, (mu20, beta, mu4, mu6) in expect.items():
        m = moments(make_constellation(kind).points)
        assert abs(m.mu20 - mu20) < 1e-12, kind
        assert abs(m.beta - beta) < 1e-12, kind
        assert abs(m.mu4 - mu4) < 5e-3, kind
        assert abs(m.mu6 - mu6) < 5e-3, kind
        # constant-modulus alphabets are exact
        if kind not in ("16qam", "64qam"):
            assert m.mu4 == pytest.approx(1.0, abs=1e-14)
            assert m.mu6 == pytest.approx(1.0, abs=1e-14)


def test_predicted_rank_matches_beta():
    for kind in ALL_KINDS:
        c = make_constellation(kind)
        m = moments(c.points)
        assert predicted_fim_rank(m) == (2 if kind in ("bpsk", "sdpsk") else 4)
        # the per-symbol rule agrees, and ignores scale and symbol order
        assert predicted_fim_rank(moments(c.points)) == (2 if kind in ("bpsk", "sdpsk") else 4)
        assert predicted_fim_rank(moments(3.0 * c.points[::-1])) == (
            2 if kind in ("bpsk", "sdpsk") else 4)
    x = np.array([[1, -1, 1, 1], [1, 1j, -1, -1j], [0, 0, 0, 0], [2j, -1j, 0, 1j]])
    assert predicted_fim_rank(moments(x)).tolist() == [2, 4, 4, 2]


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_moments_need_a_sample(shape):
    with pytest.raises(ValueError, match="at least one sample"):
        moments(np.zeros(shape, dtype=complex))


def test_moments_brute_force_self_oracle():
    pts = [0.3 + 1j, -1.2 + 0.4j, 2.0 - 0.5j, -0.1 - 1.1j, 0.9 + 0.2j]
    c = make_constellation("custom", points=pts)
    x = c.points
    m = moments(c.points)
    assert m.mu20 == pytest.approx(complex(np.mean(x**2)), abs=1e-15)
    assert m.mu4 == pytest.approx(float(np.mean(np.abs(x) ** 4)), abs=1e-15)
    assert m.mu6 == pytest.approx(float(np.mean(np.abs(x) ** 6)), abs=1e-15)
    assert m.beta == pytest.approx(1 - abs(m.mu20) ** 2, abs=1e-12)


def test_custom_normalization_records_scale():
    c = make_constellation("custom", points=[2.0, -2.0])
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12


def test_custom_errors():
    with pytest.raises(InvalidConstellationError, match="needs points"):
        make_constellation("custom")
    with pytest.raises(InvalidConstellationError):
        make_constellation("custom", points=[])
    with pytest.raises(InvalidConstellationError):
        make_constellation("custom", points=[0.0, 0.0])
    with pytest.raises(InvalidConstellationError):
        make_constellation("qpsk", points=[1.0])
    with pytest.raises(InvalidConstellationError):
        make_constellation("nosuch")
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(InvalidConstellationError, match="non-finite"):
            make_constellation("custom", points=[1.0, bad])


@pytest.mark.parametrize("spelling, kind", [
    ("psk8", "8psk"), ("qam16", "16qam"), ("qam64", "64qam"),
    (" QPSK ", "qpsk"), ("BPSK", "bpsk"), ("\tQam64\n", "64qam"),
])
def test_kind_spellings_give_the_canonical_alphabet(spelling, kind):
    c = make_constellation(spelling)
    assert c.name == kind
    assert np.array_equal(c.points, make_constellation(kind).points)


def test_unknown_kind_names_the_spelling():
    with pytest.raises(InvalidConstellationError, match="unsupported constellation 'psk 8'"):
        make_constellation("psk 8")


def test_duplicate_points_rejected():
    with pytest.raises(InvalidConstellationError):
        make_constellation("custom", points=[1.0, 1.0, -1.0])


def test_json_loader(tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text("[[2.0, 0.0], [-2.0, 0.0]]")
    c = load_constellation_json(path)
    assert set(np.round(c.points, 12)) == {1.0 + 0j, -1.0 + 0j}


def test_points_are_immutable():
    c = make_constellation("qpsk")
    with pytest.raises(ValueError):
        c.points[0] = 0.0
