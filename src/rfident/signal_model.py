"""Impaired burst synthesis: IQ mixer imbalance, cubic PA compression, flat
channel with optional per-burst Rician draws, CFO ramp, and AWGN.

Everything runs at symbol rate (one complex sample per symbol). All
randomness flows through a seeded generator, so bursts are bit-exact
reproducible for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .constellation import ConfigError, Constellation, _json_pairs

PARAM_NAMES = ("eps", "phi", "re_alpha3", "im_alpha3")

# Iridium-style burst: 64 constant preamble symbols + 12-bit unique word 0x789
# mapped bit 0 -> +1, bit 1 -> -1.
UW_PATTERN_HEX = 0x789
N_PREAMBLE = 64
N_UW = 12


class BurstError(ValueError):
    """Raised for empty or inconsistent burst inputs."""


@dataclass(frozen=True)
class HwiParams:
    """Hardware fingerprint: gain imbalance eps, phase imbalance phi (rad),
    and the complex third-order PA coefficient alpha3."""

    eps: float = 0.0
    phi: float = 0.0
    alpha3: complex = 0.0 + 0.0j

    SMALL_LIMIT = 0.2

    @property
    def in_small_regime(self) -> bool:
        return (
            abs(self.eps) <= self.SMALL_LIMIT
            and abs(self.phi) <= self.SMALL_LIMIT
            and abs(self.alpha3) <= self.SMALL_LIMIT
        )

    def as_vector(self) -> np.ndarray:
        return np.array([self.eps, self.phi, self.alpha3.real, self.alpha3.imag])

    @classmethod
    def from_vector(cls, v) -> "HwiParams":
        v = np.asarray(v, dtype=float).ravel()
        if v.size != 4:
            raise ValueError("parameter vector must have 4 entries")
        return cls(eps=float(v[0]), phi=float(v[1]), alpha3=complex(v[2], v[3]))


@dataclass(frozen=True)
class IqCoefficients:
    k1: complex
    k2: complex

    def __post_init__(self):
        if abs(self.k1 + np.conj(self.k2) - 1.0) > 1e-12:
            raise ValueError("K1 + conj(K2) must equal 1")


def _iq_pair(eps, phi):
    """(K1, K2) for scalar or array (eps, phi); see ``iq_coefficients``."""
    g = (1.0 + eps) * np.exp(1j * phi)
    return (1.0 + g) / 2.0, (1.0 - np.conj(g)) / 2.0


def iq_coefficients(p: HwiParams) -> IqCoefficients:
    """Mixer coefficients K1 = (1+(1+eps)e^{j phi})/2, K2 = (1-(1+eps)e^{-j phi})/2."""
    k1, k2 = _iq_pair(p.eps, p.phi)
    return IqCoefficients(k1=k1, k2=k2)


def apply_hwi(x, p: HwiParams):
    """Distort ideal symbols: x_iq = K1 x + K2 x*, then cubic PA compression.

    Accepts a scalar or an array; returns the same shape.
    """
    k = iq_coefficients(p)
    x = np.asarray(x, dtype=complex)
    # operands of complex products bound to names: numpy reuses a temporary
    # of 256 KiB or more as the output and swaps the operands, and its
    # complex multiply is not bitwise commutative, so a large stack would
    # round differently from one row
    xc = np.conj(x)
    x_iq = k.k1 * x + k.k2 * xc
    u = np.abs(x_iq) ** 2
    pa = 1.0 + p.alpha3 * u
    y = x_iq * pa
    return complex(y) if y.ndim == 0 else y


def hwi_jacobian(x, p) -> np.ndarray:
    """Analytic sensitivities d f / d theta (at h = 1) for each symbol.

    ``p`` is an HwiParams or an array of parameter vectors (..., 4) in
    PARAM_NAMES order, whose leading axes broadcast against those of ``x``.
    Returns a (..., 4, len(x)) complex array; (4, len(x)) for one HwiParams
    and 1-D symbols. These are exact derivatives of the full nonlinear map,
    including the PA terms.
    """
    return hwi_model_and_jacobian(x, p)[1]


def hwi_model_and_jacobian(x, p) -> tuple[np.ndarray, np.ndarray]:
    """The model f(theta; x) = ``apply_hwi(x, p)`` (..., len(x)) and its
    Jacobian ``hwi_jacobian(x, p)`` (..., 4, len(x)) from one pass, with the
    same broadcasting over a leading parameter axis."""
    theta = p.as_vector() if isinstance(p, HwiParams) else np.asarray(p, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    eps = theta[..., 0, None]
    phi = theta[..., 1, None]
    alpha3 = theta[..., 2:].copy().view(complex)
    k1, k2 = _iq_pair(eps, phi)
    e_p = np.exp(1j * phi)
    e_m = np.exp(-1j * phi)
    xc = np.conj(x)
    x_iq = k1 * x + k2 * xc
    u = np.abs(x_iq) ** 2
    pa = 1.0 + alpha3 * u

    d_eps = 0.5 * (e_p * x - e_m * xc)
    d_phi = 0.5j * (1.0 + eps) * (e_p * x + e_m * xc)
    du_deps = 2.0 * np.real(np.conj(x_iq) * d_eps)
    du_dphi = 2.0 * np.real(np.conj(x_iq) * d_phi)

    out = np.empty(x_iq.shape[:-1] + (4, x_iq.shape[-1]), dtype=complex)
    out[..., 0, :] = d_eps * pa + alpha3 * du_deps * x_iq
    out[..., 1, :] = d_phi * pa + alpha3 * du_dphi * x_iq
    out[..., 2, :] = u * x_iq
    out[..., 3, :] = 1j * u * x_iq
    return x_iq * pa, out


@dataclass(frozen=True)
class ChannelConfig:
    """Flat channel: coefficient h, SNR gamma = |h|^2 / sigma^2 in dB, optional
    per-burst Rician magnitude draws, per-burst uniform phase, and a linear
    CFO ramp in radians/symbol."""

    h: complex = 1.0 + 0.0j
    snr_db: float | None = 20.0
    rician_k_db: float | None = None
    cfo_rad_per_symbol: float = 0.0
    random_phase: bool = False

    def __post_init__(self):
        # built once per burst, so only O(1) checks; NaN is the one value
        # unequal to itself, and None (noise-free, no Rician draw) passes
        for name in ("snr_db", "rician_k_db", "cfo_rad_per_symbol"):
            v = getattr(self, name)
            if v != v:
                raise ConfigError(f"channel {name} is NaN")
        # +inf and None are noise-free; -inf would be pure noise
        if self.snr_db == -math.inf:
            raise ConfigError("channel snr_db is -inf")

    @property
    def noise_free(self) -> bool:
        return self.snr_db is None or math.isinf(self.snr_db)

    @property
    def snr_linear(self) -> float:
        if self.noise_free:
            return math.inf
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def noise_variance(self) -> float:
        """sigma^2 such that |h|^2 / sigma^2 matches the configured SNR
        (|h|^2 is the mean channel power when Rician draws are enabled)."""
        if self.noise_free:
            return 0.0
        var = abs(self.h) ** 2 / self.snr_linear
        if var <= 0.0:
            raise ValueError("channel power must be positive for finite SNR")
        return var


def draw_channel(ch: ChannelConfig, rng: np.random.Generator) -> complex:
    """Per-burst channel coefficient with E[|h|^2] equal to |ch.h|^2."""
    h = complex(ch.h)
    if ch.rician_k_db is not None:
        k = 10.0 ** (ch.rician_k_db / 10.0)
        los = math.sqrt(k / (k + 1.0))
        scatter = math.sqrt(1.0 / (k + 1.0)) * (
            rng.standard_normal() + 1j * rng.standard_normal()
        ) / math.sqrt(2.0)
        h = h * (los + scatter)
    if ch.random_phase:
        h = h * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return h


@dataclass(frozen=True)
class BurstMeta:
    satellite_id: str = ""
    truth: HwiParams | None = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    seed: int | tuple | None = None
    modulation: str = "qpsk"
    h_realized: complex = 1.0 + 0.0j


@dataclass(frozen=True)
class Burst:
    """One transmission's known-symbol segment at symbol rate."""

    samples: np.ndarray
    known_symbols: np.ndarray
    meta: BurstMeta

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        x = np.asarray(self.known_symbols, dtype=complex)
        s.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "known_symbols", x)
        if s.size < 1 or s.size != x.size:
            raise BurstError("samples and known_symbols must have equal length >= 1")

    @property
    def n(self) -> int:
        return int(self.samples.size)


def uw_symbols() -> np.ndarray:
    """The unique word UW_PATTERN_HEX, most significant bit first."""
    bits = [(UW_PATTERN_HEX >> (N_UW - 1 - i)) & 1 for i in range(N_UW)]
    return np.array([1.0 - 2.0 * b for b in bits], dtype=complex)


def iridium_known_symbols() -> np.ndarray:
    """64 constant preamble symbols (1+0j) followed by the 12-symbol unique word."""
    return np.concatenate([np.ones(N_PREAMBLE, dtype=complex), uw_symbols()])


def random_known_symbols(c: Constellation, n: int, rng: np.random.Generator) -> np.ndarray:
    return c.points[rng.integers(0, c.size, size=n)]


def _draw_channel_noise(ch: ChannelConfig, rng: np.random.Generator, n: int) -> tuple:
    """One burst's channel coefficient and its (2, n) standard normal noise
    draws (real parts, then imaginary parts; None when noise-free), taken
    from ``rng`` in the order synthesis has always used."""
    h = draw_channel(ch, rng)
    return h, None if ch.noise_free else rng.standard_normal((2, n))


def _synthesize_rows(x: np.ndarray, p: HwiParams, ch: ChannelConfig, cfo, draws) -> np.ndarray:
    """Row i of the (bursts, n) result is
    h_i * apply_hwi(x[i], p) * e^{j cfo[i] n} + sigma (g_i[0] + j g_i[1]),
    bit for bit what the row alone gives, for the (h_i, g_i) pairs ``draws``
    from ``_draw_channel_noise`` and the noise level of ``ch``."""
    h = np.array([d[0] for d in draws], dtype=complex)
    n_idx = np.arange(x.shape[1])
    # j cfo formed per row as a Python complex, as for a single burst
    jc = np.array([1j * c for c in cfo], dtype=complex)
    ramp = np.exp(jc[:, None] * n_idx)
    # operands bound to names, in the one-row order (see ``apply_hwi``)
    y = apply_hwi(x, p)
    hy = h[:, None] * y
    clean = hy * ramp
    if ch.noise_free:
        return clean
    g = np.stack([d[1] for d in draws])
    sigma = math.sqrt(ch.noise_variance / 2.0)
    w = sigma * (g[:, 0] + 1j * g[:, 1])
    return clean + w


def synthesize_burst(
    symbols,
    p: HwiParams,
    ch: ChannelConfig,
    seed=None,
    satellite_id: str = "",
    modulation: str = "qpsk",
    rng: np.random.Generator | None = None,
) -> Burst:
    """r(n) = h * apply_hwi(x(n)) * e^{j cfo n} + w(n), w ~ CN(0, sigma^2):
    the one-row case of the block synthesizer."""
    x = np.asarray(symbols, dtype=complex).ravel()
    if x.size == 0:
        raise BurstError("empty symbol list")
    if rng is None:
        rng = np.random.default_rng(seed)
    draw = _draw_channel_noise(ch, rng, x.size)
    r = _synthesize_rows(x[None], p, ch, [ch.cfo_rad_per_symbol], [draw])[0]
    meta = BurstMeta(
        satellite_id=satellite_id,
        truth=p,
        channel=ch,
        seed=seed,
        modulation=modulation,
        h_realized=complex(draw[0]),
    )
    return Burst(samples=r, known_symbols=x, meta=meta)


@dataclass(frozen=True)
class BpskCollapse:
    """Effective scalar model for real alphabets: r = h c x + w with
    c = kappa (1 + alpha3 |kappa|^2), kappa = 1 + j (1+eps) sin(phi)."""

    kappa: complex
    c: complex
    xi1: float
    xi2: float
    null_basis: np.ndarray

    def __post_init__(self):
        nb = np.asarray(self.null_basis, dtype=float)
        nb.flags.writeable = False
        object.__setattr__(self, "null_basis", nb)


def bpsk_collapse(p: HwiParams) -> BpskCollapse:
    """Collapse parameters and the two first-order null directions of the
    information matrix for real alphabets."""
    kappa = 1.0 + 1j * (1.0 + p.eps) * math.sin(p.phi)
    c = kappa * (1.0 + p.alpha3 * abs(kappa) ** 2)
    xi1 = p.alpha3.real
    xi2 = (1.0 + p.eps) * math.sin(p.phi) + p.alpha3.imag
    v1 = np.array([1.0, 0.0, 0.0, -p.phi])
    v2 = np.array([0.0, 1.0, 0.0, -(1.0 + p.eps)])
    return BpskCollapse(kappa=complex(kappa), c=complex(c), xi1=xi1, xi2=xi2,
                        null_basis=np.vstack([v1, v2]))


@dataclass(frozen=True)
class FleetSpread:
    """Uniform per-satellite draw ranges for the fingerprint components."""

    eps_range: tuple = (0.01, 0.05)
    phi_range_deg: tuple = (0.5, 5.0)
    alpha3_mag_range: tuple = (0.02, 0.05)

    def __post_init__(self):
        for name in ("eps_range", "phi_range_deg", "alpha3_mag_range"):
            r = getattr(self, name)
            if len(r) != 2 or not all(math.isfinite(v) for v in r) or r[0] > r[1]:
                raise ConfigError(f"{name} must be two finite numbers low <= high, got {r!r}")


def generate_fleet(n_sats: int, spread: FleetSpread | None = None, seed=0):
    """Draw one fingerprint per satellite, deterministically per seed."""
    if n_sats < 2:
        raise ValueError("a fleet needs at least 2 satellites")
    spread = spread or FleetSpread()
    rng = np.random.default_rng(seed)
    fleet = []
    width = max(2, len(str(n_sats - 1)))
    for i in range(n_sats):
        eps = rng.uniform(*spread.eps_range)
        phi = math.radians(rng.uniform(*spread.phi_range_deg))
        mag = rng.uniform(*spread.alpha3_mag_range)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        fleet.append((f"SAT{i:0{width}d}", HwiParams(eps=eps, phi=phi, alpha3=mag * np.exp(1j * ang))))
    return fleet


# ---------------------------------------------------------------------------
# File output: atomic text and CSV writers, burst interchange in JSON and
# packed binary.


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as is (no newline translation) through a
    temporary file in the same directory and a rename, so that a reader
    never sees a partly written file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path, header, rows, lineterminator: str = "\r\n") -> None:
    """One header row and the given rows, written by ``write_text_atomic``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator=lineterminator)
    w.writerow(header)
    w.writerows(rows)
    write_text_atomic(path, buf.getvalue())


def _burst_header(b: Burst) -> dict:
    truth = b.meta.truth
    hdr = {
        "satellite_id": b.meta.satellite_id,
        "n": b.n,
        "snr_db": b.meta.channel.snr_db,
        "modulation": b.meta.modulation,
        "truth": None,
    }
    if truth is not None:
        hdr["truth"] = {
            "eps": truth.eps,
            "phi": truth.phi,
            "alpha3": [truth.alpha3.real, truth.alpha3.imag],
        }
    return hdr


def _burst_from_parts(hdr: dict, samples: np.ndarray, known: np.ndarray | None,
                      path) -> Burst:
    t, snr_db = hdr.get("truth"), hdr.get("snr_db")
    truth = None
    if t is not None:
        alpha3 = _json_pairs([t.get("alpha3")]) if isinstance(t, dict) else None
        if alpha3 is None or not all(type(t.get(k)) in (int, float) for k in ("eps", "phi")):
            raise BurstError(f"{path}: truth must be null or hold numbers eps and phi and "
                             f"an [re, im] number pair alpha3, got {t!r}")
        truth = HwiParams(eps=t["eps"], phi=t["phi"], alpha3=complex(alpha3[0]))
    if snr_db is not None and type(snr_db) not in (int, float):
        raise BurstError(f"{path}: snr_db must be null or a number, got {snr_db!r}")
    modulation = hdr.get("modulation", "qpsk")
    if known is None:
        if modulation == "iridium":
            known = iridium_known_symbols()[: samples.size]
        else:
            raise BurstError("burst file lacks known symbols and the pattern is not implied")
    meta = BurstMeta(
        satellite_id=hdr.get("satellite_id", ""),
        truth=truth,
        channel=ChannelConfig(snr_db=snr_db),
        modulation=modulation,
    )
    return Burst(samples=samples, known_symbols=known, meta=meta)


def write_burst_json(b: Burst, path) -> None:
    payload = _burst_header(b)
    payload["samples"] = [[z.real, z.imag] for z in b.samples]
    payload["known_symbols"] = [[z.real, z.imag] for z in b.known_symbols]
    with open(path, "w") as fh:
        json.dump(payload, fh)


def read_burst_json(path) -> Burst:
    """Read a burst written by ``write_burst_json``; malformed content raises
    ``BurstError``."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise BurstError(f"{path}: need a JSON object")

    def pairs(key):
        x = _json_pairs(payload.get(key))
        if x is None:
            raise BurstError(f"{path}: {key} must be a JSON array of [re, im] number pairs")
        return x

    samples = pairs("samples")
    known = pairs("known_symbols") if "known_symbols" in payload else None
    return _burst_from_parts(payload, samples, known, path)


def write_burst_binary(b: Burst, path) -> None:
    """Length-prefixed JSON header, then N little-endian float64 (re, im) pairs."""
    hdr = _burst_header(b)
    hdr["has_known_symbols"] = True
    raw = json.dumps(hdr).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        inter = np.empty(2 * b.n)
        inter[0::2] = b.samples.real
        inter[1::2] = b.samples.imag
        fh.write(inter.astype("<f8").tobytes())
        inter[0::2] = b.known_symbols.real
        inter[1::2] = b.known_symbols.imag
        fh.write(inter.astype("<f8").tobytes())


def _read_complex(fh, n: int, what: str) -> np.ndarray:
    raw = fh.read(16 * n)
    if len(raw) != 16 * n:
        raise BurstError(f"header says n = {n} but the file holds {len(raw) // 16} "
                         f"{what} ({len(raw)} of {16 * n} bytes); truncated file?")
    # read as complex pairs: rebuilding re + 1j * im would turn -0.0 into 0.0
    return np.frombuffer(raw, dtype="<c16")


def read_burst_binary(path) -> Burst:
    """Read a burst written by ``write_burst_binary``; a malformed header or
    a truncated file raises ``BurstError``."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if len(head) != 4:
            raise BurstError(f"{path}: {len(head)} bytes, too short for the header length")
        (hlen,) = struct.unpack("<I", head)
        raw = fh.read(hlen)
        if len(raw) != hlen:
            raise BurstError(f"{path}: the header length says {hlen} bytes but the file "
                             f"holds {len(raw)}")
        try:
            hdr = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError too
            raise BurstError(f"{path}: malformed header: {exc}") from None
        n = hdr.get("n") if isinstance(hdr, dict) else None
        if type(n) is not int or n < 0:
            raise BurstError(f"{path}: the header needs an integer n >= 0, got {n!r}")
        samples = _read_complex(fh, n, "samples")
        known = None
        if hdr.get("has_known_symbols"):
            known = _read_complex(fh, n, "known symbols")
    return _burst_from_parts(hdr, samples, known, path)
