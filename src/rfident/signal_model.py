"""Impaired burst synthesis: IQ mixer imbalance, cubic PA compression, flat
channel with optional per-burst Rician draws, CFO ramp, and AWGN.

Everything runs at symbol rate (one complex sample per symbol). All
randomness flows through a seeded generator, so bursts are bit-exact
reproducible for a fixed seed.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .constellation import ConfigError, Constellation, _db_to_linear, _json_pairs

PARAM_NAMES = ("eps", "phi", "re_alpha3", "im_alpha3")

# Iridium-style burst: 64 constant preamble symbols + 12-bit unique word 0x789
# mapped bit 0 -> +1, bit 1 -> -1.
UW_PATTERN_HEX = 0x789
N_PREAMBLE = 64
N_UW = 12


class BurstError(ConfigError):
    """Raised for empty or inconsistent burst inputs and malformed burst
    files."""


@dataclass(frozen=True)
class HwiParams:
    """Hardware fingerprint: gain imbalance eps, phase imbalance phi (rad),
    and the complex third-order PA coefficient alpha3."""

    eps: float = 0.0
    phi: float = 0.0
    alpha3: complex = 0.0 + 0.0j

    def as_json(self) -> dict:
        """The JSON form of burst headers, fleet files and reports:
        {"eps", "phi", "alpha3": [re, im]}."""
        return {"eps": self.eps, "phi": self.phi,
                "alpha3": [self.alpha3.real, self.alpha3.imag]}

    def as_vector(self) -> np.ndarray:
        return np.array([self.eps, self.phi, self.alpha3.real, self.alpha3.imag])

    @classmethod
    def from_vector(cls, v) -> "HwiParams":
        v = np.asarray(v, dtype=float).ravel()
        if v.size != 4:
            raise ValueError("parameter vector must have 4 entries")
        return cls(eps=float(v[0]), phi=float(v[1]), alpha3=complex(v[2], v[3]))


def _param_columns(p):
    """eps, phi and alpha3 of an HwiParams or of (..., 4) parameter vectors, as (..., 1) columns."""
    theta = p.as_vector() if isinstance(p, HwiParams) else np.asarray(p, dtype=float)
    return theta[..., 0, None], theta[..., 1, None], theta[..., 2:].copy().view(complex)


def _front_end(x, p) -> tuple:
    """The impairment map, written once: the mixer output x_iq = K1 x + K2 x*
    (K1 = (1 + g) / 2, K2 = (1 - conj(g)) / 2, g = (1+eps) e^{j phi}), its
    power u = |x_iq|^2 and the PA gain pa = 1 + alpha3 u, as (x_iq, u, pa),
    followed by the parsed parameter columns eps, phi and alpha3, e^{j phi}
    and x*, which the Jacobian reuses; the impaired symbols are x_iq * pa.
    ``p`` as in ``hwi_model_and_jacobian``."""
    eps, phi, alpha3 = _param_columns(p)
    e_phi = np.exp(1j * phi)
    g = (1.0 + eps) * e_phi
    k1, k2 = (1.0 + g) / 2.0, (1.0 - np.conj(g)) / 2.0
    # operands of complex products bound to names: numpy reuses a temporary
    # of 256 KiB or more as the output and swaps the operands, and its
    # complex multiply is not bitwise commutative, so a large stack would
    # round differently from one row
    xc = np.conj(x)
    x_iq = k1 * x + k2 * xc
    u = np.abs(x_iq) ** 2
    return x_iq, u, 1.0 + alpha3 * u, eps, phi, alpha3, e_phi, xc


def apply_hwi(x, p: HwiParams):
    """Distort ideal symbols: x_iq = K1 x + K2 x*, then cubic PA compression.
    Accepts a scalar or an array; returns the same shape."""
    x = np.asarray(x, dtype=complex)
    x_iq, _, pa = _front_end(x, p)[:3]
    y = x_iq * pa
    return complex(y[0]) if x.ndim == 0 else y


def hwi_model_and_jacobian(x, p) -> tuple[np.ndarray, np.ndarray]:
    """The model f(theta; x) = ``apply_hwi(x, p)`` (..., len(x)) and its
    analytic sensitivities d f / d theta (at h = 1), (..., 4, len(x)), from
    one pass: exact derivatives of the full nonlinear map, PA terms included.
    ``p`` is an HwiParams or an array of parameter vectors (..., 4) in
    PARAM_NAMES order, whose leading axes broadcast against those of ``x``;
    one HwiParams and 1-D symbols give a (4, len(x)) Jacobian."""
    x = np.asarray(x, dtype=complex)
    x_iq, u, pa, eps, phi, alpha3, e_p, xc = _front_end(x, p)
    e_m = np.exp(-1j * phi)

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
        # built once per campaign, SNR point or burst file read, never per
        # synthesized burst; NaN is the one value unequal to itself
        if self.cfo_rad_per_symbol != self.cfo_rad_per_symbol:
            raise ConfigError("channel cfo_rad_per_symbol is NaN")
        # None and +inf are noise-free, and None draws no Rician magnitude
        if not (self.snr_db is None or self.snr_db == math.inf):
            _db_to_linear(self.snr_db, "snr_db")
        if self.rician_k_db is not None:
            _db_to_linear(self.rician_k_db, "rician_k_db")

    @property
    def noise_free(self) -> bool:
        return self.snr_db is None or math.isinf(self.snr_db)

    @property
    def snr_linear(self) -> float:
        if self.noise_free:
            return math.inf
        return _db_to_linear(self.snr_db, "snr_db")

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


def _channel_map(ch: ChannelConfig, rows: int, scatter: np.ndarray | None,
                 phase_u: np.ndarray | None) -> np.ndarray:
    """The (rows,) channel coefficients: ch.h times, per row, the Rician
    factor of its two standard normals ``scatter`` (rows, 2) and the phase
    rotation of its standard uniform ``phase_u`` (rows,) (see ``_uniform``),
    each factor left out where its array is None; ``_synthesize_rows``
    draws them."""
    h = np.full(rows, complex(ch.h))
    if scatter is not None:
        k = _db_to_linear(ch.rician_k_db, "rician_k_db")
        # los + sqrt(1 / (k + 1)) (re + j im) / sqrt(2)
        g = scatter * math.sqrt(1.0 / (k + 1.0)) / math.sqrt(2.0)
        g[:, 0] += math.sqrt(k / (k + 1.0))
        h = _complex_product(h, g.view(complex)[:, 0])
    if phase_u is not None:
        h = _complex_product(h, np.exp(1j * _uniform(0.0, 2.0 * np.pi, phase_u)))
    return h


def _complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise as (ar br - ai bi) + j (ar bi + ai br) with every
    product rounded, as a scalar complex product (Python's or numpy's) is:
    numpy's complex array loops may fuse a product and a sum into one FMA."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _uniform(low: float, high: float, u):
    """Standard uniforms ``u`` (``rng.random()`` draws) mapped to [low, high)
    by numpy's own formula, so that ``_uniform(low, high, rng.random())``
    is ``rng.uniform(low, high)`` bit for bit, from the same stream."""
    return low + (high - low) * u


@dataclass(frozen=True)
class BurstMeta:
    satellite_id: str = ""
    truth: HwiParams | None = None
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    modulation: str = "qpsk"
    h_realized: complex = 1.0 + 0.0j


_EMPTY_BURST = "samples and known_symbols must have equal length >= 1"


@dataclass(frozen=True)
class Burst:
    """One transmission's known-symbol segment at symbol rate."""

    samples: np.ndarray
    known_symbols: np.ndarray
    meta: BurstMeta

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        x = np.asarray(self.known_symbols, dtype=complex)
        if s.ndim != 1 or x.ndim != 1:
            raise BurstError(f"samples and known_symbols must be 1-D, got shapes "
                             f"{s.shape} and {x.shape}")
        if s.size < 1 or s.size != x.size:
            raise BurstError(_EMPTY_BURST)
        # the file reader passes read-only complex arrays: nothing to set
        if s.flags.writeable:
            s.flags.writeable = False
        if x.flags.writeable:
            x.flags.writeable = False
        if s is not self.samples:
            object.__setattr__(self, "samples", s)
        if x is not self.known_symbols:
            object.__setattr__(self, "known_symbols", x)

    @property
    def n(self) -> int:
        return int(self.samples.size)


def uw_symbols() -> np.ndarray:
    """The unique word UW_PATTERN_HEX, most significant bit first."""
    bits = [(UW_PATTERN_HEX >> (N_UW - 1 - i)) & 1 for i in range(N_UW)]
    return np.array([1.0 - 2.0 * b for b in bits], dtype=complex)


def iridium_known_symbols(n: int = N_PREAMBLE + N_UW) -> np.ndarray:
    """The first ``n`` of the burst's 76 known symbols: 64 constant preamble
    symbols (1+0j), then the 12-symbol unique word. ``ConfigError`` unless
    0 <= n <= 76."""
    if not 0 <= n <= N_PREAMBLE + N_UW:
        raise ConfigError(f"an Iridium burst has {N_PREAMBLE + N_UW} known symbols, "
                          f"not {n}")
    return np.concatenate([np.ones(N_PREAMBLE, dtype=complex), uw_symbols()])[:n]


def random_known_symbols(c: Constellation, n: int, rng: np.random.Generator) -> np.ndarray:
    return c.points[rng.integers(0, c.size, size=n)]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE, _MASK32 = 4, 0xFFFFFFFF
# keys hashed per pass
_KEY_CHUNK = 4096


def _uint32_words(v: int) -> list:
    """A non-negative integer as SeedSequence splits it: little-endian
    32-bit words, and one word for 0."""
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return words


def _hash_words(value, hash_const: int, mult: int):
    """One step of SeedSequence's hash over an array of uint32 words: the
    hashed words and the next hash constant."""
    next_const = (hash_const * mult) & _MASK32
    value = (value ^ hash_const) * next_const
    return value ^ (value >> 16), next_const


def _hashed_pcg64_seeds(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64) for each column of
    ``entropy``, a list of equal-length uint32 word arrays, as the rows of
    one (columns, 4) array."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value, hash_const = _hash_words(value, hash_const, _MULT_A)
        return value

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const, state = _INIT_B, []
    for i in range(8):
        value, hash_const = _hash_words(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    # uint64 word k is uint32 words 2k (low) and 2k + 1 (high)
    return np.stack([state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)],
                    axis=1)


@functools.cache
def _hashed_seed_type() -> type:
    """The type of a seed sequence whose state words were hashed in bulk:
    it hands PCG64, which asks for generate_state(4, uint64) and seeds
    itself from those words, a C-contiguous row of ``_hashed_pcg64_seeds``.
    Built on first use, so that ``import rfident`` loads no numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return HashedSeed


def _check_seed(seed: int) -> int:
    """``seed``; ``ConfigError`` if negative, where numpy raises ValueError."""
    if seed < 0:
        raise ConfigError(f"seeds must be non-negative integers, got {seed}")
    return seed


def _keyed_generators(prefix, shape: tuple):
    """Yield, for every index ``idx`` of ``shape`` in C order, a generator
    in the state of ``np.random.default_rng((*prefix, *idx))``, bit for bit.

    The SeedSequence hashing runs over up to ``_KEY_CHUNK`` keys at once on
    uint32 arrays, which is several times faster than one ``default_rng``
    per key. A negative prefix entry raises ``ConfigError`` when the first
    generator is drawn."""
    head = [w for v in prefix for w in _uint32_words(_check_seed(v))]
    # every index entry is then one 32-bit word, so every key has one layout
    if any(d > 1 << 32 for d in shape):
        raise ConfigError(f"a stream index takes at most 2**32 entries per axis, got {shape}")
    total, hashed_seed = math.prod(shape), _hashed_seed_type()
    for start in range(0, total, _KEY_CHUNK):
        idx = np.unravel_index(np.arange(start, min(start + _KEY_CHUNK, total)), shape)
        entropy = ([np.full(idx[0].size, w, dtype=np.uint32) for w in head]
                   + [i.astype(np.uint32) for i in idx])
        for words in _hashed_pcg64_seeds(entropy):
            yield np.random.Generator(np.random.PCG64(hashed_seed(words)))


def _synthesize_rows(rngs, rows: int, x: np.ndarray, p: HwiParams, ch: ChannelConfig,
                     alphabet: Constellation | None = None, cfo_jitter: float | None = None,
                     normals: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw and synthesize a (rows, n) block: the samples and the channel
    coefficients (rows,). Row i draws from the i-th generator of ``rngs``
    (an iterable that may hold more; only ``rows`` are taken), in the
    stream order synthesis has always used: the CFO's standard uniform,
    mapped to [-cfo_jitter, cfo_jitter) as ``rng.uniform`` maps it (else
    every row takes ``ch.cfo_rad_per_symbol``), the known symbols into
    ``x[i]`` when ``alphabet`` is given, the channel's draws (two Rician
    normals, then the phase uniform), the (2, n) standard normal noise
    (real parts, then imaginary parts) unless noise-free, and the standard
    normals ``normals[i]`` when given. Row i of the samples is then
    h[i] * apply_hwi(x[i], p) * e^{j cfo[i] n} + sigma (noise[i, 0] + j noise[i, 1]),
    bit for bit what the row alone gives. The known symbols x are a
    (rows, n) stack, or one (1, n) row that every burst shares, which is
    then impaired once."""
    n = x.shape[1]
    cfo = np.empty(rows) if cfo_jitter is not None else np.full(rows, ch.cfo_rad_per_symbol)
    noise = None if ch.noise_free else np.empty((rows, 2, n))
    # the channel's draws, mapped to h for the whole block after the loop
    scatter = np.empty((rows, 2)) if ch.rician_k_db is not None else None
    phase_u = np.empty(rows) if ch.random_phase else None
    for i, rng in zip(range(rows), rngs):
        if cfo_jitter is not None:
            cfo[i] = rng.random()
        if alphabet is not None:
            x[i] = random_known_symbols(alphabet, n, rng)
        if scatter is not None:
            rng.standard_normal(out=scatter[i])
        if phase_u is not None:
            phase_u[i] = rng.random()
        if noise is not None:
            rng.standard_normal(out=noise[i])
        if normals is not None:
            rng.standard_normal(out=normals[i])
    if cfo_jitter is not None:
        cfo = _uniform(-cfo_jitter, cfo_jitter, cfo)
    h = _channel_map(ch, rows, scatter, phase_u)
    # 1j * cfo is exact, so every row gets the ramp of a single burst
    ramp = np.exp((1j * cfo)[:, None] * np.arange(n))
    # operands bound to names, in the one-row order (see ``_front_end``)
    y = apply_hwi(x, p)
    hy = h[:, None] * y
    clean = hy * ramp
    if noise is None:
        return clean, h
    sigma = math.sqrt(ch.noise_variance / 2.0)
    w = sigma * (noise[:, 0] + 1j * noise[:, 1])
    return clean + w, h


def synthesize_burst(
    symbols,
    p: HwiParams,
    ch: ChannelConfig,
    seed=None,
    satellite_id: str = "",
    modulation: str = "qpsk",
) -> Burst:
    """r(n) = h * apply_hwi(x(n)) * e^{j cfo n} + w(n), w ~ CN(0, sigma^2):
    the one-row case of the block synthesizer. ``seed`` is anything
    ``np.random.default_rng`` takes, a ``Generator`` included (it is drawn
    from as it is)."""
    x = np.asarray(symbols, dtype=complex).ravel()
    if x.size == 0:
        raise BurstError("empty symbol list")
    r, h = _synthesize_rows([np.random.default_rng(seed)], 1, x[None], p, ch)
    meta = BurstMeta(
        satellite_id=satellite_id,
        truth=p,
        channel=ch,
        modulation=modulation,
        h_realized=complex(h[0]),
    )
    return Burst(samples=r[0], known_symbols=x, meta=meta)


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
    rng = np.random.default_rng(_check_seed(seed))
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
# File I/O: atomic text and CSV writers, and the packed binary burst format.


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


def _header_float(v, what: str) -> float:
    """A header number as a float; an integer beyond float range fails."""
    try:
        return float(v)
    except OverflowError:
        raise BurstError(f"{what} is an integer too large for a float") from None


def _header_meta(hdr: dict, n: int, has_known: bool) -> tuple:
    """The semantic checks of a parsed burst header, in the order the reader
    has always made them: the burst's ``BurstMeta`` and, for a file without
    known symbols, the read-only Iridium pilots its modulation implies (else
    None). ``ConfigError`` for a header that describes no valid burst."""
    t, snr_db = hdr.get("truth"), hdr.get("snr_db")
    truth = None
    if t is not None:
        alpha3 = _json_pairs([t.get("alpha3")]) if isinstance(t, dict) else None
        if alpha3 is None or not all(type(t.get(k)) in (int, float) for k in ("eps", "phi")):
            raise BurstError("truth must be null or hold numbers eps and phi and "
                             f"an [re, im] number pair alpha3, got {t!r}")
        truth = HwiParams(eps=_header_float(t["eps"], "truth.eps"),
                          phi=_header_float(t["phi"], "truth.phi"),
                          alpha3=complex(alpha3[0]))
        if not np.all(np.isfinite(truth.as_vector())):
            raise BurstError(f"truth eps, phi and alpha3 must be finite, got {t!r}")
    # null and +Infinity read as noise-free; NaN and -Infinity fail
    if snr_db is not None:
        if type(snr_db) not in (int, float) or not snr_db > -math.inf:
            raise BurstError(f"snr_db must be null or a number > -Infinity, got {snr_db!r}")
        snr_db = _header_float(snr_db, "snr_db")
    # strings, so that a memoized meta holds no mutable JSON value
    sat, modulation = hdr.get("satellite_id", ""), hdr.get("modulation", "qpsk")
    if type(sat) is not str or type(modulation) is not str:
        raise BurstError(f"satellite_id and modulation must be strings, got {sat!r} "
                         f"and {modulation!r}")
    pilots = None
    if not has_known:
        if modulation != "iridium":
            raise BurstError("the file lacks known symbols and the modulation "
                             f"{modulation!r} does not imply them")
        if n > N_PREAMBLE + N_UW:
            raise BurstError(f"the modulation 'iridium' implies {N_PREAMBLE + N_UW} "
                             f"known symbols, but the file holds {n} samples")
        pilots = iridium_known_symbols(n)
        pilots.flags.writeable = False
    meta = BurstMeta(satellite_id=sat, truth=truth,
                     channel=ChannelConfig(snr_db=snr_db), modulation=modulation)
    if n == 0:
        raise BurstError(_EMPTY_BURST)
    return meta, pilots


@functools.lru_cache(maxsize=1024)
def _burst_header(raw: bytes) -> tuple:
    """(n, has_known_symbols, meta, pilots, error) of a burst file's header
    bytes, memoized by those bytes: every file of one satellite in one
    campaign repeats them, and the cached meta and pilots are immutable.
    A header that is not JSON or lacks an integer n >= 0 raises
    ``BurstError`` (and is not cached); one that fails ``_header_meta`` is
    cached with meta and pilots None and its message as ``error``, which
    the reader raises after its size checks."""
    try:
        hdr = json.loads(raw.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; nesting too
    # deep for the parser is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise BurstError(f"malformed header: {exc}") from None
    n = hdr.get("n") if isinstance(hdr, dict) else None
    if type(n) is not int or n < 0:
        raise BurstError(f"the header needs an integer n >= 0, got {n!r}")
    has_known = bool(hdr.get("has_known_symbols"))
    try:
        return (n, has_known, *_header_meta(hdr, n, has_known), None)
    except ConfigError as exc:
        return n, has_known, None, None, str(exc)


def write_burst_binary(b: Burst, path) -> None:
    """Length-prefixed JSON header, then N little-endian float64 (re, im)
    pairs of samples and N of known symbols. A header that
    ``read_burst_binary`` would refuse raises ``BurstError`` and writes no
    file."""
    truth = b.meta.truth
    try:
        raw = json.dumps({
            "satellite_id": b.meta.satellite_id,
            "n": b.n,
            "snr_db": b.meta.channel.snr_db,
            "modulation": b.meta.modulation,
            "truth": None if truth is None else truth.as_json(),
            "has_known_symbols": True,
        }).encode("utf-8")
    # a value JSON cannot hold, such as a numpy integer id
    except TypeError as exc:
        raise BurstError(f"{path}: {exc}") from None
    # the reader's one rule for a header; it raises only for malformed JSON
    # or n, which this header cannot have
    error = _burst_header(raw)[-1]
    if error is not None:
        raise BurstError(f"{path}: {error}")
    body = np.concatenate([b.samples, b.known_symbols]).astype("<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(raw)) + raw + body)


def read_burst_binary(path) -> Burst:
    """Read a burst written by ``write_burst_binary``; a malformed header, a
    truncated file or bytes beyond the runs its header declares raise
    ``BurstError``. The samples and known symbols are read-only views of
    the file's bytes."""
    # one unbuffered read sized by the file, never by the counts in its header
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    if len(data) < 4:
        raise BurstError(f"{path}: {len(data)} bytes, too short for the header length")
    (hlen,) = struct.unpack_from("<I", data)
    body = len(data) - 4 - hlen
    if body < 0:
        raise BurstError(f"{path}: the header length says {hlen} bytes but the file "
                         f"holds {len(data) - 4}")
    try:
        n, has_known, meta, pilots, error = _burst_header(data[4:4 + hlen])
    except BurstError as exc:
        raise BurstError(f"{path}: {exc}") from None
    runs = 1 + has_known
    if body != 16 * n * runs:
        if body < 16 * n * runs:
            k = int(body >= 16 * n)  # the first run of n pairs cut short
            held = body - 16 * n * k
            raise BurstError(f"{path}: the header says n = {n} but the file holds "
                             f"{held // 16} {('samples', 'known symbols')[k]} "
                             f"({held} of {16 * n} bytes); truncated file?")
        raise BurstError(f"{path}: the header declares {4 + hlen + 16 * n * runs} bytes "
                         f"(n = {n}, {runs} run(s) of pairs) but the file holds "
                         f"{len(data)}; trailing bytes?")
    if error is not None:
        raise BurstError(f"{path}: {error}")
    # read as complex pairs: rebuilding re + 1j * im would turn -0.0 into 0.0
    pairs = np.frombuffer(data, dtype="<c16", offset=4 + hlen)
    return Burst(samples=pairs[:n], known_symbols=pairs[n:] if has_known else pilots,
                 meta=meta)
