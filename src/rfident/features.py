"""Per-burst hardware-impairment feature extraction.

Pipeline: CFO removal by linear phase regression on modulation-stripped
samples (slope-only derotation; the constant channel phase is a nuisance the
features either ignore or, for EVM/DC, deliberately absorb), amplitude
normalization to unit mean power, then 13 scalar features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constellation import ConfigError, Constellation, beta_vanishes
from .signal_model import Burst, apply_hwi

FEATURE_NAMES = (
    "amp_var",
    "amp_range",
    "amp_kurtosis",
    "amp_acf1",
    "phase_acf1",
    "phase_var",
    "cfo_hat",
    "evm",
    "iq_eps_hat",
    "iq_phi_hat",
    "dc_i",
    "dc_q",
    "pa_cross",
)

FEATURE_GROUPS = {
    "pa": ("amp_var", "amp_range", "amp_kurtosis", "amp_acf1"),
    "oscillator": ("phase_acf1", "phase_var", "cfo_hat"),
    "constellation": ("evm",),
    "iq": ("iq_eps_hat", "iq_phi_hat"),
    "dc": ("dc_i", "dc_q"),
    "pa_cross": ("pa_cross",),
}

# amp_range spans these percentiles of the amplitude
_PERCENTILE_LO = 5.0
_PERCENTILE_HI = 95.0


class DegenerateInputError(ValueError):
    """Raised for zero-amplitude or otherwise unusable burst samples."""


@dataclass(frozen=True)
class PipelineConfig:
    n_known: int = 76

    def __post_init__(self):
        if self.n_known < 4:
            raise ConfigError("n_known must be >= 4 for the phase fit")


@dataclass(frozen=True)
class FeatureVector:
    amp_var: float
    amp_range: float
    amp_kurtosis: float
    amp_acf1: float
    phase_acf1: float
    phase_var: float
    cfo_hat: float
    evm: float
    iq_eps_hat: float
    iq_phi_hat: float
    dc_i: float
    dc_q: float
    pa_cross: float
    degenerate: frozenset = frozenset()

    def __post_init__(self):
        if self.amp_var < 0 or self.amp_range < 0 or self.evm < 0:
            raise ValueError("amplitude variance, range, and EVM must be nonnegative")
        if abs(self.amp_acf1) > 1 + 1e-9 or abs(self.phase_acf1) > 1 + 1e-9:
            raise ValueError("autocorrelations must lie in [-1, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in FEATURE_NAMES])


def remove_cfo(samples, strip_power: int = 4):
    """Fit a line to the unwrapped phase of samples**strip_power and derotate
    by the fitted slope. Returns (derotated samples, slope in rad/symbol)."""
    z = np.asarray(samples, dtype=complex).ravel()
    if z.size < 4:
        raise DegenerateInputError("need at least 4 samples for the phase fit")
    if not np.all(np.isfinite(z)):
        raise DegenerateInputError("non-finite sample")
    if np.any(np.abs(z) < 1e-300):
        raise DegenerateInputError("zero-amplitude sample")
    n = np.arange(z.size)
    # strip modulation, keep magnitudes tame for the angle
    stripped = (z / np.abs(z)) ** strip_power
    phase = np.unwrap(np.angle(stripped))
    slope = np.polyfit(n, phase, 1)[0] / strip_power
    return z * np.exp(-1j * slope * n), float(slope)


def normalize_amplitude(samples) -> np.ndarray:
    """Scale to unit mean power."""
    z = np.asarray(samples, dtype=complex).ravel()
    power = float(np.mean(np.abs(z) ** 2))
    if power <= 0.0:
        raise DegenerateInputError("all-zero burst")
    return z / math.sqrt(power)


def _acf1(x: np.ndarray) -> tuple[float, bool]:
    d = x - np.mean(x)
    denom = float(np.sum(d * d))
    if denom <= 1e-30:
        return 0.0, True
    val = float(np.sum(d[:-1] * d[1:]) / denom)
    return max(-1.0, min(1.0, val)), False


def _pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    dx, dy = x - np.mean(x), y - np.mean(y)
    sx, sy = float(np.sum(dx * dx)), float(np.sum(dy * dy))
    if sx <= 1e-30 or sy <= 1e-30:
        return 0.0, True
    return float(np.sum(dx * dy) / math.sqrt(sx * sy)), False


def _image_ratio(z: np.ndarray, x: np.ndarray, collinear: bool) -> tuple[complex, bool]:
    """Least-squares image-leakage ratio K2_hat / K1_hat from known symbols.

    When the known symbols have beta = 0 (``collinear``; real pilots, say)
    the regressors x and x* are collinear and the ratio is unidentifiable;
    fall back to the channel-equalized circularity moment, whose emptiness
    is exactly the predicted behavior (degenerate flag set).
    """
    s_xx = complex(np.sum(np.abs(x) ** 2))
    if not collinear:
        s_x2 = complex(np.sum(x * x))
        det = abs(s_xx) ** 2 - abs(s_x2) ** 2
        rhs1 = complex(np.sum(z * np.conj(x)))
        rhs2 = complex(np.sum(z * x))
        # solve [[s_xx, s_x2*], [s_x2, s_xx]] [k1, k2] = [rhs1, rhs2]
        k1 = (s_xx * rhs1 - np.conj(s_x2) * rhs2) / det
        k2 = (s_xx * rhs2 - s_x2 * rhs1) / det
        if abs(k1) < 1e-12:
            return 0.0 + 0.0j, True
        return k2 / k1, False
    h_hat = complex(np.sum(z * np.conj(x)) / s_xx)
    if abs(h_hat) < 1e-12:
        return 0.0 + 0.0j, True
    # channel-equalized circularity moment; the equalization already fixes
    # the scale, so no power denominator (it would leak the noise floor in)
    z_eq = z / h_hat
    eta = complex(np.mean(z_eq**2))
    return eta / 2.0, True


def extract_features(b: Burst, cfg: PipelineConfig | None = None) -> FeatureVector:
    """Compute the 13 per-burst features from the first n_known samples.

    The CFO fit strips the modulation by squaring when the known symbols lie
    on one line through the origin (beta = 0, such as the Iridium pilots),
    otherwise by the fourth power."""
    cfg = cfg or PipelineConfig()
    if b.n < cfg.n_known:
        raise DegenerateInputError(f"burst has {b.n} samples, needs {cfg.n_known}")
    raw = b.samples[: cfg.n_known]
    x = b.known_symbols[: cfg.n_known]
    if not np.all(np.isfinite(x)):
        raise DegenerateInputError("non-finite known symbol")
    if not np.any(x):
        raise DegenerateInputError("known symbols are all zero")
    collinear = beta_vanishes(x)

    derot, cfo_hat = remove_cfo(raw, strip_power=2 if collinear else 4)
    z = normalize_amplitude(derot)
    degenerate = set()

    a = np.abs(z)
    a_mean = float(np.mean(a))
    a_var = float(np.var(a))
    amp_var = a_var / a_mean**2
    amp_range = float(
        np.percentile(a, _PERCENTILE_HI) - np.percentile(a, _PERCENTILE_LO)
    )
    if a_var <= 1e-30:
        amp_kurtosis = 0.0
        degenerate.add("amp_kurtosis")
    else:
        amp_kurtosis = float(np.mean((a - a_mean) ** 4) / a_var**2 - 3.0)
    amp_acf1, flag = _acf1(a)
    if flag:
        degenerate.add("amp_acf1")

    psi = np.unwrap(np.angle((z / a) ** 4))
    phase_acf1, flag = _acf1(psi)
    if flag:
        degenerate.add("phase_acf1")
    phase_var = float(np.var(psi))

    evm = float(np.sqrt(np.mean(np.abs(z - x) ** 2) / np.mean(np.abs(x) ** 2)))

    rho, flag = _image_ratio(z, x, collinear)
    if flag:
        degenerate.add("iq")
    iq_eps_hat = -2.0 * rho.real
    iq_phi_hat = 2.0 * rho.imag

    dc = complex(np.mean(z))

    pa_cross, flag = _pearson(a, psi)
    if flag:
        degenerate.add("pa_cross")

    return FeatureVector(
        amp_var=amp_var,
        amp_range=amp_range,
        amp_kurtosis=amp_kurtosis,
        amp_acf1=amp_acf1,
        phase_acf1=phase_acf1,
        phase_var=phase_var,
        cfo_hat=cfo_hat,
        evm=evm,
        iq_eps_hat=iq_eps_hat,
        iq_phi_hat=iq_phi_hat,
        dc_i=dc.real,
        dc_q=dc.imag,
        pa_cross=pa_cross,
        degenerate=frozenset(degenerate),
    )


def noise_free_amp_var(c: Constellation, p, n_reps: int = 1) -> float:
    """Noise-free normalized amplitude variance over the alphabet under the
    impairment map (the quantity the PA proxy analysis bounds)."""
    y = apply_hwi(np.tile(c.points, n_reps), p)
    a = np.abs(y)
    return float(np.var(a) / np.mean(a) ** 2)


def pa_input_power_variance(c: Constellation, p) -> float:
    """Var(|x_iq|^2) over the alphabet: the PA input power variation."""
    u = np.abs(apply_hwi(c.points, replace(p, alpha3=0j))) ** 2
    return float(np.var(u))


def amp_var_crb_transfer(
    c: Constellation, p, n: int, gamma: float, step: float = 1e-4
) -> float:
    """Delta-method bound for the amplitude-variance feature:
    (d amp_var / d |alpha3|)^2 * CRB(|alpha3|), with the slope taken by
    central differences of the noise-free map |alpha3| -> amp_var."""
    from .fim_crb import fim_numerical
    from .signal_model import HwiParams

    mag = abs(p.alpha3)
    if mag <= step:
        raise ValueError("need |alpha3| > step for the central difference")
    phase = p.alpha3 / mag

    def at(m: float) -> float:
        return noise_free_amp_var(c, HwiParams(eps=p.eps, phi=p.phi, alpha3=m * phase))

    slope = (at(mag + step) - at(mag - step)) / (2.0 * step)
    direction = np.array([0.0, 0.0, phase.real, phase.imag])
    cov = np.linalg.inv(fim_numerical(c, p, n, gamma).matrix)
    crb_mag = float(direction @ cov @ direction)
    return slope**2 * crb_mag
