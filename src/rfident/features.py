"""Per-burst hardware-impairment feature extraction.

Pipeline: CFO removal by linear phase regression on modulation-stripped
samples (slope-only derotation; the constant channel phase is a nuisance the
features either ignore or, for EVM/DC, deliberately absorb), amplitude
normalization to unit mean power, then 13 scalar features. It runs on
(bursts, n_known) stacks with row-wise numpy and gives every burst the same
bits whatever the stack holds; one burst is a one-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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


# the degenerate mask's columns; ``extract_features`` names the set ones
_FLAGS = ("amp_kurtosis", "amp_acf1", "phase_acf1", "iq", "pa_cross")


def _raise_first_bad(checks, first: int = 0, **fields) -> None:
    """Raise for the first row that fails any of ``checks``, a list of
    (row mask, message) pairs in the order the pipeline meets them; the
    message names the row as burst ``first + row``."""
    bad = np.stack([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        message = checks[int(np.argmax(bad[:, i]))][1]
        raise DegenerateInputError(f"burst {first + i}: "
                                   + message.format(**{k: v[i] for k, v in fields.items()}))


def _sample_checks(z: np.ndarray) -> list:
    return [(~np.all(np.isfinite(z), axis=1), "non-finite sample"),
            (np.any(np.abs(z) < 1e-300, axis=1), "zero-amplitude sample")]


def _cfo_block(z: np.ndarray, strip_power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``remove_cfo`` of a checked (bursts, n) stack with one strip
    power per row."""
    n = np.arange(z.shape[1])
    # strip modulation, keep magnitudes tame for the angle
    unit = z / np.abs(z)
    stripped = np.empty_like(unit)
    for p in np.unique(strip_power):
        rows = strip_power == p
        # a Python int exponent: an array of exponents rounds differently
        stripped[rows] = unit[rows] ** int(p)
    phase = np.unwrap(np.angle(stripped), axis=1)
    # least-squares slope against the centred index c: sum(c) = 0 drops the intercept
    c = n - (n.size - 1) / 2.0
    slope = np.sum(phase * c, axis=1) / np.sum(c * c) / strip_power
    # bound to a name: numpy reuses a large temporary as the output of a
    # product and swaps the operands, and the complex multiply is not
    # bitwise commutative
    ramp = np.exp((-1j * slope)[:, None] * n)
    return z * ramp, slope


def remove_cfo(samples, strip_power: int = 4):
    """Fit a line to the unwrapped phase of samples**strip_power and derotate
    by the fitted slope. Returns (derotated samples, slope in rad/symbol)."""
    z = np.asarray(samples, dtype=complex).reshape(1, -1)
    if z.size < 4:
        raise DegenerateInputError("need at least 4 samples for the phase fit")
    _raise_first_bad(_sample_checks(z))
    derot, slope = _cfo_block(z, np.array([strip_power]))
    return derot[0], float(slope[0])


def normalize_amplitude(samples) -> np.ndarray:
    """Scale each row (the last axis) to unit mean power."""
    z = np.asarray(samples, dtype=complex)
    power = np.mean(np.abs(z) ** 2, axis=-1, keepdims=True)
    if np.any(power <= 0.0):
        raise DegenerateInputError("all-zero burst")
    return z / np.sqrt(power)


def _finish_row(collinear, a_mean, a_var, m4, a_dd, a_lag, p_dd, p_lag, ap_cross,
                s_xx, s_x2, rhs1, rhs2, eta):
    """The O(1) scalar end of one row's features, from its O(n) sums.

    Returns (amp_var, amp_kurtosis, amp_acf1, phase_acf1, iq_eps_hat,
    iq_phi_hat, pa_cross) and the degenerate flags in ``_FLAGS`` order. The
    arithmetic stays on Python scalars: a float's ``x ** 2`` rounds
    differently from numpy's array ``x ** 2``.
    """
    flat_a, flat_p = a_dd <= 1e-30, p_dd <= 1e-30
    amp_var = a_var / a_mean**2
    amp_kurtosis = 0.0 if a_var <= 1e-30 else m4 / a_var**2 - 3.0
    amp_acf1 = 0.0 if flat_a else max(-1.0, min(1.0, a_lag / a_dd))
    phase_acf1 = 0.0 if flat_p else max(-1.0, min(1.0, p_lag / p_dd))
    pa_cross = 0.0 if flat_a or flat_p else ap_cross / math.sqrt(a_dd * p_dd)

    # least-squares image-leakage ratio K2_hat / K1_hat from the known
    # symbols. When they have beta = 0 (``collinear``; real pilots, say) the
    # regressors x and x* are collinear and the ratio is unidentifiable; the
    # fallback is half the channel-equalized circularity moment ``eta`` (None
    # when the channel estimate vanished), whose emptiness is exactly the
    # predicted behavior (degenerate flag set)
    rho, iq_flat = 0.0 + 0.0j, True
    if collinear:
        if eta is not None:
            rho = eta / 2.0
    else:
        det = abs(s_xx) ** 2 - abs(s_x2) ** 2
        # solve [[s_xx, s_x2*], [s_x2, s_xx]] [k1, k2] = [rhs1, rhs2]
        k1 = (s_xx * rhs1 - np.conj(s_x2) * rhs2) / det
        k2 = (s_xx * rhs2 - s_x2 * rhs1) / det
        if abs(k1) >= 1e-12:
            rho, iq_flat = k2 / k1, False
    values = (amp_var, amp_kurtosis, amp_acf1, phase_acf1, -2.0 * rho.real, 2.0 * rho.imag,
              pa_cross)
    return values, (a_var <= 1e-30, flat_a, flat_p, iq_flat, flat_a or flat_p)


def _feature_block(samples: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 13 features (columns in FEATURE_NAMES order) and the degenerate
    mask (columns in ``_FLAGS`` order) of each row of checked (bursts,
    n_known) stacks of samples and known symbols x."""
    collinear = beta_vanishes(x)
    derot, cfo_hat = _cfo_block(samples, np.where(collinear, 2, 4))
    z = normalize_amplitude(derot)

    a = np.abs(z)
    a_mean = np.mean(a, axis=1)
    a_var = np.var(a, axis=1)
    amp_range = (np.percentile(a, _PERCENTILE_HI, axis=1)
                 - np.percentile(a, _PERCENTILE_LO, axis=1))
    da = a - a_mean[:, None]
    m4 = np.mean(da**4, axis=1)

    psi = np.unwrap(np.angle((z / a) ** 4), axis=1)
    phase_var = np.var(psi, axis=1)
    dp = psi - np.mean(psi, axis=1)[:, None]

    px = np.abs(x) ** 2
    evm = np.sqrt(np.mean(np.abs(z - x) ** 2, axis=1) / np.mean(px, axis=1))
    dc = np.mean(z, axis=1)

    x_conj = np.conj(x)  # bound to a name, as ``ramp`` in ``_cfo_block``
    rhs1 = np.sum(z * x_conj, axis=1)
    s_xx = np.sum(px, axis=1)
    # beta = 0 rows: channel-equalized circularity moment; the equalization
    # already fixes the scale, so no power denominator (it would leak the
    # noise floor in). The channel estimate is one numpy scalar division per
    # row, which an array division need not match bit for bit.
    rows = np.flatnonzero(collinear)
    h_hat = np.array([complex(r / complex(s)) for r, s in zip(rhs1[rows], s_xx[rows])],
                     dtype=complex)
    usable = np.abs(h_hat) >= 1e-12
    z_eq = z[rows[usable]] / h_hat[usable, None]
    eta = dict(zip(rows[usable].tolist(), np.mean(z_eq**2, axis=1).tolist()))

    sums = (collinear, a_mean, a_var, m4, np.sum(da * da, axis=1),
            np.sum(da[:, :-1] * da[:, 1:], axis=1), np.sum(dp * dp, axis=1),
            np.sum(dp[:, :-1] * dp[:, 1:], axis=1), np.sum(da * dp, axis=1),
            s_xx.astype(complex), np.sum(x * x, axis=1), rhs1, np.sum(z * x, axis=1))
    scalar = np.empty((x.shape[0], 7))
    mask = np.zeros((x.shape[0], len(_FLAGS)), dtype=bool)
    for i, row in enumerate(zip(*(s.tolist() for s in sums))):
        scalar[i], mask[i] = _finish_row(*row, eta.get(i))

    out = np.column_stack([scalar[:, 0], amp_range, scalar[:, 1], scalar[:, 2], scalar[:, 3],
                           phase_var, cfo_hat, evm, scalar[:, 4], scalar[:, 5], dc.real,
                           dc.imag, scalar[:, 6]])
    return out, mask


def _extract_bursts(bursts, n_known: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``_extract_stack`` over the first n_known samples of a list of
    bursts; a burst shorter than n_known fails its length check."""
    lengths = np.array([b.n for b in bursts])
    samples = np.zeros((len(bursts), n_known), dtype=complex)
    known = np.zeros_like(samples)
    for i, b in enumerate(bursts):
        if lengths[i] >= n_known:
            samples[i] = b.samples[:n_known]
            known[i] = b.known_symbols[:n_known]
    return _extract_stack(samples, known, first, lengths)


def _extract_stack(samples: np.ndarray, known: np.ndarray, first: int = 0,
                   lengths: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_feature_block`` over (bursts, n_known) stacks of samples and known
    symbols, after the input checks; ``lengths`` holds each burst's length
    before truncation (n_known by default). A bad burst raises
    DegenerateInputError naming its index, counted from ``first``; with
    several, the first one and its first failing check, as a burst-by-burst
    loop would meet them."""
    n_known = samples.shape[1]
    if lengths is None:
        lengths = np.full(samples.shape[0], n_known)
    with np.errstate(over="ignore"):
        # finite samples whose mean power overflows would normalize to zero
        power = np.mean(np.abs(samples) ** 2, axis=1)
    checks = [(lengths < n_known, f"has {{n}} samples, needs {n_known}"),
              (~np.all(np.isfinite(known), axis=1), "non-finite known symbol"),
              (~np.any(known, axis=1), "known symbols are all zero"),
              *_sample_checks(samples),
              (~np.isfinite(power), "sample power overflows")]
    _raise_first_bad(checks, first, n=lengths)
    return _feature_block(samples, known)


class BurstFeatures(NamedTuple):
    """One burst's features: ``values`` is its (13,) row of the feature
    matrix, in FEATURE_NAMES order, and ``degenerate`` the names in
    ``_FLAGS`` whose features fell back to a default."""

    values: np.ndarray
    degenerate: frozenset


def extract_features(b: Burst, cfg: PipelineConfig | None = None) -> BurstFeatures:
    """Compute the 13 per-burst features from the first n_known samples: the
    one-burst case of the block extractor behind the feature tables.

    The CFO fit strips the modulation by squaring when the known symbols lie
    on one line through the origin (beta = 0, such as the Iridium pilots),
    otherwise by the fourth power."""
    cfg = cfg or PipelineConfig()
    row, mask = _extract_bursts([b], cfg.n_known)
    return BurstFeatures(row[0], frozenset(f for f, m in zip(_FLAGS, mask[0]) if m))


def noise_free_amp_var(c: Constellation, p) -> float:
    """Noise-free normalized amplitude variance over the alphabet under the
    impairment map (the quantity the PA proxy analysis bounds)."""
    y = apply_hwi(c.points, p)
    a = np.abs(y)
    return float(np.var(a) / np.mean(a) ** 2)


def pa_input_power_variance(c: Constellation, p) -> float:
    """Var(|x_iq|^2) over the alphabet: the PA input power variation."""
    u = np.abs(apply_hwi(c.points, replace(p, alpha3=0j))) ** 2
    return float(np.var(u))


def amp_var_crb_transfer(c: Constellation, p, n: int, gamma: float) -> float:
    """Delta-method bound for the amplitude-variance feature:
    (d amp_var / d |alpha3|)^2 * CRB(|alpha3|), with the slope taken by
    central differences of step 1e-4 on the noise-free map
    |alpha3| -> amp_var."""
    from .fim_crb import fim_numerical
    from .signal_model import HwiParams

    step = 1e-4
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
