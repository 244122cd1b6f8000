"""Per-burst hardware-impairment feature extraction.

Pipeline: CFO removal by linear phase regression on modulation-stripped
samples (slope-only derotation; the constant channel phase is a nuisance the
features either ignore or, for EVM/DC, deliberately absorb), amplitude
normalization to unit mean power, then 13 scalar features. It runs on
(bursts, n_known) stacks as elementwise squares and products plus row-wise
reductions, with no per-row Python, and gives every burst the same bits
whatever the stack holds; one burst is a one-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constellation import ConfigError, Constellation, moments, predicted_fim_rank
from .fim_crb import _NULL_PROJ_TOL, RankDeficientError, crb_report, fim_numerical
from .signal_model import Burst, HwiParams, _front_end, apply_hwi

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
_EPS = float(np.finfo(float).eps)
# a mean power below the smallest normal double has lost its precision
_TINY = float(np.finfo(float).tiny)


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


def _power(u: np.ndarray, p: int) -> np.ndarray:
    """u**p for p = 2 or 4, as u * u and (u * u) * (u * u), where numpy's
    complex power would round differently and cost more."""
    u2 = u * u
    return u2 * u2 if p == 4 else u2


def _unwrap_rows(phase: np.ndarray) -> np.ndarray:
    """``np.unwrap(phase, axis=1)`` for phases in [-pi, pi]: a step strictly
    beyond pi takes a whole turn off the rest of the row, a step of exactly
    +-pi none. The turns count as numpy's do; the values may differ from
    numpy's in the last bits, as it adds the rounded steps, not whole turns."""
    step = np.diff(phase, axis=1)
    turns = (step < -np.pi).astype(float)
    turns -= step > np.pi
    np.cumsum(turns, axis=1, out=turns)
    turns *= 2.0 * np.pi
    out = phase.copy()
    out[:, 1:] += turns
    return out


def _cfo_block(z: np.ndarray, mag: np.ndarray,
               strip_power: int) -> tuple[np.ndarray, np.ndarray]:
    """Derotate each row of a checked (bursts, n) stack z with magnitudes
    mag = |z| by its CFO: the least-squares slope of the unwrapped phase of
    z**strip_power, over strip_power. Returns the derotated stack and the
    slopes in rad/symbol."""
    n = np.arange(z.shape[1])
    # strip modulation, keep magnitudes tame for the angle
    phase = _unwrap_rows(np.angle(_power(z / mag, strip_power)))
    # least-squares slope against the centred index c: sum(c) = 0 drops the intercept
    c = n - (n.size - 1) / 2.0
    slope = np.sum(phase * c, axis=1) / np.sum(c * c) / strip_power
    # bound to a name: numpy reuses a large temporary as the output of a
    # product and swaps the operands, and the complex multiply is not
    # bitwise commutative
    ramp = np.exp((-1j * slope)[:, None] * n)
    return z * ramp, slope


def normalize_amplitude(samples) -> np.ndarray:
    """Scale each row (the last axis) to unit mean power; a row whose mean
    power is not finite and normal raises ``DegenerateInputError``."""
    z = np.asarray(samples, dtype=complex)
    with np.errstate(over="ignore"):  # a power beyond float range is inf
        power = np.mean(np.abs(z) ** 2, axis=-1, keepdims=True)
    # stated as what must hold: NaN fails every comparison
    if not np.all((power >= _TINY) & (power < math.inf)):
        raise DegenerateInputError("sample power is zero, subnormal or not finite")
    return z / np.sqrt(power)


def _row_percentiles(a: np.ndarray, qs) -> list:
    """``np.percentile(a, qs, axis=1)`` (the 'linear' method) as one array
    per q, bit for bit, from one row sort: numpy's virtual index
    v = (n - 1) * (q / 100) lies between the order statistics k = floor(v)
    and k + 1, or is the last one (k = -1) from v = n - 1 on, and t = v - k
    weighs them as a + (b - a) t, or as b - (b - a) (1 - t) from t = 0.5 on."""
    s = np.sort(a, axis=1)
    n = a.shape[1]
    out = []
    for q in qs:
        v = (n - 1) * (q / 100)
        k = math.floor(v) if v < n - 1 else -1
        t = v - k
        below, above = s[:, k], s[:, k + 1 if k >= 0 else -1]
        d = above - below
        out.append(above - d * (1 - t) if t >= 0.5 else below + d * t)
    return out


def _divide(num: np.ndarray, den: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """num / den, and 0 on the ``flat`` rows, whose denominator is never
    divided by."""
    return np.divide(num, den, out=np.zeros_like(num), where=~flat)


def _image_ratio(z: np.ndarray, x: np.ndarray, collinear: bool,
                 s_xx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's least-squares image-leakage ratio K2_hat / K1_hat from the
    known symbols x, and whether it is degenerate; x and ``s_xx`` hold one
    entry per row of z, or one that every row shares.

    When the symbols have beta = 0 (``collinear``; real pilots, say) the
    regressors x and x* are collinear and the ratio is unidentifiable; the
    fallback is half the channel-equalized circularity moment (0 when the
    channel estimate vanishes), whose emptiness is exactly the predicted
    behavior (degenerate flag set). The equalization already fixes the
    scale, so no power denominator: it would leak the noise floor in.

    Otherwise the ratio is k2 / k1 of the widely linear normal equations
    [[s_xx, s_x2*], [s_x2, s_xx]] [k1, k2] = [r1, r2], with s_x2 = sum(x^2),
    r1 = sum(z x*) and r2 = sum(z x) per row; a row whose k1 vanishes
    reads 0 and is degenerate."""
    x_conj = np.conj(x)  # bound to a name, as ``ramp`` in ``_cfo_block``
    r1 = np.sum(z * x_conj, axis=1)
    if collinear:
        h_hat = r1 / s_xx
        usable = np.abs(h_hat) >= 1e-12
        z_eq = z / np.where(usable, h_hat, 1.0)[:, None]
        return (np.where(usable, np.mean(z_eq * z_eq, axis=1) / 2.0, 0.0),
                np.ones(z.shape[0], dtype=bool))
    s_x2, r2 = np.sum(x * x, axis=1), np.sum(z * x, axis=1)
    det = s_xx * s_xx - (s_x2.real * s_x2.real + s_x2.imag * s_x2.imag)
    k1 = (s_xx * r1 - np.conj(s_x2) * r2) / det
    k2 = (s_xx * r2 - s_x2 * r1) / det
    usable = np.abs(k1) >= 1e-12
    return np.where(usable, k2 / np.where(usable, k1, 1.0), 0.0), ~usable


def _feature_block(samples: np.ndarray, mag: np.ndarray, x: np.ndarray,
                   collinear: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 13 features (columns in FEATURE_NAMES order) and the degenerate
    mask (columns in ``_FLAGS`` order) of each row of a checked (bursts,
    n_known) stack of samples with magnitudes mag, from their known symbols
    x: a stack of the same shape, or one (1, n_known) row that every burst
    shares, whose powers and sums are then taken once; ``collinear``: every
    row's symbols have beta = 0 (strip by squaring, circularity fallback)."""
    # each stack is let go as soon as it is read, which keeps the
    # temporaries of a 256-row block near 1.7 MB, not 2.8 MB (see
    # ``auth._CAMPAIGN_BUFFER``)
    z, cfo_hat = _cfo_block(samples, mag, 2 if collinear else 4)
    z = normalize_amplitude(z)

    a = np.abs(z)
    a_mean = np.mean(a, axis=1)
    hi, lo = _row_percentiles(a, (_PERCENTILE_HI, _PERCENTILE_LO))
    dp = _unwrap_rows(np.angle(_power(z / a, 4)))
    dp -= np.mean(dp, axis=1)[:, None]
    p_dd = np.sum(dp * dp, axis=1)

    da = a - a_mean[:, None]
    d2 = da * da
    a_dd = np.sum(d2, axis=1)
    # the variances are np.var's sums of squared deviations over n, bit for bit
    n = z.shape[1]
    a_var = a_dd / n

    px = np.abs(x) ** 2
    evm = np.sqrt(np.mean(np.abs(z - x) ** 2, axis=1) / np.mean(px, axis=1))
    dc = np.mean(z, axis=1)

    rho, iq_flat = _image_ratio(z, x, collinear, np.sum(px, axis=1))

    # a flat denominator falls back to 0 and sets the feature's flag; a flat
    # phase is one whose n deviations are rounding errors of the angles,
    # each below n pi eps for unwrapped phases of at most n pi in magnitude
    flat_var, flat_a = a_var <= 1e-30, a_dd <= 1e-30
    flat_p = p_dd <= n * (n * math.pi * _EPS) ** 2
    flat_ap = flat_a | flat_p
    kurtosis = _divide(np.mean(d2 * d2, axis=1), a_var * a_var, flat_var) - 3.0
    amp_acf1 = _divide(np.sum(da[:, :-1] * da[:, 1:], axis=1), a_dd, flat_a)
    phase_acf1 = _divide(np.sum(dp[:, :-1] * dp[:, 1:], axis=1), p_dd, flat_p)
    pa_cross = _divide(np.sum(da * dp, axis=1), np.sqrt(a_dd * p_dd), flat_ap)

    out = np.column_stack([
        a_var / (a_mean * a_mean), hi - lo, np.where(flat_var, 0.0, kurtosis),
        np.clip(amp_acf1, -1.0, 1.0), np.clip(phase_acf1, -1.0, 1.0), p_dd / n,
        cfo_hat, evm, -2.0 * rho.real, 2.0 * rho.imag, dc.real, dc.imag, pa_cross])
    return out, np.column_stack([flat_var, flat_a, flat_p, iq_flat, flat_ap])


def _extract_bursts(bursts, n_known: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``_extract_stack`` over the first n_known samples of a list of
    bursts; a burst shorter than n_known fails its length check."""
    lengths = np.array([b.n for b in bursts])
    # one concatenation per array; a burst shorter than n_known gives a row
    # of zeros, and fails its length check
    full = (lengths >= n_known).tolist()
    zeros = np.zeros(n_known, dtype=complex)

    def block(arrays) -> np.ndarray:
        rows = [a[:n_known] if f else zeros for a, f in zip(arrays, full)]
        return np.concatenate(rows).reshape(len(full), n_known)

    return _extract_stack(block(b.samples for b in bursts),
                          block(b.known_symbols for b in bursts), first, lengths)


def _extract_stack(samples: np.ndarray, known: np.ndarray, first: int = 0,
                   lengths: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_feature_block`` over a (bursts, n_known) stack of samples and their
    known symbols (a stack of the same shape, or one shared row), after the
    input checks; ``lengths`` holds each burst's length before truncation
    (n_known by default). A bad burst raises DegenerateInputError naming
    its index, counted from ``first``; with several, the first one and its
    first failing check, as a burst-by-burst loop would meet them."""
    rows, n_known = samples.shape
    mag = np.abs(samples)
    with np.errstate(over="ignore"):
        # finite samples whose mean power overflows would normalize to zero
        power = np.mean(mag ** 2, axis=1)
    # one summary passes a good block: a finite normal power means finite
    # samples whose power neither overflows nor underflows; the per-check
    # masks name a bad burst
    if not (np.isfinite(power).all() and power.min() >= _TINY and mag.min() >= 1e-300
            and (lengths is None or lengths.min() >= n_known)
            and np.isfinite(known).all() and known.any(axis=1).all()):
        if lengths is None:
            lengths = np.full(rows, n_known)

        def per_burst(mask):
            return np.broadcast_to(mask, (rows,))

        _raise_first_bad([
            (lengths < n_known, f"has {{n}} samples, needs {n_known}"),
            (per_burst(~np.all(np.isfinite(known), axis=1)), "non-finite known symbol"),
            (per_burst(~np.any(known, axis=1)), "known symbols are all zero"),
            (~np.all(np.isfinite(samples), axis=1), "non-finite sample"),
            (np.any(mag < 1e-300, axis=1), "zero-amplitude sample"),
            (~np.isfinite(power), "sample power overflows"),
            (power < _TINY, "sample power underflows")], first, n=lengths)
    # the beta = 0 decision, once per block; a block mixing both kinds runs
    # each as its own stack, which gives its rows the same bits as any stack
    collinear = predicted_fim_rank(moments(known)) == 2
    if collinear.all() or not collinear.any():
        return _feature_block(samples, mag, known, bool(collinear[0]))
    values = np.empty((rows, len(FEATURE_NAMES)))
    flags = np.empty((rows, len(_FLAGS)), dtype=bool)
    for kind in (True, False):
        r = collinear == kind
        values[r], flags[r] = _feature_block(samples[r], mag[r], known[r], kind)
    return values, flags


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
    return float(np.var(_front_end(c.points, p)[1]))


def amp_var_crb_transfer(c: Constellation, p, n: int, gamma: float) -> float:
    """Delta-method bound for the amplitude-variance feature:
    (d amp_var / d |alpha3|)^2 d^T J^+ d, with d the |alpha3| direction, J^+
    the pseudo-inverse from ``crb_report`` and the slope taken by central
    differences of step 1e-4 on the noise-free map |alpha3| -> amp_var.
    Raises RankDeficientError when the slope is nonzero and |alpha3| is not
    identifiable (d has a null-space component)."""
    step = 1e-4
    mag = abs(p.alpha3)
    if mag <= step:
        raise ValueError("need |alpha3| > step for the central difference")
    phase = p.alpha3 / mag

    def at(m: float) -> float:
        return noise_free_amp_var(c, HwiParams(eps=p.eps, phi=p.phi, alpha3=m * phase))

    slope = (at(mag + step) - at(mag - step)) / (2.0 * step)
    if slope == 0.0:
        return 0.0
    direction = np.array([0.0, 0.0, phase.real, phase.imag])
    rep = crb_report(fim_numerical(c, p, n, gamma))
    if np.linalg.norm(rep.null_basis @ direction) > _NULL_PROJ_TOL:
        raise RankDeficientError("|alpha3| is not identifiable: its direction has a "
                                 "null-space component")
    return slope**2 * float(direction @ rep.pinv @ direction)
