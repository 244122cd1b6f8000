"""Fingerprint accumulation, balanced-bootstrap discrimination ratios,
cross-campaign stability, identifiability-weighted authentication scoring,
a Mahalanobis baseline, and ROC/AUC evaluation.

The discrimination-ratio estimator compares the spread of per-satellite
half-sample means against the spread of half-sample differences, so a
feature carrying no satellite information scores near 1/sqrt(2) = 0.707.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .constellation import ConfigError, _db_to_linear, make_constellation, moments
# extract_features is not called here; it stays importable from this module,
# where perfbench's span tracing rebinds it
from .features import (  # noqa: F401
    FEATURE_NAMES,
    PipelineConfig,
    _extract_bursts,
    _extract_stack,
    extract_features,
)
from .signal_model import (
    ChannelConfig,
    FleetSpread,
    _check_seed,
    _keyed_generators,
    _synthesize_rows,
    generate_fleet,
    iridium_known_symbols,
    write_csv_atomic,
)

_VERDICT_BANDS = (
    (3.0, "strong"),
    (1.5, "moderate"),
    (1.0, "detectable"),
    (0.8, "weak"),
)

# Feature subsets used by the scoring strategies (names from FEATURE_NAMES).
PA3_FEATURES = ("amp_var", "amp_range", "amp_acf1")
CRB4_FEATURES = PA3_FEATURES + ("phase_acf1",)
ALL6_FEATURES = CRB4_FEATURES + ("amp_kurtosis", "evm")
IQ2_FEATURES = ("iq_eps_hat", "iq_phi_hat")
OSC2_FEATURES = ("phase_acf1", "phase_var")

# Scoring strategies: name -> (feature subset, ``iwat_weights`` mode). A mode
# of None scores by the Mahalanobis baseline (``glrt_score``) instead.
STRATEGIES = {
    "dr2_iwat_all6": (ALL6_FEATURES, "dr2"),
    "dr_iwat_all6": (ALL6_FEATURES, "dr"),
    "equal_weight_all6": (ALL6_FEATURES, "equal"),
    "crb_guided_4": (CRB4_FEATURES, "equal"),
    "pa_only_3": (PA3_FEATURES, "equal"),
    "oscillator_only_2": (OSC2_FEATURES, "equal"),
    "iq_only_2": (IQ2_FEATURES, "equal"),
    "glrt_crb4": (CRB4_FEATURES, None),
}

# bursts per feature-extraction block: large enough that numpy's per-call
# overhead is spread thin, small enough that a campaign streams in flat memory
_BLOCK = 256
# rows a campaign synthesizes before extracting them a block at a time: the
# release of a buffer this large lifts glibc's dynamic mmap threshold above
# a block's temporaries, which a 256-row buffer leaves to be trimmed from
# the heap and page-faulted back on every block (~11,000 page faults per
# default experiment, against ~1,300)
_CAMPAIGN_BUFFER = 4 * _BLOCK


class AuthConfigError(ValueError):
    """A failure that depends on the data, such as too few satellites with
    enough messages or a singular covariance; bad configuration values raise
    ``ConfigError`` instead."""


def accumulate(features, snrs_db) -> np.ndarray:
    """SNR-weighted mean of the rows of a (bursts x features) array, each
    weighted by its burst's linear SNR."""
    x = np.asarray(features, dtype=float)
    snrs_db = np.asarray(snrs_db, dtype=float)
    if x.ndim != 2 or x.size == 0 or x.shape[0] != snrs_db.size:
        raise ValueError("features must be a non-empty (bursts x features) array with one "
                         "snr per row")
    w = np.array([_db_to_linear(s, "snrs_db") for s in snrs_db])
    w /= w.max()  # finite weights can overflow in their sum, their ratios cannot
    return (w[:, None] * x).sum(axis=0) / float(np.sum(w))


@dataclass(frozen=True)
class FeatureTable:
    """Long-format per-burst feature matrix (n_bursts x 13)."""

    satellite_ids: np.ndarray
    burst_index: np.ndarray
    snr_db: np.ndarray
    matrix: np.ndarray
    feature_names: tuple = FEATURE_NAMES

    @functools.cached_property
    def coded_ids(self) -> tuple:
        """The satellite ids as a coded pair (names, codes): the sorted
        unique ids and each row's index into them, so that ids compare as
        ints (see ``_share_names``)."""
        return tuple(np.unique(self.satellite_ids, return_inverse=True))

    def to_csv(self, path) -> None:
        write_csv_atomic(
            path,
            ["satellite_id", "burst_index", "snr_db", *self.feature_names],
            ([self.satellite_ids[i], int(self.burst_index[i]), f"{self.snr_db[i]:g}"]
             + [f"{v:.10e}" for v in self.matrix[i]] for i in range(self.matrix.shape[0])),
        )

    @classmethod
    def from_csv(cls, path) -> "FeatureTable":
        """Read a table written by ``to_csv``; a malformed file raises
        ``ConfigError`` naming the offending line."""
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, [])
            if len(header) < 3:
                raise ConfigError(f"{path}:1: need a header satellite_id,burst_index,snr_db,...")
            ids, idx, snr, rows = [], [], [], []
            for row in r:
                if len(row) != len(header):
                    raise ConfigError(f"{path}:{r.line_num}: {len(row)} columns, the header "
                                      f"has {len(header)}")
                try:
                    idx.append(int(row[1]))
                    snr.append(float(row[2]))
                    rows.append([float(v) for v in row[3:]])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{r.line_num}: {exc}") from None
                # an SNR of inf is noise-free; a feature value must be finite
                if not all(map(math.isfinite, rows[-1])):
                    raise ConfigError(f"{path}:{r.line_num}: a feature value is not finite")
                ids.append(row[0])
        return cls(
            satellite_ids=np.asarray(ids),
            burst_index=np.asarray(idx),
            snr_db=np.asarray(snr),
            matrix=np.asarray(rows, dtype=float).reshape(len(rows), len(header) - 3),
            feature_names=tuple(header[3:]),
        )


@dataclass(frozen=True)
class DrRow:
    mean: float
    std: float
    n_trials: int
    verdict: str


@dataclass(frozen=True)
class DrTable:
    rows: dict
    excluded_satellites: tuple = ()

    def dr(self, name: str) -> float:
        return self.rows[name].mean

    def ordered(self):
        return sorted(self.rows.items(), key=lambda kv: kv[1].mean, reverse=True)

    def to_csv(self, path) -> None:
        write_csv_atomic(
            path,
            ["feature", "dr_mean", "dr_std", "n_trials", "verdict"],
            ([name, f"{row.mean:.6g}", f"{row.std:.6g}", row.n_trials, row.verdict]
             for name, row in self.ordered()),
        )


def _verdict(dr: float) -> str:
    # strong needs a strict > 3; the lower bands are half-open [lo, hi)
    for k, (threshold, label) in enumerate(_VERDICT_BANDS):
        if (dr > threshold) if k == 0 else (dr >= threshold):
            return label
    return "not_discriminative"


def balanced_dr(
    table: FeatureTable,
    n_bal: int = 30,
    n_trials: int = 30,
    seed: int = 0,
) -> DrTable:
    """Balanced bootstrap discrimination ratios.

    Each trial subsamples n_bal messages per satellite without replacement
    and splits them into halves. DR = std over satellites of half-A means
    divided by std over satellites of (half-A - half-B) differences; a
    feature with no satellite dependence scores about 0.707.
    """
    if n_bal < 2 or n_trials < 1:
        raise ConfigError("need n_bal >= 2 and n_trials >= 1")
    by_sat = _rows_by_satellite(table.coded_ids)
    idx_by_sat = [rows for _, rows in by_sat if rows.size >= n_bal]
    excluded = tuple(table.coded_ids[0][code] for code, rows in by_sat if rows.size < n_bal)
    if len(idx_by_sat) < 2:
        raise AuthConfigError("need at least 2 satellites with >= n_bal messages")
    half = n_bal // 2
    rng = np.random.default_rng(_check_seed(seed))
    drs = np.zeros((n_trials, table.matrix.shape[1]))
    for t in range(n_trials):
        picks = [rng.choice(idx, size=n_bal, replace=False) for idx in idx_by_sat]
        drawn = table.matrix[np.stack(picks)]  # (satellites, n_bal, features)
        m_a = drawn[:, :half].mean(axis=1)
        m_b = drawn[:, half:].mean(axis=1)
        inter = np.std(m_a, axis=0, ddof=1)
        intra = np.std(m_a - m_b, axis=0, ddof=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            drs[t] = np.where(inter <= 1e-300, 0.0, inter / np.where(intra > 0, intra, np.inf))
    rows = {}
    for j, name in enumerate(table.feature_names):
        mean = float(np.mean(drs[:, j]))
        rows[name] = DrRow(
            mean=mean,
            std=float(np.std(drs[:, j], ddof=1)) if n_trials > 1 else 0.0,
            n_trials=n_trials,
            verdict=_verdict(mean),
        )
    return DrTable(rows=rows, excluded_satellites=excluded)


@dataclass(frozen=True)
class StabilityRow:
    r: float
    p_value: float
    defined: bool


def cross_stability(a: tuple, b: tuple) -> dict:
    """Per-feature Pearson correlation of fingerprint means across the
    satellites common to two campaigns. Each campaign is an ``(ids, means)``
    pair, one row of means per satellite."""
    for ids, _ in (a, b):
        uniq, counts = np.unique(ids, return_counts=True)
        if np.any(counts > 1):
            raise AuthConfigError(f"satellite {uniq[np.argmax(counts > 1)]} appears more than "
                                  "once in a campaign")
    common, rows_a, rows_b = np.intersect1d(a[0], b[0], assume_unique=True, return_indices=True)
    if common.size < 3:
        raise AuthConfigError("need at least 3 common satellites")
    from scipy import stats  # loaded on first use: it is most of `import rfident`

    a, b = np.asarray(a[1], dtype=float)[rows_a], np.asarray(b[1], dtype=float)[rows_b]
    out = {}
    for j, name in enumerate(FEATURE_NAMES):
        if np.std(a[:, j]) <= 1e-300 or np.std(b[:, j]) <= 1e-300:
            out[name] = StabilityRow(r=float("nan"), p_value=float("nan"), defined=False)
        else:
            r, p = stats.pearsonr(a[:, j], b[:, j])
            out[name] = StabilityRow(r=float(r), p_value=float(p), defined=True)
    return out


@dataclass(frozen=True)
class WeightVector:
    feature_names: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.feature_names),):
            raise ValueError(f"weights of shape {w.shape} for "
                             f"{len(self.feature_names)} feature names")
        # stated as what must hold: NaN fails every comparison, and an
        # infinite entry is negative or makes the sum inf or NaN
        if not (np.all(w >= -1e-12) and abs(float(np.sum(w)) - 1.0) <= 1e-12):
            raise ValueError("weights must be finite, nonnegative and sum to 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def as_dict(self) -> dict:
        return dict(zip(self.feature_names, self.weights.tolist()))


def iwat_weights(dr: DrTable | dict, feature_names, mode: str = "dr2") -> WeightVector:
    """Normalized discrimination-ratio weights over the active feature set.

    mode="dr2" squares the ratios (the default emphasis), "dr" uses them
    linearly, "equal" ignores them.
    """
    names = tuple(feature_names)
    if len(set(names)) < len(names):
        raise ConfigError(f"feature names repeat: {names}")
    if mode == "equal":
        raw = np.ones(len(names))
    else:
        get = dr.dr if isinstance(dr, DrTable) else lambda k: float(dr[k])
        raw = np.array([get(k) for k in names], dtype=float)
        if not np.all((raw >= 0) & (raw < math.inf)):
            raise ConfigError("discrimination ratios must be finite nonnegative numbers")
        if mode not in ("dr", "dr2"):
            raise ConfigError(f"unknown weight mode {mode!r}")
    # a square or a sum beyond float range is inf, refused below
    with np.errstate(over="ignore"):
        if mode == "dr2":
            raw = raw**2
        total = float(np.sum(raw))
    if total == math.inf:
        raise ConfigError("discrimination ratios too large: their weights overflow")
    if total <= 0.0:
        raise ValueError("all-zero discrimination ratios")
    return WeightVector(feature_names=names, weights=raw / total)


def _columns(x, feature_names, normalizer: tuple) -> np.ndarray:
    """The named feature columns of x (last axis), z-scored with the
    (mean, std) pair of ``normalizer``."""
    idx = [FEATURE_NAMES.index(k) for k in feature_names]
    mu, sd = normalizer
    return (np.asarray(x, dtype=float)[..., idx] - mu[idx]) / sd[idx]


def iwat_score(probes: np.ndarray, enrollment: np.ndarray, weights) -> np.ndarray:
    """(probes x enrollment) weighted squared distances between the rows of
    two fingerprint arrays. Accumulating one feature at a time in one
    reused (enrollment x probes) buffer adds, for fewer than eight features,
    in the same order as a per-pair ``np.sum``; the result is the buffer's
    transpose, so that each pass runs along the probes' contiguous
    feature columns."""
    columns = np.ascontiguousarray(probes.T)
    out = np.zeros((enrollment.shape[0], probes.shape[0]))
    term = np.empty_like(out)
    for f, w_f in enumerate(weights):
        np.subtract(columns[f], enrollment[:, f, None], out=term)
        np.square(term, out=term)
        term *= w_f
        out += term
    return out.T


def _glrt_precision(x: np.ndarray, ids: tuple, ridge: float) -> np.ndarray:
    """Inverse of the ridge-regularized covariance of the rows of x, each row
    centred on the mean of its satellite's rows; ``ids`` are the rows'
    coded satellite ids (see ``_share_names``)."""
    (_, sats), means = _grouped_means(ids, x)
    x = x - means[np.searchsorted(sats, ids[1])]
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1)) + ridge * np.eye(x.shape[1])
    cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > 1e14:
        raise AuthConfigError("singular regularized covariance")
    return np.linalg.inv(cov)


def glrt_score(probes: np.ndarray, enrollment: np.ndarray, precision: np.ndarray) -> np.ndarray:
    """(probes x enrollment) Mahalanobis distances under one precision
    matrix, such as ``_glrt_precision`` of the per-burst enrollment rows."""
    d = probes[:, None, :] - enrollment[None, :, :]
    return np.einsum("prk,kl,prl->pr", d, precision, d)


def _genuine_impostor(scores: np.ndarray, probe_ids: tuple, ref_ids: tuple) -> tuple:
    """Split a (probes x refs) score matrix into genuine scores (probe and
    reference are the same satellite) and impostor scores (all others), for
    probe and reference ids coded over one set of names (see ``_share_names``)."""
    (names, probe), (_, ref) = probe_ids, ref_ids
    enrolled = np.zeros(len(names), dtype=bool)
    enrolled[ref] = True
    missing = ~enrolled[probe]
    if np.any(missing):
        raise AuthConfigError(f"probe satellite {names[probe[np.argmax(missing)]]} not enrolled")
    same = probe[:, None] == ref[None, :]
    return scores[same], scores[~same]


@dataclass(frozen=True)
class RocCurve:
    points: np.ndarray  # ordered (fa_rate, detection_rate)
    auc: float
    pd_at_fa: dict


def _auc(g: np.ndarray, i: np.ndarray) -> float:
    """AUC of lower-is-genuine scores by the rank statistic, P(impostor >
    genuine) + 0.5 P(tie), from counts of the impostors below and at each
    genuine score; ``i`` must be sorted. The counts are whole and half
    numbers, so their sum is exact in any order."""
    if g.size == 0 or i.size == 0:
        raise AuthConfigError("both score lists must be non-empty")
    below = np.searchsorted(i, g, side="left")
    at = np.searchsorted(i, g, side="right") - below
    return float(np.sum((i.size - below - at) + 0.5 * at) / (g.size * i.size))


def roc_auc(genuine_scores, impostor_scores) -> RocCurve:
    """Threshold-sweep ROC for lower-is-genuine scores; AUC by the
    rank statistic with ties counted one half, and the detection rate at
    false-accept rates 0.01 and 0.1."""
    g = np.sort(np.asarray(genuine_scores, dtype=float))
    i = np.sort(np.asarray(impostor_scores, dtype=float))
    auc = _auc(g, i)

    thresholds = np.unique(np.concatenate([g, i, [np.inf]]))
    fa = np.searchsorted(i, thresholds, side="left") / i.size
    pd = np.searchsorted(g, thresholds, side="left") / g.size
    points = np.column_stack([fa, pd])
    pd_at = {}
    for target in (0.01, 0.1):
        ok = fa <= target + 1e-12
        pd_at[target] = float(np.max(pd[ok])) if np.any(ok) else 0.0
    return RocCurve(points=points, auc=auc, pd_at_fa=pd_at)


# ---------------------------------------------------------------------------
# End-to-end synthetic two-campaign experiment


@dataclass(frozen=True)
class FleetProtocolConfig:
    n_sats: int = 27
    n_enroll: int = 120
    n_probe: int = 120
    snr_db: float = 12.0
    burst_mode: str = "iridium"  # or "qpsk_pilots"
    n_known: int = 76
    cfo_jitter: float = 0.01  # rad/symbol, uniform per burst
    rician_k_db: float | None = None
    n_bal: int = 30
    n_dr_trials: int = 30
    probe_acc: int = 60
    n_acc_grid: tuple = (1, 2, 4, 8, 15, 30, 60)
    ridge: float = 1e-6
    spread: FleetSpread = field(default_factory=FleetSpread)
    target_fa: float = 0.1

    def __post_init__(self):
        if self.burst_mode not in ("iridium", "qpsk_pilots"):
            raise ConfigError(f"unknown burst_mode {self.burst_mode!r}; "
                              "use 'iridium' or 'qpsk_pilots'")
        if self.n_sats < 2:
            raise ConfigError("a fleet needs n_sats >= 2")
        if not (1 <= self.probe_acc <= self.n_probe and 2 <= self.n_bal <= self.n_enroll):
            raise ConfigError("campaign sizes too small for the protocol: need "
                              "1 <= probe_acc <= n_probe and 2 <= n_bal <= n_enroll")
        # entries above n_probe are legal; the accumulation curve skips them
        if not all(n >= 1 for n in self.n_acc_grid):
            raise ConfigError("n_acc_grid entries must be >= 1")
        if not 0.0 < self.target_fa < 1.0:
            raise ConfigError("need 0 < target_fa < 1")
        if not self.ridge >= 0.0:
            raise ConfigError("ridge must be >= 0")
        if self.n_dr_trials < 1:
            raise ConfigError("n_dr_trials must be >= 1")
        # each burst draws its CFO uniformly from [-cfo_jitter, cfo_jitter]
        if not (self.cfo_jitter >= 0.0 and math.isfinite(2.0 * self.cfo_jitter)):
            raise ConfigError(f"cfo_jitter must be >= 0 with a finite 2 * cfo_jitter, "
                              f"got {self.cfo_jitter!r}")
        # the burst channel and the feature pipeline check their own values
        ChannelConfig(snr_db=self.snr_db, rician_k_db=self.rician_k_db)
        PipelineConfig(n_known=self.n_known)
        if self.burst_mode == "iridium":
            iridium_known_symbols(self.n_known)


@dataclass(frozen=True)
class StrategyResult:
    auc: float
    pd_at_fa: dict
    n_genuine: int
    n_impostor: int


@dataclass(frozen=True)
class AuthReport:
    strategies: dict
    dr_table: DrTable
    weights: WeightVector
    auc_vs_nacc: dict
    threshold: float
    fleet: list
    beta: float
    roc_curves: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta,
            "threshold": self.threshold,
            "strategies": {
                k: {
                    "auc": v.auc,
                    "pd_at_fa": {str(t): p for t, p in v.pd_at_fa.items()},
                    "n_genuine": v.n_genuine,
                    "n_impostor": v.n_impostor,
                }
                for k, v in self.strategies.items()
            },
            "weights": self.weights.as_dict(),
            "dr_table": {
                k: {"mean": r.mean, "std": r.std, "verdict": r.verdict}
                for k, r in self.dr_table.rows.items()
            },
            "dr_excluded_satellites": [str(s) for s in self.dr_table.excluded_satellites],
            "auc_vs_nacc": {k: dict(zip(("n_acc", "auc"), v)) for k, v in self.auc_vs_nacc.items()},
            "fleet": [{"satellite_id": s, **p.as_json()} for s, p in self.fleet],
        }


def simulate_campaign(
    fleet, cfg: FleetProtocolConfig, campaign_seed: int, n_bursts: int | None = None
) -> FeatureTable:
    """One recording campaign: fresh noise, channel phases, and CFO per burst;
    the fleet fingerprints stay fixed.

    Burst ``bi`` of satellite ``si`` takes its CFO, its QPSK symbols (unless
    the Iridium pilots are sent), its channel and its noise, in that order,
    from the stream of ``default_rng((campaign_seed, si, bi))``, with the
    fleet's streams seeded in bulk by ``_keyed_generators``. The bursts are
    synthesized satellite by satellite into a buffer of
    ``_CAMPAIGN_BUFFER`` rows, and each time it fills, its features are
    extracted in blocks of ``_BLOCK`` rows, whatever the satellite
    boundaries, as ``feature_table_from_bursts`` reads a burst stream. The
    Iridium pilots are one row that every burst shares."""
    n_bursts = n_bursts if n_bursts is not None else cfg.n_enroll
    if n_bursts < 1:
        raise ConfigError(f"a campaign needs n_bursts >= 1, got {n_bursts}")
    # one channel for every burst: the per-burst CFO is passed on its own
    ch = ChannelConfig(snr_db=cfg.snr_db, rician_k_db=cfg.rician_k_db, random_phase=True)
    n, total = cfg.n_known, len(fleet) * n_bursts
    buffer = max(1, min(_CAMPAIGN_BUFFER, total))  # an empty fleet reads as no rows
    if cfg.burst_mode == "iridium":
        alphabet, known = None, iridium_known_symbols(n)[None]
    else:
        alphabet, known = make_constellation("qpsk"), np.empty((buffer, n), dtype=complex)

    def symbols(rows: slice) -> np.ndarray:
        return known if alphabet is None else known[rows]

    samples = np.empty((buffer, n), dtype=complex)
    keyed = _keyed_generators((campaign_seed,), (len(fleet), n_bursts))
    blocks = []
    for first in range(0, total, buffer):
        stop = min(first + buffer, total)
        # the buffer's rows of each satellite it reaches
        for si in range(first // n_bursts, (stop - 1) // n_bursts + 1):
            rows = slice(max(first, si * n_bursts) - first,
                         min(stop, (si + 1) * n_bursts) - first)
            # the draws fill a QPSK campaign's symbols into the buffer
            samples[rows] = _synthesize_rows(keyed, rows.stop - rows.start, symbols(rows),
                                             fleet[si][1], ch, alphabet, cfg.cfo_jitter)[0]
        for start in range(0, stop - first, _BLOCK):
            rows = slice(start, min(start + _BLOCK, stop - first))
            blocks.append(_extract_stack(samples[rows], symbols(rows), first=first + start)[0])
    names, codes = np.unique([sat or "unknown" for sat, _ in fleet], return_inverse=True)
    return _table(names, np.repeat(codes, n_bursts), [cfg.snr_db] * total, blocks)


def _share_names(*coded) -> list:
    """Coded id pairs (names, codes), each over its own sorted names (such
    as the ``coded_ids`` of tables), recoded over the sorted union of all
    the names: ``names`` one array shared by every pair, and ``codes``
    each row's index into it."""
    names = np.unique(np.concatenate([own for own, _ in coded]))
    return [(names, np.searchsorted(names, own)[codes]) for own, codes in coded]


def _rows_by_satellite(ids: tuple) -> list:
    """Each satellite's rows in table order, from one stable sort: a
    ``(code, rows)`` pair, in code order, for every satellite of the coded
    ids ``(names, codes)`` (see ``_share_names``) that has rows."""
    codes = ids[1]
    counts = np.bincount(codes)
    present = np.flatnonzero(counts)
    rows = np.split(np.argsort(codes, kind="stable"), np.cumsum(counts[present])[:-1])
    return list(zip(present, rows))


def _grouped_means(ids: tuple, matrix: np.ndarray, start: int = 0, stop: int | None = None,
                   size: int | None = None) -> tuple[tuple, np.ndarray]:
    """Means of consecutive per-satellite row chunks.

    ``ids`` are the rows' coded satellite ids (see ``_share_names``). Each
    satellite of the table (in code order, which is sorted id order)
    contributes its rows ``[start:stop]`` in table order: all of them as
    one chunk when ``size`` is None, otherwise disjoint chunks of ``size``
    rows with a short tail dropped. Returns the chunks' coded satellite ids
    and their (chunks x features) means.
    """
    chunk_codes, means = [], []
    for code, rows in _rows_by_satellite(ids):
        x = matrix[rows[start:stop]]
        n = x.shape[0] if size is None else size
        if n < 1:
            raise AuthConfigError(f"satellite {ids[0][code]} has no rows to average")
        k = x.shape[0] // n
        means.append(x[: k * n].reshape(k, n, matrix.shape[1]).mean(axis=1))
        chunk_codes.append(np.full(k, code))
    return (ids[0], np.concatenate(chunk_codes)), np.concatenate(means)


def _beside(fn, *args):
    """Start ``fn(*args)`` in a forked child if a second CPU can run it
    beside this process (Linux, two or more usable CPUs, one Python thread),
    else defer it. Returns ``join(wait=True)``: ``fn``'s result, or its
    exception raised here; with ``wait`` false the child is killed. The
    child is reaped either way. It pickles its result or exception into a
    pipe and leaves only by ``os._exit``, so it flushes no stdio buffer and
    runs no exit hook of this process."""
    def deferred(wait=True):
        return fn(*args) if wait else None

    if not (sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1):
        return deferred
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the call runs here
        os.close(read_fd)
        os.close(write_fd)
        return deferred
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = fn(*args)
            except Exception as exc:
                outcome = exc
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)

    def join(wait=True):
        outcome = None
        try:
            with open(read_fd, "rb") as pipe:
                outcome = pickle.load(pipe) if wait else None
        except (EOFError, pickle.UnpicklingError):
            pass  # the child closed the pipe without a result and exits
        except BaseException:
            wait = False  # interrupted: stop the child
            raise
        finally:
            if not wait:
                import signal  # here only: importing it costs start-up time

                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
        if not wait:
            return None
        if outcome is None:
            raise RuntimeError(f"{fn.__name__} in a forked child exited with status "
                               f"{os.waitstatus_to_exitcode(status)} and no result")
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return join


def run_auth_experiment(cfg: FleetProtocolConfig | None = None, seed: int = 0) -> AuthReport:
    """Two independent campaigns over one synthetic fleet: enrollment
    fingerprints and weights from campaign A, probes from campaign B,
    ROC/AUC per scoring strategy plus accumulation curves."""
    cfg = cfg or FleetProtocolConfig()
    fleet = generate_fleet(cfg.n_sats, cfg.spread, seed=seed)
    # the campaigns share no state: a second CPU runs B while A runs here
    join_b = _beside(simulate_campaign, fleet, cfg, 2 * seed + 1, cfg.n_probe)
    table_a = None
    try:
        table_a = simulate_campaign(fleet, cfg, campaign_seed=2 * seed + 2,
                                    n_bursts=cfg.n_enroll)
        mu = table_a.matrix.mean(axis=0)
        sd = table_a.matrix.std(axis=0, ddof=1)
        sd = np.where(sd > 1e-300, sd, 1.0)
        normalizer = (mu, sd)
        dr_table = balanced_dr(table_a, n_bal=cfg.n_bal, n_trials=cfg.n_dr_trials,
                               seed=seed + 101)
    except BaseException as exc:
        # the serial order's precedence: A's error, then B's, then the DR
        # table's; an interrupt stops B at once
        join_b(wait=table_a is not None and isinstance(exc, Exception))
        raise
    table_b = join_b()
    beta = moments(make_constellation("qpsk" if cfg.burst_mode != "iridium" else "bpsk").points).beta
    ids_a, ids_b = _share_names(table_a.coded_ids, table_b.coded_ids)
    enrollment = _grouped_means(ids_a, table_a.matrix)

    def split(name, probes, refs=enrollment):
        """Genuine and impostor scores of strategy ``name`` for the
        ``(ids, means)`` pairs of probes against references."""
        subset, mode = STRATEGIES[name]
        (probe_ids, p), (ref_ids, r) = probes, refs
        p, r = _columns(p, subset, normalizer), _columns(r, subset, normalizer)
        if mode is None:
            prec = _glrt_precision(_columns(table_a.matrix, subset, normalizer), ids_a,
                                   cfg.ridge)
            scores = glrt_score(p, r, prec)
        else:
            scores = iwat_score(p, r, iwat_weights(dr_table, subset, mode).weights)
        return _genuine_impostor(scores, probe_ids, ref_ids)

    probes = _grouped_means(ids_b, table_b.matrix, size=cfg.probe_acc)
    results = {}
    roc_curves = {}
    for name in STRATEGIES:
        genuine, impostor = split(name, probes)
        roc = roc_curves[name] = roc_auc(genuine, impostor)
        results[name] = StrategyResult(
            auc=roc.auc, pd_at_fa=roc.pd_at_fa, n_genuine=len(genuine), n_impostor=len(impostor)
        )

    # accumulation curves for the PA-led and IQ-only strategies
    grid = [n for n in cfg.n_acc_grid if n <= cfg.n_probe]
    chunks = [_grouped_means(ids_b, table_b.matrix, size=n) for n in grid]

    def auc(name, probes):
        """The AUC alone: the curves need no threshold sweep. Sorted
        genuine scores search the impostors faster, for the same counts."""
        genuine, impostor = split(name, probes)
        return _auc(np.sort(genuine), np.sort(impostor))

    auc_vs_nacc = {name: ([int(n) for n in grid], [auc(name, c) for c in chunks])
                   for name in ("pa_only_3", "dr2_iwat_all6", "iq_only_2")}

    # enrollment-only threshold at the target false-accept rate: each
    # satellite's first half of enrollment bursts enrolls, the rest probes
    half = cfg.n_enroll // 2
    _, impostor = split("dr2_iwat_all6", _grouped_means(ids_a, table_a.matrix, start=half),
                        refs=_grouped_means(ids_a, table_a.matrix, stop=half))
    impostor = np.sort(impostor)
    k = int(math.floor(cfg.target_fa * impostor.size))
    threshold = float(impostor[k] if k < impostor.size else math.inf)

    return AuthReport(
        strategies=results,
        dr_table=dr_table,
        weights=iwat_weights(dr_table, *STRATEGIES["dr2_iwat_all6"]),
        auc_vs_nacc=auc_vs_nacc,
        threshold=threshold,
        fleet=fleet,
        beta=float(beta),
        roc_curves=roc_curves,
    )


def feature_table_from_bursts(bursts, pipeline: PipelineConfig | None = None) -> FeatureTable:
    """Extract a feature table from burst objects (synthetic or file-loaded),
    so recorded data in the burst-file format can replace the simulator.

    One feature row per burst, numbered per satellite in arrival order, with
    the SNR the burst metadata records. The iterable is read and extracted in
    blocks of ``_BLOCK`` bursts, so a stream of bursts is never held in
    memory at once."""
    n_known = (pipeline or PipelineConfig()).n_known
    ids, snrs, blocks = [], [], []
    stream = iter(bursts)
    while block := list(itertools.islice(stream, _BLOCK)):
        blocks.append(_extract_bursts(block, n_known, first=len(ids))[0])
        ids += [b.meta.satellite_id or "unknown" for b in block]
        snrs += [b.meta.channel.snr_db for b in block]
    return _table(*np.unique(ids, return_inverse=True), snrs, blocks)


def _table(names: np.ndarray, codes: np.ndarray, snrs: list, blocks: list) -> FeatureTable:
    """The table of per-burst satellite ids, coded as ``names[codes]``, SNRs
    (None, noise-free, reads as inf) and feature blocks, with each
    satellite's bursts numbered in arrival order."""
    burst_index = np.empty(codes.size, dtype=int)
    for _, rows in _rows_by_satellite((names, codes)):
        burst_index[rows] = np.arange(rows.size)
    return FeatureTable(
        satellite_ids=names[codes],
        burst_index=burst_index,
        snr_db=np.array([math.inf if s is None else s for s in snrs], dtype=float),
        matrix=np.concatenate(blocks) if blocks else np.empty((0, len(FEATURE_NAMES))),
    )
