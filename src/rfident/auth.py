"""Fingerprint accumulation, balanced-bootstrap discrimination ratios,
cross-campaign stability, identifiability-weighted authentication scoring,
a Mahalanobis baseline, and ROC/AUC evaluation.

The discrimination-ratio estimator compares the spread of per-satellite
half-sample means against the spread of half-sample differences, so a
feature carrying no satellite information scores near 1/sqrt(2) = 0.707.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import ConfigError, make_constellation, moments
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
    _draw_channel_noise,
    _synthesize_rows,
    generate_fleet,
    iridium_known_symbols,
    random_known_symbols,
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


class AuthConfigError(ValueError):
    """A failure that depends on the data, such as too few satellites with
    enough messages or a singular covariance; bad configuration values raise
    ``ConfigError`` instead."""


def accumulate(features, snrs_db) -> np.ndarray:
    """SNR-weighted mean of per-burst feature vectors, each weighted by its
    burst's linear SNR. ``features`` is a (bursts x features) array or a
    sequence of ``FeatureVector``s."""
    x = np.asarray(
        [f.as_array() if hasattr(f, "as_array") else np.asarray(f, dtype=float) for f in features]
    )
    snrs_db = np.asarray(snrs_db, dtype=float)
    if x.size == 0 or x.shape[0] != snrs_db.size:
        raise ValueError("features and snrs must be non-empty and equal length")
    w = 10.0 ** (snrs_db / 10.0)
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValueError("all-zero accumulation weights")
    return (w[:, None] * x).sum(axis=0) / total


@dataclass(frozen=True)
class FeatureTable:
    """Long-format per-burst feature matrix (n_bursts x 13)."""

    satellite_ids: np.ndarray
    burst_index: np.ndarray
    snr_db: np.ndarray
    matrix: np.ndarray
    feature_names: tuple = FEATURE_NAMES

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
    ids = np.asarray(table.satellite_ids)
    uniq, counts = np.unique(ids, return_counts=True)
    eligible = uniq[counts >= n_bal]
    excluded = tuple(uniq[counts < n_bal])
    if eligible.size < 2:
        raise AuthConfigError("need at least 2 satellites with >= n_bal messages")
    half = n_bal // 2
    rng = np.random.default_rng(seed)
    n_feat = table.matrix.shape[1]
    drs = np.zeros((n_trials, n_feat))
    idx_by_sat = {s: np.flatnonzero(ids == s) for s in eligible}
    for t in range(n_trials):
        m_a = np.zeros((eligible.size, n_feat))
        m_b = np.zeros((eligible.size, n_feat))
        for si, s in enumerate(eligible):
            pick = rng.choice(idx_by_sat[s], size=n_bal, replace=False)
            m_a[si] = table.matrix[pick[:half]].mean(axis=0)
            m_b[si] = table.matrix[pick[half:n_bal]].mean(axis=0)
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
    pair, one row of means per satellite, as ``_grouped_means`` returns."""
    by_id = []
    for ids, means in (a, b):
        uniq, counts = np.unique(ids, return_counts=True)
        if np.any(counts > 1):
            raise AuthConfigError(f"satellite {uniq[np.argmax(counts > 1)]} appears more than "
                                  "once in a campaign")
        by_id.append(dict(zip(np.asarray(ids).tolist(), np.asarray(means, dtype=float))))
    common = sorted(by_id[0].keys() & by_id[1].keys())
    if len(common) < 3:
        raise AuthConfigError("need at least 3 common satellites")
    from scipy import stats  # loaded on first use: it is most of `import rfident`

    a, b = (np.asarray([m[s] for s in common]) for m in by_id)
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
        if np.any(w < -1e-12) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
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
    if mode == "equal":
        raw = np.ones(len(names))
    else:
        get = dr.dr if isinstance(dr, DrTable) else lambda k: float(dr[k])
        raw = np.array([get(k) for k in names], dtype=float)
        if not np.all(raw >= 0):
            raise ConfigError("discrimination ratios must be nonnegative numbers")
        if mode == "dr2":
            raw = raw**2
        elif mode != "dr":
            raise ConfigError(f"unknown weight mode {mode!r}")
    total = float(np.sum(raw))
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
    two fingerprint arrays. Accumulating one feature at a time keeps the
    temporaries at (probes x enrollment) size and, for fewer than eight
    features, adds in the same order as a per-pair ``np.sum``."""
    out = np.zeros((probes.shape[0], enrollment.shape[0]))
    for f, w_f in enumerate(weights):
        out += w_f * (probes[:, None, f] - enrollment[None, :, f]) ** 2
    return out


def _glrt_precision(x: np.ndarray, ids, ridge: float) -> np.ndarray:
    """Inverse of the ridge-regularized covariance of the rows of x, each row
    centred on the mean of its satellite's rows."""
    x = x - _grouped_means(ids, x)[1][np.unique(ids, return_inverse=True)[1]]
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


def _genuine_impostor(scores: np.ndarray, probe_ids, ref_ids) -> tuple:
    """Split a (probes x refs) score matrix into genuine scores (probe and
    reference are the same satellite) and impostor scores (all others)."""
    missing = ~np.isin(probe_ids, ref_ids)
    if np.any(missing):
        raise AuthConfigError(f"probe satellite {probe_ids[np.argmax(missing)]} not enrolled")
    same = probe_ids[:, None] == ref_ids[None, :]
    return scores[same], scores[~same]


@dataclass(frozen=True)
class RocCurve:
    points: np.ndarray  # ordered (fa_rate, detection_rate)
    auc: float
    pd_at_fa: dict


def roc_auc(genuine_scores, impostor_scores) -> RocCurve:
    """Threshold-sweep ROC for lower-is-genuine scores; AUC by the
    rank statistic with ties counted one half, and the detection rate at
    false-accept rates 0.01 and 0.1."""
    g = np.sort(np.asarray(genuine_scores, dtype=float))
    i = np.sort(np.asarray(impostor_scores, dtype=float))
    if g.size == 0 or i.size == 0:
        raise AuthConfigError("both score lists must be non-empty")
    # P(impostor > genuine) + 0.5 P(tie), via counts of impostors below/at each genuine
    below = np.searchsorted(i, g, side="left")
    at = np.searchsorted(i, g, side="right") - below
    auc = float(np.sum((i.size - below - at) + 0.5 * at) / (g.size * i.size))

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
            "auc_vs_nacc": {k: dict(zip(("n_acc", "auc"), v)) for k, v in self.auc_vs_nacc.items()},
            "fleet": [
                {"satellite_id": s, "eps": p.eps, "phi": p.phi,
                 "alpha3": [p.alpha3.real, p.alpha3.imag]}
                for s, p in self.fleet
            ],
        }


def simulate_campaign(
    fleet, cfg: FleetProtocolConfig, campaign_seed: int, n_bursts: int | None = None
) -> FeatureTable:
    """One recording campaign: fresh noise, channel phases, and CFO per burst;
    the fleet fingerprints stay fixed.

    Burst ``bi`` of satellite ``si`` takes its CFO, its QPSK symbols (unless
    the Iridium pilots are sent), its channel and its noise, in that order,
    from ``default_rng((campaign_seed, si, bi))``; each satellite's bursts
    are then synthesized and their features extracted as one stack."""
    qpsk = make_constellation("qpsk")
    n_bursts = n_bursts if n_bursts is not None else cfg.n_enroll
    if n_bursts < 1:
        raise ConfigError(f"a campaign needs n_bursts >= 1, got {n_bursts}")
    # one channel for every burst: the per-burst CFO is passed on its own
    ch = ChannelConfig(snr_db=cfg.snr_db, rician_k_db=cfg.rician_k_db, random_phase=True)
    x = np.tile(np.resize(iridium_known_symbols(), cfg.n_known), (n_bursts, 1))
    ids, blocks = [], []
    for si, (sat, p) in enumerate(fleet):
        cfo, draws = [], []
        for bi in range(n_bursts):
            rng = np.random.default_rng((campaign_seed, si, bi))
            cfo.append(float(rng.uniform(-cfg.cfo_jitter, cfg.cfo_jitter)))
            if cfg.burst_mode != "iridium":
                x[bi] = random_known_symbols(qpsk, cfg.n_known, rng)
            draws.append(_draw_channel_noise(ch, rng, cfg.n_known))
        samples = _synthesize_rows(x, p, ch, cfo, draws)
        blocks.append(_extract_stack(samples, x, first=len(ids))[0])
        ids += [sat or "unknown"] * n_bursts
    return _table(ids, [cfg.snr_db if cfg.snr_db is not None else math.inf] * len(ids), blocks)


def _grouped_means(ids, matrix: np.ndarray, start: int = 0, stop: int | None = None,
                   size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Means of consecutive per-satellite row chunks.

    Each satellite (in sorted id order) contributes its rows ``[start:stop]``
    in table order: all of them as one chunk when ``size`` is None, otherwise
    disjoint chunks of ``size`` rows with a short tail dropped. Returns the
    chunks' satellite ids and their (chunks x features) means.
    """
    ids = np.asarray(ids)
    chunk_ids, means = [], []
    for s in np.unique(ids):
        x = matrix[np.flatnonzero(ids == s)[start:stop]]
        n = x.shape[0] if size is None else size
        if n < 1:
            raise AuthConfigError(f"satellite {s} has no rows to average")
        k = x.shape[0] // n
        means.append(x[: k * n].reshape(k, n, matrix.shape[1]).mean(axis=1))
        chunk_ids += [str(s)] * k
    return np.asarray(chunk_ids), np.concatenate(means)


def run_auth_experiment(cfg: FleetProtocolConfig | None = None, seed: int = 0) -> AuthReport:
    """Two independent campaigns over one synthetic fleet: enrollment
    fingerprints and weights from campaign A, probes from campaign B,
    ROC/AUC per scoring strategy plus accumulation curves."""
    cfg = cfg or FleetProtocolConfig()
    fleet = generate_fleet(cfg.n_sats, cfg.spread, seed=seed)
    table_a = simulate_campaign(fleet, cfg, campaign_seed=2 * seed + 2, n_bursts=cfg.n_enroll)
    table_b = simulate_campaign(fleet, cfg, campaign_seed=2 * seed + 1, n_bursts=cfg.n_probe)

    mu = table_a.matrix.mean(axis=0)
    sd = table_a.matrix.std(axis=0, ddof=1)
    sd = np.where(sd > 1e-300, sd, 1.0)
    normalizer = (mu, sd)

    dr_table = balanced_dr(table_a, n_bal=cfg.n_bal, n_trials=cfg.n_dr_trials, seed=seed + 101)
    beta = moments(make_constellation("qpsk" if cfg.burst_mode != "iridium" else "bpsk")).beta
    enrollment = _grouped_means(table_a.satellite_ids, table_a.matrix)

    def split(name, probes, refs=enrollment):
        """Genuine and impostor scores of strategy ``name`` for the
        ``(ids, means)`` pairs of probes against references."""
        subset, mode = STRATEGIES[name]
        (probe_ids, p), (ref_ids, r) = probes, refs
        p, r = _columns(p, subset, normalizer), _columns(r, subset, normalizer)
        if mode is None:
            prec = _glrt_precision(_columns(table_a.matrix, subset, normalizer),
                                   table_a.satellite_ids, cfg.ridge)
            scores = glrt_score(p, r, prec)
        else:
            scores = iwat_score(p, r, iwat_weights(dr_table, subset, mode).weights)
        return _genuine_impostor(scores, probe_ids, ref_ids)

    probes = _grouped_means(table_b.satellite_ids, table_b.matrix, size=cfg.probe_acc)
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
    chunks = [_grouped_means(table_b.satellite_ids, table_b.matrix, size=n) for n in grid]
    auc_vs_nacc = {name: ([int(n) for n in grid], [roc_auc(*split(name, c)).auc for c in chunks])
                   for name in ("pa_only_3", "dr2_iwat_all6", "iq_only_2")}

    # enrollment-only threshold at the target false-accept rate: each
    # satellite's first half of enrollment bursts enrolls, the rest probes
    half = cfg.n_enroll // 2
    _, impostor = split("dr2_iwat_all6",
                        _grouped_means(table_a.satellite_ids, table_a.matrix, start=half),
                        refs=_grouped_means(table_a.satellite_ids, table_a.matrix, stop=half))
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
        for b in block:
            ids.append(b.meta.satellite_id or "unknown")
            snrs.append(b.meta.channel.snr_db if b.meta.channel.snr_db is not None else math.inf)
    return _table(ids, snrs, blocks)


def _table(ids: list, snrs: list, blocks: list) -> FeatureTable:
    """The table of per-burst satellite ids, SNRs and feature blocks, with
    each satellite's bursts numbered in arrival order."""
    counters: dict = {}
    idxs = []
    for sat in ids:
        counters[sat] = counters.get(sat, -1) + 1
        idxs.append(counters[sat])
    return FeatureTable(
        satellite_ids=np.asarray(ids),
        burst_index=np.asarray(idxs),
        snr_db=np.asarray(snrs, dtype=float),
        matrix=np.concatenate(blocks) if blocks else np.empty((0, len(FEATURE_NAMES))),
    )
