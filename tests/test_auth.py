import itertools
import json
import math
import os
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from rfident import auth
from rfident.auth import (
    ALL6_FEATURES,
    CRB4_FEATURES,
    IQ2_FEATURES,
    OSC2_FEATURES,
    PA3_FEATURES,
    AuthConfigError,
    AuthReport,
    DrTable,
    DrRow,
    FeatureTable,
    FleetProtocolConfig,
    WeightVector,
    _genuine_impostor,
    _glrt_precision,
    _grouped_means,
    _rows_by_satellite,
    _share_names,
    accumulate,
    balanced_dr,
    cross_stability,
    feature_table_from_bursts,
    glrt_score,
    iwat_score,
    iwat_weights,
    roc_auc,
    run_auth_experiment,
    simulate_campaign,
)
from rfident.constellation import ConfigError, make_constellation
from rfident.features import (
    _FLAGS,
    _extract_bursts,
    FEATURE_NAMES,
    DegenerateInputError,
    PipelineConfig,
)
from rfident.signal_model import (
    ChannelConfig,
    generate_fleet,
    iridium_known_symbols,
    random_known_symbols,
    synthesize_burst,
)

N_FEAT = len(FEATURE_NAMES)

# published balanced discrimination ratios for the six-feature scoring set
PUBLISHED_DRS = {
    "amp_var": 4.48,
    "amp_range": 4.29,
    "phase_acf1": 2.40,
    "amp_acf1": 1.45,
    "amp_kurtosis": 0.92,
    "evm": 0.86,
}


def _code_ids(*id_lists) -> list:
    """Oracle: each list of satellite ids as a coded pair (names, codes)
    over the sorted unique ids of all the lists, coded in one np.unique."""
    names, codes = np.unique(np.concatenate(id_lists), return_inverse=True)
    return [(names, c) for c in np.split(codes, np.cumsum([len(i) for i in id_lists])[:-1])]


def _table(ids, matrix, snr=15.0):
    ids = np.asarray(ids)
    return FeatureTable(
        satellite_ids=ids,
        burst_index=np.arange(ids.size),
        snr_db=np.full(ids.size, snr),
        matrix=np.asarray(matrix, dtype=float),
    )


def test_accumulate_equal_snrs_is_plain_mean():
    rows = np.arange(3 * N_FEAT, dtype=float).reshape(3, N_FEAT)
    out = accumulate(rows, [10.0, 10.0, 10.0])
    assert np.allclose(out, rows.mean(axis=0))


def test_accumulate_snr_weighting():
    rows = np.vstack([np.zeros(N_FEAT), np.ones(N_FEAT)])
    out = accumulate(rows, [10.0, 20.0])  # weights 10 and 100
    assert np.allclose(out, 100.0 / 110.0)


def test_accumulate_variance_law():
    # Var(mean of n) * n / Var(single) close to 1 over repetitions; the
    # single-burst variance comes from the full pool for a tight reference
    rng = np.random.default_rng(0)
    for n_msg in (10, 100):
        means = []
        singles = []
        for _ in range(200):
            x = rng.normal(size=(n_msg, N_FEAT))
            means.append(accumulate(x, np.full(n_msg, 12.0)))
            singles.extend(x)
        ratio = np.var(np.asarray(means), axis=0) * n_msg / np.var(np.asarray(singles), axis=0)
        assert np.all(ratio > 0.7) and np.all(ratio < 1.3)


def test_accumulate_noise_reduction_factor():
    rng = np.random.default_rng(1)
    n_msg = 500
    means = np.asarray(
        [accumulate(rng.normal(size=(n_msg, N_FEAT)), np.full(n_msg, 10.0)) for _ in range(400)]
    )
    reduction = 1.0 / np.std(means, axis=0)
    assert np.all(reduction > 0.7 * math.sqrt(n_msg))
    assert np.all(reduction < 1.3 * math.sqrt(n_msg))


def test_accumulate_errors():
    with pytest.raises(ValueError):
        accumulate(np.ones((0, N_FEAT)), [])
    with pytest.raises(ValueError):
        accumulate(np.ones((2, N_FEAT)), [-math.inf, -math.inf])
    with pytest.raises(ValueError, match="bursts x features"):
        accumulate(np.ones(N_FEAT), np.full(N_FEAT, 10.0))
    # an SNR with no finite linear weight > 0 names itself, not a numpy warning
    for bad in (math.inf, 4000.0, math.nan):
        with pytest.raises(ConfigError, match="snrs_db"):
            accumulate(np.ones((2, N_FEAT)), [10.0, bad])


def test_accumulate_weights_whose_sum_overflows():
    # each 3080 dB weight is finite (~1e308); their sum is not
    assert accumulate(np.ones((2, 3)), [3080.0, 3080.0]).tolist() == [1.0, 1.0, 1.0]


def test_balanced_dr_identical_feature_is_zero():
    rng = np.random.default_rng(2)
    ids = np.repeat([f"S{i}" for i in range(4)], 40)
    matrix = rng.normal(size=(ids.size, N_FEAT))
    matrix[:, 0] = 3.14  # constant feature
    dr = balanced_dr(_table(ids, matrix), n_bal=30, n_trials=10, seed=0)
    assert dr.rows[FEATURE_NAMES[0]].mean == 0.0


def test_balanced_dr_separated_feature_is_strong():
    rng = np.random.default_rng(3)
    ids = np.repeat([f"S{i}" for i in range(5)], 40)
    matrix = rng.normal(size=(ids.size, N_FEAT))
    matrix[:, 2] = np.repeat(np.arange(5, dtype=float), 40) + 1e-3 * rng.normal(size=ids.size)
    dr = balanced_dr(_table(ids, matrix), n_bal=30, n_trials=10, seed=0)
    row = dr.rows[FEATURE_NAMES[2]]
    assert row.mean > 3.0
    assert row.verdict == "strong"


def test_balanced_dr_noise_floor_near_inv_sqrt2():
    # a feature with no satellite dependence scores about 0.707
    rng = np.random.default_rng(4)
    ids = np.repeat([f"S{i}" for i in range(20)], 40)
    matrix = rng.normal(size=(ids.size, N_FEAT))
    dr = balanced_dr(_table(ids, matrix), n_bal=30, n_trials=30, seed=1)
    means = [dr.rows[k].mean for k in FEATURE_NAMES]
    assert all(0.5 < m < 0.95 for m in means)
    assert abs(np.mean(means) - 1 / math.sqrt(2)) < 0.06


def test_balanced_dr_affine_invariance():
    rng = np.random.default_rng(5)
    ids = np.repeat([f"S{i}" for i in range(6)], 40)
    matrix = rng.normal(size=(ids.size, N_FEAT))
    a = balanced_dr(_table(ids, matrix), n_bal=20, n_trials=8, seed=7)
    b = balanced_dr(_table(ids, 5.5 * matrix - 2.0), n_bal=20, n_trials=8, seed=7)
    for k in FEATURE_NAMES:
        assert a.rows[k].mean == pytest.approx(b.rows[k].mean, abs=1e-9)


def test_balanced_dr_exclusion_and_errors():
    rng = np.random.default_rng(6)
    ids = np.asarray(["A"] * 40 + ["B"] * 40 + ["C"] * 10)
    matrix = rng.normal(size=(ids.size, N_FEAT))
    dr = balanced_dr(_table(ids, matrix), n_bal=30, n_trials=5, seed=0)
    assert dr.excluded_satellites == ("C",)
    with pytest.raises(AuthConfigError):
        balanced_dr(_table(ids[:50], matrix[:50]), n_bal=30, n_trials=5, seed=0)
    # too small a split or no trials is bad configuration whatever the data
    for n_bal, n_trials in ((1, 5), (30, 0)):
        with pytest.raises(ConfigError):
            balanced_dr(_table(ids, matrix), n_bal=n_bal, n_trials=n_trials, seed=0)
    # numpy's own error for a negative seed would be a plain ValueError
    with pytest.raises(ConfigError, match="non-negative"):
        balanced_dr(_table(ids, matrix), n_bal=30, n_trials=5, seed=-1)


def test_verdict_banding():
    table = DrTable(rows={
        "a": DrRow(4.5, 0.1, 5, "strong"),
        "b": DrRow(2.0, 0.1, 5, "moderate"),
        "c": DrRow(1.2, 0.1, 5, "detectable"),
        "d": DrRow(0.9, 0.1, 5, "weak"),
        "e": DrRow(0.5, 0.1, 5, "not_discriminative"),
    })
    from rfident.auth import _verdict

    assert _verdict(4.5) == "strong"
    assert _verdict(3.0) == "moderate"  # strong needs strictly more than 3
    assert _verdict(1.5) == "moderate"
    assert _verdict(1.0) == "detectable"
    assert _verdict(0.8) == "weak"
    assert _verdict(0.79) == "not_discriminative"
    assert [k for k, _ in table.ordered()] == ["a", "b", "c", "d", "e"]


def _cols(x, feature_names):
    return np.asarray(x, dtype=float)[..., [FEATURE_NAMES.index(k) for k in feature_names]]


def _fingerprints(means, prefix="S"):
    """An (ids, means) fingerprint pair, one satellite per row of means."""
    means = np.asarray(means, dtype=float)
    return np.asarray([f"{prefix}{i}" for i in range(means.shape[0])]), means


def test_cross_stability_self_correlation():
    # campaign B lists the satellites in another order and adds one that A
    # lacks: rows are matched by id over the common satellites
    rng = np.random.default_rng(7)
    ids, means = _fingerprints(rng.normal(size=(24, N_FEAT)))
    order = rng.permutation(24)
    out = cross_stability((ids, means), (np.append(ids[order], "X"),
                                         np.vstack([means[order], rng.normal(size=N_FEAT)])))
    for name, row in out.items():
        assert row.defined
        assert row.r == pytest.approx(1.0, abs=1e-12)


def test_cross_stability_independent_vectors_null():
    # null-distribution oracle: for n=24, P(|r| >= 0.5) is about 1.3%
    rng = np.random.default_rng(8)
    count, total = 0, 0
    for _ in range(40):
        a = _fingerprints(rng.normal(size=(24, N_FEAT)))
        b = _fingerprints(rng.normal(size=(24, N_FEAT)))
        out = cross_stability(a, b)
        for row in out.values():
            total += 1
            count += abs(row.r) >= 0.5
    assert count / total < 0.04


def test_cross_stability_zero_variance_flagged():
    ids, zeros = _fingerprints(np.zeros((5, N_FEAT)))
    rng = np.random.default_rng(9)
    fps_b = _fingerprints(rng.normal(size=(5, N_FEAT)))
    out = cross_stability((ids, zeros), fps_b)
    assert all(not row.defined for row in out.values())
    with pytest.raises(AuthConfigError):
        cross_stability((ids[:2], zeros[:2]), (fps_b[0][:2], fps_b[1][:2]))


def test_cross_stability_rejects_repeated_ids():
    # a campaign with two rows for one satellite has no single fingerprint
    # for it; the rows must not be silently dropped
    rng = np.random.default_rng(23)
    ids, means = _fingerprints(rng.normal(size=(5, N_FEAT)))
    repeated = np.array(["S0", "S1", "S2", "S3", "S1"])
    for a, b in (((repeated, means), (ids, means)), ((ids, means), (repeated, means))):
        with pytest.raises(AuthConfigError, match="S1"):
            cross_stability(a, b)


def test_cross_stability_equals_the_dict_match():
    # the rule cross_stability replaced: a dict per campaign, and the common
    # ids in sorted order; ids and means may come as lists
    rng = np.random.default_rng(41)
    ids_a = ["S3", "S10", "S7", "S1", "S22", "S5"]
    ids_b = ["S5", "S9", "S1", "S3", "S10", "S22", "S4"]
    means_a, means_b = rng.normal(size=(6, N_FEAT)), rng.normal(size=(7, N_FEAT))
    by_a, by_b = dict(zip(ids_a, means_a)), dict(zip(ids_b, means_b))
    common = sorted(by_a.keys() & by_b.keys())
    want_a, want_b = (np.asarray([m[s] for s in common]) for m in (by_a, by_b))
    for a, b in (((np.asarray(ids_a), means_a), (np.asarray(ids_b), means_b)),
                 ((ids_a, means_a.tolist()), (ids_b, means_b.tolist()))):
        out = cross_stability(a, b)
        for j, name in enumerate(FEATURE_NAMES):
            r, p = stats.pearsonr(want_a[:, j], want_b[:, j])
            assert (out[name].r, out[name].p_value, out[name].defined) == (float(r), float(p), True)


def test_iwat_weights_published_values():
    w = iwat_weights(PUBLISHED_DRS, tuple(PUBLISHED_DRS), mode="dr2")
    assert w.as_dict()["amp_var"] == pytest.approx(0.42, abs=0.01)
    assert sum(w.as_dict().values()) == pytest.approx(1.0, abs=1e-12)


def test_iwat_weights_corner_cases():
    w = iwat_weights({"a": 2.0, "b": 0.0}, ("a", "b"))
    assert w.as_dict() == {"a": 1.0, "b": 0.0}
    w6 = iwat_weights({k: 1.7 for k in "abcdef"}, tuple("abcdef"))
    assert np.allclose(w6.weights, 1 / 6)
    with pytest.raises(ValueError):
        iwat_weights({"a": 0.0}, ("a",))
    with pytest.raises(ConfigError, match="unknown weight mode 'dr3'"):
        iwat_weights({"a": 1.0}, ("a",), mode="dr3")


# an infinite or NaN ratio, and finite ratios whose squares or sum overflow
@pytest.mark.parametrize("drs, mode", [
    ({"amp_var": float("inf"), "evm": 1.0}, "dr2"),
    ({"amp_var": float("inf"), "evm": 1.0}, "dr"),
    ({"amp_var": float("nan"), "evm": 1.0}, "dr"),
    ({"amp_var": 1e200, "evm": 1.0}, "dr2"),
    ({"amp_var": 1e154, "evm": 1e154}, "dr2"),
    ({"amp_var": 1e308, "evm": 1e308}, "dr"),
])
def test_iwat_weights_refuse_ratios_without_finite_weights(drs, mode):
    # a RuntimeWarning would fail the test (pyproject filterwarnings)
    with pytest.raises(ConfigError, match="discrimination ratios"):
        iwat_weights(drs, tuple(drs), mode=mode)


def test_iwat_weights_keep_the_bits_of_large_finite_ratios():
    w = iwat_weights({"amp_var": 1e150, "evm": 1.0}, ("amp_var", "evm"))
    assert w.weights.tolist() == [1.0, 1e-300]
    w = iwat_weights({"amp_var": 1e300, "evm": 1e300}, ("amp_var", "evm"), mode="dr")
    assert w.weights.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("weights", [[float("nan")], [float("inf")], [0.5, float("nan")],
                                     [float("inf"), float("-inf")]])
def test_weight_vector_rejects_weights_that_are_not_finite(weights):
    with pytest.raises(ValueError, match="finite"):
        WeightVector(tuple("ab"[:len(weights)]), weights)


def test_weight_vector_needs_one_weight_per_feature_name():
    for names, weights in ((("a",), [0.5, 0.5]), (("a", "b"), [1.0]), (("a", "b"), [[0.5, 0.5]])):
        with pytest.raises(ValueError, match="feature names"):
            WeightVector(names, weights)


def test_iwat_weights_refuse_a_repeated_feature_name():
    for mode in ("dr2", "dr", "equal"):
        with pytest.raises(ConfigError, match="repeat"):
            iwat_weights({"a": 1.0, "b": 2.0}, ("a", "a"), mode=mode)


def test_iwat_weights_monotone():
    base = dict(PUBLISHED_DRS)
    w0 = iwat_weights(base, tuple(base)).as_dict()["phase_acf1"]
    base["phase_acf1"] += 0.5
    w1 = iwat_weights(base, tuple(base)).as_dict()["phase_acf1"]
    assert w1 > w0


def test_iwat_score_identical_row():
    rng = np.random.default_rng(10)
    _, means = _fingerprints(rng.normal(size=(5, N_FEAT)))
    w = iwat_weights({k: 1.0 for k in ALL6_FEATURES}, ALL6_FEATURES, mode="equal")
    enroll = _cols(means, w.feature_names)
    scores = iwat_score(enroll[3:4], enroll, w.weights)
    assert scores.shape == (1, 5)
    assert np.argmin(scores[0]) == 3
    assert scores[0, 3] == 0.0
    assert np.all(np.delete(scores[0], 3) > 0.0)


def test_iwat_score_single_feature_ranking():
    rng = np.random.default_rng(11)
    _, means = _fingerprints(rng.normal(size=(6, N_FEAT)))
    w = iwat_weights({"amp_var": 2.0}, ("amp_var",))
    probe = means[0] + 0.1
    scores = iwat_score(_cols(probe[None], w.feature_names),
                        _cols(means, w.feature_names), w.weights)[0]
    j = FEATURE_NAMES.index("amp_var")
    expected = (probe[j] - means[:, j]) ** 2
    assert np.array_equal(np.argsort(scores), np.argsort(expected))


def test_iwat_scale_invariance_of_ranking():
    rng = np.random.default_rng(12)
    _, means = _fingerprints(rng.normal(size=(6, N_FEAT)))
    probe = rng.normal(size=(1, N_FEAT))
    drs = {k: v for k, v in PUBLISHED_DRS.items()}
    w1 = iwat_weights(drs, tuple(drs), mode="dr2")
    scaled = {k: 3.0 * v for k, v in drs.items()}  # scales all weights equally
    w2 = iwat_weights(scaled, tuple(scaled), mode="dr2")
    d1, d2 = (iwat_score(_cols(probe, w.feature_names), _cols(means, w.feature_names),
                         w.weights)[0] for w in (w1, w2))
    assert np.argmin(d1) == np.argmin(d2)
    assert np.allclose(sorted(d1), sorted(d2))


@pytest.mark.parametrize("n_features", range(1, 8))
def test_iwat_score_equals_the_per_pair_sum(n_features):
    # fewer than eight features add in np.sum's order, bit for bit, and the
    # transposed result splits as a C-ordered matrix of the same scores does
    rng = np.random.default_rng(40 + n_features)
    probes = rng.normal(size=(50, n_features))
    refs = rng.normal(size=(7, n_features))
    w = rng.random(n_features)
    w /= w.sum()
    scores = iwat_score(probes, refs, w)
    want = np.array([[np.sum(w * (p - e) ** 2) for e in refs] for p in probes])
    assert scores.shape == want.shape
    assert scores.tobytes() == want.tobytes()
    ids = _code_ids(np.arange(50) % 7, np.arange(7))
    split, want_split = _genuine_impostor(scores, *ids), _genuine_impostor(want, *ids)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(split, want_split))


def test_iwat_empty_enrollment():
    # an empty enrollment scores to a (probes x 0) matrix, and splitting it
    # into genuine and impostor scores finds the probe's satellite not enrolled
    w = iwat_weights({"amp_var": 1.0}, ("amp_var",))
    scores = iwat_score(np.zeros((1, 1)), np.empty((0, 1)), w.weights)
    assert scores.shape == (1, 0)
    with pytest.raises(AuthConfigError, match="not enrolled"):
        _genuine_impostor(scores, *_code_ids(np.array(["S0"]), np.array([], dtype=str)))


def test_unenrolled_probe_satellite_is_rejected():
    scores = np.arange(6.0).reshape(3, 2)
    genuine, impostor = _genuine_impostor(scores, *_code_ids(np.array(["A", "B", "A"]),
                                                             np.array(["A", "B"])))
    assert list(genuine) == [0.0, 3.0, 4.0] and list(impostor) == [1.0, 2.0, 5.0]
    with pytest.raises(AuthConfigError, match="probe satellite C not enrolled"):
        _genuine_impostor(scores, *_code_ids(np.array(["A", "C", "A"]), np.array(["A", "B"])))


def test_glrt_identity_covariance_is_euclidean():
    rng = np.random.default_rng(13)
    _, means = _fingerprints(rng.normal(size=(30, N_FEAT)))
    subset = ("amp_var", "amp_range")
    idx = [FEATURE_NAMES.index(k) for k in subset]
    probe = rng.normal(size=N_FEAT)
    # per-burst rows for one satellite, whitened so the per-satellite-centered
    # sample covariance is exactly the identity
    n = 500
    x = rng.normal(size=(n, N_FEAT))
    x -= x.mean(axis=0)
    chol = np.linalg.cholesky(np.cov(x, rowvar=False, ddof=1))
    x = x @ np.linalg.inv(chol).T

    def glrt(rows, ids):
        prec = _glrt_precision(_cols(rows, subset), _code_ids(ids)[0], ridge=0.0)
        return glrt_score(_cols(probe[None], subset), _cols(means, subset), prec)[0]

    euclid = np.sum((probe[idx] - means[:, idx]) ** 2, axis=1)
    assert glrt(x, np.repeat(["a"], n)) == pytest.approx(euclid, rel=1e-9, abs=1e-12)
    # two satellites far apart: centring each on its own mean leaves the same
    # rows twice, so the pooled covariance is 2(n-1)/(2n-1) times the identity
    offset = np.zeros(N_FEAT)
    offset[idx] = 100.0
    scores = glrt(np.vstack([x + offset, x - offset]), np.repeat(["a", "b"], n))
    assert scores == pytest.approx(euclid * (2 * n - 1) / (2 * n - 2), rel=1e-9)


def test_glrt_identical_row_scores_zero():
    rng = np.random.default_rng(14)
    subset = ("amp_var", "amp_range", "amp_acf1")
    ids = np.repeat([f"S{i:02d}" for i in range(20)], 10)
    rows = rng.normal(size=(ids.size, N_FEAT))
    (names, enroll_ids), means = _grouped_means(_code_ids(ids)[0], rows)
    prec = _glrt_precision(_cols(rows, subset), _code_ids(ids)[0], ridge=1e-6)
    enroll = _cols(means, subset)
    scores = glrt_score(enroll[4:5], enroll, prec)[0]
    assert names[enroll_ids[4]] == "S04"
    assert scores[4] == pytest.approx(0.0, abs=1e-12)
    assert np.argmin(scores) == 4


def test_glrt_precision_rejects_singular_covariance():
    # a column that copies another leaves the covariance rank-deficient;
    # only a positive ridge makes it invertible
    rng = np.random.default_rng(15)
    x = rng.normal(size=(50, 2))
    x = np.column_stack([x, x[:, 0]])
    ids = _code_ids(np.repeat(["a", "b"], 25))[0]
    with pytest.raises(AuthConfigError, match="singular regularized covariance"):
        _glrt_precision(x, ids, ridge=0.0)
    prec = _glrt_precision(x, ids, ridge=1e-6)
    assert prec.shape == (3, 3) and np.all(np.isfinite(prec))


def test_roc_auc_perfect_separation():
    roc = roc_auc([0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
    assert roc.auc == 1.0
    assert roc.pd_at_fa[0.01] == 1.0


def test_roc_auc_identical_distributions():
    rng = np.random.default_rng(16)
    x = rng.normal(size=4000)
    y = rng.normal(size=4000)
    roc = roc_auc(x, y)
    assert abs(roc.auc - 0.5) < 0.03


def test_roc_auc_hand_computed_with_ties():
    # genuine {1,2}, impostor {2,3}: pairs (1,2)+,(1,3)+,(2,2)tie,(2,3)+ -> 3.5/4
    roc = roc_auc([1.0, 2.0], [2.0, 3.0])
    assert roc.auc == pytest.approx(0.875)


def _brute_force_auc(genuine, impostor):
    wins = 0.0
    for g, i in itertools.product(genuine, impostor):
        if i > g:
            wins += 1.0
        elif i == g:
            wins += 0.5
    return wins / (len(genuine) * len(impostor))


def test_roc_auc_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = np.round(rng.normal(size=rng.integers(5, 40)), 1)
        i = np.round(rng.normal(0.5, 1.0, size=rng.integers(5, 40)), 1)
        roc = roc_auc(g, i)
        assert roc.auc == pytest.approx(_brute_force_auc(list(g), list(i)), abs=1e-12)


def test_roc_auc_monotone_transform_invariance():
    rng = np.random.default_rng(18)
    g = rng.normal(size=50)
    i = rng.normal(0.4, 1.1, size=70)
    a1 = roc_auc(g, i).auc
    a2 = roc_auc(np.exp(g), np.exp(i)).auc
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_roc_points_monotone():
    rng = np.random.default_rng(19)
    roc = roc_auc(rng.normal(size=30), rng.normal(1.0, 1.0, size=40))
    fa, pd = roc.points[:, 0], roc.points[:, 1]
    assert np.all(np.diff(fa) >= 0)
    assert np.all(np.diff(pd) >= 0)
    assert 0.0 <= roc.auc <= 1.0


def _campaign_bursts(fleet, cfg, campaign_seed, n_bursts):
    """The bursts simulate_campaign synthesizes, from its per-burst
    (campaign_seed, satellite, burst) streams."""
    out = []
    for si, (sat, p) in enumerate(fleet):
        for bi in range(n_bursts):
            rng = np.random.default_rng((campaign_seed, si, bi))
            ch = ChannelConfig(snr_db=cfg.snr_db, rician_k_db=cfg.rician_k_db,
                               cfo_rad_per_symbol=float(rng.uniform(-cfg.cfo_jitter,
                                                                    cfg.cfo_jitter)),
                               random_phase=True)
            if cfg.burst_mode == "iridium":
                x, mod = np.resize(iridium_known_symbols(), cfg.n_known), "iridium"
            else:
                x = random_known_symbols(make_constellation("qpsk"), cfg.n_known, rng)
                mod = "qpsk"
            out.append(synthesize_burst(x, p, ch, seed=rng, satellite_id=sat, modulation=mod))
    return out


def _assert_feature_ranges(matrix):
    """The range checks of a feature row: amplitude variance, amplitude range
    and EVM are nonnegative, autocorrelations lie in [-1, 1]."""
    for name in ("amp_var", "amp_range", "evm"):
        assert np.all(matrix[:, FEATURE_NAMES.index(name)] >= 0.0), name
    for name in ("amp_acf1", "phase_acf1"):
        assert np.all(np.abs(matrix[:, FEATURE_NAMES.index(name)]) <= 1.0), name


def test_simulate_campaign_smoke():
    fleet = generate_fleet(3, seed=5)
    cfg = FleetProtocolConfig(n_sats=3, n_enroll=40, n_probe=60, probe_acc=30, n_bal=30)
    table = simulate_campaign(fleet, cfg, campaign_seed=1, n_bursts=12)
    assert table.matrix.shape == (36, N_FEAT)
    assert np.all(np.isfinite(table.matrix))
    _assert_feature_ranges(table.matrix)
    assert np.array_equal(table.burst_index, np.tile(np.arange(12), 3))


# 4 satellites: 256 bursts each fill the synthesis buffer exactly, 300 cross
# it inside a satellite, and every size past 64 crosses 256-row blocks
@pytest.mark.parametrize("burst_mode", ["iridium", "qpsk_pilots"])
@pytest.mark.parametrize("n_bursts", [1, 12, 100, 255, 256, 300])
def test_streamed_campaign_equals_the_per_burst_oracle(n_bursts, burst_mode):
    # the campaign table is the generic burst-file table over the same
    # bursts, with noise, Rician channel draws or neither
    fleet = generate_fleet(4, seed=5)
    for channel in ({}, {"rician_k_db": 6.0}, {"snr_db": math.inf}):
        cfg = FleetProtocolConfig(n_sats=4, n_enroll=40, n_probe=60, probe_acc=30, n_bal=30,
                                  burst_mode=burst_mode, **channel)
        table = simulate_campaign(fleet, cfg, campaign_seed=1, n_bursts=n_bursts)
        ref = feature_table_from_bursts(_campaign_bursts(fleet, cfg, 1, n_bursts),
                                        PipelineConfig(n_known=cfg.n_known))
        assert np.array_equal(table.satellite_ids, ref.satellite_ids)
        assert table.satellite_ids.dtype == ref.satellite_ids.dtype
        assert np.array_equal(table.burst_index, np.tile(np.arange(n_bursts), 4))
        assert table.burst_index.tobytes() == ref.burst_index.tobytes()
        assert np.array_equal(table.snr_db, ref.snr_db)
        assert table.matrix.tobytes() == ref.matrix.tobytes()
        _assert_feature_ranges(table.matrix)


def test_empty_fleet_gives_an_empty_campaign():
    for burst_mode in ("iridium", "qpsk_pilots"):
        table = simulate_campaign([], FleetProtocolConfig(burst_mode=burst_mode), campaign_seed=1)
        assert table.matrix.shape == (0, N_FEAT)
        assert table.satellite_ids.size == table.burst_index.size == table.snr_db.size == 0


def test_table_numbering_and_codes_follow_arrival_order():
    # interleaved, unsorted ids: each satellite's bursts are numbered in
    # arrival order, and the coded ids are the ones np.unique gives
    ids = ["S2", "S10", "S2", "S07", "", "S10", "S2", "", "S07"]
    bursts = [synthesize_burst(iridium_known_symbols(), p, ChannelConfig(snr_db=15.0), seed=i,
                               satellite_id=sat)
              for i, (sat, (_, p)) in enumerate(zip(ids, generate_fleet(9, seed=2)))]
    table = feature_table_from_bursts(bursts)
    want_ids = np.array([s or "unknown" for s in ids])
    assert np.array_equal(table.satellite_ids, want_ids)
    assert table.satellite_ids.dtype == want_ids.dtype
    assert list(table.burst_index) == [0, 0, 1, 0, 0, 1, 2, 1, 1]
    names, codes = table.coded_ids
    want_names, want_codes = np.unique(want_ids, return_inverse=True)
    assert np.array_equal(names, want_names) and np.array_equal(codes, want_codes)
    # two tables over different names share one coding, as the raw ids do
    other = _table(["S10", "S99", "S07"], np.zeros((3, N_FEAT)))
    got = _share_names(table.coded_ids, other.coded_ids)
    want = _code_ids(table.satellite_ids, other.satellite_ids)
    for (got_names, got_codes), (want_names, want_codes) in zip(got, want):
        assert np.array_equal(got_names, want_names)
        assert got_codes.tobytes() == want_codes.tobytes()


def test_noise_free_iridium_phase_is_flagged_flat():
    # the pilots lie on one line, so a noise-free burst's stripped phase is
    # flat up to rounding (its squared deviations reach ~1e-28 on this fleet):
    # phase_acf1 and pa_cross read 0 with their flags set, where they read
    # rounding noise from -0.3 to 0.99 under a 1e-30 floor
    fleet = generate_fleet(27)
    cfg = FleetProtocolConfig(snr_db=None)
    matrix, mask = _extract_bursts(_campaign_bursts(fleet, cfg, 0, cfg.n_enroll), cfg.n_known)
    assert np.array_equal(simulate_campaign(fleet, cfg, 0).matrix, matrix)
    for name in ("phase_acf1", "pa_cross"):
        assert np.all(matrix[:, FEATURE_NAMES.index(name)] == 0.0), name
        assert np.all(mask[:, _FLAGS.index(name)]), name
    # at 60 dB (squared deviations from ~3e-4) no phase is flat
    cfg = FleetProtocolConfig(snr_db=60.0)
    _, mask = _extract_bursts(_campaign_bursts(fleet, cfg, 0, 20), cfg.n_known)
    assert not np.any(mask[:, _FLAGS.index("phase_acf1")])


def test_feature_table_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(20)
    ids = np.repeat(["A", "B"], 5)
    table = _table(ids, rng.normal(size=(10, N_FEAT)))
    path = tmp_path / "features.csv"
    table.to_csv(path)
    back = FeatureTable.from_csv(path)
    assert np.allclose(back.matrix, table.matrix)
    assert list(back.satellite_ids) == list(ids)
    assert back.feature_names == FEATURE_NAMES


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                         max_size=5), max_size=6),
    n_feat=st.integers(0, 4),
    data=st.data(),
)
def test_feature_table_csv_roundtrip_property(tmp_path_factory, ids, n_feat, data):
    n = len(ids)
    table = FeatureTable(
        satellite_ids=np.asarray(ids, dtype=str),
        burst_index=np.asarray(data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)),
                               dtype=int),
        snr_db=np.asarray(data.draw(st.lists(st.floats(-50.0, 60.0) | st.just(math.inf),
                                             min_size=n, max_size=n)), dtype=float),
        matrix=np.asarray(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n * n_feat,
                                             max_size=n * n_feat)), dtype=float).reshape(n, n_feat),
        feature_names=FEATURE_NAMES[:n_feat],
    )
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    table.to_csv(path)
    back = FeatureTable.from_csv(path)
    assert list(back.satellite_ids) == ids
    assert np.array_equal(back.burst_index, table.burst_index)
    # the file keeps 6 significant digits of the SNR and 11 of each feature
    assert np.allclose(back.snr_db, table.snr_db, rtol=5e-6, atol=0.0)
    assert np.allclose(back.matrix, table.matrix, rtol=1e-10, atol=1e-300)
    assert back.feature_names == table.feature_names
    first = path.read_bytes()
    back.to_csv(path)
    assert path.read_bytes() == first


def test_run_auth_experiment_smoke():
    cfg = FleetProtocolConfig(n_sats=6, n_enroll=40, n_probe=40, n_bal=30,
                              n_dr_trials=8, probe_acc=20, n_acc_grid=(1, 5, 20))
    rep = run_auth_experiment(cfg, seed=3)
    assert set(rep.strategies) >= {"dr2_iwat_all6", "equal_weight_all6", "iq_only_2",
                                   "pa_only_3", "glrt_crb4"}
    for res in rep.strategies.values():
        assert 0.0 <= res.auc <= 1.0
    assert rep.beta == 0.0
    assert rep.threshold > 0.0
    assert set(rep.roc_curves) == set(rep.strategies)
    d = rep.to_json_dict()
    assert "strategies" in d and "weights" in d and len(d["fleet"]) == 6
    assert d["dr_excluded_satellites"] == []


def test_auth_report_json_names_dr_excluded_satellites():
    # C has fewer than n_bal messages, so the DR table leaves it out
    rng = np.random.default_rng(6)
    ids = np.asarray(["A"] * 40 + ["B"] * 40 + ["C"] * 10)
    dr = balanced_dr(_table(ids, rng.normal(size=(ids.size, N_FEAT))), n_bal=30, n_trials=5,
                     seed=0)
    rep = AuthReport(strategies={}, dr_table=dr, weights=iwat_weights(dr, ALL6_FEATURES),
                     auc_vs_nacc={}, threshold=1.0, fleet=[], beta=0.0)
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert d["dr_excluded_satellites"] == ["C"]
    assert set(d["dr_table"]) == set(FEATURE_NAMES)


def test_run_auth_experiment_rejects_negative_seed():
    with pytest.raises(ConfigError, match="non-negative"):
        run_auth_experiment(seed=-1)


# a fleet small enough that a whole experiment runs in ~10 ms
_SMALL = FleetProtocolConfig(n_sats=4, n_enroll=30, n_probe=30, n_bal=20, n_dr_trials=4,
                             probe_acc=10, n_acc_grid=(1, 10))

forking = pytest.mark.skipif(sys.platform != "linux", reason="the probe campaign forks on Linux")


def _usable_cpus(monkeypatch, n):
    """Show ``run_auth_experiment`` n usable CPUs: with one it runs the
    probe campaign in-process, with two in a forked child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _counted_forks(monkeypatch) -> list:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _before_campaign(monkeypatch, act):
    """Call ``act(campaign_seed)`` at the start of every campaign; a forked
    child inherits the patch."""
    def campaign(fleet, cfg, campaign_seed, n_bursts=None):
        act(campaign_seed)
        return simulate_campaign(fleet, cfg, campaign_seed, n_bursts)

    monkeypatch.setattr(auth, "simulate_campaign", campaign)


def _fail(*seeds, error=DegenerateInputError):
    """An ``act`` that fails the campaigns of ``seeds`` with ``error``."""
    def act(seed):
        if seed in seeds:
            raise error(f"campaign {seed} failed")
    return act


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forking
@pytest.mark.parametrize("seed", [0, 5])
def test_forked_probe_campaign_equals_the_in_process_one(monkeypatch, seed):
    # every matrix the scoring reads, campaign A's and campaign B's
    grouped, read = auth._grouped_means, []
    monkeypatch.setattr(auth, "_grouped_means",
                        lambda ids, m, *a, **k: read.append(m.tobytes()) or grouped(ids, m, *a, **k))
    reports, reads = [], []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        forks = _counted_forks(monkeypatch)
        reports.append(run_auth_experiment(_SMALL, seed=seed).to_json_dict())
        assert len(forks) == (cpus == 2)
        reads.append(read[:])
        read.clear()
    assert reports[0] == reports[1]
    assert len(reads[0]) > 2 and reads[0] == reads[1]
    _assert_no_child_left()


@forking
def test_probe_campaign_runs_in_process_when_fork_fails(monkeypatch):
    _usable_cpus(monkeypatch, 1)
    want = run_auth_experiment(_SMALL, seed=0).to_json_dict()
    _usable_cpus(monkeypatch, 2)
    forks = []

    def no_fork():
        forks.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    assert run_auth_experiment(_SMALL, seed=0).to_json_dict() == want
    assert forks == [1]
    # the pipe made for the child is closed again
    assert sorted(os.listdir("/proc/self/fd")) == open_fds


@forking
@pytest.mark.parametrize("cpus", [1, 2])
def test_probe_campaign_error_reaches_the_caller(monkeypatch, cpus):
    # with seed 3, campaign A is seed 8 and campaign B seed 7
    _usable_cpus(monkeypatch, cpus)
    _before_campaign(monkeypatch, _fail(7))
    with pytest.raises(DegenerateInputError, match="^campaign 7 failed$"):
        run_auth_experiment(_SMALL, seed=3)
    _assert_no_child_left()


@forking
@pytest.mark.parametrize("cpus", [1, 2])
def test_enrollment_campaign_error_wins_and_stops_the_probe_campaign(monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    _before_campaign(monkeypatch, _fail(7, 8, error=ConfigError))
    with pytest.raises(ConfigError, match="^campaign 8 failed$"):
        run_auth_experiment(_SMALL, seed=3)
    # a probe campaign that would run for a minute is killed, not waited for
    fail_a = _fail(8, error=ConfigError)
    _before_campaign(monkeypatch, lambda seed: time.sleep(60) if seed == 7 else fail_a(seed))
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="^campaign 8 failed$"):
        run_auth_experiment(_SMALL, seed=3)
    assert time.perf_counter() - t0 < 10
    _assert_no_child_left()


@forking
@pytest.mark.parametrize("cpus", [1, 2])
def test_probe_campaign_error_wins_over_the_dr_table_error(monkeypatch, cpus):
    _usable_cpus(monkeypatch, cpus)
    _before_campaign(monkeypatch, _fail(7))

    def dr_fails(*args, **kwargs):
        raise AuthConfigError("too few satellites")

    monkeypatch.setattr(auth, "balanced_dr", dr_fails)
    with pytest.raises(DegenerateInputError, match="^campaign 7 failed$"):
        run_auth_experiment(_SMALL, seed=3)
    _before_campaign(monkeypatch, lambda seed: None)
    with pytest.raises(AuthConfigError, match="too few satellites"):
        run_auth_experiment(_SMALL, seed=3)
    _assert_no_child_left()


@forking
def test_interrupt_kills_the_probe_campaign(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    _before_campaign(monkeypatch, lambda seed: time.sleep(60) if seed == 7 else None)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(auth, "balanced_dr", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_auth_experiment(_SMALL, seed=3)
    assert time.perf_counter() - t0 < 10
    _assert_no_child_left()


@forking
def test_probe_campaign_child_that_dies_names_its_exit_status(monkeypatch):
    _usable_cpus(monkeypatch, 2)
    parent = os.getpid()
    # only a child exits: in this process the campaign runs
    _before_campaign(monkeypatch, lambda seed: os._exit(3) if seed == 7 and os.getpid() != parent
                     else None)
    with pytest.raises(RuntimeError, match="in a forked child exited with status 3 and no result"):
        run_auth_experiment(_SMALL, seed=3)
    _assert_no_child_left()


def _grouped_means_by_scan(ids, matrix, start=0, stop=None, size=None):
    """The per-id scan ``_grouped_means`` replaced: one string comparison
    over the table per satellite, in sorted id order."""
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


def _genuine_impostor_by_scan(scores, probe_ids, ref_ids):
    """The string-comparing split ``_genuine_impostor`` replaced."""
    missing = ~np.isin(probe_ids, ref_ids)
    if np.any(missing):
        raise AuthConfigError(f"probe satellite {probe_ids[np.argmax(missing)]} not enrolled")
    same = probe_ids[:, None] == ref_ids[None, :]
    return scores[same], scores[~same]


def _decoded(coded_means):
    (names, codes), means = coded_means
    return names[codes], means


def test_grouped_means_chunks_follow_table_order():
    # satellites interleaved in the table; B has five rows (odd), A has four
    ids = np.array(["B", "A", "B", "A", "B", "B", "A", "B", "A"])
    coded = _code_ids(ids)[0]
    x = np.arange(ids.size * 2, dtype=float).reshape(-1, 2) ** 2
    rows = {s: x[ids == s] for s in ("A", "B")}
    got_ids, got = _decoded(_grouped_means(coded, x))
    assert list(got_ids) == ["A", "B"]
    assert np.array_equal(got, [rows["A"].mean(axis=0), rows["B"].mean(axis=0)])
    got_ids, got = _decoded(_grouped_means(coded, x, size=2))  # B's fifth row is dropped
    assert list(got_ids) == ["A", "A", "B", "B"]
    assert np.array_equal(got, [rows[s][k:k + 2].mean(axis=0)
                                for s, k in (("A", 0), ("A", 2), ("B", 0), ("B", 2))])
    # an odd count splits into the first half and the rest: 2 + 3 rows for B
    _, first = _grouped_means(coded, x, stop=2)
    _, rest = _grouped_means(coded, x, start=2)
    assert np.array_equal(first[1], rows["B"][:2].mean(axis=0))
    assert np.array_equal(rest[1], rows["B"][2:].mean(axis=0))
    with pytest.raises(AuthConfigError):
        _grouped_means(coded, x, start=4)  # A has no rows left


@settings(max_examples=60, deadline=None)
@given(codes=st.lists(st.integers(0, 5), max_size=40))
def test_rows_by_satellite_equal_the_per_code_scan(codes):
    # six names, of which any may have no rows (as after _share_names)
    ids = (np.array([f"S{k}" for k in range(6)]), np.asarray(codes, dtype=np.intp))
    got = _rows_by_satellite(ids)
    assert [int(code) for code, _ in got] == sorted(set(codes))
    for code, rows in got:
        want = np.flatnonzero(ids[1] == code)
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_rows_by_satellite_skip_names_only_the_other_table_has():
    a, b = _share_names(_table(["B", "A", "B"], np.zeros((3, N_FEAT))).coded_ids,
                        _table(["C", "A"], np.zeros((2, N_FEAT))).coded_ids)
    assert [(int(c), r.tolist()) for c, r in _rows_by_satellite(a)] == [(0, [1]), (1, [0, 2])]
    assert [(int(c), r.tolist()) for c, r in _rows_by_satellite(b)] == [(0, [1]), (2, [0])]


# unsorted, interleaved ids of unequal counts; "S10" sorts before "S2"
_SCAN_IDS = np.array(["S2", "S10", "S2", "S07", "S10", "S2", "S07", "S07", "S2", "S10",
                      "S2", "S07", "S10", "S2", "S2"])


# the last two raise for satellite S07: no rows left, and chunks of no rows
@pytest.mark.parametrize("start, stop, size", [(0, None, None), (0, None, 2), (0, None, 3),
                                               (1, None, 2), (0, 3, None), (2, None, None),
                                               (1, 4, 1), (0, None, 5), (4, None, None),
                                               (0, None, 0)])
def test_grouped_means_equal_the_per_id_scan(start, stop, size):
    rng = np.random.default_rng(31)
    x = rng.normal(size=(_SCAN_IDS.size, 4))
    try:
        want_ids, want = _grouped_means_by_scan(_SCAN_IDS, x, start, stop, size)
    except AuthConfigError as exc:
        with pytest.raises(AuthConfigError) as coded:
            _grouped_means(_code_ids(_SCAN_IDS)[0], x, start, stop, size)
        assert str(coded.value) == str(exc)
        return
    got_ids, got = _decoded(_grouped_means(_code_ids(_SCAN_IDS)[0], x, start, stop, size))
    assert np.array_equal(got_ids, want_ids)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("probe_ids, ref_ids", [
    (_SCAN_IDS, np.array(["S07", "S2", "S10", "S2"])),
    (_SCAN_IDS[::-1], _SCAN_IDS[3:9]),
    # references the probes lack, and probes not enrolled: the first named
    (_SCAN_IDS[:6], np.array(["S10", "S99", "S07"])),
    (np.array(["S07", "S5", "S10", "S4"]), np.array(["S10", "S07"])),
])
def test_genuine_impostor_equal_the_string_split(probe_ids, ref_ids):
    rng = np.random.default_rng(32)
    scores = rng.normal(size=(probe_ids.size, ref_ids.size))
    try:
        want = _genuine_impostor_by_scan(scores, probe_ids, ref_ids)
    except AuthConfigError as exc:
        with pytest.raises(AuthConfigError) as coded:
            _genuine_impostor(scores, *_code_ids(probe_ids, ref_ids))
        assert str(coded.value) == str(exc)
        return
    got = _genuine_impostor(scores, *_code_ids(probe_ids, ref_ids))
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_run_auth_experiment_matches_per_probe_scoring():
    # every strategy, accumulation point and the threshold recomputed one
    # probe and one enrolled satellite at a time, with a precision matrix
    # built here; odd n_enroll gives a 20/21 pseudo split
    cfg = FleetProtocolConfig(n_sats=5, n_enroll=41, n_probe=40, n_bal=30, n_dr_trials=5,
                              probe_acc=20, n_acc_grid=(1, 3, 40))
    seed = 4
    rep = run_auth_experiment(cfg, seed=seed)
    fleet = generate_fleet(cfg.n_sats, cfg.spread, seed=seed)
    table_a = simulate_campaign(fleet, cfg, campaign_seed=2 * seed + 2, n_bursts=cfg.n_enroll)
    table_b = simulate_campaign(fleet, cfg, campaign_seed=2 * seed + 1, n_bursts=cfg.n_probe)
    mu = table_a.matrix.mean(axis=0)
    sd = table_a.matrix.std(axis=0, ddof=1)
    sd = np.where(sd > 1e-300, sd, 1.0)
    dr = balanced_dr(table_a, n_bal=cfg.n_bal, n_trials=cfg.n_dr_trials, seed=seed + 101)

    def zscored(x, names):
        idx = [FEATURE_NAMES.index(k) for k in names]
        return (x[..., idx] - mu[idx]) / sd[idx]

    def fingerprints(table, chunk=None, first=None, rest=None):
        out = []
        for s in np.unique(table.satellite_ids):
            sel = np.flatnonzero(table.satellite_ids == s)[rest:first]
            n = chunk or sel.size
            for c in range(sel.size // n):
                out.append((str(s), table.matrix[sel[c * n:(c + 1) * n]].mean(axis=0)))
        return out

    def split(probes, enrollment, score):
        genuine, impostor = [], []
        for probe_id, p in probes:
            for ref_id, e in enrollment:
                (genuine if ref_id == probe_id else impostor).append(score(p, e))
        return genuine, impostor

    def iwat(w):
        return lambda p, e: np.sum(w.weights * (zscored(p, w.feature_names)
                                                - zscored(e, w.feature_names)) ** 2)

    def glrt(names):
        x = zscored(table_a.matrix, names)
        for s in np.unique(table_a.satellite_ids):
            rows = table_a.satellite_ids == s
            x[rows] -= x[rows].mean(axis=0)
        prec = np.linalg.inv(np.cov(x, rowvar=False, ddof=1) + cfg.ridge * np.eye(len(names)))

        def score(p, e):
            d = zscored(p, names) - zscored(e, names)
            return d @ prec @ d
        return score

    enrollment = fingerprints(table_a)
    probes = fingerprints(table_b, chunk=cfg.probe_acc)
    subsets = {"dr2_iwat_all6": (ALL6_FEATURES, "dr2"), "dr_iwat_all6": (ALL6_FEATURES, "dr"),
               "equal_weight_all6": (ALL6_FEATURES, "equal"),
               "crb_guided_4": (CRB4_FEATURES, "equal"), "pa_only_3": (PA3_FEATURES, "equal"),
               "oscillator_only_2": (OSC2_FEATURES, "equal"),
               "iq_only_2": (IQ2_FEATURES, "equal")}
    scorers = {k: iwat(iwat_weights(dr, sub, mode=m)) for k, (sub, m) in subsets.items()}
    scorers["glrt_crb4"] = glrt(CRB4_FEATURES)
    assert set(rep.strategies) == set(scorers)
    for name, score in scorers.items():
        genuine, impostor = split(probes, enrollment, score)
        res = rep.strategies[name]
        assert (res.n_genuine, res.n_impostor) == (len(genuine), len(impostor))
        assert res.auc == roc_auc(genuine, impostor).auc, name

    for label, (ns, aucs) in rep.auc_vs_nacc.items():
        assert ns == [1, 3, 40]
        for n_acc, auc in zip(ns, aucs):
            expected = roc_auc(*split(fingerprints(table_b, chunk=n_acc), enrollment,
                                      scorers[label])).auc
            assert auc == expected, (label, n_acc)

    half = cfg.n_enroll // 2
    _, impostor = split(fingerprints(table_a, rest=half), fingerprints(table_a, first=half),
                        iwat(rep.weights))
    assert rep.threshold == np.sort(impostor)[int(math.floor(cfg.target_fa * len(impostor)))]


def test_iq_dr_rises_with_identifiable_pilots():
    # the same fleet scored with random QPSK pilots instead of the
    # constant/binary burst: IQ features become strongly discriminative
    fleet = generate_fleet(8, seed=21)
    base = dict(n_sats=8, n_enroll=40, n_probe=40, n_bal=30, n_dr_trials=8,
                probe_acc=20, snr_db=20.0)
    cfg0 = FleetProtocolConfig(burst_mode="iridium", **base)
    cfg1 = FleetProtocolConfig(burst_mode="qpsk_pilots", **base)
    dr0 = balanced_dr(simulate_campaign(fleet, cfg0, campaign_seed=50, n_bursts=40),
                      n_bal=30, n_trials=8, seed=1)
    dr1 = balanced_dr(simulate_campaign(fleet, cfg1, campaign_seed=50, n_bursts=40),
                      n_bal=30, n_trials=8, seed=1)
    for name in ("iq_eps_hat", "iq_phi_hat"):
        assert dr0.dr(name) < 1.0
        assert dr1.dr(name) > dr0.dr(name)
    # pilots make the image leakage directly estimable
    assert max(dr1.dr("iq_eps_hat"), dr1.dr("iq_phi_hat")) > 3.0


def test_cross_campaign_stability_pattern():
    # two campaigns over one fleet: PA amplitude variance correlates almost
    # perfectly across campaigns while IQ features do not; the message count
    # is sized so the expected correlation clears 0.95 (variance-ratio oracle)
    fleet = generate_fleet(12, seed=33)
    cfg = FleetProtocolConfig(n_sats=12, n_enroll=300, n_probe=300, n_bal=30,
                              n_dr_trials=5, probe_acc=60)
    table_a = simulate_campaign(fleet, cfg, campaign_seed=70, n_bursts=300)
    table_b = simulate_campaign(fleet, cfg, campaign_seed=71, n_bursts=300)
    ids_a, ids_b = _code_ids(table_a.satellite_ids, table_b.satellite_ids)
    out = cross_stability(_decoded(_grouped_means(ids_a, table_a.matrix)),
                          _decoded(_grouped_means(ids_b, table_b.matrix)))
    assert out["amp_var"].r > 0.95
    assert abs(out["iq_eps_hat"].r) < 0.8
    assert abs(out["iq_phi_hat"].r) < 0.8
