"""Tests of the benchmark's own code (not part of the Tier-1 suite).

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import burstgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rfident import auth, estimator, signal_model  # noqa: E402
from rfident.auth import DrRow, DrTable, FeatureTable, StrategyResult  # noqa: E402
from rfident.estimator import McReport, McRow  # noqa: E402
from rfident.features import FEATURE_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# --- input files -------------------------------------------------------------

def test_written_files_round_trip(tmp_path):
    spec = burstgen.IngestSpec(n_sats=3, n_bursts=4, n=20)
    paths, digest = burstgen.write_ingest_files(tmp_path, spec, seed=5)
    ids, samples, symbols = burstgen.synthesize(spec, seed=5)
    assert len(paths) == 12
    for path, sat, s, x in zip(paths, ids, samples, symbols):
        b = signal_model.read_burst_binary(path)
        assert np.array_equal(b.samples, s)
        assert np.array_equal(b.known_symbols, x)
        assert b.meta.satellite_id == sat
        assert b.meta.modulation == "qpsk"
        assert b.meta.channel.snr_db == spec.snr_db
        assert b.meta.truth is None
    again, digest_again = burstgen.write_ingest_files(tmp_path / "again", spec, seed=5)
    assert digest_again == digest
    assert burstgen.write_ingest_files(tmp_path / "other", spec, seed=6)[1] != digest


# --- correctness checks --------------------------------------------------------

def _mc_row(snr_db, ratio, status="ok", iq_bounded=True, n_trials=300):
    crb = np.full(4, 1e-5) if iq_bounded else np.array([math.inf, math.inf, 1e-5, 1e-5])
    ratio = np.asarray(ratio, dtype=float)
    return McRow(snr_db=snr_db, mse=ratio * 1e-5, crb=crb, ratio=ratio, crb_exact=crb,
                 ratio_exact=ratio, n_trials=n_trials, status=status)


def _mc(rows):
    return McReport(modulation="x", truth=workloads.MC_TRUTH, n_symbols=76, rows=rows)


def test_attainment_band_contains_criterion_band():
    lo, hi = workloads.attainment_band(300, workloads.CRITERION_6_BAND)
    assert 0.6 < lo <= 0.85 and 1.3 <= hi < 1.5
    lo100, hi100 = workloads.attainment_band(100, workloads.CRITERION_7_BAND)
    assert lo100 < lo and hi100 > hi


def test_mc_qpsk_check():
    assert workloads.check_mc_qpsk(_mc([_mc_row(30.0, [1.0, 0.95, 1.1, 0.9])])) == []
    assert workloads.check_mc_qpsk(_mc([_mc_row(30.0, [1.0, 2.0, 1.1, 0.9])]))
    assert workloads.check_mc_qpsk(_mc([_mc_row(30.0, [1.0, 0.3, 1.1, 0.9])]))
    assert workloads.check_mc_qpsk(_mc([_mc_row(30.0, [1.0, math.nan, 1.1, 0.9])]))


def test_mc_bpsk_check():
    good = _mc_row(0.0, [math.nan, math.nan, 1.05, 3.0], "rank_deficient_pa_subblock",
                   iq_bounded=False, n_trials=100)
    assert workloads.check_mc_bpsk(_mc([good, replace(good, snr_db=40.0)])) == []
    assert workloads.check_mc_bpsk(_mc([replace(good, status="rank_deficient_pa_subblock+budget")]))
    assert workloads.check_mc_bpsk(_mc([replace(good, crb=np.full(4, 1e-5))]))
    assert workloads.check_mc_bpsk(_mc([replace(good, ratio=np.array([0, 0, 2.5, 1.0]))]))
    assert workloads.check_mc_bpsk(_mc([replace(good, ratio=np.array([0, 0, math.inf, 1.0]))]))


def _dr_table(values: dict, excluded=()):
    rows = {k: DrRow(mean=values.get(k, 0.7), std=0.01, n_trials=30, verdict="weak")
            for k in FEATURE_NAMES}
    return DrTable(rows=rows, excluded_satellites=excluded)


class _AuthReport:
    """The fields of AuthReport that criterion 10 reads."""

    def __init__(self, **changes):
        aucs = {"iq_only_2": 0.5, "dr2_iwat_all6": 0.8, "equal_weight_all6": 0.78}
        aucs.update(changes.get("aucs", {}))
        self.strategies = {k: StrategyResult(auc=v, pd_at_fa={}, n_genuine=54, n_impostor=1404)
                           for k, v in aucs.items()}
        self.dr_table = _dr_table(changes.get("drs", {"amp_var": 2.0, "iq_eps_hat": 0.7,
                                                      "iq_phi_hat": 0.7}))
        self.auc_vs_nacc = {"pa_only_3": ([1, 2, 4, 8], changes.get("curve", [0.5, 0.6, 0.7, 0.8]))}


@pytest.mark.parametrize("changes, clause", [
    ({"drs": {"amp_var": 2.0, "amp_range": 3.0}}, "a: amp_var top"),
    ({"drs": {"amp_var": 2.0, "iq_eps_hat": 1.2}}, "b: iq DR < 1"),
    ({"aucs": {"iq_only_2": 0.7}}, "c: iq AUC in [0.4, 0.6]"),
    ({"aucs": {"dr2_iwat_all6": 0.7}}, "d: dr2 > equal"),
    ({"curve": [0.8, 0.7, 0.6, 0.5]}, "e: spearman > 0.8"),
])
def test_auth_check(changes, clause):
    assert workloads.check_auth(_AuthReport()) == []
    assert workloads.check_auth(_AuthReport(**changes)) == [clause]


def test_ingest_check():
    table = FeatureTable(satellite_ids=np.array(["A", "B"] * 5), burst_index=np.arange(10),
                         snr_db=np.full(10, 20.0), matrix=np.ones((10, 13)))
    dr = _dr_table({"iq_eps_hat": 1.5, "iq_phi_hat": 2.0})
    assert workloads.check_ingest(table, dr, 10) == []
    assert workloads.check_ingest(table, dr, 11)
    nan = replace(table, matrix=np.where(np.eye(10, 13) > 0, np.nan, 1.0))
    assert workloads.check_ingest(nan, dr, 10)
    assert workloads.check_ingest(table, _dr_table({"iq_eps_hat": 1.5, "iq_phi_hat": 2.0},
                                                   excluded=("C",)), 10)
    assert workloads.check_ingest(table, _dr_table({"iq_eps_hat": 0.9, "iq_phi_hat": 2.0}), 10)


# --- tracing -------------------------------------------------------------------

def test_self_times():
    tree = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
            ["b", 2.0, 3.0, 1, None], ["c", 5.0, 9.0, 0, None]]
    assert spans.self_times(tree).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracing_rebinds_nested_calls_and_restores():
    original = auth.extract_features
    cfg = auth.FleetProtocolConfig(n_sats=2, n_enroll=30, n_probe=30, probe_acc=30)
    fleet = signal_model.generate_fleet(2, seed=0)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        assert auth.extract_features is not original
        with tracer.span(spans.ROOT):
            auth.simulate_campaign(fleet, cfg, campaign_seed=1, n_bursts=2)
    assert auth.extract_features is original
    assert estimator.nls_estimate.__name__ == "nls_estimate"
    names = [s[0] for s in tracer.spans]
    assert names.count("features.extract_features") == 4
    assert names.count("signal_model.synthesize_burst") == 4
    by_index = {i: s[0] for i, s in enumerate(tracer.spans)}
    assert {by_index[s[3]] for s in tracer.spans[2:]} == {"auth.simulate_campaign"}
    layers = spans.layer_metrics(tracer.spans, 1.0, 0.9)
    assert layers["features.extract_features.calls"]["value"] == 4
    assert layers["features.extract_features.degenerate_share"]["value"] == 1.0  # Iridium pilots
    assert layers["estimator.nls_estimate.calls"]["value"] == 0
    acct = spans.accounting(tracer.spans, tracer.spans[0][2] - tracer.spans[0][1])
    assert acct[spans.ROOT]["share_of_run_s"] == pytest.approx(1.0)


# --- names and the benchmark definition -----------------------------------------

def test_names_match_the_contract():
    names = list(run.WORKLOAD_NAMES)
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_definition_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == spans.LAYER_METRICS
    assert {m["name"] for m in BENCH["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}


def test_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_qpsk", "--seed",
                        "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=60)
    assert r.returncode != 0
    assert r.stdout == ""
