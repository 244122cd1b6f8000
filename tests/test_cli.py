import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rfident
from rfident import (
    Burst,
    BurstMeta,
    ChannelConfig,
    ConfigError,
    FeatureTable,
    FleetProtocolConfig,
    PipelineConfig,
    read_burst_binary,
    write_burst_binary,
)
from rfident.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, from_json, main

# a small authenticate config, so a missing check shows as a run, not a stall
SMALL = {"n_sats": 4, "n_enroll": 30, "n_probe": 30, "n_bal": 30, "n_dr_trials": 2,
         "probe_acc": 15}


def run(args):
    return main([str(a) for a in args])


# the summary line of each built-in alphabet, to the printed digit
_MOMENT_LINES = {
    "bpsk": "bpsk,2,1,0,0,1,1,2",
    "sdpsk": "sdpsk,2,1,0,0,1,1,2",
    "qpsk": "qpsk,4,2.23711431708e-17,0,1,1,1,4",
    "dqpsk": "dqpsk,4,2.23711431708e-17,0,1,1,1,4",
    "8psk": "8psk,8,-5.55111512313e-17,2.77555756156e-17,1,1,1,4",
    "16qam": "16qam,16,0,0,1,1.32,1.96,4",
    "64qam": "64qam,64,-2.77555756156e-17,-2.25514051877e-17,1,1.38095238095,2.22578555232,4",
}


@pytest.mark.parametrize("kind", list(_MOMENT_LINES))
def test_moments_stdout(kind, capsys):
    assert run(["moments", kind]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out == ["constellation,size,mu20_re,mu20_im,beta,mu4,mu6,rank", _MOMENT_LINES[kind]]


def test_moments_bpsk_rank(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["--out-dir", tmp_path, "moments", "bpsk", "--out", out]) == EXIT_OK
    row = out.read_text().strip().splitlines()[1].split(",")
    header = out.read_text().strip().splitlines()[0].split(",")
    d = dict(zip(header, row))
    assert float(d["beta"]) == 0.0 and int(d["rank"]) == 2


def test_moments_custom_json(tmp_path):
    alphabet = tmp_path / "alpha.json"
    alphabet.write_text("[[3.0, 0.0], [-3.0, 0.0]]")
    out = tmp_path / "m.csv"
    assert run(["moments", alphabet, "--out", out]) == EXIT_OK
    d = dict(zip(*[line.split(",") for line in out.read_text().strip().splitlines()]))
    assert float(d["mu4"]) == pytest.approx(1.0)


def test_unknown_constellation_exit_code():
    assert run(["moments", "zzpsk"]) == EXIT_CONFIG


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modulation": "qpsk", "bogus": 1}))
    assert run(["--out-dir", tmp_path, "mc-validate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("command, config", [
    ("mc-validate", {"theta": 5}),
    ("mc-validate", {"theta": {"alpha3": 5}}),
    ("mc-validate", {"theta": {"alpha3": [0.02]}}),
    ("mc-validate", {"theta": {"eps": "large"}}),
    ("mc-validate", {"n_trials": [50]}),
    ("crb-curves", {"snr_grid_db": 10}),
    ("authenticate", {"n_acc_grid": 3}),
    ("authenticate", {"n_acc_grid": ["one"]}),
    ("authenticate", {"spread": 5}),
    ("authenticate", {"spread": {"eps_range": [0.01]}}),
    ("authenticate", {"n_sats": "five"}),
    ("authenticate", {"n_probe": None}),
    ("authenticate", {"rician_k_db": "high"}),
    ("authenticate", ["n_sats"]),
    ("fleet-sim", {"n_bursts": [34]}),
    ("authenticate", {"n_probe": 10}),
    ("fleet-sim", {"burst_mode": "iridum"}),
    ("fleet-sim", {"n_sats": 1}),
    ("fleet-sim", {"n_known": 2}),
    ("fleet-sim", {"n_sats": float("inf")}),
    ("authenticate", {**SMALL, "n_acc_grid": [0]}),
    ("authenticate", {**SMALL, "target_fa": 5}),
    ("authenticate", {**SMALL, "spread": {"eps_range": [0.01, float("nan")]}}),
    ("mc-validate", {"pilot_mode": "iridum"}),
    ("mc-validate", {"n_trials": 0}),
    ("mc-validate", {"snr_grid_db": ["a"]}),
    ("crb-curves", {"modulations": [5]}),
    ("crb-curves", {"n_grid": [0]}),
    # the two inputs that are not config files: a --paper-dr table ...
    ("--paper-dr", ["amp_var"]),
    ("--paper-dr", {"amp_var": "x"}),
    # ... and the feature table of dr-analysis, given as CSV text
    ("features", ""),
    ("features", "satellite_id,burst_index,snr_db,amp_var\r\nA,0,12,1.0\r\nA,1\r\n"),
    ("features", "satellite_id,burst_index,snr_db,amp_var\r\nA,0,12,1.0\r\nB,0,12,1.0,2.0\r\n"),
    ("features", "satellite_id,burst_index,snr_db,amp_var\r\nA,zero,12,1.0\r\n"),
    # cases added later go last, so that the ids of the cases above stay as they are
    ("fleet-sim", {"n_sats": 2, "n_bursts": 2, "snr_db": float("-inf")}),
    ("fleet-sim", {"n_sats": 2.7, "n_bursts": 2}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": -3}),
    ("--paper-dr", {}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 3, "cfo_jitter": -0.01}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 3, "cfo_jitter": 1e308}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 3, "cfo_jitter": float("inf")}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 3, "cfo_jitter": float("nan")}),
    # a custom alphabet for moments: non-finite points, or not [re, im] number pairs
    ("alphabet", [[1, 0], [float("nan"), 0]]),
    ("alphabet", [[1, 0], [float("inf"), 0]]),
    ("alphabet", [1, 2]),
    ("alphabet", [["a", 0], [1, 0]]),
    ("alphabet", [[1]]),
    ("alphabet", [[-1, 0], [True, 0]]),
    ("alphabet", {"re": [1, -1], "im": [0, 0]}),
    ("alphabet", [[10**400, 0], [1, 0]]),
    # non-finite theta or SNR values, a removed key, and pilots of another alphabet
    ("crb-curves", {"theta": {"eps": float("nan")}}),
    ("crb-curves", {"theta": {"alpha3": [0.02, float("inf")]}}),
    ("mc-validate", {"snr_grid_db": [float("inf")]}),
    ("identifiability", {"theta": {"eps": float("inf")}}),
    ("identifiability", {"rank_tol": 1e-9}),
    ("mc-validate", {"pilot_mode": "iridium"}),
    # dB values without a finite linear value > 0, and more pilots than the
    # 76 known symbols of an Iridium burst
    ("fleet-sim", {"n_sats": 2, "n_bursts": 2, "snr_db": 4000}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 2, "snr_db": -4000}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 2, "rician_k_db": float("inf")}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 2, "rician_k_db": 4000}),
    ("crb-curves", {"snr_grid_db": [4000]}),
    ("identifiability", {"snr_db": 4000}),
    ("authenticate", {**SMALL, "snr_db": 4000}),
    ("mc-validate", {"snr_grid_db": [4000], "n_trials": 50}),
    ("fleet-sim", {"n_sats": 2, "n_bursts": 2, "n_known": 100}),
    ("mc-validate", {"modulation": "bpsk", "pilot_mode": "iridium", "n": 100, "n_trials": 50}),
])
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    argv = {"--paper-dr": ["authenticate", "--paper-dr", cfg],
            "features": ["dr-analysis", cfg],
            "alphabet": ["moments", cfg]}.get(command, [command, "--config", cfg])
    assert run(["--out-dir", tmp_path, *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


def test_data_dependent_failure_is_a_numerical_failure(tmp_path, capsys):
    # 30 bursts per satellite cannot fill n_bal = 100: the config is fine,
    # the table is too small for it
    ids = np.repeat(["SAT00", "SAT01", "SAT02"], 30)
    FeatureTable(satellite_ids=ids, burst_index=np.tile(np.arange(30), 3),
                 snr_db=np.full(90, 12.0),
                 matrix=np.random.default_rng(0).normal(size=(90, 13))).to_csv(
        tmp_path / "features.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_bal": 100}))
    assert run(["--out-dir", tmp_path, "dr-analysis", tmp_path / "features.csv",
                "--config", cfg]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure:")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(cls=st.sampled_from([FleetProtocolConfig, PipelineConfig]), data=st.data())
def test_config_parse_builds_or_raises_config_error(cls, data):
    keys = [f.name for f in dataclasses.fields(cls)] + ["bogus"]
    # in-range numbers as well, so that some draws build a config
    values = _JSON | st.integers(1, 130) | st.floats(0.0, 1.0)
    spread = st.dictionaries(st.sampled_from(["eps_range", "phi_range_deg", "alpha3_mag_range"]),
                             _JSON, max_size=2)
    obj = data.draw(st.dictionaries(st.sampled_from(keys), values | spread, max_size=4) | _JSON)
    try:
        cfg = from_json(cls(), json.loads(json.dumps(obj)))
    except ConfigError:
        return
    assert isinstance(cfg, cls)


def test_integer_keys_take_integral_floats_and_numeric_strings():
    cfg = from_json(FleetProtocolConfig(), {"n_sats": 5.0, "n_enroll": "60", "n_bal": 30})
    assert (cfg.n_sats, cfg.n_enroll) == (5, 60) and type(cfg.n_sats) is int


def test_type_error_in_a_command_is_not_a_config_error(monkeypatch):
    # a programming bug must surface, not read as bad configuration
    def broken(_c):
        raise TypeError("bug")

    monkeypatch.setattr("rfident.cli.moments", broken)
    with pytest.raises(TypeError, match="bug"):
        run(["moments", "qpsk"])


def test_crb_curves(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "modulations": ["bpsk", "qpsk", "16qam"],
        "snr_grid_db": [10, 20],
        "n_grid": [76],
        "theta": {"eps": 0.0, "phi_deg": 0.0, "alpha3": [0.0, 0.0]},
    }))
    out = tmp_path / "curves.csv"
    assert run(["--out-dir", tmp_path, "crb-curves", "--config", cfg, "--out", out]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["modulation", "snr_db", "n", "param", "crb",
                                   "crb_coupling_ignored", "crb_marginalized", "rank"]
    rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
    # BPSK gain imbalance marked unidentifiable
    bpsk_eps = [r for r in rows if r["modulation"] == "bpsk" and r["param"] == "eps"]
    assert all(r["crb"] == "inf" and r["rank"] == "2" for r in bpsk_eps)
    # QPSK slope -1 in log-log: crb scales as 1/gamma
    q10 = [r for r in rows if r["modulation"] == "qpsk" and r["param"] == "eps"
           and r["snr_db"] == "10"][0]
    q20 = [r for r in rows if r["modulation"] == "qpsk" and r["param"] == "eps"
           and r["snr_db"] == "20"][0]
    assert float(q10["crb"]) / float(q20["crb"]) == pytest.approx(10.0, rel=1e-9)
    # QAM PA bound sits below QPSK by roughly the sixth-moment factor
    # (exact 1.96 on the diagonal; the coupled inverse shifts it slightly)
    qp = [r for r in rows if r["modulation"] == "qpsk" and r["param"] == "re_alpha3"
          and r["snr_db"] == "20"][0]
    qa = [r for r in rows if r["modulation"] == "16qam" and r["param"] == "re_alpha3"
          and r["snr_db"] == "20"][0]
    assert float(qp["crb"]) / float(qa["crb"]) == pytest.approx(1.96, rel=0.25)
    assert float(qp["crb_coupling_ignored"]) / float(qa["crb_coupling_ignored"]) == pytest.approx(
        1.96, rel=1e-9)


def test_crb_curves_marginalized_bpsk_is_unbounded(tmp_path):
    # with the channel unknown BPSK keeps no information: every marginalized
    # bound is inf, not a finite number read from numerical fuzz
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modulations": ["bpsk"], "snr_grid_db": [25], "n_grid": [76]}))
    out = tmp_path / "curves.csv"
    assert run(["--out-dir", tmp_path, "crb-curves", "--config", cfg, "--out", out]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    col = lines[0].split(",").index("crb_marginalized")
    assert [l.split(",")[col] for l in lines[1:]] == ["inf"] * 4


def test_mc_validate_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modulation": "qpsk", "snr_grid_db": [25],
                               "n": 76, "n_trials": 50}))
    out = tmp_path / "mc.csv"
    assert run(["--seed", 3, "--out-dir", tmp_path, "mc-validate", "--config", cfg,
                "--out", out]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5


def test_mc_validate_takes_a_custom_alphabet_file(tmp_path, capsys):
    # a .json point list, as moments, crb-curves and identifiability take it
    alphabet = tmp_path / "alph.json"
    alphabet.write_text("[[1, 1], [-1, 1], [-1, -1], [1, -1]]")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modulation": str(alphabet), "snr_grid_db": [25],
                               "n_trials": 60}))
    out = tmp_path / "mc.csv"
    assert run(["--out-dir", tmp_path, "mc-validate", "--config", cfg, "--out", out]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["eps", "phi", "re_alpha3", "im_alpha3"]
    assert all(r[5:] == ["60", "ok"] and 0.0 < float(r[4]) < 10.0 for r in rows)
    # a missing alphabet file is an input error
    cfg.write_text(json.dumps({"modulation": str(tmp_path / "missing.json"), "n_trials": 60}))
    assert run(["--out-dir", tmp_path, "mc-validate", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("command", ["mc-validate", "fleet-sim", "authenticate"])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    # argparse rejects the flag before any command runs
    with pytest.raises(SystemExit) as info:
        run(["--seed", seed, "--out-dir", tmp_path, command])
    assert info.value.code == EXIT_CONFIG
    assert "--seed: need a non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_identifiability_cli(tmp_path):
    out = tmp_path / "ident.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modulations": ["bpsk", "qpsk"], "snr_db": 20.0}))
    assert run(["--out-dir", tmp_path, "identifiability", "--config", cfg, "--out", out]) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["bpsk"]["rank"] == 2
    assert data["qpsk"]["rank"] == 4
    assert data["bpsk"]["rho_phi_im_alpha3"] > 0.99
    assert abs(data["qpsk"]["rho_phi_im_alpha3"] - 0.684) < 0.02
    assert data["bpsk"]["eig_ratio_phi_im_alpha3"] >= 1000.0


def test_fleet_sim_and_dr_analysis(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_sats": 4, "n_bursts": 34, "snr_db": 12.0}))
    assert run(["--seed", 5, "--out-dir", tmp_path, "fleet-sim", "--config", cfg]) == EXIT_OK
    features = tmp_path / "features.csv"
    assert features.exists()
    fleet = json.loads((tmp_path / "fleet.json").read_text())
    assert len(fleet) == 4
    dr_cfg = tmp_path / "dr.json"
    dr_cfg.write_text(json.dumps({"n_bal": 30, "n_trials": 5}))
    out = tmp_path / "dr.csv"
    assert run(["--out-dir", tmp_path, "dr-analysis", features, "--config", dr_cfg,
                "--out", out]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "feature,dr_mean,dr_std,n_trials,verdict"
    assert len(lines) == 14


def test_authenticate_paper_dr_weights(tmp_path):
    drs = tmp_path / "drs.json"
    drs.write_text(json.dumps({
        "amp_var": 4.48, "amp_range": 4.29, "phase_acf1": 2.40,
        "amp_acf1": 1.45, "amp_kurtosis": 0.92, "evm": 0.86,
    }))
    out = tmp_path / "weights.json"
    assert run(["--out-dir", tmp_path, "authenticate", "--paper-dr", drs, "--out", out]) == EXIT_OK
    w = json.loads(out.read_text())
    assert abs(w["amp_var"] - 0.42) < 0.01


# an infinite ratio, and one whose square overflows a double
@pytest.mark.parametrize("amp_var", [float("inf"), 1e200])
def test_authenticate_paper_dr_refuses_weights_that_are_not_finite(tmp_path, capsys, amp_var):
    drs = tmp_path / "drs.json"
    drs.write_text(json.dumps({"amp_var": amp_var, "evm": 1.0}))
    out = tmp_path / "weights.json"
    assert run(["--out-dir", tmp_path, "authenticate", "--paper-dr", drs,
                "--out", out]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_snr_db_infinity_is_noise_free_and_null_only_in_burst_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_sats": 2, "n_bursts": 3, "snr_db": Infinity}')
    assert run(["--out-dir", tmp_path, "fleet-sim", "--config", cfg]) == EXIT_OK
    table = FeatureTable.from_csv(tmp_path / "features.csv")
    assert np.all(np.isinf(table.snr_db))
    # a config converts snr_db by its float default, which null is not
    for command, config in (("fleet-sim", {"n_sats": 2, "n_bursts": 3}),
                            ("authenticate", SMALL)):
        cfg.write_text(json.dumps({**config, "snr_db": None}))
        assert run(["--out-dir", tmp_path, command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config key snr_db")
    # a burst file's header reads null as noise-free
    x = np.ones(4, dtype=complex)
    path = tmp_path / "burst.bin"
    write_burst_binary(Burst(x, x, BurstMeta(channel=ChannelConfig(snr_db=None))), path)
    assert read_burst_binary(path).meta.channel.noise_free


def test_authenticate_full_experiment(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n_sats": 5, "n_enroll": 40, "n_probe": 40, "n_bal": 30,
        "n_dr_trials": 5, "probe_acc": 20, "n_acc_grid": [1, 10, 20],
        "snr_db": 12.0,
    }))
    assert run(["--seed", 2, "--out-dir", tmp_path, "authenticate", "--config", cfg]) == EXIT_OK
    report = json.loads((tmp_path / "auth_report.json").read_text())
    assert set(report["strategies"]) >= {"dr2_iwat_all6", "iq_only_2", "glrt_crb4"}
    assert abs(sum(report["weights"].values()) - 1.0) < 1e-9
    nacc_lines = (tmp_path / "auc_vs_nacc.csv").read_text().strip().splitlines()
    assert nacc_lines[0] == "strategy,n_acc,auc"
    assert len(nacc_lines) > 3
    roc_lines = (tmp_path / "roc_points.csv").read_text().strip().splitlines()
    assert roc_lines[0] == "strategy,fa_rate,detection_rate"
    assert len(roc_lines) > 10


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"modulations": ["qpsk"], "snr_grid_db": [10],
                               "n_grid": [76]}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["--out-dir", tmp_path, "crb-curves", "--config", cfg, "--out", out1])
    run(["--out-dir", tmp_path, "crb-curves", "--config", cfg, "--out", out2])
    assert out1.read_bytes() == out2.read_bytes()


def test_config_roundtrip_identity(tmp_path):
    cfg = {"modulation": "qpsk", "snr_grid_db": [10, 20], "n": 76, "n_trials": 60}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert json.loads(json.dumps(json.loads(path.read_text()))) == cfg


def _loaded_by_import(*packages) -> str:
    """The modules of ``packages`` that ``import rfident`` loads in a fresh
    interpreter, as a printed sorted list."""
    src = os.path.dirname(os.path.dirname(rfident.__file__))
    code = ("import sys, rfident; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    # scipy is most of the start-up time and only two library functions use it
    assert _loaded_by_import("scipy") == "[]"


def test_import_does_not_load_process_pools():
    # the probe campaign forks through os and pickle, which numpy loads
    # anyway; multiprocessing or concurrent.futures would add milliseconds
    # to every start-up
    assert _loaded_by_import("multiprocessing", "concurrent") == "[]"
